//! EXPERIMENTS F1 (paper §5, future work 1): the serving loop's adaptive
//! tenant under demand drift, against a program frozen at the first
//! slice's demand (*static*, what the paper's offline algorithm gives
//! you) and one republished from every slice's true demand (*oracle*, the
//! unattainable reference).
//!
//! Demand is a hot block of `ITEMS / 8` items holding 80% of the mass,
//! whose offset moves per [`Regime`]. All three programs are scored the
//! same way: the expected data wait of formula 1, Σ pᵢ·T(Dᵢ) / Σ pᵢ, of
//! the program on air at the start of a slice under that slice's pmf,
//! averaged over the slices.

use bcast_channel::SnapshotImage;
use bcast_core::publish::{PublishHeuristic, PublishOptions, Publisher};
use bcast_index_tree::knary;
use bcast_serve::{TenantConfig, TenantRuntime};
use bcast_types::{mix64, SloSpec, Weight};
use bcast_workloads::{DemandShape, DemandSpec};

/// Catalog size.
pub const ITEMS: usize = 80;
/// Slices per run.
pub const SLICES: u64 = 150;
/// Requests per slice.
pub const REQUESTS: u32 = 800;
/// Broadcast channels.
pub const CHANNELS: usize = 2;
/// Index-tree fanout.
pub const FANOUT: usize = 4;
/// The adaptive tenant's EMA smoothing factor.
pub const ALPHA: f64 = 0.6;
/// Items in the hot block.
pub const HOT_ITEMS: usize = ITEMS / 8;
/// Probability mass of the hot block.
pub const HOT_MASS: f64 = 0.8;

/// How the hot block moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// The hot block slides `step` items forward every `every` slices
    /// (`step` 0: stationary demand).
    Slide {
        /// Items moved per drift event.
        step: usize,
        /// Slices between drift events.
        every: u64,
    },
    /// Every `every` slices the hot block jumps to a seed-derived item.
    Jumps {
        /// Slices between drift events.
        every: u64,
    },
}

/// The four regimes F1 reports, with their table labels.
pub const REGIMES: [(&str, Regime); 4] = [
    ("stationary", Regime::Slide { step: 0, every: 1 }),
    ("slow slide", Regime::Slide { step: 5, every: 10 }),
    ("fast slide", Regime::Slide { step: 11, every: 3 }),
    ("jumps", Regime::Jumps { every: 12 }),
];

impl Regime {
    /// The demand during `slice`.
    fn demand_at(self, slice: u64, seed: u64) -> DemandShape {
        let offset = match self {
            Regime::Slide { step, every } => (slice / every) as usize * step % ITEMS,
            Regime::Jumps { every } => match slice / every {
                0 => 0,
                k => (mix64(seed ^ k) % ITEMS as u64) as usize,
            },
        };
        DemandShape::HotSet {
            hot_items: HOT_ITEMS,
            hot_mass: HOT_MASS,
            offset,
        }
    }
}

/// Mean expected data wait, in slots, of each program over one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftWaits {
    /// Published once from the first slice's true pmf.
    pub static_wait: f64,
    /// The serving loop's tenant, re-estimating and republishing every
    /// slice.
    pub adaptive_wait: f64,
    /// Published from every slice's true pmf.
    pub oracle_wait: f64,
}

impl DriftWaits {
    /// F1's shape: the oracle is never beaten; under drift the adaptive
    /// tenant beats the frozen program, and on stationary demand it pays
    /// at most 10% for estimating what static was told.
    pub fn shape_holds(&self, regime: Regime) -> bool {
        let tracks = match regime {
            Regime::Slide { step: 0, .. } => self.adaptive_wait <= 1.10 * self.static_wait,
            _ => self.adaptive_wait < self.static_wait,
        };
        tracks && self.oracle_wait <= self.adaptive_wait
    }
}

/// Runs one regime: a cold-booted tenant serves `SLICES` slices of
/// `REQUESTS` requests (service seed `seed`), while the static and
/// oracle programs are scored against the same pmfs.
pub fn compare(regime: Regime, seed: u64) -> DriftWaits {
    let config = TenantConfig {
        fanout: FANOUT,
        channels: CHANNELS,
        heuristic: PublishHeuristic::Frontier,
        alpha: ALPHA,
        rebuild_every: Some(1),
        degradation: None,
        ..TenantConfig::new(0, ITEMS)
    };
    let mut tenant = TenantRuntime::new(config, seed);
    let mut pmf = regime.demand_at(0, seed).pmf(ITEMS);
    let frozen = publish(&pmf);
    let mut phase_demand = None;
    let mut sums = [0.0; 3];
    for slice in 0..SLICES {
        let demand = regime.demand_at(slice, seed);
        demand.pmf_into(ITEMS, &mut pmf);
        // A drift event opens a new phase with the moved demand.
        if phase_demand != Some(demand) {
            let spec = DemandSpec::flat(demand, REQUESTS);
            tenant.begin_phase(spec, None, SloSpec::lossless(), SLICES as u32);
            phase_demand = Some(demand);
        }
        sums[0] += expected_wait(&frozen, &pmf);
        sums[1] += expected_wait(&tenant.snapshot_image(), &pmf);
        sums[2] += expected_wait(&publish(&pmf), &pmf);
        tenant.run_slice();
    }
    let [static_wait, adaptive_wait, oracle_wait] = sums.map(|s| s / SLICES as f64);
    DriftWaits {
        static_wait,
        adaptive_wait,
        oracle_wait,
    }
}

/// Publishes the program a tenant with F1's config would build from
/// `pmf` as its weights.
fn publish(pmf: &[f64]) -> SnapshotImage {
    let weights: Vec<Weight> = pmf
        .iter()
        .map(|&p| Weight::new(p).expect("a pmf is finite and non-negative"))
        .collect();
    let tree =
        knary::build_weight_balanced_unlabeled(&weights, FANOUT).expect("the catalog is not empty");
    let mut publisher = Publisher::new();
    publisher
        .publish(
            &tree,
            CHANNELS,
            PublishHeuristic::Frontier,
            PublishOptions::default(),
        )
        .expect("bundled heuristics produce feasible allocations");
    publisher.snapshot_image(&tree)
}

/// Formula 1's expected data wait Σ pᵢ·T(Dᵢ) / Σ pᵢ of the program in
/// `image`, where item `i`'s data node is the image catalog's `i`-th.
fn expected_wait(image: &SnapshotImage, pmf: &[f64]) -> f64 {
    let view = image.view().expect("self-captured images verify");
    let program = view.to_program();
    let (mut weighted, mut mass) = (0.0, 0.0);
    for (&p, node) in pmf.iter().zip(view.data_nodes()) {
        let slot = program.data_slot(node).expect("every data node is routed");
        weighted += p * slot.wait() as f64;
        mass += p;
    }
    weighted / mass
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Asserts F1's shape at the default seed on each of `regimes`.
    fn assert_shape(regimes: &[(&str, Regime)]) {
        for &(name, regime) in regimes {
            let w = compare(regime, 17);
            assert!(w.shape_holds(regime), "{name}: {w:?}");
        }
    }

    #[test]
    fn stationary_load_needs_no_adaptation() {
        assert_eq!(REGIMES[0].1, Regime::Slide { step: 0, every: 1 });
        assert_shape(&REGIMES[..1]);
    }

    #[test]
    fn adaptation_wins_under_drift() {
        assert_shape(&REGIMES[1..]);
    }
}
