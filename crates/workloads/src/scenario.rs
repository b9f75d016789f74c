//! "Day in the life" scenario scripts for the multi-tenant serving loop.
//!
//! A [`ScenarioSpec`] is pure data — tenant counts, phase timelines,
//! demand shapes, per-tenant channel conditions and SLOs — with no
//! dependency on the serving machinery, mirroring how
//! [`fault_scenarios`](crate::fault_scenarios) keeps channel conditions as
//! plain numbers. The `bcast-serve` crate interprets a spec
//! deterministically from a seed; benches, tests and the CLI all iterate
//! the same four canonical scripts:
//!
//! * [`flash_crowd`] — breaking news: one tenant's demand multiplies and
//!   collapses onto a tiny hot set, then decays;
//! * [`diurnal_drift`] — a day's traffic curve: rates ramp up and down
//!   while the hot set slides through the key space;
//! * [`brownout`] — one tenant's channel takes sustained Gilbert–Elliott
//!   burst loss while its neighbors stay lossless;
//! * [`tenant_churn`] — tenants join cold and leave mid-day.
//!
//! Two robustness scripts ride alongside the canonical four:
//!
//! * [`overload_storm`] — one tenant's demand blows past a service-wide
//!   per-slice request budget; the shedder must clip the storm while
//!   every polite neighbor keeps its strict SLO;
//! * [`poison_pill`] — one tenant's slice work panics mid-phase; the
//!   quarantine must absorb it with every SLO (including the poisoned
//!   tenant's) intact.

use crate::fault_scenarios::{BurstProfile, FaultScenario};
use bcast_types::SloSpec;

/// The shape of one tenant's request distribution during a phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DemandShape {
    /// Zipf(θ) over item ranks, hottest first.
    Zipf {
        /// Skew exponent (`0` = uniform).
        theta: f64,
    },
    /// A hot block of items sharing most of the mass, starting at
    /// `offset` (wrapping) — lets scripts *move* the hot set to model
    /// drift, which plain `RequestStream::hotset` (block at 0) cannot.
    HotSet {
        /// Items in the hot block.
        hot_items: usize,
        /// Probability mass of the hot block.
        hot_mass: f64,
        /// First item of the hot block (wraps modulo the item count).
        offset: usize,
    },
}

impl DemandShape {
    /// True if this shape has a pmf over `items` item ids: a finite,
    /// non-negative θ (the rule `RequestStream::zipf` applies), or a hot
    /// block in `1..=items` whose mass lies in `[0, 1]` and leaves some
    /// item a nonzero probability. Any offset fits: it wraps modulo the
    /// item count.
    pub fn fits(&self, items: usize) -> bool {
        match *self {
            DemandShape::Zipf { theta } => theta.is_finite() && theta >= 0.0,
            DemandShape::HotSet {
                hot_items,
                hot_mass,
                ..
            } => {
                (1..=items).contains(&hot_items)
                    && (0.0..=1.0).contains(&hot_mass)
                    && (hot_mass > 0.0 || hot_items < items)
            }
        }
    }

    /// The probability mass function over `items` item ids.
    ///
    /// # Panics
    /// Panics if `items == 0`, or if the shape does not
    /// [`fit`](Self::fits) `items`.
    pub fn pmf(&self, items: usize) -> Vec<f64> {
        let mut out = Vec::new();
        self.pmf_into(items, &mut out);
        out
    }

    /// Fills `out` with the pmf over `items` item ids, reusing its
    /// capacity — the serving loop's allocation-free variant of
    /// [`pmf`](Self::pmf) (identical values, bit for bit).
    ///
    /// # Panics
    /// Panics if `items == 0`, or if the shape does not
    /// [`fit`](Self::fits) `items`.
    pub fn pmf_into(&self, items: usize, out: &mut Vec<f64>) {
        assert!(items > 0, "need at least one item");
        assert!(self.fits(items), "{self:?} has no pmf over {items} items");
        out.clear();
        match *self {
            DemandShape::Zipf { theta } => {
                out.extend((0..items).map(|r| 1.0 / ((r + 1) as f64).powf(theta)));
            }
            DemandShape::HotSet {
                hot_items,
                hot_mass,
                offset,
            } => {
                let cold_items = items - hot_items;
                let hot_p = hot_mass / hot_items as f64;
                let cold_p = if cold_items == 0 {
                    0.0
                } else {
                    (1.0 - hot_mass) / cold_items as f64
                };
                out.resize(items, cold_p);
                // Reduced first, so `offset + i` cannot overflow.
                let offset = offset % items;
                for i in 0..hot_items {
                    out[(offset + i) % items] = hot_p;
                }
            }
        }
    }
}

/// One tenant's demand during a phase: a distribution shape plus a
/// request rate that interpolates linearly across the phase (flat when
/// `start_rate == end_rate`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DemandSpec {
    /// Distribution over items.
    pub shape: DemandShape,
    /// Requests per time slice at the first slice of the phase.
    pub start_rate: u32,
    /// Requests per time slice at the last slice of the phase.
    pub end_rate: u32,
}

impl DemandSpec {
    /// A flat-rate demand.
    pub fn flat(shape: DemandShape, rate: u32) -> Self {
        DemandSpec {
            shape,
            start_rate: rate,
            end_rate: rate,
        }
    }

    /// The integer request rate at `slice` of a phase `slices` long
    /// (linear interpolation between the endpoint rates).
    pub fn rate_at(&self, slice: u32, slices: u32) -> u32 {
        if slices <= 1 {
            return self.start_rate;
        }
        let t = f64::from(slice) / f64::from(slices - 1);
        let rate = f64::from(self.start_rate)
            + t * (f64::from(self.end_rate) - f64::from(self.start_rate));
        rate.round() as u32
    }
}

/// Per-tenant departures from a phase's defaults, keyed by the tenant's
/// stable id (churn keeps ids stable as neighbors come and go).
#[derive(Debug, Clone, PartialEq)]
pub struct TenantOverride {
    /// Stable id of the tenant this override targets.
    pub tenant: u64,
    /// Demand replacing the phase default, if any.
    pub demand: Option<DemandSpec>,
    /// Channel condition for this tenant (`None` = lossless).
    pub faults: Option<FaultScenario>,
    /// SLO replacing the phase default, if any (a browned-out tenant gets
    /// a degraded SLO while its neighbors keep the strict one).
    pub slo: Option<SloSpec>,
    /// Chaos injection: panic this tenant's slice work at the given
    /// slice offset within the phase (`0` = the phase's first slice).
    /// Plain data — the serve crate arms its panic-quarantine machinery
    /// from it; the panicking slice serves nothing and the tenant is
    /// quarantined with backoff.
    pub poison_slice: Option<u32>,
}

impl TenantOverride {
    /// An override that only changes the channel condition.
    pub fn faulty(tenant: u64, faults: FaultScenario, slo: SloSpec) -> Self {
        TenantOverride {
            tenant,
            demand: None,
            faults: Some(faults),
            slo: Some(slo),
            poison_slice: None,
        }
    }

    /// An override that only injects a panic at a slice offset within
    /// the phase.
    pub fn poisoned(tenant: u64, poison_slice: u32) -> Self {
        TenantOverride {
            tenant,
            demand: None,
            faults: None,
            slo: None,
            poison_slice: Some(poison_slice),
        }
    }
}

/// One phase of a scenario: a fixed number of time slices sharing a
/// demand default, plus churn events applied at the phase boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSpec {
    /// Phase label (stable across reports and benches).
    pub name: &'static str,
    /// Time slices in the phase.
    pub slices: u32,
    /// Default demand for every tenant without an override.
    pub demand: DemandSpec,
    /// Per-tenant departures from the defaults.
    pub overrides: Vec<TenantOverride>,
    /// Tenants joining (cold) at the start of this phase.
    pub join: usize,
    /// Tenants leaving at the start of this phase (highest ids first).
    pub leave: usize,
    /// SLO every tenant without an override must meet over the phase.
    pub slo: SloSpec,
}

impl PhaseSpec {
    /// A phase with no churn and no overrides.
    pub fn uniform(name: &'static str, slices: u32, demand: DemandSpec, slo: SloSpec) -> Self {
        PhaseSpec {
            name,
            slices,
            demand,
            overrides: Vec::new(),
            join: 0,
            leave: 0,
            slo,
        }
    }

    /// The demand a tenant sees in this phase.
    pub fn demand_for(&self, tenant: u64) -> DemandSpec {
        self.overrides
            .iter()
            .find(|o| o.tenant == tenant)
            .and_then(|o| o.demand)
            .unwrap_or(self.demand)
    }

    /// The channel condition a tenant sees in this phase (`None` =
    /// lossless).
    pub fn faults_for(&self, tenant: u64) -> Option<FaultScenario> {
        self.overrides
            .iter()
            .find(|o| o.tenant == tenant)
            .and_then(|o| o.faults)
    }

    /// The SLO a tenant must meet over this phase.
    pub fn slo_for(&self, tenant: u64) -> SloSpec {
        self.overrides
            .iter()
            .find(|o| o.tenant == tenant)
            .and_then(|o| o.slo)
            .unwrap_or(self.slo)
    }

    /// The slice offset (within the phase) at which this tenant's slice
    /// work is scripted to panic, if any.
    pub fn poison_for(&self, tenant: u64) -> Option<u32> {
        self.overrides
            .iter()
            .find(|o| o.tenant == tenant)
            .and_then(|o| o.poison_slice)
    }
}

/// A complete scripted scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario label.
    pub name: &'static str,
    /// Tenants present at slice zero (ids `0..tenants`).
    pub tenants: usize,
    /// Items per tenant catalog.
    pub items_per_tenant: usize,
    /// Index-tree fanout per tenant.
    pub fanout: usize,
    /// Broadcast channels per tenant.
    pub channels: usize,
    /// When set, every tenant routes its rebuilds through the serving
    /// loop's incremental delta lane with this fallback threshold
    /// (fraction of schedule positions; `None` = full rebuilds, the
    /// canonical behavior). Plain data here — the serve crate maps it
    /// onto its `RebuildLane`.
    pub delta_max_touched: Option<f64>,
    /// When set, the serving loop admits at most this many requests per
    /// slice across the whole roster, shedding the excess from
    /// over-quota tenants first (`None` = admit everything, the
    /// canonical behavior). Plain data — the serve crate's water-filling
    /// shedder interprets it.
    pub slice_budget: Option<u64>,
    /// The phase timeline.
    pub phases: Vec<PhaseSpec>,
}

impl ScenarioSpec {
    /// Total time slices across all phases.
    pub fn total_slices(&self) -> u64 {
        self.phases.iter().map(|p| u64::from(p.slices)).sum()
    }

    /// Routes every tenant's rebuilds through the incremental delta lane
    /// with fallback threshold `max_touched` — the same script replayed
    /// through the other republish machinery.
    pub fn with_delta_lane(mut self, max_touched: f64) -> Self {
        self.delta_max_touched = Some(max_touched);
        self
    }

    /// Caps the roster's total admitted requests per slice at `budget`
    /// — the same script replayed under the serving loop's overload
    /// shedder.
    pub fn with_slice_budget(mut self, budget: u64) -> Self {
        self.slice_budget = Some(budget);
        self
    }

    /// Scales every phase's request rates by `factor` — benches reuse
    /// the canonical scripts at heavier load without forking them.
    pub fn scale_rates(mut self, factor: u32) -> Self {
        for phase in &mut self.phases {
            phase.demand.start_rate *= factor;
            phase.demand.end_rate *= factor;
            for o in &mut phase.overrides {
                if let Some(d) = &mut o.demand {
                    d.start_rate *= factor;
                    d.end_rate *= factor;
                }
            }
        }
        self
    }
}

/// The 20%-loss Gilbert–Elliott channel condition the brownout scripts
/// and the tenant-isolation chaos tests share.
pub fn brownout_channel() -> FaultScenario {
    FaultScenario {
        name: "brownout-ge20",
        erasure_p: 0.0,
        burst: Some(BurstProfile {
            p_good_to_bad: 0.1,
            p_bad_to_good: 0.25,
            loss_good: 0.02,
            loss_bad: 0.83,
        }),
    }
}

/// Baseline calm demand shared by the canonical scripts.
fn calm(rate: u32) -> DemandSpec {
    DemandSpec::flat(DemandShape::Zipf { theta: 0.9 }, rate)
}

/// Flash crowd: calm traffic, then tenant 0's demand multiplies by 8 and
/// collapses onto a 4-item hot block (breaking news), then decays back.
pub fn flash_crowd(tenants: usize, items: usize, rate: u32, slices: u32) -> ScenarioSpec {
    let spike = DemandSpec::flat(
        DemandShape::HotSet {
            hot_items: 4.min(items),
            hot_mass: 0.95,
            offset: items / 2,
        },
        rate * 8,
    );
    let decay = DemandSpec {
        shape: DemandShape::Zipf { theta: 1.2 },
        start_rate: rate * 4,
        end_rate: rate,
    };
    ScenarioSpec {
        name: "flash-crowd",
        tenants,
        items_per_tenant: items,
        fanout: 4,
        channels: 3,
        delta_max_touched: None,
        slice_budget: None,
        phases: vec![
            PhaseSpec::uniform("calm", slices, calm(rate), SloSpec::lossless()),
            PhaseSpec {
                name: "spike",
                slices,
                demand: calm(rate),
                overrides: vec![TenantOverride {
                    tenant: 0,
                    demand: Some(spike),
                    faults: None,
                    slo: None,
                    poison_slice: None,
                }],
                join: 0,
                leave: 0,
                slo: SloSpec::lossless(),
            },
            PhaseSpec {
                name: "decay",
                slices,
                demand: calm(rate),
                overrides: vec![TenantOverride {
                    tenant: 0,
                    demand: Some(decay),
                    faults: None,
                    slo: None,
                    poison_slice: None,
                }],
                join: 0,
                leave: 0,
                slo: SloSpec::lossless(),
            },
        ],
    }
}

/// Diurnal drift: overnight trickle, a morning ramp-up with the hot set
/// sliding a quarter of the way through the key space, a busy afternoon
/// with the hot set slid further, and an evening ramp-down.
pub fn diurnal_drift(tenants: usize, items: usize, rate: u32, slices: u32) -> ScenarioSpec {
    let hot = |offset: usize| DemandShape::HotSet {
        hot_items: (items / 8).max(1),
        hot_mass: 0.8,
        offset,
    };
    ScenarioSpec {
        name: "diurnal-drift",
        tenants,
        items_per_tenant: items,
        fanout: 4,
        channels: 3,
        delta_max_touched: None,
        slice_budget: None,
        phases: vec![
            PhaseSpec::uniform(
                "night",
                slices,
                DemandSpec::flat(hot(0), rate / 4),
                SloSpec::lossless(),
            ),
            PhaseSpec::uniform(
                "morning",
                slices,
                DemandSpec {
                    shape: hot(items / 4),
                    start_rate: rate / 4,
                    end_rate: rate * 2,
                },
                SloSpec::lossless(),
            ),
            PhaseSpec::uniform(
                "afternoon",
                slices,
                DemandSpec::flat(hot(items / 2), rate * 2),
                SloSpec::lossless(),
            ),
            PhaseSpec::uniform(
                "evening",
                slices,
                DemandSpec {
                    shape: hot(3 * items / 4),
                    start_rate: rate * 2,
                    end_rate: rate / 4,
                },
                SloSpec::lossless(),
            ),
        ],
    }
}

/// Brownout: tenant 0's channel takes ~20% burst loss for a stretch while
/// every neighbor stays lossless under the strict SLO, then recovers.
pub fn brownout(tenants: usize, items: usize, rate: u32, slices: u32) -> ScenarioSpec {
    ScenarioSpec {
        name: "brownout",
        tenants,
        items_per_tenant: items,
        fanout: 4,
        channels: 3,
        delta_max_touched: None,
        slice_budget: None,
        phases: vec![
            PhaseSpec::uniform("clean", slices, calm(rate), SloSpec::lossless()),
            PhaseSpec {
                name: "brownout",
                slices: slices * 2,
                demand: calm(rate),
                overrides: vec![TenantOverride::faulty(
                    0,
                    brownout_channel(),
                    SloSpec::degraded(0.90, 8.0),
                )],
                join: 0,
                leave: 0,
                slo: SloSpec::lossless(),
            },
            PhaseSpec::uniform("recovered", slices, calm(rate), SloSpec::lossless()),
        ],
    }
}

/// Tenant churn: a stable morning cohort, two tenants joining cold at
/// midday, then the two newest leaving in the evening.
pub fn tenant_churn(tenants: usize, items: usize, rate: u32, slices: u32) -> ScenarioSpec {
    ScenarioSpec {
        name: "tenant-churn",
        tenants,
        items_per_tenant: items,
        fanout: 4,
        channels: 3,
        delta_max_touched: None,
        slice_budget: None,
        phases: vec![
            PhaseSpec::uniform("steady", slices, calm(rate), SloSpec::lossless()),
            PhaseSpec {
                name: "join",
                slices,
                demand: calm(rate),
                overrides: Vec::new(),
                join: 2,
                leave: 0,
                slo: SloSpec::lossless(),
            },
            PhaseSpec {
                name: "leave",
                slices,
                demand: calm(rate),
                overrides: Vec::new(),
                join: 0,
                leave: 2,
                slo: SloSpec::lossless(),
            },
        ],
    }
}

/// Overload storm: a per-slice request budget sized for twice the calm
/// load, then tenant 0's demand multiplies by 16 — far past the budget.
/// Water-filling admission must leave every polite neighbor whole (they
/// keep the lossless SLO) while the storming tenant is clipped to the
/// leftover budget and held only to a storm-rate floor sized so the
/// budget `(tenants + 1) · rate` left over for it stays comfortably
/// above `0.15 · 16 · rate` for any roster of at least two tenants.
pub fn overload_storm(tenants: usize, items: usize, rate: u32, slices: u32) -> ScenarioSpec {
    let storm = DemandSpec::flat(DemandShape::Zipf { theta: 1.1 }, rate * 16);
    ScenarioSpec {
        name: "overload-storm",
        tenants,
        items_per_tenant: items,
        fanout: 4,
        channels: 3,
        delta_max_touched: None,
        slice_budget: Some(2 * tenants as u64 * u64::from(rate)),
        phases: vec![
            PhaseSpec::uniform("calm", slices, calm(rate), SloSpec::lossless()),
            PhaseSpec {
                name: "storm",
                slices,
                demand: calm(rate),
                overrides: vec![TenantOverride {
                    tenant: 0,
                    demand: Some(storm),
                    faults: None,
                    slo: Some(SloSpec::degraded(0.15, 8.0)),
                    poison_slice: None,
                }],
                join: 0,
                leave: 0,
                slo: SloSpec::lossless(),
            },
            PhaseSpec::uniform("calm-again", slices, calm(rate), SloSpec::lossless()),
        ],
    }
}

/// Poison pill: tenant 0's slice work panics on the second slice of the
/// middle phase. The serving loop's quarantine catches the panic, parks
/// the tenant on its last-good program with backoff, and readmits it —
/// all under the *lossless* SLO for everyone, the panicked slice being a
/// clean no-op rather than a burst of failures.
pub fn poison_pill(tenants: usize, items: usize, rate: u32, slices: u32) -> ScenarioSpec {
    ScenarioSpec {
        name: "poison-pill",
        tenants,
        items_per_tenant: items,
        fanout: 4,
        channels: 3,
        delta_max_touched: None,
        slice_budget: None,
        phases: vec![
            PhaseSpec::uniform("calm", slices, calm(rate), SloSpec::lossless()),
            PhaseSpec {
                name: "poison",
                slices,
                demand: calm(rate),
                overrides: vec![TenantOverride::poisoned(0, 1)],
                join: 0,
                leave: 0,
                slo: SloSpec::lossless(),
            },
            PhaseSpec::uniform("recovered", slices, calm(rate), SloSpec::lossless()),
        ],
    }
}

/// The four canonical "day in the life" scripts at a common size — the
/// grid the scenario tests, the CLI and the benches iterate.
pub fn canonical_scenarios(
    tenants: usize,
    items: usize,
    rate: u32,
    slices: u32,
) -> Vec<ScenarioSpec> {
    vec![
        flash_crowd(tenants, items, rate, slices),
        diurnal_drift(tenants, items, rate, slices),
        brownout(tenants, items, rate, slices),
        tenant_churn(tenants, items, rate, slices),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pmfs_are_normalizable_and_shaped() {
        let zipf = DemandShape::Zipf { theta: 1.0 }.pmf(8);
        assert!(zipf[0] > zipf[7]);
        let hot = DemandShape::HotSet {
            hot_items: 2,
            hot_mass: 0.9,
            offset: 7,
        }
        .pmf(8);
        // Wrapping block: items 7 and 0 are hot.
        assert!(hot[7] > hot[1] && hot[0] > hot[1]);
        assert!((hot.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rate_interpolates_across_the_phase() {
        let d = DemandSpec {
            shape: DemandShape::Zipf { theta: 1.0 },
            start_rate: 100,
            end_rate: 500,
        };
        assert_eq!(d.rate_at(0, 5), 100);
        assert_eq!(d.rate_at(4, 5), 500);
        assert_eq!(d.rate_at(2, 5), 300);
        // Degenerate single-slice phase pins the start rate.
        assert_eq!(d.rate_at(0, 1), 100);
    }

    #[test]
    fn overrides_route_by_stable_tenant_id() {
        let spec = brownout(4, 64, 100, 10);
        let storm = &spec.phases[1];
        assert!(storm.faults_for(0).is_some());
        assert!(storm.faults_for(1).is_none());
        assert!(storm.slo_for(0).min_delivery_rate < 1.0);
        assert_eq!(storm.slo_for(1).min_delivery_rate, 1.0);
        assert_eq!(storm.demand_for(0), storm.demand_for(1));
    }

    #[test]
    fn canonical_scripts_cover_the_four_regimes() {
        let grid = canonical_scenarios(4, 64, 200, 12);
        let names: Vec<&str> = grid.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            ["flash-crowd", "diurnal-drift", "brownout", "tenant-churn"]
        );
        for s in &grid {
            assert!(s.total_slices() > 0);
            assert!(!s.phases.is_empty());
        }
        // Churn is the only script that changes the tenant roster.
        let churn = &grid[3];
        assert_eq!(churn.phases[1].join, 2);
        assert_eq!(churn.phases[2].leave, 2);
    }

    #[test]
    fn rate_scaling_touches_defaults_and_overrides() {
        let spec = flash_crowd(4, 64, 100, 10).scale_rates(3);
        assert_eq!(spec.phases[0].demand.start_rate, 300);
        let spike = spec.phases[1].overrides[0].demand.unwrap();
        assert_eq!(spike.start_rate, 2400);
    }

    #[test]
    fn overload_storm_budget_spares_polite_neighbors() {
        let spec = overload_storm(4, 64, 100, 10);
        let budget = spec.slice_budget.unwrap();
        assert_eq!(budget, 800);
        let calm_total = 4 * 100;
        assert!(calm_total <= budget as u32, "calm phases never shed");
        let storm = &spec.phases[1];
        assert_eq!(storm.demand_for(0).start_rate, 1600);
        assert_eq!(storm.demand_for(1).start_rate, 100);
        // Leftover budget for the storming tenant after the three
        // polite neighbors keep their full rate, vs its SLO floor.
        let leftover = budget - 3 * 100;
        assert!(leftover as f64 / 1600.0 > 0.15 + 0.05, "floor has slack");
        assert_eq!(storm.slo_for(1).min_delivery_rate, 1.0);
    }

    #[test]
    fn poison_pill_scripts_one_panic_mid_phase() {
        let spec = poison_pill(3, 64, 80, 8);
        assert_eq!(spec.phases[1].poison_for(0), Some(1));
        assert_eq!(spec.phases[1].poison_for(1), None);
        assert_eq!(spec.phases[0].poison_for(0), None);
        // The poisoned tenant is still held to the lossless SLO: the
        // panicked slice must be a no-op, not an outage.
        assert_eq!(spec.phases[1].slo_for(0).min_delivery_rate, 1.0);
    }

    #[test]
    fn slice_budget_builder_sets_the_cap() {
        let spec = flash_crowd(4, 64, 100, 10);
        assert_eq!(spec.slice_budget, None, "canonical scripts never shed");
        assert_eq!(spec.with_slice_budget(640).slice_budget, Some(640));
    }

    #[test]
    fn brownout_channel_loses_about_a_fifth() {
        let burst = brownout_channel()
            .burst
            .expect("the brownout channel is bursty");
        let loss = burst.expected_loss();
        assert!((0.15..0.30).contains(&loss), "expected ~20% loss: {loss}");
    }
}
