//! Fault-scenario presets for lossy-channel experiments.
//!
//! The degradation experiments sweep the serving stack across channel
//! conditions from clean to hostile. This module keeps the scenario
//! *parameters* (plain numbers — no dependency on the channel crate, which
//! constructs its seeded `FaultPlan` from them), so scenario scripts,
//! benches and tests describe a channel the same way.

/// Gilbert–Elliott burst parameters of a scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstProfile {
    /// Transition probability good → bad per read.
    pub p_good_to_bad: f64,
    /// Transition probability bad → good per read.
    pub p_bad_to_good: f64,
    /// Loss probability in the good state.
    pub loss_good: f64,
    /// Loss probability in the bad state.
    pub loss_bad: f64,
}

impl BurstProfile {
    /// Long-run expected loss rate of the chain (stationary mix of the
    /// good- and bad-state loss probabilities).
    pub fn expected_loss(&self) -> f64 {
        let denom = self.p_good_to_bad + self.p_bad_to_good;
        let pi_bad = if denom > 0.0 {
            self.p_good_to_bad / denom
        } else {
            0.0
        };
        (1.0 - pi_bad) * self.loss_good + pi_bad * self.loss_bad
    }
}

/// One named channel condition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultScenario {
    /// Human-readable label (stable across benches and reports).
    pub name: &'static str,
    /// Independent per-read erasure probability (`0` when `burst` drives
    /// the losses).
    pub erasure_p: f64,
    /// Burst-loss profile, if the scenario is bursty.
    pub burst: Option<BurstProfile>,
}

/// An evenly spaced erasure-probability sweep `0 ..= max_p` with `steps`
/// points (inclusive of both ends) — the degradation-curve x-axis.
///
/// # Panics
/// Panics if `steps < 2` or `max_p` escapes `[0, 1]`.
pub fn erasure_sweep(max_p: f64, steps: usize) -> Vec<f64> {
    assert!(steps >= 2, "a sweep needs at least its two endpoints");
    assert!((0.0..=1.0).contains(&max_p), "max_p must be a probability");
    (0..steps)
        .map(|i| max_p * i as f64 / (steps - 1) as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_both_endpoints_monotonically() {
        let s = erasure_sweep(0.5, 6);
        assert_eq!(s.len(), 6);
        assert_eq!(s[0], 0.0);
        assert!((s[5] - 0.5).abs() < 1e-12);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
    }
}
