//! The degraded-feedback rebuild controller: when a tenant's delivery
//! rate drops and stays down, ask for an out-of-schedule republish.
//!
//! [`DegradationPolicy`] is the configuration, [`DegradationTracker`]
//! the hysteresis/cooldown state machine the serving loop keeps one of
//! per tenant.

use bcast_types::{WordReader, WordWriter};

/// Degraded-feedback configuration: when and how delivery-rate drops
/// (each served slice's `ServeSession::delivery_rate` in the serving
/// loop) trigger an out-of-schedule rebuild.
///
/// Two guards keep fault *bursts* from causing rebuild storms:
///
/// * **hysteresis** — only `sustain_epochs` *consecutive* degraded epochs
///   trigger a rebuild, and one epoch at or above `recovered_rate` resets
///   the streak (rates between the two thresholds are neutral);
/// * **backoff** — after a degradation rebuild the trigger is locked out
///   for a cooldown that doubles on every consecutive degraded rebuild
///   (up to `max_cooldown_epochs`); a healthy epoch resets the backoff to
///   `cooldown_epochs` and clears any remaining lockout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationPolicy {
    /// Delivery rate below this marks an epoch as degraded.
    pub min_delivery_rate: f64,
    /// Delivery rate at or above this marks the channel healthy (resets
    /// the degraded streak and the cooldown backoff).
    pub recovered_rate: f64,
    /// Consecutive degraded epochs required before rebuilding.
    pub sustain_epochs: u32,
    /// Base lockout (in epochs) after a degradation rebuild.
    pub cooldown_epochs: u64,
    /// Cap for the doubling cooldown.
    pub max_cooldown_epochs: u64,
}

impl Default for DegradationPolicy {
    fn default() -> Self {
        DegradationPolicy {
            min_delivery_rate: 0.9,
            recovered_rate: 0.97,
            sustain_epochs: 3,
            cooldown_epochs: 8,
            max_cooldown_epochs: 64,
        }
    }
}

/// The mutable hysteresis/cooldown state machine behind a
/// [`DegradationPolicy`], extracted so every *tenant* of a multi-tenant
/// service owns an independent instance: one tenant's brownout escalating
/// its cooldown must never suppress a neighbor's rebuild. The serving
/// loop keeps one per tenant.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationTracker {
    policy: DegradationPolicy,
    /// Consecutive epochs with delivery rate below the degradation floor.
    degraded_streak: u32,
    /// Epochs the trigger is still locked out.
    cooldown_left: u64,
    /// Cooldown applied after the *next* degradation rebuild (doubles on
    /// consecutive degraded rebuilds, resets on recovery).
    next_cooldown: u64,
    degraded_rebuilds: u64,
}

impl DegradationTracker {
    /// A fresh tracker for `policy` (streak empty, no lockout).
    pub fn new(policy: DegradationPolicy) -> Self {
        DegradationTracker {
            policy,
            degraded_streak: 0,
            cooldown_left: 0,
            next_cooldown: policy.cooldown_epochs,
            degraded_rebuilds: 0,
        }
    }

    /// Feeds one epoch's delivery rate. Returns `true` when the caller
    /// should rebuild *now* — the tracker has already recorded the rebuild
    /// (streak cleared, cooldown armed), so the caller only performs it.
    ///
    /// See [`DegradationPolicy`] for the hysteresis + backoff rules.
    pub fn observe(&mut self, delivery_rate: f64) -> bool {
        let d = self.policy;
        if self.cooldown_left > 0 {
            self.cooldown_left -= 1;
        }
        if delivery_rate < d.min_delivery_rate {
            self.degraded_streak = self.degraded_streak.saturating_add(1);
        } else if delivery_rate >= d.recovered_rate {
            // A healthy epoch clears the streak, the escalated backoff and
            // any remaining lockout — the lockout exists to pace rebuilds
            // *within* a degraded period, not to delay response to the
            // next one.
            self.degraded_streak = 0;
            self.next_cooldown = d.cooldown_epochs;
            self.cooldown_left = 0;
        }
        if self.degraded_streak >= d.sustain_epochs && self.cooldown_left == 0 {
            self.degraded_rebuilds += 1;
            self.degraded_streak = 0;
            self.cooldown_left = self.next_cooldown;
            self.next_cooldown = (self.next_cooldown.saturating_mul(2)).min(d.max_cooldown_epochs);
            return true;
        }
        false
    }

    /// Rebuilds this tracker has triggered.
    pub fn degraded_rebuilds(&self) -> u64 {
        self.degraded_rebuilds
    }

    /// Writes the tracker's mutable state (streak, lockout, escalated
    /// backoff, lifetime count) for a checkpoint — the policy itself is
    /// immutable configuration and travels separately. Inverse of
    /// [`import_state`](DegradationTracker::import_state).
    pub fn export_state(&self, w: &mut WordWriter) {
        w.u32(self.degraded_streak);
        w.u64(self.cooldown_left);
        w.u64(self.next_cooldown);
        w.u64(self.degraded_rebuilds);
    }

    /// Rebuilds a tracker for `policy` from the state
    /// [`export_state`](DegradationTracker::export_state) wrote. Fails
    /// closed on truncation.
    pub fn import_state(policy: DegradationPolicy, r: &mut WordReader<'_>) -> Option<Self> {
        Some(DegradationTracker {
            policy,
            degraded_streak: r.u32()?,
            cooldown_left: r.u64()?,
            next_cooldown: r.u64()?,
            degraded_rebuilds: r.u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn brief_dips_never_trigger_a_rebuild() {
        let mut t = DegradationTracker::new(DegradationPolicy::default());
        // Alternating bad/healthy epochs: the streak never reaches 3.
        for _ in 0..20 {
            assert!(!t.observe(0.5));
            assert!(!t.observe(0.99));
        }
        assert_eq!(t.degraded_rebuilds(), 0);
    }

    #[test]
    fn neutral_rates_do_not_reset_the_streak() {
        // Between min (0.9) and recovered (0.97) is hysteresis dead band.
        let mut t = DegradationTracker::new(DegradationPolicy::default());
        assert!(!t.observe(0.5));
        assert!(!t.observe(0.93)); // neutral: streak survives
        assert!(!t.observe(0.5));
        assert!(t.observe(0.5)); // third degraded epoch fires
        assert_eq!(t.degraded_rebuilds(), 1);
    }

    #[test]
    fn sustained_loss_rebuilds_with_doubling_cooldown() {
        let d = DegradationPolicy {
            min_delivery_rate: 0.9,
            recovered_rate: 0.97,
            sustain_epochs: 2,
            cooldown_epochs: 4,
            max_cooldown_epochs: 16,
        };
        let mut t = DegradationTracker::new(d);
        let mut rebuild_epochs = Vec::new();
        for epoch in 0..60u64 {
            if t.observe(0.4) {
                rebuild_epochs.push(epoch);
            }
        }
        // A permanent fault storm must not rebuild every sustain_epochs:
        // the doubling cooldown spreads rebuilds out (4, 8, 16, 16…).
        assert!(
            rebuild_epochs.len() <= 5,
            "rebuild storm: {rebuild_epochs:?}"
        );
        let gaps: Vec<u64> = rebuild_epochs.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(
            gaps.windows(2).all(|g| g[1] >= g[0]),
            "cooldown must not shrink during a storm: {gaps:?}"
        );
        assert!(t.degraded_rebuilds() >= 2);
    }

    #[test]
    fn recovery_resets_the_cooldown_backoff() {
        let d = DegradationPolicy {
            min_delivery_rate: 0.9,
            recovered_rate: 0.97,
            sustain_epochs: 2,
            cooldown_epochs: 2,
            max_cooldown_epochs: 32,
        };
        let mut t = DegradationTracker::new(d);
        // First storm: escalate the backoff.
        for _ in 0..20 {
            t.observe(0.4);
        }
        let after_storm = t.degraded_rebuilds();
        assert!(after_storm >= 2);
        // Healthy stretch: backoff resets to the base cooldown.
        for _ in 0..5 {
            assert!(!t.observe(0.995));
        }
        // A fresh storm fires after sustain_epochs again (no stale
        // escalated cooldown in the way once the lockout has drained).
        let mut fired_at = None;
        for epoch in 0..10u64 {
            if t.observe(0.4) {
                fired_at = Some(epoch);
                break;
            }
        }
        assert_eq!(fired_at, Some(1), "sustain_epochs=2 → fire on 2nd epoch");
    }

    #[test]
    fn trackers_are_independent_per_tenant() {
        // The multi-tenant requirement: a brownout escalating tenant A's
        // cooldown must not delay tenant B's first rebuild.
        let d = DegradationPolicy {
            sustain_epochs: 2,
            cooldown_epochs: 4,
            ..DegradationPolicy::default()
        };
        let mut a = DegradationTracker::new(d);
        let mut b = DegradationTracker::new(d);
        // A endures a long storm (escalated backoff, several rebuilds).
        let mut a_rebuilds = 0;
        for _ in 0..30 {
            if a.observe(0.3) {
                a_rebuilds += 1;
            }
        }
        assert!(a_rebuilds >= 2);
        // B, pristine, fires after exactly sustain_epochs.
        assert!(!b.observe(0.3));
        assert!(b.observe(0.3));
        assert_eq!(b.degraded_rebuilds(), 1);
    }
}
