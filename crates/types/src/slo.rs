//! Service-level objectives for the live multi-tenant serving loop.
//!
//! The scenario harness judges every tenant in every scenario phase
//! against an [`SloSpec`]: a delivery-rate floor, a p99 access-time
//! ceiling, and a rebuild-downtime budget. The measured side is an
//! [`SloSnapshot`] — plain integers and `f64`s accumulated by the serving
//! loop — so the comparison ([`SloSnapshot::check`]) is pure data against
//! data, independent of how the window was served (thread count, tenant
//! sharding, co-tenants).
//!
//! The p99 ceiling is expressed in *cycles*, not slots: a broadcast
//! client's access time is dominated by where in the cycle it tunes in,
//! so "p99 within `c` cycles" is the scale-free form that survives
//! rebuilds changing the cycle length. The check multiplies by the
//! largest cycle length observed in the window.

use crate::words::{WordReader, WordWriter};

/// Per-phase service-level objective for one tenant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSpec {
    /// Minimum fraction of requests delivered within their recovery
    /// budget (`1.0` demands perfection — achievable on a lossless
    /// channel, where the serving engine never fails a request).
    pub min_delivery_rate: f64,
    /// Ceiling on the p99 total access time, in multiples of the cycle
    /// length (fault-free serving is bounded by 2 cycles: probe wait ≤ 1
    /// cycle, data wait < 1 cycle; recovery under loss adds more).
    pub max_p99_cycles: f64,
    /// Ceiling on slots spent without a servable program. The
    /// double-buffered publish swap keeps the old program live through a
    /// rebuild, so the steady-state budget is exactly zero.
    pub max_rebuild_downtime_slots: u64,
}

impl Default for SloSpec {
    fn default() -> Self {
        SloSpec {
            min_delivery_rate: 0.999,
            max_p99_cycles: 2.0,
            max_rebuild_downtime_slots: 0,
        }
    }
}

impl SloSpec {
    /// A lossless-channel SLO: every request delivered, p99 within the
    /// fault-free 2-cycle bound, zero downtime.
    pub fn lossless() -> Self {
        SloSpec {
            min_delivery_rate: 1.0,
            max_p99_cycles: 2.0,
            max_rebuild_downtime_slots: 0,
        }
    }

    /// A degraded-channel SLO for a tenant known to be under loss:
    /// `min_delivery` delivery with recovery headroom of `p99_cycles`
    /// cycles at p99. Downtime stays zero — loss never justifies serving
    /// without a program.
    pub fn degraded(min_delivery: f64, p99_cycles: f64) -> Self {
        SloSpec {
            min_delivery_rate: min_delivery,
            max_p99_cycles: p99_cycles,
            max_rebuild_downtime_slots: 0,
        }
    }

    /// Writes the spec for a checkpoint. Inverse:
    /// [`import_state`](Self::import_state).
    pub fn export_state(&self, w: &mut WordWriter) {
        w.f64(self.min_delivery_rate);
        w.f64(self.max_p99_cycles);
        w.u64(self.max_rebuild_downtime_slots);
    }

    /// Reads a spec [`export_state`](Self::export_state) wrote; `None` on
    /// truncation.
    pub fn import_state(r: &mut WordReader<'_>) -> Option<Self> {
        Some(SloSpec {
            min_delivery_rate: r.f64()?,
            max_p99_cycles: r.f64()?,
            max_rebuild_downtime_slots: r.u64()?,
        })
    }
}

/// What one tenant measured over one observation window (a scenario
/// phase, typically). All counters are exact integers; the two `f64`
/// means are derived from integer sums, so equal windows produce
/// bit-identical snapshots.
///
/// Three exceptions: [`rebuild_wall_ns`](SloSnapshot::rebuild_wall_ns)
/// measures wall-clock time, which no amount of seeding makes
/// reproducible; [`snapshot_loads`](SloSnapshot::snapshot_loads) records
/// which *boot path* ran rather than what was served; and
/// [`alias_rebuilds`](SloSnapshot::alias_rebuilds) records sampler-cache
/// misses rather than what was sampled. The manual [`PartialEq`] impl
/// excludes all three — two snapshots are equal iff every
/// serving-deterministic field matches, and the thread-count/replay
/// determinism tests stay exact.
#[derive(Debug, Clone, Copy, Default)]
pub struct SloSnapshot {
    /// Requests offered (delivered + failed).
    pub requests: u64,
    /// Requests delivered within their recovery budget.
    pub delivered: u64,
    /// Requests abandoned after exhausting their retry/timeout budget.
    pub failed: u64,
    /// Failed reads recovered from (or charged by failed requests).
    pub retries: u64,
    /// p99 total access time in slots over delivered requests (`0` when
    /// nothing was delivered).
    pub p99_slots: u32,
    /// Mean total access time in slots over delivered requests.
    pub mean_access_slots: f64,
    /// Largest cycle length (slots) the tenant served during the window.
    pub max_cycle_len: u32,
    /// Programs published during the window (periodic + degradation).
    pub rebuilds: u64,
    /// Rebuilds triggered by the degradation-feedback path specifically.
    pub degraded_rebuilds: u64,
    /// Slots spent with requests pending but no servable program.
    pub rebuild_downtime_slots: u64,
    /// Rebuilds the incremental delta lane patched in place.
    pub delta_rebuilds: u64,
    /// Rebuilds that ran the full publish path (delta fallbacks included).
    pub full_rebuilds: u64,
    /// Parts-per-million of schedule nodes touched across the window's
    /// rebuilds (`Σ touched · 10⁶ / Σ total`; a full rebuild touches
    /// everything, a quiet delta patch close to nothing). `0` when no
    /// rebuild ran.
    pub touched_ppm: u64,
    /// Programs installed from a validated snapshot image instead of a
    /// boot publish during the window (tenant cold-starts). The served
    /// program is bit-identical either way, so — like
    /// [`rebuild_wall_ns`](SloSnapshot::rebuild_wall_ns) — the field is
    /// excluded from equality: a tenant must compare equal to its own
    /// replay whether or not a boot image happened to be cached. The
    /// scenario fingerprint *does* fold it in, so churn runs record how
    /// many joins took the fast path.
    pub snapshot_loads: u64,
    /// Periodic republish points the drift gate turned into no-ops
    /// (`rebuild_min_drift` in the serve crate): cadence fired, estimator
    /// drift sat under the floor, program stayed on air. Deterministic —
    /// drift is a pure function of the request stream — so the field
    /// participates in equality like the rebuild counters do.
    pub skipped_rebuilds: u64,
    /// Wall-clock nanoseconds spent inside rebuilds during the window.
    /// A *side channel* for operators and benches — excluded from
    /// equality and fingerprints because wall time is not deterministic.
    pub rebuild_wall_ns: u64,
    /// Demand-sampler alias tables rebuilt during the window. The serving
    /// loop caches each tenant's alias table across slices and rebuilds it
    /// only when the demand *shape* changes (a phase boundary), so this
    /// counts cache misses — an efficiency observability channel, excluded
    /// from equality and fingerprints like
    /// [`rebuild_wall_ns`](SloSnapshot::rebuild_wall_ns) so caching policy
    /// can evolve without perturbing replay identities.
    pub alias_rebuilds: u64,
    /// Slices this tenant entered quarantine (a panic during its slice
    /// work or republish was caught; serving continues from the last-good
    /// double-buffered program with rebuilds suspended). Panics are
    /// injected deterministically in tests, so the counter participates
    /// in equality and the fingerprint.
    pub quarantined: u64,
    /// Times the tenant was readmitted from quarantine after its
    /// exponential backoff elapsed and a probe slice succeeded.
    /// Deterministic, compared and fingerprinted.
    pub readmitted: u64,
    /// Requests the overload-shedding admission controller refused this
    /// tenant during the window (still counted in
    /// [`requests`](SloSnapshot::requests), never in
    /// [`delivered`](SloSnapshot::delivered), so shedding shows up as a
    /// delivery-rate drop on the shed tenant itself). Admission is
    /// deterministic, so the counter is compared and fingerprinted.
    pub shed_requests: u64,
}

impl PartialEq for SloSnapshot {
    fn eq(&self, other: &Self) -> bool {
        // Every serving-deterministic field, skipping `rebuild_wall_ns`,
        // the boot-path-dependent `snapshot_loads` and the caching-policy
        // channel `alias_rebuilds` (see the field docs).
        self.requests == other.requests
            && self.delivered == other.delivered
            && self.failed == other.failed
            && self.retries == other.retries
            && self.p99_slots == other.p99_slots
            && self.mean_access_slots == other.mean_access_slots
            && self.max_cycle_len == other.max_cycle_len
            && self.rebuilds == other.rebuilds
            && self.degraded_rebuilds == other.degraded_rebuilds
            && self.rebuild_downtime_slots == other.rebuild_downtime_slots
            && self.delta_rebuilds == other.delta_rebuilds
            && self.full_rebuilds == other.full_rebuilds
            && self.skipped_rebuilds == other.skipped_rebuilds
            && self.touched_ppm == other.touched_ppm
            && self.quarantined == other.quarantined
            && self.readmitted == other.readmitted
            && self.shed_requests == other.shed_requests
    }
}

impl SloSnapshot {
    /// Fraction of offered requests delivered (`1.0` for an idle window).
    pub fn delivery_rate(&self) -> f64 {
        if self.requests == 0 {
            1.0
        } else {
            self.delivered as f64 / self.requests as f64
        }
    }

    /// Writes every field for a checkpoint, the side channels included:
    /// a restored report prints what the original measured. Inverse:
    /// [`import_state`](Self::import_state).
    pub fn export_state(&self, w: &mut WordWriter) {
        w.u64(self.requests);
        w.u64(self.delivered);
        w.u64(self.failed);
        w.u64(self.retries);
        w.u32(self.p99_slots);
        w.f64(self.mean_access_slots);
        w.u32(self.max_cycle_len);
        w.u64(self.rebuilds);
        w.u64(self.degraded_rebuilds);
        w.u64(self.rebuild_downtime_slots);
        w.u64(self.delta_rebuilds);
        w.u64(self.full_rebuilds);
        w.u64(self.touched_ppm);
        w.u64(self.snapshot_loads);
        w.u64(self.skipped_rebuilds);
        w.u64(self.rebuild_wall_ns);
        w.u64(self.alias_rebuilds);
        w.u64(self.quarantined);
        w.u64(self.readmitted);
        w.u64(self.shed_requests);
    }

    /// Reads a snapshot [`export_state`](Self::export_state) wrote; `None`
    /// on truncation.
    pub fn import_state(r: &mut WordReader<'_>) -> Option<Self> {
        Some(SloSnapshot {
            requests: r.u64()?,
            delivered: r.u64()?,
            failed: r.u64()?,
            retries: r.u64()?,
            p99_slots: r.u32()?,
            mean_access_slots: r.f64()?,
            max_cycle_len: r.u32()?,
            rebuilds: r.u64()?,
            degraded_rebuilds: r.u64()?,
            rebuild_downtime_slots: r.u64()?,
            delta_rebuilds: r.u64()?,
            full_rebuilds: r.u64()?,
            touched_ppm: r.u64()?,
            snapshot_loads: r.u64()?,
            skipped_rebuilds: r.u64()?,
            rebuild_wall_ns: r.u64()?,
            alias_rebuilds: r.u64()?,
            quarantined: r.u64()?,
            readmitted: r.u64()?,
            shed_requests: r.u64()?,
        })
    }

    /// Checks the window against `spec`, returning every violated
    /// objective (empty = the SLO held).
    pub fn check(&self, spec: &SloSpec) -> Vec<SloViolation> {
        let mut out = Vec::new();
        let rate = self.delivery_rate();
        if rate < spec.min_delivery_rate {
            out.push(SloViolation::DeliveryRate {
                measured: rate,
                floor: spec.min_delivery_rate,
            });
        }
        let limit_slots = spec.max_p99_cycles * f64::from(self.max_cycle_len);
        if self.delivered > 0 && f64::from(self.p99_slots) > limit_slots {
            out.push(SloViolation::P99AccessTime {
                measured_slots: self.p99_slots,
                limit_slots,
            });
        }
        if self.rebuild_downtime_slots > spec.max_rebuild_downtime_slots {
            out.push(SloViolation::RebuildDowntime {
                measured_slots: self.rebuild_downtime_slots,
                budget_slots: spec.max_rebuild_downtime_slots,
            });
        }
        out
    }
}

/// One violated objective of an [`SloSpec`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SloViolation {
    /// Delivery rate fell below the floor.
    DeliveryRate {
        /// Measured delivery rate.
        measured: f64,
        /// The spec's floor.
        floor: f64,
    },
    /// p99 access time exceeded the cycle-relative ceiling.
    P99AccessTime {
        /// Measured p99 in slots.
        measured_slots: u32,
        /// The ceiling in slots (`max_p99_cycles × max_cycle_len`).
        limit_slots: f64,
    },
    /// Slots were served (or dropped) without a program.
    RebuildDowntime {
        /// Measured downtime in slots.
        measured_slots: u64,
        /// The spec's budget.
        budget_slots: u64,
    },
}

impl std::fmt::Display for SloViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SloViolation::DeliveryRate { measured, floor } => {
                write!(f, "delivery rate {measured:.6} below floor {floor:.6}")
            }
            SloViolation::P99AccessTime {
                measured_slots,
                limit_slots,
            } => write!(
                f,
                "p99 access {measured_slots} slots above limit {limit_slots:.1}"
            ),
            SloViolation::RebuildDowntime {
                measured_slots,
                budget_slots,
            } => write!(
                f,
                "rebuild downtime {measured_slots} slots above budget {budget_slots}"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn healthy() -> SloSnapshot {
        SloSnapshot {
            requests: 1000,
            delivered: 1000,
            p99_slots: 150,
            mean_access_slots: 80.0,
            max_cycle_len: 100,
            ..SloSnapshot::default()
        }
    }

    #[test]
    fn healthy_window_passes_the_lossless_slo() {
        assert!(healthy().check(&SloSpec::lossless()).is_empty());
    }

    #[test]
    fn each_objective_trips_independently() {
        let spec = SloSpec::lossless();
        let dropped = SloSnapshot {
            delivered: 990,
            failed: 10,
            ..healthy()
        };
        assert!(matches!(
            dropped.check(&spec)[..],
            [SloViolation::DeliveryRate { .. }]
        ));
        let slow = SloSnapshot {
            p99_slots: 201,
            ..healthy()
        };
        assert!(matches!(
            slow.check(&spec)[..],
            [SloViolation::P99AccessTime { .. }]
        ));
        let down = SloSnapshot {
            rebuild_downtime_slots: 3,
            ..healthy()
        };
        assert!(matches!(
            down.check(&spec)[..],
            [SloViolation::RebuildDowntime { .. }]
        ));
    }

    #[test]
    fn degraded_spec_tolerates_loss_and_recovery_tails() {
        let spec = SloSpec::degraded(0.95, 6.0);
        let lossy = SloSnapshot {
            requests: 1000,
            delivered: 960,
            failed: 40,
            retries: 2100,
            p99_slots: 550,
            mean_access_slots: 170.0,
            max_cycle_len: 100,
            ..SloSnapshot::default()
        };
        assert!(lossy.check(&spec).is_empty());
        assert!((lossy.delivery_rate() - 0.96).abs() < 1e-12);
    }

    #[test]
    fn wall_time_is_a_side_channel_not_part_of_equality() {
        let a = SloSnapshot {
            rebuild_wall_ns: 12_345,
            delta_rebuilds: 3,
            full_rebuilds: 1,
            touched_ppm: 480,
            ..healthy()
        };
        let b = SloSnapshot {
            rebuild_wall_ns: 99_999_999,
            ..a
        };
        assert_eq!(a, b, "wall ns must not break determinism equality");
        let warm_boot = SloSnapshot {
            snapshot_loads: 1,
            ..a
        };
        assert_eq!(a, warm_boot, "boot path must not break equality");
        let cold_cache = SloSnapshot {
            alias_rebuilds: 7,
            ..a
        };
        assert_eq!(a, cold_cache, "alias caching must not break equality");
        let c = SloSnapshot {
            delta_rebuilds: 4,
            ..a
        };
        assert_ne!(a, c, "lane counters are deterministic and compared");
        let gated = SloSnapshot {
            skipped_rebuilds: 2,
            ..a
        };
        assert_ne!(a, gated, "drift-gate skips are deterministic and compared");
        let poisoned = SloSnapshot {
            quarantined: 1,
            readmitted: 1,
            ..a
        };
        assert_ne!(
            a, poisoned,
            "quarantine counters are deterministic and compared"
        );
        let shed = SloSnapshot {
            shed_requests: 100,
            ..a
        };
        assert_ne!(a, shed, "shed requests are deterministic and compared");
    }

    #[test]
    fn idle_window_is_healthy_by_convention() {
        let idle = SloSnapshot::default();
        assert_eq!(idle.delivery_rate(), 1.0);
        assert!(idle.check(&SloSpec::default()).is_empty());
    }

    #[test]
    fn violations_render_for_reports() {
        let spec = SloSpec::lossless();
        let bad = SloSnapshot {
            delivered: 1,
            failed: 999,
            requests: 1000,
            p99_slots: 999,
            max_cycle_len: 10,
            rebuild_downtime_slots: 5,
            ..SloSnapshot::default()
        };
        let v = bad.check(&spec);
        assert_eq!(v.len(), 3);
        for violation in v {
            assert!(!violation.to_string().is_empty());
        }
    }
}
