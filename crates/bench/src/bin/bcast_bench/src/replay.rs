//! Stage replay: one tenant's slice, taken apart into the public calls
//! `TenantRuntime::run_slice` makes and timed stage by stage.
//!
//! A [`Replayer`] captures the program the tenant has on air
//! (`snapshot_image` → `view` → `to_program`) and rebuilds its demand
//! sampler from the demand shape. Each [`Replayer::slice`] then serves one
//! slice at the tenant's rate in `SERVE_CHUNK` pieces: sample → observe →
//! serve chunk, then absorbs the session histogram into a 16-cycle window
//! and rolls the estimator epoch. [`Replayer::finish`] builds a tree from
//! the replayed estimate and publishes it (and, on the delta lane,
//! republishes a one-slice weight change incrementally).
//!
//! Sampling and observing run fused in one loop, as the tenant runs them:
//! timed apart, the draw loop alone ran about twice as slow as the fused
//! one on the reference machine, which no slice ever pays. The observe
//! cost is timed on its own in a side pass over the same items (outside
//! the reconciled sum) and the sampler's share is the remainder. The
//! per-chunk stages are clocked without spans: a span per 256-request
//! chunk cost about a tenth of a cache-resident slice.

use crate::trace::{clock, Tracer};
use bcast_adaptive::EmaEstimator;
use bcast_channel::faults::{FaultPlan, GilbertElliott};
use bcast_channel::{CompiledProgram, LatencyHistogram, ServeOptions, ServeSession, SERVE_CHUNK};
use bcast_core::{DeltaOptions, PublishOptions, Publisher};
use bcast_index_tree::knary;
use bcast_serve::{TenantConfig, TenantRuntime};
use bcast_types::{mix64, NodeId, Weight};
use bcast_workloads::{DemandShape, FaultScenario, TaggedAliasTable};

/// Same headroom the tenant's phase window uses, in cycles.
const WINDOW_CYCLES: u32 = 16;

/// What to replay for one tenant.
pub(crate) struct TenantReplay<'a> {
    pub(crate) tenant: &'a TenantRuntime,
    pub(crate) shape: DemandShape,
    pub(crate) rate: u32,
    pub(crate) faults: Option<FaultScenario>,
    /// Also time an incremental republish (delta-lane tenants).
    pub(crate) delta: Option<DeltaOptions>,
}

/// Stage wall times (ns) and the work they covered, summed over tenants.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Stages {
    pub(crate) tenants: u64,
    pub(crate) slices: u64,
    pub(crate) requests: u64,
    pub(crate) clean_requests: u64,
    pub(crate) lossy_requests: u64,
    pub(crate) verify_ns: u64,
    pub(crate) install_ns: u64,
    pub(crate) sampler_rebuild_ns: u64,
    /// Sample + observe + stage the target, fused.
    pub(crate) draw_ns: u64,
    /// The observe calls alone, from the side pass.
    pub(crate) observe_ns: u64,
    pub(crate) reset_ns: u64,
    pub(crate) clean_serve_ns: u64,
    pub(crate) lossy_serve_ns: u64,
    pub(crate) absorb_ns: u64,
    pub(crate) roll_ns: u64,
    pub(crate) drift_ns: u64,
    pub(crate) drift_calls: u64,
    pub(crate) tree_build_ns: u64,
    pub(crate) publish_full_ns: u64,
    pub(crate) publish_delta_ns: u64,
}

fn fault_plan(faults: Option<FaultScenario>, seed: u64) -> Result<FaultPlan, String> {
    match faults.and_then(|f| f.burst) {
        None => Ok(FaultPlan::none()),
        Some(b) => FaultPlan::gilbert_elliott(
            GilbertElliott {
                p_good_to_bad: b.p_good_to_bad,
                p_bad_to_good: b.p_bad_to_good,
                loss_good: b.loss_good,
                loss_bad: b.loss_bad,
            },
            seed,
        )
        .map_err(|e| format!("invalid burst profile: {e:?}")),
    }
}

/// One tenant's slice pipeline, rebuilt from its public parts.
pub(crate) struct Replayer {
    id: u64,
    cfg: TenantConfig,
    rate: u32,
    faults: Option<FaultScenario>,
    delta: Option<DeltaOptions>,
    program: CompiledProgram,
    sampler: TaggedAliasTable,
    estimator: EmaEstimator,
    /// Counts the side observe pass; never read.
    side: EmaEstimator,
    window: LatencyHistogram,
    session: ServeSession,
    changes: Vec<(u32, Weight)>,
    items: [u32; SERVE_CHUNK],
    chunk: Vec<NodeId>,
    state: u64,
    slices: u32,
}

impl Replayer {
    /// Captures the tenant's program on air and builds its sampler.
    pub(crate) fn new(
        input: &TenantReplay<'_>,
        seed: u64,
        tracer: &mut Tracer,
        st: &mut Stages,
    ) -> Result<Replayer, String> {
        let cfg = input.tenant.config().clone();
        let id = input.tenant.id();
        let span = tracer.begin("replay.capture");
        let (image, _) = tracer.time("tenant.snapshot_image", || input.tenant.snapshot_image());
        let (view, ns) = tracer.time("snapshot.view", || image.view());
        st.verify_ns += ns;
        let view =
            view.map_err(|e| format!("tenant {id}: program on air does not verify: {e:?}"))?;
        if view.num_data() != cfg.items {
            return Err(format!(
                "tenant {id}: captured catalog holds {} items, config says {}",
                view.num_data(),
                cfg.items
            ));
        }
        let (program, ns) = tracer.time("snapshot.to_program", || view.to_program());
        st.install_ns += ns;
        let data_nodes: Vec<NodeId> = view.data_nodes().collect();
        let mut pmf = Vec::new();
        let mut sampler = TaggedAliasTable::new();
        let ((), ns) = tracer.time("requests.alias_rebuild", || {
            input.shape.pmf_into(cfg.items, &mut pmf);
            sampler.rebuild(&pmf, |i| data_nodes[i].0);
        });
        st.sampler_rebuild_ns += ns;
        tracer.end(span);
        st.tenants += 1;
        Ok(Replayer {
            id,
            rate: input.rate,
            faults: input.faults,
            delta: input.delta,
            window: LatencyHistogram::with_bound(WINDOW_CYCLES * program.cycle_len() as u32),
            program,
            sampler,
            estimator: EmaEstimator::new(cfg.items, cfg.alpha),
            side: EmaEstimator::new(cfg.items, cfg.alpha),
            session: ServeSession::new(),
            changes: Vec::new(),
            items: [0; SERVE_CHUNK],
            chunk: Vec::with_capacity(SERVE_CHUNK),
            state: mix64(seed ^ mix64(id)),
            slices: 0,
            cfg,
        })
    }

    /// Replays one slice; returns the nanoseconds of the stages a slice
    /// pays (everything but the side observe pass and the drift check).
    pub(crate) fn slice(&mut self, tracer: &mut Tracer, st: &mut Stages) -> Result<u64, String> {
        let id = self.id;
        let slice_seed = mix64(self.state ^ u64::from(self.slices));
        let opts = ServeOptions {
            threads: 1,
            seed: slice_seed,
            faults: fault_plan(self.faults, mix64(slice_seed))?,
            recovery: self.cfg.recovery,
        };
        let lossy = self.faults.is_some();
        let span = tracer.begin("replay.slice");
        let Replayer {
            program,
            sampler,
            estimator,
            side,
            session,
            items,
            chunk,
            state,
            ..
        } = self;
        let mut paid = tracer
            .time("compiled.begin_session", || {
                program.begin_session(session, &opts)
            })
            .1;
        st.reset_ns += paid;
        let mut remaining = self.rate as usize;
        while remaining > 0 {
            let n = remaining.min(SERVE_CHUNK);
            chunk.clear();
            let ((), ns) = clock(|| {
                for slot in &mut items[..n] {
                    let (item, node) = sampler.sample(state);
                    estimator.observe(item as usize);
                    *slot = item;
                    chunk.push(NodeId(node));
                }
            });
            st.draw_ns += ns;
            paid += ns;
            let (served, ns) = clock(|| program.serve_chunk(session, chunk));
            served.map_err(|e| format!("tenant {id}: replayed chunk refused: {e:?}"))?;
            paid += ns;
            if lossy {
                st.lossy_serve_ns += ns;
            } else {
                st.clean_serve_ns += ns;
            }
            st.observe_ns += clock(|| {
                for &i in &items[..n] {
                    side.observe(i as usize);
                }
            })
            .1;
            remaining -= n;
        }
        let ns = tracer
            .time("hist.absorb", || {
                self.window.absorb(self.session.histogram())
            })
            .1;
        st.absorb_ns += ns;
        paid += ns;
        let ns = tracer
            .time("estimator.roll_epoch", || self.estimator.roll_epoch())
            .1;
        st.roll_ns += ns;
        paid += ns;
        if self.slices == 0 {
            // Publish a baseline so the drift check below walks every item,
            // as it does in a tenant that has published.
            self.estimator.drain_changed(&mut self.changes);
        } else {
            let (drift, ns) = tracer.time("estimator.drift_since_publish", || {
                self.estimator.drift_since_publish()
            });
            std::hint::black_box(drift);
            st.drift_ns += ns;
            st.drift_calls += 1;
        }
        tracer.end(span);
        self.slices += 1;
        st.slices += 1;
        st.requests += u64::from(self.rate);
        if lossy {
            st.lossy_requests += u64::from(self.rate);
        } else {
            st.clean_requests += u64::from(self.rate);
        }
        Ok(paid)
    }

    /// Builds a tree from the replayed estimate and publishes it, warm;
    /// on the delta lane also republishes one more slice's changes.
    pub(crate) fn finish(mut self, tracer: &mut Tracer, st: &mut Stages) -> Result<(), String> {
        let (id, cfg) = (self.id, &self.cfg);
        let span = tracer.begin("replay.rebuild");
        let weights = self.estimator.weights();
        let (tree, ns) = tracer.time("knary.build_weight_balanced_unlabeled", || {
            knary::build_weight_balanced_unlabeled(&weights, cfg.fanout)
        });
        st.tree_build_ns += ns;
        let mut tree = tree.map_err(|e| format!("tenant {id}: tree build failed: {e:?}"))?;
        // A tenant's publisher is warm: the first publish sizes its
        // buffers, the second is the one measured.
        let mut publisher = Publisher::new();
        let opts = PublishOptions::default();
        for name in ["publisher.publish_cold", "publisher.publish"] {
            let (res, ns) = tracer.time(name, || {
                publisher
                    .publish(&tree, cfg.channels, cfg.heuristic, opts)
                    .map(|_| ())
            });
            res.map_err(|e| format!("tenant {id}: publish failed: {e:?}"))?;
            if name == "publisher.publish" {
                st.publish_full_ns += ns;
            }
        }
        if let Some(delta) = self.delta {
            // One more slice of demand moves some weights; republish them.
            self.changes.clear();
            self.estimator.drain_changed(&mut self.changes);
            for _ in 0..self.rate {
                let (item, _) = self.sampler.sample(&mut self.state);
                self.estimator.observe(item as usize);
            }
            self.estimator.roll_epoch();
            self.changes.clear();
            self.estimator.drain_changed(&mut self.changes);
            let node_changes: Vec<(NodeId, Weight)> = self
                .changes
                .iter()
                .map(|&(i, w)| (tree.data_nodes()[i as usize], w))
                .collect();
            tree.reweight(&node_changes);
            let (res, ns) = tracer.time("publisher.republish_delta", || {
                publisher.republish_delta(
                    &tree,
                    &node_changes,
                    cfg.channels,
                    cfg.heuristic,
                    opts,
                    delta,
                )
            });
            res.map_err(|e| format!("tenant {id}: delta republish failed: {e:?}"))?;
            st.publish_delta_ns += ns;
        }
        tracer.end(span);
        Ok(())
    }
}
