//! The timed window, cut into blocks, and the wall-clock metrics read from
//! its quietest block.
//!
//! The reference machine is shared: other tenants' load slows our steps by
//! up to 1.8× in bursts from a tenth of a second to minutes, and never
//! speeds one up. A window is therefore cut into short blocks, each one
//! cycle of the workload's slowest cadence; each wall-clock statistic is
//! computed per block, and the metric is the best block's value: the
//! highest throughput, the lowest step-time percentile. Work the code does
//! in every cycle (a drift check, a republish, a checkpoint) is inside
//! every block, so a slower layer still shows; a burst shorter than the
//! window does not.

use crate::metrics::{percentile, Metrics};
use crate::trace::Tracer;
use std::time::{Duration, Instant};

/// A workload that advances one timed step at a time.
pub(crate) trait Stepper {
    /// Runs one step; returns its wall time (ms) and the work it
    /// completed (requests offered, or searches).
    fn step(&mut self, tracer: &mut Option<Tracer>) -> Result<(f64, u64), String>;

    /// Whether the deterministic prefix has completed (and been checked).
    fn prefix_done(&self) -> bool;
}

/// Consecutive timed steps.
#[derive(Debug, Default)]
pub(crate) struct Block {
    pub(crate) step_ms: Vec<f64>,
    pub(crate) wall_s: f64,
    pub(crate) work: u64,
}

/// Runs whole blocks of `block_steps` steps until the prefix is done and
/// `seconds` have passed.
pub(crate) fn run(
    s: &mut impl Stepper,
    tracer: &mut Option<Tracer>,
    seconds: Duration,
    block_steps: usize,
) -> Result<Vec<Block>, String> {
    let start = Instant::now();
    let mut blocks = Vec::new();
    let mut block = Block::default();
    let mut block_start = Instant::now();
    loop {
        let (ms, work) = s.step(tracer)?;
        block.step_ms.push(ms);
        block.work += work;
        if block.step_ms.len() == block_steps {
            block.wall_s = block_start.elapsed().as_secs_f64();
            block.step_ms.sort_unstable_by(f64::total_cmp);
            blocks.push(std::mem::take(&mut block));
            block_start = Instant::now();
            if s.prefix_done() && start.elapsed() >= seconds {
                return Ok(blocks);
            }
        }
    }
}

/// The lowest per-block nearest-rank percentile `p` of step time (ms).
pub(crate) fn quiet_step_ms(blocks: &[Block], p: f64) -> f64 {
    blocks
        .iter()
        .map(|b| percentile(&b.step_ms, p))
        .fold(f64::INFINITY, f64::min)
}

/// Inserts `throughput`, `step_ms_p50` and `step_ms_p90`, each read from
/// the window's quietest block.
pub(crate) fn insert_wall_metrics(m: &mut Metrics, blocks: &[Block]) {
    let throughput = blocks
        .iter()
        .map(|b| b.work as f64 / b.wall_s)
        .fold(0.0, f64::max);
    m.insert("throughput", throughput);
    m.insert("step_ms_p50", quiet_step_ms(blocks, 0.5));
    m.insert("step_ms_p90", quiet_step_ms(blocks, 0.9));
}
