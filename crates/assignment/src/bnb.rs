//! Branch-and-bound PAP solver.
//!
//! Walks the topological tree depth-first (person `i` receives the `i`-th
//! job chosen), pruning a branch when
//!
//! ```text
//! partial cost + Σ_{unassigned j} min_{remaining persons p} C(j, p)
//! ```
//!
//! already meets the best complete assignment found so far. The bound is
//! admissible: every unassigned job will get *some* remaining person, each
//! at at least its own minimum, so the sum never overestimates. The best is
//! replaced only on a strict improvement, so among tied optima the first
//! one the walk reaches is kept.
//!
//! The search additionally memoizes over a [`DominanceTable`] keyed by the
//! *set* of assigned jobs (for instances of ≤ 64 jobs, as a bit mask):
//! person indices are consumed in order, so two assignment orders over the
//! same job set lead to identical subproblems, and the one that arrived with
//! the higher partial cost can be cut immediately.

use crate::problem::{PapError, PapInstance, PapSolution};
use bcast_types::dominance::Probe;
use bcast_types::{mix64, DominanceTable};

/// Solves the instance exactly by branch and bound.
///
/// Returns the same optimum as [`crate::solve_exhaustive`] (asserted by
/// property tests) while exploring far fewer orders on structured costs.
pub fn solve_branch_and_bound(instance: &PapInstance) -> Result<PapSolution, PapError> {
    instance.validate()?;
    let n = instance.len();
    if n == 0 {
        return Ok(PapSolution {
            person_of: Vec::new(),
            cost: 0.0,
        });
    }

    // For each job, its costs sorted ascending by person index make the
    // "min over remaining persons" bound O(1) amortized: since persons are
    // consumed in increasing index order (person i is always the i-th
    // assigned), the remaining persons are exactly `next_person..n`, and the
    // minimum over a suffix can be precomputed.
    //
    // suffix_min[job][p] = min_{q >= p} C(job, q)
    let mut suffix_min = vec![0.0f64; n * (n + 1)];
    for job in 0..n {
        suffix_min[job * (n + 1) + n] = f64::INFINITY;
        for p in (0..n).rev() {
            suffix_min[job * (n + 1) + p] =
                instance.cost(job, p).min(suffix_min[job * (n + 1) + p + 1]);
        }
    }

    let mut search = Search {
        instance,
        suffix_min: &suffix_min,
        best: None,
        counts: (0..n).map(|j| instance.pred_count(j)).collect(),
        person_of: vec![0; n],
        assigned_mask: 0,
        memo: DominanceTable::default(),
        masks: Vec::new(),
    };
    for j in 0..n {
        if instance.pred_count(j) == 0 {
            search.branch(j, 0, 0.0);
        }
    }

    let (cost, person_of) = search
        .best
        .expect("an acyclic instance always admits a topological assignment");
    debug_assert!(instance.is_feasible(&person_of));
    Ok(PapSolution { person_of, cost })
}

struct Search<'a> {
    instance: &'a PapInstance,
    suffix_min: &'a [f64],
    /// Cheapest complete assignment so far, with its cost.
    best: Option<(f64, Vec<usize>)>,
    counts: Vec<usize>,
    person_of: Vec<usize>,
    /// Bit mask of assigned jobs (meaningful only while `len() ≤ 64`).
    assigned_mask: u64,
    /// Best partial cost per assigned-job set (transposition table).
    memo: DominanceTable,
    /// Interned masks backing `memo`'s ids.
    masks: Vec<u64>,
}

impl Search<'_> {
    fn bound(&self, next_person: usize) -> f64 {
        let n = self.instance.len();
        (0..n)
            .filter(|&j| self.counts[j] != usize::MAX)
            .map(|j| self.suffix_min[j * (n + 1) + next_person])
            .sum()
    }

    /// Assigns job `j` to `person`, recurses, and undoes the assignment.
    fn branch(&mut self, j: usize, person: usize, partial: f64) {
        self.counts[j] = usize::MAX;
        // Work around split borrows: collect successors via the instance
        // reference held in `self`.
        for s in 0..self.instance.successors(j).len() {
            let succ = self.instance.successors(j)[s];
            self.counts[succ] -= 1;
        }
        self.person_of[j] = person;
        if self.instance.len() <= 64 {
            self.assigned_mask |= 1 << j;
        }
        let cost = self.instance.cost(j, person);
        self.dfs(person + 1, partial + cost);
        if self.instance.len() <= 64 {
            self.assigned_mask &= !(1 << j);
        }
        for s in 0..self.instance.successors(j).len() {
            let succ = self.instance.successors(j)[s];
            self.counts[succ] += 1;
        }
        self.counts[j] = 0;
    }

    /// Transposition check: true when this assigned-job set was already
    /// reached at an equal-or-cheaper partial cost; otherwise records the
    /// current partial as the set's best. No-op above 64 jobs.
    fn memo_prunes(&mut self, next_person: usize, partial: f64) -> bool {
        if self.instance.len() > 64 {
            return false;
        }
        let mask = self.assigned_mask;
        let hash = mix64(mask);
        let masks = &mut self.masks;
        match self
            .memo
            .probe(hash, next_person as u32, |id| masks[id as usize] == mask)
        {
            Probe::Occupied { value, .. } if value <= partial => true,
            Probe::Occupied { slot, id, .. } => {
                self.memo.update(slot, id, partial);
                false
            }
            Probe::Vacant { slot } => {
                let id = masks.len() as u32;
                masks.push(mask);
                self.memo.fill(slot, hash, next_person as u32, id, partial);
                false
            }
        }
    }

    fn dfs(&mut self, next_person: usize, partial: f64) {
        let n = self.instance.len();
        if next_person == n {
            let improves = match &self.best {
                Some((best, _)) => partial < *best,
                None => true,
            };
            if improves {
                self.best = Some((partial, self.person_of.clone()));
            }
            return;
        }
        if self.memo_prunes(next_person, partial) {
            return;
        }
        if let Some((best, _)) = &self.best {
            if partial + self.bound(next_person) >= *best {
                return;
            }
        }
        for j in 0..n {
            if self.counts[j] != 0 {
                continue;
            }
            self.branch(j, next_person, partial);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topo::solve_exhaustive;
    use proptest::prelude::*;

    #[test]
    fn matches_exhaustive_on_fig3_with_costs() {
        let mut p = PapInstance::new(4);
        p.add_precedence(0, 2).unwrap();
        p.add_precedence(1, 3).unwrap();
        p.add_precedence(1, 2).unwrap();
        let costs = [
            [3.0, 8.0, 2.0, 9.0],
            [1.0, 4.0, 7.0, 2.0],
            [6.0, 5.0, 3.0, 1.0],
            [2.0, 2.0, 8.0, 4.0],
        ];
        for (j, row) in costs.iter().enumerate() {
            for (pe, &c) in row.iter().enumerate() {
                p.set_cost(j, pe, c);
            }
        }
        let a = solve_exhaustive(&p).unwrap();
        let b = solve_branch_and_bound(&p).unwrap();
        assert_eq!(a.cost, b.cost);
        assert!(p.is_feasible(&b.person_of));
        assert_eq!(p.evaluate(&b.person_of), b.cost);
    }

    #[test]
    fn empty_and_singleton() {
        let p = PapInstance::new(0);
        assert_eq!(solve_branch_and_bound(&p).unwrap().cost, 0.0);
        let mut p = PapInstance::new(1);
        p.set_cost(0, 0, 5.0);
        let sol = solve_branch_and_bound(&p).unwrap();
        assert_eq!(sol.cost, 5.0);
        assert_eq!(sol.person_of, vec![0]);
    }

    #[test]
    fn negative_costs_match_exhaustive() {
        // Negative costs make the bound and the partial sums negative too;
        // pruning compares them as plain f64 and must keep the optimum.
        let mut p = PapInstance::new(3);
        p.add_precedence(0, 1).unwrap();
        let costs = [[-5.0, 2.0, 3.0], [1.0, -4.0, 2.0], [0.5, 1.5, -2.5]];
        for (j, row) in costs.iter().enumerate() {
            for (pe, &c) in row.iter().enumerate() {
                p.set_cost(j, pe, c);
            }
        }
        let a = solve_exhaustive(&p).unwrap();
        let b = solve_branch_and_bound(&p).unwrap();
        assert_eq!(a.cost, b.cost);
        assert!(p.is_feasible(&b.person_of));
        assert_eq!(p.evaluate(&b.person_of), b.cost);
    }

    fn random_instance(n: usize, seed: u64, signed: bool) -> PapInstance {
        // Random DAG (edges i→j for i<j with prob ~1/2) + random costs,
        // both derived from a tiny deterministic LCG.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut p = PapInstance::new(n);
        for i in 0..n {
            for j in i + 1..n {
                if next() % 2 == 0 {
                    p.add_precedence(i, j).unwrap();
                }
            }
        }
        for job in 0..n {
            for pe in 0..n {
                let c = (next() % 100) as f64;
                p.set_cost(job, pe, if signed { c - 50.0 } else { c });
            }
        }
        p
    }

    proptest! {
        #[test]
        fn bnb_equals_exhaustive(
            n in 1usize..7,
            seed in 0u64..1000,
            signed: bool,
        ) {
            let p = random_instance(n, seed, signed);
            let a = solve_exhaustive(&p).unwrap();
            let b = solve_branch_and_bound(&p).unwrap();
            prop_assert!((a.cost - b.cost).abs() < 1e-9,
                "n={n} seed={seed} signed={signed}: exhaustive {} != bnb {}",
                a.cost, b.cost);
            prop_assert!(p.is_feasible(&b.person_of));
        }
    }
}
