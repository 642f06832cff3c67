//! The range-query kernels as SIMT lane programs.
//!
//! One *group* of `k` lanes computes the ε-neighborhood of one query point
//! (`k = 1` reproduces `GPUCALCGLOBAL`'s one-thread-per-point mapping;
//! `k > 1` is the granularity optimization of §III-A, with each lane
//! refining a contiguous `1/k` slice of every candidate cell, as in the
//! paper's Figure 4). The instruction stream of a lane is:
//!
//! 1. optional work-queue prologue: the group leader's global atomic
//!    increment and the cooperative-group broadcast shuffle (§III-D);
//! 2. a setup op (thread-id computation, query-point load, window ranges);
//! 3. per probed cell: a lookup op (binary search of the non-empty cell
//!    list), then one distance op per assigned candidate, plus an emit op
//!    after every candidate found within ε.
//!
//! Which cells are probed comes from the configured
//! [`crate::patterns`] access pattern, resolved once per join into a
//! [`ResolvedPatterns`] table shared by all batches. The table keeps only
//! the probes that find a cell; a lane replays each run of misses as that
//! many lookup ops, so its op stream is the full window walk's.

use epsgrid::{euclidean_dist_sq, GridIndex, Point};
use warpsim::{CostModel, DeviceCounter, LaneProgram, LaneSink, Op, RunClaim, WarpSource};

use crate::config::AccessPattern;
use crate::patterns::{for_each_probe, ProbeRelation};

/// A probe whose cell exists, with the lookups that missed just before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FoundProbe {
    /// Index of the probed cell in the grid's non-empty cell list.
    pub cell: u32,
    /// Probes of absent cells between the previous found probe (or the
    /// window start) and this one; each still costs the kernel a lookup.
    pub misses_before: u32,
    /// Relation of the probed cell's points to the query point.
    pub relation: ProbeRelation,
}

/// Cell index of the end marker that closes each cell's run of entries.
const END: u32 = u32::MAX;

/// Pattern probes resolved against the index, shared across batches.
///
/// Only probes that hit a cell are stored, in one flat array with a range
/// per cell (CSR layout); misses survive as counts, so the kernel replays
/// the same lookup sequence without the table holding every `3^n` window
/// slot. Each cell's run ends with a marker entry carrying the misses after
/// its last found probe, so a lane walks its run with one index.
#[derive(Debug, Clone)]
pub struct ResolvedPatterns {
    /// Cell by cell: the found probes in window order, then the end marker
    /// (`cell == END`, `misses_before` = the trailing misses).
    entries: Vec<FoundProbe>,
    /// `entries[starts[c]..starts[c + 1]]` is cell `c`'s run, marker last.
    starts: Vec<usize>,
    /// For each dataset point, its position within its home cell's point
    /// list (used by [`ProbeRelation::OwnCellForward`]).
    pub pos_in_cell: Vec<u32>,
}

impl ResolvedPatterns {
    /// Resolves `pattern` against `grid` for every non-empty cell.
    pub fn compute<const N: usize>(grid: &GridIndex<N>, pattern: AccessPattern) -> Self {
        let mut entries = Vec::new();
        let mut starts = Vec::with_capacity(grid.num_cells() + 1);
        starts.push(0);
        for ci in 0..grid.num_cells() {
            // Probes come in ascending linear id, so each lookup resumes
            // from the previous one's position in the sorted cell list.
            let mut cursor = 0;
            let mut misses = 0u32;
            for_each_probe(pattern, grid, ci, |p| {
                match grid.seek_cell(p.linear_id, &mut cursor) {
                    Some(cell) => {
                        entries.push(FoundProbe {
                            cell: cell as u32,
                            misses_before: misses,
                            relation: p.relation,
                        });
                        misses = 0;
                    }
                    None => misses += 1,
                }
            });
            // The marker's relation is never read.
            entries.push(FoundProbe {
                cell: END,
                misses_before: misses,
                relation: ProbeRelation::AllBidirectional,
            });
            starts.push(entries.len());
        }
        let mut pos_in_cell = vec![0u32; grid.num_points()];
        for ci in 0..grid.num_cells() {
            for (pos, &pid) in grid.cell_points(ci).iter().enumerate() {
                pos_in_cell[pid as usize] = pos as u32;
            }
        }
        Self {
            entries,
            starts,
            pos_in_cell,
        }
    }

    /// Number of non-empty cells the table covers.
    pub fn num_cells(&self) -> usize {
        self.starts.len() - 1
    }

    /// The found probes of non-empty cell `cell`, in window order.
    pub fn found_probes(&self, cell: usize) -> &[FoundProbe] {
        &self.entries[self.starts[cell]..self.starts[cell + 1] - 1]
    }

    /// Probes of absent cells after `cell`'s last found probe.
    pub fn trailing_misses(&self, cell: usize) -> u32 {
        self.entries[self.starts[cell + 1] - 1].misses_before
    }

    /// Index of `cell`'s first entry, where a lane's walk starts.
    fn run_start(&self, cell: usize) -> usize {
        self.starts[cell]
    }

    /// Entry `i` of a walk: its found probe, or `None` at the end marker.
    fn probe_at(&self, i: usize) -> Option<&FoundProbe> {
        let entry = &self.entries[i];
        (entry.cell != END).then_some(entry)
    }

    /// The misses a walk issues before entry `i`.
    fn misses_at(&self, i: usize) -> u32 {
        self.entries[i].misses_before
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LanePhase {
    Prologue(u8),
    Setup,
    NextProbe,
    Scan,
    Emit,
    Done,
}

/// Memoized lookahead over the current `Scan` slice, built lazily by
/// [`RangeQueryLane::peek_run`] and consumed step by step (or in one
/// `commit_run`) so candidate distances are never computed twice.
#[derive(Debug, Clone, Copy)]
struct RunMemo {
    /// Distance steps remaining in the claimed run.
    len: u32,
    /// Whether the run's final step finds an in-ε candidate: the emission
    /// (and the switch to the `Emit` phase) is deferred to that step,
    /// matching the unmemoized `Scan` arm exactly.
    emit_at_end: bool,
}

/// The per-lane state machine of the range-query kernel.
#[derive(Debug, Clone)]
pub struct RangeQueryLane<'a, const N: usize> {
    grid: &'a GridIndex<N>,
    points: &'a [Point<N>],
    resolved: &'a ResolvedPatterns,
    query: u32,
    rank: u32,
    k: u32,
    eps_sq: f32,
    setup_op: Op,
    lookup_op: Op,
    dist_op: Op,
    emit_op: Op,
    prologue: [Option<Op>; 2],
    phase: LanePhase,
    /// Index of the next entry of the home cell's run in the table.
    next: usize,
    /// Miss lookups still to issue before entry `next`.
    misses_left: u32,
    cur_cell: u32,
    cur_rel: ProbeRelation,
    pos: u32,
    hi: u32,
    memo: Option<RunMemo>,
}

impl<'a, const N: usize> RangeQueryLane<'a, N> {
    /// Builds the lane for group rank `rank` (0-based, `< k`) of `query`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        grid: &'a GridIndex<N>,
        points: &'a [Point<N>],
        resolved: &'a ResolvedPatterns,
        query: u32,
        rank: u32,
        k: u32,
        epsilon: f32,
        cost: &CostModel,
        prologue: [Option<Op>; 2],
    ) -> Self {
        debug_assert!(rank < k);
        let next = resolved.run_start(grid.home_cell_of(query as usize));
        Self {
            grid,
            points,
            resolved,
            query,
            rank,
            k,
            eps_sq: epsilon * epsilon,
            setup_op: cost.setup_op(),
            lookup_op: cost.cell_lookup_op(),
            dist_op: cost.distance_op(N as u32),
            emit_op: cost.emit_op(),
            prologue,
            phase: LanePhase::Prologue(0),
            next,
            misses_left: resolved.misses_at(next),
            cur_cell: 0,
            cur_rel: ProbeRelation::AllBidirectional,
            pos: 0,
            hi: 0,
            memo: None,
        }
    }

    /// The contiguous candidate slice `[lo, hi)` this lane refines within a
    /// found cell (Figure 4's per-thread split).
    fn rank_slice(&self, base_lo: u32, base_hi: u32) -> (u32, u32) {
        let n = (base_hi - base_lo) as u64;
        let lo = base_lo + (n * self.rank as u64 / self.k as u64) as u32;
        let hi = base_lo + (n * (self.rank as u64 + 1) / self.k as u64) as u32;
        (lo, hi)
    }

    /// Advances `n` memoized `Scan` steps. The deferred emission — if the
    /// memo ends on an in-ε candidate — fires on the run's final step, so
    /// this is bit-identical to `n` unmemoized `step` calls.
    fn memo_advance(&mut self, n: u32, sink: &mut LaneSink) {
        let memo = self.memo.as_mut().expect("advance without a claimed run");
        debug_assert!(n <= memo.len, "commit past the claimed run");
        if n == 0 {
            return;
        }
        self.pos += n;
        memo.len -= n;
        if memo.len == 0 {
            let emit = memo.emit_at_end;
            self.memo = None;
            if emit {
                let cand = self.grid.cell_points(self.cur_cell as usize)[self.pos as usize - 1];
                match self.cur_rel {
                    ProbeRelation::AllBidirectional => sink.emit(self.query, cand),
                    ProbeRelation::AllSymmetric | ProbeRelation::OwnCellForward => {
                        sink.emit_symmetric(self.query, cand)
                    }
                }
                self.phase = LanePhase::Emit;
            }
        }
    }
}

impl<const N: usize> LaneProgram for RangeQueryLane<'_, N> {
    fn step(&mut self, sink: &mut LaneSink) -> Option<Op> {
        loop {
            match self.phase {
                LanePhase::Prologue(i) => {
                    if (i as usize) < self.prologue.len() {
                        self.phase = LanePhase::Prologue(i + 1);
                        if let Some(op) = self.prologue[i as usize] {
                            return Some(op);
                        }
                    } else {
                        self.phase = LanePhase::Setup;
                    }
                }
                LanePhase::Setup => {
                    self.phase = LanePhase::NextProbe;
                    return Some(self.setup_op);
                }
                LanePhase::NextProbe => {
                    if self.misses_left > 0 {
                        // A missing cell still costs its binary search.
                        self.misses_left -= 1;
                        return Some(self.lookup_op);
                    }
                    let Some(&probe) = self.resolved.probe_at(self.next) else {
                        self.phase = LanePhase::Done;
                        return None;
                    };
                    self.next += 1;
                    self.misses_left = self.resolved.misses_at(self.next);
                    let len = self.grid.cell_points(probe.cell as usize).len() as u32;
                    let base_lo = match probe.relation {
                        ProbeRelation::OwnCellForward => {
                            self.resolved.pos_in_cell[self.query as usize] + 1
                        }
                        _ => 0,
                    };
                    let (lo, hi) = self.rank_slice(base_lo.min(len), len);
                    self.cur_cell = probe.cell;
                    self.cur_rel = probe.relation;
                    self.pos = lo;
                    self.hi = hi;
                    self.phase = LanePhase::Scan;
                    return Some(self.lookup_op);
                }
                LanePhase::Scan => {
                    if self.pos >= self.hi {
                        self.phase = LanePhase::NextProbe;
                        continue;
                    }
                    if self.memo.is_some() {
                        // A peeked-but-divergent round: consume one step of
                        // the memo instead of recomputing the distance.
                        self.memo_advance(1, sink);
                        return Some(self.dist_op);
                    }
                    let cand = self.grid.cell_points(self.cur_cell as usize)[self.pos as usize];
                    self.pos += 1;
                    let d2 = euclidean_dist_sq(
                        &self.points[self.query as usize],
                        &self.points[cand as usize],
                    );
                    if d2 <= self.eps_sq && cand != self.query {
                        match self.cur_rel {
                            ProbeRelation::AllBidirectional => sink.emit(self.query, cand),
                            ProbeRelation::AllSymmetric | ProbeRelation::OwnCellForward => {
                                sink.emit_symmetric(self.query, cand)
                            }
                        }
                        self.phase = LanePhase::Emit;
                    }
                    return Some(self.dist_op);
                }
                LanePhase::Emit => {
                    self.phase = LanePhase::Scan;
                    return Some(self.emit_op);
                }
                LanePhase::Done => return None,
            }
        }
    }

    fn peek_run(&mut self) -> Option<RunClaim> {
        if self.phase != LanePhase::Scan || self.pos >= self.hi {
            // Prologue/setup/lookup/emit steps are all single ops followed
            // by a phase change; only the candidate scan has runs to claim.
            return None;
        }
        let memo = match self.memo {
            Some(m) => m,
            None => {
                // One pass over the remaining slice: either the first in-ε
                // candidate ends the run (its distance step also emits), or
                // the run covers the whole slice. The distances computed
                // here are exactly the ones the claimed steps would have
                // computed, so nothing is evaluated twice.
                let cands = self.grid.cell_points(self.cur_cell as usize);
                let q = &self.points[self.query as usize];
                let mut memo = RunMemo {
                    len: self.hi - self.pos,
                    emit_at_end: false,
                };
                let slice = &cands[self.pos as usize..self.hi as usize];
                for (off, &cand) in slice.iter().enumerate() {
                    let d2 = euclidean_dist_sq(q, &self.points[cand as usize]);
                    if d2 <= self.eps_sq && cand != self.query {
                        memo = RunMemo {
                            len: off as u32 + 1,
                            emit_at_end: true,
                        };
                        break;
                    }
                }
                self.memo = Some(memo);
                memo
            }
        };
        Some(RunClaim {
            op: self.dist_op,
            len: memo.len,
        })
    }

    fn commit_run(&mut self, n: u32, sink: &mut LaneSink) {
        debug_assert!(
            self.phase == LanePhase::Scan,
            "commit outside a claimed Scan run"
        );
        self.memo_advance(n, sink);
    }
}

/// How query points are handed to thread groups.
#[derive(Debug, Clone, Copy)]
pub enum Assignment<'a> {
    /// Static mapping: group `g` computes `queries[g]`.
    Static {
        /// Query point ids in thread-group order.
        queries: &'a [u32],
    },
    /// Work-queue mapping (§III-D): at warp start, the warp's group leaders
    /// reserve the next indices of the workload-sorted `order` array through
    /// the global counter.
    Queue {
        /// The workload-sorted dataset `D'`.
        order: &'a [u32],
        /// The persistent queue head.
        counter: &'a DeviceCounter,
        /// Exclusive upper bound on queue indices this kernel may consume.
        limit: u64,
    },
}

/// The self-join kernel as a [`WarpSource`].
#[derive(Debug, Clone)]
pub struct JoinKernelSource<'a, const N: usize> {
    /// The grid index.
    pub grid: &'a GridIndex<N>,
    /// The dataset (in original id order).
    pub points: &'a [Point<N>],
    /// Pattern probes resolved against the index.
    pub resolved: &'a ResolvedPatterns,
    /// ε.
    pub epsilon: f32,
    /// Threads per query point.
    pub k: u32,
    /// Warp width (must be a multiple of `k`).
    pub warp_size: u32,
    /// Op cost table.
    pub cost: CostModel,
    /// Query-point assignment.
    pub assignment: Assignment<'a>,
    /// Number of thread groups (query-point slots) launched.
    pub num_groups: usize,
}

impl<const N: usize> JoinKernelSource<'_, N> {
    fn groups_per_warp(&self) -> usize {
        (self.warp_size / self.k) as usize
    }

    fn prologue_for(&self, rank: u32) -> [Option<Op>; 2] {
        match self.assignment {
            Assignment::Static { .. } => [None, None],
            Assignment::Queue { .. } => {
                let atomic = (rank == 0).then(|| self.cost.atomic_op());
                let shuffle = (self.k > 1).then(|| self.cost.shuffle_op());
                [atomic, shuffle]
            }
        }
    }
}

impl<'a, const N: usize> WarpSource for JoinKernelSource<'a, N> {
    type Lane = RangeQueryLane<'a, N>;

    fn num_warps(&self) -> usize {
        (self.num_groups * self.k as usize).div_ceil(self.warp_size as usize)
    }

    fn make_warp(&self, warp_id: u32) -> Vec<Self::Lane> {
        let gpw = self.groups_per_warp();
        let g_lo = warp_id as usize * gpw;
        let slots = gpw.min(self.num_groups.saturating_sub(g_lo));
        let assigned: Vec<u32> = match self.assignment {
            Assignment::Static { queries } => queries[g_lo..g_lo + slots].to_vec(),
            Assignment::Queue {
                order,
                counter,
                limit,
            } => {
                if slots == 0 {
                    Vec::new()
                } else {
                    let start = counter.fetch_add(slots as u64);
                    (0..slots as u64)
                        .filter_map(|i| {
                            let idx = start + i;
                            (idx < limit).then(|| order[idx as usize])
                        })
                        .collect()
                }
            }
        };
        let mut lanes = Vec::with_capacity(assigned.len() * self.k as usize);
        for &pid in &assigned {
            for rank in 0..self.k {
                lanes.push(RangeQueryLane::new(
                    self.grid,
                    self.points,
                    self.resolved,
                    pid,
                    rank,
                    self.k,
                    self.epsilon,
                    &self.cost,
                    self.prologue_for(rank),
                ));
            }
        }
        lanes
    }
}

/// Micro-executes one warp of a kernel while recording its lane-occupancy
/// timeline (see [`warpsim::trace`]) — the diagnostic view behind the
/// paper's Figures 3 and 7. For queue-assigned kernels this consumes the
/// warp's queue reservations, so trace on a throwaway source.
pub fn trace_warp_of<const N: usize>(
    source: &JoinKernelSource<'_, N>,
    warp_id: u32,
) -> warpsim::WarpTrace {
    let mut lanes = source.make_warp(warp_id);
    let mut sink = LaneSink::new();
    warpsim::trace_warp(&mut lanes, source.warp_size, &mut sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_join;
    use warpsim::{launch, DeviceBuffer, GpuConfig, IssueOrder};

    fn clustered_points() -> Vec<Point<2>> {
        let mut pts = Vec::new();
        // a dense blob, a pair, and isolated points
        for i in 0..12 {
            pts.push([0.3 + 0.015 * i as f32, 0.4 + 0.01 * (i % 3) as f32]);
        }
        pts.push([2.0, 2.0]);
        pts.push([2.05, 2.02]);
        pts.push([5.0, 5.0]);
        pts.push([-1.0, 3.0]);
        pts
    }

    fn run_kernel(
        pts: &[Point<2>],
        eps: f32,
        pattern: AccessPattern,
        k: u32,
    ) -> (Vec<(u32, u32)>, warpsim::LaunchReport) {
        let grid = GridIndex::build(pts, eps).unwrap();
        let resolved = ResolvedPatterns::compute(&grid, pattern);
        let queries: Vec<u32> = (0..pts.len() as u32).collect();
        let gpu = GpuConfig {
            warp_size: 8,
            block_size: 16,
            ..GpuConfig::small_test()
        };
        let src = JoinKernelSource {
            grid: &grid,
            points: pts,
            resolved: &resolved,
            epsilon: eps,
            k,
            warp_size: gpu.warp_size,
            cost: gpu.cost,
            assignment: Assignment::Static { queries: &queries },
            num_groups: pts.len(),
        };
        let mut out = DeviceBuffer::with_capacity(1_000_000);
        let report = launch(&gpu, &src, IssueOrder::InOrder, &mut out).unwrap();
        let mut pairs = out.into_vec();
        pairs.sort_unstable();
        (pairs, report)
    }

    fn reference(pts: &[Point<2>], eps: f32) -> Vec<(u32, u32)> {
        let mut pairs = brute_force_join(pts, eps);
        pairs.sort_unstable();
        pairs
    }

    #[test]
    fn full_window_matches_brute_force() {
        let pts = clustered_points();
        let (pairs, _) = run_kernel(&pts, 0.12, AccessPattern::FullWindow, 1);
        assert_eq!(pairs, reference(&pts, 0.12));
    }

    #[test]
    fn unicomp_matches_brute_force() {
        let pts = clustered_points();
        let (pairs, _) = run_kernel(&pts, 0.12, AccessPattern::Unicomp, 1);
        assert_eq!(pairs, reference(&pts, 0.12));
    }

    #[test]
    fn lid_unicomp_matches_brute_force() {
        let pts = clustered_points();
        let (pairs, _) = run_kernel(&pts, 0.12, AccessPattern::LidUnicomp, 1);
        assert_eq!(pairs, reference(&pts, 0.12));
    }

    #[test]
    fn k_split_matches_brute_force_for_all_k() {
        let pts = clustered_points();
        for k in [1u32, 2, 4, 8] {
            for pattern in [
                AccessPattern::FullWindow,
                AccessPattern::Unicomp,
                AccessPattern::LidUnicomp,
            ] {
                let (pairs, _) = run_kernel(&pts, 0.12, pattern, k);
                assert_eq!(pairs, reference(&pts, 0.12), "pattern {pattern:?}, k={k}");
            }
        }
    }

    #[test]
    fn unidirectional_patterns_halve_distance_calcs() {
        let pts = clustered_points();
        let (_, full) = run_kernel(&pts, 0.12, AccessPattern::FullWindow, 1);
        let (_, uni) = run_kernel(&pts, 0.12, AccessPattern::Unicomp, 1);
        let (_, lid) = run_kernel(&pts, 0.12, AccessPattern::LidUnicomp, 1);
        // Unidirectional patterns compute each cross-cell pair once instead
        // of twice and intra-cell pairs m(m-1)/2 instead of m² times.
        assert!(uni.distance_calcs() < full.distance_calcs());
        assert!(lid.distance_calcs() < full.distance_calcs());
        assert_eq!(uni.distance_calcs(), lid.distance_calcs());
        let ratio = full.distance_calcs() as f64 / uni.distance_calcs() as f64;
        assert!(
            ratio > 1.7 && ratio < 2.6,
            "expected roughly half, got ratio {ratio}"
        );
    }

    #[test]
    fn queue_assignment_consumes_order_exactly_once() {
        let pts = clustered_points();
        let eps = 0.12;
        let grid = GridIndex::build(&pts, eps).unwrap();
        let resolved = ResolvedPatterns::compute(&grid, AccessPattern::LidUnicomp);
        let order: Vec<u32> = (0..pts.len() as u32).rev().collect();
        let counter = DeviceCounter::new();
        let gpu = GpuConfig {
            warp_size: 8,
            block_size: 16,
            ..GpuConfig::small_test()
        };
        let src = JoinKernelSource {
            grid: &grid,
            points: &pts,
            resolved: &resolved,
            epsilon: eps,
            k: 2,
            warp_size: gpu.warp_size,
            cost: gpu.cost,
            assignment: Assignment::Queue {
                order: &order,
                counter: &counter,
                limit: order.len() as u64,
            },
            num_groups: pts.len(),
        };
        let mut out = DeviceBuffer::with_capacity(1_000_000);
        launch(&gpu, &src, IssueOrder::InOrder, &mut out).unwrap();
        assert_eq!(counter.load(), pts.len() as u64);
        let mut pairs = out.into_vec();
        pairs.sort_unstable();
        assert_eq!(pairs, reference(&pts, eps));
    }

    #[test]
    fn queue_respects_limit() {
        let pts = clustered_points();
        let eps = 0.12;
        let grid = GridIndex::build(&pts, eps).unwrap();
        let resolved = ResolvedPatterns::compute(&grid, AccessPattern::FullWindow);
        let order: Vec<u32> = (0..pts.len() as u32).collect();
        let counter = DeviceCounter::new();
        let gpu = GpuConfig {
            warp_size: 8,
            block_size: 16,
            ..GpuConfig::small_test()
        };
        // Launch more group slots than the limit allows.
        let src = JoinKernelSource {
            grid: &grid,
            points: &pts,
            resolved: &resolved,
            epsilon: eps,
            k: 1,
            warp_size: gpu.warp_size,
            cost: gpu.cost,
            assignment: Assignment::Queue {
                order: &order,
                counter: &counter,
                limit: 4,
            },
            num_groups: pts.len(),
        };
        let mut out = DeviceBuffer::with_capacity(1_000_000);
        launch(&gpu, &src, IssueOrder::InOrder, &mut out).unwrap();
        // Only queries 0..4 were processed.
        let processed: std::collections::BTreeSet<u32> =
            out.as_slice().iter().map(|&(q, _)| q).collect();
        assert!(processed.iter().all(|&q| q < 4 || {
            // symmetric emissions may name later points as the *first*
            // element only via emit_symmetric from queries < 4
            reference(&pts, eps).iter().any(|&(a, b)| a == q && b < 4)
        }));
    }

    #[test]
    fn k_and_granularity_reduce_per_lane_imbalance() {
        // With k=4 the heavy query's work is split across four lanes, so the
        // warp-level efficiency improves on skewed data.
        let pts = clustered_points();
        let (_, k1) = run_kernel(&pts, 0.12, AccessPattern::FullWindow, 1);
        let (_, k4) = run_kernel(&pts, 0.12, AccessPattern::FullWindow, 4);
        assert!(
            k4.wee() > k1.wee(),
            "k=4 WEE {} should exceed k=1 WEE {}",
            k4.wee(),
            k1.wee()
        );
        assert_eq!(k1.distance_calcs(), k4.distance_calcs(), "same total work");
    }

    #[test]
    fn warp_trace_reflects_imbalance() {
        let pts = clustered_points();
        let eps = 0.12;
        let grid = GridIndex::build(&pts, eps).unwrap();
        let resolved = ResolvedPatterns::compute(&grid, AccessPattern::FullWindow);
        let queries: Vec<u32> = (0..pts.len() as u32).collect();
        let gpu = GpuConfig {
            warp_size: 8,
            block_size: 16,
            ..GpuConfig::small_test()
        };
        let src = JoinKernelSource {
            grid: &grid,
            points: &pts,
            resolved: &resolved,
            epsilon: eps,
            k: 1,
            warp_size: gpu.warp_size,
            cost: gpu.cost,
            assignment: Assignment::Static { queries: &queries },
            num_groups: pts.len(),
        };
        // Warp 0 holds the 8 densest points plus… actually points 0..8 of
        // the 12-point blob: similar workloads. Warp 1 mixes blob tail with
        // isolated points → idle lanes.
        let t0 = trace_warp_of(&src, 0);
        let t1 = trace_warp_of(&src, 1);
        assert!(t0.cycles() > 0 && t1.cycles() > 0);
        assert!(
            t1.idle_fraction() > t0.idle_fraction(),
            "mixed warp should idle more: {} vs {}",
            t1.idle_fraction(),
            t0.idle_fraction()
        );
        let art = t1.render_ascii(40);
        assert_eq!(art.lines().count(), 8);
        assert!(art.contains('.'), "idle periods must be visible");
    }

    #[test]
    fn step_modes_are_bit_identical_on_real_kernels() {
        use warpsim::{launch_with, LaunchOptions, StepMode};
        let pts = clustered_points();
        let eps = 0.12;
        let grid = GridIndex::build(&pts, eps).unwrap();
        let queries: Vec<u32> = (0..pts.len() as u32).collect();
        let gpu = GpuConfig {
            warp_size: 8,
            block_size: 16,
            ..GpuConfig::small_test()
        };
        for pattern in [
            AccessPattern::FullWindow,
            AccessPattern::Unicomp,
            AccessPattern::LidUnicomp,
        ] {
            let resolved = ResolvedPatterns::compute(&grid, pattern);
            for k in [1u32, 2, 4] {
                let src = JoinKernelSource {
                    grid: &grid,
                    points: &pts,
                    resolved: &resolved,
                    epsilon: eps,
                    k,
                    warp_size: gpu.warp_size,
                    cost: gpu.cost,
                    assignment: Assignment::Static { queries: &queries },
                    num_groups: pts.len(),
                };
                let run = |mode: StepMode| {
                    let mut out = DeviceBuffer::with_capacity(1_000_000);
                    let opts = LaunchOptions::default().with_step_mode(mode);
                    let r = launch_with(&gpu, &src, IssueOrder::InOrder, &mut out, &opts).unwrap();
                    (out.into_vec(), r)
                };
                let (pairs_s, rep_s) = run(StepMode::Stepped);
                let (pairs_f, rep_f) = run(StepMode::RunLength);
                // Exact emission order, not just the sorted pair set.
                assert_eq!(pairs_s, pairs_f, "pattern {pattern:?}, k={k}");
                assert_eq!(rep_s.totals, rep_f.totals, "pattern {pattern:?}, k={k}");
                assert_eq!(rep_s.warp_cycles, rep_f.warp_cycles);
                assert_eq!(rep_s.makespan.makespan, rep_f.makespan.makespan);
            }
        }
    }

    #[test]
    fn empty_launch_with_zero_groups() {
        let pts = clustered_points();
        let grid = GridIndex::build(&pts, 0.12).unwrap();
        let resolved = ResolvedPatterns::compute(&grid, AccessPattern::FullWindow);
        let gpu = GpuConfig::small_test();
        let src = JoinKernelSource {
            grid: &grid,
            points: &pts,
            resolved: &resolved,
            epsilon: 0.12,
            k: 1,
            warp_size: gpu.warp_size,
            cost: gpu.cost,
            assignment: Assignment::Static { queries: &[] },
            num_groups: 0,
        };
        let mut out = DeviceBuffer::with_capacity(10);
        let r = launch(&gpu, &src, IssueOrder::InOrder, &mut out).unwrap();
        assert_eq!(r.warps, 0);
        assert!(out.is_empty());
    }
}
