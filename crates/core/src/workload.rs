//! Workload quantification and workload-ordered datasets (§III-C).
//!
//! The paper quantifies the workload of a query point as the number of
//! distance calculations it will perform in the refine step, i.e. the total
//! number of candidate points in the `3^n` window around its home cell.
//! Since all points of a cell share the same window, workload is computed
//! **per cell** and inherited by the cell's points. It is derived from the
//! join's resolved probe table ([`WorkloadProfile::from_resolved`]), so the
//! windows are walked once per join, not once for the kernels and again for
//! the profile.

use std::cmp::Reverse;

use epsgrid::GridIndex;

use crate::config::AccessPattern;
use crate::kernels::ResolvedPatterns;
use crate::patterns::ProbeRelation;

/// Workload of one non-empty cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellWorkload {
    /// Index into the grid's non-empty cell list.
    pub cell_idx: u32,
    /// Candidate points in the cell's neighbor window (= distance
    /// calculations each of the cell's points performs under FullWindow).
    pub candidates: u64,
    /// Points stored in the cell.
    pub points: u32,
}

/// The workload quantification of a whole indexed dataset.
#[derive(Debug, Clone)]
pub struct WorkloadProfile {
    per_cell: Vec<u64>,
    per_point: Vec<u64>,
}

impl WorkloadProfile {
    /// Quantifies workloads from the grid index: resolves LID-UNICOMP (the
    /// half window) and derives the profile with [`Self::from_resolved`].
    pub fn compute<const N: usize>(grid: &GridIndex<N>) -> Self {
        Self::from_resolved(
            grid,
            &ResolvedPatterns::compute(grid, AccessPattern::LidUnicomp),
        )
    }

    /// Derives the exact full-window profile from a resolved probe table of
    /// any pattern, without walking a window again.
    ///
    /// Window adjacency is symmetric, so a unidirectional pattern probes
    /// each adjacent pair of non-empty cells exactly once: an
    /// [`ProbeRelation::AllSymmetric`] probe from `A` to `B` adds `|B|` to
    /// `A` and `|A|` to `B`. [`ProbeRelation::OwnCellForward`] and
    /// [`ProbeRelation::AllBidirectional`] probes add the probed cell's size
    /// to the probing cell only.
    pub fn from_resolved<const N: usize>(grid: &GridIndex<N>, resolved: &ResolvedPatterns) -> Self {
        debug_assert_eq!(resolved.num_cells(), grid.num_cells());
        let size = |c: usize| grid.cells()[c].len() as u64;
        let mut per_cell = vec![0u64; grid.num_cells()];
        for a in 0..grid.num_cells() {
            for probe in resolved.found_probes(a) {
                let b = probe.cell as usize;
                per_cell[a] += size(b);
                if probe.relation == ProbeRelation::AllSymmetric {
                    per_cell[b] += size(a);
                }
            }
        }
        Self::inherit(grid, per_cell)
    }

    /// The profile whose points inherit their home cell's workload.
    fn inherit<const N: usize>(grid: &GridIndex<N>, per_cell: Vec<u64>) -> Self {
        let mut per_point = vec![0u64; grid.num_points()];
        for (ci, &w) in per_cell.iter().enumerate() {
            for &pid in grid.cell_points(ci) {
                per_point[pid as usize] = w;
            }
        }
        Self {
            per_cell,
            per_point,
        }
    }

    /// Workload of dataset point `pid`.
    pub fn point_workload(&self, pid: u32) -> u64 {
        self.per_point[pid as usize]
    }

    /// Workload of non-empty cell `cell_idx`.
    pub fn cell_workload(&self, cell_idx: usize) -> u64 {
        self.per_cell[cell_idx]
    }

    /// Per-point workloads, indexed by dataset id.
    pub fn per_point(&self) -> &[u64] {
        &self.per_point
    }

    /// Per-cell workloads, indexed by non-empty cell index.
    pub fn per_cell(&self) -> &[u64] {
        &self.per_cell
    }

    /// Builds a profile directly from per-point workloads (no grid), for
    /// differential tests that exercise the sort paths on arbitrary key
    /// distributions. Cell workloads are left empty.
    pub fn from_per_point(per_point: Vec<u64>) -> Self {
        Self {
            per_cell: Vec::new(),
            per_point,
        }
    }

    /// Rebuilds a profile from externally maintained per-cell workloads
    /// (e.g. the incrementally re-quantified counts of
    /// [`epsgrid::DynamicGrid`]), inheriting each cell's workload to its
    /// points exactly as [`Self::compute`] does. Returns `None` when the
    /// slice does not line up with the grid's cell list.
    pub fn from_per_cell<const N: usize>(grid: &GridIndex<N>, per_cell: &[u64]) -> Option<Self> {
        if per_cell.len() != grid.num_cells() {
            return None;
        }
        Some(Self::inherit(grid, per_cell.to_vec()))
    }

    /// Total workload over the whole dataset (total distance calculations a
    /// FullWindow execution performs).
    pub fn total(&self) -> u64 {
        self.per_point.iter().sum()
    }

    /// Sorts a set of point ids by non-increasing workload (ties broken by
    /// ascending id, keeping the order deterministic) — the SORTBYWL
    /// transformation applied to one batch's points.
    pub fn sort_by_workload(&self, pids: &mut [u32]) {
        // Key-based sort: `(Reverse(workload), id)` is a total order by
        // construction, so determinism cannot silently regress if the
        // comparator is edited (see the identical-order regression test).
        pids.sort_unstable_by_key(|&p| (Reverse(self.per_point[p as usize]), p));
    }

    /// Builds the paper's `D'`: the whole dataset reordered cell-by-cell
    /// from the heaviest-workload cell to the lightest (§III-C: "assigning
    /// points from the cell with the greatest workload at the beginning of
    /// a new array `D'`"). The WORKQUEUE's global counter walks this array.
    pub fn sorted_dataset<const N: usize>(&self, grid: &GridIndex<N>) -> Vec<u32> {
        expand_cell_order(grid, &self.cell_order())
    }

    /// The non-empty cell indices sorted by non-increasing workload, ties by
    /// ascending cell index — the cell-level ordering behind
    /// [`sorted_dataset`](Self::sorted_dataset), exposed so the device sort
    /// backend can reproduce it through the radix-argsort kernel chain.
    pub fn cell_order(&self) -> Vec<u32> {
        let mut cell_order: Vec<u32> = (0..self.per_cell.len() as u32).collect();
        cell_order.sort_unstable_by_key(|&c| (Reverse(self.per_cell[c as usize]), c));
        cell_order
    }

    /// Per-cell workload summary, heaviest first.
    pub fn cell_summary<const N: usize>(&self, grid: &GridIndex<N>) -> Vec<CellWorkload> {
        let mut cells: Vec<CellWorkload> = (0..grid.num_cells())
            .map(|ci| CellWorkload {
                cell_idx: ci as u32,
                candidates: self.per_cell[ci],
                points: grid.cell_points(ci).len() as u32,
            })
            .collect();
        cells.sort_unstable_by_key(|c| (Reverse(c.candidates), c.cell_idx));
        cells
    }
}

/// Concatenates the points of `cell_order`'s cells into the paper's `D'`
/// array — the expansion step shared by the host and device sort backends.
pub fn expand_cell_order<const N: usize>(grid: &GridIndex<N>, cell_order: &[u32]) -> Vec<u32> {
    let mut order = Vec::with_capacity(grid.num_points());
    for &ci in cell_order {
        order.extend_from_slice(grid.cell_points(ci as usize));
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use epsgrid::Point;

    /// Two dense clusters of different sizes plus an isolated point.
    fn skewed_points() -> Vec<Point<2>> {
        let mut pts = Vec::new();
        for i in 0..8 {
            pts.push([0.5 + 0.01 * i as f32, 0.5]);
        }
        for i in 0..3 {
            pts.push([5.5 + 0.01 * i as f32, 5.5]);
        }
        pts.push([9.5, 9.5]);
        pts
    }

    #[test]
    fn workload_reflects_density() {
        let pts = skewed_points();
        let grid = GridIndex::build(&pts, 1.0).unwrap();
        let profile = WorkloadProfile::compute(&grid);
        // Dense-cluster points have workload 8, small cluster 3, isolated 1.
        assert_eq!(profile.point_workload(0), 8);
        assert_eq!(profile.point_workload(8), 3);
        assert_eq!(profile.point_workload(11), 1);
        assert_eq!(profile.total(), 8 * 8 + 3 * 3 + 1);
    }

    #[test]
    fn per_point_matches_home_cell() {
        let pts = skewed_points();
        let grid = GridIndex::build(&pts, 1.0).unwrap();
        let profile = WorkloadProfile::compute(&grid);
        for pid in 0..pts.len() as u32 {
            let home = grid.home_cell_of(pid as usize);
            assert_eq!(profile.point_workload(pid), profile.cell_workload(home));
        }
    }

    #[test]
    fn sort_by_workload_is_non_increasing_permutation() {
        let pts = skewed_points();
        let grid = GridIndex::build(&pts, 1.0).unwrap();
        let profile = WorkloadProfile::compute(&grid);
        let mut ids: Vec<u32> = (0..pts.len() as u32).collect();
        profile.sort_by_workload(&mut ids);
        assert_eq!(ids.len(), pts.len());
        let mut sorted_ids = ids.clone();
        sorted_ids.sort_unstable();
        assert_eq!(sorted_ids, (0..pts.len() as u32).collect::<Vec<_>>());
        for pair in ids.windows(2) {
            assert!(profile.point_workload(pair[0]) >= profile.point_workload(pair[1]));
        }
    }

    #[test]
    fn sorted_dataset_is_cell_major_non_increasing() {
        let pts = skewed_points();
        let grid = GridIndex::build(&pts, 1.0).unwrap();
        let profile = WorkloadProfile::compute(&grid);
        let order = profile.sorted_dataset(&grid);
        assert_eq!(order.len(), pts.len());
        for pair in order.windows(2) {
            assert!(
                profile.point_workload(pair[0]) >= profile.point_workload(pair[1]),
                "D' must be non-increasing in workload"
            );
        }
        // Heaviest cluster's 8 points come first.
        assert!(order[..8].iter().all(|&pid| pid < 8));
    }

    #[test]
    fn cell_summary_is_sorted_and_complete() {
        let pts = skewed_points();
        let grid = GridIndex::build(&pts, 1.0).unwrap();
        let profile = WorkloadProfile::compute(&grid);
        let summary = profile.cell_summary(&grid);
        assert_eq!(summary.len(), grid.num_cells());
        let total_points: u32 = summary.iter().map(|c| c.points).sum();
        assert_eq!(total_points as usize, pts.len());
        for pair in summary.windows(2) {
            assert!(pair[0].candidates >= pair[1].candidates);
        }
    }

    #[test]
    fn orderings_are_deterministic_under_repetition_and_permutation() {
        // Regression for tie-break fragility: many cells share a workload on
        // lattice-like data, so any reliance on sort incidentals (rather
        // than the explicit id tie-break) would reorder ties between runs or
        // under permuted input.
        let mut pts = Vec::new();
        for x in 0..6 {
            for y in 0..6 {
                pts.push([x as f32 + 0.5, y as f32 + 0.5]);
            }
        }
        let grid = GridIndex::build(&pts, 1.0).unwrap();
        let profile = WorkloadProfile::compute(&grid);

        let cell_order = profile.cell_order();
        let dataset_order = profile.sorted_dataset(&grid);
        let summary = profile.cell_summary(&grid);
        for _ in 0..5 {
            assert_eq!(profile.cell_order(), cell_order, "cell order drifted");
            assert_eq!(profile.sorted_dataset(&grid), dataset_order);
            assert_eq!(profile.cell_summary(&grid), summary);
        }
        // Equal-workload runs must be in ascending cell index.
        for pair in cell_order.windows(2) {
            let (wa, wb) = (
                profile.cell_workload(pair[0] as usize),
                profile.cell_workload(pair[1] as usize),
            );
            assert!(wa > wb || (wa == wb && pair[0] < pair[1]));
        }

        // Point sort: permuting the input ids must not change the result.
        let mut ids: Vec<u32> = (0..pts.len() as u32).collect();
        profile.sort_by_workload(&mut ids);
        let mut permuted: Vec<u32> = (0..pts.len() as u32).rev().collect();
        profile.sort_by_workload(&mut permuted);
        assert_eq!(ids, permuted, "sort must not depend on input order");
        let mut rotated: Vec<u32> = (0..pts.len() as u32).collect();
        rotated.rotate_left(7);
        profile.sort_by_workload(&mut rotated);
        assert_eq!(ids, rotated);
    }

    #[test]
    fn expand_cell_order_matches_sorted_dataset() {
        let pts = skewed_points();
        let grid = GridIndex::build(&pts, 1.0).unwrap();
        let profile = WorkloadProfile::compute(&grid);
        assert_eq!(
            expand_cell_order(&grid, &profile.cell_order()),
            profile.sorted_dataset(&grid)
        );
    }

    #[test]
    fn uniform_data_has_uniform_workloads() {
        // A full lattice: every interior point sees the same window count.
        let mut pts = Vec::new();
        for x in 0..6 {
            for y in 0..6 {
                pts.push([x as f32 + 0.5, y as f32 + 0.5]);
            }
        }
        let grid = GridIndex::build(&pts, 1.0).unwrap();
        let profile = WorkloadProfile::compute(&grid);
        // Interior cell (2,2) sees 9 candidates; corner (0,0) sees 4.
        let interior = grid.find_cell(grid.shape().linear_id(&[2, 2])).unwrap();
        let corner = grid.find_cell(grid.shape().linear_id(&[0, 0])).unwrap();
        assert_eq!(profile.cell_workload(interior), 9);
        assert_eq!(profile.cell_workload(corner), 4);
    }
}
