//! Incrementally maintained ε-grid index for long-running services.
//!
//! [`GridIndex::build`] is a build-once structure: the one-shot pipeline
//! indexes, joins and exits. A serving deployment instead amortizes the index
//! across many requests while the dataset churns underneath it.
//! [`DynamicGrid`] wraps a [`GridIndex`] and maintains it under streaming
//! point inserts and removes:
//!
//! - every mutation patches the cell list / point-id layout **in place**, so
//!   the maintained index stays bit-identical (cells, point order, filtered
//!   ranges) to a fresh [`GridIndex::build`] over the current point set;
//! - mutations mark the touched cells **dirty**; the per-cell workload
//!   quantification (the SORTBYWL input) is re-derived lazily and only for
//!   dirty cells and their `3^n` neighbor windows;
//! - mutations that would change the grid geometry (a point outside the
//!   current bounding box, or removal of a hull point) and churn beyond a
//!   configurable dirt threshold fall back to a **full rebuild** escape
//!   hatch, which is always correct.
//!
//! Point ids are dataset positions. [`DynamicGrid::remove`] uses
//! `swap_remove` semantics: the last point takes over the removed point's id,
//! keeping ids dense so the index arrays never grow holes.

use std::collections::BTreeSet;

use crate::bounds::Aabb;
use crate::cell::LinearCellId;
use crate::grid::{GridBuildError, GridIndex, NonEmptyCell};
use crate::neighbors::NeighborWindow;
use crate::point::Point;

/// Fraction of non-empty cells that may be dirty before the next mutation
/// abandons incremental maintenance and rebuilds from scratch.
pub const DEFAULT_REBUILD_LIMIT: f64 = 0.25;

/// Errors from mutating a [`DynamicGrid`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnError {
    /// The inserted point has a NaN or infinite coordinate.
    NonFinitePoint,
    /// The point id does not name a live point.
    UnknownPoint(u32),
    /// Removing the last remaining point would leave nothing to index.
    WouldEmptyDataset,
    /// The grid cannot index the point set the mutation would produce (a
    /// point so far away that the cell count overflows); the mutation was
    /// not applied.
    Unindexable(GridBuildError),
}

impl std::fmt::Display for ChurnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChurnError::NonFinitePoint => {
                write!(f, "inserted point has non-finite coordinates")
            }
            ChurnError::UnknownPoint(id) => write!(f, "point id {id} is not in the dataset"),
            ChurnError::WouldEmptyDataset => {
                write!(f, "removing the last point would empty the dataset")
            }
            ChurnError::Unindexable(e) => write!(f, "the grid cannot index the point: {e}"),
        }
    }
}

impl std::error::Error for ChurnError {}

/// Counters describing how the index has been maintained so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceStats {
    /// Inserts applied by patching the index in place.
    pub incremental_inserts: u64,
    /// Removes applied by patching the index in place.
    pub incremental_removes: u64,
    /// Full rebuilds (geometry changes or dirt over the threshold).
    pub full_rebuilds: u64,
    /// Cells whose workload was re-quantified (incremental passes only).
    pub requantified_cells: u64,
}

/// An ε-grid index maintained under streaming inserts and removes.
///
/// Owns the point set. The wrapped [`GridIndex`] is patched eagerly on every
/// mutation (queries are always served from a correct index); the per-cell
/// workload quantification is refreshed lazily via [`Self::per_cell_workload`]
/// or [`Self::flush_maintenance`].
#[derive(Debug, Clone)]
pub struct DynamicGrid<const N: usize> {
    points: Vec<Point<N>>,
    epsilon: f32,
    index: GridIndex<N>,
    bounds: Aabb<N>,
    /// Linear ids of cells whose population changed since the last
    /// re-quantification. Kept ordered for deterministic refresh order.
    dirty: BTreeSet<LinearCellId>,
    /// Per-cell window candidate counts, aligned with `index.cells`.
    workload: Vec<u64>,
    rebuild_limit: f64,
    stats: MaintenanceStats,
}

impl<const N: usize> DynamicGrid<N> {
    /// Builds the initial index over `points`.
    pub fn new(points: Vec<Point<N>>, epsilon: f32) -> Result<Self, GridBuildError> {
        let index = GridIndex::build(&points, epsilon)?;
        // `build` succeeded, so the set is non-empty and finite.
        let bounds =
            Aabb::of_points(&points).expect("bounds exist for a successfully indexed dataset");
        let workload = (0..index.num_cells())
            .map(|ci| index.window_candidate_count(ci))
            .collect();
        Ok(Self {
            points,
            epsilon,
            index,
            bounds,
            dirty: BTreeSet::new(),
            workload,
            rebuild_limit: DEFAULT_REBUILD_LIMIT,
            stats: MaintenanceStats::default(),
        })
    }

    /// Overrides the dirt fraction that triggers the full-rebuild escape
    /// hatch (default [`DEFAULT_REBUILD_LIMIT`]).
    pub fn with_rebuild_limit(mut self, limit: f64) -> Self {
        self.rebuild_limit = limit.max(0.0);
        self
    }

    /// The maintained index. Always bit-identical to
    /// `GridIndex::build(self.points(), self.epsilon())`.
    pub fn index(&self) -> &GridIndex<N> {
        &self.index
    }

    /// The current point set; a point's id is its position here.
    pub fn points(&self) -> &[Point<N>] {
        &self.points
    }

    /// The ε the grid is maintained at.
    pub fn epsilon(&self) -> f32 {
        self.epsilon
    }

    /// Number of live points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the grid holds no points (never true: construction and
    /// [`Self::remove`] both refuse an empty dataset).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Maintenance counters.
    pub fn stats(&self) -> MaintenanceStats {
        self.stats
    }

    /// Number of cells currently marked dirty (awaiting re-quantification).
    pub fn pending_dirty(&self) -> usize {
        self.dirty.len()
    }

    /// Per-cell window candidate counts (the SORTBYWL workload input),
    /// aligned with [`GridIndex::cells`]. Re-quantifies dirty windows first.
    pub fn per_cell_workload(&mut self) -> &[u64] {
        self.flush_maintenance();
        &self.workload
    }

    /// Re-quantifies the workload of every cell inside the neighbor window of
    /// a dirty cell, then clears the dirty set. Returns the number of cells
    /// refreshed.
    pub fn flush_maintenance(&mut self) -> usize {
        if self.dirty.is_empty() {
            return 0;
        }
        // A cell's candidate count changes iff the population of a cell in
        // its window changed; window membership is symmetric, so the affected
        // cells are exactly those inside the windows of the dirty cells.
        let mut affected: BTreeSet<usize> = BTreeSet::new();
        let shape = *self.index.shape();
        for &lid in &self.dirty {
            let window = NeighborWindow::around(&shape, &shape.coords_of(lid));
            for (_, id) in window.iter(&shape) {
                if let Some(ci) = self.index.find_cell(id) {
                    affected.insert(ci);
                }
            }
        }
        for &ci in &affected {
            self.workload[ci] = self.index.window_candidate_count(ci);
        }
        self.stats.requantified_cells += affected.len() as u64;
        self.dirty.clear();
        affected.len()
    }

    /// Discards the incremental state and rebuilds index, bounds and
    /// workload from the current point set. The new index is built before
    /// anything is replaced, so on failure the grid is left as it was.
    pub fn force_rebuild(&mut self) -> Result<(), ChurnError> {
        let index =
            GridIndex::build(&self.points, self.epsilon).map_err(ChurnError::Unindexable)?;
        // `build` succeeded, so the set is non-empty and finite.
        self.bounds = Aabb::of_points(&self.points).expect("bounds exist for an indexed dataset");
        self.workload = (0..index.num_cells())
            .map(|ci| index.window_candidate_count(ci))
            .collect();
        self.index = index;
        self.dirty.clear();
        self.stats.full_rebuilds += 1;
        Ok(())
    }

    /// Inserts a point, returning its id (`self.len() - 1` afterwards).
    ///
    /// Points inside the current bounding box are patched into the index in
    /// place; a point that would grow the box changes the grid geometry and
    /// takes the full-rebuild path. A point the grid cannot index is
    /// rejected with [`ChurnError::Unindexable`], leaving the point set,
    /// index and stats unchanged.
    pub fn insert(&mut self, p: Point<N>) -> Result<u32, ChurnError> {
        if p.iter().any(|c| !c.is_finite()) {
            return Err(ChurnError::NonFinitePoint);
        }
        let pid = self.points.len() as u32;
        self.points.push(p);
        if !self.bounds.contains(&p) {
            if let Err(e) = self.force_rebuild() {
                self.points.pop();
                return Err(e);
            }
            return Ok(pid);
        }

        let shape = *self.index.shape();
        let coords = shape.cell_of(&p);
        let lid = shape.linear_id(&coords);
        match self.index.cells.binary_search_by_key(&lid, |c| c.linear_id) {
            Ok(ci) => {
                // `pid` is the largest id, so the canonical (cell, pid) sort
                // places it at the end of its cell's group.
                let at = self.index.cells[ci].range.end as usize;
                self.index.point_ids.insert(at, pid);
                self.index.cells[ci].range.end += 1;
                for cell in &mut self.index.cells[ci + 1..] {
                    cell.range.start += 1;
                    cell.range.end += 1;
                }
                self.index.home_cell.push(ci as u32);
            }
            Err(pos) => {
                let start = match self.index.cells.get(pos) {
                    Some(next) => next.range.start,
                    None => self.index.point_ids.len() as u32,
                };
                self.index.point_ids.insert(start as usize, pid);
                self.index.cells.insert(
                    pos,
                    NonEmptyCell {
                        linear_id: lid,
                        range: start..start + 1,
                    },
                );
                for cell in &mut self.index.cells[pos + 1..] {
                    cell.range.start += 1;
                    cell.range.end += 1;
                }
                for hc in &mut self.index.home_cell {
                    if *hc as usize >= pos {
                        *hc += 1;
                    }
                }
                self.index.home_cell.push(pos as u32);
                // Placeholder until the dirty window is re-quantified.
                self.workload.insert(pos, 0);
                for (r, &c) in self.index.filtered_ranges.iter_mut().zip(&coords) {
                    r.start = r.start.min(c);
                    r.end = r.end.max(c + 1);
                }
            }
        }
        self.dirty.insert(lid);
        self.stats.incremental_inserts += 1;
        self.rebuild_if_too_dirty();
        Ok(pid)
    }

    /// Removes the point with id `pid` using `swap_remove` semantics.
    ///
    /// Returns the id of the point that was renamed to fill the hole: the
    /// point formerly known as `self.len() - 1` now answers to `pid`
    /// (`None` when `pid` already was the last point).
    ///
    /// Hull points (touching the bounding box on any face) shrink the grid
    /// geometry and take the full-rebuild path.
    pub fn remove(&mut self, pid: u32) -> Result<Option<u32>, ChurnError> {
        let i = pid as usize;
        if i >= self.points.len() {
            return Err(ChurnError::UnknownPoint(pid));
        }
        if self.points.len() == 1 {
            return Err(ChurnError::WouldEmptyDataset);
        }
        let last = self.points.len() - 1;
        let renamed = if i == last { None } else { Some(last as u32) };
        let removed = self.points[i];
        let on_hull =
            (0..N).any(|d| removed[d] == self.bounds.min[d] || removed[d] == self.bounds.max[d]);
        self.points.swap_remove(i);
        if on_hull {
            if let Err(e) = self.force_rebuild() {
                // Undo the swap-remove: the grid still indexes the old set.
                self.points.push(removed);
                let end = self.points.len() - 1;
                self.points.swap(i, end);
                return Err(e);
            }
            return Ok(renamed);
        }

        let removed_ci = self.index.home_cell[i] as usize;
        let removed_lid = self.index.cells[removed_ci].linear_id;
        let moved_lid = renamed.map(|_| {
            let ci = self.index.home_cell[last] as usize;
            self.index.cells[ci].linear_id
        });

        // Drop `pid`'s entry from its cell's (pid-sorted) slice.
        let r = self.index.cells[removed_ci].range.clone();
        let slice = &self.index.point_ids[r.start as usize..r.end as usize];
        let off = slice
            .binary_search(&pid)
            .expect("home cell lists each of its points");
        self.index.point_ids.remove(r.start as usize + off);
        self.index.cells[removed_ci].range.end -= 1;
        for cell in &mut self.index.cells[removed_ci + 1..] {
            cell.range.start -= 1;
            cell.range.end -= 1;
        }
        if self.index.cells[removed_ci].range.is_empty() {
            self.index.cells.remove(removed_ci);
            self.workload.remove(removed_ci);
            for hc in &mut self.index.home_cell {
                if *hc as usize > removed_ci {
                    *hc -= 1;
                }
            }
            self.recompute_filtered_ranges();
        }

        // Mirror the dataset's swap_remove on the home-cell map, then rename
        // `last` to `pid` inside its (unchanged) cell, restoring sorted order.
        self.index.home_cell.swap_remove(i);
        if let Some(lid) = moved_lid {
            let ci = self
                .index
                .find_cell(lid)
                .expect("moved point's cell still has at least that point");
            let r = self.index.cells[ci].range.clone();
            let slice = &self.index.point_ids[r.start as usize..r.end as usize];
            // `last` is the global max id: it sits at the end of its slice.
            debug_assert_eq!(slice.last(), Some(&(last as u32)));
            let dest = slice.partition_point(|&x| x < pid);
            self.index.point_ids.remove(r.end as usize - 1);
            self.index.point_ids.insert(r.start as usize + dest, pid);
        }

        self.dirty.insert(removed_lid);
        self.stats.incremental_removes += 1;
        self.rebuild_if_too_dirty();
        Ok(renamed)
    }

    fn rebuild_if_too_dirty(&mut self) {
        let limit = self.rebuild_limit * self.index.num_cells() as f64;
        // The incrementally patched index is already exact, so if the
        // rebuild cannot index the set it simply keeps serving.
        if self.dirty.len() as f64 > limit {
            self.force_rebuild().ok();
        }
    }

    fn recompute_filtered_ranges(&mut self) {
        #[allow(clippy::reversed_empty_ranges)]
        let mut fr: [std::ops::Range<u32>; N] = std::array::from_fn(|_| u32::MAX..0u32);
        let shape = *self.index.shape();
        for cell in &self.index.cells {
            let coords = shape.coords_of(cell.linear_id);
            for d in 0..N {
                fr[d].start = fr[d].start.min(coords[d]);
                fr[d].end = fr[d].end.max(coords[d] + 1);
            }
        }
        self.index.filtered_ranges = fr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::within_epsilon;

    fn fresh_workload<const N: usize>(index: &GridIndex<N>) -> Vec<u64> {
        (0..index.num_cells())
            .map(|ci| index.window_candidate_count(ci))
            .collect()
    }

    /// Asserts the maintained state is bit-identical to a from-scratch build.
    fn assert_matches_fresh<const N: usize>(dg: &mut DynamicGrid<N>) {
        let fresh = GridIndex::build(dg.points(), dg.epsilon()).unwrap();
        assert_eq!(dg.index(), &fresh, "maintained index diverged from build");
        assert_eq!(
            dg.per_cell_workload(),
            fresh_workload(&fresh).as_slice(),
            "maintained workload diverged from fresh quantification"
        );
    }

    /// The grid-reported ε-pair set vs. the O(n²) oracle.
    fn assert_exact_pairs<const N: usize>(dg: &DynamicGrid<N>) {
        let pts = dg.points();
        let eps = dg.epsilon();
        let mut via_grid: Vec<(usize, usize)> = vec![];
        for i in 0..pts.len() {
            dg.index().for_each_candidate_of(i, |j| {
                if i < j && within_epsilon(&pts[i], &pts[j], eps) {
                    via_grid.push((i, j));
                }
            });
        }
        via_grid.sort_unstable();
        via_grid.dedup();
        let mut oracle: Vec<(usize, usize)> = vec![];
        for i in 0..pts.len() {
            for j in i + 1..pts.len() {
                if within_epsilon(&pts[i], &pts[j], eps) {
                    oracle.push((i, j));
                }
            }
        }
        assert_eq!(via_grid, oracle, "pair set diverged from brute force");
    }

    fn seed_points() -> Vec<Point<2>> {
        vec![
            [0.0, 0.0],
            [1.0, 1.0],
            [0.31, 0.48],
            [0.52, 0.49],
            [0.49, 0.51],
            [0.05, 0.05],
            [0.95, 0.12],
        ]
    }

    #[test]
    fn insert_inside_bounds_is_incremental_and_exact() {
        let mut dg = DynamicGrid::new(seed_points(), 0.1).unwrap();
        let id = dg.insert([0.50, 0.50]).unwrap();
        assert_eq!(id, 7);
        assert_eq!(dg.stats().incremental_inserts, 1);
        assert_eq!(dg.stats().full_rebuilds, 0);
        assert_matches_fresh(&mut dg);
        assert_exact_pairs(&dg);
    }

    #[test]
    fn insert_outside_bounds_rebuilds() {
        let mut dg = DynamicGrid::new(seed_points(), 0.1).unwrap();
        dg.insert([2.0, 2.0]).unwrap();
        assert_eq!(dg.stats().full_rebuilds, 1);
        assert_matches_fresh(&mut dg);
    }

    #[test]
    fn remove_interior_point_is_incremental() {
        let mut dg = DynamicGrid::new(seed_points(), 0.1).unwrap();
        // Point 2 is interior; the last point (6) takes over id 2.
        let renamed = dg.remove(2).unwrap();
        assert_eq!(renamed, Some(6));
        assert_eq!(dg.stats().incremental_removes, 1);
        assert_eq!(dg.stats().full_rebuilds, 0);
        assert_matches_fresh(&mut dg);
        assert_exact_pairs(&dg);
    }

    #[test]
    fn remove_hull_point_rebuilds() {
        let mut dg = DynamicGrid::new(seed_points(), 0.1).unwrap();
        // Point 1 = [1.0, 1.0] sits on the bounding-box max corner.
        dg.remove(1).unwrap();
        assert_eq!(dg.stats().full_rebuilds, 1);
        assert_matches_fresh(&mut dg);
    }

    #[test]
    fn remove_last_point_id_needs_no_rename() {
        let mut dg = DynamicGrid::new(seed_points(), 0.1).unwrap();
        assert_eq!(dg.remove(6).unwrap(), None);
        assert_matches_fresh(&mut dg);
    }

    #[test]
    fn churn_errors_are_typed() {
        let mut dg = DynamicGrid::new(vec![[0.0f32, 0.0]], 0.1).unwrap();
        assert_eq!(dg.insert([f32::NAN, 0.0]), Err(ChurnError::NonFinitePoint));
        assert_eq!(dg.remove(7), Err(ChurnError::UnknownPoint(7)));
        assert_eq!(dg.remove(0), Err(ChurnError::WouldEmptyDataset));
        assert_eq!(dg.len(), 1);
    }

    #[test]
    fn unindexable_insert_leaves_the_grid_unchanged() {
        let mut dg = DynamicGrid::new(seed_points(), 0.1).unwrap();
        let before = dg.clone();
        let err = dg.insert([1e30, 1e30]).unwrap_err();
        assert!(matches!(err, ChurnError::Unindexable(_)), "{err:?}");
        assert_eq!(dg.points(), before.points());
        assert_eq!(dg.index(), before.index());
        assert_eq!(dg.stats(), before.stats());
        dg.insert([0.5, 0.5]).unwrap();
        assert_matches_fresh(&mut dg);
        assert_exact_pairs(&dg);
    }

    #[test]
    fn dirt_threshold_triggers_rebuild() {
        let mut dg = DynamicGrid::new(seed_points(), 0.1)
            .unwrap()
            .with_rebuild_limit(0.0);
        dg.insert([0.5, 0.5]).unwrap();
        assert_eq!(dg.stats().full_rebuilds, 1);
        assert_eq!(dg.pending_dirty(), 0);
        assert_matches_fresh(&mut dg);
    }

    #[test]
    fn lazy_requantification_touches_only_dirty_windows() {
        let mut dg = DynamicGrid::new(seed_points(), 0.1).unwrap();
        dg.insert([0.50, 0.50]).unwrap();
        assert!(dg.pending_dirty() > 0);
        let refreshed = dg.flush_maintenance();
        assert!(refreshed >= 1);
        assert!(
            refreshed < dg.index().num_cells(),
            "incremental requantification refreshed every cell"
        );
        assert_eq!(dg.flush_maintenance(), 0);
    }
}
