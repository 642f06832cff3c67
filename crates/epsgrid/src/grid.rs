//! The ε-grid index over non-empty cells.
//!
//! Mirrors the GPU index of Gowanlock & Karsin: only cells containing at
//! least one point are stored, as a list sorted by linear cell id (the
//! paper's `B` array) with per-cell ranges into a point-id array (the
//! paper's `A` array). Membership queries for a neighbor cell are binary
//! searches over the sorted id list — exactly the lookup the GPU kernels
//! perform.

use std::ops::Range;

use crate::bounds::Aabb;
use crate::cell::{CellCoords, GridShape, LinearCellId, ShapeError};
use crate::neighbors::NeighborWindow;
use crate::point::Point;

/// A non-empty grid cell: its linear id plus the range of `point_ids`
/// entries holding the dataset indices of the points it contains.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NonEmptyCell {
    /// Row-major linear id of the cell.
    pub linear_id: LinearCellId,
    /// Range into [`GridIndex::point_ids`].
    pub range: Range<u32>,
}

impl NonEmptyCell {
    /// Number of points in the cell.
    pub fn len(&self) -> usize {
        (self.range.end - self.range.start) as usize
    }

    /// Whether the cell is empty (never true for cells stored in an index).
    pub fn is_empty(&self) -> bool {
        self.range.is_empty()
    }
}

/// Errors when building a [`GridIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridBuildError {
    /// The dataset is empty.
    EmptyDataset,
    /// The dataset contains NaN or infinite coordinates.
    NonFiniteCoordinates,
    /// The grid geometry is invalid (bad ε or overflowing resolution).
    Shape(ShapeError),
}

impl std::fmt::Display for GridBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GridBuildError::EmptyDataset => write!(f, "cannot index an empty dataset"),
            GridBuildError::NonFiniteCoordinates => {
                write!(f, "dataset contains non-finite coordinates")
            }
            GridBuildError::Shape(e) => write!(f, "invalid grid geometry: {e}"),
        }
    }
}

impl std::error::Error for GridBuildError {}

impl From<ShapeError> for GridBuildError {
    fn from(e: ShapeError) -> Self {
        GridBuildError::Shape(e)
    }
}

/// The ε-grid index: non-empty cells of an ε-side grid over the dataset.
///
/// Space complexity is `O(|D|)` — independent of the conceptual grid
/// resolution — because empty cells are never materialized.
/// Equality is field-wise and therefore layout-sensitive: two indexes are
/// equal only when their cell lists, point orderings and filtered ranges are
/// bit-identical — exactly the property the incremental maintainer
/// ([`crate::DynamicGrid`]) is tested against.
#[derive(Debug, Clone, PartialEq)]
pub struct GridIndex<const N: usize> {
    pub(crate) shape: GridShape<N>,
    pub(crate) epsilon: f32,
    /// Non-empty cells sorted by ascending `linear_id` (paper's `B` + `A`).
    pub(crate) cells: Vec<NonEmptyCell>,
    /// Dataset point indices grouped by cell.
    pub(crate) point_ids: Vec<u32>,
    /// For each dataset point, the index into `cells` of its home cell.
    pub(crate) home_cell: Vec<u32>,
    /// Per-dimension min/max coordinate of non-empty cells
    /// (the paper's `filteredRanges`).
    pub(crate) filtered_ranges: [Range<u32>; N],
}

impl<const N: usize> GridIndex<N> {
    /// Builds the index over `points` with grid cell length `epsilon`.
    pub fn build(points: &[Point<N>], epsilon: f32) -> Result<Self, GridBuildError> {
        if points.is_empty() {
            return Err(GridBuildError::EmptyDataset);
        }
        let bounds = Aabb::of_points(points).ok_or(GridBuildError::NonFiniteCoordinates)?;
        let shape = GridShape::covering(&bounds, epsilon)?;

        // Pair each point with its home cell id, then group by sorting.
        let mut keyed: Vec<(LinearCellId, u32)> = points
            .iter()
            .enumerate()
            .map(|(i, p)| (shape.linear_id(&shape.cell_of(p)), i as u32))
            .collect();
        keyed.sort_unstable();

        let mut cells: Vec<NonEmptyCell> = Vec::new();
        let mut point_ids: Vec<u32> = Vec::with_capacity(points.len());
        let mut home_cell: Vec<u32> = vec![0; points.len()];
        for (cell_id, point_id) in keyed {
            match cells.last_mut() {
                Some(cell) if cell.linear_id == cell_id => cell.range.end += 1,
                _ => {
                    let start = point_ids.len() as u32;
                    cells.push(NonEmptyCell {
                        linear_id: cell_id,
                        range: start..start + 1,
                    });
                }
            }
            home_cell[point_id as usize] = (cells.len() - 1) as u32;
            point_ids.push(point_id);
        }

        // Fold identity: any occupied coordinate shrinks/grows it into a
        // valid range on the first iteration.
        #[allow(clippy::reversed_empty_ranges)]
        let mut filtered_ranges = std::array::from_fn(|_| u32::MAX..0u32);
        for cell in &cells {
            let coords = shape.coords_of(cell.linear_id);
            for d in 0..N {
                let r: &mut Range<u32> = &mut filtered_ranges[d];
                r.start = r.start.min(coords[d]);
                r.end = r.end.max(coords[d] + 1);
            }
        }

        Ok(Self {
            shape,
            epsilon,
            cells,
            point_ids,
            home_cell,
            filtered_ranges,
        })
    }

    /// The grid geometry.
    pub fn shape(&self) -> &GridShape<N> {
        &self.shape
    }

    /// The ε the index was built with (equals the cell side length).
    pub fn epsilon(&self) -> f32 {
        self.epsilon
    }

    /// Number of indexed (non-empty) cells.
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Number of indexed points.
    pub fn num_points(&self) -> usize {
        self.home_cell.len()
    }

    /// The non-empty cells, sorted by ascending linear id.
    pub fn cells(&self) -> &[NonEmptyCell] {
        &self.cells
    }

    /// Per-dimension half-open coordinate range spanned by non-empty cells
    /// (the paper's `filteredRanges`).
    pub fn filtered_ranges(&self) -> &[Range<u32>; N] {
        &self.filtered_ranges
    }

    /// Binary-searches the non-empty cell list for `linear_id`
    /// (the kernels' `linearID ∈ B` test). Returns the cell's index.
    pub fn find_cell(&self, linear_id: LinearCellId) -> Option<usize> {
        self.cells
            .binary_search_by_key(&linear_id, |c| c.linear_id)
            .ok()
    }

    /// Finds `linear_id` by a galloping search forward from cell index
    /// `*cursor`, for walks that look up ascending ids (a window in row-major
    /// order). Every cell before `*cursor` must have a smaller id. Moves
    /// `*cursor` to the lower bound — the first cell whose id is at least
    /// `linear_id` — and returns it if that cell is the one sought, so the
    /// next, larger id resumes from there instead of searching the whole
    /// list again. Agrees with [`Self::find_cell`].
    pub fn seek_cell(&self, linear_id: LinearCellId, cursor: &mut usize) -> Option<usize> {
        let cells = &self.cells;
        let mut lo = *cursor;
        debug_assert!(lo <= cells.len() && (lo == 0 || cells[lo - 1].linear_id < linear_id));
        if lo < cells.len() && cells[lo].linear_id < linear_id {
            // Gallop until `cells[hi]` reaches the id (or the list ends),
            // keeping `cells[lo].linear_id < linear_id`, then bisect (lo, hi].
            let mut step = 1;
            let mut hi = lo + 1;
            while hi < cells.len() && cells[hi].linear_id < linear_id {
                lo = hi;
                step *= 2;
                hi = lo + step;
            }
            let hi = hi.min(cells.len());
            lo += 1 + cells[lo + 1..hi].partition_point(|c| c.linear_id < linear_id);
        }
        *cursor = lo;
        (lo < cells.len() && cells[lo].linear_id == linear_id).then_some(lo)
    }

    /// Dataset indices of the points in cell `cell_idx`.
    ///
    /// # Panics
    /// Panics if `cell_idx` is out of bounds.
    pub fn cell_points(&self, cell_idx: usize) -> &[u32] {
        let r = &self.cells[cell_idx].range;
        &self.point_ids[r.start as usize..r.end as usize]
    }

    /// Index (into [`Self::cells`]) of the home cell of dataset point `point_id`.
    ///
    /// # Panics
    /// Panics if `point_id` is out of bounds.
    pub fn home_cell_of(&self, point_id: usize) -> usize {
        self.home_cell[point_id] as usize
    }

    /// The neighbor window around cell `cell_idx`.
    pub fn window_around(&self, cell_idx: usize) -> NeighborWindow<N> {
        let coords = self.shape.coords_of(self.cells[cell_idx].linear_id);
        NeighborWindow::around(&self.shape, &coords)
    }

    /// Coordinates of a stored cell.
    pub fn cell_coords(&self, cell_idx: usize) -> CellCoords<N> {
        self.shape.coords_of(self.cells[cell_idx].linear_id)
    }

    /// Total number of candidate points in the `3^n` window around
    /// cell `cell_idx` — the workload quantification used by SORTBYWL
    /// (number of distance calculations each point of the cell performs).
    pub fn window_candidate_count(&self, cell_idx: usize) -> u64 {
        let window = self.window_around(cell_idx);
        let mut cursor = 0;
        let mut total = 0u64;
        for (_, id) in window.iter(&self.shape) {
            if let Some(ci) = self.seek_cell(id, &mut cursor) {
                total += self.cells[ci].len() as u64;
            }
        }
        total
    }

    /// Invokes `f` with every candidate point id in the neighbor window of
    /// `point_id`'s home cell (including `point_id` itself).
    pub fn for_each_candidate_of<F: FnMut(usize)>(&self, point_id: usize, mut f: F) {
        let home = self.home_cell_of(point_id);
        let window = self.window_around(home);
        let mut cursor = 0;
        for (_, id) in window.iter(&self.shape) {
            if let Some(ci) = self.seek_cell(id, &mut cursor) {
                for &cand in self.cell_points(ci) {
                    f(cand as usize);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::within_epsilon;

    fn sample_points() -> Vec<Point<2>> {
        vec![
            [0.05, 0.05],
            [0.07, 0.02],
            [0.95, 0.95],
            [0.50, 0.50],
            [0.52, 0.49],
            [0.49, 0.51],
        ]
    }

    #[test]
    fn build_groups_points_by_cell() {
        let pts = sample_points();
        let grid = GridIndex::build(&pts, 0.1).unwrap();
        assert_eq!(grid.num_points(), pts.len());
        let total: usize = grid.cells().iter().map(|c| c.len()).sum();
        assert_eq!(total, pts.len());
        // Points 0 and 1 share a cell.
        assert_eq!(grid.home_cell_of(0), grid.home_cell_of(1));
        // All points of a cell's range actually map back to that cell.
        for (ci, _cell) in grid.cells().iter().enumerate() {
            for &pid in grid.cell_points(ci) {
                assert_eq!(grid.home_cell_of(pid as usize), ci);
            }
        }
    }

    #[test]
    fn cells_sorted_by_linear_id() {
        let pts = sample_points();
        let grid = GridIndex::build(&pts, 0.1).unwrap();
        let ids: Vec<_> = grid.cells().iter().map(|c| c.linear_id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(ids, sorted);
    }

    #[test]
    fn find_cell_agrees_with_cell_list() {
        let pts = sample_points();
        let grid = GridIndex::build(&pts, 0.1).unwrap();
        for (ci, cell) in grid.cells().iter().enumerate() {
            assert_eq!(grid.find_cell(cell.linear_id), Some(ci));
        }
        // A cell id that is definitely absent.
        let absent = grid.shape().total_cells() + 1;
        assert_eq!(grid.find_cell(absent), None);
    }

    #[test]
    fn window_contains_all_epsilon_neighbors() {
        // Completeness: every in-ε pair must be discoverable via the window.
        let pts = sample_points();
        let eps = 0.1;
        let grid = GridIndex::build(&pts, eps).unwrap();
        for (i, a) in pts.iter().enumerate() {
            let mut found: Vec<usize> = vec![];
            grid.for_each_candidate_of(i, |cand| {
                if within_epsilon(a, &pts[cand], eps) {
                    found.push(cand);
                }
            });
            for (j, b) in pts.iter().enumerate() {
                if within_epsilon(a, b, eps) {
                    assert!(found.contains(&j), "pair ({i},{j}) missed by grid window");
                }
            }
        }
    }

    #[test]
    fn seek_cell_agrees_with_find_cell_from_every_cursor() {
        // Sparse cells with gaps of varying width, so the gallop both
        // overshoots and lands exactly.
        let mut pts: Vec<Point<2>> = Vec::new();
        for (x, y) in [
            (0, 0),
            (1, 0),
            (3, 0),
            (7, 0),
            (0, 2),
            (5, 3),
            (6, 3),
            (9, 9),
        ] {
            pts.push([x as f32 + 0.5, y as f32 + 0.5]);
        }
        let grid = GridIndex::build(&pts, 1.0).unwrap();
        let ids: Vec<_> = grid.cells().iter().map(|c| c.linear_id).collect();
        for id in 0..=grid.shape().total_cells() + 1 {
            let lower = ids.partition_point(|&c| c < id);
            for start in 0..=lower {
                let mut cursor = start;
                assert_eq!(
                    grid.seek_cell(id, &mut cursor),
                    grid.find_cell(id),
                    "id {id}"
                );
                assert_eq!(cursor, lower, "id {id} from cursor {start}");
            }
        }
    }

    #[test]
    fn empty_dataset_rejected() {
        let pts: Vec<Point<2>> = vec![];
        assert!(matches!(
            GridIndex::build(&pts, 0.1),
            Err(GridBuildError::EmptyDataset)
        ));
    }

    #[test]
    fn nan_dataset_rejected() {
        let pts: Vec<Point<2>> = vec![[0.0, f32::NAN]];
        assert!(matches!(
            GridIndex::build(&pts, 0.1),
            Err(GridBuildError::NonFiniteCoordinates)
        ));
    }

    #[test]
    fn filtered_ranges_cover_all_cells() {
        let pts = sample_points();
        let grid = GridIndex::build(&pts, 0.1).unwrap();
        let fr = grid.filtered_ranges();
        for cell in grid.cells() {
            let coords = grid.shape().coords_of(cell.linear_id);
            for d in 0..2 {
                assert!(fr[d].contains(&coords[d]));
            }
        }
    }

    #[test]
    fn workload_counts_match_enumeration() {
        let pts = sample_points();
        let grid = GridIndex::build(&pts, 0.1).unwrap();
        for ci in 0..grid.num_cells() {
            let expected: u64 = {
                let window = grid.window_around(ci);
                let mut n = 0u64;
                for (_, id) in window.iter(grid.shape()) {
                    if let Some(c) = grid.find_cell(id) {
                        n += grid.cell_points(c).len() as u64;
                    }
                }
                n
            };
            assert_eq!(grid.window_candidate_count(ci), expected);
        }
    }

    #[test]
    fn single_point_dataset() {
        let pts: Vec<Point<3>> = vec![[1.0, 2.0, 3.0]];
        let grid = GridIndex::build(&pts, 0.5).unwrap();
        assert_eq!(grid.num_cells(), 1);
        assert_eq!(grid.cell_points(0), &[0]);
        assert_eq!(grid.window_candidate_count(0), 1);
    }

    #[test]
    fn duplicate_points_land_in_same_cell() {
        let pts: Vec<Point<2>> = vec![[0.5, 0.5]; 10];
        let grid = GridIndex::build(&pts, 0.25).unwrap();
        assert_eq!(grid.num_cells(), 1);
        assert_eq!(grid.cell_points(0).len(), 10);
    }
}
