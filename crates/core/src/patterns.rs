//! Cell access patterns: which neighbor cells each query point probes.
//!
//! Three patterns are implemented (see [`crate::AccessPattern`]):
//!
//! - **FullWindow** (`GPUCALCGLOBAL`): probe all `3^n` window cells; every
//!   in-ε pair is found twice, once from each endpoint.
//! - **UNICOMP**: the unidirectional pattern of Gowanlock & Karsin. A cell
//!   `C` probes the neighbor at offset `δ ≠ 0` iff `C[d*]` is odd, where
//!   `d*` is the highest dimension with `δ[d*] ≠ 0`. Since the two cells of
//!   an adjacent pair differ by exactly 1 in dimension `d*`, exactly one of
//!   them has an odd `d*` coordinate — every adjacent-cell pair is probed
//!   exactly once, from the odd side. In 2-D this is precisely Algorithm 2
//!   of the paper: the "green arrows" (`x` odd → row neighbors) and "red
//!   arrows" (`y` odd → the six cells of the rows above and below). Cells
//!   probe between 0 and `3^n - 1` neighbors, which is the imbalance
//!   LID-UNICOMP removes.
//! - **LID-UNICOMP** (§III-B): probe exactly the window cells whose linear
//!   id is larger than the origin's. Also once per adjacent pair, but every
//!   interior cell probes the same number (`(3^n - 1) / 2`) of neighbors.
//!
//! For the unidirectional patterns, intra-cell pairs are handled by
//! comparing each point only against later points of its own cell
//! ([`ProbeRelation::OwnCellForward`]) and emitting both orientations.

use epsgrid::{GridIndex, LinearCellId, NeighborWindow};

use crate::config::AccessPattern;

/// How the points of a probed cell relate to the query point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeRelation {
    /// Compare against every point of the cell; skip the query point itself;
    /// emit only the `(query, candidate)` orientation. Used by FullWindow.
    AllBidirectional,
    /// Compare against every point of the cell; emit both orientations
    /// (the cell is distinct from the query's home cell).
    AllSymmetric,
    /// The query's own cell under a unidirectional pattern: compare only
    /// against points stored *after* the query point within the cell; emit
    /// both orientations.
    OwnCellForward,
}

/// One neighbor-cell probe: the linear id the kernel binary-searches for,
/// and how to treat the cell's points if it exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellProbe {
    /// Linear id of the probed cell (may be absent from the index).
    pub linear_id: LinearCellId,
    /// Relation of the probed cell's points to the query point.
    pub relation: ProbeRelation,
}

/// Produces the probe list for a query point living in non-empty cell
/// `origin_idx`, under `pattern`: the probes of [`for_each_probe`],
/// collected.
pub fn probes_for<const N: usize>(
    pattern: AccessPattern,
    grid: &GridIndex<N>,
    origin_idx: usize,
) -> Vec<CellProbe> {
    let mut probes = Vec::with_capacity(grid.window_around(origin_idx).len());
    for_each_probe(pattern, grid, origin_idx, |p| probes.push(p));
    probes
}

/// Invokes `f` with every probe of a query point living in non-empty cell
/// `origin_idx`, under `pattern`, without allocating. Probes come in
/// ascending linear-id order of the window walk; absent cells still appear
/// (they cost a lookup in the kernel, as in the real implementation).
pub fn for_each_probe<const N: usize, F: FnMut(CellProbe)>(
    pattern: AccessPattern,
    grid: &GridIndex<N>,
    origin_idx: usize,
    mut f: F,
) {
    let shape = grid.shape();
    let origin_coords = grid.cell_coords(origin_idx);
    let origin_id = grid.cells()[origin_idx].linear_id;
    let window = NeighborWindow::around(shape, &origin_coords);
    for (coords, linear_id) in window.iter(shape) {
        if linear_id == origin_id {
            let relation = match pattern {
                AccessPattern::FullWindow => ProbeRelation::AllBidirectional,
                AccessPattern::Unicomp | AccessPattern::LidUnicomp => ProbeRelation::OwnCellForward,
            };
            f(CellProbe {
                linear_id,
                relation,
            });
            continue;
        }
        let include = match pattern {
            AccessPattern::FullWindow => true,
            AccessPattern::LidUnicomp => linear_id > origin_id,
            AccessPattern::Unicomp => {
                // Highest dimension in which the neighbor differs decides
                // which parity rule applies; the origin probes iff its
                // coordinate in that dimension is odd.
                let mut d_star = None;
                for d in 0..N {
                    if coords[d] != origin_coords[d] {
                        d_star = Some(d);
                    }
                }
                let d_star = d_star.expect("non-origin window cell differs somewhere");
                origin_coords[d_star] % 2 == 1
            }
        };
        if include {
            let relation = if pattern == AccessPattern::FullWindow {
                ProbeRelation::AllBidirectional
            } else {
                ProbeRelation::AllSymmetric
            };
            f(CellProbe {
                linear_id,
                relation,
            });
        }
    }
}

/// Number of *neighbor* (non-origin) cells a cell at `coords` would probe
/// under `pattern` on an unbounded grid — the numbers drawn in the paper's
/// Figures 2 and 5.
pub fn interior_probe_count<const N: usize>(pattern: AccessPattern, coords: &[u32; N]) -> usize {
    let total = 3usize.pow(N as u32) - 1;
    match pattern {
        AccessPattern::FullWindow => total,
        AccessPattern::LidUnicomp => total / 2,
        AccessPattern::Unicomp => {
            // Offsets δ ∈ {-1,0,1}^N \ {0} with coords[d*(δ)] odd.
            let mut count = 0;
            let mut offsets = vec![[0i32; N]];
            for d in 0..N {
                let mut next = Vec::with_capacity(offsets.len() * 3);
                for off in &offsets {
                    for v in [-1i32, 0, 1] {
                        let mut o = *off;
                        o[d] = v;
                        next.push(o);
                    }
                }
                offsets = next;
            }
            for off in offsets {
                if off == [0i32; N] {
                    continue;
                }
                let d_star = (0..N).rev().find(|&d| off[d] != 0).unwrap();
                if coords[d_star] % 2 == 1 {
                    count += 1;
                }
            }
            count
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epsgrid::Point;

    /// A dense 5×5 grid of points, one per unit cell.
    fn dense_grid_2d() -> (Vec<Point<2>>, GridIndex<2>) {
        let mut pts = Vec::new();
        for x in 0..5 {
            for y in 0..5 {
                pts.push([x as f32 + 0.5, y as f32 + 0.5]);
            }
        }
        let grid = GridIndex::build(&pts, 1.0).unwrap();
        (pts, grid)
    }

    fn find_cell_idx(grid: &GridIndex<2>, coords: [u32; 2]) -> usize {
        let id = grid.shape().linear_id(&coords);
        grid.find_cell(id).expect("dense grid: every cell exists")
    }

    #[test]
    fn full_window_probes_whole_window() {
        let (_, grid) = dense_grid_2d();
        let center = find_cell_idx(&grid, [2, 2]);
        let probes = probes_for(AccessPattern::FullWindow, &grid, center);
        assert_eq!(probes.len(), 9);
        assert_eq!(
            probes
                .iter()
                .filter(|p| p.relation == ProbeRelation::AllBidirectional)
                .count(),
            9
        );
    }

    #[test]
    fn lid_unicomp_probes_higher_ids_only() {
        let (_, grid) = dense_grid_2d();
        let center = find_cell_idx(&grid, [2, 2]);
        let own_id = grid.cells()[center].linear_id;
        let probes = probes_for(AccessPattern::LidUnicomp, &grid, center);
        // own cell + 4 higher-id neighbors (paper Figure 5: interior cells
        // compare to 4 neighbor cells in 2-D)
        assert_eq!(probes.len(), 5);
        let own: Vec<_> = probes
            .iter()
            .filter(|p| p.relation == ProbeRelation::OwnCellForward)
            .collect();
        assert_eq!(own.len(), 1);
        assert_eq!(own[0].linear_id, own_id);
        for p in &probes {
            if p.relation == ProbeRelation::AllSymmetric {
                assert!(p.linear_id > own_id);
            }
        }
    }

    #[test]
    fn unicomp_matches_figure_2_counts() {
        // Figure 2: neighbor counts depend on coordinate parity.
        // even/even → 0, odd/even → 2, even/odd → 6, odd/odd → 8.
        assert_eq!(interior_probe_count(AccessPattern::Unicomp, &[2u32, 2]), 0);
        assert_eq!(interior_probe_count(AccessPattern::Unicomp, &[1u32, 2]), 2);
        assert_eq!(interior_probe_count(AccessPattern::Unicomp, &[2u32, 1]), 6);
        assert_eq!(interior_probe_count(AccessPattern::Unicomp, &[1u32, 1]), 8);
    }

    #[test]
    fn lid_unicomp_interior_count_is_constant() {
        for coords in [[0u32, 0], [1, 2], [3, 3]] {
            assert_eq!(interior_probe_count(AccessPattern::LidUnicomp, &coords), 4);
        }
        assert_eq!(
            interior_probe_count::<3>(AccessPattern::LidUnicomp, &[1, 1, 1]),
            13
        );
    }

    /// Exhaustive pair-coverage check: on a dense grid, every unordered
    /// adjacent-cell pair must be probed exactly once by the unidirectional
    /// patterns and exactly twice by FullWindow.
    fn check_pair_coverage(pattern: AccessPattern, expected_per_pair: usize) {
        let (_, grid) = dense_grid_2d();
        let mut cover = std::collections::HashMap::new();
        for ci in 0..grid.num_cells() {
            let own_id = grid.cells()[ci].linear_id;
            for p in probes_for(pattern, &grid, ci) {
                if p.linear_id == own_id {
                    continue;
                }
                let key = (own_id.min(p.linear_id), own_id.max(p.linear_id));
                *cover.entry(key).or_insert(0usize) += 1;
            }
        }
        // Count adjacent pairs in a 5x5 grid.
        let mut expected_pairs = 0;
        for x1 in 0..5u32 {
            for y1 in 0..5u32 {
                for x2 in 0..5u32 {
                    for y2 in 0..5u32 {
                        let a = grid.shape().linear_id(&[x1, y1]);
                        let b = grid.shape().linear_id(&[x2, y2]);
                        if a < b && x1.abs_diff(x2) <= 1 && y1.abs_diff(y2) <= 1 {
                            expected_pairs += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(
            cover.len(),
            expected_pairs,
            "{pattern:?} must cover every adjacent pair"
        );
        for (pair, count) in cover {
            assert_eq!(
                count, expected_per_pair,
                "{pattern:?}: pair {pair:?} probed {count} times"
            );
        }
    }

    #[test]
    fn unicomp_covers_each_pair_once() {
        check_pair_coverage(AccessPattern::Unicomp, 1);
    }

    #[test]
    fn lid_unicomp_covers_each_pair_once() {
        check_pair_coverage(AccessPattern::LidUnicomp, 1);
    }

    #[test]
    fn full_window_covers_each_pair_twice() {
        check_pair_coverage(AccessPattern::FullWindow, 2);
    }

    #[test]
    fn unicomp_variance_exceeds_lid_unicomp_variance() {
        // The motivating claim of §III-B: LID-UNICOMP equalizes per-cell
        // probe counts where UNICOMP leaves them wildly uneven.
        let counts = |p: AccessPattern| -> Vec<usize> {
            (1..4u32)
                .flat_map(|x| (1..4u32).map(move |y| (x, y)))
                .map(|(x, y)| interior_probe_count(p, &[x, y]))
                .collect()
        };
        let spread = |v: &[usize]| v.iter().max().unwrap() - v.iter().min().unwrap();
        let uni = counts(AccessPattern::Unicomp);
        let lid = counts(AccessPattern::LidUnicomp);
        assert!(spread(&uni) > spread(&lid));
        assert_eq!(spread(&lid), 0);
    }
}
