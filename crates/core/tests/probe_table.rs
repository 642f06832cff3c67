//! The found-only probe table ([`ResolvedPatterns`]) against the window walk
//! it compresses: every cell's found probes, miss counts and relations
//! replay [`probes_for`] exactly, the profile derived from the table is the
//! full-window candidate count for every pattern, and the kernel built on it
//! runs bit-identically in stepped and run-length mode on a sparse 6-D set
//! where most lookups miss.

use epsgrid::{GridIndex, Point};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simjoin::kernels::{Assignment, JoinKernelSource, ResolvedPatterns};
use simjoin::patterns::{probes_for, ProbeRelation};
use simjoin::{AccessPattern, WorkloadProfile};
use warpsim::{
    launch_with, DeviceBuffer, DeviceCounter, GpuConfig, IssueOrder, LaunchOptions, OpKind,
    StepMode,
};

const PATTERNS: [AccessPattern; 3] = [
    AccessPattern::FullWindow,
    AccessPattern::Unicomp,
    AccessPattern::LidUnicomp,
];

/// `n` points uniform in `[0, extent)^N`; with `snap`, coordinates are
/// rounded to multiples of `0.5`, so points coincide and sit on cell
/// boundaries.
fn points<const N: usize>(seed: u64, n: usize, extent: f32, snap: bool) -> Vec<Point<N>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            std::array::from_fn(|_| {
                let x = rng.gen_range(0.0f32..extent);
                if snap {
                    (x * 2.0).round() / 2.0
                } else {
                    x
                }
            })
        })
        .collect()
}

/// A sparse 6-D set: isolated points in a wide box plus a few tight
/// clusters, so most window probes miss but some pairs are found.
fn sparse_6d() -> Vec<Point<6>> {
    let mut pts = points::<6>(11, 240, 12.0, false);
    let centers = points::<6>(12, 16, 12.0, false);
    let mut rng = StdRng::seed_from_u64(13);
    for c in &centers {
        for _ in 0..10 {
            pts.push(std::array::from_fn(|d| c[d] + rng.gen_range(-0.5f32..0.5)));
        }
    }
    pts
}

/// Expands a cell's table entries back into the window walk's lookup
/// sequence: `None` per miss, `Some((cell, relation))` per hit.
fn replay(resolved: &ResolvedPatterns, cell: usize) -> Vec<Option<(usize, ProbeRelation)>> {
    let mut out = Vec::new();
    for p in resolved.found_probes(cell) {
        out.resize(out.len() + p.misses_before as usize, None);
        out.push(Some((p.cell as usize, p.relation)));
    }
    out.resize(out.len() + resolved.trailing_misses(cell) as usize, None);
    out
}

/// Checks the table of every pattern over `pts` at `eps` against the
/// window walk and the per-cell window candidate counts.
fn check_table<const N: usize>(pts: &[Point<N>], eps: f32) {
    let grid = GridIndex::build(pts, eps).unwrap();
    let counts: Vec<u64> = (0..grid.num_cells())
        .map(|ci| grid.window_candidate_count(ci))
        .collect();
    for pattern in PATTERNS {
        let resolved = ResolvedPatterns::compute(&grid, pattern);
        assert_eq!(resolved.num_cells(), grid.num_cells());
        for ci in 0..grid.num_cells() {
            let probes = probes_for(pattern, &grid, ci);
            let found = resolved.found_probes(ci);
            let replayed: usize = found
                .iter()
                .map(|p| p.misses_before as usize + 1)
                .sum::<usize>()
                + resolved.trailing_misses(ci) as usize;
            assert_eq!(replayed, probes.len(), "{pattern:?} cell {ci}");
            let walked: Vec<_> = probes
                .iter()
                .map(|p| grid.find_cell(p.linear_id).map(|c| (c, p.relation)))
                .collect();
            assert_eq!(replay(&resolved, ci), walked, "{pattern:?} cell {ci}");
        }
        let profile = WorkloadProfile::from_resolved(&grid, &resolved);
        assert_eq!(profile.per_cell(), counts.as_slice(), "{pattern:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn table_replays_the_window_walk_2d(
        seed in 0u64..1_000_000,
        n in 1usize..120,
        extent in 0.5f32..12.0,
        eps in 0.3f32..3.0,
        snap in any::<bool>(),
    ) {
        check_table(&points::<2>(seed, n, extent, snap), eps);
    }

    #[test]
    fn table_replays_the_window_walk_3d(
        seed in 0u64..1_000_000,
        n in 1usize..100,
        extent in 0.5f32..8.0,
        eps in 0.3f32..3.0,
        snap in any::<bool>(),
    ) {
        check_table(&points::<3>(seed, n, extent, snap), eps);
    }

    #[test]
    fn table_replays_the_window_walk_6d(
        seed in 0u64..1_000_000,
        n in 1usize..80,
        extent in 1.0f32..10.0,
        eps in 0.5f32..3.0,
        snap in any::<bool>(),
    ) {
        check_table(&points::<6>(seed, n, extent, snap), eps);
    }
}

#[test]
fn table_replays_the_window_walk_on_degenerate_grids() {
    // One cell holding every point: the window is clamped to that cell.
    check_table(&points::<2>(1, 30, 0.9, false), 1.0);
    check_table(&points::<6>(2, 30, 0.9, false), 1.0);
    // Duplicates only.
    check_table(&[[0.25f32, 0.75]; 12], 0.5);
    check_table(&[[3.0f32; 6]; 5], 0.5);
    // Sparse 6-D: almost every probe misses.
    check_table(&sparse_6d(), 1.2);
}

/// Stepped (the oracle) and run-length execution of the real kernel agree
/// on totals, per-warp cycles, makespan and the exact pair emission order,
/// with static and work-queue assignment, on a set where misses dominate;
/// and the lanes issue exactly one lookup per probe of the window walk.
#[test]
fn step_modes_are_bit_identical_on_a_sparse_6d_set() {
    let pts = sparse_6d();
    let eps = 1.2;
    let grid = GridIndex::build(&pts, eps).unwrap();
    let gpu = GpuConfig {
        warp_size: 16,
        block_size: 32,
        ..GpuConfig::small_test()
    };
    let queries: Vec<u32> = (0..pts.len() as u32).collect();
    let order = WorkloadProfile::compute(&grid).sorted_dataset(&grid);
    for pattern in PATTERNS {
        let resolved = ResolvedPatterns::compute(&grid, pattern);
        let (found, misses) = (0..grid.num_cells()).fold((0usize, 0usize), |(f, m), ci| {
            let probes = resolved.found_probes(ci);
            let before: usize = probes.iter().map(|p| p.misses_before as usize).sum();
            let trailing = resolved.trailing_misses(ci) as usize;
            (f + probes.len(), m + before + trailing)
        });
        assert!(
            misses > 4 * found,
            "{pattern:?}: {misses} misses, {found} hits"
        );
        // Every lane issues one lookup per window probe, misses included.
        let walked_lookups: u64 = (0..pts.len())
            .map(|pid| probes_for(pattern, &grid, grid.home_cell_of(pid)).len() as u64)
            .sum();
        for k in [1u32, 2, 8] {
            for queue in [false, true] {
                let run = |mode: StepMode| {
                    let counter = DeviceCounter::new();
                    let assignment = if queue {
                        Assignment::Queue {
                            order: &order,
                            counter: &counter,
                            limit: order.len() as u64,
                        }
                    } else {
                        Assignment::Static { queries: &queries }
                    };
                    let src = JoinKernelSource {
                        grid: &grid,
                        points: &pts,
                        resolved: &resolved,
                        epsilon: eps,
                        k,
                        warp_size: gpu.warp_size,
                        cost: gpu.cost,
                        assignment,
                        num_groups: pts.len(),
                    };
                    let mut out = DeviceBuffer::with_capacity(1_000_000);
                    let opts = LaunchOptions::default().with_step_mode(mode);
                    let r = launch_with(&gpu, &src, IssueOrder::InOrder, &mut out, &opts).unwrap();
                    (out.into_vec(), r)
                };
                let (pairs_s, rep_s) = run(StepMode::Stepped);
                let (pairs_f, rep_f) = run(StepMode::RunLength);
                let case = format!("{pattern:?}, k={k}, queue={queue}");
                assert!(!pairs_s.is_empty(), "{case}: the set must produce pairs");
                assert_eq!(pairs_s, pairs_f, "{case}");
                assert_eq!(rep_s.totals, rep_f.totals, "{case}");
                assert_eq!(rep_s.warp_cycles, rep_f.warp_cycles, "{case}");
                assert_eq!(rep_s.makespan.makespan, rep_f.makespan.makespan, "{case}");
                let lookups = rep_s.totals.lane_ops_by_kind[OpKind::CellLookup.index()];
                assert_eq!(lookups, k as u64 * walked_lookups, "{case}");
            }
        }
    }
}
