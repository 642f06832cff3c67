//! Dimension-erased run helpers for GPU variants and SUPER-EGO.

use std::time::{Duration, Instant};

use epsgrid::DynPoints;
use simjoin::{ExecTarget, Execution, SelfJoin, SelfJoinConfig};
use sj_telemetry::Telemetry;
use superego::{super_ego_join_with, SuperEgoConfig};
use warpsim::FaultPlane;

use crate::cpu_model::CpuModel;

/// Outcome of one simulated-GPU join run.
#[derive(Debug, Clone)]
pub struct GpuRunResult {
    /// Variant label (from [`SelfJoinConfig::label`]).
    pub label: String,
    /// End-to-end response time in model seconds.
    pub response_s: f64,
    /// Warp execution efficiency, `[0, 1]`.
    pub wee: f64,
    /// Ordered result pairs found.
    pub pairs: usize,
    /// Batches executed.
    pub batches: usize,
    /// Distance calculations performed.
    pub distance_calcs: u64,
    /// Coefficient of variation of per-warp durations (inter-warp
    /// imbalance).
    pub warp_cv: f64,
    /// Wall-clock time the *simulation* took (not a result, just harness
    /// telemetry).
    pub sim_wall: Duration,
}

/// Outcome of one SUPER-EGO run.
#[derive(Debug, Clone)]
pub struct CpuRunResult {
    /// Model seconds under the shared cost model.
    pub model_s: f64,
    /// Native wall-clock seconds on the host.
    pub wall_s: f64,
    /// Ordered result pairs found.
    pub pairs: usize,
    /// Distance calculations performed.
    pub distance_calcs: u64,
}

fn run_join_fixed<const N: usize>(
    points: &[[f32; N]],
    config: SelfJoinConfig,
    target: &ExecTarget<'_>,
    fault: Option<&FaultPlane>,
    telemetry: &dyn Telemetry,
) -> Result<(GpuRunResult, Execution), String> {
    let start = Instant::now();
    let label = config.label();
    let mut join = SelfJoin::new(points, config)
        .expect("join configuration must be valid")
        .with_telemetry(telemetry);
    if let Some(plane) = fault {
        join = join.with_fault_plane(plane);
    }
    let exec = join.execute(target).map_err(|e| e.to_string())?;
    let report = &exec.report;
    let run = GpuRunResult {
        label,
        response_s: report.response_time_s(),
        wee: report.wee(),
        pairs: exec.result.len(),
        batches: report.num_batches,
        distance_calcs: report.distance_calcs(),
        warp_cv: report.warp_stats().map(|s| s.cv()).unwrap_or(0.0),
        sim_wall: start.elapsed(),
    };
    Ok((run, exec))
}

/// Runs a GPU join variant on one simulated device (2 ≤ dims ≤ 6).
///
/// # Panics
/// Panics on unsupported dimensionality, invalid configuration, or a
/// failed join.
pub fn run_join_dyn(points: &DynPoints, config: SelfJoinConfig) -> GpuRunResult {
    run_join_dyn_on(
        points,
        config,
        &ExecTarget::Device,
        None,
        &sj_telemetry::NULL,
    )
    .expect("join execution must succeed")
    .0
}

/// Runs a GPU join variant on `target`, with `fault` attached to the join's
/// own device, recording executor and kernel telemetry to `telemetry`. The
/// [`GpuRunResult`] is built from the *canonical* report, so its fields are
/// bit-identical across targets on a clean run; the [`Execution`] carries
/// the fleet or hybrid accounting. `Err` carries a typed join error's
/// rendering — an acceptable outcome under injected faults, unlike a wrong
/// result.
///
/// # Panics
/// Panics on unsupported dimensionality or invalid configuration.
pub fn run_join_dyn_on(
    points: &DynPoints,
    config: SelfJoinConfig,
    target: &ExecTarget<'_>,
    fault: Option<&FaultPlane>,
    telemetry: &dyn Telemetry,
) -> Result<(GpuRunResult, Execution), String> {
    macro_rules! dims {
        ($($n:literal),*) => {
            match points.dims() {
                $($n => run_join_fixed(
                    &points.as_fixed::<$n>().unwrap(),
                    config,
                    target,
                    fault,
                    telemetry,
                ),)*
                d => panic!("unsupported dimensionality {d}"),
            }
        };
    }
    dims!(2, 3, 4, 5, 6)
}

fn run_superego_fixed<const N: usize>(
    points: &[[f32; N]],
    epsilon: f32,
    cpu: &CpuModel,
    cost: &warpsim::CostModel,
    telemetry: &dyn Telemetry,
) -> CpuRunResult {
    let outcome = super_ego_join_with(points, &SuperEgoConfig::new(epsilon), telemetry);
    let model_s = cpu.model_seconds(&outcome.stats, N as u32, cost);
    if telemetry.is_enabled() {
        telemetry.record(
            sj_telemetry::Event::new("superego", "run_summary")
                .u64("pairs", outcome.pairs.len() as u64)
                .u64("threads", outcome.threads as u64)
                .f64("model_s", model_s)
                .f64("host_wall_s", outcome.wall.as_secs_f64()),
        );
    }
    CpuRunResult {
        model_s,
        wall_s: outcome.wall.as_secs_f64(),
        pairs: outcome.pairs.len(),
        distance_calcs: outcome.stats.distance_calcs,
    }
}

/// Runs SUPER-EGO on a dimension-erased dataset and converts its operation
/// counts to model seconds with the same cost table the GPU uses.
pub fn run_superego_dyn(
    points: &DynPoints,
    epsilon: f32,
    cpu: &CpuModel,
    cost: &warpsim::CostModel,
) -> CpuRunResult {
    run_superego_dyn_with(points, epsilon, cpu, cost, &sj_telemetry::NULL)
}

/// [`run_superego_dyn`] recording SUPER-EGO phase telemetry to `telemetry`.
pub fn run_superego_dyn_with(
    points: &DynPoints,
    epsilon: f32,
    cpu: &CpuModel,
    cost: &warpsim::CostModel,
    telemetry: &dyn Telemetry,
) -> CpuRunResult {
    macro_rules! dims {
        ($($n:literal),*) => {
            match points.dims() {
                $($n => run_superego_fixed(
                    &points.as_fixed::<$n>().unwrap(),
                    epsilon,
                    cpu,
                    cost,
                    telemetry,
                ),)*
                d => panic!("unsupported dimensionality {d}"),
            }
        };
    }
    dims!(2, 3, 4, 5, 6)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjdata::DatasetSpec;

    #[test]
    fn gpu_and_cpu_find_the_same_pairs() {
        let spec = DatasetSpec::by_name("Expo2D2M").unwrap();
        let pts = spec.generate(2_000);
        let eps = 0.6;
        let gpu = run_join_dyn(&pts, SelfJoinConfig::optimized(eps));
        let cpu = run_superego_dyn(
            &pts,
            eps,
            &CpuModel::default(),
            &warpsim::CostModel::default(),
        );
        assert_eq!(gpu.pairs, cpu.pairs);
        assert!(gpu.response_s > 0.0);
        assert!(cpu.model_s > 0.0);
    }

    #[test]
    fn sharded_canonical_result_matches_single_device_bit_for_bit() {
        let spec = DatasetSpec::by_name("Expo2D2M").unwrap();
        let pts = spec.generate(1_200);
        let eps = spec.epsilons[2];
        let config = SelfJoinConfig::optimized(eps).with_batching(simjoin::BatchingConfig {
            batch_result_capacity: 20_000,
            ..simjoin::BatchingConfig::default()
        });
        let single = run_join_dyn(&pts, config.clone());
        for devices in [1usize, 4] {
            let fleet = warpsim::DeviceFleet::homogeneous(devices, config.gpu);
            let target = ExecTarget::Fleet {
                fleet: &fleet,
                strategy: simjoin::ShardStrategy::WorkloadAware,
            };
            let (sharded, exec) =
                run_join_dyn_on(&pts, config.clone(), &target, None, &sj_telemetry::NULL).unwrap();
            let fleet = exec.fleet.unwrap();
            assert_eq!(sharded.pairs, single.pairs);
            assert_eq!(sharded.batches, single.batches);
            assert_eq!(sharded.distance_calcs, single.distance_calcs);
            assert_eq!(sharded.response_s.to_bits(), single.response_s.to_bits());
            assert_eq!(sharded.wee.to_bits(), single.wee.to_bits());
            assert_eq!(sharded.warp_cv.to_bits(), single.warp_cv.to_bits());
            assert_eq!(fleet.shards.len(), devices);
            assert!(fleet.makespan_s <= single.response_s + 1e-12);
        }
    }

    #[test]
    fn all_supported_dims_run() {
        for name in ["Unif2D2M", "Unif3D2M", "Unif4D2M", "Unif5D2M", "Unif6D2M"] {
            let spec = DatasetSpec::by_name(name).unwrap();
            let pts = spec.generate(800);
            let eps = spec.epsilons[2];
            let r = run_join_dyn(&pts, SelfJoinConfig::new(eps));
            assert!(r.wee > 0.0 && r.wee <= 1.0, "{name}");
        }
    }
}
