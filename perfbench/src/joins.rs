//! The three batch-join workloads: `skewed-fleet` (`run_on_fleet`),
//! `uniform-6d` (`run`) and `clustered-hybrid` (`run_hybrid`).

use std::time::Instant;

use epsgrid::{GridIndex, Point};
use simjoin::kernels::ResolvedPatterns;
use simjoin::{
    BatchPlan, FleetReport, HybridPolicy, HybridReport, JoinReport, ResultSet, SelfJoin,
    SelfJoinConfig, ShardStrategy, WorkloadProfile,
};
use sj_telemetry::{Event, JsonTelemetry, Telemetry};
use warpsim::DeviceFleet;

use crate::check::{self, PairDigest};
use crate::report::{mean, median, repeat_for, since, sum_field, tail, timed, Clock, Outcome};
use crate::{join_config, Args, Threads, Workload};

/// `SelfJoin::new` runs behind `setup_s`: at least `SETUP_MIN_REPS`, and
/// more while they take less than `SETUP_SHARE` of the time budget.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 200;
const SETUP_SHARE: f64 = 0.05;
/// Fewest timed joins per run, whatever the time budget.
const MIN_JOINS: usize = 5;
/// Repetitions of each direct layer call in the traced run.
const TRACE_REPS: usize = 3;
/// Untraced and traced joins (each) in the traced run.
const JOIN_REPS: usize = 5;
/// Devices of the `skewed-fleet` fleet.
const FLEET_DEVICES: usize = 4;

/// Which executor body a workload drives.
#[derive(Debug, Clone, Copy)]
enum Exec {
    Run,
    Fleet,
    Hybrid(HybridPolicy),
}

impl Exec {
    fn of(workload: Workload, threads: Threads) -> Self {
        match workload {
            Workload::SkewedFleet => Exec::Fleet,
            Workload::ClusteredHybrid => {
                Exec::Hybrid(HybridPolicy::default().with_jobs(threads.jobs))
            }
            _ => Exec::Run,
        }
    }
}

/// What one join call returned.
struct Executed {
    result: ResultSet,
    report: JoinReport,
    /// Simulated seconds the caller waits: fleet makespan, hybrid
    /// makespan, or the single device's response time.
    model_s: f64,
    fleet: Option<FleetReport>,
    hybrid: Option<HybridReport>,
}

/// The deterministic part of a join's outcome, compared bit for bit across
/// repetitions and across the traced and untraced passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Observation {
    digest: PairDigest,
    model_s_bits: u64,
    wee_bits: u64,
    batches: usize,
}

impl Executed {
    fn observation(&self) -> Observation {
        Observation {
            digest: PairDigest::of(self.result.pairs()),
            model_s_bits: self.model_s.to_bits(),
            wee_bits: self.report.wee().to_bits(),
            batches: self.report.num_batches,
        }
    }
}

/// Runs the join once through the workload's executor body, returning the
/// outcome and the host seconds of the library call alone.
fn execute<const N: usize>(join: &SelfJoin<'_, N>, exec: Exec) -> (Result<Executed, String>, f64) {
    let fleet = DeviceFleet::homogeneous(FLEET_DEVICES, join.config().gpu);
    let t = Instant::now();
    let out = match exec {
        Exec::Run => join.run().map(|o| Executed {
            model_s: o.report.response_time_s(),
            result: o.result,
            report: o.report,
            fleet: None,
            hybrid: None,
        }),
        Exec::Fleet => join
            .run_on_fleet(&fleet, ShardStrategy::WorkloadAware)
            .map(|o| Executed {
                model_s: o.fleet.makespan_s,
                result: o.result,
                report: o.report,
                fleet: Some(o.fleet),
                hybrid: None,
            }),
        Exec::Hybrid(policy) => join.run_hybrid(&policy).map(|o| Executed {
            model_s: o.hybrid.makespan_s,
            result: o.result,
            report: o.report,
            fleet: None,
            hybrid: Some(o.hybrid),
        }),
    };
    let secs = since(t);
    (out.map_err(|e| e.to_string()), secs)
}

/// Runs a join workload, untraced (end-to-end metrics) or traced
/// (per-layer metrics).
pub fn run<const N: usize>(
    args: &Args,
    threads: Threads,
    points: &[Point<N>],
) -> Result<Outcome, String> {
    let (_, _, epsilon) = args.workload.dataset();
    let config = join_config(epsilon, threads);
    let exec = Exec::of(args.workload, threads);
    let mut out = Outcome::default();
    let observations = if args.trace {
        traced(points, &config, exec, &mut out)?
    } else {
        untraced(args, points, &config, exec, &mut out)?
    };
    if !args.trace {
        out.peak_rss()?;
    }
    // The untimed reference check: every join's pair set against SUPER-EGO,
    // and every deterministic field against the first repetition.
    let reference = check::reference(points, epsilon, threads.jobs);
    for (i, obs) in observations.iter().enumerate() {
        out.expect_eq(&format!("join {i} pair set"), obs.digest, reference);
        out.expect_eq(
            &format!("join {i} model_s/wee/batches"),
            *obs,
            observations[0],
        );
    }
    Ok(out)
}

/// The end-to-end pass: repeated constructions, then joins until the
/// time budget is spent.
fn untraced<const N: usize>(
    args: &Args,
    points: &[Point<N>],
    config: &SelfJoinConfig,
    exec: Exec,
    out: &mut Outcome,
) -> Result<Vec<Observation>, String> {
    let start = Instant::now();
    let (setup, join) = repeat_for(
        SETUP_MIN_REPS,
        SETUP_MAX_REPS,
        SETUP_SHARE * args.seconds,
        || SelfJoin::new(points, config.clone()),
    );
    let join = join.map_err(|e| format!("SelfJoin::new: {e}"))?;
    out.attempted += setup.len() as u64;

    let mut latency = Vec::new();
    let mut observations = Vec::new();
    let mut first = None;
    while latency.len() < MIN_JOINS || since(start) < args.seconds {
        let (result, secs) = execute(&join, exec);
        out.attempted += 1;
        latency.push(secs);
        match result {
            Ok(e) => {
                observations.push(e.observation());
                first.get_or_insert(e.model_s);
            }
            Err(e) => out.fail(format!("join {}: {e}", latency.len() - 1)),
        }
    }
    let n = latency.len();
    let model_s = first.ok_or("no join succeeded")?;
    out.metric(
        "setup_s",
        median(&setup),
        "s",
        Clock::Wall,
        format!("median of {} SelfJoin::new", setup.len()),
    );
    out.metric(
        "latency_p50_s",
        median(&latency),
        "s",
        Clock::Wall,
        format!("median of {n} joins"),
    );
    let (tail, pct) = tail(&latency);
    out.metric(
        "latency_p99_s",
        tail,
        "s",
        Clock::Wall,
        format!(
            "p{pct:.0} of {n} joins: the highest percentile up to p99 with ten samples beyond it"
        ),
    );
    out.metric(
        "max_rate_rps",
        1.0 / mean(&latency),
        "1/s",
        Clock::Wall,
        format!("joins per second, closed loop, one caller, {n} joins"),
    );
    out.metric(
        "model_s",
        model_s,
        "s",
        Clock::Model,
        "simulated seconds the caller waits",
    );
    Ok(observations)
}

/// Host seconds of the `executor.phase` events named `phase`, summed.
fn phase_s(events: &[Event], phase: &str) -> f64 {
    sum_field(events, "executor.phase", phase, "host_ns").0 * 1e-9
}

/// The query ids of plan units `units` (in plan order).
fn unit_queries(plan: &BatchPlan, units: std::ops::Range<usize>) -> Vec<u32> {
    units
        .flat_map(|u| match plan {
            BatchPlan::Strided { batches } => batches[u].clone(),
            BatchPlan::Queue { order, chunks } => order[chunks[u].clone()].to_vec(),
        })
        .collect()
}

/// The traced pass: direct calls into each layer, an untraced and a
/// traced series of joins, and the layer fields of the telemetry events.
fn traced<const N: usize>(
    points: &[Point<N>],
    config: &SelfJoinConfig,
    exec: Exec,
    out: &mut Outcome,
) -> Result<Vec<Observation>, String> {
    let eps = config.epsilon;
    let (build, grid) = timed(TRACE_REPS, || GridIndex::build(points, eps));
    let grid: GridIndex<N> = grid.map_err(|e| format!("GridIndex::build: {e:?}"))?;
    let (resolve, _) = timed(TRACE_REPS, || {
        ResolvedPatterns::compute(&grid, config.pattern)
    });
    let (profile, _) = timed(TRACE_REPS, || WorkloadProfile::compute(&grid));
    out.attempted += 3 * TRACE_REPS as u64;

    let join = SelfJoin::new(points, config.clone()).map_err(|e| format!("SelfJoin::new: {e}"))?;
    let sink = JsonTelemetry::new("perfbench");
    let traced_join = SelfJoin::new(points, config.clone())
        .map_err(|e| format!("SelfJoin::new: {e}"))?
        .with_telemetry(&sink as &dyn Telemetry);
    out.attempted += 2;

    // A warm-up join first, so first-touch costs land in neither series;
    // then untraced and traced joins alternate, so drift hits both alike.
    let mut observations = Vec::new();
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let (mut plan_s, mut gather_s) = (Vec::new(), Vec::new());
    let mut last = None;
    for i in 0..=JOIN_REPS {
        let (r, secs) = execute(&join, exec);
        out.attempted += 1;
        if i > 0 {
            untraced_s.push(secs);
        }
        match r {
            Ok(e) => {
                observations.push(e.observation());
                last = Some(e);
            }
            Err(e) => out.fail(format!("untraced join {i}: {e}")),
        }
        if i == 0 {
            continue;
        }
        let mark = sink.len();
        let (r, secs) = execute(&traced_join, exec);
        out.attempted += 1;
        traced_s.push(secs);
        let events = sink.events().split_off(mark);
        plan_s.push(phase_s(&events, "estimate_and_plan"));
        gather_s.push(phase_s(&events, "gather"));
        match r {
            Ok(e) => observations.push(e.observation()),
            Err(e) => out.fail(format!("traced join {i}: {e}")),
        }
    }
    let last = last.ok_or("no untraced join succeeded")?;
    let report = &last.report;

    let w = Clock::Wall;
    let c = Clock::Count;
    let m = Clock::Model;
    let reps = format!("median of {TRACE_REPS} direct calls");
    out.metric(
        "epsgrid.build_s",
        median(&build),
        "s",
        w,
        format!("GridIndex::build, {reps}"),
    );
    out.metric(
        "epsgrid.cells",
        grid.num_cells() as f64,
        "count",
        c,
        "non-empty cells",
    );
    out.metric(
        "epsgrid.mean_candidates",
        join.mean_candidates(),
        "count",
        c,
        "candidates per query point",
    );
    out.metric(
        "kernels.resolve_s",
        median(&resolve),
        "s",
        w,
        format!("ResolvedPatterns::compute, {reps}"),
    );
    out.metric(
        "workload.profile_s",
        median(&profile),
        "s",
        w,
        format!("WorkloadProfile::compute, {reps}"),
    );

    let run_s = median(&traced_s);
    let plan = median(&plan_s);
    let gather = median(&gather_s);
    let traced_reps = format!("median of {JOIN_REPS} traced joins");
    out.metric(
        "batching.plan_s",
        plan,
        "s",
        w,
        format!("estimate_and_plan host_ns, {traced_reps}"),
    );
    out.metric(
        "batching.batches",
        report.num_batches as f64,
        "count",
        c,
        "batches executed",
    );
    out.metric(
        "batching.estimate_ratio",
        report.estimate.estimated_total as f64 / report.total_pairs.max(1) as f64,
        "ratio",
        c,
        "estimated / actual pairs",
    );
    out.metric(
        "executor.run_s",
        run_s,
        "s",
        w,
        format!("join call, {traced_reps}"),
    );
    out.metric(
        "executor.gather_s",
        gather,
        "s",
        w,
        format!("gather host_ns, {traced_reps}"),
    );
    out.metric(
        "executor.unattributed_s",
        run_s - plan - gather,
        "s",
        w,
        "run - plan - gather: kernel simulation, not yet attributed by telemetry",
    );

    let distance_calcs = report.distance_calcs();
    let warp_cv = report
        .warp_stats()
        .filter(|s| s.mean > 0.0)
        .map_or(0.0, |s| s.std_dev / s.mean);
    out.metric(
        "warpsim.kernel_model_s",
        report.kernel_time_s(),
        "s",
        m,
        "sum of batch kernels",
    );
    out.metric(
        "warpsim.transfer_model_s",
        report.batches.iter().map(|b| b.transfer_s).sum(),
        "s",
        m,
        "sum of batch transfers",
    );
    out.metric(
        "warpsim.pipeline_model_s",
        report.pipeline.total_s,
        "s",
        m,
        "stream pipeline makespan",
    );
    out.metric(
        "warpsim.wee",
        report.wee(),
        "ratio",
        c,
        "warp execution efficiency",
    );
    out.metric(
        "warpsim.warp_cv",
        warp_cv,
        "ratio",
        c,
        "std/mean of warp durations",
    );
    out.metric(
        "warpsim.distance_calcs",
        distance_calcs as f64,
        "count",
        c,
        "distance lane ops",
    );
    out.metric(
        "warpsim.ns_per_distance",
        run_s * 1e9 / distance_calcs.max(1) as f64,
        "ns",
        w,
        "executor.run_s per distance calculation",
    );

    let fleet = last.fleet.as_ref();
    out.metric(
        "fleet.makespan_model_s",
        fleet.map_or(0.0, |f| f.makespan_s),
        "s",
        m,
        on_path(fleet.is_some()),
    );
    out.metric(
        "fleet.workload_imbalance",
        fleet.map_or(0.0, FleetReport::workload_imbalance),
        "ratio",
        c,
        on_path(fleet.is_some()),
    );
    out.metric(
        "fleet.jain_fairness",
        fleet.map_or(0.0, FleetReport::jain_fairness),
        "ratio",
        c,
        on_path(fleet.is_some()),
    );

    let hybrid = last.hybrid.as_ref();
    let (shadow, cpu_join) = match hybrid {
        Some(h) => {
            let (shadow, _) = timed(TRACE_REPS, || join.run());
            let resolved = ResolvedPatterns::compute(join.grid(), config.pattern);
            let (_, plan) = join.plan();
            let queries = unit_queries(&plan, h.cut..plan.num_batches());
            let (cpu, _) = timed(TRACE_REPS, || {
                let mut pairs = Vec::new();
                simjoin::cpu_join_queries(
                    join.grid(),
                    points,
                    &resolved,
                    eps,
                    &queries,
                    &mut pairs,
                );
                pairs.len()
            });
            out.attempted += 2 * TRACE_REPS as u64;
            (median(&shadow), median(&cpu))
        }
        None => (0.0, 0.0),
    };
    let note = on_path(hybrid.is_some());
    out.metric(
        "hybrid.cut_units",
        hybrid.map_or(0.0, |h| h.cut as f64),
        "count",
        c,
        note,
    );
    out.metric(
        "hybrid.cpu_units",
        hybrid.map_or(0.0, |h| h.cpu_units as f64),
        "count",
        c,
        note,
    );
    out.metric(
        "hybrid.gpu_model_s",
        hybrid.map_or(0.0, |h| h.gpu_response_s),
        "s",
        m,
        note,
    );
    out.metric(
        "hybrid.cpu_model_s",
        hybrid.map_or(0.0, |h| h.cpu_model_s),
        "s",
        m,
        note,
    );
    let note = if hybrid.is_some() {
        "run() on the same join, median"
    } else {
        on_path(false)
    };
    out.metric("hybrid.gpu_shadow_s", shadow, "s", w, note);
    let note = if hybrid.is_some() {
        "cpu_join_queries over the CPU side of the cut, median"
    } else {
        on_path(false)
    };
    out.metric("fallback.cpu_join_s", cpu_join, "s", w, note);

    for name in [
        "result.neighbor_lists_s",
        "epsgrid.insert_s",
        "epsgrid.remove_s",
        "serve.launch_s",
        "serve.parse_s",
    ] {
        out.metric(name, 0.0, "s", w, on_path(false));
    }
    for name in [
        "epsgrid.requantified_cells",
        "epsgrid.full_rebuilds",
        "serve.launches",
        "serve.coalesced_requests",
        "serve.cache_hits",
        "serve.rejected",
    ] {
        out.metric(name, 0.0, "count", c, on_path(false));
    }
    out.metric("serve.late_s", 0.0, "s", w, on_path(false));
    out.metric(
        "telemetry.overhead_s",
        median(&traced_s) - median(&untraced_s),
        "s",
        w,
        format!("traced - untraced median join, {JOIN_REPS} each, alternating"),
    );
    Ok(observations)
}

/// The note on a metric of a layer this workload does or does not use.
fn on_path(used: bool) -> &'static str {
    if used {
        ""
    } else {
        "not on this workload's path"
    }
}
