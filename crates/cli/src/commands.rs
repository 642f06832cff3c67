//! CLI subcommands.

use std::path::Path;

use epsgrid::DynPoints;
use simjoin::{AccessPattern, Balancing, ExecTarget, SelfJoin, SelfJoinConfig, SortBackend};
use sj_telemetry::{JsonTelemetry, Telemetry, Value};
use sjdata::{io as dataio, DatasetSpec};

use crate::args::Parsed;

const USAGE: &str = "\
simjoin — GPU-simulated similarity self-join

USAGE:
  simjoin datasets
      List the named datasets of the paper's Table I.
  simjoin generate --dataset <name> --n <count> --output <path>
      Generate a dataset (.csv or binary by extension).
  simjoin join --input <path> --eps <f> [--k <n>|--k auto]
               [--pattern full|unicomp|lid] [--balancing none|sort|queue]
               [--balanced-queue] [--devices <n>] [--shard-strategy workload|count]
               [--recovery reshard|degrade] [--sort-backend host|device]
               [--exec-mode gpu|cpu|hybrid] [--jobs <n>] [--cpu-fraction <f>]
               [--host-jobs <n>] [--output <pairs.csv>] [--verify]
      Run the self-join and print the execution report. --verify checks the
      result against the SUPER-EGO CPU join. With --devices N > 1 the batch
      plan is sharded across N simulated GPUs (workload-aware by default)
      and the per-device breakdown plus the fleet makespan are printed; the
      merged result and the canonical report are identical to a
      single-device run. --recovery picks what happens when a device fails
      persistently mid-join: re-shard its unexecuted work onto the
      survivors (default) or degrade that shard to the exact CPU fallback.
      --exec-mode hybrid co-executes the plan across the simulated GPU and
      host CPU workers (--jobs threads), cutting the workload-sorted unit
      list by measured per-backend cost (or at a forced --cpu-fraction) and
      differentially checking every unit both backends computed; the pair
      set and canonical report stay identical to --exec-mode gpu.
      --exec-mode cpu routes every unit through the checked CPU backend.
      --host-jobs N threads the inside of the join itself (fleet shards,
      batches, warp stepping; 0 = one per core, default from the HOST_JOBS
      env var): the pair set, report, and telemetry are bit-identical for
      any value — only wall-clock changes. Also accepted by profile, chaos,
      and soak.
  simjoin stats --input <path> --eps <f>
      Print workload statistics (mean neighbors, cells, imbalance).
  simjoin profile --input <path> --eps <f> [join flags] [--output <telemetry.json>]
      Run the self-join with the JSON telemetry sink attached, print a
      per-phase breakdown, and write the sj-telemetry/v1 document
      (default: telemetry.json). The sink is observation-only: pair sets,
      cycle counts and model seconds are identical with or without it.
  simjoin chaos --input <path> --eps <f> [join flags]
                [--fault-profile transient|device-lost|overflow|counter|stall|mixed]
                [--seed <u64>] [--devices <n>] [--shard-strategy workload|count]
                [--recovery reshard|degrade] [--exec-mode gpu|cpu|hybrid]
                [--output <telemetry.json>]
      Replay a seeded fault schedule against the join and report how the
      resilient executor recovered (retries, splits, re-sharding, CPU
      degradation). With --devices N > 1 every device gets its own seeded
      schedule and the fleet failover path is exercised. The result is
      verified against the SUPER-EGO CPU join; a typed error is also an
      acceptable outcome under injected faults.
  simjoin serve --input <path> --eps <f> [--script <path>|--listen <addr>]
                [--pattern full|unicomp|lid] [--balancing none|sort|queue]
                [--k <n>] [--exec-mode gpu|cpu|hybrid] [--host-jobs <n>]
                [--queue-capacity <n>] [--no-coalesce] [--rebuild-limit <f>]
                [--output <telemetry.json>]
      Run the always-on serve daemon over the dataset: a line-delimited
      strict-JSON request loop answering exact ε-neighborhood queries
      ({\"op\": \"query\", \"point_id\": i, \"eps\": e}), whole self-joins
      ({\"op\": \"join\", \"eps\": e}), and streaming inserts/removes
      ({\"op\": \"insert\", \"point\": [..]} / {\"op\": \"remove\",
      \"point_id\": i}), plus flush, stats and shutdown. The ε-grid is
      maintained incrementally across churn (bit-identical to a fresh
      build); queued same-ε requests are coalesced into one launch and
      admission is bounded by --queue-capacity (typed rejections, never
      unbounded buffering). --no-coalesce is the serial baseline: one
      launch per request. Requests come from --script, a single --listen
      TCP connection, or stdin; EOF implies shutdown. Latencies are model
      seconds; the sj-telemetry/v1 document (serve.request /
      serve.coalesce / serve.reindex events) lands at --output (default
      serve_telemetry.json).
  simjoin soak [--iterations <n>] [--seed <base>] [--dataset <name>]
               [--n <count>] [--eps <f>] [--recovery reshard|degrade]
               [--exec-mode gpu|hybrid] [--quick] [--output <telemetry.json>]
      Chaos soak harness: run N seeded chaos iterations cycling fault
      profile x device count x access pattern, asserting on every round
      that the fleet result is exactly the clean run's pair set and that
      the recovered makespan stays within the serial response-time bound.
      --exec-mode hybrid soaks the CPU/GPU co-executor instead: each
      iteration replays its fault schedule through the hybrid path and
      asserts the co-processed pair set is exactly the clean run's.
      --quick shrinks the dataset for CI.
";

/// Dispatches a parsed command line.
pub fn dispatch(argv: &[String]) -> Result<(), String> {
    let parsed = Parsed::parse(argv)?;
    if parsed.switch("help") || parsed.positional().is_empty() {
        println!("{USAGE}");
        return Ok(());
    }
    match parsed.positional()[0].as_str() {
        "datasets" => datasets(),
        "generate" => generate(&parsed),
        "join" => join(&parsed),
        "stats" => stats(&parsed),
        "profile" => profile(&parsed),
        "chaos" => chaos(&parsed),
        "soak" => soak(&parsed),
        "serve" => serve(&parsed),
        other => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    }
}

fn datasets() -> Result<(), String> {
    println!(
        "{:<10} {:>4} {:>12} {:>12}  epsilons",
        "name", "dims", "paper |D|", "scaled |D|"
    );
    for spec in DatasetSpec::table1() {
        println!(
            "{:<10} {:>4} {:>12} {:>12}  {:?}",
            spec.name, spec.dims, spec.paper_points, spec.default_points, spec.epsilons
        );
    }
    Ok(())
}

fn generate(parsed: &Parsed) -> Result<(), String> {
    let name = parsed.required("dataset")?;
    let spec = DatasetSpec::by_name(name)
        .ok_or_else(|| format!("unknown dataset `{name}` (see `simjoin datasets`)"))?;
    let n = parsed.parse_or("n", spec.default_points)?;
    let output = parsed.required("output")?;
    let points = spec.generate(n);
    dataio::write_path(Path::new(output), &points).map_err(|e| e.to_string())?;
    println!(
        "wrote {} points ({} dims) to {output}",
        points.len(),
        points.dims()
    );
    Ok(())
}

fn load(parsed: &Parsed) -> Result<DynPoints, String> {
    let input = parsed.required("input")?;
    dataio::read_path(Path::new(input)).map_err(|e| format!("reading {input}: {e}"))
}

/// Unified ε validation for every CLI entry point: the same typed check
/// (and the same message) the serve protocol and the library constructors
/// apply, surfaced before any dataset is loaded into a grid.
fn check_eps(eps: f32) -> Result<f32, String> {
    simjoin::validate_epsilon(eps).map_err(|e| format!("flag --eps is invalid: {e}"))
}

/// `--eps`, required and validated.
fn eps_flag(parsed: &Parsed) -> Result<f32, String> {
    check_eps(parsed.required_parse("eps")?)
}

fn pattern_flag(parsed: &Parsed) -> Result<AccessPattern, String> {
    match parsed.optional("pattern").unwrap_or("lid") {
        "full" | "gpucalcglobal" => Ok(AccessPattern::FullWindow),
        "unicomp" => Ok(AccessPattern::Unicomp),
        "lid" | "lid-unicomp" => Ok(AccessPattern::LidUnicomp),
        other => Err(format!("unknown pattern `{other}` (full|unicomp|lid)")),
    }
}

fn balancing_flag(parsed: &Parsed) -> Result<Balancing, String> {
    match parsed.optional("balancing").unwrap_or("queue") {
        "none" | "static" => Ok(Balancing::None),
        "sort" | "sortbywl" => Ok(Balancing::SortByWorkload),
        "queue" | "workqueue" => Ok(Balancing::WorkQueue),
        other => Err(format!("unknown balancing `{other}` (none|sort|queue)")),
    }
}

fn sort_backend_flag(parsed: &Parsed) -> Result<SortBackend, String> {
    match parsed.optional("sort-backend") {
        None => Ok(SortBackend::default()),
        Some(name) => SortBackend::by_name(name)
            .ok_or_else(|| format!("unknown sort backend `{name}` (host|device)")),
    }
}

fn recovery_flag(parsed: &Parsed) -> Result<simjoin::RecoveryPolicy, String> {
    match parsed.optional("recovery") {
        None => Ok(simjoin::RecoveryPolicy::default()),
        Some(name) => simjoin::RecoveryPolicy::by_name(name)
            .ok_or_else(|| format!("unknown recovery mode `{name}` (reshard|degrade)")),
    }
}

/// The join configuration the join flags describe (`--pattern`,
/// `--balancing`, `--k`, `--recovery`, `--balanced-queue`,
/// `--sort-backend`, `--host-jobs`), and whether `--k auto` asked for the
/// recommended `k`.
fn join_config(parsed: &Parsed, eps: f32) -> Result<(SelfJoinConfig, bool), String> {
    let (auto_k, k) = match parsed.optional("k") {
        Some("auto") => (true, 1u32),
        Some(v) => (
            false,
            v.parse().map_err(|_| "flag --k has an invalid value")?,
        ),
        None => (false, 1),
    };
    let mut config = SelfJoinConfig::new(eps)
        .with_pattern(pattern_flag(parsed)?)
        .with_balancing(balancing_flag(parsed)?)
        .with_k(k)
        .with_recovery(recovery_flag(parsed)?);
    config.batching.balanced_queue = parsed.switch("balanced-queue");
    config.sort_backend = sort_backend_flag(parsed)?;
    host_jobs_flag(parsed, &mut config)?;
    Ok((config, auto_k))
}

/// `--host-jobs <n>`: worker threads inside each join (fleet shards,
/// batches, warps); `0` = one per core. When absent the config keeps its
/// default (the `HOST_JOBS` env var, else auto). Results are bit-identical
/// for any value — the knob changes wall-clock only.
fn host_jobs_flag(parsed: &Parsed, config: &mut SelfJoinConfig) -> Result<(), String> {
    if let Some(v) = parsed.optional("host-jobs") {
        config.host_jobs = v
            .parse()
            .map_err(|_| "flag --host-jobs has an invalid value")?;
    }
    Ok(())
}

fn exec_mode_flag(parsed: &Parsed) -> Result<simjoin::ExecMode, String> {
    match parsed.optional("exec-mode") {
        None => Ok(simjoin::ExecMode::default()),
        Some(name) => simjoin::ExecMode::by_name(name)
            .ok_or_else(|| format!("unknown exec mode `{name}` (gpu|cpu|hybrid)")),
    }
}

/// `--devices`, `--shard-strategy` and `--exec-mode`: where the join runs.
fn placement_flags(
    parsed: &Parsed,
) -> Result<(usize, simjoin::ShardStrategy, simjoin::ExecMode), String> {
    let devices: usize = parsed.parse_or("devices", 1)?;
    if devices == 0 {
        return Err("--devices must be at least 1".into());
    }
    let strategy_name = parsed.optional("shard-strategy").unwrap_or("workload");
    let strategy = simjoin::ShardStrategy::by_name(strategy_name)
        .ok_or_else(|| format!("unknown shard strategy `{strategy_name}` (workload|count)"))?;
    let exec_mode = exec_mode_flag(parsed)?;
    if exec_mode != simjoin::ExecMode::Gpu && devices > 1 {
        return Err("--exec-mode cpu|hybrid co-executes against the host; use --devices 1".into());
    }
    Ok((devices, strategy, exec_mode))
}

/// The single-device target `--exec-mode` selects; a hybrid target takes
/// its CPU pool size from `--jobs` and an optional forced split from
/// `--cpu-fraction`.
fn exec_target(parsed: &Parsed, mode: simjoin::ExecMode) -> Result<ExecTarget<'static>, String> {
    let ExecTarget::Hybrid(policy) = ExecTarget::for_mode(mode) else {
        return Ok(ExecTarget::Device);
    };
    let jobs: usize = parsed.parse_or("jobs", 1)?;
    if jobs == 0 {
        return Err("--jobs must be at least 1".into());
    }
    let mut policy = policy.with_jobs(jobs);
    if let Some(f) = parsed.optional("cpu-fraction") {
        if mode == simjoin::ExecMode::Cpu {
            return Err("--cpu-fraction conflicts with --exec-mode cpu (always 1.0)".into());
        }
        let f: f64 = f
            .parse()
            .map_err(|_| "flag --cpu-fraction has an invalid value")?;
        if !(0.0..=1.0).contains(&f) {
            return Err("--cpu-fraction must be within [0, 1]".into());
        }
        policy = policy.with_forced_cpu_fraction(f);
    }
    Ok(ExecTarget::Hybrid(policy))
}

/// The hybrid accounting line(s) shared by `join` and `chaos` output.
fn print_hybrid(h: &simjoin::HybridReport) {
    println!(
        "hybrid cut            : unit {} of {} ({} chosen) — {} gpu / {} cpu / {} spilled unit(s)",
        h.cut,
        h.units,
        if h.forced { "forced" } else { "measured" },
        h.gpu_units,
        h.cpu_units,
        h.spilled_units
    );
    println!(
        "hybrid gpu side       : {:.6} model s ({} unit(s))",
        h.gpu_response_s, h.gpu_units
    );
    println!(
        "hybrid cpu side       : {:.6} model s ({} unit(s), {} jobs, {} distance calcs)",
        h.cpu_model_s, h.cpu_units, h.jobs, h.cpu_stats.distance_calcs
    );
    println!("hybrid makespan       : {:.6} model s", h.makespan_s);
}

/// The fleet recovery accounting line(s) shared by `join`, `chaos` and
/// `soak` output.
fn print_recovery(rec: &simjoin::FleetRecoveryReport) {
    if !rec.intervened() {
        println!("fleet recovery        : none (no intervention)");
        return;
    }
    println!(
        "fleet recovery        : {} reshard round(s), {} unit(s) reassigned, \
         {} device(s) lost, {} straggler rebalance(s)",
        rec.reshard_rounds, rec.reassigned_units, rec.devices_lost, rec.straggler_rebalances
    );
    if rec.cpu_last_resort_points > 0 {
        println!(
            "cpu last resort       : {} point(s), {} pair(s), {:.6} model s",
            rec.cpu_last_resort_points, rec.cpu_last_resort_pairs, rec.cpu_last_resort_model_s
        );
    }
    for h in &rec.health {
        println!(
            "  round {}: device {} -> {} ({} unit(s))",
            h.round,
            h.device,
            h.state.label(),
            h.units
        );
    }
}

fn with_fixed<R>(
    points: &DynPoints,
    mut f: impl FnMut(&dyn JoinRunner) -> Result<R, String>,
) -> Result<R, String> {
    macro_rules! dims {
        ($($n:literal),*) => {
            match points.dims() {
                $($n => {
                    let pts = points.as_fixed::<$n>().expect("dims checked");
                    f(&FixedRunner::<$n> { points: pts })
                })*
                d => Err(format!("unsupported dimensionality {d} (2–6)")),
            }
        };
    }
    dims!(2, 3, 4, 5, 6)
}

/// What a join run hands back to the CLI: the sorted pairs, the execution's
/// canonical report plus its fleet or hybrid accounting, and the `k` that
/// was actually used (relevant under `--k auto`).
struct RunOutput {
    pairs: Vec<(u32, u32)>,
    exec: simjoin::Execution,
    k: u32,
}

/// `Err` when the join cannot be set up; `Ok(Err)` carries the typed error
/// of a run that failed — an acceptable outcome under injected faults,
/// where only a wrong pair set is not.
type RunResult = Result<Result<RunOutput, String>, String>;

/// Dimension-erased access to the join for the CLI.
trait JoinRunner {
    /// Runs the join on `target`, with `fault` attached to the join's own
    /// device (fleet devices carry their own schedules).
    fn run(
        &self,
        config: SelfJoinConfig,
        auto_k: bool,
        target: &ExecTarget<'_>,
        fault: Option<&warpsim::FaultPlane>,
        telemetry: &dyn Telemetry,
    ) -> RunResult;
    fn superego_pairs(&self, eps: f32) -> Vec<(u32, u32)>;
    fn stats(&self, eps: f32) -> Result<(f64, usize, f64), String>;
    /// Runs the serve request loop: feed the lines of `input` through a
    /// [`simjoin::ServeSession`], writing each response line to `out`.
    /// EOF without an explicit shutdown injects one, so the queue always
    /// drains and every admitted request is answered.
    fn serve(
        &self,
        config: SelfJoinConfig,
        serve_cfg: simjoin::ServeConfig,
        input: &mut dyn std::io::BufRead,
        out: &mut dyn std::io::Write,
        telemetry: &dyn Telemetry,
    ) -> Result<simjoin::ServeReport, String>;
}

struct FixedRunner<const N: usize> {
    points: Vec<[f32; N]>,
}

impl<const N: usize> JoinRunner for FixedRunner<N> {
    fn run(
        &self,
        mut config: SelfJoinConfig,
        auto_k: bool,
        target: &ExecTarget<'_>,
        fault: Option<&warpsim::FaultPlane>,
        telemetry: &dyn Telemetry,
    ) -> RunResult {
        if auto_k {
            let probe = SelfJoin::new(&self.points, config.clone()).map_err(|e| e.to_string())?;
            config.k = probe.recommended_k();
        }
        let k = config.k;
        let mut join = SelfJoin::new(&self.points, config)
            .map_err(|e| e.to_string())?
            .with_telemetry(telemetry);
        if let Some(plane) = fault {
            join = join.with_fault_plane(plane);
        }
        Ok(match join.execute(target) {
            Ok(mut exec) => Ok(RunOutput {
                pairs: std::mem::take(&mut exec.result).sorted_pairs(),
                exec,
                k,
            }),
            Err(e) => Err(e.to_string()),
        })
    }

    fn superego_pairs(&self, eps: f32) -> Vec<(u32, u32)> {
        let mut pairs =
            superego::super_ego_join(&self.points, &superego::SuperEgoConfig::new(eps)).pairs;
        pairs.sort_unstable();
        pairs
    }

    fn stats(&self, eps: f32) -> Result<(f64, usize, f64), String> {
        let join =
            SelfJoin::new(&self.points, SelfJoinConfig::new(eps)).map_err(|e| e.to_string())?;
        let profile = join.workload();
        let per_point = profile.per_point();
        let mean = per_point.iter().sum::<u64>() as f64 / per_point.len() as f64;
        let var = per_point
            .iter()
            .map(|&w| {
                let d = w as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / per_point.len() as f64;
        let cv = if mean > 0.0 { var.sqrt() / mean } else { 0.0 };
        Ok((join.mean_candidates(), join.grid().num_cells(), cv))
    }

    fn serve(
        &self,
        config: SelfJoinConfig,
        serve_cfg: simjoin::ServeConfig,
        input: &mut dyn std::io::BufRead,
        out: &mut dyn std::io::Write,
        telemetry: &dyn Telemetry,
    ) -> Result<simjoin::ServeReport, String> {
        let mut session = simjoin::ServeSession::new(self.points.clone(), config, serve_cfg)
            .map_err(|e| e.to_string())?
            .with_telemetry(telemetry);
        let emit = |lines: Vec<String>, out: &mut dyn std::io::Write| -> Result<(), String> {
            for line in lines {
                writeln!(out, "{line}").map_err(|e| e.to_string())?;
            }
            out.flush().map_err(|e| e.to_string())
        };
        for line in simjoin::RequestLines::new(input) {
            let replies = match line.map_err(|e| format!("reading requests: {e}"))? {
                Ok(line) => session.handle_line(&line),
                Err(msg) => session.reject_line(msg),
            };
            emit(replies, out)?;
            if session.is_shut_down() {
                break;
            }
        }
        if !session.is_shut_down() {
            emit(session.handle_line("{\"op\": \"shutdown\"}"), out)?;
        }
        Ok(session.report())
    }
}

fn join(parsed: &Parsed) -> Result<(), String> {
    let eps = eps_flag(parsed)?;
    let points = load(parsed)?;
    let (config, auto_k) = join_config(parsed, eps)?;
    let (devices, strategy, exec_mode) = placement_flags(parsed)?;
    let fleet = warpsim::DeviceFleet::homogeneous(devices, config.gpu);
    let target = if devices > 1 {
        ExecTarget::Fleet {
            fleet: &fleet,
            strategy,
        }
    } else {
        exec_target(parsed, exec_mode)?
    };

    let RunOutput {
        pairs,
        exec,
        k: used_k,
    } = with_fixed(&points, |runner| {
        let out = runner.run(config.clone(), auto_k, &target, None, &sj_telemetry::NULL)??;
        if parsed.switch("verify") {
            let reference = runner.superego_pairs(eps);
            if out.pairs != reference {
                return Err(format!(
                    "verification FAILED: GPU join found {} pairs, SUPER-EGO found {}",
                    out.pairs.len(),
                    reference.len()
                ));
            }
            println!(
                "verification: SUPER-EGO agrees on all {} pairs",
                out.pairs.len()
            );
        }
        Ok(out)
    })?;
    let report = &exec.report;

    println!(
        "variant               : {} (k = {used_k})",
        config.with_k(used_k).label()
    );
    println!("exec mode             : {}", exec_mode.label());
    println!("pairs found           : {}", pairs.len());
    println!("batches               : {}", report.num_batches);
    println!("distance calculations : {}", report.distance_calcs());
    println!("warp exec efficiency  : {:.1} %", report.wee() * 100.0);
    println!("response time (model) : {:.6} s", report.response_time_s());
    if let Some(pp) = &report.prepass {
        println!(
            "device pre-pass       : {:.6} s (sort {:.6} s / {} launches, scan {:.6} s / {} launches){}",
            pp.model_s(),
            pp.sort_model_s,
            pp.sort_launches,
            pp.scan_model_s,
            pp.scan_launches,
            if pp.degraded_to_host {
                " [degraded to host]"
            } else {
                ""
            }
        );
    }
    if let Some(fleet) = &exec.fleet {
        println!(
            "devices               : {} ({} partitioning)",
            fleet.shards.len(),
            fleet.strategy.label()
        );
        for s in &fleet.shards {
            println!(
                "  device {}: units {:>4}..{:<4} queries {:>7} workload {:>10} \
                 batches {:>3} pairs {:>8} response {:.6} s{}{}",
                s.device,
                s.units.start,
                s.units.end,
                s.queries,
                s.workload,
                s.batches,
                s.pairs,
                s.response_time_s,
                match &s.degradation {
                    Some(d) if d.device_lost => " [device lost]",
                    Some(_) => " [degraded]",
                    None => "",
                },
                if s.reassigned_in > 0 || s.reassigned_out > 0 {
                    format!(" [+{} / -{} unit(s)]", s.reassigned_in, s.reassigned_out)
                } else {
                    String::new()
                }
            );
        }
        println!("fleet makespan (model): {:.6} s", fleet.makespan_s);
        println!(
            "jain fairness         : {:.3} (per-shard response times)",
            fleet.jain_fairness()
        );
        print_recovery(&fleet.recovery);
        if fleet.makespan_s > 0.0 {
            println!(
                "speedup vs 1 device   : {:.2}x",
                report.response_time_s() / fleet.makespan_s
            );
        }
    }
    if let Some(h) = &exec.hybrid {
        print_hybrid(h);
        if h.makespan_s > 0.0 {
            println!(
                "speedup vs gpu only   : {:.2}x",
                report.response_time_s() / h.makespan_s
            );
        }
    }

    if let Some(output) = parsed.optional("output") {
        use std::io::Write;
        let f = std::fs::File::create(output).map_err(|e| e.to_string())?;
        let mut w = std::io::BufWriter::new(f);
        for (a, b) in &pairs {
            writeln!(w, "{a},{b}").map_err(|e| e.to_string())?;
        }
        println!("wrote {} pairs to {output}", pairs.len());
    }
    Ok(())
}

fn profile(parsed: &Parsed) -> Result<(), String> {
    let eps = eps_flag(parsed)?;
    let points = load(parsed)?;
    let (config, auto_k) = join_config(parsed, eps)?;

    let sink = JsonTelemetry::new(format!(
        "simjoin profile eps={eps} pattern={:?} balancing={:?}",
        config.pattern, config.balancing
    ));
    let RunOutput {
        pairs,
        exec,
        k: used_k,
    } = with_fixed(&points, |runner| {
        runner.run(config.clone(), auto_k, &ExecTarget::Device, None, &sink)?
    })?;
    let report = &exec.report;

    println!(
        "variant               : {} (k = {used_k})",
        config.clone().with_k(used_k).label()
    );
    println!("pairs found           : {}", pairs.len());
    println!("batches               : {}", report.num_batches);
    println!("warp exec efficiency  : {:.1} %", report.wee() * 100.0);
    println!("response time (model) : {:.6} s", report.response_time_s());

    let events = sink.events();
    println!("\nhost-side phases:");
    for event in &events {
        if event.scope == "executor.phase" {
            match (event.field("host_ns"), event.field("model_s")) {
                (Some(Value::U64(n)), _) => {
                    println!("  {:<20} {:>10.3} ms", event.name, *n as f64 / 1e6);
                }
                // Device pre-pass phases (sort/scan) are model-time only.
                (None, Some(Value::F64(s))) => {
                    println!("  {:<20} {:>10.6} model s", event.name, s);
                }
                _ => println!("  {:<20} {:>10.3} ms", event.name, 0.0),
            }
        }
    }
    let mut counts: Vec<(String, usize)> = Vec::new();
    for event in &events {
        let key = format!("{}/{}", event.scope, event.name);
        match counts.iter_mut().find(|(k, _)| *k == key) {
            Some((_, c)) => *c += 1,
            None => counts.push((key, 1)),
        }
    }
    println!("\nevents recorded:");
    for (key, count) in &counts {
        println!("  {key:<32} x{count}");
    }

    let output = parsed.optional("output").unwrap_or("telemetry.json");
    sink.write_to_file(Path::new(output))
        .map_err(|e| e.to_string())?;
    println!(
        "\nwrote {} events ({}) to {output}",
        sink.len(),
        sj_telemetry::SCHEMA_VERSION
    );
    Ok(())
}

fn chaos(parsed: &Parsed) -> Result<(), String> {
    let eps = eps_flag(parsed)?;
    let points = load(parsed)?;
    let (config, auto_k) = join_config(parsed, eps)?;
    if auto_k {
        return Err("flag --k has an invalid value".into());
    }
    let profile_name = parsed.optional("fault-profile").unwrap_or("mixed");
    let profile = warpsim::FaultProfile::by_name(profile_name).ok_or_else(|| {
        format!(
            "unknown fault profile `{profile_name}` (one of: {})",
            warpsim::FaultProfile::names().join("|")
        )
    })?;
    let seed: u64 = parsed.parse_or("seed", 0)?;
    let (devices, strategy, exec_mode) = placement_flags(parsed)?;

    let sink = JsonTelemetry::new(format!(
        "simjoin chaos profile={profile_name} seed={seed} eps={eps} devices={devices}"
    ));
    // Every fleet device draws its own schedule from the same profile, with
    // a seed offset per device so the fault timings decorrelate.
    let mut fleet = warpsim::DeviceFleet::homogeneous(devices, config.gpu);
    let (target, plane) = if devices > 1 {
        for d in 0..devices {
            let schedule = warpsim::FaultSchedule::seeded(seed + d as u64, &profile);
            fleet = fleet.with_fault_schedule(d, schedule);
        }
        let target = ExecTarget::Fleet {
            fleet: &fleet,
            strategy,
        };
        (target, None)
    } else {
        let plane = warpsim::FaultPlane::seeded(seed, &profile);
        println!("injected faults       : {}", plane.injected_faults());
        (exec_target(parsed, exec_mode)?, Some(plane))
    };
    let outcome = with_fixed(&points, |runner| {
        runner.run(config.clone(), false, &target, plane.as_ref(), &sink)
    })?;

    println!("variant               : {}", config.label());
    println!("exec mode             : {}", exec_mode.label());
    println!("fault profile         : {profile_name} (seed {seed})");
    if devices > 1 {
        println!(
            "devices               : {devices} ({} partitioning, {} recovery)",
            strategy.label(),
            config.recovery.label()
        );
    }
    match &outcome {
        Err(error) => {
            println!("outcome               : typed error — {error}");
            println!("(a typed error is an acceptable chaos outcome; a wrong result is not)");
        }
        Ok(RunOutput { pairs, exec, .. }) => {
            let reference = with_fixed(&points, |runner| Ok(runner.superego_pairs(eps)))?;
            if *pairs != reference {
                return Err(format!(
                    "chaos verification FAILED: join found {} pairs, SUPER-EGO found {}",
                    pairs.len(),
                    reference.len()
                ));
            }
            println!(
                "outcome               : completed, exact ({} pairs verified)",
                pairs.len()
            );
            let report = &exec.report;
            println!("response time (model) : {:.6} s", report.response_time_s());
            match &report.degradation {
                None => println!("recovery              : none (clean run)"),
                Some(d) => {
                    println!("batches salvaged      : {}", d.batches_salvaged);
                    println!("points degraded to CPU: {}", d.points_degraded);
                    println!("cpu fallback pairs    : {}", d.cpu_pairs);
                    println!("cpu fallback (model)  : {:.6} s", d.cpu_model_s);
                    println!(
                        "retries               : {} transient, {} overflow splits, {} counter",
                        d.transient_retries, d.overflow_splits, d.counter_retries
                    );
                    println!("transfer stalls       : {}", d.transfer_stalls);
                    println!("backoff (model)       : {:.6} s", d.backoff_s);
                    println!("device lost           : {}", d.device_lost);
                }
            }
            if let Some(fleet) = &exec.fleet {
                println!("fleet makespan (model): {:.6} s", fleet.makespan_s);
                print_recovery(&fleet.recovery);
            }
            if let Some(h) = &exec.hybrid {
                print_hybrid(h);
            }
        }
    }

    let fault_events = sink
        .events()
        .iter()
        .filter(|e| {
            e.name == "fault_injected"
                || e.name == "fault_retry"
                || e.name == "overflow_recovery"
                || e.name == "degradation"
                || e.scope == "warpsim.fault"
        })
        .count();
    println!("fault/recovery events : {fault_events}");
    if let Some(output) = parsed.optional("output") {
        sink.write_to_file(Path::new(output))
            .map_err(|e| e.to_string())?;
        println!(
            "wrote {} events ({}) to {output}",
            sink.len(),
            sj_telemetry::SCHEMA_VERSION
        );
    }
    Ok(())
}

/// One soak iteration's observable outcome, lifted out of the
/// dimension-erased runner closure.
struct SoakRound {
    /// Typed error string when the faulted run failed (acceptable under
    /// injected faults); `None` means it completed and was verified exact.
    error: Option<String>,
    pairs: usize,
    makespan_s: f64,
    clean_makespan_s: f64,
    intervened: bool,
}

fn soak(parsed: &Parsed) -> Result<(), String> {
    let iterations: u64 = parsed.parse_or("iterations", 12)?;
    if iterations == 0 {
        return Err("--iterations must be at least 1".into());
    }
    let seed_base: u64 = parsed.parse_or("seed", 0)?;
    let dataset = parsed.optional("dataset").unwrap_or("Expo2D2M");
    let spec = DatasetSpec::by_name(dataset)
        .ok_or_else(|| format!("unknown dataset `{dataset}` (see `simjoin datasets`)"))?;
    let n: usize = parsed.parse_or("n", if parsed.switch("quick") { 400 } else { 800 })?;
    // Tuned for the default dataset at soak scale; override per dataset.
    let eps = check_eps(parsed.parse_or("eps", 0.5)?)?;
    let recovery = recovery_flag(parsed)?;
    let exec_mode = exec_mode_flag(parsed)?;
    if exec_mode == simjoin::ExecMode::Cpu {
        return Err("soak --exec-mode supports gpu|hybrid (cpu has no device to fault)".into());
    }
    let hybrid_soak = exec_mode == simjoin::ExecMode::Hybrid;
    let target = exec_target(parsed, exec_mode)?;
    let points = spec.generate(n);

    // Probe the clean pair count once, then tighten the batch capacity so
    // the plan holds enough units that seeded fault schedules actually land
    // inside each device's launch window — a soak over one-launch plans
    // would exercise nothing.
    let probe_config = SelfJoinConfig::new(eps);
    let probe_fleet = warpsim::DeviceFleet::homogeneous(1, probe_config.gpu);
    let probe = ExecTarget::Fleet {
        fleet: &probe_fleet,
        strategy: simjoin::ShardStrategy::WorkloadAware,
    };
    let probe_pairs = with_fixed(&points, |runner| {
        match runner.run(
            probe_config.clone(),
            false,
            &probe,
            None,
            &sj_telemetry::NULL,
        )? {
            Ok(out) => Ok(out.pairs.len()),
            Err(error) => Err(format!("soak probe failed: {error}")),
        }
    })?;
    let batching = simjoin::BatchingConfig {
        batch_result_capacity: probe_pairs / 16 + 8,
        max_batches: 64,
        ..simjoin::BatchingConfig::default()
    };

    let sink = JsonTelemetry::new(format!(
        "simjoin soak dataset={dataset} n={n} eps={eps} seed-base={seed_base} \
         iterations={iterations} recovery={}",
        recovery.label()
    ));
    let profiles = warpsim::FaultProfile::names();
    let patterns = [
        AccessPattern::LidUnicomp,
        AccessPattern::Unicomp,
        AccessPattern::FullWindow,
    ];

    println!(
        "soak: {iterations} iteration(s) on {dataset} n={n} eps={eps} ({} recovery, {} exec)",
        recovery.label(),
        exec_mode.label()
    );
    let mut typed_errors = 0u64;
    let mut interventions = 0u64;
    let mut worst_inflation = 1.0f64;
    for i in 0..iterations {
        let seed = seed_base + i;
        let profile_name = profiles[i as usize % profiles.len()];
        let profile = warpsim::FaultProfile::by_name(profile_name).expect("known profile");
        let devices = if hybrid_soak { 1 } else { 1 + i as usize % 4 };
        let pattern = patterns[i as usize % patterns.len()];
        let mut config = SelfJoinConfig::new(eps)
            .with_pattern(pattern)
            .with_batching(batching)
            .with_recovery(recovery);
        host_jobs_flag(parsed, &mut config)?;

        // A hybrid soak replays the schedule on the co-executor's device; a
        // fleet soak on one device of a fresh fleet, against a clean fleet
        // of the same size.
        let (clean_fleet, faulted_fleet);
        let (clean, faulted, plane) = if hybrid_soak {
            let plane = warpsim::FaultPlane::seeded(seed, &profile);
            (target, target, Some(plane))
        } else {
            let strategy = simjoin::ShardStrategy::WorkloadAware;
            let schedule = warpsim::FaultSchedule::seeded(seed, &profile);
            clean_fleet = warpsim::DeviceFleet::homogeneous(devices, config.gpu);
            faulted_fleet = warpsim::DeviceFleet::homogeneous(devices, config.gpu)
                .with_fault_schedule(i as usize % devices, schedule);
            let clean = ExecTarget::Fleet {
                fleet: &clean_fleet,
                strategy,
            };
            let faulted = ExecTarget::Fleet {
                fleet: &faulted_fleet,
                strategy,
            };
            (clean, faulted, None)
        };
        let round = with_fixed(&points, |runner| {
            // The invariant: any fault schedule yields exactly the clean
            // run's pair set.
            let clean =
                match runner.run(config.clone(), false, &clean, None, &sj_telemetry::NULL)? {
                    Ok(out) => out,
                    Err(error) => return Err(format!("clean run failed: {error}")),
                };
            let clean_makespan_s = clean.exec.model_s();
            let out = match runner.run(config.clone(), false, &faulted, plane.as_ref(), &sink)? {
                Ok(out) => out,
                Err(error) => {
                    return Ok(SoakRound {
                        error: Some(error),
                        pairs: 0,
                        makespan_s: 0.0,
                        clean_makespan_s,
                        intervened: false,
                    })
                }
            };
            if out.pairs != clean.pairs {
                return Err(format!(
                    "exact-result invariant VIOLATED: faulted run found {} pairs, \
                     clean run found {}",
                    out.pairs.len(),
                    clean.pairs.len()
                ));
            }
            let intervened = match (&out.exec.fleet, &out.exec.hybrid) {
                (Some(fleet), _) => {
                    // Structural bound: the parallel makespan can never
                    // exceed the serialized response time of the same
                    // recovered run (plus the host last-resort tail).
                    let serial_bound =
                        out.exec.report.response_time_s() + fleet.recovery.cpu_last_resort_model_s;
                    if fleet.makespan_s > serial_bound * 1.05 + 1e-12 {
                        return Err(format!(
                            "makespan bound VIOLATED: {:.6e} model s exceeds the serial \
                             response bound {serial_bound:.6e}",
                            fleet.makespan_s
                        ));
                    }
                    fleet.recovery.intervened()
                }
                (None, hybrid) => hybrid.as_ref().is_some_and(|h| h.spilled_units > 0),
            };
            Ok(SoakRound {
                error: None,
                pairs: out.pairs.len(),
                makespan_s: out.exec.model_s(),
                clean_makespan_s,
                intervened,
            })
        })
        .map_err(|e| {
            format!(
                "soak iteration {i} (profile={profile_name} devices={devices} seed={seed}): {e}"
            )
        })?;

        let inflation = if round.error.is_none() && round.clean_makespan_s > 0.0 {
            round.makespan_s / round.clean_makespan_s
        } else {
            1.0
        };
        worst_inflation = worst_inflation.max(inflation);
        interventions += u64::from(round.intervened);
        let mut event = sj_telemetry::Event::new("soak", "iteration")
            .u64("iteration", i)
            .str("profile", profile_name)
            .u64("devices", devices as u64)
            .str("pattern", format!("{pattern:?}"))
            .u64("seed", seed)
            .bool("intervened", round.intervened);
        match &round.error {
            Some(e) => {
                typed_errors += 1;
                event = event.bool("typed_error", true).str("error", e.clone());
                println!(
                    "  [{i:>3}] {profile_name:<11} devices={devices} {pattern:?}: \
                     typed error — {e}"
                );
            }
            None => {
                event = event
                    .bool("typed_error", false)
                    .u64("pairs", round.pairs as u64)
                    .f64("makespan_model_s", round.makespan_s)
                    .f64("clean_makespan_model_s", round.clean_makespan_s)
                    .f64("inflation", inflation);
                println!(
                    "  [{i:>3}] {profile_name:<11} devices={devices} {pattern:?}: exact \
                     ({} pairs), makespan {:.6} s ({inflation:.2}x clean){}",
                    round.pairs,
                    round.makespan_s,
                    if round.intervened { " [recovered]" } else { "" }
                );
            }
        }
        sink.record(event);
    }

    println!(
        "soak summary          : {iterations} iteration(s), {typed_errors} typed error(s), \
         {interventions} recovery intervention(s), worst makespan inflation {worst_inflation:.2}x"
    );
    println!("exact-result invariant: held on every completed iteration");
    if let Some(output) = parsed.optional("output") {
        sink.write_to_file(Path::new(output))
            .map_err(|e| e.to_string())?;
        println!(
            "wrote {} events ({}) to {output}",
            sink.len(),
            sj_telemetry::SCHEMA_VERSION
        );
    }
    Ok(())
}

fn serve(parsed: &Parsed) -> Result<(), String> {
    let eps = eps_flag(parsed)?;
    let points = load(parsed)?;
    let pattern = pattern_flag(parsed)?;
    let balancing = balancing_flag(parsed)?;
    let k: u32 = parsed.parse_or("k", 1)?;
    let exec_mode = exec_mode_flag(parsed)?;
    let mut config = SelfJoinConfig::new(eps)
        .with_pattern(pattern)
        .with_balancing(balancing)
        .with_k(k);
    host_jobs_flag(parsed, &mut config)?;
    let queue_capacity: usize =
        parsed.parse_or("queue-capacity", simjoin::serve::DEFAULT_QUEUE_CAPACITY)?;
    if queue_capacity == 0 {
        return Err("--queue-capacity must be at least 1".into());
    }
    let rebuild_limit: f64 =
        parsed.parse_or("rebuild-limit", epsgrid::dynamic::DEFAULT_REBUILD_LIMIT)?;
    if rebuild_limit.is_nan() || rebuild_limit < 0.0 {
        return Err("--rebuild-limit must be non-negative".into());
    }
    let serve_cfg = simjoin::ServeConfig {
        queue_capacity,
        coalesce: !parsed.switch("no-coalesce"),
        rebuild_limit,
        exec_mode,
    };
    if parsed.optional("script").is_some() && parsed.optional("listen").is_some() {
        return Err("--script conflicts with --listen (pick one request source)".into());
    }

    let sink = JsonTelemetry::new(format!(
        "simjoin serve eps={eps} pattern={pattern:?} balancing={balancing:?} \
         exec={} queue-capacity={queue_capacity} coalesce={}",
        exec_mode.label(),
        serve_cfg.coalesce
    ));
    let (mut input, mut out): (Box<dyn std::io::BufRead>, Box<dyn std::io::Write>) =
        if let Some(addr) = parsed.optional("listen") {
            // One connection at a time: the session is a state machine over
            // one dataset, so interleaving clients would interleave their
            // epochs.
            let listener =
                std::net::TcpListener::bind(addr).map_err(|e| format!("binding {addr}: {e}"))?;
            eprintln!("serve: listening on {addr} (one connection, EOF = shutdown)");
            let (stream, peer) = listener.accept().map_err(|e| e.to_string())?;
            eprintln!("serve: client {peer} connected");
            let reader = std::io::BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
            let writer = std::io::BufWriter::new(stream);
            (Box::new(reader), Box::new(writer))
        } else if let Some(path) = parsed.optional("script") {
            let script = std::fs::File::open(path).map_err(|e| format!("reading {path}: {e}"))?;
            (
                Box::new(std::io::BufReader::new(script)),
                Box::new(std::io::stdout()),
            )
        } else {
            (
                Box::new(std::io::stdin().lock()),
                Box::new(std::io::stdout()),
            )
        };
    let report = with_fixed(&points, |runner| {
        runner.serve(config.clone(), serve_cfg, &mut input, &mut out, &sink)
    })?;

    eprintln!(
        "serve summary         : {} request(s) — {} query(ies), {} join(s), \
         {} insert(s), {} remove(s)",
        report.requests, report.queries, report.joins, report.inserts, report.removes
    );
    eprintln!(
        "admission             : {} rejected (queue full), {} error(s)",
        report.rejected, report.errors
    );
    eprintln!(
        "launches              : {} ({} coalesced request(s), {} cache hit(s)), \
         {:.6} model s total",
        report.launches, report.coalesced_requests, report.cache_hits, report.execute_model_s
    );
    eprintln!(
        "reindexing            : {} incremental, {} rebuild(s), {} cell(s) requantified",
        report.incremental_reindexes, report.full_rebuilds, report.requantified_cells
    );
    eprintln!(
        "latency (model)       : total p50 {:.6} s / p99 {:.6} s, queue p50 {:.6} s, \
         execute p50 {:.6} s",
        report.total_p50_s, report.total_p99_s, report.queue_p50_s, report.execute_p50_s
    );
    let output = parsed.optional("output").unwrap_or("serve_telemetry.json");
    sink.write_to_file(Path::new(output))
        .map_err(|e| e.to_string())?;
    eprintln!(
        "wrote {} events ({}) to {output}",
        sink.len(),
        sj_telemetry::SCHEMA_VERSION
    );
    Ok(())
}

fn stats(parsed: &Parsed) -> Result<(), String> {
    let eps = eps_flag(parsed)?;
    let points = load(parsed)?;
    let (mean_candidates, cells, cv) = with_fixed(&points, |runner| runner.stats(eps))?;
    println!("points               : {}", points.len());
    println!("dims                 : {}", points.dims());
    println!("non-empty cells      : {cells}");
    println!("mean candidates/query: {mean_candidates:.1}");
    println!("workload CV          : {cv:.3} (σ/μ of per-point candidate counts)");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn unknown_command_errors() {
        assert!(dispatch(&argv(&["frobnicate"])).is_err());
    }

    #[test]
    fn help_is_ok() {
        assert!(dispatch(&argv(&["--help"])).is_ok());
        assert!(dispatch(&argv(&[])).is_ok());
    }

    #[test]
    fn datasets_lists() {
        assert!(dispatch(&argv(&["datasets"])).is_ok());
    }

    #[test]
    fn generate_join_stats_roundtrip() {
        let dir = std::env::temp_dir().join(format!("simjoin-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("pts.csv");
        let pairs = dir.join("pairs.csv");
        let data_s = data.to_str().unwrap().to_string();
        let pairs_s = pairs.to_str().unwrap().to_string();

        dispatch(&argv(&[
            "generate",
            "--dataset",
            "Expo2D2M",
            "--n",
            "600",
            "--output",
            &data_s,
        ]))
        .unwrap();
        dispatch(&argv(&[
            "join", "--input", &data_s, "--eps", "0.5", "--k", "auto", "--verify", "--output",
            &pairs_s,
        ]))
        .unwrap();
        dispatch(&argv(&["stats", "--input", &data_s, "--eps", "0.5"])).unwrap();

        let written = std::fs::read_to_string(&pairs).unwrap();
        assert!(written.lines().count() > 0);
        assert!(written.lines().all(|l| l.split(',').count() == 2));

        let telemetry = dir.join("telemetry.json");
        let telemetry_s = telemetry.to_str().unwrap().to_string();
        dispatch(&argv(&[
            "profile",
            "--input",
            &data_s,
            "--eps",
            "0.5",
            "--output",
            &telemetry_s,
        ]))
        .unwrap();
        let doc = std::fs::read_to_string(&telemetry).unwrap();
        assert!(doc.contains(sj_telemetry::SCHEMA_VERSION));
        assert!(doc.contains("\"scope\": \"warpsim.launch\""));
        assert!(doc.contains("\"scope\": \"executor.phase\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chaos_accepts_any_seed_and_verifies_or_reports_typed_errors() {
        let dir = std::env::temp_dir().join(format!("simjoin-chaos-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("pts.csv");
        let data_s = data.to_str().unwrap().to_string();
        dispatch(&argv(&[
            "generate",
            "--dataset",
            "Expo2D2M",
            "--n",
            "400",
            "--output",
            &data_s,
        ]))
        .unwrap();
        // Any outcome must be exact-or-typed-error: dispatch() only fails on
        // a wrong pair set (or bad flags).
        for profile in warpsim::FaultProfile::names() {
            for seed in ["0", "1", "2"] {
                dispatch(&argv(&[
                    "chaos",
                    "--input",
                    &data_s,
                    "--eps",
                    "0.5",
                    "--fault-profile",
                    profile,
                    "--seed",
                    seed,
                ]))
                .unwrap_or_else(|e| panic!("profile {profile} seed {seed}: {e}"));
            }
        }
        let telemetry = dir.join("chaos.json");
        let telemetry_s = telemetry.to_str().unwrap().to_string();
        dispatch(&argv(&[
            "chaos",
            "--input",
            &data_s,
            "--eps",
            "0.5",
            "--fault-profile",
            "stall",
            "--seed",
            "7",
            "--output",
            &telemetry_s,
        ]))
        .unwrap();
        assert!(std::fs::read_to_string(&telemetry)
            .unwrap()
            .contains(sj_telemetry::SCHEMA_VERSION));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chaos_rejects_unknown_profile() {
        let p = argv(&[
            "chaos",
            "--input",
            "nonexistent.csv",
            "--eps",
            "0.5",
            "--fault-profile",
            "gremlins",
        ]);
        assert!(dispatch(&p).is_err());
    }

    #[test]
    fn join_shards_across_devices_and_stays_exact() {
        let dir = std::env::temp_dir().join(format!("simjoin-fleet-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("pts.csv");
        let data_s = data.to_str().unwrap().to_string();
        dispatch(&argv(&[
            "generate",
            "--dataset",
            "Expo2D2M",
            "--n",
            "500",
            "--output",
            &data_s,
        ]))
        .unwrap();
        // --verify checks the merged pair set against SUPER-EGO on every
        // device count and both partitioning strategies.
        for devices in ["1", "2", "4"] {
            for strategy in ["workload", "count"] {
                dispatch(&argv(&[
                    "join",
                    "--input",
                    &data_s,
                    "--eps",
                    "0.5",
                    "--balancing",
                    "queue",
                    "--devices",
                    devices,
                    "--shard-strategy",
                    strategy,
                    "--verify",
                ]))
                .unwrap_or_else(|e| panic!("devices={devices} strategy={strategy}: {e}"));
            }
        }
        assert!(dispatch(&argv(&[
            "join",
            "--input",
            &data_s,
            "--eps",
            "0.5",
            "--devices",
            "0",
        ]))
        .is_err());
        assert!(dispatch(&argv(&[
            "join",
            "--input",
            &data_s,
            "--eps",
            "0.5",
            "--devices",
            "2",
            "--shard-strategy",
            "bogus",
        ]))
        .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chaos_fleet_mode_recovers_and_verifies() {
        let dir =
            std::env::temp_dir().join(format!("simjoin-chaos-fleet-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("pts.csv");
        let data_s = data.to_str().unwrap().to_string();
        dispatch(&argv(&[
            "generate",
            "--dataset",
            "Expo2D2M",
            "--n",
            "400",
            "--output",
            &data_s,
        ]))
        .unwrap();
        // Fleet chaos: every completed outcome is verified against
        // SUPER-EGO inside dispatch(); both recovery modes must hold it.
        for recovery in ["reshard", "degrade"] {
            for seed in ["0", "3"] {
                dispatch(&argv(&[
                    "chaos",
                    "--input",
                    &data_s,
                    "--eps",
                    "0.5",
                    "--devices",
                    "3",
                    "--fault-profile",
                    "device-lost",
                    "--recovery",
                    recovery,
                    "--seed",
                    seed,
                ]))
                .unwrap_or_else(|e| panic!("recovery {recovery} seed {seed}: {e}"));
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn join_exec_modes_are_exact_and_validated() {
        let dir = std::env::temp_dir().join(format!("simjoin-hybrid-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("pts.csv");
        let data_s = data.to_str().unwrap().to_string();
        dispatch(&argv(&[
            "generate",
            "--dataset",
            "Expo2D2M",
            "--n",
            "400",
            "--output",
            &data_s,
        ]))
        .unwrap();
        // Every exec mode must pass --verify against SUPER-EGO, including a
        // forced split and a parallel CPU pool.
        for mode in ["gpu", "cpu", "hybrid"] {
            dispatch(&argv(&[
                "join",
                "--input",
                &data_s,
                "--eps",
                "0.5",
                "--exec-mode",
                mode,
                "--jobs",
                "2",
                "--verify",
            ]))
            .unwrap_or_else(|e| panic!("exec mode {mode}: {e}"));
        }
        dispatch(&argv(&[
            "join",
            "--input",
            &data_s,
            "--eps",
            "0.5",
            "--exec-mode",
            "hybrid",
            "--cpu-fraction",
            "0.5",
            "--verify",
        ]))
        .unwrap();
        // Chaos replays go through the co-executor too; exactness (or a
        // typed error) is checked inside dispatch().
        dispatch(&argv(&[
            "chaos",
            "--input",
            &data_s,
            "--eps",
            "0.5",
            "--exec-mode",
            "hybrid",
            "--fault-profile",
            "device-lost",
            "--seed",
            "3",
        ]))
        .unwrap();
        // Flag validation.
        let bad_mode = argv(&[
            "join",
            "--input",
            &data_s,
            "--eps",
            "0.5",
            "--exec-mode",
            "tpu",
        ]);
        assert!(dispatch(&bad_mode).is_err());
        let fleet_conflict = argv(&[
            "join",
            "--input",
            &data_s,
            "--eps",
            "0.5",
            "--exec-mode",
            "hybrid",
            "--devices",
            "2",
        ]);
        assert!(dispatch(&fleet_conflict).is_err());
        let bad_fraction = argv(&[
            "join",
            "--input",
            &data_s,
            "--eps",
            "0.5",
            "--exec-mode",
            "hybrid",
            "--cpu-fraction",
            "1.5",
        ]);
        assert!(dispatch(&bad_fraction).is_err());
        let cpu_fraction_conflict = argv(&[
            "join",
            "--input",
            &data_s,
            "--eps",
            "0.5",
            "--exec-mode",
            "cpu",
            "--cpu-fraction",
            "0.5",
        ]);
        assert!(dispatch(&cpu_fraction_conflict).is_err());
        let zero_jobs = argv(&[
            "join",
            "--input",
            &data_s,
            "--eps",
            "0.5",
            "--exec-mode",
            "hybrid",
            "--jobs",
            "0",
        ]);
        assert!(dispatch(&zero_jobs).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn soak_hybrid_iteration_holds_the_exactness_invariant() {
        dispatch(&argv(&[
            "soak",
            "--iterations",
            "2",
            "--quick",
            "--exec-mode",
            "hybrid",
        ]))
        .unwrap();
        assert!(dispatch(&argv(&["soak", "--iterations", "1", "--exec-mode", "cpu"])).is_err());
    }

    #[test]
    fn recovery_flag_is_validated() {
        let p = Parsed::parse(&argv(&["--recovery", "reshard"])).unwrap();
        assert!(recovery_flag(&p).unwrap().reshard_enabled());
        let p = Parsed::parse(&argv(&["--recovery", "degrade"])).unwrap();
        assert!(!recovery_flag(&p).unwrap().reshard_enabled());
        let p = Parsed::parse(&argv(&["--recovery", "bogus"])).unwrap();
        assert!(recovery_flag(&p).unwrap_err().contains("reshard|degrade"));
        // Through the join command, mirroring the --shard-strategy error.
        assert!(dispatch(&argv(&[
            "join",
            "--input",
            "nonexistent.csv",
            "--eps",
            "0.5",
            "--recovery",
            "bogus",
        ]))
        .is_err());
    }

    #[test]
    fn soak_runs_green_and_writes_strict_telemetry() {
        let dir = std::env::temp_dir().join(format!("simjoin-soak-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let telemetry = dir.join("soak.json");
        let telemetry_s = telemetry.to_str().unwrap().to_string();
        dispatch(&argv(&[
            "soak",
            "--iterations",
            "6",
            "--quick",
            "--output",
            &telemetry_s,
        ]))
        .unwrap();
        let doc = std::fs::read_to_string(&telemetry).unwrap();
        assert!(doc.contains(sj_telemetry::SCHEMA_VERSION));
        assert!(doc.contains("\"scope\": \"soak\""));
        assert!(doc.contains("\"name\": \"iteration\""));
        // Unknown iteration counts / datasets are flag errors.
        assert!(dispatch(&argv(&["soak", "--iterations", "0"])).is_err());
        assert!(dispatch(&argv(&["soak", "--dataset", "bogus"])).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_runs_a_scripted_session_and_writes_telemetry() {
        let dir = std::env::temp_dir().join(format!("simjoin-serve-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("pts.csv");
        let data_s = data.to_str().unwrap().to_string();
        dispatch(&argv(&[
            "generate",
            "--dataset",
            "Expo2D2M",
            "--n",
            "300",
            "--output",
            &data_s,
        ]))
        .unwrap();
        let script = dir.join("session.jsonl");
        let script_s = script.to_str().unwrap().to_string();
        std::fs::write(
            &script,
            "{\"op\": \"query\", \"point_id\": 0, \"eps\": 0.5}\n\
             {\"op\": \"query\", \"point_id\": 1, \"eps\": 0.5}\n\
             {\"op\": \"insert\", \"point\": [0.1, 0.1]}\n\
             {\"op\": \"remove\", \"point_id\": 5}\n\
             {\"op\": \"join\", \"eps\": 0.5}\n\
             {\"op\": \"stats\"}\n\
             {\"op\": \"shutdown\"}\n",
        )
        .unwrap();
        let telemetry = dir.join("serve.json");
        let telemetry_s = telemetry.to_str().unwrap().to_string();
        dispatch(&argv(&[
            "serve",
            "--input",
            &data_s,
            "--eps",
            "0.5",
            "--script",
            &script_s,
            "--output",
            &telemetry_s,
        ]))
        .unwrap();
        let doc = std::fs::read_to_string(&telemetry).unwrap();
        assert!(doc.contains(sj_telemetry::SCHEMA_VERSION));
        assert!(doc.contains("\"scope\": \"serve\""));
        assert!(doc.contains("\"name\": \"reindex\""));
        assert!(doc.contains("\"name\": \"coalesce\""));
        // The serial baseline accepts the same script.
        dispatch(&argv(&[
            "serve",
            "--input",
            &data_s,
            "--eps",
            "0.5",
            "--script",
            &script_s,
            "--no-coalesce",
            "--output",
            &telemetry_s,
        ]))
        .unwrap();
        // Flag validation at the serve boundary.
        for bad in [
            vec!["serve", "--input", &data_s, "--eps", "nan"],
            vec!["serve", "--input", &data_s, "--eps", "-0.5"],
            vec![
                "serve",
                "--input",
                &data_s,
                "--eps",
                "0.5",
                "--queue-capacity",
                "0",
            ],
            vec![
                "serve",
                "--input",
                &data_s,
                "--eps",
                "0.5",
                "--rebuild-limit",
                "-1",
            ],
            vec![
                "serve",
                "--input",
                &data_s,
                "--eps",
                "0.5",
                "--script",
                &script_s,
                "--listen",
                "127.0.0.1:0",
            ],
        ] {
            assert!(dispatch(&argv(&bad)).is_err(), "{bad:?} should fail");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_script_with_a_non_utf8_line_keeps_serving() {
        let dir = std::env::temp_dir().join(format!("simjoin-serve-bytes-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("pts.csv");
        let data_s = data.to_str().unwrap().to_string();
        std::fs::write(&data, "0.1,0.1\n0.2,0.1\n0.9,0.9\n").unwrap();
        let script = dir.join("session.jsonl");
        let script_s = script.to_str().unwrap().to_string();
        let mut bytes = b"{\"op\": \"query\", \"point_id\": 0, \"eps\": 0.5}\n".to_vec();
        bytes.extend_from_slice(b"\xff\xfe garbage\n");
        bytes.extend_from_slice(b"{\"op\": \"query\", \"point_id\": 1, \"eps\": 0.5}\n");
        std::fs::write(&script, bytes).unwrap();
        let telemetry = dir.join("serve.json");
        let telemetry_s = telemetry.to_str().unwrap().to_string();
        dispatch(&argv(&[
            "serve",
            "--input",
            &data_s,
            "--eps",
            "0.5",
            "--script",
            &script_s,
            "--output",
            &telemetry_s,
        ]))
        .unwrap();
        // The bad line was rejected and both queries were answered.
        let doc = std::fs::read_to_string(&telemetry).unwrap();
        assert_eq!(doc.matches("\"kind\": \"bad_request\"").count(), 1, "{doc}");
        assert_eq!(doc.matches("\"op\": \"query\", \"id\"").count(), 2, "{doc}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn epsilon_is_validated_uniformly_across_commands() {
        // No command should get as far as touching the dataset with a bad ε
        // — the unified check fires first, with the same message everywhere.
        for cmd in ["join", "stats", "profile", "chaos", "serve"] {
            for bad_eps in ["nan", "inf", "0", "-1"] {
                let err = dispatch(&argv(&[
                    cmd,
                    "--input",
                    "nonexistent.csv",
                    "--eps",
                    bad_eps,
                ]))
                .unwrap_err();
                assert!(
                    err.contains("flag --eps is invalid"),
                    "{cmd} --eps {bad_eps}: {err}"
                );
                assert!(
                    err.contains("finite, strictly positive"),
                    "{cmd} --eps {bad_eps}: {err}"
                );
            }
        }
        let err = dispatch(&argv(&["soak", "--eps", "-1"])).unwrap_err();
        assert!(err.contains("flag --eps is invalid"));
    }

    #[test]
    fn bad_pattern_is_reported() {
        let p = Parsed::parse(&argv(&["--pattern", "bogus"])).unwrap();
        assert!(pattern_flag(&p).is_err());
        let p = Parsed::parse(&argv(&["--balancing", "bogus"])).unwrap();
        assert!(balancing_flag(&p).is_err());
    }
}
