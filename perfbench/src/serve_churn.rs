//! The `serve-churn` workload: a seeded open-loop stream of strict-JSON
//! request lines into `ServeSession::handle_line`, the way `simjoin serve`
//! feeds it, with every reply checked against the benchmark's own copy of
//! the churned point set.

use std::time::{Duration, Instant};

use epsgrid::{DynamicGrid, GridIndex, Point};
use simjoin::kernels::ResolvedPatterns;
use simjoin::{SelfJoin, SelfJoinConfig, ServeConfig, ServeReport, ServeSession, WorkloadProfile};
use sj_telemetry::json::{self, JsonValue};
use sj_telemetry::{JsonTelemetry, Telemetry};

use crate::check::{check_neighbors, Mirror};
use crate::report::{median, quantile, since, sum_field, tail, timed, Clock, Outcome};
use crate::{join_config, Args, Rng, Threads};

/// `ServeSession::new` runs behind `setup_s`: at least `SETUP_MIN_REPS`,
/// and more while they take less than `SETUP_SHARE` of the time budget.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 200;
const SETUP_SHARE: f64 = 0.05;
/// Repetitions of each direct layer call in the traced run.
const TRACE_REPS: usize = 3;
/// Offered rate of the fixed-rate pass behind the latency metrics.
pub const FIXED_RATE_RPS: f64 = 200.0;
/// Share of the time budget the fixed-rate pass offers requests for.
const FIXED_SHARE: f64 = 0.5;
/// The latency limit behind `max_rate_rps`: a rate qualifies when the p99
/// request latency and the generator's final lateness both stay within it.
pub const LATENCY_LIMIT_S: f64 = 0.25;
/// The `max_rate_rps` search bisects offered rates within this bracket,
/// as fractions of the capacity the fixed-rate pass implies ...
const PROBE_BRACKET: (f64, f64) = (0.6, 1.4);
/// ... in this many probes ...
const PROBES: usize = 5;
/// ... each offering this share of the time budget's worth of requests.
const PROBE_SHARE: f64 = 0.07;
/// ε of the minority of queries that miss the maintained grid.
const FOREIGN_EPS: f32 = 0.035;

/// One operation of the request stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Neighbours of `pid` at `eps`.
    Query { pid: u32, eps: f32 },
    /// Insert a point.
    Insert(Point<2>),
    /// Remove a point.
    Remove(u32),
    /// Execute everything queued.
    Flush,
}

/// One request line and when it is due.
#[derive(Debug, Clone)]
pub struct Line {
    /// Seconds after the stream starts.
    pub due_s: f64,
    /// The operation (what the checker expects).
    pub op: Op,
    /// The strict-JSON request line.
    pub text: String,
}

/// Parses a request's coordinates the way the serve protocol does
/// (JSON number → f64 → f32), so the mirror holds the server's bits.
fn protocol_point(text: &str) -> Point<2> {
    let doc = json::parse(text).expect("generated lines are strict JSON");
    let coords = doc
        .get("point")
        .and_then(JsonValue::as_array)
        .expect("insert has a point");
    [0, 1].map(|d| coords[d].as_f64().expect("numeric coordinate") as f32)
}

/// The request mix of every block of arrivals, in order: `Q` a query at
/// the maintained ε, `F` a query at the foreign ε, `I` an insert, `R` a
/// remove, `L` a flush — 80 % queries, 4 % foreign queries, 4 % inserts,
/// 4 % removes, 8 % flushes. A fixed order keeps the number of launches a
/// stream causes the same for every seed, and at most 11 queries wait for
/// a barrier, so the admission queue (64 deep) never refuses one.
const BLOCK: &[u8; 50] = b"QQQQQQFQQQQIQQQQLQQQQRQQQQLQQQQFQQQQIQQQQLQQQQRQQL";

/// The seeded request stream: open-loop arrivals at `rate_rps` for
/// `duration_s`, ending with a flush so every query is answered.
///
/// Arrivals come in blocks of `BLOCK`'s length, whose gaps are the
/// exponential distribution's quantiles in seeded order: Poisson-like
/// arrivals, stratified so that every seed offers the same load. Query
/// and remove targets are seeded; inserts are jittered copies of current
/// points.
pub fn script(
    points: &[Point<2>],
    eps: f32,
    seed: u64,
    rate_rps: f64,
    duration_s: f64,
) -> Vec<Line> {
    let mut rng = Rng(seed ^ rate_rps.to_bits().rotate_left(17));
    let (mut lo, mut hi) = ([f32::INFINITY; 2], [f32::NEG_INFINITY; 2]);
    for p in points {
        for d in 0..2 {
            lo[d] = lo[d].min(p[d]);
            hi[d] = hi[d].max(p[d]);
        }
    }
    let quantiles: Vec<f64> = (0..BLOCK.len())
        .map(|k| -(1.0 - (k as f64 + 0.5) / BLOCK.len() as f64).ln())
        .collect();
    let scale = BLOCK.len() as f64 / quantiles.iter().sum::<f64>() / rate_rps;
    let mut current = points.to_vec();
    let mut lines = Vec::new();
    let mut t = 0.0;
    let flush = |due_s: f64| Line {
        due_s,
        op: Op::Flush,
        text: "{\"op\": \"flush\"}".to_string(),
    };
    'blocks: loop {
        let mut gaps = quantiles.clone();
        rng.shuffle(&mut gaps);
        for (&kind, gap) in BLOCK.iter().zip(gaps) {
            t += gap * scale;
            if t >= duration_s {
                break 'blocks;
            }
            let line = match kind {
                b'Q' | b'F' => {
                    let eps = if kind == b'Q' { eps } else { FOREIGN_EPS };
                    let pid = rng.below(current.len());
                    Line {
                        due_s: t,
                        op: Op::Query { pid, eps },
                        text: format!("{{\"op\": \"query\", \"point_id\": {pid}, \"eps\": {eps}}}"),
                    }
                }
                b'I' => {
                    let base = current[rng.below(current.len()) as usize];
                    let mut p = [0.0f32; 2];
                    for d in 0..2 {
                        let jitter = (rng.unit() as f32 - 0.5) * eps;
                        p[d] = (base[d] + jitter).clamp(lo[d], hi[d]);
                    }
                    let text = format!("{{\"op\": \"insert\", \"point\": [{}, {}]}}", p[0], p[1]);
                    let p = protocol_point(&text);
                    current.push(p);
                    Line {
                        due_s: t,
                        op: Op::Insert(p),
                        text,
                    }
                }
                b'R' => {
                    let pid = rng.below(current.len());
                    current.swap_remove(pid as usize);
                    Line {
                        due_s: t,
                        op: Op::Remove(pid),
                        text: format!("{{\"op\": \"remove\", \"point_id\": {pid}}}"),
                    }
                }
                _ => flush(t),
            };
            lines.push(line);
        }
    }
    lines.push(flush(duration_s));
    lines
}

/// What driving one stream through a session measured.
#[derive(Debug, Default)]
struct Pass {
    /// Per request: seconds from its due time to the return of the call
    /// that carried its response.
    latency: Vec<f64>,
    /// Per line: seconds the generator sent it after its due time.
    late: Vec<f64>,
    /// Host seconds inside `handle_line`, summed.
    busy_s: f64,
    /// Host seconds of each call that launched a join.
    launch_calls: Vec<f64>,
    /// The response line of each request id, in id order.
    responses: Vec<Option<String>>,
    /// Protocol failures (missing or duplicate responses).
    failures: Vec<String>,
    /// The session's counters after the stream.
    report: ServeReport,
}

/// The request id a response line answers (`{"id": N, ...}`).
fn response_id(line: &str) -> Option<usize> {
    let rest = line.strip_prefix("{\"id\": ")?;
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

/// Feeds `lines` to `session`: paced, each line is sent at its due time
/// (open loop); unpaced, back to back.
fn drive(session: &mut ServeSession<'_, 2>, lines: &[Line], paced: bool) -> Pass {
    let mut pass = Pass {
        latency: vec![f64::NAN; lines.len()],
        responses: vec![None; lines.len()],
        ..Pass::default()
    };
    let start = Instant::now();
    for line in lines {
        let due = start + Duration::from_secs_f64(line.due_s);
        if paced {
            // Spin rather than sleep: a sleeping vCPU wakes late by a
            // varying amount, which showed up as run-to-run latency spread.
            while Instant::now() < due {
                std::hint::spin_loop();
            }
            pass.late
                .push(Instant::now().saturating_duration_since(due).as_secs_f64());
        }
        let t = Instant::now();
        let out = session.handle_line(&line.text);
        let ret = Instant::now();
        let call_s = (ret - t).as_secs_f64();
        pass.busy_s += call_s;
        if out.iter().any(|r| r.contains("\"cache_hit\": false")) {
            pass.launch_calls.push(call_s);
        }
        for r in out {
            match response_id(&r) {
                Some(id) if id < lines.len() && pass.responses[id].is_none() => {
                    let due = start + Duration::from_secs_f64(lines[id].due_s);
                    let from = if paced { due } else { t };
                    pass.latency[id] = ret.saturating_duration_since(from).as_secs_f64();
                    pass.responses[id] = Some(r);
                }
                _ => pass
                    .failures
                    .push(format!("unexpected response line {r:?}")),
            }
        }
    }
    for (id, r) in pass.responses.iter().enumerate() {
        if r.is_none() {
            pass.failures.push(format!("request {id} got no response"));
        }
    }
    pass.latency.retain(|l| l.is_finite());
    pass.report = session.report();
    pass
}

/// Checks every response of a stream against the mirror, replayed in
/// request order: queries are answered before the next write applies, so
/// each one sees exactly the writes that precede it.
pub fn check_stream(
    initial: &[Point<2>],
    lines: &[Line],
    responses: &[Option<String>],
) -> Vec<String> {
    let mut mirror = Mirror {
        points: initial.to_vec(),
    };
    let mut failures = Vec::new();
    for (id, (line, resp)) in lines.iter().zip(responses).enumerate() {
        let Some(resp) = resp else { continue };
        let doc = match json::parse(resp) {
            Ok(doc) => doc,
            Err(e) => {
                failures.push(format!("request {id}: response is not strict JSON: {e}"));
                continue;
            }
        };
        let field_u64 = |k: &str| doc.get(k).and_then(JsonValue::as_u64);
        let ok = doc.get("ok").and_then(JsonValue::as_bool) == Some(true);
        let verdict = match line.op {
            Op::Query { pid, eps } => {
                let neighbors: Option<Vec<u32>> = doc
                    .get("neighbors")
                    .and_then(JsonValue::as_array)
                    .and_then(|a| a.iter().map(|v| v.as_u64().map(|n| n as u32)).collect());
                match neighbors {
                    Some(n) if ok && field_u64("point_id") == Some(u64::from(pid)) => {
                        check_neighbors(&mirror.points, pid, eps, &n)
                    }
                    _ => Err("not a neighbour list for the query".to_string()),
                }
            }
            Op::Insert(p) => {
                let expected = mirror.insert(p);
                if ok && field_u64("point_id") == Some(u64::from(expected)) {
                    Ok(())
                } else {
                    Err(format!("insert should be assigned id {expected}"))
                }
            }
            Op::Remove(pid) => {
                let moved = mirror.remove(pid);
                let replied = doc.get("moved_id").map(JsonValue::as_u64);
                if ok
                    && field_u64("point_id") == Some(u64::from(pid))
                    && replied == Some(moved.map(u64::from))
                {
                    Ok(())
                } else {
                    Err(format!("remove of {pid} should move {moved:?}"))
                }
            }
            Op::Flush => {
                if ok && doc.get("op").and_then(JsonValue::as_str) == Some("flush") {
                    Ok(())
                } else {
                    Err("flush was not acknowledged".to_string())
                }
            }
        };
        if let Err(e) = verdict {
            failures.push(format!(
                "request {id} ({}): {e}; response {resp}",
                line.text
            ));
        }
    }
    failures
}

/// A fresh session over `points`, optionally traced.
fn session<'a>(
    points: &[Point<2>],
    config: &SelfJoinConfig,
    telemetry: Option<&'a dyn Telemetry>,
) -> Result<ServeSession<'a, 2>, String> {
    let s = ServeSession::new(points.to_vec(), config.clone(), ServeConfig::default())
        .map_err(|e| format!("ServeSession::new: {e}"))?;
    Ok(match telemetry {
        Some(t) => s.with_telemetry(t),
        None => s,
    })
}

/// Records a pass's attempted requests and every failure of its checks.
fn account(out: &mut Outcome, what: &str, initial: &[Point<2>], lines: &[Line], pass: &Pass) {
    out.attempted += lines.len() as u64;
    let mut failures = pass.failures.clone();
    failures.extend(check_stream(initial, lines, &pass.responses));
    if pass.report.rejected + pass.report.errors > 0 {
        failures.push(format!(
            "{} refused and {} failed requests",
            pass.report.rejected, pass.report.errors
        ));
    }
    for f in failures {
        out.fail(format!("{what}: {f}"));
    }
}

/// Runs the workload.
pub fn run(args: &Args, threads: Threads, points: Vec<Point<2>>) -> Result<Outcome, String> {
    let (_, _, eps) = args.workload.dataset();
    let config = join_config(eps, threads);
    let mut out = Outcome::default();
    let fixed_s = FIXED_SHARE * args.seconds;
    let lines = script(&points, eps, args.seed, FIXED_RATE_RPS, fixed_s);

    if args.trace {
        traced(&points, &config, &lines, &mut out)?;
        return Ok(out);
    }

    let mut setup = Vec::new();
    let budget = SETUP_SHARE * args.seconds;
    let start = Instant::now();
    while setup.len() < SETUP_MAX_REPS && (setup.len() < SETUP_MIN_REPS || since(start) < budget) {
        let copy = points.clone();
        let t = Instant::now();
        let s = ServeSession::new(copy, config.clone(), ServeConfig::default());
        setup.push(since(t));
        s.map_err(|e| format!("ServeSession::new: {e}"))?;
    }
    out.attempted += setup.len() as u64;

    let fixed = drive(&mut session(&points, &config, None)?, &lines, true);
    account(&mut out, "fixed-rate pass", &points, &lines, &fixed);
    out.peak_rss()?;

    // Determinism: the same stream back to back must answer every request
    // with the same bytes, model-second latencies included.
    let prefix = &lines[..lines.len() / 5];
    let replay = drive(&mut session(&points, &config, None)?, prefix, false);
    out.attempted += prefix.len() as u64;
    for (id, r) in replay.responses.iter().enumerate() {
        if r.is_some() && *r != fixed.responses[id] {
            out.fail(format!(
                "request {id}: replayed response differs from the paced one"
            ));
        }
    }

    // The max-rate search: bisect the offered rate, geometrically, over a
    // bracket around the capacity the fixed pass implies, each probe on a
    // fresh session and stream; then interpolate log(p99) across the final
    // bracket to where it meets the limit.
    let capacity = lines.len() as f64 / fixed.busy_s;
    let probe_s = PROBE_SHARE * args.seconds;
    let (mut lo, mut hi) = (PROBE_BRACKET.0 * capacity, PROBE_BRACKET.1 * capacity);
    let (mut p99_lo, mut p99_hi) = (None, None);
    for i in 0..PROBES {
        let rate = (lo * hi).sqrt();
        let probe_lines = script(
            &points,
            eps,
            args.seed.wrapping_add(1 + i as u64),
            rate,
            probe_s,
        );
        let pass = drive(&mut session(&points, &config, None)?, &probe_lines, true);
        account(
            &mut out,
            &format!("probe at {rate:.1} req/s"),
            &points,
            &probe_lines,
            &pass,
        );
        let p99 = quantile(&pass.latency, 0.99);
        let backlog = pass.late.last().copied().unwrap_or(0.0);
        if p99 <= LATENCY_LIMIT_S && backlog <= LATENCY_LIMIT_S {
            (lo, p99_lo) = (rate, Some(p99));
        } else {
            (hi, p99_hi) = (rate, Some(p99.max(LATENCY_LIMIT_S)));
        }
    }
    let max_rate = match (p99_lo, p99_hi) {
        (Some(a), Some(b)) if b > a && a > 0.0 => {
            lo + (hi - lo) * (LATENCY_LIMIT_S / a).ln() / (b / a).ln()
        }
        _ => (lo * hi).sqrt(),
    };

    let n = fixed.latency.len();
    let rate_note = format!("open loop at {FIXED_RATE_RPS} req/s, {n} requests, from due time");
    out.metric(
        "setup_s",
        median(&setup),
        "s",
        Clock::Wall,
        format!("median of {} ServeSession::new", setup.len()),
    );
    out.metric(
        "latency_p50_s",
        median(&fixed.latency),
        "s",
        Clock::Wall,
        rate_note.clone(),
    );
    let (tail, pct) = tail(&fixed.latency);
    out.metric(
        "latency_p99_s",
        tail,
        "s",
        Clock::Wall,
        format!("p{pct:.0}, {rate_note}"),
    );
    out.metric(
        "max_rate_rps",
        max_rate,
        "1/s",
        Clock::Wall,
        format!(
            "highest offered rate with p99 and final lateness within {LATENCY_LIMIT_S} s: {PROBES} bisection probes, interpolated (capacity estimate {capacity:.1} req/s)"
        ),
    );
    out.metric(
        "model_s",
        fixed.report.execute_model_s,
        "s",
        Clock::Model,
        format!(
            "launch execute_model_s of the fixed-rate pass, {} launches",
            fixed.report.launches
        ),
    );
    Ok(out)
}

/// The traced run: the fixed-rate pass untraced and traced, plus direct
/// calls into each layer the serve path uses.
fn traced(
    points: &[Point<2>],
    config: &SelfJoinConfig,
    lines: &[Line],
    out: &mut Outcome,
) -> Result<(), String> {
    let eps = config.epsilon;
    let untraced = drive(&mut session(points, config, None)?, lines, true);
    account(out, "untraced pass", points, lines, &untraced);
    let sink = JsonTelemetry::new("perfbench serve-churn");
    let traced = drive(&mut session(points, config, Some(&sink))?, lines, true);
    account(out, "traced pass", points, lines, &traced);
    if traced.responses != untraced.responses {
        out.fail("traced responses differ from untraced ones");
    }
    let events = sink.events();

    let (build_s, grid) = timed(TRACE_REPS, || GridIndex::build(points, eps));
    let grid = grid.map_err(|e| format!("GridIndex::build: {e:?}"))?;
    let (resolve_s, _) = timed(TRACE_REPS, || {
        ResolvedPatterns::compute(&grid, config.pattern)
    });
    let (profile_s, _) = timed(TRACE_REPS, || WorkloadProfile::compute(&grid));
    let join = SelfJoin::new(points, config.clone()).map_err(|e| format!("SelfJoin::new: {e}"))?;
    let (run_s, outcome) = timed(TRACE_REPS, || join.run());
    let outcome = outcome.map_err(|e| format!("run: {e}"))?;
    let (lists_s, _) = timed(TRACE_REPS, || {
        outcome.result.to_neighbor_lists(points.len())
    });
    out.attempted += 6 * TRACE_REPS as u64;

    // Direct DynamicGrid calls: the stream's writes, in order.
    let mut dynamic =
        DynamicGrid::new(points.to_vec(), eps).map_err(|e| format!("DynamicGrid::new: {e:?}"))?;
    let (mut insert_s, mut remove_s) = (Vec::new(), Vec::new());
    for line in lines {
        let t = Instant::now();
        let ok = match line.op {
            Op::Insert(p) => dynamic.insert(p).map(|_| insert_s.push(since(t))).is_ok(),
            Op::Remove(pid) => dynamic.remove(pid).map(|_| remove_s.push(since(t))).is_ok(),
            _ => true,
        };
        if !ok {
            out.fail(format!("DynamicGrid rejected {}", line.text));
        }
    }
    let t = Instant::now();
    for line in lines {
        std::hint::black_box(json::parse(&line.text).ok());
    }
    let parse_s = since(t) / lines.len() as f64;

    let (plan_ns, launches) = sum_field(&events, "executor.phase", "estimate_and_plan", "host_ns");
    let (batches, _) = sum_field(&events, "executor", "join_summary", "num_batches");
    let (ratio, ratios) = sum_field(
        &events,
        "executor",
        "estimator_accuracy",
        "estimate_over_actual",
    );
    let (gather_ns, _) = sum_field(&events, "executor.phase", "gather", "host_ns");
    let report = &outcome.report;
    let served = &traced.report;
    let per_launch = |x: f64| x / launches.max(1) as f64;
    let run = median(&run_s);
    let w = Clock::Wall;
    let c = Clock::Count;
    let m = Clock::Model;
    let direct = format!("median of {TRACE_REPS} direct calls on the initial points");
    let launch_note = format!("mean over the traced pass's {launches} launches");
    out.metric(
        "epsgrid.build_s",
        median(&build_s),
        "s",
        w,
        format!("GridIndex::build, {direct}"),
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
        median(&resolve_s),
        "s",
        w,
        format!("ResolvedPatterns::compute, {direct}"),
    );
    out.metric(
        "workload.profile_s",
        median(&profile_s),
        "s",
        w,
        format!("WorkloadProfile::compute, {direct}"),
    );
    out.metric(
        "batching.plan_s",
        per_launch(plan_ns) * 1e-9,
        "s",
        w,
        format!("estimate_and_plan host_ns, {launch_note}"),
    );
    out.metric(
        "batching.batches",
        per_launch(batches),
        "count",
        c,
        launch_note.clone(),
    );
    out.metric(
        "batching.estimate_ratio",
        ratio / ratios.max(1) as f64,
        "ratio",
        c,
        format!("estimated / actual pairs, {launch_note}"),
    );
    out.metric("executor.run_s", run, "s", w, format!("run(), {direct}"));
    out.metric(
        "executor.gather_s",
        per_launch(gather_ns) * 1e-9,
        "s",
        w,
        format!("gather host_ns, {launch_note}"),
    );
    out.metric(
        "executor.unattributed_s",
        run - per_launch(plan_ns + gather_ns) * 1e-9,
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
        "direct run()",
    );
    out.metric(
        "warpsim.transfer_model_s",
        report.batches.iter().map(|b| b.transfer_s).sum(),
        "s",
        m,
        "direct run()",
    );
    out.metric(
        "warpsim.pipeline_model_s",
        report.pipeline.total_s,
        "s",
        m,
        "direct run()",
    );
    out.metric("warpsim.wee", report.wee(), "ratio", c, "direct run()");
    out.metric("warpsim.warp_cv", warp_cv, "ratio", c, "direct run()");
    out.metric(
        "warpsim.distance_calcs",
        distance_calcs as f64,
        "count",
        c,
        "direct run()",
    );
    out.metric(
        "warpsim.ns_per_distance",
        run * 1e9 / distance_calcs.max(1) as f64,
        "ns",
        w,
        "executor.run_s per distance calculation",
    );
    let off = "not on this workload's path";
    for (name, unit, clock) in [
        ("fleet.makespan_model_s", "s", m),
        ("fleet.workload_imbalance", "ratio", c),
        ("fleet.jain_fairness", "ratio", c),
        ("hybrid.cut_units", "count", c),
        ("hybrid.cpu_units", "count", c),
        ("hybrid.gpu_model_s", "s", m),
        ("hybrid.cpu_model_s", "s", m),
        ("hybrid.gpu_shadow_s", "s", w),
        ("fallback.cpu_join_s", "s", w),
    ] {
        out.metric(name, 0.0, unit, clock, off);
    }
    out.metric(
        "result.neighbor_lists_s",
        median(&lists_s),
        "s",
        w,
        format!("ResultSet::to_neighbor_lists, {direct}"),
    );
    out.metric(
        "epsgrid.insert_s",
        median(&insert_s),
        "s",
        w,
        format!("DynamicGrid::insert, median of {}", insert_s.len()),
    );
    out.metric(
        "epsgrid.remove_s",
        median(&remove_s),
        "s",
        w,
        format!("DynamicGrid::remove, median of {}", remove_s.len()),
    );
    out.metric(
        "epsgrid.requantified_cells",
        served.requantified_cells as f64,
        "count",
        c,
        "traced pass",
    );
    out.metric(
        "epsgrid.full_rebuilds",
        served.full_rebuilds as f64,
        "count",
        c,
        "traced pass",
    );
    out.metric(
        "serve.launch_s",
        median(&traced.launch_calls),
        "s",
        w,
        format!(
            "handle_line calls that launched, median of {}",
            traced.launch_calls.len()
        ),
    );
    out.metric(
        "serve.parse_s",
        parse_s,
        "s",
        w,
        format!("json::parse per line, mean over {} lines", lines.len()),
    );
    out.metric(
        "serve.launches",
        served.launches as f64,
        "count",
        c,
        "traced pass",
    );
    out.metric(
        "serve.coalesced_requests",
        served.coalesced_requests as f64,
        "count",
        c,
        "traced pass",
    );
    out.metric(
        "serve.cache_hits",
        served.cache_hits as f64,
        "count",
        c,
        "traced pass",
    );
    out.metric(
        "serve.rejected",
        served.rejected as f64,
        "count",
        c,
        "traced pass",
    );
    out.metric(
        "serve.late_s",
        quantile(&traced.late, 0.99),
        "s",
        w,
        "p99 of how late the generator sent each line",
    );
    out.metric(
        "telemetry.overhead_s",
        median(&traced.latency) - median(&untraced.latency),
        "s",
        w,
        format!(
            "traced - untraced latency_p50_s, {} requests each",
            lines.len()
        ),
    );
    Ok(())
}
