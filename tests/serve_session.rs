//! End-to-end tests of the always-on serve daemon ([`simjoin::serve`]):
//! the strict-JSON line protocol stays exact against a brute-force oracle
//! while the dataset churns, admission failures are typed (never panics,
//! never a dead session), and the service telemetry stream is strict JSON.
//!
//! Barrier-flush semantics under test: mutations, `flush`, `stats`, and
//! `shutdown` all execute the queued queries first, so every queued query
//! is answered against the dataset exactly as it stood at admission.

use simjoin::{
    Latency, Reply, Request, RequestLines, Response, SelfJoinConfig, ServeConfig, ServeReport,
    ServeSession,
};
use sj_telemetry::json::{self, JsonValue};
use sj_telemetry::JsonTelemetry;
use sjdata::DatasetSpec;

/// A small skewed 2-D dataset plus a mid-sweep ε — the serve sessions here
/// are oracle-checked, so they stay brute-forceable.
fn serve_dataset() -> (Vec<[f32; 2]>, f32) {
    let spec = DatasetSpec::by_name("Expo2D2M").unwrap();
    let pts = spec.generate(250).as_fixed::<2>().unwrap();
    let eps = spec.epsilons[2] * 1.5;
    (pts, eps)
}

/// The exact ε-neighborhood of `point_id` in `pts`, ascending.
fn oracle_neighbors(pts: &[[f32; 2]], point_id: u32, eps: f32) -> Vec<u32> {
    let mut out: Vec<u32> = simjoin::brute_force_join(pts, eps)
        .into_iter()
        .filter(|&(a, _)| a == point_id)
        .map(|(_, b)| b)
        .collect();
    out.sort_unstable();
    out
}

/// Drives a whole churn-and-query session through the line protocol and
/// checks every answer against a brute-force mirror of the point set.
/// Every response line must also round-trip through the strict JSON
/// parser — the protocol promises RFC 8259 output, not almost-JSON.
#[test]
fn line_protocol_session_is_exact_under_churn() {
    let (pts, eps) = serve_dataset();
    let mut mirror = pts.clone();
    let mut session =
        ServeSession::new(pts, SelfJoinConfig::new(eps), ServeConfig::default()).unwrap();

    let probe = |mirror: &Vec<[f32; 2]>| [3u32, 17, 42, (mirror.len() - 1) as u32];
    let mut lines: Vec<String> = Vec::new();
    for round in 0..3 {
        // Mutate first: the swap-remove mirror must apply the same moves.
        let seed = mirror[(round * 7) % mirror.len()];
        let new_point = [seed[0] + 0.02, seed[1] + 0.01];
        lines.push(format!(
            "{{\"op\": \"insert\", \"point\": [{}, {}]}}",
            new_point[0], new_point[1]
        ));
        mirror.push(new_point);
        let victim = (round * 11) as u32;
        lines.push(format!("{{\"op\": \"remove\", \"point_id\": {victim}}}"));
        mirror.swap_remove(victim as usize);
        // Queries admitted after the mutations see the mutated dataset.
        for pid in probe(&mirror) {
            lines.push(format!(
                "{{\"op\": \"query\", \"point_id\": {pid}, \"eps\": {eps}}}"
            ));
        }
        lines.push(format!("{{\"op\": \"join\", \"eps\": {eps}}}"));
        lines.push("{\"op\": \"flush\"}".to_string());
    }
    lines.push("{\"op\": \"stats\"}".to_string());
    lines.push("{\"op\": \"shutdown\"}".to_string());

    // Expected answers, in protocol order: the flush at the end of each
    // round answers that round's queries against that round's mirror.
    let mut expected: Vec<Vec<u32>> = Vec::new();
    {
        let mut m = serve_dataset().0;
        for round in 0..3 {
            let seed = m[(round * 7) % m.len()];
            m.push([seed[0] + 0.02, seed[1] + 0.01]);
            m.swap_remove(round * 11);
            for pid in probe(&m) {
                expected.push(oracle_neighbors(&m, pid, eps));
            }
        }
    }
    let expected_pairs = simjoin::brute_force_join(&mirror, eps).len() as u64;

    let mut answers: Vec<Vec<u32>> = Vec::new();
    let mut join_pairs: Vec<u64> = Vec::new();
    for line in &lines {
        for response in session.handle_line(line) {
            let doc = json::parse(&response)
                .unwrap_or_else(|e| panic!("response is not strict JSON: {e}\n{response}"));
            assert_eq!(
                doc.get("ok").and_then(JsonValue::as_bool),
                Some(true),
                "unexpected failure line: {response}"
            );
            match doc.get("op").and_then(JsonValue::as_str) {
                Some("query") => answers.push(
                    doc.get("neighbors")
                        .and_then(JsonValue::as_array)
                        .expect("neighbors array")
                        .iter()
                        .map(|v| v.as_u64().expect("neighbor id") as u32)
                        .collect(),
                ),
                Some("join") => {
                    join_pairs.push(doc.get("pairs").and_then(JsonValue::as_u64).unwrap());
                }
                _ => {}
            }
        }
    }
    assert!(session.is_shut_down());
    assert_eq!(
        answers, expected,
        "a served neighborhood diverged from brute force"
    );
    assert_eq!(join_pairs.last().copied(), Some(expected_pairs));
    let report = session.report();
    assert_eq!(report.queries, 12);
    assert_eq!(report.joins, 3);
    assert_eq!(report.inserts, 3);
    assert_eq!(report.removes, 3);
    assert_eq!(report.errors, 0);
    assert_eq!(report.rejected, 0);
    assert_eq!(
        report.incremental_reindexes + report.full_rebuilds,
        6,
        "every mutation must be accounted as incremental or rebuild"
    );
}

/// Overflowing the bounded admission queue is a typed `queue_full` line;
/// the session keeps serving afterwards, and the queued work still
/// executes exactly.
#[test]
fn queue_overflow_is_typed_and_the_session_survives() {
    let (pts, eps) = serve_dataset();
    let mirror = pts.clone();
    let cfg = ServeConfig {
        queue_capacity: 2,
        ..ServeConfig::default()
    };
    let mut session = ServeSession::new(pts, SelfJoinConfig::new(eps), cfg).unwrap();
    for pid in [1u32, 2] {
        assert!(session
            .handle_line(&format!(
                "{{\"op\": \"query\", \"point_id\": {pid}, \"eps\": {eps}}}"
            ))
            .is_empty());
    }
    let rejected = session.handle_line(&format!(
        "{{\"op\": \"query\", \"point_id\": 3, \"eps\": {eps}}}"
    ));
    assert_eq!(rejected.len(), 1);
    let doc = json::parse(&rejected[0]).unwrap();
    assert_eq!(doc.get("ok").and_then(JsonValue::as_bool), Some(false));
    assert_eq!(
        doc.get("kind").and_then(JsonValue::as_str),
        Some("queue_full")
    );
    // The two admitted queries still flush exactly.
    let flushed = session.handle_line("{\"op\": \"flush\"}");
    let mut seen = 0;
    for line in &flushed {
        let doc = json::parse(line).unwrap();
        if doc.get("op").and_then(JsonValue::as_str) == Some("query") {
            let pid = doc.get("point_id").and_then(JsonValue::as_u64).unwrap() as u32;
            let neighbors: Vec<u32> = doc
                .get("neighbors")
                .and_then(JsonValue::as_array)
                .unwrap()
                .iter()
                .map(|v| v.as_u64().unwrap() as u32)
                .collect();
            assert_eq!(neighbors, oracle_neighbors(&mirror, pid, eps));
            seen += 1;
        }
    }
    assert_eq!(seen, 2);
    let report = session.report();
    assert_eq!(report.rejected, 1);
    assert_eq!(report.errors, 0);
}

/// The service telemetry stream (request, coalesce, reindex events) is a
/// strict-JSON document, and every mutation emits exactly one reindex
/// event naming its maintenance kind.
#[test]
fn serve_telemetry_is_strict_json_and_names_reindex_kinds() {
    let (pts, eps) = serve_dataset();
    let sink = JsonTelemetry::new("serve-test");
    let mut session = ServeSession::new(pts, SelfJoinConfig::new(eps), ServeConfig::default())
        .unwrap()
        .with_telemetry(&sink);
    session.request(Request::Insert {
        point: [0.21, 0.17],
    });
    session.request(Request::Query {
        point_id: 0,
        epsilon: eps,
    });
    session.request(Request::Query {
        point_id: 9,
        epsilon: eps,
    });
    session.request(Request::Remove { point_id: 4 });
    session.request(Request::Shutdown);
    drop(session);

    let doc = json::parse(&sink.to_json()).expect("serve telemetry must be strict JSON");
    let events = doc.get("events").and_then(JsonValue::as_array).unwrap();
    let named = |name: &str| {
        events
            .iter()
            .filter(|e| {
                e.get("scope").and_then(JsonValue::as_str) == Some("serve")
                    && e.get("name").and_then(JsonValue::as_str) == Some(name)
            })
            .count()
    };
    assert_eq!(named("reindex"), 2, "one reindex event per mutation");
    assert!(
        named("request") >= 4,
        "every query and mutation is recorded"
    );
    assert!(
        named("coalesce") >= 1,
        "the two same-ε queries share a launch and record it"
    );
    for event in events {
        if event.get("name").and_then(JsonValue::as_str) == Some("reindex") {
            let kind = event
                .get("fields")
                .and_then(|f| f.get("kind"))
                .and_then(JsonValue::as_str)
                .unwrap();
            assert!(kind == "incremental" || kind == "rebuild", "kind = {kind}");
        }
    }
}

/// Structured-API churn at a foreign ε (≠ the maintained grid's ε) still
/// answers exactly: the daemon falls back to a throwaway index rather
/// than serving approximate answers from the wrong grid.
#[test]
fn foreign_epsilon_queries_stay_exact_after_churn() {
    let (pts, eps) = serve_dataset();
    let mut mirror = pts.clone();
    let mut session =
        ServeSession::new(pts, SelfJoinConfig::new(eps), ServeConfig::default()).unwrap();
    session.request(Request::Insert {
        point: [0.42, 0.13],
    });
    mirror.push([0.42, 0.13]);
    session.request(Request::Remove { point_id: 2 });
    mirror.swap_remove(2);

    let foreign = eps * 1.7;
    let responses = session.request(Request::Query {
        point_id: 5,
        epsilon: foreign,
    });
    assert!(responses.is_empty(), "queries queue until a barrier");
    let flushed = session.request(Request::Flush);
    let neighbors = flushed
        .iter()
        .find_map(|r| match &r.reply {
            Reply::Neighbors { neighbors, .. } => Some(neighbors.clone()),
            _ => None,
        })
        .expect("the flush answers the queued query");
    assert_eq!(neighbors, oracle_neighbors(&mirror, 5, foreign));
}

/// Lines that used to kill the daemon — an insert too far away for the
/// grid to index, and a request nested 50,000 arrays deep — each get one
/// typed error reply, leave the dataset untouched, and the next request is
/// still answered exactly.
#[test]
fn far_away_insert_and_deep_nesting_get_typed_errors() {
    let (pts, eps) = serve_dataset();
    let mut session = ServeSession::new(
        pts.clone(),
        SelfJoinConfig::new(eps),
        ServeConfig::default(),
    )
    .unwrap();
    let deep = "[".repeat(50_000);
    let crashers = [
        ("{\"op\": \"insert\", \"point\": [1e30, 1e30]}", "bad_point"),
        (deep.as_str(), "bad_request"),
    ];
    for (line, kind) in crashers {
        let out = session.handle_line(line);
        assert_eq!(out.len(), 1, "one reply per line: {out:?}");
        let doc = json::parse(&out[0]).unwrap();
        assert_eq!(doc.get("ok").and_then(JsonValue::as_bool), Some(false));
        assert_eq!(doc.get("kind").and_then(JsonValue::as_str), Some(kind));

        let query = format!("{{\"op\": \"query\", \"point_id\": 5, \"eps\": {eps}}}");
        assert!(session.handle_line(&query).is_empty());
        let answered = session.handle_line("{\"op\": \"flush\"}");
        let doc = json::parse(&answered[0]).unwrap();
        let neighbors: Vec<u32> = doc
            .get("neighbors")
            .and_then(JsonValue::as_array)
            .expect("the flush answers the queued query")
            .iter()
            .map(|v| v.as_u64().unwrap() as u32)
            .collect();
        assert_eq!(neighbors, oracle_neighbors(&pts, 5, eps));
    }
    assert_eq!(session.num_points(), pts.len());
    let report = session.report();
    assert_eq!(
        (report.errors, report.inserts, report.full_rebuilds),
        (2, 0, 0)
    );
}

/// A request line that is not UTF-8, or longer than the reader's limit,
/// gets one `bad_request` reply from the byte-level reader and the session
/// serves the next line exactly — where a text-line reader would end the
/// whole session on the first invalid byte.
#[test]
fn non_utf8_and_overlong_lines_get_bad_request_and_serving_goes_on() {
    let (pts, eps) = serve_dataset();
    let mut session = ServeSession::new(
        pts.clone(),
        SelfJoinConfig::new(eps),
        ServeConfig::default(),
    )
    .unwrap();
    let query =
        |pid: u32| format!("{{\"op\": \"query\", \"point_id\": {pid}, \"eps\": {eps}}}\r\n");
    let mut input = query(5).into_bytes();
    input.extend_from_slice(b"\xff\xfe garbage\n");
    input.resize(input.len() + simjoin::serve::MAX_LINE_BYTES + 1, b'a');
    input.push(b'\n');
    input.extend_from_slice(query(9).trim_end().as_bytes()); // no final newline

    // A small buffer, so lines straddle many reads.
    let reader = std::io::BufReader::with_capacity(64, input.as_slice());
    let mut replies = Vec::new();
    for line in RequestLines::new(reader) {
        replies.extend(match line.unwrap() {
            Ok(line) => session.handle_line(&line),
            Err(msg) => session.reject_line(msg),
        });
    }
    replies.extend(session.handle_line("{\"op\": \"flush\"}"));

    let docs: Vec<JsonValue> = replies.iter().map(|l| json::parse(l).unwrap()).collect();
    let kinds: Vec<_> = docs
        .iter()
        .filter_map(|d| d.get("kind").and_then(JsonValue::as_str))
        .collect();
    assert_eq!(kinds, ["bad_request", "bad_request"], "{replies:?}");
    for pid in [5u32, 9] {
        let answer = docs
            .iter()
            .find(|d| d.get("point_id").and_then(JsonValue::as_u64) == Some(pid as u64))
            .unwrap_or_else(|| panic!("query {pid} unanswered: {replies:?}"));
        let neighbors: Vec<u32> = answer
            .get("neighbors")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|v| v.as_u64().unwrap() as u32)
            .collect();
        assert_eq!(neighbors, oracle_neighbors(&pts, pid, eps));
    }
    let report = session.report();
    assert_eq!((report.requests, report.errors), (5, 2));
}

/// The wire bytes of every reply kind, pinned: escaping, the f32 → f64
/// widening of ε, and `null` for a non-finite float.
#[test]
fn every_reply_kind_serializes_to_pinned_bytes() {
    let latency = Latency {
        queue_s: 0.5,
        execute_s: 1.25e-6,
        total_s: f64::NAN,
    };
    let line = |reply: Reply| Response { id: 7, reply }.to_json_line();
    let cases = [
        (
            Reply::Neighbors {
                point_id: 3,
                epsilon: 0.25,
                neighbors: vec![1, 9],
                latency,
                coalesced: 2,
                cache_hit: false,
            },
            r#"{"id": 7, "op": "query", "ok": true, "point_id": 3, "eps": 0.25, "neighbors": [1, 9], "queue_s": 0.5, "execute_s": 0.00000125, "total_s": null, "coalesced": 2, "cache_hit": false}"#,
        ),
        (
            Reply::JoinSummary {
                epsilon: 0.1,
                pairs: 40,
                mean_neighbors: 2.5,
                latency,
                coalesced: 1,
                cache_hit: true,
            },
            r#"{"id": 7, "op": "join", "ok": true, "eps": 0.10000000149011612, "pairs": 40, "mean_neighbors": 2.5, "queue_s": 0.5, "execute_s": 0.00000125, "total_s": null, "coalesced": 1, "cache_hit": true}"#,
        ),
        (
            Reply::Inserted {
                point_id: 12,
                reindex: "incremental",
            },
            r#"{"id": 7, "op": "insert", "ok": true, "point_id": 12, "reindex": "incremental"}"#,
        ),
        (
            Reply::Removed {
                point_id: 4,
                moved_id: Some(11),
                reindex: "rebuild",
            },
            r#"{"id": 7, "op": "remove", "ok": true, "point_id": 4, "moved_id": 11, "reindex": "rebuild"}"#,
        ),
        (
            Reply::Removed {
                point_id: 4,
                moved_id: None,
                reindex: "incremental",
            },
            r#"{"id": 7, "op": "remove", "ok": true, "point_id": 4, "moved_id": null, "reindex": "incremental"}"#,
        ),
        (
            Reply::Flushed { executed: 3 },
            r#"{"id": 7, "op": "flush", "ok": true, "executed": 3}"#,
        ),
        (
            Reply::Stats(ServeReport {
                requests: 5,
                launches: 2,
                execute_model_s: 0.125,
                total_p99_s: f64::INFINITY,
                ..ServeReport::default()
            }),
            r#"{"id": 7, "op": "stats", "ok": true, "requests": 5, "queries": 0, "joins": 0, "inserts": 0, "removes": 0, "rejected": 0, "errors": 0, "launches": 2, "coalesced_requests": 0, "cache_hits": 0, "incremental_reindexes": 0, "full_rebuilds": 0, "requantified_cells": 0, "execute_model_s": 0.125, "queue_p50_s": 0, "queue_p99_s": 0, "execute_p50_s": 0, "execute_p99_s": 0, "total_p50_s": 0, "total_p99_s": null}"#,
        ),
        (
            Reply::ShuttingDown,
            r#"{"id": 7, "op": "shutdown", "ok": true}"#,
        ),
        (
            Reply::Error {
                message: "bad \"x\"\\\n\t\u{1}é".into(),
                kind: "bad_request",
            },
            r#"{"id": 7, "ok": false, "error": "bad \"x\"\\\n\t\u0001é", "kind": "bad_request"}"#,
        ),
    ];
    for (reply, expected) in cases {
        let got = line(reply);
        assert_eq!(got, expected);
        json::parse(&got).unwrap();
    }
}
