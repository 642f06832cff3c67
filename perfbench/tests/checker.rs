//! The checker must catch wrong answers: a corrupted pair set and a wrong
//! neighbour list.

use perfbench::check::{check_neighbors, scan_neighbors, PairDigest};
use perfbench::serve_churn::{check_stream, script};
use simjoin::{brute_force_join, ServeConfig, ServeSession};

fn points() -> Vec<[f32; 2]> {
    (0..300u32)
        .map(|i| {
            let x = (i.wrapping_mul(2_654_435_761) % 1000) as f32 / 100.0;
            let y = (i.wrapping_mul(40_503) % 1000) as f32 / 100.0;
            [x, y]
        })
        .collect()
}

#[test]
fn corrupted_pair_sets_are_caught() {
    let pts = points();
    let reference = perfbench::check::reference(&pts, 0.8, 1);
    let mut pairs = brute_force_join(&pts, 0.8);
    assert!(pairs.len() > 10, "the fixture must have pairs to corrupt");
    assert_eq!(PairDigest::of(&pairs), reference);

    let mut altered = pairs.clone();
    altered[3].1 = (altered[3].1 + 1) % pts.len() as u32;
    assert_ne!(PairDigest::of(&altered), reference, "an altered pair");

    let mut duplicated = pairs.clone();
    duplicated[5] = duplicated[6];
    assert_ne!(PairDigest::of(&duplicated), reference, "a duplicated pair");

    pairs.pop();
    assert_ne!(PairDigest::of(&pairs), reference, "a missing pair");
}

#[test]
fn wrong_neighbour_lists_are_caught() {
    let pts = points();
    let q = 17;
    let right = scan_neighbors(&pts, q, 0.8);
    assert!(right.len() > 1);
    assert!(check_neighbors(&pts, q, 0.8, &right).is_ok());
    let mut missing = right.clone();
    missing.pop();
    assert!(check_neighbors(&pts, q, 0.8, &missing).is_err());
    let mut with_self = right.clone();
    with_self.push(q);
    with_self.sort_unstable();
    assert!(check_neighbors(&pts, q, 0.8, &with_self).is_err());
    assert!(check_neighbors(&pts, pts.len() as u32, 0.8, &right).is_err());
}

#[test]
fn a_tampered_serve_reply_is_caught() {
    let pts = points();
    let lines = script(&pts, 0.8, 3, 1000.0, 0.2);
    let config = simjoin::SelfJoinConfig::optimized(0.8).with_host_jobs(1);
    let mut session = ServeSession::new(pts.clone(), config, ServeConfig::default()).unwrap();
    let mut responses = vec![None; lines.len()];
    for line in &lines {
        for r in session.handle_line(&line.text) {
            let doc = sj_telemetry::json::parse(&r).unwrap();
            let id = doc.get("id").and_then(|v| v.as_u64()).unwrap() as usize;
            responses[id] = Some(r);
        }
    }
    assert!(check_stream(&pts, &lines, &responses).is_empty());

    // Drop the last neighbour of the first non-empty neighbour list.
    let (id, reply) = responses
        .iter()
        .enumerate()
        .find_map(|(id, r)| {
            let r = r.as_ref()?;
            (r.contains("\"op\": \"query\"") && !r.contains("\"neighbors\": []"))
                .then(|| (id, r.clone()))
        })
        .expect("some query has neighbours");
    let start = reply.find("\"neighbors\": [").unwrap();
    let end = start + reply[start..].find(']').unwrap();
    let list = &reply[start + "\"neighbors\": [".len()..end];
    let shorter = match list.rfind(", ") {
        Some(cut) => &list[..cut],
        None => "",
    };
    let tampered = format!(
        "{}{shorter}{}",
        &reply[..start + "\"neighbors\": [".len()],
        &reply[end..]
    );
    let mut bad = responses.clone();
    bad[id] = Some(tampered);
    assert_eq!(check_stream(&pts, &lines, &bad).len(), 1);
}
