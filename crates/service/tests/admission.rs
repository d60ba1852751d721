//! The event-driven serve loop and its admission fast path.
//!
//! * A plan already resident in the memo is answered at admission, on the
//!   serve loop itself: it overtakes a cold plan queued ahead of it on a
//!   single worker, lands on trace lane 0, and leaves no queue depth behind.
//! * An admission hit's body is the pool's hit body, byte for byte, apart
//!   from `elapsed_us`.
//! * The loop wakes on completion: a session whose input ends with a cold
//!   plan still in flight drains it and says `bye` without hanging.
//! * An oversized line is answered in-band and the session keeps serving.

use std::path::PathBuf;
use std::sync::mpsc;
use std::time::Duration;

use primepar_obs::{parse_json, parse_trace, Json};
use primepar_service::{
    plan_response_json, request_json, serve_lines, PlanRequest, PlannerService, ServeOptions,
    ServiceOptions, WarmCache, MAX_FRAME_BYTES,
};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("primepar-admission-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(name)
}

/// A small plan: quick to plan cold, and the one the warm cache holds.
fn warm(id: &str) -> PlanRequest {
    PlanRequest::builder("opt-6.7b")
        .id(id)
        .devices(4)
        .batch(8)
        .seq(512)
        .layers(Some(2))
        .build()
}

/// A plan that takes far longer than answering a resident one.
fn cold(id: &str) -> PlanRequest {
    PlanRequest::builder("opt-6.7b")
        .id(id)
        .devices(8)
        .batch(8)
        .seq(1024)
        .layers(Some(1))
        .build()
}

fn frames(reqs: &[PlanRequest]) -> String {
    reqs.iter()
        .map(|req| request_json(req).render() + "\n")
        .collect()
}

/// Runs a serve session on its own thread and fails instead of hanging if
/// it does not end within a generous budget.
fn serve(input: String, opts: ServeOptions) -> Vec<Json> {
    let (tx, rx) = mpsc::channel();
    let session = std::thread::spawn(move || {
        let mut out = Vec::new();
        let end = serve_lines(input.as_bytes(), &mut out, &opts);
        drop(tx.send((end, out)));
    });
    let (end, out) = rx
        .recv_timeout(Duration::from_secs(600))
        .expect("the serve session ended");
    session.join().expect("the session thread exits cleanly");
    end.expect("serves");
    String::from_utf8(out)
        .expect("utf-8 output")
        .lines()
        .map(|line| parse_json(line).expect("every reply is JSON"))
        .collect()
}

fn str_field<'j>(doc: &'j Json, key: &str) -> &'j str {
    doc.get(key).and_then(Json::as_str).unwrap_or_default()
}

#[test]
fn resident_hit_overtakes_a_queued_cold_plan() {
    let cache_file = scratch("hol.cache.json");
    let trace_out = scratch("hol.trace.json");
    let stats_out = scratch("hol.stats.json");
    let seeded = WarmCache::new();
    seeded.execute_plan(&warm("seed")).expect("plans");
    seeded.save(&cache_file).expect("dump");

    // One worker: the cold plan holds it, so on a queue the hit would wait.
    // Both lines are read at once, while the cold plan needs far longer
    // than one loop iteration, so the hit is admitted while it is in flight.
    let replies = serve(
        frames(&[cold("b"), warm("a")]),
        ServeOptions {
            workers: 1,
            cache_file: Some(cache_file.clone()),
            trace_out: Some(trace_out.clone()),
            stats_out: Some(stats_out.clone()),
            ..ServeOptions::default()
        },
    );
    let order: Vec<&str> = replies.iter().map(|doc| str_field(doc, "id")).collect();
    assert_eq!(order, ["a", "b", ""], "the hit answers first: {replies:?}");
    let hit = replies[0].get("cache").expect("cache block");
    assert_eq!(
        hit.get("plan_cache_hit").and_then(Json::as_bool),
        Some(true)
    );
    assert_eq!(hit.get("plan_cache_hits").and_then(Json::as_u64), Some(1));
    assert_eq!(str_field(&replies[2], "type"), "bye");

    // The admission hit's exec span runs on the serve loop's lane 0; the
    // cold plan's on worker lane 1.
    let events = parse_trace(&std::fs::read_to_string(&trace_out).unwrap()).expect("trace");
    let exec_lane = |trace_id: &str| {
        events
            .iter()
            .find(|e| {
                e.name == "exec"
                    && e.args
                        .iter()
                        .any(|(k, v)| k == "trace_id" && v.as_str() == Some(trace_id))
            })
            .map(|e| e.tid)
    };
    assert_eq!(exec_lane(str_field(&replies[0], "trace_id")), Some(0));
    assert_eq!(exec_lane(str_field(&replies[1], "trace_id")), Some(1));

    // Answered at admission still counts as started: nothing queued remains.
    let stats = parse_json(&std::fs::read_to_string(&stats_out).unwrap()).expect("stats");
    let requests = stats.get("requests").expect("requests block");
    assert_eq!(requests.get("queue_depth").and_then(Json::as_u64), Some(0));
    assert_eq!(requests.get("completed").and_then(Json::as_u64), Some(2));
    for path in [cache_file, trace_out, stats_out] {
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn admission_hit_body_equals_the_pool_hit_body() {
    // Two caches restored from one artifact, so they start identical; each
    // answers the same request once — one on the pool, one at admission.
    let artifact = scratch("bodies.cache.json");
    let seeded = WarmCache::new();
    seeded.execute_plan(&warm("seed")).expect("plans");
    seeded.save(&artifact).expect("dump");
    let restored = || {
        let cache = WarmCache::new();
        cache.load(&artifact).expect("restore");
        cache
    };
    let opts = ServiceOptions { workers: 1 };
    let pool_cache = restored();
    let pool = PlannerService::run_with_cache(opts, &pool_cache, |client| {
        client.plan(warm("again")).expect("hits")
    });
    let loop_cache = restored();
    let inline = PlannerService::run_with_cache(opts, &loop_cache, |client| {
        client
            .answer_resident(&warm("again"), None)
            .expect("resident")
            .expect("hits")
    });
    assert!(pool.cache.plan_cache_hit && inline.cache.plan_cache_hit);
    assert_eq!(pool_cache.stats(), loop_cache.stats());
    let body = |resp| {
        let mut doc = plan_response_json(resp, false);
        doc.set("elapsed_us", 0u64);
        doc.render()
    };
    assert_eq!(body(&pool), body(&inline));

    // Only a resident, non-simulating plan is answered outside the pool.
    PlannerService::run_with_cache(opts, &loop_cache, |client| {
        let simulate = PlanRequest {
            simulate: true,
            ..warm("sim")
        };
        assert!(client.answer_resident(&simulate, None).is_none());
        assert!(client.answer_resident(&cold("absent"), None).is_none());
        let unknown = PlanRequest::builder("no-such-model").build();
        assert!(client.answer_resident(&unknown, None).is_none());
    });
    assert_eq!(loop_cache.stats().plan_misses, 0, "the loop never plans");
    std::fs::remove_file(artifact).ok();
}

#[test]
fn eof_with_a_cold_plan_in_flight_drains_and_says_bye() {
    let replies = serve(
        frames(&[cold("late")]),
        ServeOptions {
            workers: 1,
            ..ServeOptions::default()
        },
    );
    assert_eq!(replies.len(), 2, "{replies:?}");
    assert_eq!(str_field(&replies[0], "id"), "late");
    assert_eq!(replies[0].get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(str_field(&replies[1], "type"), "bye");
}

#[test]
fn oversized_line_is_answered_in_band_and_the_session_continues() {
    let mut input = format!(
        "{{\"type\":\"ping\",\"pad\":\"{}\"}}\n",
        "x".repeat(MAX_FRAME_BYTES)
    );
    input.push_str("{\"schema_version\":\"primepar.service.v2\",\"type\":\"ping\"}\n");
    input.push_str("{\"schema_version\":\"primepar.service.v2\",\"type\":\"shutdown\"}\n");
    let replies = serve(input, ServeOptions::default());
    let kinds: Vec<&str> = replies.iter().map(|doc| str_field(doc, "type")).collect();
    assert_eq!(kinds, ["error", "pong", "bye"], "{replies:?}");
    let error = replies[0].get("error").expect("error block");
    assert_eq!(str_field(error, "kind"), "protocol");

    // A line of exactly the limit is still read as a frame.
    let pad = MAX_FRAME_BYTES - "{\"type\":\"ping\",\"pad\":\"\"}".len();
    let exact = format!("{{\"type\":\"ping\",\"pad\":\"{}\"}}\n", "x".repeat(pad));
    let replies = serve(exact, ServeOptions::default());
    let kinds: Vec<&str> = replies.iter().map(|doc| str_field(doc, "type")).collect();
    assert_eq!(kinds, ["pong", "bye"], "{replies:?}");
}
