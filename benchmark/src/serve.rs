//! `serve-mixed`: the release `primepar serve` binary on stdin/stdout,
//! driven by two closed-loop clients multiplexed on its one connection.
//!
//! * The **hot** client repeats plan frames drawn from 8 seeded warm keys,
//!   planned during set-up, so each is a cache hit.
//! * The **cold** client sends keys that never repeat, so each is a real
//!   planner run that inserts into the cache.
//!
//! Each client sends its next frame as soon as its previous reply is read.
//! One thread drives both: it timestamps a reply, sends that client's next
//! frame, and only then parses and checks the reply.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use primepar::api::{parse_frame, plan_response_json, Frame, WarmCache};
use primepar::graph::ModelConfig;
use primepar::obs::{parse_json, Json};
use primepar::search::{evaluate_layer_plan, parse_plan, render_plan, Planner, PlannerOptions};
use primepar::service::SERVICE_SCHEMA;
use primepar::topology::Cluster;

use crate::{costs_agree, median, quantile, Args, Outcome, Rng, SETUP_REPEATS};

const WARM_KEYS: usize = 8;
/// Batch sizes and sequence lengths keys draw from: 9 × 32 shapes per
/// (model, devices), enough that a 30 s run at several times today's
/// planner speed still never repeats a cold key.
const BATCHES: [u64; 9] = [4, 6, 8, 12, 16, 24, 32, 48, 64];
const SEQ_STEP: u64 = 256;
const SEQ_STEPS: usize = 32;
/// Cold-key device counts. Cold keys come in rounds that pair every zoo
/// model with each of these once, in seeded order, so every run plans the
/// same mix. Two thirds plan on 16 devices (≈70–170 ms each) and one third
/// on 8 (≈5–15 ms): the median sits inside the 16-device mode rather than
/// in the gap between the two.
const COLD_DEVICES: [usize; 3] = [16, 16, 8];
/// In the traced session the hot client asks for a `stats` snapshot every
/// this many replies (queue-depth samples).
const STATS_EVERY: usize = 100;
/// `peak_rss_mb` is read after this many cold plans, so it measures the
/// same work however fast the planner runs (the final snapshot stands in
/// when a short run plans fewer).
const RSS_AFTER_COLD: usize = 150;
/// Repetitions of each in-process service-layer call per warm key.
const LAYER_REPS: usize = 200;

#[derive(Clone, PartialEq, Eq, Hash)]
struct Key {
    model: &'static str,
    devices: usize,
    batch: u64,
    seq: u64,
}

impl Key {
    /// A plan frame naming only the key: every planner setting is the
    /// service's default.
    fn frame(&self, id: &str) -> String {
        format!(
            "{{\"schema_version\":\"{SERVICE_SCHEMA}\",\"type\":\"plan\",\"id\":\"{id}\",\
             \"model\":\"{}\",\"devices\":{},\"batch\":{},\"seq\":{}}}",
            self.model, self.devices, self.batch, self.seq
        )
    }

    fn model(&self) -> ModelConfig {
        ModelConfig::by_name(self.model).expect("zoo model")
    }

    fn describe(&self) -> String {
        format!(
            "{} d{} b{} s{}",
            self.model, self.devices, self.batch, self.seq
        )
    }

    /// `layer_cost` of `plan_text` under the independent evaluator.
    fn evaluate(&self, plan_text: &str) -> Option<f64> {
        let graph = self.model().layer_graph(self.batch, self.seq);
        let seqs = parse_plan(&graph, plan_text).ok()?;
        Some(evaluate_layer_plan(
            &Cluster::v100_like(self.devices),
            &graph,
            &seqs,
            0.0,
        ))
    }
}

/// The seeded key stream: 8 distinct warm keys, then cold keys that repeat
/// neither each other nor a warm key.
struct Keys {
    rng: Rng,
    used: HashSet<Key>,
    /// What is left of the current cold round: `(model, devices)` slots.
    round: Vec<(&'static str, usize)>,
}

impl Keys {
    fn new(seed: u64) -> Self {
        Keys {
            rng: Rng::new(seed),
            used: HashSet::new(),
            round: Vec::new(),
        }
    }

    /// A key not drawn before; `model` is seeded when not given.
    fn draw(&mut self, model: Option<&'static str>, devices: usize) -> Option<Key> {
        let models = ModelConfig::all();
        for _ in 0..1000 {
            let key = Key {
                model: model.unwrap_or_else(|| self.rng.pick(&models).name),
                devices,
                batch: *self.rng.pick(&BATCHES),
                seq: SEQ_STEP * (1 + self.rng.below(SEQ_STEPS)) as u64,
            };
            if self.used.insert(key.clone()) {
                return Some(key);
            }
        }
        None
    }

    /// Warm keys plan on 8 devices, so set-up stays short and steady.
    fn warm(&mut self) -> Vec<Key> {
        (0..WARM_KEYS)
            .map(|_| self.draw(None, 8).expect("8 distinct warm keys"))
            .collect()
    }

    /// The next never-repeated cold key; `None` once the key space is spent.
    fn cold(&mut self) -> Option<Key> {
        if self.round.is_empty() {
            self.round = ModelConfig::all()
                .iter()
                .flat_map(|m| COLD_DEVICES.map(|d| (m.name, d)))
                .collect();
            self.rng.shuffle(&mut self.round);
        }
        let (model, devices) = self.round.pop().expect("refilled round");
        self.draw(Some(model), devices)
    }
}

/// What a direct `Planner::optimize` gives for a warm key.
struct Reference {
    plan_text: String,
    total_cost_bits: u64,
}

fn reference(key: &Key) -> Reference {
    let model = key.model();
    let cluster = Cluster::v100_like(key.devices);
    let graph = model.layer_graph(key.batch, key.seq);
    let plan = Planner::new(&cluster, &graph, PlannerOptions::default()).optimize(model.layers);
    Reference {
        plan_text: render_plan(&graph, &plan.seqs),
        total_cost_bits: plan.total_cost.to_bits(),
    }
}

/// A running `primepar serve` and the one connection to it.
struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Server {
    fn spawn(binary: &Path, extra: &[String]) -> Server {
        let mut child = Command::new(binary)
            .arg("serve")
            .args(extra)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn primepar serve");
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        Server {
            child,
            stdin,
            stdout,
        }
    }

    fn send(&mut self, frame: &str) {
        let stdin = self.stdin.as_mut().expect("connection open");
        stdin
            .write_all(format!("{frame}\n").as_bytes())
            .and_then(|()| stdin.flush())
            .expect("write frame");
    }

    /// The next reply line; empty at the end of the stream.
    fn recv(&mut self) -> String {
        let mut line = String::new();
        self.stdout.read_line(&mut line).expect("read reply");
        line.truncate(line.trim_end().len());
        line
    }

    /// Closes the connection, reads what is left of the stream, and waits
    /// for the process. Returns those lines and whether it exited cleanly.
    fn finish(mut self) -> (Vec<String>, bool) {
        drop(self.stdin.take());
        let rest: Vec<String> =
            std::iter::from_fn(|| Some(self.recv()).filter(|l| !l.is_empty())).collect();
        let ok = self.child.wait().map(|s| s.success()).unwrap_or(false);
        (rest, ok)
    }
}

impl Drop for Server {
    /// A session cut short by a panic must not leave its server running.
    fn drop(&mut self) {
        if self.stdin.is_some() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// The first string field `name` of a reply, found without parsing the
/// whole line. Replies render `type` and then `id` before any field whose
/// value could hold such a pattern.
fn leading_field<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let pattern = format!("\"{name}\":\"");
    let start = line.find(&pattern)? + pattern.len();
    let len = line[start..].find('"')?;
    Some(&line[start..start + len])
}

fn stats_frame() -> String {
    format!("{{\"schema_version\":\"{SERVICE_SCHEMA}\",\"type\":\"stats\"}}")
}

fn is_type(doc: &Json, kind: &str) -> bool {
    doc.get("type").and_then(Json::as_str) == Some(kind)
}

/// The number at `path` in `doc`; NaN where there is none.
fn number(doc: &Json, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(doc, |node, key| node.get(key))
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN)
}

/// Spawns a server and plans the warm keys on it: the set-up the hot client
/// relies on. Returns the server, the set-up seconds and the warm replies.
fn set_up(binary: &Path, extra: &[String], warm: &[Key]) -> (Server, f64, Vec<String>) {
    let start = Instant::now();
    let mut server = Server::spawn(binary, extra);
    for (i, key) in warm.iter().enumerate() {
        server.send(&key.frame(&format!("w{i}")));
    }
    let replies: Vec<String> = (0..warm.len()).map(|_| server.recv()).collect();
    (server, start.elapsed().as_secs_f64(), replies)
}

/// Which client a frame belongs to.
enum Client {
    /// Index into the warm keys.
    Hot(usize),
    Cold(Key),
}

/// What one session measured.
#[derive(Default)]
struct Pass {
    setup_s: f64,
    /// Frames sent, warm keys included.
    sent: u64,
    window_s: f64,
    /// Replies that arrived before the window closed.
    hits_in_window: u64,
    colds_in_window: u64,
    hit_latency_us: Vec<f64>,
    hit_exec_us: Vec<f64>,
    hit_outside_us: Vec<f64>,
    hit_bytes: Vec<f64>,
    /// Hot replies served from the cache or coalesced onto another run.
    hit_cached: u64,
    cold_latency_ms: Vec<f64>,
    cold_exec_ms: Vec<f64>,
    /// Cold replies' keys, `layer_cost` and plan text, for the cost gate.
    cold_plans: Vec<(Key, f64, String)>,
    /// The cold replies' planner `metrics` blocks.
    cold_metrics: Vec<Json>,
    /// `stats` snapshots: the traced session's samples, then the final one.
    stats: Vec<Json>,
    /// Server peak RSS once `RSS_AFTER_COLD` cold plans were answered.
    rss_after_cold: Option<f64>,
}

impl Pass {
    fn ops_per_s(&self) -> f64 {
        (self.hits_in_window + self.colds_in_window) as f64 / self.window_s
    }

    fn hit_rps(&self) -> f64 {
        self.hits_in_window as f64 / self.window_s
    }

    fn last_stats(&self, path: &[&str]) -> f64 {
        self.stats.last().map_or(f64::NAN, |s| number(s, path))
    }
}

/// The two clients' state within one session.
struct Clients<'a> {
    warm: &'a [Key],
    keys: Keys,
    hot_rng: Rng,
    next_id: u64,
    outstanding: HashMap<String, (Instant, Client)>,
    cold_open: bool,
}

impl Clients<'_> {
    fn send_hot(&mut self, server: &mut Server, pass: &mut Pass) {
        let slot = self.hot_rng.below(self.warm.len());
        self.send(server, pass, Client::Hot(slot));
    }

    fn send_cold(&mut self, server: &mut Server, pass: &mut Pass) {
        match self.keys.cold() {
            Some(key) => self.send(server, pass, Client::Cold(key)),
            None => self.cold_open = false,
        }
    }

    fn send(&mut self, server: &mut Server, pass: &mut Pass, client: Client) {
        self.next_id += 1;
        let (id, key) = match &client {
            Client::Hot(slot) => (format!("h{}", self.next_id), &self.warm[*slot]),
            Client::Cold(key) => (format!("c{}", self.next_id), key),
        };
        let frame = key.frame(&id);
        self.outstanding.insert(id, (Instant::now(), client));
        server.send(&frame);
        pass.sent += 1;
    }
}

/// One server session: set-up, the two clients for the window, a final
/// `stats` probe, and an orderly close.
fn session(
    args: &Args,
    window: Duration,
    warm: &[Key],
    refs: &[Reference],
    traced: Option<&Path>,
    out: &mut Outcome,
) -> Pass {
    let extra: Vec<String> = traced.map_or_else(Vec::new, |dir| {
        [
            ("--trace-out", "trace.json"),
            ("--event-log", "events.jsonl"),
            ("--stats-out", "stats.json"),
        ]
        .iter()
        .flat_map(|(flag, file)| [flag.to_string(), dir.join(file).display().to_string()])
        .collect()
    });
    let mut pass = Pass {
        window_s: window.as_secs_f64(),
        ..Pass::default()
    };
    let (mut server, setup_s, warm_replies) = set_up(&args.primepar, &extra, warm);
    pass.setup_s = setup_s;
    pass.sent += warm.len() as u64;
    for reply in &warm_replies {
        if !reply.contains("\"ok\":true") {
            out.fail(format!(
                "warm key not planned: {}",
                &reply[..reply.len().min(200)]
            ));
        }
    }

    // Cold keys continue the seeded stream after the warm ones.
    let mut keys = Keys::new(args.seed);
    keys.warm();
    let mut clients = Clients {
        warm,
        keys,
        hot_rng: Rng::new(!args.seed),
        next_id: 0,
        outstanding: HashMap::new(),
        cold_open: true,
    };
    let mut answered = 0u64;
    // `stats` frames sent and not yet answered.
    let mut stats_pending = 0u32;
    if traced.is_some() {
        server.send(&stats_frame());
        stats_pending += 1;
    }
    let start = Instant::now();
    clients.send_hot(&mut server, &mut pass);
    clients.send_cold(&mut server, &mut pass);
    while !clients.outstanding.is_empty() || stats_pending > 0 {
        let line = server.recv();
        let received = Instant::now();
        if line.is_empty() {
            out.fail("serve closed the connection mid-run".into());
            break;
        }
        if leading_field(&line, "type") == Some("stats") {
            let doc = parse_json(&line).expect("stats reply is JSON");
            if pass.rss_after_cold.is_none() && pass.cold_latency_ms.len() >= RSS_AFTER_COLD {
                pass.rss_after_cold = Some(number(&doc, &["stats", "peak_rss_bytes"]));
            }
            pass.stats.push(doc);
            stats_pending -= 1;
            continue;
        }
        let Some(id) = leading_field(&line, "id").map(str::to_string) else {
            out.fail(format!(
                "reply without an id: {}",
                &line[..line.len().min(200)]
            ));
            continue;
        };
        let Some((sent_at, client)) = clients.outstanding.remove(&id) else {
            out.fail(format!("unexpected or repeated reply for {id}"));
            continue;
        };
        answered += 1;
        let in_window = received - start < window;
        // Close the client's loop before spending time on checks.
        if in_window {
            match client {
                Client::Hot(_) => {
                    if traced.is_some() && pass.hit_latency_us.len().is_multiple_of(STATS_EVERY) {
                        server.send(&stats_frame());
                        stats_pending += 1;
                    }
                    clients.send_hot(&mut server, &mut pass);
                }
                Client::Cold(_) if clients.cold_open => clients.send_cold(&mut server, &mut pass),
                Client::Cold(_) => {}
            }
        }

        let doc = match parse_json(&line) {
            Ok(doc) if doc.get("ok").and_then(Json::as_bool) == Some(true) => doc,
            _ => {
                out.fail(format!(
                    "{id}: not an ok reply: {}",
                    &line[..line.len().min(200)]
                ));
                continue;
            }
        };
        let latency_s = (received - sent_at).as_secs_f64();
        let exec_us = number(&doc, &["elapsed_us"]);
        let plan_text = doc
            .get("plan_text")
            .and_then(Json::as_str)
            .unwrap_or_default();
        match client {
            Client::Hot(slot) => {
                pass.hits_in_window += u64::from(in_window);
                pass.hit_latency_us.push(latency_s * 1e6);
                pass.hit_exec_us.push(exec_us);
                pass.hit_outside_us.push(latency_s * 1e6 - exec_us);
                pass.hit_bytes.push((line.len() + 1) as f64);
                let cache = |flag| {
                    doc.get("cache")
                        .and_then(|c| c.get(flag))
                        .and_then(Json::as_bool)
                };
                if cache("plan_cache_hit") == Some(true) || cache("coalesced") == Some(true) {
                    pass.hit_cached += 1;
                }
                out.checked += 1;
                let bits = doc
                    .get("total_cost")
                    .and_then(Json::as_f64)
                    .map(f64::to_bits);
                if plan_text != refs[slot].plan_text || bits != Some(refs[slot].total_cost_bits) {
                    out.fail(format!(
                        "{id}: served plan differs from a direct optimize of {}",
                        warm[slot].describe()
                    ));
                }
            }
            Client::Cold(key) => {
                if pass.cold_latency_ms.len() + 1 == RSS_AFTER_COLD {
                    server.send(&stats_frame());
                    stats_pending += 1;
                }
                pass.colds_in_window += u64::from(in_window);
                pass.cold_latency_ms.push(latency_s * 1e3);
                pass.cold_exec_ms.push(exec_us / 1e3);
                pass.cold_plans
                    .push((key, number(&doc, &["layer_cost"]), plan_text.to_string()));
                if let Some(metrics) = doc.get("metrics") {
                    pass.cold_metrics.push(metrics.clone());
                }
            }
        }
    }

    // Final snapshot: peak RSS, cache counters, worker busy time.
    server.send(&stats_frame());
    match parse_json(&server.recv()) {
        Ok(doc) if is_type(&doc, "stats") => pass.stats.push(doc),
        _ => out.fail("no reply to the final stats frame".into()),
    }
    let (rest, exited) = server.finish();
    if rest.len() != 1 || !rest[0].contains("\"type\":\"bye\"") {
        out.fail(format!("session did not end in exactly one bye: {rest:?}"));
    }
    if !exited {
        out.fail("serve exited with an error".into());
    }
    let unanswered = pass.sent - warm.len() as u64 - answered;
    if unanswered > 0 {
        out.fail(format!("{unanswered} frame(s) never answered"));
    }
    out.attempted += pass.sent;
    for (key, layer_cost, plan_text) in &pass.cold_plans {
        out.checked += 1;
        if !key
            .evaluate(plan_text)
            .is_some_and(|e| costs_agree(*layer_cost, e))
        {
            out.fail(format!(
                "cold plan {}: layer_cost disagrees with the evaluator",
                key.describe()
            ));
        }
    }
    pass
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let warm = Keys::new(args.seed).warm();
    let refs: Vec<Reference> = warm.iter().map(reference).collect();

    if !args.trace {
        // Extra set-ups on servers of their own; the measured session's
        // set-up is the last.
        let mut setups: Vec<f64> = (1..SETUP_REPEATS)
            .map(|_| {
                let (server, setup_s, _) = set_up(&args.primepar, &[], &warm);
                if !server.finish().1 {
                    out.fail("a set-up server exited with an error".into());
                }
                setup_s
            })
            .collect();
        let pass = session(args, args.window, &warm, &refs, None, &mut out);
        setups.push(pass.setup_s);
        out.metrics.insert("plan_ms", median(&pass.cold_latency_ms));
        out.metrics.insert("ops_per_s", pass.ops_per_s());
        let rss = pass
            .rss_after_cold
            .unwrap_or_else(|| pass.last_stats(&["stats", "peak_rss_bytes"]));
        out.metrics.insert("peak_rss_mb", rss / 1e6);
        out.metrics.insert("setup_s", median(&setups));
        return out;
    }

    // Two passes share the run: each gets half of it.
    let window = args.window / 2;
    let untraced = session(args, window, &warm, &refs, None, &mut out);
    let dir = args.scratch.join(format!("serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let traced = session(args, window, &warm, &refs, Some(&dir), &mut out);
    for artifact in ["trace.json", "events.jsonl", "stats.json"] {
        if std::fs::metadata(dir.join(artifact)).map_or(0, |m| m.len()) == 0 {
            out.fail(format!("traced serve wrote no {artifact}"));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    let m = &mut out.metrics;
    m.insert(
        "obs.tracing_overhead_ratio",
        untraced.ops_per_s() / traced.ops_per_s(),
    );
    // Client-side numbers from the untraced session.
    m.insert("service.hit_p50_us", median(&untraced.hit_latency_us));
    m.insert(
        "service.hit_p99_us",
        quantile(&untraced.hit_latency_us, 0.99),
    );
    m.insert("service.hit_rps", untraced.hit_rps());
    m.insert("service.cold_p50_ms", median(&untraced.cold_latency_ms));
    record_service(&traced, m);
    record_planner(&traced.cold_metrics, m);
    record_in_process(&warm, m);
    out
}

/// Service-layer metrics of the traced session.
fn record_service(pass: &Pass, m: &mut BTreeMap<&'static str, f64>) {
    m.insert("service.hit_exec_us", median(&pass.hit_exec_us));
    m.insert(
        "service.hit_outside_exec_p50_us",
        median(&pass.hit_outside_us),
    );
    m.insert(
        "service.hit_outside_exec_p99_us",
        quantile(&pass.hit_outside_us, 0.99),
    );
    m.insert("service.cold_exec_ms", median(&pass.cold_exec_ms));
    m.insert("service.response_bytes", median(&pass.hit_bytes));
    m.insert(
        "service.hit_ratio",
        pass.hit_cached as f64 / pass.hit_latency_us.len().max(1) as f64,
    );
    m.insert(
        "service.coalesced",
        pass.last_stats(&["stats", "cache", "coalesced"]),
    );
    m.insert(
        "service.evictions",
        pass.last_stats(&["stats", "cache", "evictions"]),
    );
    let depths: Vec<f64> = pass
        .stats
        .iter()
        .map(|s| number(s, &["stats", "requests", "queue_depth"]))
        .collect();
    m.insert(
        "service.queue_depth_max",
        depths.iter().copied().fold(0.0, f64::max),
    );
    // Busy share of the workers between the first and last snapshot.
    let busy = |s: &Json| -> (f64, f64, f64) {
        let workers = s
            .get("stats")
            .and_then(|s| s.get("workers"))
            .and_then(Json::as_array)
            .unwrap_or_default();
        let busy_us: f64 = workers.iter().map(|w| number(w, &["busy_us"])).sum();
        (
            busy_us,
            number(s, &["stats", "uptime_us"]),
            workers.len() as f64,
        )
    };
    if let (Some(first), Some(last)) = (pass.stats.first(), pass.stats.last()) {
        let ((b0, t0, _), (b1, t1, workers)) = (busy(first), busy(last));
        m.insert(
            "service.worker_busy_ratio",
            (b1 - b0) / (workers * (t1 - t0)),
        );
    }
}

/// Planner-layer metrics of the cold plans, read from each reply's
/// `metrics` block. Times are medians over plans; counts are means.
fn record_planner(blocks: &[Json], m: &mut BTreeMap<&'static str, f64>) {
    if blocks.is_empty() {
        return;
    }
    let seconds = |b: &Json, name: &str| number(b, &[name, "seconds"]);
    let prefixed_sum = |b: &Json, prefix: &str, suffix: &str| -> f64 {
        b.as_object()
            .unwrap_or_default()
            .iter()
            .filter(|(k, _)| k.starts_with(prefix) && k.ends_with(suffix))
            .filter_map(|(_, v)| v.as_f64())
            .sum()
    };
    let stage = |b: &Json, s: &str| seconds(b, &format!("planner.stage.{s}_seconds"));
    let stages = [
        "spaces_intra",
        "beam",
        "prune",
        "edge_matrices",
        "segment_dp",
        "merge",
        "compose",
    ];
    let ms =
        |f: &dyn Fn(&Json) -> f64| median(&blocks.iter().map(|b| f(b) * 1e3).collect::<Vec<_>>());
    let mean = |f: &dyn Fn(&Json) -> f64| blocks.iter().map(f).sum::<f64>() / blocks.len() as f64;
    m.insert(
        "search.optimize_ms",
        ms(&|b| seconds(b, "planner.total_seconds")),
    );
    m.insert(
        "search.stage_sum_ms",
        ms(&|b| stages.iter().map(|s| stage(b, s)).sum()),
    );
    for (name, s) in [
        ("search.spaces_intra_ms", "spaces_intra"),
        ("search.edge_matrices_ms", "edge_matrices"),
        ("search.prune_ms", "prune"),
        ("search.segment_dp_ms", "segment_dp"),
        ("search.merge_ms", "merge"),
        ("search.compose_ms", "compose"),
    ] {
        m.insert(name, ms(&|b| stage(b, s)));
    }
    let count = |b: &Json, name: &str| number(b, &[name]);
    m.insert(
        "search.bellman_relaxations",
        mean(&|b| prefixed_sum(b, "planner.segment.", ".bellman_relaxations")),
    );
    m.insert(
        "search.merge_relaxations",
        mean(&|b| count(b, "planner.merge_relaxations")),
    );
    m.insert(
        "search.states_pruned",
        mean(&|b| count(b, "planner.prune.states_pruned")),
    );
    m.insert(
        "search.space_states",
        mean(&|b| prefixed_sum(b, "planner.space.", ".size")),
    );
    m.insert(
        "cost.edge_evaluations",
        mean(&|b| count(b, "planner.edge_evaluations")),
    );
    m.insert(
        "cost.intra_evaluations",
        mean(&|b| count(b, "planner.intra_evaluations")),
    );
    let total = |name: &str| blocks.iter().map(|b| count(b, name)).sum::<f64>();
    let ratio = |kind: &str| {
        let hits = total(&format!("planner.cache.{kind}.hits"));
        hits / (hits + total(&format!("planner.cache.{kind}.misses"))).max(1.0)
    };
    m.insert("cost.edge_matrix_cache_hit_ratio", ratio("edge_matrix"));
    m.insert("cost.profile_cache_hit_ratio", ratio("profile"));
    let edge_s: f64 = blocks.iter().map(|b| stage(b, "edge_matrices")).sum();
    m.insert(
        "cost.edge_ns_per_cell",
        edge_s * 1e9 / total("planner.edge_evaluations").max(1.0),
    );
}

/// The reader-side service calls, timed in process on the workload's own
/// hot frames: `parse_frame`, `PlanRequest::fingerprint`, and rendering the
/// `plan_response` JSON.
fn record_in_process(warm: &[Key], m: &mut BTreeMap<&'static str, f64>) {
    let cache = WarmCache::new();
    let (mut parse_us, mut fingerprint_us, mut render_us) = (Vec::new(), Vec::new(), Vec::new());
    for (i, key) in warm.iter().enumerate() {
        let frame = key.frame(&format!("h{i}"));
        let Ok(Frame::Plan(req)) = parse_frame(&frame).map(|p| p.frame) else {
            panic!("hot frame does not parse as a plan frame");
        };
        let resp = cache.execute_plan(&req).expect("warm key plans");
        for _ in 0..LAYER_REPS {
            let t = Instant::now();
            black_box(parse_frame(black_box(&frame)).is_ok());
            parse_us.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            black_box(req.fingerprint().is_ok());
            fingerprint_us.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            black_box(plan_response_json(&resp, false).render());
            render_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    m.insert("service.parse_frame_us", median(&parse_us));
    m.insert("service.fingerprint_us", median(&fingerprint_us));
    m.insert("service.render_us", median(&render_us));
}
