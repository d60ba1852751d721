//! Benchmark of the PrimePar planner and planner service.
//!
//! ```text
//! primepar-perfbench --workload NAME --seed N --seconds S --trace 0|1
//!                    --primepar PATH --scratch DIR
//! ```
//!
//! Runs one workload (see `README.md` beside this package), checks every
//! output, and prints as its last stdout line one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer metrics. Gate failures are
//! listed on stderr.

mod plan;
mod serve;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

use primepar::obs::Json;

/// End-to-end metrics: `(name, unit)`, reported by every workload with
/// `--trace 0`. Keep in step with `BENCHMARK.json`.
const END_TO_END: &[(&str, &str)] = &[
    ("plan_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics: `(name, unit)`, reported by every workload with
/// `--trace 1`. A metric of a layer the workload does not exercise reads 0
/// (README.md lists which apply where). Keep in step with `BENCHMARK.json`.
const PER_LAYER: &[(&str, &str)] = &[
    ("search.optimize_ms", "ms"),
    ("search.stage_sum_ms", "ms"),
    ("search.spaces_intra_ms", "ms"),
    ("search.edge_matrices_ms", "ms"),
    ("search.prune_ms", "ms"),
    ("search.segment_dp_ms", "ms"),
    ("search.merge_ms", "ms"),
    ("search.compose_ms", "ms"),
    ("search.render_ms", "ms"),
    ("search.bellman_relaxations", "count"),
    ("search.merge_relaxations", "count"),
    ("search.states_pruned", "count"),
    ("search.space_states", "count"),
    ("cost.edge_evaluations", "count"),
    ("cost.intra_evaluations", "count"),
    ("cost.edge_ns_per_cell", "ns"),
    ("cost.edge_matrix_cache_hit_ratio", "ratio"),
    ("cost.profile_cache_hit_ratio", "ratio"),
    ("sim.simulate_ms", "ms"),
    ("sim.iteration_ms", "ms"),
    ("service.hit_p50_us", "us"),
    ("service.hit_p99_us", "us"),
    ("service.hit_rps", "1/s"),
    ("service.cold_p50_ms", "ms"),
    ("service.hit_exec_us", "us"),
    ("service.hit_outside_exec_p50_us", "us"),
    ("service.hit_outside_exec_p99_us", "us"),
    ("service.cold_exec_ms", "ms"),
    ("service.parse_frame_us", "us"),
    ("service.fingerprint_us", "us"),
    ("service.render_us", "us"),
    ("service.response_bytes", "bytes"),
    ("service.hit_ratio", "ratio"),
    ("service.coalesced", "count"),
    ("service.evictions", "count"),
    ("service.queue_depth_max", "count"),
    ("service.worker_busy_ratio", "ratio"),
    ("obs.tracing_overhead_ratio", "ratio"),
];

/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Length of one timed pass.
    pub window: Duration,
    pub trace: bool,
    /// The release `primepar` binary (the `serve-mixed` server).
    pub primepar: PathBuf,
    /// Directory for the traced server's artifacts; removed afterwards.
    pub scratch: PathBuf,
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    /// Operations whose outputs went through the correctness gates.
    pub checked: u64,
    /// Operations that failed or failed a correctness gate.
    pub failed: u64,
    /// One line per gate failure.
    pub failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} needs a whole number"))
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: value("--workload")?.to_string(),
        seed: number("--seed")?,
        window: Duration::from_secs(seconds),
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, got {other}")),
        },
        primepar: PathBuf::from(value("--primepar")?),
        scratch: PathBuf::from(value("--scratch")?),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("primepar-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut outcome = match args.workload.as_str() {
        "plan-zoo16" => plan::run(&args),
        "serve-mixed" => serve::run(&args),
        other => {
            eprintln!("primepar-perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let _ = std::fs::remove_dir(&args.scratch);
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Json::obj();
    for &(name, unit) in table {
        let value = match outcome.metrics.get(name) {
            Some(&v) if v.is_finite() => v,
            Some(&v) => {
                outcome.fail(format!("{name} measured as {v}"));
                0.0
            }
            // A layer this workload never enters did no work.
            None if args.trace => 0.0,
            None => panic!("workload did not report end-to-end metric {name}"),
        };
        metrics.set(name, Json::obj().with("value", value).with("unit", unit));
    }
    for why in &outcome.failures {
        eprintln!("gate failed: {why}");
    }
    eprintln!("gates: {} operation(s) checked", outcome.checked);
    let doc = Json::obj()
        .with("correct", outcome.failed == 0 && outcome.attempted > 0)
        .with("attempted", outcome.attempted)
        .with("failed", outcome.failed)
        .with("metrics", metrics);
    println!("{}", doc.render());
}

/// SplitMix64: the workload generators' only source of randomness, so a seed
/// fixes every generated input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Largest relative disagreement tolerated between a plan's `layer_cost`
/// and the independent evaluator (measured at ≤ 5e-16).
const COST_TOLERANCE: f64 = 1e-12;

/// Whether a planner-reported cost agrees with the independent evaluator's.
pub fn costs_agree(reported: f64, evaluated: f64) -> bool {
    (reported - evaluated).abs() <= COST_TOLERANCE * evaluated.abs()
}

/// The `q`-quantile of `samples` with linear interpolation between order
/// statistics; NaN for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}
