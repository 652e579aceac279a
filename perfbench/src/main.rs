//! Closed-loop benchmark of the live `ScanService`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload wc_small_blocks --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with telemetry off;
//! `--trace 1` is the separate traced run that produces the per-layer
//! metrics and writes the harness spans under `perfbench-out/`. The last
//! line of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. Any output that differs from the benchmark's
//! own reference makes the run exit non-zero. See `perfbench/README.md`.

mod layers;
mod load;
mod stats;
mod workload;

use load::closed_loop;
use s3_engine::{BlockStore, FileSpec, ScanService, ServiceConfig};
use s3_workloads::{PatternWordCount, SelectionJob};
use serde_json::Value;
use stats::{median, percentile};
use std::path::Path;
use std::time::{Duration, Instant};
use workload::{generate_corpus, job_stream, BenchJob, Family, Spec, Workload, BPS, THREADS};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Load before the measured window, so arenas and caches are warm.
const WARMUP: Duration = Duration::from_secs(1);
/// Where the traced run writes its spans and per-job reconciliation.
const OUT_DIR: &str = "perfbench-out";

const USAGE: &str = "usage: perfbench --workload <wc_small_blocks|wc_large_blocks|tpch_select> \
                     --seed <u64> --seconds <1..=600> --trace <0|1>";

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// Timings of the set-up phases, medians over the set-up repetitions.
pub struct SetupTimes {
    pub generate_s: f64,
    pub store_build_s: f64,
    pub service_start_s: f64,
    /// All three together: the end-to-end `setup_s`.
    pub total_s: f64,
}

/// A run's metrics and its correctness tally.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    /// Submissions shed, expired, quarantined or aborted, plus completed
    /// jobs with a wrong output.
    pub failed: u64,
    /// Outputs (service, probe server or `run_merged`) that differ from the
    /// oracle.
    pub mismatched: u64,
    pub identity_holds: bool,
}

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut spec, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                spec = Some(
                    workload::spec(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(1.0..=600.0).contains(&s) {
                    return Err(format!("--seconds {s} is outside 1..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        spec: spec.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let code = match args.spec.family {
        Family::WordCount => run::<PatternWordCount>(&args),
        Family::Selection => run::<SelectionJob>(&args),
    };
    std::process::exit(code);
}

/// Generate the corpus, build the store and start the service, `SETUP_REPS`
/// times; keep the last. Returns the corpus text for the oracle.
fn setup<J: BenchJob>(spec: &Spec, seed: u64) -> (String, BlockStore, ScanService<J>, SetupTimes) {
    let mut phases = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    let mut last: Option<(String, BlockStore, ScanService<J>)> = None;
    for _ in 0..SETUP_REPS {
        // Shut the previous repetition's service down (joining its threads)
        // before timing the next one.
        drop(last.take());
        let t0 = Instant::now();
        let text = generate_corpus(spec, seed);
        let t1 = Instant::now();
        let store = BlockStore::from_text(&text, spec.block_bytes);
        let t2 = Instant::now();
        let svc = ScanService::new(
            vec![FileSpec::new(spec.name, store.clone(), BPS, THREADS)],
            ServiceConfig::default(),
        );
        let t3 = Instant::now();
        for (p, d) in phases.iter_mut().zip([t1 - t0, t2 - t1, t3 - t2, t3 - t0]) {
            p.push(d.as_secs_f64());
        }
        last = Some((text, store, svc));
    }
    let (text, store, svc) = last.expect("at least one set-up repetition");
    let [generate, build, start, total] = phases.map(median);
    let times = SetupTimes {
        generate_s: generate,
        store_build_s: build,
        service_start_s: start,
        total_s: total,
    };
    (text, store, svc, times)
}

fn run<J: BenchJob>(args: &Args) -> i32 {
    let spec = args.spec;
    let cpu0 = cpu_times();
    let (text, store, svc, setup_times) = setup::<J>(spec, args.seed);
    let (kinds, stream) = job_stream(spec, args.seed);
    let w = Workload {
        spec,
        store,
        jobs: kinds.iter().map(J::from_kind).collect(),
        refs: J::oracle(&text, &kinds),
        kinds,
        stream,
    };
    drop(text);
    let file = svc
        .file_id(spec.name)
        .expect("the tenant was just registered");

    let (outcome, artifacts) = if args.trace {
        let (o, a) = layers::traced(&w, file, &svc, args.seconds, &setup_times);
        (o, Some(a))
    } else {
        (end_to_end(&w, file, &svc, args, setup_times.total_s), None)
    };
    svc.shutdown();

    let context = context(args, &cpu0);
    if let Some(a) = &artifacts {
        if let Err(e) = layers::write_outputs(Path::new(OUT_DIR), spec.name, a, &context) {
            eprintln!("perfbench: writing {OUT_DIR}: {e}");
            return 1;
        }
    }
    let Outcome {
        metrics,
        attempted,
        failed,
        mismatched,
        identity_holds,
    } = outcome;
    for m in &metrics {
        println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "context {}",
        serde_json::to_string(&context).expect("JSON values serialize")
    );
    if mismatched > 0 {
        eprintln!("perfbench: {mismatched} job outputs differ from the reference");
    }
    if !identity_holds {
        eprintln!("perfbench: ServiceStats accounting identity does not hold");
    }
    let correct = mismatched == 0 && identity_holds;
    let result = Value::Object(vec![
        ("correct".into(), Value::from(correct)),
        ("attempted".into(), Value::from(attempted)),
        ("failed".into(), Value::from(failed)),
        (
            "metrics".into(),
            Value::Object(
                metrics
                    .iter()
                    .map(|m| {
                        let v = Value::Object(vec![
                            ("value".into(), Value::from(m.value)),
                            ("unit".into(), Value::from(m.unit)),
                        ]);
                        (m.name.to_string(), v)
                    })
                    .collect(),
            ),
        ),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).expect("JSON values serialize")
    );
    if correct {
        0
    } else {
        1
    }
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The untraced run: the end-to-end metrics from one closed-loop window.
fn end_to_end<J: BenchJob>(
    w: &Workload<J>,
    file: s3_engine::FileId,
    svc: &ScanService<J>,
    args: &Args,
    setup_s: f64,
) -> Outcome {
    let run = closed_loop(
        svc,
        file,
        w,
        &mut 0,
        WARMUP,
        Duration::from_secs_f64(args.seconds),
        None,
    );
    let stats = svc.stats();
    let latencies: Vec<f64> = run
        .measured()
        .map(|d| d.latency.as_secs_f64() * 1e3)
        .collect();
    let p95 = percentile(latencies.clone(), 0.95);
    let beyond = latencies.iter().filter(|&&l| l > p95).count();
    println!(
        "{}: {} jobs completed in the {:.1} s window; {beyond} latency samples lie beyond p95{}",
        w.spec.name,
        latencies.len(),
        args.seconds,
        if beyond < 10 {
            " (fewer than 10: lengthen --seconds)"
        } else {
            ""
        }
    );
    let failed = run.failed + run.mismatched;
    println!(
        "failed_frac {} ({failed} of {} submitted)",
        failed as f64 / stats.submitted.max(1) as f64,
        stats.submitted
    );
    Outcome {
        metrics: vec![
            Metric::new("jobs_per_s", run.jobs_per_s(), "1/s"),
            Metric::new("latency_p50_ms", percentile(latencies, 0.5), "ms"),
            Metric::new("latency_p95_ms", p95, "ms"),
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
        ],
        attempted: stats.submitted,
        failed,
        mismatched: run.mismatched,
        identity_holds: stats.identity_holds(),
    }
}

/// Aggregate `cpu` line of `/proc/stat`: (steal, total) jiffies.
fn cpu_times() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.len() == 8).then(|| (fields[7], fields.iter().sum()))
}

/// Run context: not gated, recorded so a number can be read against the
/// host and code it came from.
fn context(args: &Args, cpu0: &Option<(u64, u64)>) -> Value {
    let steal = match (cpu0, cpu_times()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > *t0 => {
            Value::from((s1 - s0) as f64 / (t1 - t0) as f64)
        }
        _ => Value::Null,
    };
    let (loc, digest) = engine_source();
    Value::Object(vec![
        ("workload".into(), Value::from(args.spec.name)),
        ("seed".into(), Value::from(args.seed)),
        ("seconds".into(), Value::from(args.seconds)),
        ("trace".into(), Value::from(args.trace)),
        (
            "commit".into(),
            Value::from(git_head().unwrap_or_else(|| "unknown".into())),
        ),
        (
            "engine_source_fnv64".into(),
            Value::from(format!("{digest:016x}")),
        ),
        ("engine_source_loc".into(), Value::from(loc)),
        (
            "nproc".into(),
            Value::from(std::thread::available_parallelism().map_or(0, |n| n.get()) as u64),
        ),
        ("cpu_steal_share".into(), steal),
    ])
}

/// The checked-out commit, read from `.git` without running git.
fn git_head() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .ok()
            .map(|s| s.trim().to_string())
            .or_else(|| {
                std::fs::read_to_string(".git/packed-refs")
                    .ok()?
                    .lines()
                    .find_map(|l| {
                        let (sha, name) = l.split_once(' ')?;
                        (name == r).then(|| sha.to_string())
                    })
            }),
        None => Some(head.to_string()),
    }
}

/// Lines and an FNV-1a digest of the engine's Rust sources (ROADMAP aim 2
/// tracks engine LOC next to the performance numbers).
fn engine_source() -> (u64, u64) {
    let mut files = Vec::new();
    let mut dirs = vec![Path::new("crates/engine/src").to_path_buf()];
    while let Some(d) = dirs.pop() {
        for entry in std::fs::read_dir(&d).into_iter().flatten().flatten() {
            let p = entry.path();
            if p.is_dir() {
                dirs.push(p);
            } else if p.extension().is_some_and(|e| e == "rs") {
                files.push(p);
            }
        }
    }
    files.sort();
    let (mut loc, mut h) = (0u64, 0xcbf2_9ce4_8422_2325u64);
    for f in files {
        let Ok(src) = std::fs::read(&f) else { continue };
        loc += src.iter().filter(|&&b| b == b'\n').count() as u64;
        for b in src {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    (loc, h)
}
