//! `s3load` — open-loop SLO driver for the shared-scan server.
//!
//! Submits a Poisson stream of jobs at their scheduled arrival times
//! (open loop: a slow server does not slow the arrivals, so queueing
//! shows up as latency instead of being hidden by back-pressure), then
//! reconstructs per-job timelines from the drained trace via
//! [`JobJournal`] and reports sustained throughput plus windowed
//! tail-latency-over-time through [`WindowedHdr`]:
//!
//! - **admission_us** — submit → admit (the journal's `queue_us`);
//! - **completion_us** — submit → terminal, overall and per window;
//! - **windows** — fixed wall-clock windows over the run, each with its
//!   own HDR summary, so a latency regression that only bites under
//!   backlog is visible as a trend rather than averaged away.
//!
//! Results land in an `slo` section of `BENCH_engine.json` (read-modify-
//! write: the rest of the report is preserved). With `--listen` the
//! server exposes the live Prometheus endpoint and `s3load` self-scrapes
//! it once mid-run, so one process exercises the full export path.
//!
//! ```text
//! cargo run --release -p s3-bench --bin s3load -- \
//!     [--quick] [--jobs N] [--mean-gap-ms MS] [--seed S] [--window-ms MS]
//!     [--threads N] [--bps N] [--listen ADDR] [--journal PATH] [--out PATH]
//! ```

use s3_engine::{
    BlockStore, FileId, FileSpec, JobError, Obs, QosClass, QosConfig, RetryPolicy, ScanService,
    ServerConfig, ServiceConfig, SharedScanServer,
};
use s3_obs::hdr::{HdrHistogram, HdrSummary, WindowedHdr, DEFAULT_SUB_BUCKET_BITS};
use s3_obs::journal::{JobJournal, Outcome};
use s3_obs::prom::scrape_text;
use s3_sim::SimRng;
use s3_workloads::arrivals::ArrivalPattern;
use s3_workloads::jobs::PatternWordCount;
use s3_workloads::text::TextGen;
use s3_workloads::ClassMix;
use std::time::{Duration, Instant};

const BLOCK_BYTES: usize = 4 << 10;
/// Closed windows retained (and reported); older windows are evicted.
const MAX_WINDOWS: usize = 64;

struct Opts {
    jobs: usize,
    mean_gap_ms: f64,
    seed: u64,
    window_ms: u64,
    threads: usize,
    bps: usize,
    corpus_bytes: usize,
    classes: bool,
    listen: Option<String>,
    journal: Option<String>,
    out: String,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            jobs: 60,
            mean_gap_ms: 8.0,
            seed: 7,
            window_ms: 250,
            threads: 2,
            bps: 2,
            corpus_bytes: 1 << 20,
            classes: false,
            listen: None,
            journal: None,
            out: "BENCH_engine.json".into(),
        }
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("s3load: {msg}");
    eprintln!(
        "usage: s3load [--quick] [--classes] [--jobs N] [--mean-gap-ms MS] [--seed S] \
         [--window-ms MS] [--threads N] [--bps N] [--listen ADDR] [--journal PATH] [--out PATH]"
    );
    std::process::exit(2);
}

fn parse_opts() -> Opts {
    let mut o = Opts::default();
    let mut args = std::env::args().skip(1);
    let next = |flag: &str, args: &mut dyn Iterator<Item = String>| {
        args.next().unwrap_or_else(|| fail(&format!("{flag} needs a value")))
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => {
                o.jobs = 24;
                o.mean_gap_ms = 4.0;
                o.window_ms = 100;
                o.corpus_bytes = 256 << 10;
            }
            "--classes" => o.classes = true,
            "--jobs" => o.jobs = next("--jobs", &mut args).parse().unwrap_or_else(|_| fail("bad --jobs")),
            "--mean-gap-ms" => {
                o.mean_gap_ms = next("--mean-gap-ms", &mut args).parse().unwrap_or_else(|_| fail("bad --mean-gap-ms"))
            }
            "--seed" => o.seed = next("--seed", &mut args).parse().unwrap_or_else(|_| fail("bad --seed")),
            "--window-ms" => {
                o.window_ms = next("--window-ms", &mut args).parse().unwrap_or_else(|_| fail("bad --window-ms"))
            }
            "--threads" => o.threads = next("--threads", &mut args).parse().unwrap_or_else(|_| fail("bad --threads")),
            "--bps" => o.bps = next("--bps", &mut args).parse().unwrap_or_else(|_| fail("bad --bps")),
            "--listen" => o.listen = Some(next("--listen", &mut args)),
            "--journal" => o.journal = Some(next("--journal", &mut args)),
            "--out" => o.out = next("--out", &mut args),
            other => fail(&format!("unknown flag {other:?}")),
        }
    }
    if o.jobs == 0 || o.window_ms == 0 || o.mean_gap_ms <= 0.0 {
        fail("--jobs, --window-ms, and --mean-gap-ms must be positive");
    }
    o
}

fn prefix(i: usize) -> String {
    format!("{}a", (b'b' + (i % 20) as u8) as char)
}

fn summary_json(s: &HdrSummary) -> serde_json::Value {
    let text = serde_json::to_string(s).expect("summary serializes");
    serde_json::from_str(&text).expect("summary round-trips")
}

/// The `--classes` mode: a two-phase multi-tenant QoS experiment over
/// [`ScanService`] instead of the bare server.
///
/// **Phase 1 (baseline)** runs High-class jobs one at a time through an
/// uncontended service, measuring solo completion latency — the
/// reference the overload tail is judged against — and deriving the
/// sustainable merged throughput (`max_inflight / mean solo latency`).
///
/// **Phase 2 (overload)** fires the full job count open-loop at ~2× that
/// sustainable rate with the default [`ClassMix`] (20% High / 50% Normal
/// / 30% Low) against deliberately small admission bounds, retrying
/// capacity sheds through [`RetryPolicy`]. Latencies are measured
/// client-side (submit call → handle resolution, polled) per class.
///
/// Results land in a `service` section of `BENCH_engine.json`
/// (read-modify-write like the `slo` section), including the headline
/// degradation ratio: overloaded High p99 over baseline High p99.
fn classes_main(o: &Opts) {
    const TENANTS: [&str; 2] = ["logs", "events"];
    eprintln!("s3load: building 2 × {} KiB corpora...", o.corpus_bytes >> 11);
    let gen = TextGen::new(10_000, 1.1);
    let stores: Vec<BlockStore> = [31u64, 37]
        .iter()
        .map(|s| {
            let text = gen.generate(&mut SimRng::seed_from_u64(*s), o.corpus_bytes / 2);
            BlockStore::from_text(&text, BLOCK_BYTES)
        })
        .collect();
    // Backpressure only protects the tail if the queues are shallow:
    // a deep queue converts overload into latency instead of sheds, and
    // every class (High included) then waits behind the backlog. Bounds
    // of a few jobs keep admitted work close to the serving width, so
    // excess load is shed-and-retried rather than parked. The width is
    // kept narrow too — a merged revolution still runs every rider's
    // map work, so each extra inflight job stretches the revolution
    // every class rides, High included.
    // max_queued_total is deliberately the sum of the per-class caps:
    // if the shared total bound fires first, a burst of Normal/Low fills
    // it and High is rejected at the door — priority orders jobs inside
    // the queues, so shedding High before it reaches a queue defeats the
    // whole point. Per-class caps keep High's queue free under a
    // Normal/Low flood.
    let qos = QosConfig {
        queue_cap: 2,
        max_inflight: 2,
        low_priority_width_cap: 1,
        max_queued_total: 6,
        default_deadline: None,
    };
    // Split the thread budget across tenants instead of multiplying it:
    // each tenant runs its own scan loop, and oversubscribing the host
    // only adds scheduling jitter to every latency measured below.
    let tenant_threads = (o.threads / TENANTS.len()).max(1);
    let build_service = || {
        ScanService::new(
            TENANTS
                .iter()
                .zip(&stores)
                .map(|(name, store)| FileSpec::new(*name, store.clone(), o.bps, tenant_threads))
                .collect(),
            ServiceConfig {
                qos: qos.clone(),
                obs: Obs::off(),
            },
        )
    };

    // ---- phase 1: uncontended High baseline ----
    let svc = build_service();
    let files: Vec<FileId> =
        TENANTS.iter().map(|t| svc.file_id(t).expect("registered")).collect();
    let n_base = (o.jobs / 3).clamp(8, 64);
    let baseline = HdrHistogram::new();
    for i in 0..n_base {
        let t = Instant::now();
        let h = svc
            .submit(files[i % files.len()], QosClass::High, PatternWordCount::prefix(prefix(i)))
            .expect("uncontended submit admits");
        h.wait().expect("baseline job completes");
        baseline.record(t.elapsed().as_micros() as u64);
    }
    let base = baseline.snapshot().summary();

    // ---- phase 1b: measured capacity at full merge width ----
    // Extrapolating capacity from solo latency overestimates badly: a
    // merged revolution shares the scan but still runs every job's map
    // work, so a 4-wide revolution is slower than a solo one. Measure
    // the real drain rate with a closed loop that keeps the width full.
    let n_cap = (2 * n_base).max(16);
    let mut window: std::collections::VecDeque<s3_engine::JobHandle<String, i64>> =
        std::collections::VecDeque::new();
    let t_cap = Instant::now();
    for i in 0..n_cap {
        loop {
            match svc.submit(
                files[i % files.len()],
                QosClass::High,
                PatternWordCount::prefix(prefix(i)),
            ) {
                Ok(h) => {
                    window.push_back(h);
                    break;
                }
                Err(JobError::Rejected { .. }) => {
                    let h = window.pop_front().expect("rejected with empty window");
                    h.wait().expect("capacity job completes");
                }
                Err(e) => panic!("unexpected submit error: {e}"),
            }
        }
    }
    for h in window {
        h.wait().expect("capacity job completes");
    }
    let sustainable = n_cap as f64 / t_cap.elapsed().as_secs_f64().max(1e-9);
    svc.shutdown();
    let overload_rate = 2.0 * sustainable;
    let gap = Duration::from_secs_f64(1.0 / overload_rate);
    eprintln!(
        "s3load: baseline High p50 {:.0} µs p99 {:.0} µs over {n_base} jobs; \
         measured capacity ≈ {sustainable:.0} jobs/s over {n_cap} jobs, \
         overloading at {overload_rate:.0}",
        base.p50, base.p99
    );

    // ---- phase 2: open-loop overload at ~2× sustainable ----
    let svc = build_service();
    let classes = ClassMix::default().assign(o.jobs, o.seed);
    let retry = RetryPolicy {
        max_retries: 2,
        base: Duration::from_micros(500),
        ..RetryPolicy::default()
    };
    struct Flight {
        handle: s3_engine::JobHandle<String, i64>,
        class: QosClass,
        t0: Instant,
    }
    let mut flights: Vec<Flight> = Vec::with_capacity(o.jobs);
    let by_class = |c: QosClass| c.code() as usize;
    let mut submitted = [0u64; 3];
    let mut shed = [0u64; 3];
    let mut retries = 0u64;
    let t0 = Instant::now();
    for (i, &class) in classes.iter().enumerate() {
        let due = gap * i as u32;
        let now = t0.elapsed();
        if now < due {
            std::thread::sleep(due - now);
        }
        submitted[by_class(class)] += 1;
        let file = files[i % files.len()];
        // Latency runs from the FIRST submit attempt: queue wait and any
        // retry backoff are exactly the costs the QoS classes trade
        // against each other, so excluding them would measure only the
        // revolution time every class shares. Jobs shed after retries
        // are counted separately and never enter the histograms.
        let t_submit = Instant::now();
        let res = retry.run(i as u64, |attempt| {
            retries += u64::from(attempt > 0);
            svc.submit(file, class, PatternWordCount::prefix(prefix(i)))
        });
        match res {
            Ok(handle) => flights.push(Flight {
                handle,
                class,
                t0: t_submit,
            }),
            Err(JobError::Rejected { .. }) => shed[by_class(class)] += 1,
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }

    // Poll every in-flight handle so each latency is stamped when the
    // job resolves, not when a sequential wait got around to it.
    let lat: [HdrHistogram; 3] = std::array::from_fn(|_| HdrHistogram::new());
    let mut completed = [0u64; 3];
    let mut expired = [0u64; 3];
    let mut failed = 0u64;
    let deadline = Instant::now() + Duration::from_secs(120);
    while !flights.is_empty() {
        if Instant::now() >= deadline {
            eprintln!("s3load: {} handles unresolved after 120 s", flights.len());
            std::process::exit(1);
        }
        flights.retain_mut(|f| {
            let Some(result) = f.handle.try_take() else {
                return true;
            };
            let us = f.t0.elapsed().as_micros() as u64;
            match result {
                Ok(_) => {
                    completed[by_class(f.class)] += 1;
                    lat[by_class(f.class)].record(us);
                }
                Err(JobError::DeadlineExpired) => expired[by_class(f.class)] += 1,
                Err(_) => failed += 1,
            }
            false
        });
        std::thread::sleep(Duration::from_micros(200));
    }
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let stats = svc.stats();
    svc.shutdown();
    if !stats.identity_holds() {
        eprintln!("s3load: accounting identity FAILED: {stats:?}");
        std::process::exit(1);
    }

    let class_json = |ci: usize, name: &str| {
        let s = lat[ci].snapshot().summary();
        eprintln!(
            "  {name:<7} {:>3} submitted  {:>3} completed  {:>3} shed  {:>3} expired   \
             p50 {:>8.0} µs   p99 {:>8.0} µs",
            submitted[ci], completed[ci], shed[ci], expired[ci], s.p50, s.p99
        );
        serde_json::json!({
            "submitted": (submitted[ci]),
            "completed": (completed[ci]),
            "shed": (shed[ci]),
            "expired": (expired[ci]),
            "completion_us": (summary_json(&s)),
        })
    };
    let total_completed: u64 = completed.iter().sum();
    let sustained = total_completed as f64 / (wall_ms / 1e3).max(1e-9);
    let high = lat[by_class(QosClass::High)].snapshot().summary();
    let degradation = if base.p99 > 0.0 { high.p99 / base.p99 } else { 0.0 };
    eprintln!(
        "s3load: overload done in {wall_ms:.0} ms — {total_completed} completed, \
         {} shed, {failed} failed, {retries} retries",
        shed.iter().sum::<u64>()
    );
    let per_class = serde_json::json!({
        "high": (class_json(by_class(QosClass::High), "high")),
        "normal": (class_json(by_class(QosClass::Normal), "normal")),
        "low": (class_json(by_class(QosClass::Low), "low")),
    });
    eprintln!(
        "  high p99 under 2x overload is {degradation:.2}x the uncontended baseline p99"
    );

    let service = serde_json::json!({
        "schema": "s3service/v1",
        "generated_by": "cargo run --release -p s3-bench --bin s3load -- --classes",
        "config": {
            "jobs": (o.jobs),
            "seed": (o.seed),
            "threads": (o.threads),
            "blocks_per_segment": (o.bps),
            "tenants": (serde_json::Value::Array(
                TENANTS.iter().map(|t| serde_json::Value::from(*t)).collect()
            )),
            "queue_cap": (qos.queue_cap),
            "max_inflight": (qos.max_inflight),
            "low_priority_width_cap": (qos.low_priority_width_cap),
            "max_queued_total": (qos.max_queued_total),
            "class_mix": {"high": 0.2, "normal": 0.5, "low": 0.3},
            "overload_factor": 2.0,
        },
        "baseline_high": {
            "jobs": (n_base),
            "completion_us": (summary_json(&base)),
            "sustainable_jobs_per_sec": sustainable,
        },
        "overload": {
            "offered_jobs_per_sec": overload_rate,
            "sustained_jobs_per_sec": sustained,
            "wall_ms": wall_ms,
            "retries": retries,
            "failed": failed,
            "deferred": (stats.deferred),
            "high_p99_over_baseline": degradation,
            "classes": per_class,
        },
    });
    s3_bench::report::merge_report_file(&o.out, serde_json::json!({ "service": service }))
        .expect("write report");
    eprintln!("s3load: wrote service section into {}", o.out);
}

fn main() {
    let o = parse_opts();
    if o.classes {
        classes_main(&o);
        return;
    }
    let times = ArrivalPattern::Poisson {
        n: o.jobs,
        mean_gap_s: o.mean_gap_ms / 1e3,
        seed: o.seed,
    }
    .times();

    eprintln!("s3load: building {} KiB corpus...", o.corpus_bytes >> 10);
    let gen = TextGen::new(10_000, 1.1);
    let text = gen.generate(&mut SimRng::seed_from_u64(31), o.corpus_bytes);
    let store = BlockStore::from_text(&text, BLOCK_BYTES);

    let mut cfg = ServerConfig::new(o.bps, o.threads);
    cfg.obs = Obs::new();
    cfg.metrics_addr = o.listen.clone();
    let obs = cfg.obs.clone();
    let server = SharedScanServer::with_config(store.clone(), cfg);
    if let Some(addr) = server.metrics_addr() {
        eprintln!("s3load: serving metrics at http://{addr}/metrics");
    }

    eprintln!(
        "s3load: {} jobs, Poisson mean gap {} ms (seed {}), {} blocks, bps={}, {} threads",
        o.jobs,
        o.mean_gap_ms,
        o.seed,
        store.num_blocks(),
        o.bps,
        o.threads
    );

    // ---- open-loop submission ----
    let t0 = Instant::now();
    let mut handles = Vec::with_capacity(o.jobs);
    let mut scrape_lines: Option<usize> = None;
    for (i, &at) in times.iter().enumerate() {
        let due = Duration::from_secs_f64(at);
        let now = t0.elapsed();
        if now < due {
            std::thread::sleep(due - now);
        }
        handles.push(server.submit(PatternWordCount::prefix(prefix(i))));
        // One self-scrape mid-burst proves the live endpoint end to end.
        if i == o.jobs / 2 {
            if let Some(addr) = server.metrics_addr() {
                let body = scrape_text(&addr.to_string()).expect("self-scrape succeeds");
                scrape_lines = Some(body.lines().count());
            }
        }
    }
    let mut completed = 0u64;
    let mut failed = 0u64;
    for h in handles {
        match h.wait() {
            Ok(_) => completed += 1,
            Err(_) => failed += 1,
        }
    }
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    server.shutdown();
    if let Some(n) = scrape_lines {
        eprintln!("s3load: mid-run self-scrape returned {n} exposition lines");
    }

    // ---- journal reconstruction ----
    let core = obs.core().expect("Obs::new is on");
    let events = core.tracer.drain();
    let mut journal = JobJournal::from_events(&events);
    journal.dropped_events = core.tracer.dropped();
    if let Err(e) = journal.validate() {
        eprintln!("s3load: journal FAILED validation: {e}");
        std::process::exit(1);
    }
    let complete = |j: &&s3_obs::journal::JobRecord| j.admit_events == 1 && j.terminal_events == 1;
    if journal.dropped_events > 0 {
        let incomplete = journal.jobs.iter().filter(|j| !complete(j)).count();
        eprintln!(
            "s3load: WARNING: ring overwrote {} events; {incomplete} incomplete job timelines excluded from SLO stats",
            journal.dropped_events
        );
    }
    if let Some(path) = &o.journal {
        let text = serde_json::to_string_pretty(&journal).expect("journal serializes");
        if let Some(dir) = std::path::Path::new(path).parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).expect("create journal dir");
        }
        std::fs::write(path, text + "\n").expect("write journal");
        eprintln!("s3load: wrote journal {path} ({} jobs)", journal.jobs.len());
    }

    // ---- SLO aggregation: overall + windowed HDR summaries ----
    let admission = HdrHistogram::new();
    let completion = HdrHistogram::new();
    let windowed = WindowedHdr::new(DEFAULT_SUB_BUCKET_BITS, MAX_WINDOWS);
    let epoch =
        journal.jobs.iter().filter(&complete).map(|j| j.submit_us).min().unwrap_or(0);
    let window_us = o.window_ms * 1_000;

    let mut done: Vec<_> = journal
        .jobs
        .iter()
        .filter(|j| j.outcome == Outcome::Done)
        .filter(&complete)
        .collect();
    done.sort_by_key(|j| j.terminal_us);
    let mut window_starts: Vec<u64> = Vec::new();
    let mut cur_window = 0u64;
    for j in journal.jobs.iter().filter(&complete) {
        admission.record(j.queue_us);
    }
    for j in &done {
        let k = (j.terminal_us - epoch) / window_us;
        while cur_window < k {
            windowed.rotate();
            window_starts.push(cur_window * window_us);
            cur_window += 1;
        }
        completion.record(j.latency_us);
        windowed.record(j.latency_us);
    }
    windowed.rotate();
    window_starts.push(cur_window * window_us);
    let closed = windowed.windows();
    // Eviction keeps the most recent MAX_WINDOWS snapshots; align starts.
    let starts = &window_starts[window_starts.len() - closed.len()..];
    let windows_json: Vec<serde_json::Value> = closed
        .iter()
        .zip(starts)
        .map(|(snap, &start)| {
            serde_json::json!({
                "start_ms": (start as f64 / 1e3),
                "completed": (snap.count),
                "completion_us": (summary_json(&snap.summary())),
            })
        })
        .collect();

    let first_submit = epoch;
    let last_terminal = done.last().map(|j| j.terminal_us).unwrap_or(epoch);
    let active_s = ((last_terminal - first_submit) as f64 / 1e6).max(1e-9);
    let sustained = completed as f64 / active_s;
    let adm = admission.snapshot().summary();
    let cmp = completion.snapshot().summary();

    eprintln!("s3load: {completed} completed, {failed} failed in {wall_ms:.0} ms");
    eprintln!("  sustained             {sustained:>10.1} jobs/s");
    eprintln!(
        "  admission             p50 {:>8.0} µs   p95 {:>8.0} µs   p99 {:>8.0} µs",
        adm.p50, adm.p95, adm.p99
    );
    eprintln!(
        "  completion            p50 {:>8.0} µs   p95 {:>8.0} µs   p99 {:>8.0} µs",
        cmp.p50, cmp.p95, cmp.p99
    );
    eprintln!("  windows               {} × {} ms", windows_json.len(), o.window_ms);

    // ---- read-modify-write the slo section ----
    let slo = serde_json::json!({
        "schema": "s3slo/v1",
        "generated_by": "cargo run --release -p s3-bench --bin s3load",
        "config": {
            "jobs": (o.jobs),
            "mean_gap_ms": (o.mean_gap_ms),
            "seed": (o.seed),
            "window_ms": (o.window_ms),
            "threads": (o.threads),
            "blocks_per_segment": (o.bps),
            "corpus_bytes": (store.total_bytes()),
            "hdr_relative_error": (s3_obs::HdrSnapshot::empty(DEFAULT_SUB_BUCKET_BITS).relative_error()),
        },
        "submitted": (o.jobs),
        "completed": completed,
        "failed": failed,
        "wall_ms": wall_ms,
        "sustained_jobs_per_sec": sustained,
        "dropped_trace_events": (journal.dropped_events),
        "admission_us": (summary_json(&adm)),
        "completion_us": (summary_json(&cmp)),
        "windows": (serde_json::Value::Array(windows_json)),
    });
    s3_bench::report::merge_report_file(&o.out, serde_json::json!({ "slo": slo }))
        .expect("write report");
    eprintln!("s3load: wrote slo section into {}", o.out);
}
