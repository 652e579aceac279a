//! The traced run: per-layer numbers for one workload.
//!
//! All timing here comes from the benchmark's own calls into each layer's
//! public functions, plus the engine's existing `Obs` registry and trace
//! (read through [`JobJournal`]). Registry histograms contribute only
//! count, sum and max; every percentile is computed from raw samples.

use crate::load::{closed_loop, Done, LoopRun};
use crate::stats::{median, time_median};
use crate::workload::{selected_record, BenchJob, Draw, Family, Kind, Workload, BPS, THREADS};
use crate::{Metric, Outcome, SetupTimes};
use s3_engine::{
    run_merged_on, BlockStore, ExecConfig, FileId, FileSpec, Obs, QosClass, QosConfig, ScanService,
    ServiceConfig, SharedScanServer, TokenMap, WorkerPool,
};
use s3_obs::chrome::{engine_event_to_chrome, write_chrome_trace};
use s3_obs::trace::{Event, Ids, Phase};
use s3_obs::{HistogramSnapshot, JobJournal, JobRecord, MetricsSnapshot};
use s3_workloads::lineitem::parse_row_bytes;
use serde_json::Value;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Events retained per trace shard: enough for the busiest workload's
/// traced windows without the ring overwriting history.
const TRACE_RING: usize = 1 << 21;
/// Warm-up before each traced or untraced window.
const WARMUP: Duration = Duration::from_millis(500);
/// Largest share of the harness-observed latency that the journal's
/// service-queue + queue + scan + reduce decomposition may leave unexplained.
const RESIDUAL_TOLERANCE: f64 = 0.02;
/// No-op broadcasts timed for `pool.broadcast_us`.
const BROADCASTS: usize = 2000;

/// What the traced run writes out.
pub struct Artifacts {
    /// Per-job reconciliation.
    pub jobs: Vec<Decomposed>,
    /// The harness's own `bench.*` spans.
    pub spans: Vec<Event>,
}

/// One job of a traced window, decomposed.
pub struct Decomposed {
    /// Service job id, shared by the job's `bench.*` spans.
    id: u64,
    /// The tenant server's id for the same job, as the journal knows it.
    engine_id: u64,
    class: QosClass,
    latency_us: f64,
    svc_wait_us: f64,
    queue_us: f64,
    scan_us: f64,
    reduce_us: f64,
    segments: usize,
}

/// The traced run: alternating untraced and traced closed-loop windows,
/// the journal decomposition of the traced jobs, and the per-layer probes
/// and micro-measurements. `untraced_svc` is the set-up's service.
pub fn traced<J: BenchJob>(
    w: &Workload<J>,
    file: FileId,
    untraced_svc: &ScanService<J>,
    seconds: f64,
    setup: &SetupTimes,
) -> (Outcome, Artifacts) {
    let obs = Obs::with_trace_capacity(TRACE_RING);
    let tracer = &obs.core().expect("Obs::with_trace_capacity is on").tracer;
    // One handle for the service and its tenant, so service-queue events
    // and engine events share a clock.
    let mut spec = FileSpec::new(w.spec.name, w.store.clone(), BPS, THREADS);
    spec.server.obs = obs.clone();
    let traced_svc = ScanService::new(
        vec![spec],
        ServiceConfig {
            obs: obs.clone(),
            ..ServiceConfig::default()
        },
    );
    let traced_file = traced_svc
        .file_id(w.spec.name)
        .expect("the tenant was just registered");

    // Alternate untraced and traced windows so host drift biases neither
    // side of the tracing-overhead ratio. Half the run length in total:
    // per-layer numbers carry no regression bound.
    let slice = Duration::from_secs_f64(seconds / 8.0);
    let mut next = 0;
    let (mut plain, mut traced_runs) = (Vec::new(), Vec::new());
    for traced_window in [false, true, false, true] {
        let (svc, f, t, runs) = if traced_window {
            (&traced_svc, traced_file, Some(tracer), &mut traced_runs)
        } else {
            (untraced_svc, file, None, &mut plain)
        };
        runs.push(closed_loop(svc, f, w, &mut next, WARMUP, slice, t));
    }
    let rate = |runs: &[LoopRun]| {
        runs.iter().map(|r| r.measured().count()).sum::<usize>() as f64
            / runs.iter().map(|r| r.window.as_secs_f64()).sum::<f64>()
    };
    let overhead_frac = 1.0 - rate(&traced_runs) / rate(&plain);

    let events = tracer.drain();
    let dropped = tracer.dropped();
    if dropped > 0 {
        eprintln!(
            "warning: the trace ring overwrote {dropped} events; journal numbers are partial"
        );
    }
    let journal = JobJournal::from_events(&events);
    let snap = obs.snapshot().expect("observed service");
    let stats = traced_svc.stats();
    traced_svc.shutdown();

    let measured: Vec<&Done> = traced_runs.iter().flat_map(|r| r.measured()).collect();
    let parts = decompose(&events, &journal, &measured);
    let segment_spans = events
        .iter()
        .filter(|e| e.name == "segment" && e.ph == Phase::Span)
        .count();
    let ridden: usize = journal.jobs.iter().map(|j| j.segments.len()).sum();
    let merged_width = ridden as f64 / segment_spans.max(1) as f64;

    let completed = snap.counter("engine.jobs_completed").max(1) as f64;
    let mut m = Vec::new();
    let (probe_mismatched, claim_ops) = claim_ops_per_segment(w, tracer);
    scan_server_metrics(&mut m, w, &snap, &parts, merged_width, claim_ops, completed);
    journal_metrics(&mut m, &parts);
    service_metrics(&mut m, &traced_runs, &parts, &stats);
    m.push(Metric::new(
        "pool.broadcast_us",
        pool_broadcast_us(tracer),
        "us",
    ));
    m.push(Metric::new(
        "pool.reduce.busy_ms_per_job",
        snap.counter("pool.reduce.busy_us") as f64 / 1e3 / completed,
        "ms",
    ));
    kernel_arena_metrics(&mut m, w, &snap, tracer);
    reduce_metrics(&mut m, &snap, completed);
    let (merged_mismatched, shared) = shared_metrics(w, tracer);
    m.extend(shared);
    m.push(Metric::new("setup.generate_s", setup.generate_s, "s"));
    m.push(Metric::new("setup.store_build_s", setup.store_build_s, "s"));
    m.push(Metric::new(
        "setup.service_start_s",
        setup.service_start_s,
        "s",
    ));
    m.push(Metric::new("obs.overhead_frac", overhead_frac, "fraction"));

    let all_runs = plain.iter().chain(&traced_runs);
    let loop_mismatched: u64 = all_runs.clone().map(|r| r.mismatched).sum();
    let spans = tracer
        .drain()
        .into_iter()
        .chain(events)
        .filter(|e| e.name.starts_with("bench."))
        .collect();
    let outcome = Outcome {
        metrics: m,
        attempted: untraced_svc.stats().submitted + stats.submitted,
        failed: all_runs.map(|r| r.failed).sum::<u64>() + loop_mismatched,
        mismatched: loop_mismatched + merged_mismatched + probe_mismatched,
        identity_holds: stats.identity_holds() && untraced_svc.stats().identity_holds(),
    };
    (outcome, Artifacts { jobs: parts, spans })
}

/// Split each measured traced job's harness latency into the service's
/// admission wait (`svc_submit` → `svc_admit`) and the journal's
/// queue + scan + reduce of the engine job it was dispatched as.
fn decompose(events: &[Event], journal: &JobJournal, measured: &[&Done]) -> Vec<Decomposed> {
    let mut svc_submit: HashMap<u64, u64> = HashMap::new();
    let mut admits = Vec::new();
    let mut engine_ids = Vec::new();
    for e in events {
        match e.name {
            "svc_submit" => {
                svc_submit.insert(e.ids.job, e.ts_us);
            }
            "svc_admit" => admits.push((e.ids.job, e.ts_us)),
            "submit" => engine_ids.push(e.ids.job),
            _ => {}
        }
    }
    // One dispatcher thread emits `svc_admit` and then submits to the
    // tenant server, which numbers its jobs in that order: the k-th
    // admission is engine job k.
    let engine_of: HashMap<u64, (u64, u64)> = admits
        .iter()
        .zip(&engine_ids)
        .map(|(&(svc, admit_us), &engine)| (svc, (engine, admit_us)))
        .collect();
    let records: HashMap<u64, &JobRecord> = journal.jobs.iter().map(|j| (j.id, j)).collect();

    measured
        .iter()
        .filter_map(|d| {
            let submit_us = *svc_submit.get(&d.id)?;
            let &(engine_id, admit_us) = engine_of.get(&d.id)?;
            let rec = records.get(&engine_id)?;
            Some(Decomposed {
                id: d.id,
                engine_id,
                class: d.class,
                latency_us: d.latency.as_secs_f64() * 1e6,
                svc_wait_us: admit_us.saturating_sub(submit_us) as f64,
                queue_us: rec.queue_us as f64,
                scan_us: rec.scan_us as f64,
                reduce_us: rec.reduce_us as f64,
                segments: rec.segments.len(),
            })
        })
        .collect()
}

impl Decomposed {
    fn accounted_us(&self) -> f64 {
        self.svc_wait_us + self.queue_us + self.scan_us + self.reduce_us
    }

    fn to_json(&self) -> Value {
        Value::Object(vec![
            ("id".into(), Value::from(self.id)),
            ("engine_id".into(), Value::from(self.engine_id)),
            ("class".into(), Value::from(format!("{:?}", self.class))),
            ("latency_us".into(), Value::from(self.latency_us)),
            ("svc_wait_us".into(), Value::from(self.svc_wait_us)),
            ("queue_us".into(), Value::from(self.queue_us)),
            ("scan_us".into(), Value::from(self.scan_us)),
            ("reduce_us".into(), Value::from(self.reduce_us)),
            (
                "residual_us".into(),
                Value::from(self.latency_us - self.accounted_us()),
            ),
        ])
    }
}

fn hist<'a>(snap: &'a MetricsSnapshot, name: &str) -> Option<&'a HistogramSnapshot> {
    snap.histograms.get(name).filter(|h| h.count > 0)
}

fn hist_mean(snap: &MetricsSnapshot, name: &str) -> f64 {
    hist(snap, name).map_or(0.0, HistogramSnapshot::mean)
}

fn scan_server_metrics<J: BenchJob>(
    m: &mut Vec<Metric>,
    w: &Workload<J>,
    snap: &MetricsSnapshot,
    parts: &[Decomposed],
    merged_width: f64,
    claim_ops: f64,
    completed: f64,
) {
    let segment_us = hist_mean(snap, "engine.segment_scan_us");
    let compute_us = segment_compute_us(w, merged_width);
    let overhead_us = segment_us - compute_us;
    let ridden = median(parts.iter().map(|p| p.segments as f64).collect());
    let scan_us = median(parts.iter().map(|p| p.scan_us).collect());
    let blocks_per_job = snap.counter("engine.blocks_scanned") as f64 / completed;
    m.push(Metric::new("scan_server.segment_us", segment_us, "us"));
    m.push(Metric::new(
        "scan_server.segment_compute_us",
        compute_us,
        "us",
    ));
    m.push(Metric::new(
        "scan_server.segment_overhead_us",
        overhead_us,
        "us",
    ));
    m.push(Metric::new(
        "scan_server.overhead_share_of_scan",
        overhead_us * ridden / scan_us.max(1.0),
        "fraction",
    ));
    m.push(Metric::new(
        "scan_server.merged_width",
        merged_width,
        "jobs",
    ));
    m.push(Metric::new(
        "scan_server.segments_ridden_per_job",
        ridden,
        "count",
    ));
    m.push(Metric::new(
        "scan_server.segments_per_job",
        snap.counter("engine.segments_scanned") as f64 / completed,
        "count",
    ));
    m.push(Metric::new(
        "scan_server.claim_ops_per_segment",
        claim_ops,
        "count",
    ));
    m.push(Metric::new(
        "scan_server.blocks_per_job",
        blocks_per_job,
        "count",
    ));
    m.push(Metric::new(
        "scan_server.sharing_factor",
        w.store.num_blocks() as f64 / blocks_per_job.max(1e-9),
        "ratio",
    ));
    m.push(Metric::new(
        "scan_server.admit_wait_us",
        hist_mean(snap, "engine.admission_latency_us"),
        "us",
    ));
}

fn journal_metrics(m: &mut Vec<Metric>, parts: &[Decomposed]) {
    let p50 = |f: fn(&Decomposed) -> f64| median(parts.iter().map(f).collect()) / 1e3;
    let total: f64 = parts.iter().map(|p| p.latency_us).sum::<f64>().max(1.0);
    let residual: f64 = parts.iter().map(|p| p.latency_us - p.accounted_us()).sum();
    let residual_frac = residual / total;
    if residual_frac.abs() > RESIDUAL_TOLERANCE {
        eprintln!(
            "warning: journal leaves {:.2}% of harness latency unexplained (tolerance {:.0}%)",
            residual_frac * 100.0,
            RESIDUAL_TOLERANCE * 100.0
        );
    }
    m.push(Metric::new("journal.queue_ms", p50(|p| p.queue_us), "ms"));
    m.push(Metric::new("journal.scan_ms", p50(|p| p.scan_us), "ms"));
    m.push(Metric::new("journal.reduce_ms", p50(|p| p.reduce_us), "ms"));
    m.push(Metric::new(
        "journal.reduce_share",
        parts.iter().map(|p| p.reduce_us).sum::<f64>() / total,
        "fraction",
    ));
    m.push(Metric::new(
        "journal.residual_frac",
        residual_frac,
        "fraction",
    ));
    m.push(Metric::new("journal.jobs", parts.len() as f64, "count"));
}

fn service_metrics(
    m: &mut Vec<Metric>,
    runs: &[LoopRun],
    parts: &[Decomposed],
    stats: &s3_engine::ServiceStats,
) {
    let submit_us: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.done.iter().map(|d| d.submit_call.as_secs_f64() * 1e6))
        .collect();
    m.push(Metric::new("service.submit_us", median(submit_us), "us"));
    for (class, name) in [
        (QosClass::High, "service.queue_wait_ms.high"),
        (QosClass::Normal, "service.queue_wait_ms.normal"),
        (QosClass::Low, "service.queue_wait_ms.low"),
    ] {
        let waits = parts
            .iter()
            .filter(|p| p.class == class)
            .map(|p| (p.svc_wait_us + p.queue_us) / 1e3)
            .collect();
        m.push(Metric::new(name, median(waits), "ms"));
    }
    let (sum, secs) = runs.iter().fold((0.0, 0.0), |(s, t), r| {
        let secs = r.window.as_secs_f64();
        (s + r.inflight_mean.unwrap_or(0.0) * secs, t + secs)
    });
    m.push(Metric::new("service.inflight_mean", sum / secs, "jobs"));
    m.push(Metric::new(
        "service.deferred",
        stats.deferred as f64,
        "count",
    ));
    m.push(Metric::new(
        "service.rejected",
        stats.rejected as f64,
        "count",
    ));
}

/// Round trip of a no-op broadcast to every worker of a fresh pool: the
/// handoff each segment pays twice (fan out, join).
fn pool_broadcast_us(tracer: &s3_obs::TraceRecorder) -> f64 {
    let t0 = tracer.now_us();
    let pool = WorkerPool::new(THREADS);
    let samples = (0..BROADCASTS)
        .map(|_| {
            let t = Instant::now();
            black_box(pool.broadcast(THREADS, &|i| black_box(i)));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    tracer.span("bench.pool_broadcast", t0, Ids::none());
    median(samples)
}

fn kernel_arena_metrics<J: BenchJob>(
    m: &mut Vec<Metric>,
    w: &Workload<J>,
    snap: &MetricsSnapshot,
    tracer: &s3_obs::TraceRecorder,
) {
    let t0 = tracer.now_us();
    let store = black_box(&w.store);
    let (tokenize, lines, fold) = (
        Pass::Shared(Family::WordCount),
        Pass::Shared(Family::Selection),
        Pass::Job(&Kind::AllWords),
    );
    let tokens = run_pass(&tokenize, store.iter()) as f64;
    let tok_s = time_median(5, || run_pass(&tokenize, store.iter()));
    let lines_s = time_median(5, || run_pass(&lines, store.iter()));
    let fold_s = time_median(5, || run_pass(&fold, store.iter()));
    tracer.span("bench.kernel_arena", t0, Ids::none());
    let bytes = store.total_bytes() as f64;
    m.push(Metric::new(
        "kernel.tokenize_gb_per_s",
        bytes / tok_s / 1e9,
        "GB/s",
    ));
    m.push(Metric::new(
        "kernel.lines_gb_per_s",
        bytes / lines_s / 1e9,
        "GB/s",
    ));
    m.push(Metric::new(
        "arena.fold_ns_per_token",
        (fold_s - tok_s) * 1e9 / tokens.max(1.0),
        "ns",
    ));
    let map_records = snap.counter("engine.map_records");
    let hits = snap.counter("engine.combiner_fold_hits");
    m.push(Metric::new(
        "arena.fold_hit_ratio",
        if map_records == 0 {
            0.0
        } else {
            hits as f64 / map_records as f64
        },
        "fraction",
    ));
}

/// Compute of one segment at the given merged width, without the engine's
/// coordination: `THREADS` harness threads split the blocks the way a
/// segment's blocks spread over the scan workers, each running the shared
/// pass (tokenize for wordcount, line split for selection) once per block
/// plus every merged job's own per-record work. Per-job costs are weighted
/// by how often the stream draws each job. The engine's segment time beyond
/// this floor is coordination plus whatever its own scan loop spends above
/// the harness's.
fn segment_compute_us<J: BenchJob>(w: &Workload<J>, width: f64) -> f64 {
    let store = &w.store;
    let shared = Pass::Shared(w.spec.family);
    let shared_s = median((0..3).map(|_| parallel_secs(store, &shared)).collect());
    let per_kind: Vec<f64> = w
        .kinds
        .iter()
        .map(|k| (parallel_secs(store, &Pass::Job(k)) - shared_s).max(0.0))
        .collect();
    let weighted = mean_over_stream(&w.stream, &per_kind);
    let segments = store.num_blocks().div_ceil(BPS) as f64;
    (shared_s + width * weighted) / segments * 1e6
}

fn mean_over_stream(stream: &[Draw], per_kind: &[f64]) -> f64 {
    stream.iter().map(|d| per_kind[d.kind]).sum::<f64>() / stream.len() as f64
}

/// What one pass of the segment model computes.
enum Pass<'k> {
    /// The work every merged job shares: tokenize or split lines.
    Shared(Family),
    /// The shared work plus one job's own per-record work.
    Job(&'k Kind),
}

/// Wall time of one pass over every block on `THREADS` threads, thread `i`
/// taking blocks `i, i + THREADS, …`, each thread with its own accumulator
/// as each engine worker has.
fn parallel_secs(store: &BlockStore, pass: &Pass) -> f64 {
    let t = Instant::now();
    std::thread::scope(|s| {
        for i in 0..THREADS {
            let blocks = (i..store.num_blocks())
                .step_by(THREADS)
                .map(|b| store.block(b));
            s.spawn(move || black_box(run_pass(pass, blocks)));
        }
    });
    t.elapsed().as_secs_f64()
}

/// One pass over `blocks` as the engine's hot loop does it: the shared
/// pass, plus a job's own filter and fold (wordcount) or parse, select and
/// buffer (selection).
fn run_pass<'a>(pass: &Pass, blocks: impl Iterator<Item = &'a [u8]>) -> usize {
    let fold = |a: &mut i64, b: i64| *a += b;
    let mut map = TokenMap::<i64>::new();
    let mut buf: HashMap<String, Vec<String>> = HashMap::new();
    let mut n = 0;
    for block in blocks {
        match pass {
            Pass::Shared(Family::WordCount) => memchr::for_each_token(block, |_| n += 1),
            Pass::Shared(Family::Selection) => n += memchr::lines(block).count(),
            Pass::Job(Kind::AllWords) => {
                memchr::for_each_token(block, |t| map.upsert_within(block, t, 1, fold))
            }
            Pass::Job(Kind::Prefix(p)) => memchr::for_each_token(block, |t| {
                if t.starts_with(p.as_bytes()) {
                    map.upsert_within(block, t, 1, fold);
                }
            }),
            Pass::Job(Kind::Select(threshold)) => {
                for line in memchr::lines(block) {
                    if let Some(row) = parse_row_bytes(line).filter(|r| r.quantity > *threshold) {
                        let (k, v) = selected_record(&row);
                        buf.entry(k).or_default().push(v);
                    }
                }
            }
        }
    }
    n + map.len() + buf.len()
}

fn reduce_metrics(m: &mut Vec<Metric>, snap: &MetricsSnapshot, completed: f64) {
    let records = hist(snap, "engine.reduce_shard_records");
    let shard_us = hist(snap, "engine.reduce_shard_us");
    m.push(Metric::new(
        "reduce.records_per_job",
        records.map_or(0.0, |h| h.sum as f64) / completed,
        "count",
    ));
    m.push(Metric::new(
        "reduce.shard_us_mean",
        shard_us.map_or(0.0, HistogramSnapshot::mean),
        "us",
    ));
    m.push(Metric::new(
        "reduce.shard_us_max",
        shard_us.map_or(0.0, |h| h.max as f64),
        "us",
    ));
    m.push(Metric::new(
        "reduce.shard_imbalance",
        records.map_or(0.0, |h| h.max as f64 / h.mean().max(1e-9)),
        "ratio",
    ));
    m.push(Metric::new(
        "reduce.split_us",
        hist_mean(snap, "engine.shard_split_us"),
        "us",
    ));
}

/// The no-coordination floor: the first `C` jobs of the stream merged into
/// one `run_merged` call, on a two-worker pool and on one worker. Returns
/// the number of outputs that differ from the oracle, and the metrics.
fn shared_metrics<J: BenchJob>(
    w: &Workload<J>,
    tracer: &s3_obs::TraceRecorder,
) -> (u64, Vec<Metric>) {
    let t0 = tracer.now_us();
    let (batch, kinds) = w.first(w.spec.outstanding);
    let jobs: Vec<&J> = batch.iter().collect();
    let mut mismatched = 0;
    let mut timed = |threads: usize| {
        let pool = WorkerPool::new(threads);
        let cfg = ExecConfig::try_new(threads, THREADS).expect("nonzero threads and reducers");
        let mut samples = Vec::new();
        for _ in 0..3 {
            let t = Instant::now();
            let outs = run_merged_on(&pool, &jobs, &w.store, &cfg);
            samples.push(t.elapsed().as_secs_f64() * 1e3);
            mismatched += outs
                .iter()
                .zip(&kinds)
                .filter(|(o, &k)| o.records != w.refs[k])
                .count() as u64;
        }
        median(samples)
    };
    let batch_ms = timed(THREADS);
    let single_ms = timed(1);
    tracer.span("bench.run_merged", t0, Ids::none());
    (
        mismatched,
        vec![
            Metric::new("shared.batch_ms", batch_ms, "ms"),
            Metric::new("shared.single_thread_ms", single_ms, "ms"),
        ],
    )
}

/// Claim operations per segment on a bare `SharedScanServer` with the
/// service's default shape, over one revolution of the stream's first
/// `max_inflight` jobs (the service does not expose the server's counters).
fn claim_ops_per_segment<J: BenchJob>(
    w: &Workload<J>,
    tracer: &s3_obs::TraceRecorder,
) -> (u64, f64) {
    let t0 = tracer.now_us();
    let server = SharedScanServer::new(w.store.clone(), BPS, THREADS);
    let (jobs, kinds) = w.first(w.spec.outstanding.min(QosConfig::default().max_inflight));
    let handles = server.submit_all(jobs);
    let mismatched = handles
        .into_iter()
        .zip(kinds)
        .map(|(h, k)| !matches!(h.wait(), Ok(out) if out.records == w.refs[k]))
        .filter(|&bad| bad)
        .count() as u64;
    let per_segment = server.claim_ops() as f64 / server.iterations().max(1) as f64;
    server.shutdown();
    tracer.span("bench.claim_probe", t0, Ids::none());
    (mismatched, per_segment)
}

/// Write the harness spans (Chrome trace, one track per thread, every
/// span of one job carrying its service id) and the per-job
/// reconciliation table.
pub fn write_outputs(
    dir: &std::path::Path,
    name: &str,
    run: &Artifacts,
    context: &Value,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let events: Vec<_> = run
        .spans
        .iter()
        .map(|e| engine_event_to_chrome(e, 1, "perfbench"))
        .collect();
    let mut spans = std::io::BufWriter::new(std::fs::File::create(
        dir.join(format!("{name}.spans.json")),
    )?);
    write_chrome_trace(&mut spans, &events)?;
    std::io::Write::flush(&mut spans)?;
    let table = Value::Object(vec![
        ("context".into(), context.clone()),
        ("residual_tolerance".into(), Value::from(RESIDUAL_TOLERANCE)),
        (
            "jobs".into(),
            Value::Array(run.jobs.iter().map(Decomposed::to_json).collect()),
        ),
    ]);
    std::fs::write(
        dir.join(format!("{name}.jobs.json")),
        serde_json::to_string_pretty(&table).expect("JSON values serialize"),
    )
}
