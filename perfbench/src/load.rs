//! The closed-loop load generator.
//!
//! One generator thread keeps `C` jobs outstanding on a [`ScanService`] and
//! submits a replacement as soon as one resolves, so every job joins the
//! circular scan mid-file at a different segment: the paper's staggered
//! arrivals. A closed loop degrades in proportion when the host loses CPU
//! (steal), where an open loop at a fixed rate builds an unbounded backlog.
//!
//! Each outstanding job has a waiter thread that blocks on its handle,
//! stamps the resolve time, hands the outcome to the generator, and only
//! then compares the output with the oracle.

use crate::workload::{BenchJob, Workload};
use s3_engine::{FileId, QosClass, ScanService};
use s3_obs::trace::Ids;
use s3_obs::TraceRecorder;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// One resolved submission, as its waiter saw it.
pub struct Done {
    /// Submission index within the service (the service's own job id).
    pub id: u64,
    pub class: QosClass,
    /// Wall time of the `submit` call itself.
    pub submit_call: Duration,
    /// Submit call start to resolve observed by the waiter.
    pub latency: Duration,
    /// The job published an output (right or wrong; the oracle check is
    /// counted separately).
    pub ok: bool,
    /// Published inside the measured window.
    pub measured: bool,
}

/// What one closed-loop run produced.
pub struct LoopRun {
    /// Every submission that was not shed, in resolve order.
    pub done: Vec<Done>,
    /// Length of the measured window.
    pub window: Duration,
    /// Submissions that failed: shed, expired, quarantined or aborted.
    pub failed: u64,
    /// Completed jobs whose output differs from the oracle.
    pub mismatched: u64,
    /// Mean of `inflight()` sampled every millisecond (traced runs only).
    pub inflight_mean: Option<f64>,
}

impl LoopRun {
    /// Completed jobs whose resolve fell inside the measured window.
    pub fn measured(&self) -> impl Iterator<Item = &Done> {
        self.done.iter().filter(|d| d.measured)
    }

    pub fn jobs_per_s(&self) -> f64 {
        self.measured().count() as f64 / self.window.as_secs_f64()
    }
}

/// Drive `svc` for `warmup + window`, then stop submitting and wait for the
/// outstanding jobs. `next` is the position in the workload's job stream,
/// carried across calls so consecutive runs continue the stream. With a
/// `tracer`, the generator and waiters record `bench.*` spans keyed by the
/// service job id, and a sampler records the in-flight width.
pub fn closed_loop<J: BenchJob>(
    svc: &ScanService<J>,
    file: FileId,
    w: &Workload<J>,
    next: &mut usize,
    warmup: Duration,
    window: Duration,
    tracer: Option<&TraceRecorder>,
) -> LoopRun {
    let first_id = svc.stats().submitted;
    let mismatched = AtomicU64::new(0);
    let sampling = AtomicBool::new(tracer.is_some());
    let (tx, rx) = mpsc::channel::<Done>();
    let mut done = Vec::new();
    let mut failed = 0;
    let mut inflight_mean = None;

    std::thread::scope(|s| {
        let sampler = tracer.map(|_| {
            s.spawn(|| {
                let (mut sum, mut n) = (0u64, 0u64);
                while sampling.load(Ordering::Relaxed) {
                    sum += svc.inflight(file) as u64;
                    n += 1;
                    std::thread::sleep(Duration::from_millis(1));
                }
                sum as f64 / n.max(1) as f64
            })
        });

        let start = Instant::now();
        let (m0, m1) = (start + warmup, start + warmup + window);
        let mut outstanding = 0usize;
        // Only this thread submits, so the service numbers submissions
        // consecutively from `first_id`.
        let mut next_id = first_id;
        let mut submit_one = |outstanding: &mut usize, failed: &mut u64| {
            let (job, class, kind) = w.draw(*next);
            *next += 1;
            let id = next_id;
            next_id += 1;
            let t_us = tracer.map(|t| t.now_us());
            let submitted = Instant::now();
            let res = svc.submit(file, class, job);
            let submit_call = submitted.elapsed();
            if let (Some(t), Some(t0)) = (tracer, t_us) {
                t.span("bench.submit", t0, Ids::job(id));
            }
            let Ok(handle) = res else {
                *failed += 1;
                return;
            };
            *outstanding += 1;
            let tx = tx.clone();
            let reference = &w.refs[kind];
            let mismatched = &mismatched;
            s.spawn(move || {
                let out = handle.wait();
                let resolved = Instant::now();
                if let (Some(t), Some(t0)) = (tracer, t_us) {
                    t.span("bench.job", t0, Ids::job(id));
                }
                let ok = out.is_ok();
                // The generator may already be gone if it panicked; the
                // scope then re-raises that panic.
                let _ = tx.send(Done {
                    id,
                    class,
                    submit_call,
                    latency: resolved - submitted,
                    ok,
                    measured: ok && resolved >= m0 && resolved < m1,
                });
                if let Ok(out) = out {
                    let v0 = tracer.map(|t| t.now_us());
                    if out.records != *reference {
                        mismatched.fetch_add(1, Ordering::Relaxed);
                    }
                    if let (Some(t), Some(v0)) = (tracer, v0) {
                        t.span("bench.verify", v0, Ids::job(id));
                    }
                }
            });
        };

        for _ in 0..w.spec.outstanding {
            submit_one(&mut outstanding, &mut failed);
        }
        while outstanding > 0 {
            let d = rx
                .recv()
                .expect("a waiter holds a sender while jobs are outstanding");
            outstanding -= 1;
            failed += u64::from(!d.ok);
            done.push(d);
            if Instant::now() < m1 {
                submit_one(&mut outstanding, &mut failed);
            }
        }
        sampling.store(false, Ordering::Relaxed);
        inflight_mean = sampler.map(|h| h.join().expect("inflight sampler"));
    });

    LoopRun {
        done,
        window,
        failed,
        mismatched: mismatched.into_inner(),
        inflight_mean,
    }
}
