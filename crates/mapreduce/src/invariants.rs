//! Trace-level invariant checking: global safety properties every
//! scheduler must uphold, proven from an execution [`Trace`] alone.
//!
//! The chaos harness (`s3chaos`) replays every trace through
//! [`InvariantChecker::check`], which asserts:
//!
//! 1. **Time order** — events are recorded in non-decreasing time.
//! 2. **Job lifecycle** — every job is submitted exactly once at its
//!    request time, completed exactly once no earlier than submission, and
//!    receives no work after completion.
//! 3. **Scan coverage** — every block of every job's file is scanned
//!    exactly once on the job's behalf (at-least-once when speculative
//!    execution may discard duplicate wins), and never a block outside the
//!    job's file. This is the paper's correctness core: circular scans,
//!    mid-scan admission, failure re-execution and dynamic sub-job
//!    adjustment must all preserve one logical pass per job.
//! 4. **No work on dead nodes** — no task starts on a node at or after its
//!    TaskTracker death.
//! 5. **No work on excluded slots** — between a [`TraceKind::SlotExcluded`]
//!    and the matching [`TraceKind::SlotReadmitted`], the excluded node
//!    must not start any task (periodic slot checking, Section IV-D-1).
//! 6. **Slot capacity** — concurrent tasks per node never exceed its
//!    configured map/reduce slots, and no task ends without a start.
//! 7. **Batch consistency** — all events of one batch agree on the merged
//!    job set, all merged jobs target the same file, every attempt is
//!    resolved (ended or failed), each block succeeds exactly once per
//!    batch, and the batch's blocks form one contiguous (circular) segment
//!    of the file's block sequence — batches only merge sub-jobs targeting
//!    the same segment.

//!
//! [`check_engine_events`] applies the same discipline to the *real*
//! engine: it checks a drained `s3-obs` trace from a
//! `s3_engine::SharedScanServer` run — possibly one with injected faults —
//! for the engine-level safety properties (unique terminal outcome per
//! job, single admission, well-paired worker exclusion).

use crate::batch::BatchKey;
use crate::job::{JobId, JobRequest};
use crate::trace::{Trace, TraceEvent, TraceKind};
use s3_cluster::{ClusterTopology, FailureSchedule, NodeId};
use s3_dfs::{BlockId, Dfs, FileId};
use s3_obs::trace::{Event as ObsEvent, NO_ID};
use s3_sim::SimTime;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// One invariant violation found in a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Short name of the violated invariant (stable, grep-friendly).
    pub invariant: &'static str,
    /// Simulated time of the offending event (or `SimTime::ZERO` for
    /// whole-trace properties such as missing coverage).
    pub at: SimTime,
    /// Human-readable description of what went wrong.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] at {}: {}", self.invariant, self.at, self.detail)
    }
}

/// Checks a trace against the world it was recorded in.
///
/// Borrow the same cluster, DFS, workload and failure schedule the
/// simulation ran with; the checker never re-runs the simulation.
pub struct InvariantChecker<'a> {
    /// Topology the trace ran on (slot capacities).
    pub cluster: &'a ClusterTopology,
    /// Block store (file membership, block order).
    pub dfs: &'a Dfs,
    /// The submitted jobs (expected lifecycles and files).
    pub workload: &'a [JobRequest],
    /// Injected TaskTracker deaths.
    pub failures: &'a FailureSchedule,
    /// Whether speculative execution ran: duplicate successful scans of a
    /// block are then legal (the engine discards rival wins), so coverage
    /// is checked at-least-once instead of exactly-once.
    pub speculation: bool,
}

impl InvariantChecker<'_> {
    /// Run every invariant over `trace`; empty result means all hold.
    pub fn check(&self, trace: &Trace) -> Vec<Violation> {
        let mut out = Vec::new();
        self.check_time_order(trace, &mut out);
        self.check_job_lifecycle(trace, &mut out);
        self.check_scan_coverage(trace, &mut out);
        self.check_dead_nodes(trace, &mut out);
        self.check_excluded_slots(trace, &mut out);
        self.check_slot_capacity(trace, &mut out);
        self.check_batch_consistency(trace, &mut out);
        out
    }

    fn check_time_order(&self, trace: &Trace, out: &mut Vec<Violation>) {
        for pair in trace.events().windows(2) {
            if pair[1].at < pair[0].at {
                out.push(Violation {
                    invariant: "time-order",
                    at: pair[1].at,
                    detail: format!(
                        "event at {} recorded after event at {}",
                        pair[1].at, pair[0].at
                    ),
                });
            }
        }
    }

    fn check_job_lifecycle(&self, trace: &Trace, out: &mut Vec<Violation>) {
        for req in self.workload {
            let submits: Vec<&TraceEvent> = trace
                .of_kind(TraceKind::JobSubmitted)
                .filter(|e| e.jobs.contains(&req.id))
                .collect();
            let completes: Vec<&TraceEvent> = trace
                .of_kind(TraceKind::JobCompleted)
                .filter(|e| e.jobs.contains(&req.id))
                .collect();
            if submits.len() != 1 {
                out.push(Violation {
                    invariant: "job-lifecycle",
                    at: SimTime::ZERO,
                    detail: format!("{} submitted {} times", req.id, submits.len()),
                });
            } else if submits[0].at != req.submit {
                out.push(Violation {
                    invariant: "job-lifecycle",
                    at: submits[0].at,
                    detail: format!(
                        "{} submitted at {} but requested at {}",
                        req.id, submits[0].at, req.submit
                    ),
                });
            }
            if completes.len() != 1 {
                out.push(Violation {
                    invariant: "job-lifecycle",
                    at: SimTime::ZERO,
                    detail: format!("{} completed {} times", req.id, completes.len()),
                });
                continue;
            }
            let done = completes[0].at;
            if done < req.submit {
                out.push(Violation {
                    invariant: "job-lifecycle",
                    at: done,
                    detail: format!("{} completed at {} before submission", req.id, done),
                });
            }
            // No work may *start* on the job's behalf after its completion.
            // Scan the suffix of the trace after the completion event.
            let done_idx = trace
                .events()
                .iter()
                .position(|e| std::ptr::eq(e, completes[0]))
                .expect("completion event present");
            for e in &trace.events()[done_idx + 1..] {
                if matches!(e.kind, TraceKind::MapStart | TraceKind::ReduceStart)
                    && e.jobs.contains(&req.id)
                {
                    out.push(Violation {
                        invariant: "job-lifecycle",
                        at: e.at,
                        detail: format!("{:?} for {} after its completion", e.kind, req.id),
                    });
                }
            }
        }
    }

    fn check_scan_coverage(&self, trace: &Trace, out: &mut Vec<Violation>) {
        // Successful scans credited to each job.
        let mut scans: BTreeMap<JobId, BTreeMap<BlockId, u32>> = BTreeMap::new();
        for e in trace.of_kind(TraceKind::MapEnd) {
            let Some(block) = e.block else {
                out.push(Violation {
                    invariant: "scan-coverage",
                    at: e.at,
                    detail: "MapEnd without a block".into(),
                });
                continue;
            };
            for &job in &e.jobs {
                *scans.entry(job).or_default().entry(block).or_insert(0) += 1;
            }
        }
        for req in self.workload {
            let seen = scans.remove(&req.id).unwrap_or_default();
            let file_blocks: BTreeSet<BlockId> =
                self.dfs.file(req.file).blocks.iter().copied().collect();
            for (&block, &count) in &seen {
                if !file_blocks.contains(&block) {
                    out.push(Violation {
                        invariant: "scan-coverage",
                        at: SimTime::ZERO,
                        detail: format!("{} scanned {block} outside its file", req.id),
                    });
                } else if count != 1 && !self.speculation {
                    out.push(Violation {
                        invariant: "scan-coverage",
                        at: SimTime::ZERO,
                        detail: format!("{} scanned {block} {count} times", req.id),
                    });
                }
            }
            for &block in &file_blocks {
                if !seen.contains_key(&block) {
                    out.push(Violation {
                        invariant: "scan-coverage",
                        at: SimTime::ZERO,
                        detail: format!("{} never scanned {block}", req.id),
                    });
                }
            }
        }
        for (job, _) in scans {
            out.push(Violation {
                invariant: "scan-coverage",
                at: SimTime::ZERO,
                detail: format!("scans credited to unknown {job}"),
            });
        }
    }

    fn check_dead_nodes(&self, trace: &Trace, out: &mut Vec<Violation>) {
        for e in trace.events() {
            if !matches!(e.kind, TraceKind::MapStart | TraceKind::ReduceStart) {
                continue;
            }
            let node = e.node.expect("task events carry a node");
            if !self.failures.is_alive(node, e.at) {
                out.push(Violation {
                    invariant: "dead-node",
                    at: e.at,
                    detail: format!("{:?} on {node} at/after its death", e.kind),
                });
            }
        }
    }

    fn check_excluded_slots(&self, trace: &Trace, out: &mut Vec<Violation>) {
        let mut excluded: BTreeSet<NodeId> = BTreeSet::new();
        for e in trace.events() {
            match e.kind {
                TraceKind::SlotExcluded => {
                    excluded.insert(e.node.expect("exclusion names a node"));
                }
                TraceKind::SlotReadmitted => {
                    let node = e.node.expect("readmission names a node");
                    if !excluded.remove(&node) {
                        out.push(Violation {
                            invariant: "excluded-slot",
                            at: e.at,
                            detail: format!("{node} re-admitted but was not excluded"),
                        });
                    }
                }
                TraceKind::MapStart | TraceKind::ReduceStart => {
                    let node = e.node.expect("task events carry a node");
                    if excluded.contains(&node) {
                        out.push(Violation {
                            invariant: "excluded-slot",
                            at: e.at,
                            detail: format!("{:?} on excluded {node}", e.kind),
                        });
                    }
                }
                _ => {}
            }
        }
    }

    fn check_slot_capacity(&self, trace: &Trace, out: &mut Vec<Violation>) {
        let n = self.cluster.num_nodes();
        let mut open_maps = vec![0i64; n];
        let mut open_reduces = vec![0i64; n];
        for e in trace.events() {
            let (open, cap, is_start) = match e.kind {
                TraceKind::MapStart => (&mut open_maps, true, true),
                TraceKind::MapEnd | TraceKind::MapFailed => (&mut open_maps, true, false),
                TraceKind::ReduceStart => (&mut open_reduces, false, true),
                TraceKind::ReduceEnd | TraceKind::ReduceFailed => {
                    (&mut open_reduces, false, false)
                }
                _ => continue,
            };
            let node = e.node.expect("task events carry a node");
            let idx = node.0 as usize;
            if is_start {
                open[idx] += 1;
                let limit = if cap {
                    self.cluster.node(node).spec.map_slots
                } else {
                    self.cluster.node(node).spec.reduce_slots
                } as i64;
                if open[idx] > limit {
                    out.push(Violation {
                        invariant: "slot-capacity",
                        at: e.at,
                        detail: format!(
                            "{node} runs {} concurrent {} tasks (capacity {limit})",
                            open[idx],
                            if cap { "map" } else { "reduce" },
                        ),
                    });
                }
            } else {
                open[idx] -= 1;
                if open[idx] < 0 {
                    out.push(Violation {
                        invariant: "slot-capacity",
                        at: e.at,
                        detail: format!("{:?} on {node} without a matching start", e.kind),
                    });
                }
            }
        }
    }

    fn check_batch_consistency(&self, trace: &Trace, out: &mut Vec<Violation>) {
        struct BatchView {
            jobs: Vec<JobId>,
            first_at: SimTime,
            // Per block: (starts, ends, fails).
            attempts: BTreeMap<BlockId, (u32, u32, u32)>,
        }
        let mut batches: BTreeMap<BatchKey, BatchView> = BTreeMap::new();
        for e in trace.events() {
            let Some(key) = e.batch else { continue };
            let view = batches.entry(key).or_insert_with(|| BatchView {
                jobs: e.jobs.clone(),
                first_at: e.at,
                attempts: BTreeMap::new(),
            });
            if view.jobs != e.jobs {
                out.push(Violation {
                    invariant: "batch-consistency",
                    at: e.at,
                    detail: format!(
                        "{key:?} job set changed from {:?} to {:?}",
                        view.jobs, e.jobs
                    ),
                });
            }
            if let Some(block) = e.block {
                let slot = view.attempts.entry(block).or_insert((0, 0, 0));
                match e.kind {
                    TraceKind::MapStart => slot.0 += 1,
                    TraceKind::MapEnd => slot.1 += 1,
                    TraceKind::MapFailed => slot.2 += 1,
                    _ => {}
                }
            }
        }

        let job_file: BTreeMap<JobId, FileId> =
            self.workload.iter().map(|r| (r.id, r.file)).collect();
        for (key, view) in &batches {
            // All merged jobs must target one file.
            let files: BTreeSet<FileId> = view
                .jobs
                .iter()
                .filter_map(|j| job_file.get(j).copied())
                .collect();
            if files.len() != 1 {
                out.push(Violation {
                    invariant: "batch-consistency",
                    at: view.first_at,
                    detail: format!("{key:?} merges jobs over files {files:?}"),
                });
                continue;
            }
            let file = *files.iter().next().expect("one file");
            let file_blocks = &self.dfs.file(file).blocks;

            // Every attempt resolved; exactly one success per block.
            for (&block, &(starts, ends, fails)) in &view.attempts {
                if starts != ends + fails {
                    out.push(Violation {
                        invariant: "batch-consistency",
                        at: view.first_at,
                        detail: format!(
                            "{key:?} {block}: {starts} starts vs {ends} ends + {fails} fails"
                        ),
                    });
                }
                if ends != 1 && !self.speculation {
                    out.push(Violation {
                        invariant: "batch-consistency",
                        at: view.first_at,
                        detail: format!("{key:?} {block} succeeded {ends} times"),
                    });
                }
            }

            // The batch's blocks form one contiguous circular run of the
            // file's block sequence: one segment, as merged sub-jobs must.
            let index_of: BTreeMap<BlockId, usize> = file_blocks
                .iter()
                .enumerate()
                .map(|(i, &b)| (b, i))
                .collect();
            let mut indices: Vec<usize> = Vec::with_capacity(view.attempts.len());
            for &block in view.attempts.keys() {
                match index_of.get(&block) {
                    Some(&i) => indices.push(i),
                    None => out.push(Violation {
                        invariant: "batch-consistency",
                        at: view.first_at,
                        detail: format!("{key:?} scanned {block} outside {file:?}"),
                    }),
                }
            }
            indices.sort_unstable();
            let n = file_blocks.len();
            if !indices.is_empty() && indices.len() < n {
                // Count circular gaps; a single segment has exactly one.
                let mut gaps = 0;
                for w in indices.windows(2) {
                    if w[1] != w[0] + 1 {
                        gaps += 1;
                    }
                }
                if (indices[0] + n - indices[indices.len() - 1]) % n != 1 {
                    gaps += 1;
                }
                if gaps != 1 {
                    out.push(Violation {
                        invariant: "batch-consistency",
                        at: view.first_at,
                        detail: format!(
                            "{key:?} blocks are not one contiguous segment ({gaps} gaps)"
                        ),
                    });
                }
            }
        }
    }
}

/// Check a drained `s3-obs` engine trace (from a
/// `s3_engine::SharedScanServer` run, faulty or not) for the engine-level
/// safety invariants. Empty result means all hold.
///
/// 1. **Unique terminal** — every `submit` reaches exactly one terminal
///    event (`job_done`, `quarantine`, `job_aborted`, or `job_expired`),
///    no earlier than its submission; no terminal names an unsubmitted
///    job.
/// 2. **Single admission** — a job is admitted at most once, and a job
///    that finished cleanly (`job_done`) or panicked mid-scan
///    (`quarantine`) was admitted exactly once. Only `job_aborted` and
///    `job_expired` may hit a never-admitted job (shutdown or a deadline
///    raced the submit).
/// 3. **Paired exclusion** — per worker, `slot_excluded` and
///    `slot_readmitted` strictly alternate starting with an exclusion.
/// 4. **Partition** — `segment` spans (start block in `ids.seg`, length
///    in `ids.n`) chain contiguously from block 0, wrapping to 0 exactly
///    at the furthest block ever scanned: resized or not, a revolution
///    covers each block exactly once.
/// 5. **Resize** — every `segment_resized` instant (new size in
///    `ids.seg`, old in `ids.n`) changes the size to a nonzero value, and
///    each subsequent segment's length equals the effective size clipped
///    at the end of the file.
/// 6. **Exactly-once claims** — every `segment_claims` instant (start
///    block in `ids.job`, blocks claimed in `ids.seg`, winning commits in
///    `ids.n`) pairs with exactly one `segment` span at the same start
///    block, and both counters equal the segment's length: under the
///    work-assisting claim loop each block was claimed off the cursor
///    exactly once and committed by exactly one winner, however many
///    workers raced to re-execute it. Traces predating the claim
///    instrumentation (no `segment_claims` at all) pass vacuously.
/// 7. **Admission outcome** — every `svc_submit` (from a
///    `s3_engine::ScanService` trace) reaches exactly one of
///    `svc_admit`, `svc_reject`, `svc_expired`, or `svc_abort`, no
///    earlier than the submission; no outcome names an unsubmitted job.
/// 8. **Typed shed** — every `svc_*` event carries a valid QoS class in
///    `ids.seg` (low=0, normal=1, high=2 on the wire); `svc_reject`
///    additionally carries a valid reason code in `ids.n`, and only the
///    Low class is ever `svc_defer`red.
/// 9. **Per-queue FIFO** — `svc_admit` packs `(file index, enqueue
///    sequence)` into `ids.n`; within one (file, class) queue the
///    admitted sequence numbers strictly increase, so admission never
///    reorders a class queue (sequence numbers are assigned under the
///    queue lock, making this check race-free where timestamps are not).
/// 10. **Reduce shards** — per job, each `reduce_shard` id (in
///     `ids.shard`) appears at most once, and a completed, unquarantined
///     job's shard ids are exactly `0..k`.
///
/// The trace must be complete (no ring-buffer overwrites — check the
/// recorder's dropped counter first): the partition check anchors at
/// block 0.
pub fn check_engine_events(events: &[ObsEvent]) -> Vec<Violation> {
    let mut out = Vec::new();
    let at = |ts_us: u64| SimTime::from_micros(ts_us);

    // Per job id: (submit ts, admits, job_done, quarantine, job_aborted,
    // job_expired).
    #[derive(Default)]
    struct JobView {
        submit: Option<u64>,
        admits: u32,
        done: u32,
        quarantined: u32,
        aborted: u32,
        expired: u32,
        first_terminal_ts: Option<u64>,
    }
    let mut jobs: BTreeMap<u64, JobView> = BTreeMap::new();
    let mut excluded: BTreeSet<u64> = BTreeSet::new();
    for e in events {
        match e.name {
            "submit" | "admit" | "job_done" | "quarantine" | "job_aborted" | "job_expired" => {
                if e.ids.job == NO_ID {
                    out.push(Violation {
                        invariant: "engine-terminal",
                        at: at(e.ts_us),
                        detail: format!("{:?} event without a job id", e.name),
                    });
                    continue;
                }
                let v = jobs.entry(e.ids.job).or_default();
                match e.name {
                    "submit" => v.submit = Some(v.submit.unwrap_or(e.ts_us)),
                    "admit" => v.admits += 1,
                    "job_done" => v.done += 1,
                    "quarantine" => v.quarantined += 1,
                    "job_aborted" => v.aborted += 1,
                    "job_expired" => v.expired += 1,
                    _ => unreachable!(),
                }
                if matches!(e.name, "job_done" | "quarantine" | "job_aborted" | "job_expired")
                    && v.first_terminal_ts.is_none()
                {
                    v.first_terminal_ts = Some(e.ts_us);
                }
            }
            // Worker exclusion events carry the worker index in `ids.n`.
            "slot_excluded" if !excluded.insert(e.ids.n) => {
                out.push(Violation {
                    invariant: "engine-exclusion",
                    at: at(e.ts_us),
                    detail: format!("worker {} excluded twice", e.ids.n),
                });
            }
            "slot_readmitted" if !excluded.remove(&e.ids.n) => {
                out.push(Violation {
                    invariant: "engine-exclusion",
                    at: at(e.ts_us),
                    detail: format!("worker {} readmitted but was not excluded", e.ids.n),
                });
            }
            _ => {}
        }
    }

    // Partition + resize: replay the segment chain. Segment spans carry
    // (start block, length); `segment_resized` instants carry (new, old)
    // effective sizes. The file's block count is not in the trace, so it
    // is derived as the furthest segment end ever observed.
    let mut nstar: u64 = 0;
    for e in events {
        if e.name == "segment" && e.ids.seg != NO_ID && e.ids.n != NO_ID {
            nstar = nstar.max(e.ids.seg + e.ids.n);
        }
    }
    if nstar > 0 {
        let mut expected: u64 = 0;
        let mut cur_eff: Option<u64> = None;
        for e in events {
            match e.name {
                "segment" if e.ids.seg != NO_ID && e.ids.n != NO_ID => {
                    let (start, len) = (e.ids.seg, e.ids.n);
                    if len == 0 {
                        out.push(Violation {
                            invariant: "engine-partition",
                            at: at(e.ts_us),
                            detail: format!("empty segment at block {start}"),
                        });
                        continue;
                    }
                    if start != expected {
                        out.push(Violation {
                            invariant: "engine-partition",
                            at: at(e.ts_us),
                            detail: format!(
                                "segment starts at block {start}, expected {expected}: \
                                 a revolution must cover each block exactly once"
                            ),
                        });
                    }
                    // Resync from the observed segment so one bad boundary
                    // does not cascade into a violation per segment.
                    expected = start + len;
                    if expected >= nstar {
                        expected = 0;
                    }
                    if let Some(eff) = cur_eff {
                        let want = eff.min(nstar - start.min(nstar));
                        if len != want {
                            out.push(Violation {
                                invariant: "engine-resize",
                                at: at(e.ts_us),
                                detail: format!(
                                    "segment at block {start} spans {len} blocks; effective \
                                     size {eff} over {nstar} blocks requires {want}"
                                ),
                            });
                        }
                    }
                }
                "segment_resized" => {
                    let (new, old) = (e.ids.seg, e.ids.n);
                    if new == NO_ID || old == NO_ID || new == 0 {
                        out.push(Violation {
                            invariant: "engine-resize",
                            at: at(e.ts_us),
                            detail: format!("malformed segment_resized ({new} from {old})"),
                        });
                    } else if new == old {
                        out.push(Violation {
                            invariant: "engine-resize",
                            at: at(e.ts_us),
                            detail: format!("segment_resized to its current size {new}"),
                        });
                    } else {
                        cur_eff = Some(new);
                    }
                }
                _ => {}
            }
        }
    }

    // Exactly-once claims: pair each `segment_claims` instant with the
    // pending `segment` span at the same start block. Spans are stamped at
    // segment *start* but recorded at segment end, right before the claims
    // instant, so pairing keys on the start block (FIFO per start across
    // revolutions) rather than on timestamps.
    let claims_seen = events.iter().any(|e| e.name == "segment_claims");
    if claims_seen {
        let mut pending: BTreeMap<u64, VecDeque<(u64, u64)>> = BTreeMap::new();
        for e in events {
            match e.name {
                "segment" if e.ids.seg != NO_ID && e.ids.n != NO_ID => {
                    pending
                        .entry(e.ids.seg)
                        .or_default()
                        .push_back((e.ids.n, e.ts_us));
                }
                "segment_claims" => {
                    let (start, claimed, completed) = (e.ids.job, e.ids.seg, e.ids.n);
                    let Some((len, _)) = pending.get_mut(&start).and_then(VecDeque::pop_front)
                    else {
                        out.push(Violation {
                            invariant: "engine-claims",
                            at: at(e.ts_us),
                            detail: format!(
                                "claims record at block {start} with no scanned segment to \
                                 account for"
                            ),
                        });
                        continue;
                    };
                    if claimed != len {
                        out.push(Violation {
                            invariant: "engine-claims",
                            at: at(e.ts_us),
                            detail: format!(
                                "segment at block {start} spans {len} blocks but the claim \
                                 cursor handed out {claimed}: every block must be claimed \
                                 exactly once"
                            ),
                        });
                    }
                    if completed != len {
                        out.push(Violation {
                            invariant: "engine-claims",
                            at: at(e.ts_us),
                            detail: format!(
                                "segment at block {start} spans {len} blocks but {completed} \
                                 winning commits landed: every block must be committed \
                                 exactly once"
                            ),
                        });
                    }
                }
                _ => {}
            }
        }
        for (start, rest) in pending {
            for (_, ts) in rest {
                out.push(Violation {
                    invariant: "engine-claims",
                    at: at(ts),
                    detail: format!(
                        "segment at block {start} was scanned without a claims record"
                    ),
                });
            }
        }
    }

    // Service admission-queue invariants: `svc_*` instants from a
    // `s3_engine::ScanService` trace. A plain server trace has none of
    // these and passes vacuously. The service job-id space is distinct
    // from the engine's, so the accounting is kept separate.
    #[derive(Default)]
    struct SvcView {
        submit: Option<u64>,
        admits: u32,
        rejects: u32,
        expired: u32,
        aborted: u32,
        first_outcome_ts: Option<u64>,
    }
    let mut svc_jobs: BTreeMap<u64, SvcView> = BTreeMap::new();
    // (file index, class code) -> last admitted enqueue sequence.
    let mut last_admit_seq: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    for e in events {
        let outcome = matches!(
            e.name,
            "svc_admit" | "svc_reject" | "svc_expired" | "svc_abort"
        );
        if !outcome && e.name != "svc_submit" && e.name != "svc_defer" {
            continue;
        }
        if e.ids.job == NO_ID {
            out.push(Violation {
                invariant: "service-outcome",
                at: at(e.ts_us),
                detail: format!("{:?} event without a job id", e.name),
            });
            continue;
        }
        // Every svc event carries its QoS class in `ids.seg` (low=0,
        // normal=1, high=2 on the wire).
        if e.ids.seg > 2 {
            out.push(Violation {
                invariant: "service-class",
                at: at(e.ts_us),
                detail: format!(
                    "{:?} for job {} carries class code {} (valid: 0..=2)",
                    e.name, e.ids.job, e.ids.seg
                ),
            });
        }
        let v = svc_jobs.entry(e.ids.job).or_default();
        match e.name {
            "svc_submit" => v.submit = Some(v.submit.unwrap_or(e.ts_us)),
            "svc_reject" => {
                v.rejects += 1;
                // `ids.n` is the reject reason code; a shed must be typed.
                if e.ids.n > 2 {
                    out.push(Violation {
                        invariant: "service-class",
                        at: at(e.ts_us),
                        detail: format!(
                            "svc_reject for job {} carries reason code {} (valid: 0..=2): \
                             every shed must be typed",
                            e.ids.job, e.ids.n
                        ),
                    });
                }
            }
            "svc_admit" => {
                v.admits += 1;
                // `ids.n` packs (file index << 32 | enqueue seq); within
                // one (file, class) queue admitted seqs strictly increase.
                let (file, seq) = (e.ids.n >> 32, e.ids.n & 0xffff_ffff);
                let key = (file, e.ids.seg);
                if let Some(&prev) = last_admit_seq.get(&key) {
                    if seq <= prev {
                        out.push(Violation {
                            invariant: "service-fifo",
                            at: at(e.ts_us),
                            detail: format!(
                                "job {} admitted out of order from file {file} class {} \
                                 queue: seq {seq} after {prev}",
                                e.ids.job, e.ids.seg
                            ),
                        });
                    }
                }
                last_admit_seq.insert(key, seq);
            }
            "svc_expired" => v.expired += 1,
            "svc_abort" => v.aborted += 1,
            "svc_defer" => {
                // Only the Low class is ever held back by the width cap.
                if e.ids.seg != 0 {
                    out.push(Violation {
                        invariant: "service-class",
                        at: at(e.ts_us),
                        detail: format!(
                            "job {} deferred with class code {}: only Low defers",
                            e.ids.job, e.ids.seg
                        ),
                    });
                }
            }
            _ => unreachable!(),
        }
        if outcome && v.first_outcome_ts.is_none() {
            v.first_outcome_ts = Some(e.ts_us);
        }
    }
    for (id, v) in &svc_jobs {
        let outcomes = v.admits + v.rejects + v.expired + v.aborted;
        match v.submit {
            None => out.push(Violation {
                invariant: "service-outcome",
                at: SimTime::ZERO,
                detail: format!("service job {id} has events but was never submitted"),
            }),
            Some(submit_ts) => {
                if outcomes != 1 {
                    out.push(Violation {
                        invariant: "service-outcome",
                        at: SimTime::ZERO,
                        detail: format!(
                            "service job {id} reached {outcomes} admission outcomes \
                             ({} admitted, {} rejected, {} expired, {} aborted); \
                             expected exactly 1",
                            v.admits, v.rejects, v.expired, v.aborted
                        ),
                    });
                }
                if let Some(ts) = v.first_outcome_ts {
                    if ts < submit_ts {
                        out.push(Violation {
                            invariant: "service-outcome",
                            at: at(ts),
                            detail: format!(
                                "service job {id} admission outcome precedes its submission"
                            ),
                        });
                    }
                }
            }
        }
    }

    // Reduce shards. `reduce_shard` spans carry the shard index in its own
    // id field. Per job a shard id may appear at most once (the old
    // encoding that packed shards into shared fields made concurrent jobs
    // ambiguous), and a completed job's shard ids must be exactly `0..k`:
    // every shard the split built ran and reported. Quarantined jobs are
    // skipped (a panicking shard may never report), and so are jobs whose
    // `submit` fell off a truncated ring.
    let mut shards: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
    for e in events {
        if e.name == "reduce_shard"
            && e.ids.job != NO_ID
            && e.ids.shard != NO_ID
            && !shards.entry(e.ids.job).or_default().insert(e.ids.shard)
        {
            out.push(Violation {
                invariant: "engine-reduce-shard",
                at: at(e.ts_us),
                detail: format!("job {} ran reduce shard {} twice", e.ids.job, e.ids.shard),
            });
        }
    }
    for (id, ran) in &shards {
        let complete = jobs
            .get(id)
            .is_some_and(|j| j.done > 0 && j.quarantined == 0 && j.submit.is_some());
        let k = ran.len() as u64;
        if complete && !ran.iter().copied().eq(0..k) {
            out.push(Violation {
                invariant: "engine-reduce-shard",
                at: SimTime::ZERO,
                detail: format!("job {id}: reduce shards {ran:?} are not exactly 0..{k}"),
            });
        }
    }

    for (id, v) in &jobs {
        let terminals = v.done + v.quarantined + v.aborted + v.expired;
        match v.submit {
            None => {
                out.push(Violation {
                    invariant: "engine-terminal",
                    at: SimTime::ZERO,
                    detail: format!("job {id} has events but was never submitted"),
                });
                continue;
            }
            Some(submit_ts) => {
                if terminals != 1 {
                    out.push(Violation {
                        invariant: "engine-terminal",
                        at: SimTime::ZERO,
                        detail: format!(
                            "job {id} reached {terminals} terminal events \
                             ({} done, {} quarantined, {} aborted, {} expired); \
                             expected exactly 1",
                            v.done, v.quarantined, v.aborted, v.expired
                        ),
                    });
                }
                if let Some(term_ts) = v.first_terminal_ts {
                    if term_ts < submit_ts {
                        out.push(Violation {
                            invariant: "engine-terminal",
                            at: at(term_ts),
                            detail: format!("job {id} terminal precedes its submission"),
                        });
                    }
                }
            }
        }
        if v.admits > 1 {
            out.push(Violation {
                invariant: "engine-admission",
                at: SimTime::ZERO,
                detail: format!("job {id} admitted {} times", v.admits),
            });
        }
        if v.admits == 0 && (v.done > 0 || v.quarantined > 0) {
            out.push(Violation {
                invariant: "engine-admission",
                at: SimTime::ZERO,
                detail: format!(
                    "job {id} reached a scanning terminal without ever being admitted"
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobProfile, JobRequest, Priority};
    use crate::trace::TraceEvent;
    use s3_dfs::{RoundRobinPlacement, MB};
    use std::sync::Arc;

    struct World {
        cluster: ClusterTopology,
        dfs: Dfs,
        workload: Vec<JobRequest>,
        failures: FailureSchedule,
    }

    fn tiny_world(blocks: u64) -> World {
        let cluster = ClusterTopology::paper_cluster();
        let mut dfs = Dfs::new();
        let file = dfs
            .create_file(
                &cluster,
                "in",
                blocks * 64 * MB,
                64 * MB,
                1,
                &mut RoundRobinPlacement::default(),
            )
            .unwrap();
        let profile = Arc::new(JobProfile {
            name: "wc".into(),
            map_cpu_s_per_mb: 0.0015,
            map_output_ratio: 0.015,
            map_output_records_per_mb: 1526.0,
            reduce_cpu_s_per_mb: 0.02,
            reduce_output_ratio: 0.000625,
            num_reduce_tasks: 1,
        });
        let workload = vec![JobRequest {
            id: JobId(0),
            profile,
            file,
            submit: SimTime::ZERO,
            priority: Priority::Normal,
        }];
        World {
            cluster,
            dfs,
            workload,
            failures: FailureSchedule::none(),
        }
    }

    fn checker(world: &World) -> InvariantChecker<'_> {
        InvariantChecker {
            cluster: &world.cluster,
            dfs: &world.dfs,
            workload: &world.workload,
            failures: &world.failures,
            speculation: false,
        }
    }

    fn ev(at_s: u64, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            at: SimTime::from_secs(at_s),
            kind,
            node: None,
            jobs: vec![JobId(0)],
            batch: None,
            block: None,
        }
    }

    /// A full, correct run of a 2-block job in one batch on node 0.
    fn good_trace(world: &World) -> Trace {
        let blocks = &world.dfs.file(world.workload[0].file).blocks;
        let mut t = Trace::new();
        t.push(ev(0, TraceKind::JobSubmitted));
        for (i, &b) in blocks.iter().enumerate() {
            let at = 1 + 2 * i as u64;
            t.push(TraceEvent {
                node: Some(NodeId(0)),
                batch: Some(BatchKey(0)),
                block: Some(b),
                ..ev(at, TraceKind::MapStart)
            });
            t.push(TraceEvent {
                node: Some(NodeId(0)),
                batch: Some(BatchKey(0)),
                block: Some(b),
                ..ev(at + 1, TraceKind::MapEnd)
            });
        }
        t.push(TraceEvent {
            node: Some(NodeId(1)),
            batch: Some(BatchKey(0)),
            ..ev(20, TraceKind::ReduceStart)
        });
        t.push(TraceEvent {
            node: Some(NodeId(1)),
            batch: Some(BatchKey(0)),
            ..ev(25, TraceKind::ReduceEnd)
        });
        t.push(ev(25, TraceKind::JobCompleted));
        t
    }

    #[test]
    fn clean_trace_passes() {
        let world = tiny_world(2);
        let trace = good_trace(&world);
        assert_eq!(checker(&world).check(&trace), vec![]);
    }

    #[test]
    fn missing_block_is_a_coverage_violation() {
        let world = tiny_world(2);
        let mut trace = Trace::new();
        let b0 = world.dfs.file(world.workload[0].file).blocks[0];
        trace.push(ev(0, TraceKind::JobSubmitted));
        trace.push(TraceEvent {
            node: Some(NodeId(0)),
            batch: Some(BatchKey(0)),
            block: Some(b0),
            ..ev(1, TraceKind::MapStart)
        });
        trace.push(TraceEvent {
            node: Some(NodeId(0)),
            batch: Some(BatchKey(0)),
            block: Some(b0),
            ..ev(2, TraceKind::MapEnd)
        });
        trace.push(ev(3, TraceKind::JobCompleted));
        let violations = checker(&world).check(&trace);
        assert!(
            violations.iter().any(|v| v.invariant == "scan-coverage"
                && v.detail.contains("never scanned")),
            "{violations:?}"
        );
    }

    #[test]
    fn double_scan_is_a_violation_without_speculation() {
        let world = tiny_world(2);
        let mut trace = good_trace(&world);
        let b0 = world.dfs.file(world.workload[0].file).blocks[0];
        // Re-scan block 0 in a second batch after completion-unrelated work.
        trace.push(TraceEvent {
            node: Some(NodeId(2)),
            batch: Some(BatchKey(1)),
            block: Some(b0),
            ..ev(30, TraceKind::MapStart)
        });
        trace.push(TraceEvent {
            node: Some(NodeId(2)),
            batch: Some(BatchKey(1)),
            block: Some(b0),
            ..ev(31, TraceKind::MapEnd)
        });
        let violations = checker(&world).check(&trace);
        assert!(
            violations.iter().any(|v| v.invariant == "scan-coverage"
                && v.detail.contains("2 times")),
            "{violations:?}"
        );
    }

    #[test]
    fn task_on_dead_node_is_flagged() {
        let mut world = tiny_world(2);
        world.failures = FailureSchedule::none().kill(NodeId(0), SimTime::from_secs(1));
        let trace = good_trace(&world); // maps start at t=1 on node 0
        let violations = checker(&world).check(&trace);
        assert!(
            violations.iter().any(|v| v.invariant == "dead-node"),
            "{violations:?}"
        );
    }

    #[test]
    fn task_on_excluded_slot_is_flagged() {
        let world = tiny_world(2);
        let mut trace = Trace::new();
        trace.push(ev(0, TraceKind::JobSubmitted));
        trace.push(TraceEvent {
            node: Some(NodeId(0)),
            ..ev(0, TraceKind::SlotExcluded)
        });
        let blocks = &world.dfs.file(world.workload[0].file).blocks;
        for (i, &b) in blocks.iter().enumerate() {
            trace.push(TraceEvent {
                node: Some(NodeId(0)), // excluded!
                batch: Some(BatchKey(0)),
                block: Some(b),
                ..ev(1 + i as u64, TraceKind::MapStart)
            });
            trace.push(TraceEvent {
                node: Some(NodeId(0)),
                batch: Some(BatchKey(0)),
                block: Some(b),
                ..ev(2 + i as u64, TraceKind::MapEnd)
            });
        }
        trace.push(ev(9, TraceKind::JobCompleted));
        let violations = checker(&world).check(&trace);
        assert!(
            violations.iter().any(|v| v.invariant == "excluded-slot"),
            "{violations:?}"
        );

        // Re-admission clears the exclusion.
        let mut ok = Trace::new();
        ok.push(ev(0, TraceKind::JobSubmitted));
        ok.push(TraceEvent {
            node: Some(NodeId(0)),
            ..ev(0, TraceKind::SlotExcluded)
        });
        ok.push(TraceEvent {
            node: Some(NodeId(0)),
            ..ev(1, TraceKind::SlotReadmitted)
        });
        for (i, &b) in blocks.iter().enumerate() {
            ok.push(TraceEvent {
                node: Some(NodeId(0)),
                batch: Some(BatchKey(0)),
                block: Some(b),
                ..ev(2 + 2 * i as u64, TraceKind::MapStart)
            });
            ok.push(TraceEvent {
                node: Some(NodeId(0)),
                batch: Some(BatchKey(0)),
                block: Some(b),
                ..ev(3 + 2 * i as u64, TraceKind::MapEnd)
            });
        }
        ok.push(ev(9, TraceKind::JobCompleted));
        let violations = checker(&world).check(&ok);
        assert!(
            !violations.iter().any(|v| v.invariant == "excluded-slot"),
            "{violations:?}"
        );
    }

    #[test]
    fn slot_overcommit_is_flagged() {
        let world = tiny_world(2);
        let blocks = &world.dfs.file(world.workload[0].file).blocks;
        let mut trace = Trace::new();
        trace.push(ev(0, TraceKind::JobSubmitted));
        // Both maps run concurrently on node 0 (capacity 1).
        for &b in blocks {
            trace.push(TraceEvent {
                node: Some(NodeId(0)),
                batch: Some(BatchKey(0)),
                block: Some(b),
                ..ev(1, TraceKind::MapStart)
            });
        }
        for &b in blocks {
            trace.push(TraceEvent {
                node: Some(NodeId(0)),
                batch: Some(BatchKey(0)),
                block: Some(b),
                ..ev(2, TraceKind::MapEnd)
            });
        }
        trace.push(ev(3, TraceKind::JobCompleted));
        let violations = checker(&world).check(&trace);
        assert!(
            violations.iter().any(|v| v.invariant == "slot-capacity"),
            "{violations:?}"
        );
    }

    #[test]
    fn batch_job_set_change_is_flagged() {
        let world = tiny_world(2);
        let mut trace = good_trace(&world);
        // A stray event claims the batch also served job 7.
        trace.push(TraceEvent {
            node: Some(NodeId(3)),
            jobs: vec![JobId(0), JobId(7)],
            batch: Some(BatchKey(0)),
            ..ev(30, TraceKind::ReduceStart)
        });
        trace.push(TraceEvent {
            node: Some(NodeId(3)),
            jobs: vec![JobId(0), JobId(7)],
            batch: Some(BatchKey(0)),
            ..ev(31, TraceKind::ReduceEnd)
        });
        let violations = checker(&world).check(&trace);
        assert!(
            violations
                .iter()
                .any(|v| v.invariant == "batch-consistency" && v.detail.contains("job set")),
            "{violations:?}"
        );
    }

    #[test]
    fn non_contiguous_batch_is_flagged() {
        let world = tiny_world(4);
        let blocks = &world.dfs.file(world.workload[0].file).blocks;
        let mut trace = Trace::new();
        trace.push(ev(0, TraceKind::JobSubmitted));
        // One batch scans blocks 0 and 2 of 4: two circular gaps.
        for (i, &b) in [blocks[0], blocks[2]].iter().enumerate() {
            trace.push(TraceEvent {
                node: Some(NodeId(i as u32)),
                batch: Some(BatchKey(0)),
                block: Some(b),
                ..ev(1 + 2 * i as u64, TraceKind::MapStart)
            });
            trace.push(TraceEvent {
                node: Some(NodeId(i as u32)),
                batch: Some(BatchKey(0)),
                block: Some(b),
                ..ev(2 + 2 * i as u64, TraceKind::MapEnd)
            });
        }
        // The rest in singleton batches (a single block is trivially one
        // segment and must not be flagged).
        for (i, &b) in [blocks[1], blocks[3]].iter().enumerate() {
            trace.push(TraceEvent {
                node: Some(NodeId(i as u32)),
                batch: Some(BatchKey(1 + i as u64)),
                block: Some(b),
                ..ev(5 + 2 * i as u64, TraceKind::MapStart)
            });
            trace.push(TraceEvent {
                node: Some(NodeId(i as u32)),
                batch: Some(BatchKey(1 + i as u64)),
                block: Some(b),
                ..ev(6 + 2 * i as u64, TraceKind::MapEnd)
            });
        }
        trace.push(ev(9, TraceKind::JobCompleted));
        let violations = checker(&world).check(&trace);
        let contiguity: Vec<&Violation> = violations
            .iter()
            .filter(|v| v.invariant == "batch-consistency" && v.detail.contains("contiguous"))
            .collect();
        assert_eq!(contiguity.len(), 1, "only batch 0 is split: {violations:?}");
        assert!(contiguity[0].detail.contains("BatchKey(0)"), "{contiguity:?}");
    }

    mod engine_events {
        use super::super::check_engine_events;
        use s3_obs::trace::{Event, Ids, Phase};

        fn ev(ts_us: u64, name: &'static str, ids: Ids) -> Event {
            Event {
                ts_us,
                dur_us: 0,
                name,
                ph: Phase::Instant,
                tid: 0,
                ids,
            }
        }

        /// A segment span: start block in `ids.seg`, length in `ids.n`.
        fn seg(ts_us: u64, start: u64, len: u64) -> Event {
            Event {
                ts_us,
                dur_us: 1,
                name: "segment",
                ph: Phase::Span,
                tid: 0,
                ids: Ids::seg(start).jobs(len),
            }
        }

        /// A `reduce_shard` span: shard index in its dedicated id field,
        /// records reduced in `ids.n`.
        fn shard(ts_us: u64, job: u64, shard: u64, records: u64) -> Event {
            Event {
                ts_us,
                dur_us: 1,
                name: "reduce_shard",
                ph: Phase::Span,
                tid: 0,
                ids: Ids::job(job).shard(shard).jobs(records),
            }
        }

        #[test]
        fn duplicate_shard_id_is_flagged() {
            let events = vec![
                ev(0, "submit", Ids::job(0)),
                ev(1, "admit", Ids::job(0).jobs(0)),
                shard(2, 0, 0, 4),
                shard(3, 0, 0, 4),
                ev(9, "job_done", Ids::job(0)),
            ];
            let v = check_engine_events(&events);
            assert!(
                v.iter().any(|v| v.invariant == "engine-reduce-shard"
                    && v.detail.contains("shard 0 twice")),
                "{v:?}"
            );
        }

        #[test]
        fn concurrent_jobs_with_dense_shards_pass() {
            // Two concurrent jobs, interleaved shards, each exactly 0..2.
            let events = vec![
                ev(0, "submit", Ids::job(0)),
                ev(1, "submit", Ids::job(1)),
                ev(2, "admit", Ids::job(0).jobs(0)),
                ev(2, "admit", Ids::job(1).jobs(0)),
                shard(12, 0, 1, 7),
                shard(13, 1, 0, 3),
                shard(14, 1, 1, 9),
                shard(15, 0, 0, 5),
                ev(20, "job_done", Ids::job(0)),
                ev(21, "job_done", Ids::job(1)),
            ];
            assert_eq!(check_engine_events(&events), vec![]);
        }

        #[test]
        fn shard_gap_is_flagged() {
            // Shard 1 never reported: a bucket the split built was lost.
            let events = vec![
                ev(0, "submit", Ids::job(0)),
                ev(1, "admit", Ids::job(0).jobs(0)),
                shard(2, 0, 0, 4),
                shard(3, 0, 2, 4),
                ev(9, "job_done", Ids::job(0)),
            ];
            let v = check_engine_events(&events);
            assert!(
                v.iter().any(|v| v.invariant == "engine-reduce-shard"
                    && v.detail.contains("not exactly 0..2")),
                "{v:?}"
            );
        }

        #[test]
        fn quarantined_job_skips_shard_coverage() {
            // A quarantined job may lose shards to a panic; the quarantine
            // already accounts for it, so the gap must not be flagged.
            let events = vec![
                ev(0, "submit", Ids::job(0)),
                ev(1, "admit", Ids::job(0).jobs(0)),
                shard(3, 0, 1, 0),
                ev(9, "quarantine", Ids::job(0)),
            ];
            assert_eq!(check_engine_events(&events), vec![]);
        }

        #[test]
        fn clean_and_faulty_lifecycles_pass() {
            // Job 0 completes, job 1 is quarantined mid-scan, job 2 is
            // aborted before admission; worker 1 is excluded then
            // readmitted. All legal.
            let events = vec![
                ev(0, "submit", Ids::job(0)),
                ev(1, "submit", Ids::job(1)),
                ev(2, "submit", Ids::job(2)),
                ev(3, "admit", Ids::job(0).jobs(0)),
                ev(3, "admit", Ids::job(1).jobs(0)),
                ev(4, "slot_excluded", Ids::none().jobs(1)),
                ev(5, "quarantine", Ids::job(1)),
                ev(6, "slot_readmitted", Ids::none().jobs(1)),
                ev(7, "job_done", Ids::job(0)),
                ev(8, "job_aborted", Ids::job(2)),
            ];
            assert_eq!(check_engine_events(&events), vec![]);
        }

        #[test]
        fn missing_terminal_is_flagged() {
            let events = vec![
                ev(0, "submit", Ids::job(0)),
                ev(1, "admit", Ids::job(0).jobs(0)),
            ];
            let v = check_engine_events(&events);
            assert!(
                v.iter().any(|v| v.invariant == "engine-terminal"
                    && v.detail.contains("0 terminal")),
                "{v:?}"
            );
        }

        #[test]
        fn double_terminal_is_flagged() {
            let events = vec![
                ev(0, "submit", Ids::job(0)),
                ev(1, "admit", Ids::job(0).jobs(0)),
                ev(2, "job_done", Ids::job(0)),
                ev(3, "job_aborted", Ids::job(0)),
            ];
            let v = check_engine_events(&events);
            assert!(
                v.iter().any(|v| v.invariant == "engine-terminal"
                    && v.detail.contains("2 terminal")),
                "{v:?}"
            );
        }

        #[test]
        fn done_without_admission_is_flagged() {
            let events = vec![
                ev(0, "submit", Ids::job(0)),
                ev(1, "job_done", Ids::job(0)),
            ];
            let v = check_engine_events(&events);
            assert!(
                v.iter().any(|v| v.invariant == "engine-admission"),
                "{v:?}"
            );
            // ...but an abort without admission is the shutdown race, legal.
            let events = vec![
                ev(0, "submit", Ids::job(0)),
                ev(1, "job_aborted", Ids::job(0)),
            ];
            assert_eq!(check_engine_events(&events), vec![]);
        }

        #[test]
        fn unpaired_exclusion_is_flagged() {
            let events = vec![
                ev(0, "slot_excluded", Ids::none().jobs(2)),
                ev(1, "slot_excluded", Ids::none().jobs(2)),
                ev(2, "slot_readmitted", Ids::none().jobs(3)),
            ];
            let v = check_engine_events(&events);
            assert!(
                v.iter().any(|v| v.invariant == "engine-exclusion"
                    && v.detail.contains("excluded twice")),
                "{v:?}"
            );
            assert!(
                v.iter().any(|v| v.invariant == "engine-exclusion"
                    && v.detail.contains("was not excluded")),
                "{v:?}"
            );
        }

        #[test]
        fn resized_partition_that_still_covers_the_file_passes() {
            // A 10-block file: two 4-block segments, a resize to 2, a
            // clipped tail, then the wrap — every block exactly once.
            let events = vec![
                seg(0, 0, 4),
                seg(1, 4, 4),
                ev(2, "segment_resized", Ids::seg(2).jobs(4)),
                seg(3, 8, 2),
                seg(4, 0, 2),
                seg(5, 2, 2),
            ];
            assert_eq!(check_engine_events(&events), vec![]);
        }

        #[test]
        fn broken_segment_chain_is_flagged() {
            // Blocks 4..6 are skipped: the revolution no longer covers the
            // file exactly once.
            let events = vec![seg(0, 0, 4), seg(1, 6, 4)];
            let v = check_engine_events(&events);
            assert!(
                v.iter().any(|v| v.invariant == "engine-partition"
                    && v.detail.contains("expected 4")),
                "{v:?}"
            );
        }

        #[test]
        fn post_resize_segment_with_stale_length_is_flagged() {
            // The server announced a resize to 2 but kept cutting 4-block
            // segments.
            let events = vec![
                seg(0, 0, 4),
                ev(1, "segment_resized", Ids::seg(2).jobs(4)),
                seg(2, 4, 4),
            ];
            let v = check_engine_events(&events);
            assert!(
                v.iter().any(|v| v.invariant == "engine-resize"
                    && v.detail.contains("requires 2")),
                "{v:?}"
            );
        }

        #[test]
        fn degenerate_resizes_are_flagged() {
            let events = vec![
                seg(0, 0, 4),
                ev(1, "segment_resized", Ids::seg(4).jobs(4)),
                ev(2, "segment_resized", Ids::seg(0).jobs(4)),
            ];
            let v = check_engine_events(&events);
            assert!(
                v.iter().any(|v| v.invariant == "engine-resize"
                    && v.detail.contains("current size 4")),
                "{v:?}"
            );
            assert!(
                v.iter().any(|v| v.invariant == "engine-resize"
                    && v.detail.contains("malformed")),
                "{v:?}"
            );
        }

        #[test]
        fn terminal_for_unknown_job_is_flagged() {
            let events = vec![ev(0, "job_done", Ids::job(9))];
            let v = check_engine_events(&events);
            assert!(
                v.iter().any(|v| v.invariant == "engine-terminal"
                    && v.detail.contains("never submitted")),
                "{v:?}"
            );
        }

        /// A claims record: start block in `ids.job`, blocks claimed in
        /// `ids.seg`, winning commits in `ids.n`.
        fn claims(ts_us: u64, start: u64, claimed: u64, completed: u64) -> Event {
            ev(
                ts_us,
                "segment_claims",
                Ids {
                    job: start,
                    seg: claimed,
                    n: completed,
                    ..Ids::none()
                },
            )
        }

        #[test]
        fn exact_claims_over_two_revolutions_pass() {
            // A 4-block file scanned as two 2-block segments, twice around:
            // the same start blocks repeat, so pairing is FIFO per start.
            let events = vec![
                seg(0, 0, 2),
                claims(1, 0, 2, 2),
                seg(2, 2, 2),
                claims(3, 2, 2, 2),
                seg(4, 0, 2),
                claims(5, 0, 2, 2),
                seg(6, 2, 2),
                claims(7, 2, 2, 2),
            ];
            assert_eq!(check_engine_events(&events), vec![]);
        }

        #[test]
        fn overclaimed_segment_is_flagged() {
            // 3 claims handed out for a 2-block segment: a block was
            // claimed twice off the cursor.
            let events = vec![seg(0, 0, 2), claims(1, 0, 3, 2)];
            let v = check_engine_events(&events);
            assert!(
                v.iter().any(|v| v.invariant == "engine-claims"
                    && v.detail.contains("handed out 3")),
                "{v:?}"
            );
        }

        #[test]
        fn lost_commit_is_flagged() {
            // Only 1 winning commit landed for a 2-block segment.
            let events = vec![seg(0, 0, 2), claims(1, 0, 2, 1)];
            let v = check_engine_events(&events);
            assert!(
                v.iter().any(|v| v.invariant == "engine-claims"
                    && v.detail.contains("1 winning commits")),
                "{v:?}"
            );
        }

        #[test]
        fn orphan_claims_record_is_flagged() {
            let events = vec![seg(0, 0, 2), claims(1, 0, 2, 2), claims(2, 2, 2, 2)];
            let v = check_engine_events(&events);
            assert!(
                v.iter().any(|v| v.invariant == "engine-claims"
                    && v.detail.contains("no scanned segment")),
                "{v:?}"
            );
        }

        #[test]
        fn segment_without_claims_record_is_flagged() {
            // Claim instrumentation is clearly on (one record exists), so
            // a scanned segment with no record is a hole in the proof.
            let events = vec![seg(0, 0, 2), claims(1, 0, 2, 2), seg(2, 2, 2)];
            let v = check_engine_events(&events);
            assert!(
                v.iter().any(|v| v.invariant == "engine-claims"
                    && v.detail.contains("without a claims record")),
                "{v:?}"
            );
        }

        #[test]
        fn legacy_trace_without_claims_passes_vacuously() {
            let events = vec![seg(0, 0, 4), seg(1, 4, 4), seg(2, 0, 4)];
            assert_eq!(check_engine_events(&events), vec![]);
        }

        #[test]
        fn expired_is_a_terminal_like_any_other() {
            // One expiry terminal is legal (even without admission — a
            // deadline can beat the admit); a done + expired double is not.
            let events = vec![
                ev(0, "submit", Ids::job(0)),
                ev(1, "job_expired", Ids::job(0)),
            ];
            assert_eq!(check_engine_events(&events), vec![]);
            let events = vec![
                ev(0, "submit", Ids::job(0)),
                ev(1, "admit", Ids::job(0).jobs(0)),
                ev(2, "job_done", Ids::job(0)),
                ev(3, "job_expired", Ids::job(0)),
            ];
            let v = check_engine_events(&events);
            assert!(
                v.iter().any(|v| v.invariant == "engine-terminal"
                    && v.detail.contains("2 terminal")),
                "{v:?}"
            );
        }

        /// A `svc_*` instant: job id, class code in `seg`, payload in `n`.
        fn svc(ts_us: u64, name: &'static str, job: u64, class: u64, n: u64) -> Event {
            ev(ts_us, name, Ids { job, seg: class, n, ..Ids::none() })
        }

        /// `svc_admit`-style payload: file index packed over enqueue seq.
        fn fseq(file: u64, seq: u64) -> u64 {
            (file << 32) | seq
        }

        #[test]
        fn service_lifecycles_pass_and_every_submit_needs_one_outcome() {
            // Admitted, typed-rejected, queue-expired, shutdown-aborted,
            // and a Low deferral before admission: all legal.
            let events = vec![
                svc(0, "svc_submit", 0, 2, 7),
                svc(1, "svc_submit", 1, 1, 7),
                svc(2, "svc_submit", 2, 0, 7),
                svc(3, "svc_submit", 3, 0, 7),
                svc(4, "svc_admit", 0, 2, fseq(7, 0)),
                svc(5, "svc_reject", 1, 1, 0),
                svc(6, "svc_defer", 2, 0, fseq(7, 0)),
                svc(7, "svc_expired", 2, 0, fseq(7, 0)),
                svc(8, "svc_abort", 3, 0, fseq(7, 1)),
            ];
            assert_eq!(check_engine_events(&events), vec![]);
            // A submit with no outcome, and an outcome with no submit.
            let events = vec![
                svc(0, "svc_submit", 0, 1, 7),
                svc(1, "svc_admit", 9, 1, fseq(7, 0)),
            ];
            let v = check_engine_events(&events);
            assert!(
                v.iter().any(|v| v.invariant == "service-outcome"
                    && v.detail.contains("0 admission outcomes")),
                "{v:?}"
            );
            assert!(
                v.iter().any(|v| v.invariant == "service-outcome"
                    && v.detail.contains("never submitted")),
                "{v:?}"
            );
        }

        #[test]
        fn untyped_sheds_and_non_low_deferrals_are_flagged() {
            let events = vec![
                svc(0, "svc_submit", 0, 9, 7),
                svc(1, "svc_reject", 0, 9, 9),
                svc(2, "svc_submit", 1, 2, 7),
                svc(3, "svc_defer", 1, 2, fseq(7, 0)),
                svc(4, "svc_admit", 1, 2, fseq(7, 0)),
            ];
            let v = check_engine_events(&events);
            assert!(
                v.iter().any(|v| v.invariant == "service-class"
                    && v.detail.contains("class code 9")),
                "{v:?}"
            );
            assert!(
                v.iter().any(|v| v.invariant == "service-class"
                    && v.detail.contains("reason code 9")),
                "{v:?}"
            );
            assert!(
                v.iter().any(|v| v.invariant == "service-class"
                    && v.detail.contains("only Low defers")),
                "{v:?}"
            );
        }

        #[test]
        fn out_of_order_admission_within_a_class_queue_is_flagged() {
            // Same file + class: seq 1 admitted before seq 0 breaks FIFO.
            // A different class (or file) interleaving freely does not.
            let events = vec![
                svc(0, "svc_submit", 0, 1, 7),
                svc(1, "svc_submit", 1, 1, 7),
                svc(2, "svc_submit", 2, 2, 7),
                svc(3, "svc_admit", 2, 2, fseq(7, 0)),
                svc(4, "svc_admit", 1, 1, fseq(7, 1)),
                svc(5, "svc_admit", 0, 1, fseq(7, 0)),
            ];
            let v = check_engine_events(&events);
            assert_eq!(v.len(), 1, "{v:?}");
            assert_eq!(v[0].invariant, "service-fifo");
            assert!(v[0].detail.contains("seq 0 after 1"), "{v:?}");
        }
    }

    #[test]
    fn unresolved_attempt_is_flagged() {
        let world = tiny_world(2);
        let mut trace = good_trace(&world);
        let b0 = world.dfs.file(world.workload[0].file).blocks[0];
        // A start with no matching end or failure.
        trace.push(TraceEvent {
            node: Some(NodeId(5)),
            batch: Some(BatchKey(0)),
            block: Some(b0),
            ..ev(40, TraceKind::MapStart)
        });
        let violations = checker(&world).check(&trace);
        assert!(
            violations
                .iter()
                .any(|v| v.invariant == "batch-consistency" && v.detail.contains("starts vs")),
            "{violations:?}"
        );
    }
}
