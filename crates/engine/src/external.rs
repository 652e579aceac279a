//! Bounded-memory execution: Hadoop's map-side spill/sort and reduce-side
//! merge, for real.
//!
//! [`run_job`](crate::run_job) holds every intermediate record in memory.
//! Real MapReduce cannot: map tasks sort and **spill** their output buffer
//! to disk whenever it fills, and the reduce side **merges** the sorted
//! runs. This module implements that pipeline:
//!
//! - map workers buffer `(partition, key, value)` triples; at
//!   [`ExternalConfig::spill_records`] they sort the buffer by
//!   `(partition, key)` and write one run file (JSON lines);
//! - per partition, the reduce phase streams all runs through a k-way
//!   merge, groups equal keys, and reduces them.
//!
//! Outputs are byte-identical to the in-memory engine — that equivalence
//! is what the cost model's `sort_s_per_mb` term abstracts.

use crate::exec::{ExecConfig, JobOutput, ScanStats};
use crate::partition::partition_of;
use crate::pool::WorkerPool;
use crate::store::BlockStore;
use crate::types::MapReduceJob;
use s3_obs::trace::Ids;
use s3_obs::Obs;
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Parameters of the external (spilling) execution.
#[derive(Debug, Clone)]
pub struct ExternalConfig {
    /// Threads and reducer count (as in the in-memory engine).
    pub exec: ExecConfig,
    /// Records a map worker buffers before sorting and spilling a run.
    pub spill_records: usize,
    /// Directory for spill files; a unique per-run subdirectory is created
    /// inside it and removed afterwards. Defaults to the OS temp dir.
    pub tmp_dir: Option<PathBuf>,
}

impl Default for ExternalConfig {
    fn default() -> Self {
        ExternalConfig {
            exec: ExecConfig::default(),
            spill_records: 100_000,
            tmp_dir: None,
        }
    }
}

/// Counters specific to external execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Sorted runs written.
    pub spills: u64,
    /// Bytes written to spill files.
    pub spill_bytes: u64,
}

#[derive(Serialize, Deserialize)]
struct SpillRecord<K, V> {
    p: u32,
    k: K,
    v: V,
}

static RUN_DIR_COUNTER: AtomicUsize = AtomicUsize::new(0);

fn make_run_dir(cfg: &ExternalConfig) -> std::io::Result<PathBuf> {
    let base = cfg
        .tmp_dir
        .clone()
        .unwrap_or_else(std::env::temp_dir);
    let unique = format!(
        "s3-engine-spill-{}-{}",
        std::process::id(),
        RUN_DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
    );
    let dir = base.join(unique);
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// A job's output paired with its spill counters.
pub type ExternalOutput<K, Out> = (JobOutput<K, Out>, SpillStats);

/// Per-job outputs of a merged run paired with the shared spill counters.
pub type MergedExternalOutput<K, Out> = (Vec<JobOutput<K, Out>>, SpillStats);

/// Run one job with bounded memory, spilling sorted runs to disk.
///
/// Returns the job output (identical to [`crate::run_job`]) plus spill
/// counters.
///
/// # Errors
/// Propagates I/O errors from the spill directory.
///
/// # Panics
/// Panics on zero threads/reducers/spill size.
pub fn run_job_external<J>(
    job: &J,
    store: &BlockStore,
    cfg: &ExternalConfig,
) -> std::io::Result<ExternalOutput<J::K, J::Out>>
where
    J: MapReduceJob,
    J::K: Serialize + DeserializeOwned,
    J::V: Serialize + DeserializeOwned,
{
    run_job_external_observed(job, store, cfg, &Obs::off())
}

/// [`run_job_external`] with telemetry: records a `spill` span per sorted
/// run (the `n` id carries its byte size), a `merge_partition` span per
/// reduce-side merge, and the `engine.shuffle_bytes` / `engine.spill_runs`
/// counters into `obs`. Passing [`Obs::off`] is exactly
/// [`run_job_external`].
///
/// # Errors
/// Propagates I/O errors from the spill directory.
///
/// # Panics
/// Panics on zero threads/reducers/spill size.
pub fn run_job_external_observed<J>(
    job: &J,
    store: &BlockStore,
    cfg: &ExternalConfig,
    obs: &Obs,
) -> std::io::Result<ExternalOutput<J::K, J::Out>>
where
    J: MapReduceJob,
    J::K: Serialize + DeserializeOwned,
    J::V: Serialize + DeserializeOwned,
{
    assert!(cfg.exec.num_threads > 0, "need at least one thread");
    assert!(cfg.spill_records > 0, "spill buffer must hold records");

    let dir = make_run_dir(cfg)?;
    let result = run_inner(job, store, cfg, &dir, obs);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_inner<J>(
    job: &J,
    store: &BlockStore,
    cfg: &ExternalConfig,
    dir: &std::path::Path,
    obs: &Obs,
) -> std::io::Result<ExternalOutput<J::K, J::Out>>
where
    J: MapReduceJob,
    J::K: Serialize + DeserializeOwned,
    J::V: Serialize + DeserializeOwned,
{
    let core = obs.core();
    let num_blocks = store.num_blocks();
    let next_block = AtomicUsize::new(0);
    let spill_counter = AtomicUsize::new(0);
    let spill_bytes = AtomicU64::new(0);
    // Degenerate reducer counts clamp to one partition instead of faulting.
    let num_reducers = cfg.exec.num_reducers.max(1);

    // ---- map phase: buffer, sort, spill (on a per-call worker pool) ----
    type MapOut = (Vec<PathBuf>, u64, u64);
    let pool = WorkerPool::new(cfg.exec.num_threads);
    let worker_results: Vec<std::io::Result<MapOut>> =
        pool.broadcast(cfg.exec.num_threads, &|_| -> std::io::Result<MapOut> {
            let mut buffer: Vec<(u32, J::K, J::V)> = Vec::new();
            let mut runs: Vec<PathBuf> = Vec::new();
            let mut emitted = 0u64;
            let mut bytes = 0u64;

            let spill = |buffer: &mut Vec<(u32, J::K, J::V)>,
                         runs: &mut Vec<PathBuf>|
             -> std::io::Result<()> {
                if buffer.is_empty() {
                    return Ok(());
                }
                let spill_t0 = core.map(|c| c.tracer.now_us());
                buffer.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
                let id = spill_counter.fetch_add(1, Ordering::Relaxed);
                let path = dir.join(format!("run-{id}.jsonl"));
                let mut w = BufWriter::new(File::create(&path)?);
                let mut written = 0u64;
                // Combine-on-spill (Hadoop runs the combiner on
                // each sorted spill): fold each (partition, key)
                // group before writing.
                let mut drain = buffer.drain(..).peekable();
                while let Some((p, k, v)) = drain.next() {
                    let mut values = vec![v];
                    while drain
                        .peek()
                        .is_some_and(|(p2, k2, _)| *p2 == p && *k2 == k)
                    {
                        values.push(drain.next().expect("peeked").2);
                    }
                    for v in job.combine(&k, values) {
                        let line = serde_json::to_string(&SpillRecord {
                            p,
                            k: &k,
                            v,
                        })
                        .expect("spill records serialize");
                        written += line.len() as u64 + 1;
                        w.write_all(line.as_bytes())?;
                        w.write_all(b"\n")?;
                    }
                }
                drop(drain);
                w.flush()?;
                spill_bytes.fetch_add(written, Ordering::Relaxed);
                if let (Some(c), Some(t0)) = (core, spill_t0) {
                    c.tracer.span("spill", t0, Ids::none().jobs(written));
                }
                runs.push(path);
                Ok(())
            };

            loop {
                let idx = next_block.fetch_add(1, Ordering::Relaxed);
                if idx >= num_blocks {
                    break;
                }
                let block = store.block(idx);
                bytes += block.len() as u64;
                for line in memchr::lines(block) {
                    job.map_bytes(line, &mut |k, v| {
                        emitted += 1;
                        let p = partition_of(&k, num_reducers) as u32;
                        buffer.push((p, k, v));
                    });
                    if buffer.len() >= cfg.spill_records {
                        spill(&mut buffer, &mut runs)?;
                    }
                }
            }
            spill(&mut buffer, &mut runs)?;
            Ok((runs, emitted, bytes))
        });

    let mut all_runs: Vec<PathBuf> = Vec::new();
    let mut map_output_records = 0u64;
    let mut bytes_scanned = 0u64;
    for r in worker_results {
        let (runs, emitted, bytes) = r?;
        all_runs.extend(runs);
        map_output_records += emitted;
        bytes_scanned += bytes;
    }
    let stats = SpillStats {
        spills: all_runs.len() as u64,
        spill_bytes: spill_bytes.load(Ordering::Relaxed),
    };
    if let Some(c) = core {
        // Spill files *are* this engine's shuffle: every intermediate byte
        // crossing from map to reduce goes through them.
        let m = &c.metrics;
        m.counter("engine.shuffle_bytes").add(stats.spill_bytes);
        m.counter("engine.spill_runs").add(stats.spills);
        m.counter("engine.map_records").add(map_output_records);
        m.counter("engine.blocks_scanned").add(num_blocks as u64);
        m.counter("engine.bytes_scanned").add(bytes_scanned);
    }

    // ---- reduce phase: per partition, k-way merge of the sorted runs ----
    let mut records: BTreeMap<J::K, J::Out> = BTreeMap::new();
    for partition in 0..num_reducers as u32 {
        let merge_t0 = core.map(|c| c.tracer.now_us());
        merge_partition(job, &all_runs, partition, &mut records)?;
        if let (Some(c), Some(t0)) = (core, merge_t0) {
            c.tracer
                .span("merge_partition", t0, Ids::none().jobs(partition as u64));
        }
    }

    let out = JobOutput {
        stats: ScanStats {
            blocks_scanned: num_blocks as u64,
            bytes_scanned,
            map_output_records,
            reduce_output_records: records.len() as u64,
        },
        records,
    };
    Ok((out, stats))
}

/// Stream one partition's records out of every run (each run is sorted by
/// `(partition, key)`), k-way merge them by key, and reduce each group.
fn merge_partition<J>(
    job: &J,
    runs: &[PathBuf],
    partition: u32,
    out: &mut BTreeMap<J::K, J::Out>,
) -> std::io::Result<()>
where
    J: MapReduceJob,
    J::K: Serialize + DeserializeOwned,
    J::V: Serialize + DeserializeOwned,
{
    // One streaming cursor per run, positioned at this partition's records.
    struct Cursor<K, V> {
        reader: std::io::Lines<BufReader<File>>,
        head: Option<(K, V)>,
    }

    let mut cursors: Vec<Cursor<J::K, J::V>> = Vec::new();
    for path in runs {
        let mut reader = BufReader::new(File::open(path)?).lines();
        // Advance to the first record of this partition.
        let mut head = None;
        for line in reader.by_ref() {
            let rec: SpillRecord<J::K, J::V> =
                serde_json::from_str(&line?).expect("spill records parse");
            match rec.p.cmp(&partition) {
                std::cmp::Ordering::Less => continue,
                std::cmp::Ordering::Equal => {
                    head = Some((rec.k, rec.v));
                    break;
                }
                std::cmp::Ordering::Greater => break,
            }
        }
        if head.is_some() {
            cursors.push(Cursor { reader, head });
        }
    }

    // K-way merge by key using a heap of (key, cursor index). Keys are
    // cloned into the heap; values stream.
    let mut heap: BinaryHeap<Reverse<(J::K, usize)>> = BinaryHeap::new();
    for (i, c) in cursors.iter().enumerate() {
        let (k, _) = c.head.as_ref().expect("cursor has a head");
        heap.push(Reverse((k.clone(), i)));
    }

    let mut current: Option<(J::K, Vec<J::V>)> = None;
    while let Some(Reverse((key, i))) = heap.pop() {
        // Take the head value and advance cursor i within this partition.
        let (_, value) = cursors[i].head.take().expect("head present");
        if let Some(line) = cursors[i].reader.next() {
            let rec: SpillRecord<J::K, J::V> =
                serde_json::from_str(&line?).expect("spill records parse");
            if rec.p == partition {
                heap.push(Reverse((rec.k.clone(), i)));
                cursors[i].head = Some((rec.k, rec.v));
            }
        }

        match &mut current {
            Some((k, vs)) if *k == key => vs.push(value),
            _ => {
                if let Some((k, vs)) = current.take() {
                    if let Some(o) = job.reduce(&k, &vs) {
                        out.insert(k, o);
                    }
                }
                current = Some((key, vec![value]));
            }
        }
    }
    if let Some((k, vs)) = current.take() {
        if let Some(o) = job.reduce(&k, &vs) {
            out.insert(k, o);
        }
    }
    Ok(())
}

/// Run every job in `jobs` over one shared scan with bounded memory:
/// intermediate tuples are tagged with their job index (as in
/// [`crate::run_merged`]) and spilled sorted by `(partition, job, key)`.
///
/// Returns one output per job plus the combined spill counters.
///
/// # Errors
/// Propagates I/O errors from the spill directory.
///
/// # Panics
/// Panics on an empty job list or zero threads/reducers/spill size.
pub fn run_merged_external<J>(
    jobs: &[&J],
    store: &BlockStore,
    cfg: &ExternalConfig,
) -> std::io::Result<MergedExternalOutput<J::K, J::Out>>
where
    J: MapReduceJob,
    J::K: Serialize + DeserializeOwned,
    J::V: Serialize + DeserializeOwned,
{
    run_merged_external_observed(jobs, store, cfg, &Obs::off())
}

/// [`run_merged_external`] with telemetry — the merged-scan counterpart of
/// [`run_job_external_observed`], recording the same spans and counters
/// for the single shared spilling pass.
///
/// # Errors
/// Propagates I/O errors from the spill directory.
///
/// # Panics
/// Panics on an empty job list or zero threads/reducers/spill size.
pub fn run_merged_external_observed<J>(
    jobs: &[&J],
    store: &BlockStore,
    cfg: &ExternalConfig,
    obs: &Obs,
) -> std::io::Result<MergedExternalOutput<J::K, J::Out>>
where
    J: MapReduceJob,
    J::K: Serialize + DeserializeOwned,
    J::V: Serialize + DeserializeOwned,
{
    assert!(!jobs.is_empty(), "merged run needs at least one job");
    // Wrap each job's key as (job_index, key): the tagged-tuple encoding,
    // expressed through the single-job external runner.
    struct Tagged<'a, J>(&'a [&'a J]);
    impl<'a, J: MapReduceJob> MapReduceJob for Tagged<'a, J> {
        type K = (usize, J::K);
        type V = J::V;
        type Out = J::Out;
        fn map(&self, line: &str, emit: &mut dyn FnMut(Self::K, Self::V)) {
            for (ji, job) in self.0.iter().enumerate() {
                job.map(line, &mut |k, v| emit((ji, k), v));
            }
        }
        fn map_bytes(&self, line: &[u8], emit: &mut dyn FnMut(Self::K, Self::V)) {
            for (ji, job) in self.0.iter().enumerate() {
                job.map_bytes(line, &mut |k, v| emit((ji, k), v));
            }
        }
        fn combine(&self, key: &Self::K, values: Vec<Self::V>) -> Vec<Self::V> {
            self.0[key.0].combine(&key.1, values)
        }
        fn reduce(&self, key: &Self::K, values: &[Self::V]) -> Option<Self::Out> {
            self.0[key.0].reduce(&key.1, values)
        }
    }

    let tagged = Tagged(jobs);
    let (merged, spills) = run_job_external_observed(&tagged, store, cfg, obs)?;

    // Split the tagged output back into per-job relations; per-job map
    // record counts are not separable through the tagged encoding, so each
    // output reports the shared scan volume and its own reduce output.
    let mut outputs: Vec<JobOutput<J::K, J::Out>> = (0..jobs.len())
        .map(|_| JobOutput {
            records: BTreeMap::new(),
            stats: ScanStats {
                blocks_scanned: merged.stats.blocks_scanned,
                bytes_scanned: merged.stats.bytes_scanned,
                map_output_records: 0,
                reduce_output_records: 0,
            },
        })
        .collect();
    for ((ji, k), o) in merged.records {
        outputs[ji].records.insert(k, o);
    }
    for o in &mut outputs {
        o.stats.reduce_output_records = o.records.len() as u64;
    }
    Ok((outputs, spills))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::run_job;
    use crate::types::test_jobs::PrefixCount;

    fn store() -> BlockStore {
        let text =
            "delta echo alpha bravo alpha\ncharlie delta echo alpha\nbravo charlie delta\n"
                .repeat(200);
        BlockStore::from_text(&text, 512)
    }

    fn cfg(spill_records: usize) -> ExternalConfig {
        ExternalConfig {
            exec: ExecConfig {
                num_threads: 3,
                num_reducers: 4,
            },
            spill_records,
            tmp_dir: None,
        }
    }

    #[test]
    fn external_matches_in_memory() {
        let s = store();
        let job = PrefixCount { prefix: "".into() };
        let reference = run_job(&job, &s, &cfg(1000).exec);
        let (out, spills) = run_job_external(&job, &s, &cfg(1000)).expect("io ok");
        assert_eq!(out.records, reference.records);
        assert_eq!(out.stats.map_output_records, reference.stats.map_output_records);
        assert!(spills.spills >= 1);
        assert!(spills.spill_bytes > 0);
    }

    #[test]
    fn tiny_spill_buffer_forces_many_runs_same_answer() {
        let s = store();
        let job = PrefixCount { prefix: "".into() };
        let reference = run_job(&job, &s, &cfg(7).exec);
        let (out, spills) = run_job_external(&job, &s, &cfg(7)).expect("io ok");
        assert_eq!(out.records, reference.records);
        assert!(
            spills.spills > 50,
            "a 7-record buffer must spill constantly: {} runs",
            spills.spills
        );
    }

    #[test]
    fn filtered_job_with_empty_partitions() {
        let s = store();
        let job = PrefixCount { prefix: "alp".into() };
        let reference = run_job(&job, &s, &cfg(16).exec);
        let (out, _) = run_job_external(&job, &s, &cfg(16)).expect("io ok");
        assert_eq!(out.records, reference.records);
        assert_eq!(out.records.len(), 1); // only "alpha"
    }

    #[test]
    fn no_matches_yields_empty_output() {
        let s = store();
        let job = PrefixCount { prefix: "zzz".into() };
        let (out, spills) = run_job_external(&job, &s, &cfg(16)).expect("io ok");
        assert!(out.records.is_empty());
        assert_eq!(spills.spills, 0, "nothing emitted, nothing spilled");
    }

    #[test]
    fn merged_external_matches_solo_runs() {
        let s = store();
        let jobs = [
            PrefixCount { prefix: "a".into() },
            PrefixCount { prefix: "d".into() },
            PrefixCount { prefix: "".into() },
        ];
        let refs: Vec<&PrefixCount> = jobs.iter().collect();
        let (outs, spills) = run_merged_external(&refs, &s, &cfg(32)).expect("io ok");
        assert_eq!(outs.len(), 3);
        assert!(spills.spills > 0);
        for (job, out) in jobs.iter().zip(&outs) {
            let solo = run_job(job, &s, &cfg(32).exec);
            assert_eq!(out.records, solo.records, "prefix {:?}", job.prefix);
        }
        // One shared scan.
        assert_eq!(outs[0].stats.bytes_scanned as usize, s.total_bytes());
    }

    #[test]
    fn spill_directory_is_cleaned_up() {
        let base = std::env::temp_dir().join("s3-engine-cleanup-test");
        std::fs::create_dir_all(&base).expect("mk base");
        let cfg = ExternalConfig {
            tmp_dir: Some(base.clone()),
            ..cfg(16)
        };
        let job = PrefixCount { prefix: "".into() };
        run_job_external(&job, &store(), &cfg).expect("io ok");
        let leftovers = std::fs::read_dir(&base).expect("readable").count();
        assert_eq!(leftovers, 0, "spill subdirectory must be removed");
        let _ = std::fs::remove_dir_all(&base);
    }
}
