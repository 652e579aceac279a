//! Property-based proof that reduce partitioning is a pure scheduling
//! change: for any corpus, any thread count, either scan path and any
//! reducer count, the hash shuffle (`partition::partition_of` routing keys
//! into `k` shards) produces output record-identical to a one-thread, one-shard
//! reference — same keys, same values, same stats. Only the shard
//! boundaries (and therefore tail latency) move.
//!
//! The test names date from when a weighted (sketch-planned) partition
//! mode ran beside hash sharding; with that mode removed, each test checks
//! the hash shuffle alone against the unsharded reference on the same
//! executor.

use proptest::prelude::*;
use s3_engine::{
    run_job, run_job_legacy, run_merged, run_merged_legacy, BlockStore, ExecConfig, MapReduceJob,
};

/// Prefix wordcount with the fold-combiner and per-token map fast paths
/// switchable per instance, so one batch covers all three accumulator
/// shapes (fold arenas, token arenas, buffered).
struct FlexPrefix {
    prefix: String,
    fold: bool,
    token: bool,
}

impl MapReduceJob for FlexPrefix {
    type K = String;
    type V = i64;
    type Out = i64;
    fn map(&self, line: &str, emit: &mut dyn FnMut(String, i64)) {
        for w in line.split_whitespace() {
            if w.starts_with(&self.prefix) {
                emit(w.to_string(), 1);
            }
        }
    }
    fn combine(&self, _k: &String, v: Vec<i64>) -> Vec<i64> {
        vec![v.iter().sum()]
    }
    fn reduce(&self, _k: &String, v: &[i64]) -> Option<i64> {
        Some(v.iter().sum())
    }
    fn combine_is_fold(&self) -> bool {
        self.fold
    }
    fn combine_fold(&self, acc: &mut i64, next: i64) {
        *acc += next;
    }
    fn map_is_per_token(&self) -> bool {
        self.token
    }
    fn map_token(&self, token: &str, emit: &mut dyn FnMut(String, i64)) {
        if token.starts_with(&self.prefix) {
            emit(token.to_string(), 1);
        }
    }
}

/// A word strategy over a tiny alphabet so prefixes collide often and a
/// handful of head keys dominate — miniature Zipf, the regime in which a
/// few shards carry most of the reduce work.
fn word() -> impl Strategy<Value = String> {
    prop::collection::vec(prop::sample::select(vec!['a', 'b', 'c']), 1..5)
        .prop_map(|cs| cs.into_iter().collect())
}

fn corpus() -> impl Strategy<Value = String> {
    prop::collection::vec(prop::collection::vec(word(), 1..12), 1..60).prop_map(|lines| {
        lines
            .into_iter()
            .map(|ws| ws.join(" "))
            .collect::<Vec<_>>()
            .join("\n")
            + "\n"
    })
}

/// Solo (private claim counter), moderate, and oversubscribed relative to
/// the test corpus.
const THREADS: [usize; 3] = [1, 4, 8];

fn cfg(threads: usize, reducers: usize) -> ExecConfig {
    ExecConfig {
        num_threads: threads,
        num_reducers: reducers,
    }
}

/// The unsharded reference every sharded run must reproduce.
fn unsharded() -> ExecConfig {
    cfg(1, 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Sharded ≡ unsharded for solo jobs across the thread grid and both
    /// scan paths (kernel byte-slice and legacy `&str`), over all
    /// accumulator shapes.
    #[test]
    fn weighted_equals_hash_solo(
        text in corpus(),
        block_bytes in 8usize..256,
        prefix in word(),
        flags in 0u32..4,
        reducers in 1usize..9,
    ) {
        let store = BlockStore::from_text(&text, block_bytes);
        let job = FlexPrefix {
            prefix,
            fold: flags & 1 == 1,
            token: flags & 2 == 2,
        };
        let reference = run_job(&job, &store, &unsharded());
        for threads in THREADS {
            let sharded = cfg(threads, reducers);
            for (label, out) in [
                ("kernel", run_job(&job, &store, &sharded)),
                ("legacy", run_job_legacy(&job, &store, &sharded)),
            ] {
                prop_assert_eq!(&out.records, &reference.records,
                    "{} path, threads {} reducers {}", label, threads, reducers);
                prop_assert_eq!(out.stats.map_output_records, reference.stats.map_output_records);
                prop_assert_eq!(out.stats.bytes_scanned, reference.stats.bytes_scanned);
            }
        }
    }

    /// Sharded ≡ unsharded for merged batches mixing fold/token/buffered
    /// jobs, across the thread grid and both scan paths.
    #[test]
    fn weighted_equals_hash_merged(
        text in corpus(),
        block_bytes in 8usize..256,
        prefixes in prop::collection::vec(word(), 1..5),
        flag_bits in 0u32..256,
        reducers in 1usize..9,
    ) {
        let store = BlockStore::from_text(&text, block_bytes);
        let jobs: Vec<FlexPrefix> = prefixes
            .iter()
            .enumerate()
            .map(|(i, p)| FlexPrefix {
                prefix: p.clone(),
                fold: (flag_bits >> (2 * i)) & 1 == 1,
                token: (flag_bits >> (2 * i + 1)) & 1 == 1,
            })
            .collect();
        let refs: Vec<&FlexPrefix> = jobs.iter().collect();
        let reference = run_merged(&refs, &store, &unsharded());
        for threads in THREADS {
            let sharded = cfg(threads, reducers);
            for (label, merged) in [
                ("kernel", run_merged(&refs, &store, &sharded)),
                ("legacy", run_merged_legacy(&refs, &store, &sharded)),
            ] {
                for ((job, m), r) in jobs.iter().zip(&merged).zip(&reference) {
                    prop_assert_eq!(&m.records, &r.records,
                        "{} path, prefix {:?} threads {} reducers {} fold={} token={}",
                        label, &job.prefix, threads, reducers, job.fold, job.token);
                    prop_assert_eq!(m.stats.map_output_records, r.stats.map_output_records);
                }
            }
        }
    }

    /// Sharded ≡ unsharded through the external (spilling) engine, where
    /// each spill run is cut into the same hash shards before merging.
    #[test]
    fn weighted_equals_hash_external(
        text in corpus(),
        block_bytes in 8usize..256,
        spill_records in 1usize..64,
        threads in prop::sample::select(THREADS.to_vec()),
        reducers in 1usize..6,
    ) {
        use s3_engine::{run_job_external, ExternalConfig};
        let store = BlockStore::from_text(&text, block_bytes);
        let job = FlexPrefix { prefix: "a".into(), fold: false, token: false };
        let reference = run_job(&job, &store, &unsharded());
        let (out, _) = run_job_external(&job, &store, &ExternalConfig {
            exec: cfg(threads, reducers),
            spill_records,
            tmp_dir: None,
        }).expect("spill io");
        prop_assert_eq!(out.records, reference.records);
        prop_assert_eq!(out.stats.map_output_records, reference.stats.map_output_records);
    }

    /// Sharded ≡ unsharded through the shared-scan server: the finish
    /// pipeline splits the accumulated combiner state into hash shards and
    /// reduces them in parallel, yet the published relation never moves.
    #[test]
    fn weighted_equals_hash_server(
        text in corpus(),
        block_bytes in 8usize..128,
        prefixes in prop::collection::vec(word(), 1..4),
        flag_bits in 0u32..64,
        threads in prop::sample::select(THREADS.to_vec()),
    ) {
        use s3_engine::{ServerConfig, SharedScanServer};
        let store = BlockStore::from_text(&text, block_bytes);
        let jobs = |bits: u32| -> Vec<FlexPrefix> {
            prefixes
                .iter()
                .enumerate()
                .map(|(i, p)| FlexPrefix {
                    prefix: p.clone(),
                    fold: (bits >> (2 * i)) & 1 == 1,
                    token: (bits >> (2 * i + 1)) & 1 == 1,
                })
                .collect()
        };
        let refs: Vec<_> = jobs(flag_bits)
            .iter()
            .map(|job| run_job(job, &store, &unsharded()).records)
            .collect();

        let server = SharedScanServer::with_config(store, ServerConfig::new(4, threads));
        let handles = server.submit_all(jobs(flag_bits));
        for ((h, reference), p) in handles.into_iter().zip(&refs).zip(&prefixes) {
            let out = h.wait().expect("no faults injected");
            prop_assert_eq!(&out.records, reference, "prefix {:?} threads {}", p, threads);
        }
        server.shutdown();
    }
}
