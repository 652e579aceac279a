//! The zero-copy kernel scan path is **byte-identical** to the legacy
//! String path — same records, same map-output counts — across thread
//! counts 1..=16, both scan paths (plain engine and shared-scan server,
//! cooperative and resilient segments), adaptive segment sizing on and
//! off, and corpora stressing the tokenizer's edge cases: empty lines,
//! trailing newlines, CR-LF endings, tabs, and multi-space runs. Shared
//! executors replay a per-block token histogram (one map call per distinct
//! token, `count` occurrences folded locally); the map-output counts must
//! still match the per-occurrence oracle exactly.

use proptest::prelude::*;
use s3_engine::{
    run_job, run_job_legacy, run_merged, run_merged_legacy, AdaptiveConfig, BlockStore,
    ExecConfig, FtConfig, MapReduceJob, ScanPath, ServerConfig, SharedScanServer,
};
use std::time::Duration;

/// Prefix wordcount with every engine path switchable per instance:
/// buffered vs fold combiner, per-line vs per-token map, and the
/// token-identity fast path (raw-byte interning). All five shapes in
/// [`job_variants`] must agree.
#[derive(Clone)]
struct Wc {
    prefix: String,
    fold: bool,
    token: bool,
    identity: bool,
}

impl MapReduceJob for Wc {
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

    fn map_emits_token(&self) -> bool {
        self.identity
    }

    fn token_value(&self, token: &[u8]) -> Option<i64> {
        token.starts_with(self.prefix.as_bytes()).then_some(1)
    }

    fn token_key(&self, token: &[u8]) -> String {
        String::from_utf8_lossy(token).into_owned()
    }
}

/// Expand code bytes into a corpus that hits the tokenizer's edge cases:
/// short colliding words joined by separators including multi-space runs,
/// tabs, empty lines (`\n\n`), CR-LF endings, and sometimes no trailing
/// newline at all.
fn build_corpus(codes: &[u8]) -> String {
    const WORDS: [&str; 6] = ["a", "ab", "abc", "b", "ba", "cab"];
    const SEPS: [&str; 8] = [" ", "  ", "   ", "\t", "\n", "\n\n", "\r\n", " \t "];
    let mut out = String::new();
    for pair in codes.chunks(2) {
        out.push_str(WORDS[pair[0] as usize % WORDS.len()]);
        let sep = pair.get(1).copied().unwrap_or(0);
        out.push_str(SEPS[sep as usize % SEPS.len()]);
    }
    out
}

fn job_variants(prefix: &str) -> Vec<Wc> {
    let p = prefix.to_string();
    vec![
        Wc { prefix: p.clone(), fold: false, token: false, identity: false },
        Wc { prefix: p.clone(), fold: false, token: true, identity: false },
        Wc { prefix: p.clone(), fold: true, token: false, identity: false },
        Wc { prefix: p.clone(), fold: true, token: true, identity: false },
        Wc { prefix: p, fold: true, token: true, identity: true },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Kernel `run_job` equals legacy `run_job` for every job variant,
    /// blocking, and thread count in 1..=16.
    #[test]
    fn run_job_kernel_equals_legacy(
        codes in prop::collection::vec(0u8..48, 2..160),
        block_bytes in 4usize..96,
        threads in prop::sample::select(vec![1usize, 2, 3, 4, 8, 16]),
        reducers in 1usize..6,
        prefix in prop::sample::select(vec!["", "a", "ab", "c"]),
    ) {
        let store = BlockStore::from_text(&build_corpus(&codes), block_bytes);
        let cfg = ExecConfig { num_threads: threads, num_reducers: reducers };
        for job in job_variants(prefix) {
            let kernel = run_job(&job, &store, &cfg);
            let legacy = run_job_legacy(&job, &store, &cfg);
            prop_assert_eq!(&kernel.records, &legacy.records,
                "fold={} token={} identity={}", job.fold, job.token, job.identity);
            prop_assert_eq!(kernel.stats.map_output_records, legacy.stats.map_output_records);
            prop_assert_eq!(kernel.stats.bytes_scanned, legacy.stats.bytes_scanned);
        }
    }

    /// Kernel `run_merged` equals legacy `run_merged` when one batch mixes
    /// every job variant over one shared scan.
    #[test]
    fn run_merged_kernel_equals_legacy(
        codes in prop::collection::vec(0u8..48, 2..160),
        block_bytes in 4usize..96,
        threads in prop::sample::select(vec![1usize, 2, 4, 8, 16]),
        reducers in 1usize..6,
    ) {
        let store = BlockStore::from_text(&build_corpus(&codes), block_bytes);
        let jobs = job_variants("a");
        let refs: Vec<&Wc> = jobs.iter().collect();
        let cfg = ExecConfig { num_threads: threads, num_reducers: reducers };
        let kernel = run_merged(&refs, &store, &cfg);
        let legacy = run_merged_legacy(&refs, &store, &cfg);
        for ((k, l), job) in kernel.iter().zip(&legacy).zip(&jobs) {
            prop_assert_eq!(&k.records, &l.records,
                "fold={} token={} identity={}", job.fold, job.token, job.identity);
            prop_assert_eq!(k.stats.map_output_records, l.stats.map_output_records);
        }
    }

    /// The shared-scan server agrees with itself across scan paths and with
    /// the plain engine, adaptive sizing on and off.
    #[test]
    fn server_kernel_equals_legacy(
        codes in prop::collection::vec(0u8..48, 2..120),
        block_bytes in 4usize..64,
        threads in prop::sample::select(vec![1usize, 2, 4, 8]),
        adaptive in any::<bool>(),
        resilient in any::<bool>(),
    ) {
        let store = BlockStore::from_text(&build_corpus(&codes), block_bytes);
        let jobs = job_variants("a");
        let reference = run_job(&jobs[0], &store,
            &ExecConfig { num_threads: 1, num_reducers: 2 });

        let mut outputs = Vec::new();
        for scan_path in [ScanPath::Kernel, ScanPath::Legacy] {
            let mut cfg = ServerConfig::new(2, threads);
            cfg.scan_path = scan_path;
            if resilient {
                cfg.ft = FtConfig::resilient();
            }
            if adaptive {
                cfg.adaptive = AdaptiveConfig {
                    enabled: true,
                    target_cadence: Duration::from_micros(500),
                    min_blocks_per_segment: 1,
                    max_blocks_per_segment: 8,
                };
            }
            let server = SharedScanServer::with_config(store.clone(), cfg);
            let handles = server.submit_all(jobs.clone());
            let outs: Vec<_> = handles
                .into_iter()
                .map(|h| h.wait().expect("job completes"))
                .collect();
            server.shutdown();
            outputs.push(outs);
        }
        let (kernel, legacy) = (&outputs[0], &outputs[1]);
        for ((k, l), job) in kernel.iter().zip(legacy).zip(&jobs) {
            prop_assert_eq!(&k.records, &l.records,
                "fold={} token={} identity={}", job.fold, job.token, job.identity);
            prop_assert_eq!(&k.records, &reference.records, "matches plain engine");
            prop_assert_eq!(k.stats.map_output_records, l.stats.map_output_records);
        }
    }

    /// Large, highly repetitive blocks — each distinct token occurs many
    /// times per block — so the histogram replay folds real counts: every
    /// `Wc` shape's records and `map_output_records` equal the legacy
    /// per-occurrence oracle in the merged engine and in the server, both
    /// segment modes.
    #[test]
    fn histogram_replay_counts_match_legacy(
        codes in prop::collection::vec(0u8..48, 200..1200),
        block_bytes in 256usize..4096,
        threads in prop::sample::select(vec![1usize, 2, 4]),
        resilient in any::<bool>(),
    ) {
        let store = BlockStore::from_text(&build_corpus(&codes).repeat(3), block_bytes);
        let jobs = job_variants("");
        let refs: Vec<&Wc> = jobs.iter().collect();
        let cfg = ExecConfig { num_threads: threads, num_reducers: 3 };
        let legacy = run_merged_legacy(&refs, &store, &cfg);
        let merged = run_merged(&refs, &store, &cfg);
        let mut server_cfg = ServerConfig::new(2, threads);
        if resilient {
            server_cfg.ft = FtConfig::resilient();
        }
        let server = SharedScanServer::with_config(store.clone(), server_cfg);
        let served: Vec<_> = server
            .submit_all(jobs.clone())
            .into_iter()
            .map(|h| h.wait().expect("job completes"))
            .collect();
        server.shutdown();
        for (((m, s), l), job) in merged.iter().zip(&served).zip(&legacy).zip(&jobs) {
            let shape = format!("fold={} token={} identity={}", job.fold, job.token, job.identity);
            prop_assert_eq!(&m.records, &l.records, "merged {}", shape);
            prop_assert_eq!(&s.records, &l.records, "server {}", shape);
            prop_assert_eq!(m.stats.map_output_records, l.stats.map_output_records, "merged {}", shape);
            prop_assert_eq!(s.stats.map_output_records, l.stats.map_output_records, "server {}", shape);
        }
    }
}
