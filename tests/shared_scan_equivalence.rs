//! The semantic heart of the paper, verified on real data at integration
//! scale: a merged shared scan produces byte-identical results to
//! independent execution, for both workload families, across thread and
//! reducer configurations.

use s3_engine::{run_job, run_merged, BlockStore, ExecConfig};
use s3_sim::SimRng;
use s3_workloads::jobs::{PatternWordCount, SelectionJob, WordPattern};
use s3_workloads::lineitem::LineItemGen;
use s3_workloads::text::TextGen;

fn text_store() -> BlockStore {
    let gen = TextGen::new(5000, 1.1);
    let text = gen.generate(&mut SimRng::seed_from_u64(2024), 2 << 20);
    BlockStore::from_text(&text, 64 << 10)
}

fn lineitem_store() -> BlockStore {
    let text = LineItemGen::new().generate(&mut SimRng::seed_from_u64(2025), 2 << 20);
    BlockStore::from_text(&text, 64 << 10)
}

#[test]
fn ten_wordcount_jobs_share_one_scan_losslessly() {
    let store = text_store();
    let jobs: Vec<PatternWordCount> = vec![
        PatternWordCount::all(),
        PatternWordCount::prefix("b"),
        PatternWordCount::prefix("ta"),
        PatternWordCount::prefix("zzz"), // empty result
        PatternWordCount {
            pattern: WordPattern::Contains("an".into()),
        },
        PatternWordCount {
            pattern: WordPattern::Contains("q".into()),
        },
        PatternWordCount {
            pattern: WordPattern::Length(4),
        },
        PatternWordCount {
            pattern: WordPattern::Length(6),
        },
        PatternWordCount::prefix("da"),
        PatternWordCount::prefix("ma"),
    ];
    let cfg = ExecConfig {
        num_threads: 4,
        num_reducers: 7,
    };
    let refs: Vec<&PatternWordCount> = jobs.iter().collect();
    let merged = run_merged(&refs, &store, &cfg);
    assert_eq!(merged.len(), 10);
    for (i, (job, m)) in jobs.iter().zip(&merged).enumerate() {
        let solo = run_job(job, &store, &cfg);
        assert_eq!(m.records, solo.records, "job {i} ({:?})", job.pattern);
        assert_eq!(m.stats.map_output_records, solo.stats.map_output_records);
    }
}

#[test]
fn selection_jobs_share_one_scan_losslessly() {
    let store = lineitem_store();
    let jobs: Vec<SelectionJob> = (0..6)
        .map(|i| SelectionJob {
            quantity_threshold: 10 + i * 8,
        })
        .collect();
    let cfg = ExecConfig::default();
    let refs: Vec<&SelectionJob> = jobs.iter().collect();
    let merged = run_merged(&refs, &store, &cfg);
    for (job, m) in jobs.iter().zip(&merged) {
        let solo = run_job(job, &store, &cfg);
        assert_eq!(
            m.records, solo.records,
            "threshold {}",
            job.quantity_threshold
        );
    }
    // Monotonicity: higher threshold selects a subset.
    for w in merged.windows(2) {
        assert!(w[1].records.len() <= w[0].records.len());
        for k in w[1].records.keys() {
            assert!(w[0].records.contains_key(k));
        }
    }
}

#[test]
fn equivalence_is_configuration_independent() {
    // Outputs must not depend on threads or reducer counts — merged or not.
    let store = text_store();
    let job = PatternWordCount::prefix("ba");
    let reference = run_job(
        &job,
        &store,
        &ExecConfig {
            num_threads: 1,
            num_reducers: 1,
        },
    );
    for threads in [2, 8] {
        for reducers in [3, 16] {
            let cfg = ExecConfig {
                num_threads: threads,
                num_reducers: reducers,
            };
            let solo = run_job(&job, &store, &cfg);
            assert_eq!(solo.records, reference.records, "solo {threads}x{reducers}");
            let merged = run_merged(&[&job], &store, &cfg);
            assert_eq!(
                merged[0].records, reference.records,
                "merged {threads}x{reducers}"
            );
        }
    }
}

#[test]
fn shared_scan_reads_each_byte_once() {
    let store = text_store();
    let jobs = [
        PatternWordCount::prefix("a"),
        PatternWordCount::prefix("b"),
        PatternWordCount::prefix("d"),
    ];
    let refs: Vec<&PatternWordCount> = jobs.iter().collect();
    let merged = run_merged(&refs, &store, &ExecConfig::default());
    for m in &merged {
        assert_eq!(m.stats.bytes_scanned as usize, store.total_bytes());
        assert_eq!(m.stats.blocks_scanned as usize, store.num_blocks());
    }
}
