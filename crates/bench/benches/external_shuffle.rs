//! In-memory vs bounded-memory (spilling) execution: the real cost of the
//! sort/spill/merge pipeline the simulator's `sort_s_per_mb` abstracts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use s3_engine::{run_job, run_job_external, ExecConfig, ExternalConfig};
use s3_workloads::jobs::PatternWordCount;
use s3_workloads::text::corpus;

fn bench_external(c: &mut Criterion) {
    let store = corpus(77, 4 << 20, 256 << 10);
    let job = PatternWordCount::all();
    let exec = ExecConfig {
        num_threads: 4,
        num_reducers: 8,
    };

    let mut g = c.benchmark_group("external_shuffle");
    g.sample_size(10);
    g.throughput(Throughput::Bytes(store.total_bytes() as u64));

    g.bench_function("in_memory", |b| {
        b.iter(|| run_job(&job, &store, &exec));
    });
    for spill_records in [100_000usize, 10_000, 1_000] {
        g.bench_with_input(
            BenchmarkId::new("spilling", spill_records),
            &spill_records,
            |b, &spill_records| {
                let cfg = ExternalConfig {
                    exec: exec.clone(),
                    spill_records,
                    tmp_dir: None,
                };
                b.iter(|| run_job_external(&job, &store, &cfg).expect("spill io"));
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_external);
criterion_main!(benches);
