//! Degenerate-store hardening for the shared-scan server: a zero-block
//! store (a zero-length file) and a one-block store must work on both
//! scan paths, with and without adaptive sizing — jobs resolve with
//! exact (possibly empty) output, exact stats, and never hang or panic.
//!
//! Also pins the claim-coordination cost of degenerate shapes: every
//! segment scanned by a single worker (one-thread servers, one-block
//! segments, stores no larger than a block, empty stores) must take the
//! solo fast path and issue **zero** atomic claim operations
//! ([`SharedScanServer::claim_ops`]), while a genuinely fanned-out scan
//! must go through the shared cursor.

use s3_engine::{
    run_job, AdaptiveConfig, BlockStore, ExecConfig, FtConfig, MapReduceJob, Obs, ServerConfig,
    SharedScanServer,
};
use std::time::Duration;

/// Plain word count.
struct Count;

impl MapReduceJob for Count {
    type K = String;
    type V = i64;
    type Out = i64;
    fn map(&self, line: &str, emit: &mut dyn FnMut(String, i64)) {
        for w in line.split_whitespace() {
            emit(w.to_string(), 1);
        }
    }
    fn reduce(&self, _k: &String, v: &[i64]) -> Option<i64> {
        Some(v.iter().sum())
    }
}

fn configs() -> Vec<(&'static str, ServerConfig)> {
    let mut out = Vec::new();
    for adaptive in [false, true] {
        for speculation in [false, true] {
            let mut cfg = ServerConfig::new(2, 2);
            cfg.obs = Obs::new();
            if speculation {
                cfg.ft = FtConfig {
                    deadline_floor: Duration::from_millis(3),
                    ..FtConfig::resilient()
                };
            }
            if adaptive {
                cfg.adaptive = AdaptiveConfig {
                    enabled: true,
                    target_cadence: Duration::from_millis(1),
                    min_blocks_per_segment: 1,
                    max_blocks_per_segment: 4,
                };
            }
            let name: &'static str = match (adaptive, speculation) {
                (false, false) => "fixed/cooperative",
                (false, true) => "fixed/speculative",
                (true, false) => "adaptive/cooperative",
                (true, true) => "adaptive/speculative",
            };
            out.push((name, cfg));
        }
    }
    out
}

/// Satellite (a): submitting to a server over an empty store must resolve
/// immediately with empty output — no panic building segment cuts, no
/// handle hanging on a revolution that can never scan anything.
#[test]
fn empty_store_resolves_jobs_with_empty_output() {
    for (name, cfg) in configs() {
        let obs = cfg.obs.clone();
        let server = SharedScanServer::with_config(BlockStore::new(vec![]), cfg);
        assert_eq!(server.num_segments(), 0, "{name}");
        let handles = server.submit_all(vec![Count, Count, Count]);
        for h in handles {
            let out = h.wait().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(out.records.is_empty(), "{name}: no input, no output");
            assert_eq!(out.stats.blocks_scanned, 0, "{name}");
            assert_eq!(out.stats.bytes_scanned, 0, "{name}");
            assert_eq!(out.stats.map_output_records, 0, "{name}");
        }
        server.shutdown();
        let snap = obs.snapshot().expect("observed");
        assert_eq!(snap.counter("engine.jobs_completed"), 3, "{name}");
        assert_eq!(snap.counter("engine.jobs_quarantined"), 0, "{name}");
    }
}

/// A one-block store: the smallest non-empty revolution. Output and stats
/// must match a solo run exactly on every path.
#[test]
fn one_block_store_scans_exactly_once() {
    let s = BlockStore::from_text("alpha beta alpha\n", 1024);
    assert_eq!(s.num_blocks(), 1);
    let reference = run_job(
        &Count,
        &s,
        &ExecConfig {
            num_threads: 1,
            num_reducers: 2,
        },
    );

    for (name, cfg) in configs() {
        let server = SharedScanServer::with_config(s.clone(), cfg);
        let out = server
            .submit(Count)
            .wait()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(out.records, reference.records, "{name}");
        assert_eq!(out.stats.blocks_scanned, 1, "{name}");
        assert_eq!(
            out.stats.bytes_scanned, reference.stats.bytes_scanned,
            "{name}"
        );
        server.shutdown();
    }
}

/// Every degenerate shape where at most one worker can ever scan a
/// segment must take the solo fast path: zero atomic claim operations,
/// output still exact. Covers one thread over many blocks, one-block
/// segments over many threads, more workers than a one-block store has
/// blocks, and the empty store. Cooperative path — the resilient path
/// always pays for its claim words, by design.
#[test]
fn solo_scan_shapes_issue_zero_claim_ops() {
    let s = BlockStore::from_text(&"zeta eta theta\n".repeat(400), 256);
    assert!(s.num_blocks() > 8);
    let reference = run_job(
        &Count,
        &s,
        &ExecConfig {
            num_threads: 1,
            num_reducers: 2,
        },
    );
    let one = BlockStore::from_text("iota kappa iota\n", 1024);
    assert_eq!(one.num_blocks(), 1);

    let shapes: Vec<(&str, BlockStore, ServerConfig)> = vec![
        ("one thread, 4-block segments", s.clone(), ServerConfig::new(4, 1)),
        ("one-block segments, 4 threads", s.clone(), ServerConfig::new(1, 4)),
        ("8 workers, one-block store", one.clone(), ServerConfig::new(2, 8)),
        ("empty store", BlockStore::new(vec![]), ServerConfig::new(2, 4)),
    ];
    for (name, store, cfg) in shapes {
        let expect_empty = store.num_blocks() == 0;
        let expected = if expect_empty || store.num_blocks() == 1 {
            None // checked against a per-store solo run below
        } else {
            Some(&reference)
        };
        let server = SharedScanServer::with_config(store.clone(), cfg);
        let out = server
            .submit(Count)
            .wait()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        if let Some(r) = expected {
            assert_eq!(out.records, r.records, "{name}");
        } else if expect_empty {
            assert!(out.records.is_empty(), "{name}");
        }
        assert_eq!(
            out.stats.blocks_scanned as usize,
            store.num_blocks(),
            "{name}"
        );
        assert_eq!(
            server.claim_ops(),
            0,
            "{name}: solo fast path must not touch the shared cursor"
        );
        server.shutdown();
    }
}

/// Satellite (b): `bytes_scanned` must equal the total length of the byte
/// slices actually claimed — computed independently from
/// [`BlockStore::block_offsets`], not from the engine's own counters — on
/// the empty store, a one-block store, and a `blocks_per_segment` far
/// beyond the block count, across every server shape.
#[test]
fn bytes_scanned_matches_claimed_slice_lengths_exactly() {
    let stores: Vec<(&str, BlockStore)> = vec![
        ("empty", BlockStore::new(vec![])),
        ("one block", BlockStore::from_text("omicron pi rho\n", 4096)),
        (
            "many blocks",
            BlockStore::from_text(&"sigma tau upsilon phi\n".repeat(300), 256),
        ),
    ];
    for (store_name, s) in stores {
        let cuts = s.block_offsets();
        assert_eq!(cuts.len(), s.num_blocks() + 1);
        // The slices the scan claims are exactly cuts[i]..cuts[i+1].
        let claimed: u64 = (0..s.num_blocks())
            .map(|i| (cuts[i + 1] - cuts[i]) as u64)
            .sum();
        assert_eq!(claimed as usize, s.total_bytes(), "{store_name}");

        let solo = run_job(
            &Count,
            &s,
            &ExecConfig {
                num_threads: 2,
                num_reducers: 2,
            },
        );
        assert_eq!(solo.stats.bytes_scanned, claimed, "{store_name}: run_job");

        for (name, cfg) in configs() {
            let server = SharedScanServer::with_config(s.clone(), cfg);
            let out = server
                .submit(Count)
                .wait()
                .unwrap_or_else(|e| panic!("{store_name}/{name}: {e}"));
            assert_eq!(out.stats.bytes_scanned, claimed, "{store_name}/{name}");
            assert_eq!(
                out.stats.blocks_scanned as usize,
                s.num_blocks(),
                "{store_name}/{name}"
            );
            server.shutdown();
        }
        // blocks_per_segment far larger than the store.
        let server =
            SharedScanServer::with_config(s.clone(), ServerConfig::new(s.num_blocks() + 50, 2));
        let out = server
            .submit(Count)
            .wait()
            .unwrap_or_else(|e| panic!("{store_name}/oversized: {e}"));
        assert_eq!(out.stats.bytes_scanned, claimed, "{store_name}/oversized");
        server.shutdown();
    }
}

/// Positive control for the pins above: with real fan-out (three workers
/// racing over four-block segments) the shared claim cursor is the
/// scheduling mechanism, so claim operations must be issued — and the
/// output must still be exact.
#[test]
fn fanned_out_scan_goes_through_the_shared_cursor() {
    let s = BlockStore::from_text(&"lambda mu nu xi\n".repeat(200), 256);
    assert!(s.num_blocks() > 8);
    let reference = run_job(
        &Count,
        &s,
        &ExecConfig {
            num_threads: 1,
            num_reducers: 2,
        },
    );
    let server = SharedScanServer::with_config(s.clone(), ServerConfig::new(4, 3));
    let out = server.submit(Count).wait().expect("job completed");
    assert_eq!(out.records, reference.records);
    assert!(
        server.claim_ops() > 0,
        "a fanned-out scan must schedule blocks through the shared cursor"
    );
    server.shutdown();
}

/// Satellite (e): `blocks_per_segment` far larger than the block count.
/// The single oversized segment must report exact stats, and an adaptive
/// server must be able to shrink out of it and later re-grow without
/// double-scanning any block.
#[test]
fn oversized_segment_config_is_exact_on_both_paths() {
    let s = BlockStore::from_text(&"gamma delta epsilon\n".repeat(200), 512);
    let n = s.num_blocks();
    assert!(n > 1);
    let reference = run_job(
        &Count,
        &s,
        &ExecConfig {
            num_threads: 1,
            num_reducers: 2,
        },
    );

    for speculation in [false, true] {
        for adaptive in [false, true] {
            let mut cfg = ServerConfig::new(n + 9, 2);
            cfg.obs = Obs::new();
            if speculation {
                cfg.ft = FtConfig {
                    deadline_floor: Duration::from_millis(3),
                    ..FtConfig::resilient()
                };
            }
            if adaptive {
                cfg.adaptive = AdaptiveConfig {
                    enabled: true,
                    target_cadence: Duration::from_micros(200),
                    min_blocks_per_segment: 1,
                    max_blocks_per_segment: n + 9,
                };
            }
            let server = SharedScanServer::with_config(s.clone(), cfg);
            assert_eq!(server.num_segments(), 1);
            // Several sequential jobs so an adaptive server crosses many
            // boundaries (shrinking, then re-growing as cost settles).
            for round in 0..4 {
                let out = server.submit(Count).wait().unwrap_or_else(|e| {
                    panic!("spec {speculation} adaptive {adaptive} round {round}: {e}")
                });
                assert_eq!(
                    out.records, reference.records,
                    "spec {speculation} adaptive {adaptive} round {round}"
                );
                assert_eq!(out.stats.blocks_scanned as usize, n);
                assert_eq!(out.stats.bytes_scanned, reference.stats.bytes_scanned);
            }
            server.shutdown();
        }
    }
}
