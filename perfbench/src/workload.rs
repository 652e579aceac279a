//! The three workloads: corpus, job stream and output oracle.
//!
//! Every input is generated in process from the `--seed`; the engine only
//! ever sees the generated corpus and jobs. The oracle is the benchmark's
//! own single-threaded reference, independent of every engine executor.

use s3_engine::{BlockStore, MapReduceJob, QosClass};
use s3_sim::SimRng;
use s3_workloads::lineitem::{parse_row, LineItem, LineItemGen};
use s3_workloads::text::TextGen;
use s3_workloads::{ClassMix, PatternWordCount, SelectionJob};
use std::collections::BTreeMap;

/// Scan workers per tenant: the two vCPUs of the reference host.
pub const THREADS: usize = 2;
/// Blocks per segment: one block per worker per segment, the paper's m.
pub const BPS: usize = THREADS;
/// Length of the precomputed job stream; the closed loop cycles through it.
const STREAM_LEN: usize = 4096;
/// Submissions over which the QoS classes take their exact shares.
const CLASS_GROUP: usize = 10;

const MIB: usize = 1 << 20;

/// Which job type a workload drives.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Family {
    WordCount,
    Selection,
}

/// One workload's shape.
pub struct Spec {
    pub name: &'static str,
    pub family: Family,
    pub corpus_bytes: usize,
    pub block_bytes: usize,
    /// Jobs the generator keeps outstanding (C).
    pub outstanding: usize,
    /// QoS classes of the job stream.
    pub classes: ClassMix,
}

/// The workloads, in the order `BENCHMARK.json` lists them.
const SPECS: [Spec; 3] = [
    // Many tiny segments: per-segment coordination dominates, and C is above
    // `max_inflight` so admission and the Low width cap act on every
    // completion.
    Spec {
        name: "wc_small_blocks",
        family: Family::WordCount,
        corpus_bytes: 8 * MIB,
        block_bytes: 4 << 10,
        outstanding: 12,
        classes: ClassMix {
            high: 0.2,
            normal: 0.5,
            low: 0.3,
        },
    },
    // Few huge segments: coordination is negligible and the cost is the
    // shared tokenize plus one arena fold per merged job.
    Spec {
        name: "wc_large_blocks",
        family: Family::WordCount,
        corpus_bytes: 16 * MIB,
        block_bytes: MIB,
        outstanding: 4,
        classes: ClassMix {
            high: 0.0,
            normal: 1.0,
            low: 0.0,
        },
    },
    // Line-oriented selection without a combiner: every selected row flows
    // through partition, shard split, reduce shards and publish.
    Spec {
        name: "tpch_select",
        family: Family::Selection,
        corpus_bytes: 8 * MIB,
        block_bytes: 256 << 10,
        outstanding: 2,
        classes: ClassMix {
            high: 0.0,
            normal: 1.0,
            low: 0.0,
        },
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// A distinct job of a workload, described independently of the engine's
/// job type so the oracle does not reuse the code it checks.
#[derive(Clone, Debug)]
pub enum Kind {
    AllWords,
    Prefix(String),
    Select(u32),
}

/// Share of `PatternWordCount::all` in the wordcount stream.
const ALL_WORDS_SHARE: f64 = 0.2;
/// Distinct prefixes of the wordcount stream.
const PREFIXES: usize = 20;
/// `SelectionJob` thresholds: ~10% of rows (the paper's query) and ~50%.
const THRESHOLDS: [u32; 2] = [45, 25];
/// The selection stream's repeating pattern of threshold indices. The two
/// thresholds give two latency modes; two ~10% jobs per ~50% job keep the
/// median inside one mode and the p95 inside the other, where a 1:1 mix
/// would put the median on the gap between them.
const SELECTION_CYCLE: [usize; 3] = [0, 0, 1];

/// A job type the benchmark can drive: built from a [`Kind`], checked
/// against a single-threaded reference.
pub trait BenchJob: MapReduceJob + Clone + 'static {
    fn from_kind(kind: &Kind) -> Self;
    fn oracle(text: &str, kinds: &[Kind]) -> Vec<BTreeMap<Self::K, Self::Out>>;
}

impl BenchJob for PatternWordCount {
    fn from_kind(kind: &Kind) -> Self {
        match kind {
            Kind::AllWords => PatternWordCount::all(),
            Kind::Prefix(p) => PatternWordCount::prefix(p.clone()),
            Kind::Select(_) => unreachable!("selection kind in a wordcount stream"),
        }
    }

    fn oracle(text: &str, kinds: &[Kind]) -> Vec<BTreeMap<String, i64>> {
        let mut counts: BTreeMap<&str, i64> = BTreeMap::new();
        for word in text.split_whitespace() {
            *counts.entry(word).or_insert(0) += 1;
        }
        kinds
            .iter()
            .map(|kind| {
                counts
                    .iter()
                    .filter(|(w, _)| match kind {
                        Kind::AllWords => true,
                        Kind::Prefix(p) => w.starts_with(p.as_str()),
                        Kind::Select(_) => unreachable!("selection kind in a wordcount stream"),
                    })
                    .map(|(w, &n)| (w.to_string(), n))
                    .collect()
            })
            .collect()
    }
}

impl BenchJob for SelectionJob {
    fn from_kind(kind: &Kind) -> Self {
        match kind {
            Kind::Select(t) => SelectionJob {
                quantity_threshold: *t,
            },
            _ => unreachable!("wordcount kind in a selection stream"),
        }
    }

    fn oracle(text: &str, kinds: &[Kind]) -> Vec<BTreeMap<String, String>> {
        let rows: Vec<LineItem> = text
            .lines()
            .map(|l| parse_row(l).expect("generated lineitem rows parse"))
            .collect();
        kinds
            .iter()
            .map(|kind| {
                let Kind::Select(t) = kind else {
                    unreachable!("wordcount kind in a selection stream")
                };
                rows.iter()
                    .filter(|r| r.quantity > *t)
                    .map(selected_record)
                    .collect()
            })
            .collect()
    }
}

/// The output record of `SELECT l_orderkey, l_extendedprice, l_discount`
/// for one row: zero-padded key so the order is numeric.
pub fn selected_record(row: &LineItem) -> (String, String) {
    let key = format!("{:012}", row.orderkey);
    let value = format!(
        "{}|{}.{:02}|0.{:02}",
        row.orderkey,
        row.extendedprice_cents / 100,
        row.extendedprice_cents % 100,
        row.discount_pct
    );
    (key, value)
}

/// One submission of the job stream.
#[derive(Clone, Copy)]
pub struct Draw {
    pub kind: usize,
    pub class: QosClass,
}

/// Everything a run needs besides the service: inputs and references.
pub struct Workload<J: BenchJob> {
    pub spec: &'static Spec,
    pub store: BlockStore,
    pub kinds: Vec<Kind>,
    pub jobs: Vec<J>,
    pub refs: Vec<BTreeMap<J::K, J::Out>>,
    pub stream: Vec<Draw>,
}

impl<J: BenchJob> Workload<J> {
    /// The `i`-th submission: its job and class, and the index of its
    /// reference output.
    pub fn draw(&self, i: usize) -> (J, QosClass, usize) {
        let d = self.stream[i % self.stream.len()];
        (self.jobs[d.kind].clone(), d.class, d.kind)
    }

    /// The stream's first `n` jobs, and the index of each one's reference.
    pub fn first(&self, n: usize) -> (Vec<J>, Vec<usize>) {
        (0..n)
            .map(|i| self.draw(i))
            .map(|(job, _, kind)| (job, kind))
            .unzip()
    }
}

/// Generate the workload's corpus text from the seed.
pub fn generate_corpus(spec: &Spec, seed: u64) -> String {
    let mut rng = SimRng::seed_from_u64(seed);
    match spec.family {
        Family::WordCount => TextGen::paper_like().generate(&mut rng, spec.corpus_bytes),
        Family::Selection => LineItemGen::new().generate(&mut rng, spec.corpus_bytes),
    }
}

/// The distinct jobs and the seeded submission stream.
///
/// The stream is stratified: every run of `kind_group.len()` submissions
/// holds each job in its exact share, and every run of `CLASS_GROUP`
/// submissions each QoS class in its `ClassMix` share, in a seeded order.
/// Independent draws would let the job mix of one window, and with it the
/// throughput, vary by several percent from seed to seed.
pub fn job_stream(spec: &Spec, seed: u64) -> (Vec<Kind>, Vec<Draw>) {
    let mut rng = SimRng::seed_from_u64(seed).fork(1);
    let (kinds, kind_group, shuffle_kinds) = match spec.family {
        Family::WordCount => {
            // Every third distinct two-byte word prefix in frequency-rank
            // order, so the prefixes span frequent and rare words.
            let gen = TextGen::paper_like();
            let mut prefixes: Vec<&str> = Vec::new();
            for rank in 0..gen.vocab_size() {
                let w = gen.word(rank);
                let p = w.get(..2).unwrap_or(w);
                if !prefixes.contains(&p) {
                    prefixes.push(p);
                }
            }
            let kinds: Vec<Kind> = std::iter::once(Kind::AllWords)
                .chain(
                    prefixes
                        .iter()
                        .step_by(3)
                        .take(PREFIXES)
                        .map(|p| Kind::Prefix(p.to_string())),
                )
                .collect();
            // ALL_WORDS_SHARE of a group is `all`, the rest one job per prefix.
            let all = (ALL_WORDS_SHARE * (kinds.len() - 1) as f64 / (1.0 - ALL_WORDS_SHARE)).round()
                as usize;
            let group = std::iter::repeat_n(0, all).chain(1..kinds.len()).collect();
            (kinds, group, true)
        }
        Family::Selection => (
            THRESHOLDS.iter().map(|&t| Kind::Select(t)).collect(),
            SELECTION_CYCLE.to_vec(),
            false,
        ),
    };
    let c = spec.classes;
    let total = c.high + c.normal + c.low;
    let share = |x: f64| (x / total * CLASS_GROUP as f64).round() as usize;
    let (high, low) = (share(c.high), share(c.low));
    let class_group: Vec<QosClass> = [
        (QosClass::High, high),
        (QosClass::Low, low),
        (QosClass::Normal, CLASS_GROUP - high - low),
    ]
    .into_iter()
    .flat_map(|(class, n)| std::iter::repeat_n(class, n))
    .collect();

    let mut kinds_seq = Vec::with_capacity(STREAM_LEN);
    while kinds_seq.len() < STREAM_LEN {
        let mut g = kind_group.clone();
        if shuffle_kinds {
            shuffle(&mut g, &mut rng);
        }
        kinds_seq.extend(g);
    }
    let mut classes = Vec::with_capacity(STREAM_LEN);
    while classes.len() < STREAM_LEN {
        let mut g = class_group.clone();
        shuffle(&mut g, &mut rng);
        classes.extend(g);
    }
    let stream = kinds_seq
        .into_iter()
        .zip(classes)
        .map(|(kind, class)| Draw { kind, class })
        .collect();
    (kinds, stream)
}

/// Fisher-Yates shuffle driven by the workload's seeded generator.
fn shuffle<T>(v: &mut [T], rng: &mut SimRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.index(i + 1));
    }
}
