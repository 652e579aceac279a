//! The shared per-block map kernel: one block token histogram per scan
//! worker, replayed by every merged job.
//!
//! The paper's Figure 3 splits the cost of n merged jobs into **shared**
//! work — read and parse the block, paid once — and **per-job** work —
//! map and fold, paid n times. Sharing only the tokenize still leaves
//! every merged job walking every token *occurrence*. [`TokenHistogram`]
//! moves that walk into the shared pass: one tokenization of a block
//! yields its distinct tokens, in first-occurrence order, each with its
//! occurrence count. [`scan_block`] then runs each per-token job once per
//! **distinct** token and folds the `count` occurrences locally, so a
//! merged job pays per distinct token (about a tenth of the occurrences in
//! a 1 MiB block of prose) instead of per occurrence.
//!
//! This is exact because per-token hooks are pure functions of the token
//! bytes ([`MapReduceJob::map_token_bytes`],
//! [`MapReduceJob::token_value`]) and `combine_fold` is associative and
//! commutative; `emitted` still advances by `count` per emitted pair, so
//! `map_output_records` and the combiner-hit counters stay exact.
//!
//! The histogram's table is per-worker scratch: it is generation-tagged
//! (a new block bumps the generation instead of clearing the table), kept
//! across blocks and segments, and grows only when a block has more
//! distinct tokens than it can hold.

use crate::arena::{inline_key, mix, short_key_within, TokenMap};
use crate::exec::ScanPath;
use crate::types::MapReduceJob;
use fxhash::FxHashMap;

/// One distinct token of the current block: where its first occurrence
/// sits in the block and how many times it occurs.
#[derive(Clone, Copy)]
struct Distinct {
    off: u32,
    len: u32,
    count: u32,
}

/// One index slot. Occupied for the current block iff `gen` equals the
/// histogram's generation; `key` is the arena's inline key (packed bytes
/// for tokens of at most 8 bytes, else a hash) and `idx` indexes
/// `entries`. Token length is checked against the entry, which every hit
/// touches anyway to bump its count.
#[derive(Clone, Copy)]
struct Slot {
    key: u64,
    gen: u32,
    idx: u32,
}

const EMPTY: Slot = Slot { key: 0, gen: 0, idx: 0 };

/// Initial table size: enough for a small block without a regrow.
const MIN_SLOTS: usize = 256;

/// Distinct tokens of one block with their occurrence counts (see the
/// module docs). Reusable scratch: [`fill`](Self::fill) replaces the
/// previous block's contents without clearing or reallocating the table.
pub struct TokenHistogram {
    /// Distinct tokens of the current block, in first-occurrence order.
    entries: Vec<Distinct>,
    /// Open-addressing index: power-of-two table of [`Slot`]s.
    table: Vec<Slot>,
    /// Generation of the current block; 0 marks a never-used slot.
    gen: u32,
    /// Length of the block last filled, checked on replay.
    block_len: usize,
}

impl Default for TokenHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl TokenHistogram {
    /// An empty histogram. No allocation happens until the first fill.
    pub fn new() -> Self {
        TokenHistogram { entries: Vec::new(), table: Vec::new(), gen: 0, block_len: 0 }
    }

    /// Tokenize `block` (ASCII whitespace, as [`memchr::for_each_token`])
    /// into the histogram, replacing the previous block's contents.
    /// Whole-block tokenization is exact for line-oriented text: `\n` and
    /// `\r` are whitespace, so a block's tokens are its lines' tokens
    /// concatenated.
    ///
    /// # Panics
    /// Panics if `block` is 4 GiB or larger (offsets and counts are `u32`).
    pub fn fill(&mut self, block: &[u8]) {
        assert!(block.len() < u32::MAX as usize, "block too large for a token histogram");
        self.entries.clear();
        self.block_len = block.len();
        if self.table.is_empty() {
            self.table = vec![EMPTY; MIN_SLOTS];
        }
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            // Wrapped: stale slots could alias the new generation.
            self.table.fill(EMPTY);
            self.gen = 1;
        }
        memchr::for_each_token(block, |tok| self.add(block, tok));
    }

    /// Count one occurrence of `tok`, a subslice of `block`.
    #[inline]
    fn add(&mut self, block: &[u8], tok: &[u8]) {
        let tl = tok.len();
        let key = if tl <= 8 { short_key_within(block, tok) } else { fxhash::hash64(tok) };
        let mask = self.table.len() - 1;
        let mut i = mix(key, tl) as usize & mask;
        loop {
            let s = self.table[i];
            if s.gen != self.gen {
                return self.insert_cold(block, tok, key);
            }
            if s.key == key {
                let e = &mut self.entries[s.idx as usize];
                // Short tokens are identified by (key, len); long tokens
                // confirm the hash match against the first occurrence.
                if e.len as usize == tl
                    && (tl <= 8 || &block[e.off as usize..e.off as usize + tl] == tok)
                {
                    e.count += 1;
                    return;
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// First occurrence of a token in this block. Out of line so the
    /// repeat path stays small; the load-factor check lives here because
    /// only inserts change the load factor.
    #[inline(never)]
    fn insert_cold(&mut self, block: &[u8], tok: &[u8], key: u64) {
        if (self.entries.len() + 1) * 4 > self.table.len() * 3 {
            self.grow(block);
        }
        let idx = self.entries.len() as u32;
        self.place(key, tok.len(), idx);
        let off = (tok.as_ptr() as usize - block.as_ptr() as usize) as u32;
        self.entries.push(Distinct { off, len: tok.len() as u32, count: 1 });
    }

    /// Store `idx` under `key` in the first free slot of its probe run.
    fn place(&mut self, key: u64, len: usize, idx: u32) {
        let mask = self.table.len() - 1;
        let mut i = mix(key, len) as usize & mask;
        while self.table[i].gen == self.gen {
            i = (i + 1) & mask;
        }
        self.table[i] = Slot { key, gen: self.gen, idx };
    }

    /// Double the table and re-index this block's entries. The table keeps
    /// its size for later blocks.
    #[cold]
    fn grow(&mut self, block: &[u8]) {
        self.table = vec![EMPTY; self.table.len() * 2];
        self.gen = 1;
        for idx in 0..self.entries.len() {
            let e = self.entries[idx];
            let tok = &block[e.off as usize..(e.off + e.len) as usize];
            self.place(inline_key(tok), tok.len(), idx as u32);
        }
    }

    /// Number of distinct tokens in the block last filled.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the block last filled holds no token.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Visit each distinct token of `block` — the block last passed to
    /// [`fill`](Self::fill) — with its occurrence count, in
    /// first-occurrence order. Each token borrows its first occurrence.
    ///
    /// # Panics
    /// May panic if `block` is not the block last filled.
    pub fn for_each<'b>(&self, block: &'b [u8], mut f: impl FnMut(&'b [u8], u32)) {
        assert_eq!(block.len(), self.block_len, "replaying a different block");
        for e in &self.entries {
            f(&block[e.off as usize..(e.off + e.len) as usize], e.count);
        }
    }
}

/// One block and the worker's histogram scratch, filled lazily by the
/// first per-token job that scans the block and reused by every other.
pub(crate) struct BlockTokens<'s, 'b> {
    hist: &'s mut TokenHistogram,
    block: &'b [u8],
    filled: bool,
}

impl<'s, 'b> BlockTokens<'s, 'b> {
    pub(crate) fn new(hist: &'s mut TokenHistogram, block: &'b [u8]) -> Self {
        BlockTokens { hist, block, filled: false }
    }

    fn histogram(&mut self) -> &TokenHistogram {
        if !self.filled {
            self.hist.fill(self.block);
            self.filled = true;
        }
        self.hist
    }
}

/// Map-side accumulator for one job on one worker: fold jobs stream into
/// one value per key, buffering jobs keep the runs for a later combine,
/// and token-identity fold jobs ([`MapReduceJob::map_emits_token`]) fold
/// under the raw token bytes in a [`TokenMap`] arena — no key is
/// materialized until flush calls `token_key` once per distinct token.
pub(crate) enum JobAcc<J: MapReduceJob> {
    Fold(FxHashMap<J::K, J::V>),
    Buf(FxHashMap<J::K, Vec<J::V>>),
    Tok(TokenMap<J::V>),
}

impl<J: MapReduceJob> JobAcc<J> {
    /// The accumulator kind is a pure function of the job's declared flags
    /// and the scan path, so every worker (and the speculative path's
    /// block-local accumulators) picks the same variant for a job.
    pub(crate) fn for_job(job: &J, scan_path: ScanPath) -> Self {
        if job.combine_is_fold() {
            if scan_path == ScanPath::Kernel && job.map_emits_token() {
                JobAcc::Tok(TokenMap::new())
            } else {
                JobAcc::Fold(FxHashMap::default())
            }
        } else {
            JobAcc::Buf(FxHashMap::default())
        }
    }

    pub(crate) fn push(&mut self, job: &J, k: J::K, v: J::V) {
        match self {
            JobAcc::Fold(map) => fold_into(job, map, k, v),
            JobAcc::Buf(map) => map.entry(k).or_default().push(v),
            JobAcc::Tok(_) => unreachable!("token-identity jobs fold via their arena"),
        }
    }

    /// Merge a committed block-local accumulator into this (persistent)
    /// one — the speculative scan path's idempotent-commit step.
    pub(crate) fn merge(&mut self, job: &J, other: JobAcc<J>) {
        match (self, other) {
            (JobAcc::Fold(m), JobAcc::Fold(o)) => {
                for (k, v) in o {
                    fold_into(job, m, k, v);
                }
            }
            (JobAcc::Buf(m), JobAcc::Buf(o)) => {
                for (k, mut vs) in o {
                    m.entry(k).or_default().append(&mut vs);
                }
            }
            (JobAcc::Tok(m), JobAcc::Tok(o)) => {
                m.merge_from(o, |acc, next| job.combine_fold(acc, next));
            }
            _ => unreachable!("accumulator kinds are fixed per job"),
        }
    }
}

/// Fold `v` into `map`'s accumulator for `k`.
fn fold_into<J: MapReduceJob>(job: &J, map: &mut FxHashMap<J::K, J::V>, k: J::K, v: J::V) {
    match map.entry(k) {
        std::collections::hash_map::Entry::Occupied(mut e) => job.combine_fold(e.get_mut(), v),
        std::collections::hash_map::Entry::Vacant(e) => {
            e.insert(v);
        }
    }
}

/// `n ≥ 1` copies of `v` folded into one value.
#[inline]
fn fold_copies<J: MapReduceJob>(job: &J, v: J::V, n: u32) -> J::V {
    if n == 1 {
        return v;
    }
    let mut acc = v.clone();
    for _ in 2..n {
        job.combine_fold(&mut acc, v.clone());
    }
    job.combine_fold(&mut acc, v);
    acc
}

/// Run one job's map over one block into its accumulator.
///
/// Kernel path: per-token jobs replay the block's shared
/// [`TokenHistogram`] once per distinct token — token-identity jobs call
/// `token_value` once and fold `count` copies into one arena upsert; other
/// fold jobs call `map_token_bytes` once and fold each pair `count` times
/// before one push; buffering jobs push each pair `count` times. Line jobs
/// run `map_bytes` over the SWAR line splitter.
///
/// Legacy path (the byte-equality oracle): lossy `&str` conversion, then
/// `str::lines` / `split_whitespace` into the `&str` entry points, exactly
/// as before the kernel existed. It never touches the histogram.
///
/// User map code may panic; callers wrap this in their per-(job, block)
/// `catch_unwind` where they quarantine.
pub(crate) fn scan_block<J: MapReduceJob>(
    job: &J,
    scan_path: ScanPath,
    tokens: &mut BlockTokens<'_, '_>,
    emitted: &mut u64,
    acc: &mut JobAcc<J>,
) {
    let block = tokens.block;
    match scan_path {
        ScanPath::Kernel if job.map_is_per_token() => {
            let hist = tokens.histogram();
            match acc {
                JobAcc::Tok(map) => hist.for_each(block, |tok, n| {
                    if let Some(v) = job.token_value(tok) {
                        *emitted += n as u64;
                        let v = fold_copies(job, v, n);
                        map.upsert_within(block, tok, v, |a, next| job.combine_fold(a, next));
                    }
                }),
                JobAcc::Fold(map) => hist.for_each(block, |tok, n| {
                    job.map_token_bytes(tok, &mut |k, v| {
                        *emitted += n as u64;
                        fold_into(job, map, k, fold_copies(job, v, n));
                    })
                }),
                JobAcc::Buf(map) => hist.for_each(block, |tok, n| {
                    job.map_token_bytes(tok, &mut |k, v| {
                        *emitted += n as u64;
                        let run = map.entry(k).or_default();
                        run.extend(std::iter::repeat_n(v, n as usize));
                    })
                }),
            }
        }
        ScanPath::Kernel => {
            for line in memchr::lines(block) {
                job.map_bytes(line, &mut |k, v| {
                    *emitted += 1;
                    acc.push(job, k, v);
                });
            }
        }
        ScanPath::Legacy => {
            let text = String::from_utf8_lossy(block);
            if job.map_is_per_token() {
                for tk in text.split_whitespace() {
                    job.map_token(tk, &mut |k, v| {
                        *emitted += 1;
                        acc.push(job, k, v);
                    });
                }
            } else {
                for line in text.lines() {
                    job.map(line, &mut |k, v| {
                        *emitted += 1;
                        acc.push(job, k, v);
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Per-occurrence oracle: every token of `block` counted in a BTreeMap.
    fn oracle(block: &[u8]) -> BTreeMap<Vec<u8>, u32> {
        let mut m = BTreeMap::new();
        memchr::for_each_token(block, |t| *m.entry(t.to_vec()).or_insert(0) += 1);
        m
    }

    /// Fill `hist` with `block` and check it against the oracle: the same
    /// (token, count) multiset, each token listed once, in first-occurrence
    /// order.
    fn check(hist: &mut TokenHistogram, block: &[u8]) {
        hist.fill(block);
        let mut got = BTreeMap::new();
        let mut order = Vec::new();
        hist.for_each(block, |tok, n| {
            assert!(got.insert(tok.to_vec(), n).is_none(), "token {tok:?} listed twice");
            order.push(tok.to_vec());
        });
        assert_eq!(got, oracle(block));
        assert_eq!(hist.len(), got.len());
        let mut first_seen = Vec::new();
        memchr::for_each_token(block, |t| {
            if !first_seen.iter().any(|s: &Vec<u8>| s == t) {
                first_seen.push(t.to_vec());
            }
        });
        assert_eq!(order, first_seen, "distinct tokens in first-occurrence order");
    }

    #[test]
    fn empty_and_whitespace_only_blocks_have_no_tokens() {
        let mut h = TokenHistogram::new();
        for block in [&b""[..], b" ", b"\n\n\r\n", b" \t\x0b\x0c\r\n  "] {
            check(&mut h, block);
            assert!(h.is_empty());
        }
    }

    #[test]
    fn counts_repeats_per_distinct_token() {
        let mut h = TokenHistogram::new();
        let block = b"the cat and the hat and the bat";
        check(&mut h, block);
        let mut got = Vec::new();
        h.for_each(block, |t, n| got.push((t, n)));
        assert_eq!(got[0], (&b"the"[..], 3));
        assert_eq!(got[2], (&b"and"[..], 2));
        assert_eq!(h.len(), 5);
    }

    #[test]
    fn all_distinct_tokens_force_table_growth() {
        let text: String = (0..5000).map(|i| format!("w{i} ")).collect();
        let mut h = TokenHistogram::new();
        check(&mut h, text.as_bytes());
        assert_eq!(h.len(), 5000);
        assert!(h.table.len() * 3 >= h.len() * 4, "table grew to hold the block");
    }

    #[test]
    fn long_tokens_compare_bytes() {
        let block = b"a-fairly-long-token-past-eight short a-fairly-long-token-past-eight \
                      another-long-token-past-eight-bytes a-fairly-long-token-past-eighT";
        check(&mut TokenHistogram::new(), block);
    }

    #[test]
    fn token_ending_at_the_last_byte_uses_the_short_load_fallback() {
        let mut h = TokenHistogram::new();
        // Shorter than one 8-byte load, and tokens flush with the end.
        for block in [&b"ab"[..], b"x ab", b"abc de abc", b"abcdefgh", b"q abcdefgh abcdefg"] {
            check(&mut h, block);
        }
    }

    #[test]
    fn nul_non_utf8_and_crlf_bytes() {
        let block = b"ab\x00 ab ab\x00\r\nab\r\n\xff\xfe \xff\xfe\x00\x00 \x00 \xc3\x28\r\n";
        check(&mut TokenHistogram::new(), block);
    }

    #[test]
    fn scratch_is_reused_across_blocks_of_very_different_sizes() {
        let big: String = (0..20_000).map(|i| format!("t{} ", i % 7000)).collect();
        let mut h = TokenHistogram::new();
        check(&mut h, big.as_bytes());
        let grown = h.table.len();
        check(&mut h, b"tiny tiny block");
        check(&mut h, b"");
        check(&mut h, big.as_bytes());
        check(&mut h, b"t1 t2 t1");
        assert_eq!(h.table.len(), grown, "the table keeps its size, never regrows for a seen size");
    }

    #[test]
    fn generation_wrap_clears_stale_slots() {
        let mut h = TokenHistogram::new();
        check(&mut h, b"a b c a");
        h.gen = u32::MAX - 1;
        for block in [&b"a b c a"[..], b"c d d", b"a b c a", b"e"] {
            check(&mut h, block);
        }
    }

    /// Blocks over a tiny alphabet (so tokens repeat and collide on their
    /// packed keys) with whitespace, NUL and non-UTF-8 bytes.
    fn block_strategy() -> impl Strategy<Value = Vec<u8>> {
        let bytes = prop::sample::select(vec![b'a', b'b', b' ', b'\n', b'\r', b'\t', 0u8, 0xff]);
        prop::collection::vec(bytes, 0..600)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn histogram_matches_the_token_oracle(block in block_strategy()) {
            check(&mut TokenHistogram::new(), &block);
        }

        #[test]
        fn one_scratch_matches_the_oracle_block_after_block(
            blocks in prop::collection::vec(block_strategy(), 1..8),
            long in prop::collection::vec(0u16..3000, 0..400),
        ) {
            let mut h = TokenHistogram::new();
            // A block of many distinct long tokens, between the random ones.
            let wide: String = long.iter().map(|i| format!("long-token-{i:05} ")).collect();
            for block in &blocks {
                check(&mut h, block);
                check(&mut h, wide.as_bytes());
            }
        }
    }
}
