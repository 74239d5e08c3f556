//! Super-candidate support counting (Section 5.2), serial and sharded.
//!
//! Candidates sharing (a) identical categorical items and (b) the same set
//! of quantitative attributes are fused into one *super-candidate*. A hash
//! tree over the categorical parts finds which super-candidates a record's
//! categorical values support; the quantitative values then form a point
//! that is counted against the super-candidate's rectangles — in a dense
//! n-dimensional array or an R*-tree, whichever the memory heuristic
//! prefers.
//!
//! # Parallel counting
//!
//! The paper's Section 6 cost model observes that pass runtime is
//! dominated by the record scan; everything else (grouping, backend
//! choice, summation) is record-independent. The scan parallelizes over
//! *data shards*: the table's rows are split into `num_threads` contiguous
//! ranges, every worker runs the identical per-record counting loop over
//! its range with private counters, and the per-shard tallies are merged
//! by integer addition in shard order before the frequency filter.
//!
//! Shard tasks execute on a persistent [`WorkerPool`] (the [`crate::Miner`]'s
//! own, or the process-wide pool) instead of freshly spawned threads, and
//! every piece of record-independent state is shared rather than cloned:
//! plan rectangles sit behind `Arc`, and the hash trees are walked
//! read-only with per-shard [`VisitScratch`] visit stamps.
//!
//! Because each record is counted by exactly one shard and `u64` addition
//! is exact, the merged counts are **bit-identical** to a serial scan for
//! every thread count — parallelism is pure performance, never semantics.
//! The serial-equivalence property is enforced by unit tests here and a
//! randomized end-to-end test in `tests/proptest_pipeline.rs`.
//!
//! # Categorical-tuple memoization
//!
//! On tables where a handful of distinct categorical tuples cover most
//! rows (low-cardinality categorical attributes — the common shape for
//! the paper's census-style data), the hash-tree subset walk computes the
//! same matched-super-candidate list over and over. Each shard therefore
//! caches `categorical tuple → matched plan list` and reuses the list for
//! every later row with the same tuple, so the subset walk runs once per
//! *distinct* tuple instead of once per row. The cache stops admitting
//! new tuples past [`ScanOptions::memo_limit`], and gives up when the
//! distinct-tuple count is high — after the first full block, if fewer
//! than [`MEMO_TRIAL_FACTOR`] rows share each observed tuple on average,
//! or at any block boundary where the cache is full and has never served
//! a hit, the shard stops probing entirely so near-distinct tables pay at
//! most one block's worth of cache overhead. Cached and direct walks
//! produce the same list, so memoization never changes counts.
//!
//! # The bitmask kernel
//!
//! Where memoization gives up — (near-)all-distinct categorical tuples —
//! the remaining cost is per-row branching: the subset walk plus
//! rectangle containment, row at a time. The bitmask kernel
//! ([`crate::ScanKernel::Bitmask`]) removes the per-row control flow
//! entirely: for each [`CANCEL_CHECK_INTERVAL`]-row block it evaluates
//! every predicate over the whole block into `u64` bitsets — one
//! equality mask per *distinct* categorical `(attribute, code)` pair
//! (shared by all plans that test it), one branchless
//! `lo <= code <= hi` range mask per member rectangle dimension — then
//! ANDs masks together and popcounts, a shape the autovectorizer turns
//! into SIMD compares with no per-row branches. Per-block min/max
//! summaries of each touched column pre-screen plans and members: a
//! predicate code or rectangle that cannot intersect the block's value
//! range skips the block without touching a single row, and a mask word
//! that has gone all-zero short-circuits the remaining ANDs.
//!
//! Which kernel runs is [`ScanOptions::kernel`] (a
//! [`crate::ScanKernel`]): `Direct` and `Memoized` are the row-wise
//! walks above, `Bitmask` is the blocked kernel, and `Auto` (the
//! default) starts memoized and lets the first-full-block trial decide —
//! high tuple reuse keeps the cache, near-zero reuse switches the shard
//! to the bitmask kernel for its remaining blocks. Every kernel produces
//! **bit-identical counts** (enforced by unit tests, the
//! `bitmask_scan_equals_direct_and_naive` proptest, and the fuzz
//! oracle's `kernel` kind); the knob is pure performance, never
//! semantics.

use crate::config::ScanKernel;
use crate::pool::WorkerPool;
use qar_itemset::{CounterKind, HashTree, Item, Itemset, RectCounter, VisitScratch};
use qar_table::{AttributeId, AttributeKind, EncodedTable};
use qar_trace::CancelToken;
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shard scan observed its [`CancelToken`] and stopped early. The pass's
/// partial counts are meaningless (some shards may not have finished), so
/// the counting entry points return this marker instead of tallies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanCancelled;

/// How many records a shard scans between [`CancelToken`] checks. Small
/// enough that cancellation lands "within one shard's worth of work" even
/// on wide tables, large enough that the atomic load is invisible next to
/// the per-record counting cost. The interval is relative to the rows a
/// shard has scanned (not the absolute row index), so every shard hits
/// its first checkpoint after at most one interval regardless of where
/// its range starts.
pub const CANCEL_CHECK_INTERVAL: usize = 1024;

/// Most distinct categorical tuples a shard's memo cache will admit.
/// Past this the cache stops growing (existing entries still serve hits):
/// a table whose tuples are mostly distinct gains nothing from
/// memoization, so unbounded growth would only add hashing and memory on
/// exactly the tables the optimization cannot help.
pub const MEMO_MAX_DISTINCT: usize = 1 << 12;

/// Minimum average rows-per-distinct-tuple the memo cache must observe in
/// a shard's first full block to stay enabled. Below this the table is
/// (nearly) all-distinct from the cache's point of view, every probe is a
/// miss, and hashing the tuple per row is pure overhead — the shard drops
/// the cache and runs the direct walk for its remaining rows. The trial
/// only runs when the first block is full-size
/// ([`CANCEL_CHECK_INTERVAL`] rows), so small tables and narrow shards —
/// whose total cache cost is bounded anyway — are never kicked off the
/// fast path by a noisy sample.
pub const MEMO_TRIAL_FACTOR: usize = 2;

/// Tuning knobs for one counting scan. [`ScanOptions::new`] gives the
/// defaults every production path uses; the extra fields exist for the
/// `--kernel` ablation, the fuzz oracle, and threshold unit tests.
#[derive(Debug, Clone, Copy)]
pub struct ScanOptions<'a> {
    /// Upper bound on data shards scanned in parallel (`<= 1` is serial).
    pub num_threads: usize,
    /// Cooperative cancellation token, checked every
    /// [`CANCEL_CHECK_INTERVAL`] rows within each shard.
    pub cancel: Option<&'a CancelToken>,
    /// Worker pool to run shard tasks on; `None` uses the process-wide
    /// [`WorkerPool::global`].
    pub pool: Option<&'a WorkerPool>,
    /// Which scan kernel runs the record loop (see module docs). Counts
    /// are bit-identical for every variant.
    pub kernel: ScanKernel,
    /// Distinct-tuple cap of the memo cache, [`MEMO_MAX_DISTINCT`] unless
    /// a test overrides it. Zero disables the cache (under
    /// [`ScanKernel::Auto`] the shard then starts on the bitmask kernel
    /// directly — there is nothing left to trial).
    pub memo_limit: usize,
}

impl<'a> ScanOptions<'a> {
    /// Default options for an uncancellable scan on `num_threads` shards.
    pub fn new(num_threads: usize) -> Self {
        ScanOptions {
            num_threads,
            cancel: None,
            pool: None,
            kernel: ScanKernel::Auto,
            memo_limit: MEMO_MAX_DISTINCT,
        }
    }
}

/// Run shard tasks on the supplied pool, or the process-wide one.
fn run_sharded<'env, T, F>(pool: Option<&WorkerPool>, tasks: Vec<F>) -> Vec<T>
where
    T: Send + 'env,
    F: FnOnce() -> T + Send + 'env,
{
    match pool {
        Some(pool) => pool.run(tasks),
        None => WorkerPool::global().run(tasks),
    }
}

/// Statistics of one counting pass, reported in [`crate::MiningStats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PassStats {
    /// Number of super-candidates formed.
    pub super_candidates: usize,
    /// How many chose the n-dimensional array backend.
    pub array_backed: usize,
    /// How many chose the R*-tree backend.
    pub rtree_backed: usize,
    /// Wall-clock time of the record scan (the component the paper's cost
    /// model calls "counting support", proportional to the table size;
    /// the rest of a pass — candidate generation and summation — is
    /// record-independent). With `n` shards this is the elapsed time of
    /// the whole fan-out/join region, so speedup is visible as
    /// `sum(shard_scan_times) / scan_time`.
    pub scan_time: Duration,
    /// Per-shard busy time of the record scan, in shard order. Length is
    /// the number of shards the pass actually used (1 for a serial scan).
    pub shard_scan_times: Vec<Duration>,
    /// Time spent summing per-shard counters into the final tallies
    /// (zero for a serial scan — there is nothing to merge).
    pub merge_time: Duration,
    /// Total nodes across the pass's categorical hash trees (the shared
    /// structure each shard clones; zero when every super-candidate is
    /// purely quantitative).
    pub hash_tree_nodes: usize,
    /// Estimated peak heap bytes of the pass's counting structures —
    /// per-shard counters are live simultaneously, so this is the
    /// single-shard estimate times the shard count (and the maximum over
    /// sequential chunks for the chunked implicit pair pass).
    pub counter_bytes: usize,
    /// True when the scan ran its shards on a worker pool (more than one
    /// shard); a serial scan never leaves the calling thread.
    pub pooled: bool,
    /// True when the categorical-tuple memo cache was enabled for the
    /// scan (it never changes counts — see module docs).
    pub memoized: bool,
    /// Distinct categorical tuples the memo caches admitted, summed over
    /// shards. Zero when memoization was disabled or never engaged.
    pub distinct_tuples: usize,
    /// Rows whose matched-plan list was served from the memo cache,
    /// summed over shards.
    pub memo_hits: u64,
    /// The scan kernel the pass resolved to: `"direct"`, `"memoized"`,
    /// or `"bitmask"` when every shard agreed ([`crate::ScanKernel::Auto`]
    /// resolves per shard), `"mixed"` when shards — or the physical
    /// sub-scans of one logical pass — disagreed.
    pub kernel: String,
}

impl PassStats {
    /// Number of data shards the scan used.
    pub fn num_shards(&self) -> usize {
        self.shard_scan_times.len().max(1)
    }

    /// Fold another pass's scan bookkeeping into this one (used when one
    /// logical pass issues several physical scans, e.g. the chunked
    /// implicit pair pass).
    pub fn absorb_scan(&mut self, other: &PassStats) {
        self.scan_time += other.scan_time;
        self.merge_time += other.merge_time;
        self.hash_tree_nodes += other.hash_tree_nodes;
        // Sequential sub-scans free their counters before the next one
        // allocates, so the peak is the max, not the sum.
        self.counter_bytes = self.counter_bytes.max(other.counter_bytes);
        self.pooled |= other.pooled;
        self.memoized |= other.memoized;
        self.distinct_tuples += other.distinct_tuples;
        self.memo_hits += other.memo_hits;
        if self.kernel.is_empty() {
            self.kernel = other.kernel.clone();
        } else if !other.kernel.is_empty() && self.kernel != other.kernel {
            self.kernel = "mixed".into();
        }
        add_shard_times(&mut self.shard_scan_times, &other.shard_scan_times);
    }
}

/// Element-wise sum of per-shard durations, extending `dst` as needed.
fn add_shard_times(dst: &mut Vec<Duration>, src: &[Duration]) {
    if dst.len() < src.len() {
        dst.resize(src.len(), Duration::ZERO);
    }
    for (a, &b) in dst.iter_mut().zip(src) {
        *a += b;
    }
}

/// Split `num_rows` into at most `num_threads` contiguous, non-empty,
/// near-equal ranges covering `0..num_rows` in order. Always returns at
/// least one range (possibly `0..0` for an empty table) so callers can
/// treat the serial scan as the one-shard case.
fn shard_bounds(num_rows: usize, num_threads: usize) -> Vec<Range<usize>> {
    let shards = num_threads.max(1).min(num_rows.max(1));
    let base = num_rows / shards;
    let extra = num_rows % shards;
    let mut bounds = Vec::with_capacity(shards);
    let mut start = 0;
    for i in 0..shards {
        let len = base + usize::from(i < extra);
        bounds.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, num_rows);
    bounds
}

/// Encode a categorical item as a hash-tree key element: attribute-major so
/// keys sorted by attribute are sorted numerically.
fn cat_item_id(attr: u32, code: u32) -> u64 {
    ((attr as u64) << 32) | code as u64
}

/// The record-independent description of one super-candidate: everything a
/// shard needs to build its private counters. Built once, shared read-only
/// by every worker.
/// Shared inclusive rectangle list of one super-candidate (`(lo, hi)`
/// corner pairs over the plan's `dims`).
type SharedRects = Arc<[(Vec<u32>, Vec<u32>)]>;

struct SuperPlan {
    /// Sorted hash-tree key of the shared categorical items.
    cat_key: Vec<u64>,
    /// Sorted quantitative attribute ids shared by all members.
    quant_attrs: Vec<u32>,
    /// Indices into the candidate list, aligned with the counter rectangles.
    members: Vec<usize>,
    /// Code-domain sizes of `quant_attrs`.
    dims: Vec<u32>,
    /// Inclusive member rectangles over `dims`, behind `Arc` so per-shard
    /// counter construction shares one allocation instead of deep-cloning
    /// O(rects) vectors per shard.
    rects: SharedRects,
    /// The same bounds column-major for the bitmask kernel:
    /// `lo_cols[d][m]`/`hi_cols[d][m]` is member `m`'s inclusive range
    /// over dimension `d` — contiguous per dimension so the member loop
    /// streams bounds instead of hopping between corner vectors.
    lo_cols: Vec<Vec<u32>>,
    hi_cols: Vec<Vec<u32>>,
    /// Per-dimension union of the member ranges (`min` of the lows,
    /// `max` of the highs), for whole-plan block pre-screening.
    dim_lo_min: Vec<u32>,
    dim_hi_max: Vec<u32>,
    /// Counting backend, decided once for all shards (`None` when the
    /// super-candidate is purely categorical).
    kind: Option<CounterKind>,
}

/// One shard's private tallies, merged in shard order after the scan.
struct ShardTally {
    /// Per-plan rectangle counters (`None` for purely categorical plans,
    /// and for every plan when the shard ran the bitmask kernel from row
    /// zero — the bitmask path never builds them).
    counters: Vec<Option<RectCounter>>,
    /// Per-plan match counts for purely categorical plans (row-wise
    /// increments and bitmask popcounts both land here).
    direct: Vec<u64>,
    /// Per-plan, per-member match counts from the bitmask kernel. All
    /// zero when the shard never ran it; a shard that switched mid-scan
    /// (`Auto`) holds its row-wise prefix in `counters` and the rest
    /// here — the scatter sums both.
    member_counts: Vec<Vec<u64>>,
    /// Busy time of this shard's scan loop.
    scan_time: Duration,
    /// True when the scan stopped early on a fired [`CancelToken`] — the
    /// tallies are partial and must be discarded.
    cancelled: bool,
    /// Distinct categorical tuples this shard's memo cache admitted.
    distinct_tuples: usize,
    /// Rows this shard served from the memo cache.
    memo_hits: u64,
    /// The kernel this shard resolved to — never [`ScanKernel::Auto`]
    /// (`Auto` reports `Memoized` when the cache survived, `Bitmask`
    /// when the trial switched the shard over).
    kernel: ScanKernel,
}

/// Group candidates into super-candidate plans and decide each plan's
/// counting backend. Deterministic: grouping uses a `BTreeMap` and the
/// backend choice is a pure function of the (record-independent) inputs.
fn build_plans(
    table: &EncodedTable,
    candidates: &[Itemset],
    force_kind: Option<CounterKind>,
) -> (Vec<SuperPlan>, PassStats) {
    let schema = table.schema();
    let is_quant: Vec<bool> = schema
        .attributes()
        .iter()
        .map(|a| a.kind() == AttributeKind::Quantitative)
        .collect();

    let mut groups: BTreeMap<(Vec<u64>, Vec<u32>), Vec<usize>> = BTreeMap::new();
    for (idx, cand) in candidates.iter().enumerate() {
        let mut cat_key = Vec::new();
        let mut quant_attrs = Vec::new();
        for item in cand.items() {
            // Range items — quantitative attributes AND taxonomy-
            // generalized categorical items — are counted as rectangle
            // dimensions; single categorical values go through the hash
            // tree. A point item on a quantitative attribute still counts
            // as a (width-1) rectangle so candidates over the same
            // attribute set share one super-candidate.
            if is_quant[item.attr as usize] || item.lo < item.hi {
                quant_attrs.push(item.attr);
            } else {
                cat_key.push(cat_item_id(item.attr, item.lo));
            }
        }
        groups.entry((cat_key, quant_attrs)).or_default().push(idx);
    }

    let mut stats = PassStats::default();
    let mut plans: Vec<SuperPlan> = Vec::with_capacity(groups.len());
    for ((cat_key, quant_attrs), members) in groups {
        let (dims, rects, kind): (Vec<u32>, SharedRects, _) = if quant_attrs.is_empty() {
            (Vec::new(), Vec::new().into(), None)
        } else {
            let dims: Vec<u32> = quant_attrs
                .iter()
                .map(|&a| table.cardinality(AttributeId(a as usize)))
                .collect();
            let rects: Vec<(Vec<u32>, Vec<u32>)> = members
                .iter()
                .map(|&idx| {
                    let cand = &candidates[idx];
                    let mut lo = Vec::with_capacity(quant_attrs.len());
                    let mut hi = Vec::with_capacity(quant_attrs.len());
                    for &a in &quant_attrs {
                        let item = cand.item_for(a).expect("grouped by attribute set");
                        lo.push(item.lo);
                        hi.push(item.hi);
                    }
                    (lo, hi)
                })
                .collect();
            let kind = force_kind.unwrap_or_else(|| RectCounter::choose_kind(&dims, rects.len()));
            match kind {
                CounterKind::Array => stats.array_backed += 1,
                CounterKind::RTree => stats.rtree_backed += 1,
            }
            stats.counter_bytes = stats
                .counter_bytes
                .saturating_add(RectCounter::estimated_bytes(kind, &dims, rects.len()));
            (dims, rects.into(), Some(kind))
        };
        let num_dims = dims.len();
        let mut lo_cols = vec![Vec::with_capacity(rects.len()); num_dims];
        let mut hi_cols = vec![Vec::with_capacity(rects.len()); num_dims];
        let mut dim_lo_min = vec![u32::MAX; num_dims];
        let mut dim_hi_max = vec![0u32; num_dims];
        for (lo, hi) in rects.iter() {
            for d in 0..num_dims {
                lo_cols[d].push(lo[d]);
                hi_cols[d].push(hi[d]);
                dim_lo_min[d] = dim_lo_min[d].min(lo[d]);
                dim_hi_max[d] = dim_hi_max[d].max(hi[d]);
            }
        }
        plans.push(SuperPlan {
            cat_key,
            quant_attrs,
            members,
            dims,
            rects,
            lo_cols,
            hi_cols,
            dim_lo_min,
            dim_hi_max,
            kind,
        });
    }
    stats.super_candidates = plans.len();
    (plans, stats)
}

/// Index the plans for the scan: plans with empty categorical parts match
/// every record; the rest go into one hash tree per key length.
fn build_trees(plans: &[SuperPlan]) -> (Vec<u32>, BTreeMap<usize, HashTree<u32>>) {
    let mut always: Vec<u32> = Vec::new();
    let mut trees: BTreeMap<usize, HashTree<u32>> = BTreeMap::new();
    for (i, plan) in plans.iter().enumerate() {
        if plan.cat_key.is_empty() {
            always.push(i as u32);
        } else {
            // One key may belong to several super-candidates (different
            // quantitative attribute sets); duplicate keys are fine — the
            // subset walk visits each stored entry.
            let tree = trees.entry(plan.cat_key.len()).or_default();
            tree.insert(plan.cat_key.clone(), i as u32);
        }
    }
    (always, trees)
}

/// Words per bitmask block: one bit per row of a
/// [`CANCEL_CHECK_INTERVAL`]-row block.
const BLOCK_WORDS: usize = CANCEL_CHECK_INTERVAL / 64;

/// Count set bits across the active words of a block mask.
#[inline]
fn popcount(mask: &[u64]) -> u64 {
    mask.iter().map(|w| u64::from(w.count_ones())).sum()
}

/// Set the first `n` bits of `mask` (the block's row count), clear the
/// tail of the last active word.
#[inline]
fn fill_ones(mask: &mut [u64; BLOCK_WORDS], n: usize) {
    let words = n.div_ceil(64);
    mask[..words].fill(!0u64);
    let rem = n % 64;
    if rem != 0 {
        mask[words - 1] = !0u64 >> (64 - rem);
    }
}

/// Per-shard state of the bitmask kernel (see module docs): the deduped
/// predicate table built once per shard, plus the per-block mask and
/// min/max scratch reused across blocks.
struct BitmaskScan<'t> {
    /// Distinct code columns touched by any categorical predicate or
    /// quantitative dimension.
    cols: Vec<&'t [u32]>,
    /// Per-column `(min, max)` over the current block, the pre-screening
    /// summaries (aligned with `cols`).
    minmax: Vec<(u32, u32)>,
    /// Deduped categorical equality predicates `(column slot, code)` —
    /// every plan testing the same `(attribute, code)` shares one mask.
    preds: Vec<(usize, u32)>,
    /// Per-predicate equality masks over the current block.
    pred_masks: Vec<[u64; BLOCK_WORDS]>,
    /// `true` when the predicate's code lies outside the block's
    /// `[min, max]` — its mask was never computed and every plan using
    /// it skips the block.
    pred_dead: Vec<bool>,
    /// Per plan: indices into `preds`.
    plan_preds: Vec<Vec<usize>>,
    /// Per plan: column slot of each quantitative dimension.
    plan_dims: Vec<Vec<usize>>,
}

/// Intern `attr`'s code column, returning its slot in `cols`.
fn col_slot<'t>(
    table: &'t EncodedTable,
    attr: u32,
    slot_of: &mut HashMap<u32, usize>,
    cols: &mut Vec<&'t [u32]>,
) -> usize {
    *slot_of.entry(attr).or_insert_with(|| {
        cols.push(table.codes(AttributeId(attr as usize)));
        cols.len() - 1
    })
}

impl<'t> BitmaskScan<'t> {
    fn new(table: &'t EncodedTable, plans: &[SuperPlan]) -> Self {
        let mut slot_of: HashMap<u32, usize> = HashMap::new();
        let mut cols: Vec<&[u32]> = Vec::new();
        let mut pred_of: HashMap<(u32, u32), usize> = HashMap::new();
        let mut preds: Vec<(usize, u32)> = Vec::new();
        let mut plan_preds = Vec::with_capacity(plans.len());
        let mut plan_dims = Vec::with_capacity(plans.len());
        for plan in plans {
            let mut pp = Vec::with_capacity(plan.cat_key.len());
            for &key in &plan.cat_key {
                let (attr, code) = ((key >> 32) as u32, key as u32);
                let idx = *pred_of.entry((attr, code)).or_insert_with(|| {
                    let slot = col_slot(table, attr, &mut slot_of, &mut cols);
                    preds.push((slot, code));
                    preds.len() - 1
                });
                pp.push(idx);
            }
            plan_preds.push(pp);
            plan_dims.push(
                plan.quant_attrs
                    .iter()
                    .map(|&a| col_slot(table, a, &mut slot_of, &mut cols))
                    .collect(),
            );
        }
        let minmax = vec![(0, 0); cols.len()];
        let pred_masks = vec![[0u64; BLOCK_WORDS]; preds.len()];
        let pred_dead = vec![false; preds.len()];
        BitmaskScan {
            cols,
            minmax,
            preds,
            pred_masks,
            pred_dead,
            plan_preds,
            plan_dims,
        }
    }

    /// Count one block of rows into `direct` (purely categorical plans)
    /// and `member_counts` (per-member rectangle matches).
    fn scan_block(
        &mut self,
        plans: &[SuperPlan],
        rows: Range<usize>,
        direct: &mut [u64],
        member_counts: &mut [Vec<u64>],
    ) {
        let n = rows.len();
        let words = n.div_ceil(64);

        // Block summaries: one min/max sweep per touched column.
        for (col, mm) in self.cols.iter().zip(&mut self.minmax) {
            let block = &col[rows.clone()];
            let (mut lo, mut hi) = (u32::MAX, 0u32);
            for &v in block {
                lo = lo.min(v);
                hi = hi.max(v);
            }
            *mm = (lo, hi);
        }

        // Equality masks, once per distinct (attribute, code) predicate;
        // codes outside the block's range are dead without touching rows.
        for ((&(slot, code), dead), mask) in self
            .preds
            .iter()
            .zip(&mut self.pred_dead)
            .zip(&mut self.pred_masks)
        {
            let (lo, hi) = self.minmax[slot];
            *dead = code < lo || code > hi;
            if *dead {
                continue;
            }
            let block = &self.cols[slot][rows.clone()];
            for (w, chunk) in block.chunks(64).enumerate() {
                let mut bits = 0u64;
                for (i, &v) in chunk.iter().enumerate() {
                    bits |= u64::from(v == code) << i;
                }
                mask[w] = bits;
            }
        }

        let mut plan_mask = [0u64; BLOCK_WORDS];
        let mut member_mask = [0u64; BLOCK_WORDS];
        'plans: for (pi, plan) in plans.iter().enumerate() {
            // Pre-screen the whole plan: a dead predicate, or a dimension
            // whose member-range union misses the block's value range,
            // rules every member out without touching a row.
            for &p in &self.plan_preds[pi] {
                if self.pred_dead[p] {
                    continue 'plans;
                }
            }
            let dims = &self.plan_dims[pi];
            for (d, &slot) in dims.iter().enumerate() {
                let (blo, bhi) = self.minmax[slot];
                if plan.dim_lo_min[d] > bhi || plan.dim_hi_max[d] < blo {
                    continue 'plans;
                }
            }

            // AND the plan's shared categorical masks (all-ones for a
            // plan with no categorical part).
            fill_ones(&mut plan_mask, n);
            for &p in &self.plan_preds[pi] {
                let mut any = 0u64;
                for (m, &b) in plan_mask[..words]
                    .iter_mut()
                    .zip(&self.pred_masks[p][..words])
                {
                    *m &= b;
                    any |= *m;
                }
                if any == 0 {
                    continue 'plans;
                }
            }
            if dims.is_empty() {
                direct[pi] += popcount(&plan_mask[..words]);
                continue;
            }

            // Per member: start from the categorical mask and AND one
            // branchless range mask per dimension, skipping words already
            // all-zero and members whose rectangle misses the block.
            'members: for (m, count) in member_counts[pi].iter_mut().enumerate() {
                member_mask[..words].copy_from_slice(&plan_mask[..words]);
                for (d, &slot) in dims.iter().enumerate() {
                    let lo = plan.lo_cols[d][m];
                    let hi = plan.hi_cols[d][m];
                    let (blo, bhi) = self.minmax[slot];
                    if lo > bhi || hi < blo {
                        continue 'members;
                    }
                    let span = hi - lo;
                    let block = &self.cols[slot][rows.clone()];
                    let mut any = 0u64;
                    for (w, chunk) in block.chunks(64).enumerate() {
                        if member_mask[w] == 0 {
                            continue;
                        }
                        let mut bits = 0u64;
                        for (i, &v) in chunk.iter().enumerate() {
                            bits |= u64::from(v.wrapping_sub(lo) <= span) << i;
                        }
                        member_mask[w] &= bits;
                        any |= member_mask[w];
                    }
                    if any == 0 {
                        continue 'members;
                    }
                }
                *count += popcount(&member_mask[..words]);
            }
        }
    }
}

/// The per-record counting loop over one contiguous row range. `trees` is
/// shared read-only across shards (visit stamps live in this shard's
/// private [`VisitScratch`]es); the returned tally holds this shard's
/// private counters.
///
/// The scan is *blocked columnar*: all column slices are hoisted out of
/// the row loop (one `table.codes(..)` call per column per shard, not per
/// row), and rows are processed in [`CANCEL_CHECK_INTERVAL`]-sized blocks
/// with the cancellation checkpoint at each block boundary — relative to
/// the rows this shard has scanned, so a shard starting mid-interval
/// still checks after at most one block. Each block runs either the
/// row-wise walk (with or without the memo cache) or the bitmask kernel,
/// per `kernel`; under [`ScanKernel::Auto`] the shard starts memoized
/// and the trial fallback switches it to the bitmask kernel mid-scan.
#[allow(clippy::too_many_arguments)]
fn scan_shard(
    table: &EncodedTable,
    plans: &[SuperPlan],
    always: &[u32],
    trees: &BTreeMap<usize, HashTree<u32>>,
    rows: Range<usize>,
    cancel: Option<&CancelToken>,
    kernel: ScanKernel,
    memo_limit: usize,
) -> ShardTally {
    let started = Instant::now();
    let mut was_cancelled = false;
    // The bitmask kernel never touches rectangle counters — skipping
    // their construction is part of its win. `Auto` must build them: the
    // memoized prefix before a mid-scan switch counts into them.
    let mut counters: Vec<Option<RectCounter>> = if kernel == ScanKernel::Bitmask {
        plans.iter().map(|_| None).collect()
    } else {
        plans
            .iter()
            .map(|plan| {
                plan.kind.map(|kind| {
                    RectCounter::build_shared(kind, &plan.dims, Arc::clone(&plan.rects))
                })
            })
            .collect()
    };
    let mut direct = vec![0u64; plans.len()];
    let mut member_counts: Vec<Vec<u64>> = plans
        .iter()
        .map(|plan| vec![0u64; plan.members.len()])
        .collect();
    // Start on the bitmask kernel outright when asked to, or when `Auto`
    // has no memo cache to trial.
    let mut on_bitmask =
        kernel == ScanKernel::Bitmask || (kernel == ScanKernel::Auto && memo_limit == 0);
    let mut bitmask: Option<BitmaskScan<'_>> = None;

    // Hoisted column slices: categorical columns once for the tuple key,
    // and each plan's quantitative columns once for the point lookup.
    let cat_cols: Vec<(u32, &[u32])> = table
        .schema()
        .categorical_ids()
        .into_iter()
        .map(|id| (id.index() as u32, table.codes(id)))
        .collect();
    let plan_cols: Vec<Vec<&[u32]>> = plans
        .iter()
        .map(|plan| {
            plan.quant_attrs
                .iter()
                .map(|&a| table.codes(AttributeId(a as usize)))
                .collect()
        })
        .collect();
    let mut scratches: Vec<VisitScratch> = trees.values().map(|_| VisitScratch::new()).collect();

    // The cache can be dropped mid-scan by the distinct-tuple fallback, so
    // the admitted-tuple high-water mark is tracked outside the map.
    let mut memo: HashMap<Vec<u64>, Vec<u32>> = HashMap::new();
    let mut memo_on = matches!(kernel, ScanKernel::Memoized | ScanKernel::Auto) && memo_limit > 0;
    let mut distinct_high = 0usize;
    let mut memo_hits = 0u64;
    let mut scanned = 0usize;
    let mut cat_buf: Vec<u64> = Vec::with_capacity(cat_cols.len());
    let mut matched_buf: Vec<u32> = Vec::new();
    let mut point_buf: Vec<u32> = Vec::new();

    let mut block_start = rows.start;
    'scan: while block_start < rows.end {
        if cancel.is_some_and(CancelToken::is_cancelled) {
            was_cancelled = true;
            break 'scan;
        }
        let block_end = rows.end.min(block_start + CANCEL_CHECK_INTERVAL);
        if on_bitmask {
            bitmask
                .get_or_insert_with(|| BitmaskScan::new(table, plans))
                .scan_block(
                    plans,
                    block_start..block_end,
                    &mut direct,
                    &mut member_counts,
                );
            block_start = block_end;
            continue;
        }
        for row in block_start..block_end {
            cat_buf.clear();
            for &(attr, col) in &cat_cols {
                cat_buf.push(cat_item_id(attr, col[row]));
            }
            // Resolve this row's matched plans: from the memo cache when
            // its tuple was seen before, otherwise via the subset walk
            // (cached for later rows while the cache has room).
            let mut count_matches = |matched: &[u32]| {
                for &pi in matched {
                    let pi = pi as usize;
                    match &mut counters[pi] {
                        Some(counter) => {
                            point_buf.clear();
                            for col in &plan_cols[pi] {
                                point_buf.push(col[row]);
                            }
                            counter.count_record(&point_buf);
                        }
                        None => direct[pi] += 1,
                    }
                }
            };
            if memo_on {
                if let Some(hit) = memo.get(&cat_buf) {
                    memo_hits += 1;
                    count_matches(hit);
                    continue;
                }
            }
            matched_buf.clear();
            matched_buf.extend_from_slice(always);
            for (tree, scratch) in trees.values().zip(&mut scratches) {
                tree.for_each_subset_of_shared(scratch, &cat_buf, |_, &id| matched_buf.push(id));
            }
            count_matches(&matched_buf);
            if memo_on && memo.len() < memo_limit {
                memo.insert(cat_buf.clone(), matched_buf.clone());
            }
        }
        scanned += block_end - block_start;
        block_start = block_end;
        // Distinct-tuple fallback (see module docs): give up on the cache
        // when the first full block shows near-zero tuple reuse, or when
        // the cache has filled without ever serving a hit. Dropping the
        // cache only skips future probes — counts are unaffected. Under
        // `Auto` the same signal switches the shard to the bitmask kernel
        // (the cache just proved the table near-distinct — exactly the
        // shape the bitmask kernel wins on); explicit `Memoized` keeps
        // the row-wise walk, cache off.
        if memo_on {
            distinct_high = distinct_high.max(memo.len());
            let trial_failed =
                scanned == CANCEL_CHECK_INTERVAL && memo.len() * MEMO_TRIAL_FACTOR >= scanned;
            let full_and_cold = memo.len() >= memo_limit && memo_hits == 0;
            if trial_failed || full_and_cold {
                memo_on = false;
                memo = HashMap::new();
                if kernel == ScanKernel::Auto {
                    on_bitmask = true;
                }
            }
        }
    }
    let resolved = match kernel {
        ScanKernel::Direct | ScanKernel::Memoized | ScanKernel::Bitmask => kernel,
        ScanKernel::Auto => {
            if on_bitmask {
                ScanKernel::Bitmask
            } else {
                ScanKernel::Memoized
            }
        }
    };
    ShardTally {
        counters,
        direct,
        member_counts,
        scan_time: started.elapsed(),
        cancelled: was_cancelled,
        distinct_tuples: distinct_high.max(memo.len()),
        memo_hits,
        kernel: resolved,
    }
}

/// Count the support of every candidate in one pass over `table`,
/// scanning up to [`ScanOptions::num_threads`] contiguous row shards in
/// parallel; see [`ScanOptions`] for the other knobs.
///
/// `force_kind` pins the quantitative counting backend (for the ablation
/// bench); `None` applies the paper's memory heuristic per
/// super-candidate. Counts are bit-identical across every option
/// combination — threads, pool, and memoization are performance choices,
/// never semantics.
pub fn count_candidates_opts(
    table: &EncodedTable,
    candidates: &[Itemset],
    force_kind: Option<CounterKind>,
    opts: ScanOptions<'_>,
) -> Result<(Vec<u64>, PassStats), ScanCancelled> {
    let (plans, mut stats) = build_plans(table, candidates, force_kind);
    let (always, trees) = build_trees(&plans);
    stats.hash_tree_nodes = trees.values().map(HashTree::node_count).sum();
    stats.memoized = matches!(opts.kernel, ScanKernel::Memoized | ScanKernel::Auto);
    let num_rows = table.num_rows();
    let bounds = shard_bounds(num_rows, opts.num_threads);
    stats.counter_bytes = stats.counter_bytes.saturating_mul(bounds.len());
    stats.pooled = bounds.len() > 1;
    let cancel = opts.cancel;

    let scan_started = Instant::now();
    let mut tallies: Vec<ShardTally> = if bounds.len() <= 1 {
        let range = bounds.into_iter().next().unwrap_or(0..0);
        vec![scan_shard(
            table,
            &plans,
            &always,
            &trees,
            range,
            cancel,
            opts.kernel,
            opts.memo_limit,
        )]
    } else {
        let plans_ref = &plans;
        let always_ref = &always;
        let trees_ref = &trees;
        let tasks: Vec<_> = bounds
            .into_iter()
            .map(|range| {
                move || {
                    scan_shard(
                        table,
                        plans_ref,
                        always_ref,
                        trees_ref,
                        range,
                        cancel,
                        opts.kernel,
                        opts.memo_limit,
                    )
                }
            })
            .collect();
        run_sharded(opts.pool, tasks)
    };
    if tallies.iter().any(|t| t.cancelled) {
        return Err(ScanCancelled);
    }
    stats.scan_time = scan_started.elapsed();
    stats.shard_scan_times = tallies.iter().map(|t| t.scan_time).collect();
    stats.distinct_tuples = tallies.iter().map(|t| t.distinct_tuples).sum();
    stats.memo_hits = tallies.iter().map(|t| t.memo_hits).sum();
    // `Auto` resolves per shard; shards that disagree report "mixed".
    let first_kernel = tallies[0].kernel;
    stats.kernel = if tallies.iter().all(|t| t.kernel == first_kernel) {
        first_kernel.name().to_string()
    } else {
        "mixed".to_string()
    };

    // Merge per-shard tallies in shard order (u64 sums: order-independent,
    // fixed anyway for determinism of the timing bookkeeping). A shard may
    // carry a rectangle counter, bitmask member counts, or (after an
    // `Auto` mid-scan switch) both — one-sided counters are adopted.
    let merge_started = Instant::now();
    let mut merged = tallies.remove(0);
    for tally in tallies {
        for (into, from) in merged.counters.iter_mut().zip(tally.counters) {
            match (into.take(), from) {
                (Some(mut a), Some(b)) => {
                    a.merge_from(b);
                    *into = Some(a);
                }
                (Some(a), None) => *into = Some(a),
                (None, b) => *into = b,
            }
        }
        for (into, from) in merged.direct.iter_mut().zip(tally.direct) {
            *into += from;
        }
        for (into, from) in merged.member_counts.iter_mut().zip(tally.member_counts) {
            for (a, b) in into.iter_mut().zip(from) {
                *a += b;
            }
        }
    }
    if stats.shard_scan_times.len() > 1 {
        stats.merge_time = merge_started.elapsed();
    }

    // Scatter per-rectangle counts back to candidate order: the row-wise
    // counter's tally (when one ran) plus the bitmask member counts.
    let mut counts = vec![0u64; candidates.len()];
    let ShardTally {
        counters,
        direct,
        member_counts,
        ..
    } = merged;
    for (((plan, counter), direct), bm_counts) in
        plans.iter().zip(counters).zip(direct).zip(member_counts)
    {
        match counter {
            Some(counter) => {
                for ((member, count), bm) in
                    plan.members.iter().zip(counter.finish()).zip(bm_counts)
                {
                    counts[*member] = count + bm;
                }
            }
            None if plan.kind.is_some() => {
                // Every shard ran the bitmask kernel from row zero: no
                // rectangle counter was ever built.
                for (member, bm) in plan.members.iter().zip(bm_counts) {
                    counts[*member] = bm;
                }
            }
            None => {
                for &member in &plan.members {
                    counts[member] = direct;
                }
            }
        }
    }
    Ok((counts, stats))
}

/// Cell budget of the implicit pass-2 arrays (64 MB of `u64` cells):
/// attribute pairs are counted in groups whose dense arrays fit it, and a
/// single pair whose full code domain exceeds it falls back to the
/// R*-tree.
pub const PAIR_CELL_BUDGET: usize = 8 << 20;

/// The pass-2 counting request: each attribute's frequent items,
/// attributes ascending and items sorted.
///
/// Its cells are `C_2` — every item pair over two distinct attributes —
/// in *canonical order*: attribute `a` → each of its items → each later
/// attribute `b` → each of its items. That is the order
/// [`crate::candidate::generate_candidates`] produces from the sorted
/// `L_1` (and the sorted order of the pair itemsets), so a count vector
/// in grid order lines up with an explicit `C_2` list entry for entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairGrid {
    attrs: Vec<(u32, Vec<Item>)>,
}

impl PairGrid {
    /// A grid over per-attribute item lists. Rejects anything that is not
    /// canonical: attributes strictly ascending, item lists non-empty and
    /// strictly ascending, every item on its list's attribute with
    /// `lo <= hi`.
    pub fn new(attrs: Vec<(u32, Vec<Item>)>) -> Result<PairGrid, String> {
        let canonical = attrs.windows(2).all(|w| w[0].0 < w[1].0)
            && attrs.iter().all(|(attr, items)| {
                !items.is_empty()
                    && items.iter().all(|i| i.attr == *attr && i.lo <= i.hi)
                    && items.windows(2).all(|w| w[0] < w[1])
            });
        match canonical {
            true => Ok(PairGrid { attrs }),
            false => Err("pair grid item lists are not canonical".to_string()),
        }
    }

    /// Group a sorted `L_1` (as [`crate::QuantFrequentItemsets`] stores
    /// it) by attribute.
    pub fn from_level1(level1: &[(Itemset, u64)]) -> PairGrid {
        debug_assert!(level1.windows(2).all(|w| w[0].0 < w[1].0));
        let mut attrs: Vec<(u32, Vec<Item>)> = Vec::new();
        for (itemset, _) in level1 {
            let item = itemset.items()[0];
            match attrs.last_mut() {
                Some((attr, items)) if *attr == item.attr => items.push(item),
                _ => attrs.push((item.attr, vec![item])),
            }
        }
        PairGrid { attrs }
    }

    /// The per-attribute item lists, attributes ascending.
    pub fn attrs(&self) -> &[(u32, Vec<Item>)] {
        &self.attrs
    }

    /// Number of cells, `|C_2|`.
    pub fn len(&self) -> usize {
        self.rows_of(self.attrs.len()).0
    }

    /// True when the grid has no cell.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every cell in canonical order.
    pub fn cells(&self) -> impl Iterator<Item = (Item, Item)> + '_ {
        self.attrs
            .iter()
            .enumerate()
            .flat_map(move |(i, (_, items_a))| {
                items_a.iter().flat_map(move |&a| {
                    self.attrs[i + 1..]
                        .iter()
                        .flat_map(move |(_, items_b)| items_b.iter().map(move |&b| (a, b)))
                })
            })
    }

    /// The cells as pair itemsets — exactly `generate_candidates(L_1)`.
    pub fn itemsets(&self) -> Vec<Itemset> {
        self.cells()
            .map(|(a, b)| Itemset::new(vec![a, b]))
            .collect()
    }

    /// Items of the attributes at `range` (indices into `attrs`).
    fn items_in(&self, range: Range<usize>) -> usize {
        self.attrs[range].iter().map(|(_, items)| items.len()).sum()
    }

    /// The first cell of attribute `i`'s items and the number of cells per
    /// item. Attribute pair `(i, j)`'s cell `(x, y)` sits at
    /// `first + x * stride + items_in(i + 1..j) + y`.
    fn rows_of(&self, i: usize) -> (usize, usize) {
        let n = self.attrs.len();
        let first = (0..i)
            .map(|h| self.attrs[h].1.len() * self.items_in(h + 1..n))
            .sum();
        (first, self.items_in((i + 1).min(n)..n))
    }
}

/// Implicit second pass: `C_2` is the cross product of frequent items over
/// distinct attribute pairs, which can run into the millions at low
/// partial-completeness levels (the paper's "ExecTime" blow-up). Rather
/// than materializing every pair, each attribute pair gets one dense 2-D
/// count array (its super-candidate — all `C_2` members over an attribute
/// pair share it by definition); after one pass and prefix summation,
/// every item pair's support is a constant-time rectangle sum.
///
/// Returns one raw count per cell of `grid`, in its canonical order, so
/// counts over disjoint row partitions merge by element-wise addition.
///
/// Attribute pairs are scanned in groups whose arrays fit `cell_budget`
/// cells; a pair whose full code domain alone exceeds it falls back to
/// explicit enumeration with the R*-tree backend. The dense 2-D scan has
/// no hash-tree walk, so [`ScanOptions::kernel`] only reaches the
/// fallback pairs (the array scan itself reports as the `"direct"`
/// kernel).
///
/// Like [`count_candidates_opts`], the record scans split into up to
/// `num_threads` contiguous row shards on the pool whose 2-D arrays are
/// summed cell-wise before the prefix-sum readout; output is independent
/// of the thread count.
pub fn count_pairs_opts(
    table: &EncodedTable,
    grid: &PairGrid,
    cell_budget: usize,
    opts: ScanOptions<'_>,
) -> Result<(Vec<u64>, PassStats), ScanCancelled> {
    let mut counts = vec![0u64; grid.len()];
    let stats = scan_pairs(table, grid, cell_budget, opts, |cell, _, _, count| {
        counts[cell] = count;
    })?;
    Ok((counts, stats))
}

/// The scan behind [`count_pairs_opts`], handing every cell to `read` as
/// (position in `grid`, its two items, raw count) instead of storing it,
/// grouped by attribute pair rather than in canonical order. A caller that
/// keeps only some cells never holds a count per cell.
pub(crate) fn scan_pairs(
    table: &EncodedTable,
    grid: &PairGrid,
    cell_budget: usize,
    opts: ScanOptions<'_>,
    mut read: impl FnMut(usize, Item, Item, u64),
) -> Result<PassStats, ScanCancelled> {
    use qar_itemset::MultiDimCounter;
    let num_threads = opts.num_threads;
    let cancel = opts.cancel;
    let attrs = grid.attrs();
    // Where pair `(i, j)`'s cell `(x, y)` lands: `first + x * stride + y`.
    let layout = |i: usize, j: usize| {
        let (first, stride) = grid.rows_of(i);
        (first + grid.items_in(i + 1..j), stride)
    };
    let mut stats = PassStats::default();
    let cardinality = |i: usize| table.cardinality(AttributeId(attrs[i].0 as usize));

    // Split attribute pairs into array-countable and fallback sets.
    let mut array_pairs: Vec<(usize, usize, usize)> = Vec::new();
    let mut fallback_pairs: Vec<(usize, usize)> = Vec::new();
    for i in 0..attrs.len() {
        for j in (i + 1)..attrs.len() {
            let cells = cardinality(i) as usize * cardinality(j) as usize;
            if cells <= cell_budget {
                array_pairs.push((i, j, cells));
            } else {
                fallback_pairs.push((i, j));
            }
        }
    }
    stats.super_candidates = array_pairs.len() + fallback_pairs.len();
    stats.array_backed = array_pairs.len();
    stats.rtree_backed = fallback_pairs.len();
    if !array_pairs.is_empty() {
        // The dense 2-D scan is a plain per-row increment: no memo cache,
        // no bitmask — report it as the direct kernel (fallback groups
        // fold their own kernel in via `absorb_scan`).
        stats.kernel = ScanKernel::Direct.name().to_string();
    }

    // Process array pairs in chunks bounded by the cell budget, one table
    // pass per chunk.
    let num_rows = table.num_rows();
    let mut start = 0;
    while start < array_pairs.len() {
        let mut end = start;
        let mut cells = 0usize;
        while end < array_pairs.len() && (end == start || cells + array_pairs[end].2 <= cell_budget)
        {
            cells += array_pairs[end].2;
            end += 1;
        }
        let chunk = &array_pairs[start..end];
        let make_counters = || -> Vec<MultiDimCounter> {
            chunk
                .iter()
                .map(|&(i, j, _)| {
                    MultiDimCounter::new(&[cardinality(i), cardinality(j)], usize::MAX)
                })
                .collect()
        };
        // Returns true when the scan stopped early on a fired token. Like
        // `scan_shard`, column slices are hoisted and the token is checked
        // per block of rows *this shard* scanned.
        let scan_rows = |counters: &mut [MultiDimCounter], rows: Range<usize>| -> bool {
            let cols: Vec<(&[u32], &[u32])> = chunk
                .iter()
                .map(|&(i, j, _)| {
                    (
                        table.codes(AttributeId(attrs[i].0 as usize)),
                        table.codes(AttributeId(attrs[j].0 as usize)),
                    )
                })
                .collect();
            let mut block_start = rows.start;
            while block_start < rows.end {
                if cancel.is_some_and(CancelToken::is_cancelled) {
                    return true;
                }
                let block_end = rows.end.min(block_start + CANCEL_CHECK_INTERVAL);
                for row in block_start..block_end {
                    for (ci, &(col_a, col_b)) in cols.iter().enumerate() {
                        counters[ci].increment(&[col_a[row], col_b[row]]);
                    }
                }
                block_start = block_end;
            }
            false
        };

        let bounds = shard_bounds(num_rows, num_threads);
        stats.counter_bytes = stats.counter_bytes.max(
            cells
                .saturating_mul(std::mem::size_of::<u64>())
                .saturating_mul(bounds.len()),
        );
        let scan_started = Instant::now();
        let (mut counters, shard_times) = if bounds.len() <= 1 {
            let range = bounds.into_iter().next().unwrap_or(0..0);
            let mut counters = make_counters();
            let t0 = Instant::now();
            if scan_rows(&mut counters, range) {
                return Err(ScanCancelled);
            }
            (counters, vec![t0.elapsed()])
        } else {
            stats.pooled = true;
            let tasks: Vec<_> = bounds
                .into_iter()
                .map(|range| {
                    let make_counters = &make_counters;
                    let scan_rows = &scan_rows;
                    move || {
                        let mut counters = make_counters();
                        let t0 = Instant::now();
                        let cancelled = scan_rows(&mut counters, range);
                        (counters, t0.elapsed(), cancelled)
                    }
                })
                .collect();
            let shards: Vec<(Vec<MultiDimCounter>, Duration, bool)> = run_sharded(opts.pool, tasks);
            if shards.iter().any(|(_, _, cancelled)| *cancelled) {
                return Err(ScanCancelled);
            }
            let mut shards = shards.into_iter();
            let (mut merged, t, _) = shards.next().expect("at least one shard");
            let mut times = vec![t];
            let merge_started = Instant::now();
            for (shard_counters, t, _) in shards {
                for (into, from) in merged.iter_mut().zip(&shard_counters) {
                    into.merge_from(from);
                }
                times.push(t);
            }
            stats.merge_time += merge_started.elapsed();
            (merged, times)
        };
        stats.scan_time += scan_started.elapsed();
        add_shard_times(&mut stats.shard_scan_times, &shard_times);

        for (counter, &(i, j, _)) in counters.iter_mut().zip(chunk) {
            counter.build_prefix_sums();
            let (first, stride) = layout(i, j);
            for (x, &ia) in attrs[i].1.iter().enumerate() {
                for (y, &ib) in attrs[j].1.iter().enumerate() {
                    let count = counter.rect_sum(&[ia.lo, ib.lo], &[ia.hi, ib.hi]);
                    read(first + x * stride + y, ia, ib, count);
                }
            }
        }
        start = end;
    }

    // Fallback pairs: explicit cross product through the generic counter
    // (its scan/merge times are folded into this pass's stats).
    for (i, j) in fallback_pairs {
        let (items_a, items_b) = (&attrs[i].1, &attrs[j].1);
        let candidates: Vec<Itemset> = items_a
            .iter()
            .flat_map(|&ia| items_b.iter().map(move |&ib| Itemset::new(vec![ia, ib])))
            .collect();
        let (pair_counts, sub) =
            count_candidates_opts(table, &candidates, Some(CounterKind::RTree), opts)?;
        stats.absorb_scan(&sub);
        let (first, stride) = layout(i, j);
        for (k, count) in pair_counts.into_iter().enumerate() {
            let (x, y) = (k / items_b.len(), k % items_b.len());
            read(first + x * stride + y, items_a[x], items_b[y], count);
        }
    }
    Ok(stats)
}

/// Reference counter: test every candidate against every record directly.
/// Exponentially simpler than the super-candidate machinery and used to
/// validate it.
pub fn count_candidates_naive(table: &EncodedTable, candidates: &[Itemset]) -> Vec<u64> {
    let mut record: Vec<u32> = vec![0; table.schema().len()];
    let mut counts = vec![0u64; candidates.len()];
    for row in 0..table.num_rows() {
        for (a, slot) in record.iter_mut().enumerate() {
            *slot = table.codes(AttributeId(a))[row];
        }
        for (i, cand) in candidates.iter().enumerate() {
            if cand.supported_by(&record) {
                counts[i] += 1;
            }
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use qar_itemset::Item;
    use qar_table::{Schema, Table, Value};

    /// An uncancellable scan over `threads` shards.
    fn count_sharded(
        table: &EncodedTable,
        candidates: &[Itemset],
        force_kind: Option<CounterKind>,
        threads: usize,
    ) -> (Vec<u64>, PassStats) {
        count_candidates_opts(table, candidates, force_kind, ScanOptions::new(threads)).unwrap()
    }

    fn people() -> EncodedTable {
        let schema = Schema::builder()
            .quantitative("age")
            .categorical("married")
            .quantitative("num_cars")
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        for (age, married, cars) in [
            (23, "No", 1),
            (25, "Yes", 1),
            (29, "No", 0),
            (34, "Yes", 2),
            (38, "Yes", 2),
        ] {
            t.push_row(&[Value::Int(age), Value::from(married), Value::Int(cars)])
                .unwrap();
        }
        EncodedTable::encode_full_resolution(&t).unwrap()
    }

    fn candidates() -> Vec<Itemset> {
        vec![
            // ⟨Age: 30..39⟩ (codes 3..4) and ⟨Married: Yes⟩ (code 1)
            vec![Item::range(0, 3, 4), Item::value(1, 1)]
                .into_iter()
                .collect(),
            // ⟨Age: 30..39⟩ and ⟨NumCars: 2⟩
            vec![Item::range(0, 3, 4), Item::value(2, 2)]
                .into_iter()
                .collect(),
            // ⟨Married: Yes⟩ and ⟨NumCars: 2⟩ — purely categorical + quant
            vec![Item::value(1, 1), Item::value(2, 2)]
                .into_iter()
                .collect(),
            // ⟨Age: 20..29⟩ (codes 0..2) and ⟨NumCars: 0..1⟩
            vec![Item::range(0, 0, 2), Item::range(2, 0, 1)]
                .into_iter()
                .collect(),
            // Purely categorical singleton group: ⟨Married: No⟩ + ⟨Age: any⟩?
            // keep a 2-itemset with married only + age full range
            vec![Item::value(1, 0), Item::range(0, 0, 4)]
                .into_iter()
                .collect(),
        ]
    }

    #[test]
    fn counts_match_naive() {
        let enc = people();
        let cands = candidates();
        let naive = count_candidates_naive(&enc, &cands);
        for force in [None, Some(CounterKind::Array), Some(CounterKind::RTree)] {
            let (fast, stats) = count_sharded(&enc, &cands, force, 1);
            assert_eq!(fast, naive, "force={force:?}");
            assert!(stats.super_candidates > 0);
        }
        assert_eq!(naive, vec![2, 2, 2, 3, 2]);
    }

    #[test]
    fn super_candidate_grouping_counts() {
        // Candidates 0 and... candidate 0 (married-Yes + age) and candidate 4
        // (married-No + age) have different categorical parts -> different
        // super-candidates. Candidates 1 & 3... candidate 1 has quant attrs
        // {age, cars}, candidate 3 also {age, cars} and no categorical part
        // -> same super-candidate.
        let enc = people();
        let cands = candidates();
        let (_, stats) = count_sharded(&enc, &cands, None, 1);
        // Groups: {age,cars} (cands 1,3), {married=Yes}+{age} (cand 0),
        // {married=Yes}+{cars} (cand 2), {married=No}+{age} (cand 4).
        assert_eq!(stats.super_candidates, 4);
        assert_eq!(stats.array_backed + stats.rtree_backed, 4);
    }

    #[test]
    fn purely_categorical_candidates() {
        let schema = Schema::builder()
            .categorical("a")
            .categorical("b")
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        for (a, b) in [("x", "u"), ("x", "v"), ("y", "u"), ("x", "u")] {
            t.push_row(&[Value::from(a), Value::from(b)]).unwrap();
        }
        let enc = EncodedTable::encode_full_resolution(&t).unwrap();
        let cands: Vec<Itemset> = vec![
            vec![Item::value(0, 0), Item::value(1, 0)]
                .into_iter()
                .collect(), // x,u
            vec![Item::value(0, 1), Item::value(1, 0)]
                .into_iter()
                .collect(), // y,u
        ];
        let (counts, stats) = count_sharded(&enc, &cands, None, 1);
        assert_eq!(counts, vec![2, 1]);
        assert_eq!(stats.array_backed + stats.rtree_backed, 0);
    }

    #[test]
    fn purely_quantitative_candidates_always_match_group() {
        let schema = Schema::builder()
            .quantitative("x")
            .quantitative("y")
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        for (x, y) in [(1, 1), (2, 2), (3, 3), (4, 4)] {
            t.push_row(&[Value::Int(x), Value::Int(y)]).unwrap();
        }
        let enc = EncodedTable::encode_full_resolution(&t).unwrap();
        let cands: Vec<Itemset> = vec![
            vec![Item::range(0, 0, 1), Item::range(1, 0, 1)]
                .into_iter()
                .collect(),
            vec![Item::range(0, 2, 3), Item::range(1, 2, 3)]
                .into_iter()
                .collect(),
            vec![Item::range(0, 0, 3), Item::range(1, 0, 0)]
                .into_iter()
                .collect(),
        ];
        let (counts, stats) = count_sharded(&enc, &cands, None, 1);
        assert_eq!(counts, vec![2, 2, 1]);
        assert_eq!(stats.super_candidates, 1, "one quant attr set");
    }

    #[test]
    fn empty_candidate_list() {
        let enc = people();
        let (counts, stats) = count_sharded(&enc, &[], None, 1);
        assert!(counts.is_empty());
        assert_eq!(stats.super_candidates, 0);
    }

    #[test]
    fn shard_bounds_cover_rows_contiguously() {
        for (rows, threads) in [
            (0usize, 1usize),
            (0, 4),
            (1, 4),
            (3, 4),
            (4, 4),
            (5, 4),
            (100, 7),
            (100, 1),
        ] {
            let bounds = shard_bounds(rows, threads);
            assert!(!bounds.is_empty(), "{rows} rows / {threads} threads");
            assert!(bounds.len() <= threads.max(1));
            assert_eq!(bounds.first().unwrap().start, 0);
            assert_eq!(bounds.last().unwrap().end, rows);
            for w in bounds.windows(2) {
                assert_eq!(w[0].end, w[1].start, "contiguous");
                assert!(!w[0].is_empty(), "non-empty shards when rows > 0");
            }
            // Near-equal: sizes differ by at most one.
            let sizes: Vec<usize> = bounds.iter().map(|r| r.len()).collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "sizes {sizes:?}");
        }
    }

    /// The heart of the tentpole guarantee: every thread count yields the
    /// serial counts exactly, across backends.
    #[test]
    fn sharded_counts_equal_serial_for_all_thread_counts() {
        let enc = people();
        let cands = candidates();
        for force in [None, Some(CounterKind::Array), Some(CounterKind::RTree)] {
            let (serial, _) = count_sharded(&enc, &cands, force, 1);
            for threads in [2, 3, 4, 5, 8, 64] {
                let (sharded, stats) = count_sharded(&enc, &cands, force, threads);
                assert_eq!(sharded, serial, "force={force:?} threads={threads}");
                // 5 rows: at most 5 shards regardless of the request.
                assert!(stats.num_shards() <= 5);
                assert_eq!(stats.shard_scan_times.len(), stats.num_shards());
            }
        }
    }

    #[test]
    fn one_row_shards() {
        // rows == threads: every shard scans exactly one row.
        let enc = people();
        let cands = candidates();
        let (serial, _) = count_sharded(&enc, &cands, None, 1);
        let (sharded, stats) = count_sharded(&enc, &cands, None, 5);
        assert_eq!(sharded, serial);
        assert_eq!(stats.num_shards(), 5);
    }

    #[test]
    fn more_threads_than_rows() {
        let schema = Schema::builder().quantitative("x").build().unwrap();
        let mut t = Table::new(schema);
        t.push_row(&[Value::Int(1)]).unwrap();
        t.push_row(&[Value::Int(2)]).unwrap();
        let enc = EncodedTable::encode_full_resolution(&t).unwrap();
        let cands: Vec<Itemset> = vec![vec![Item::range(0, 0, 1)].into_iter().collect()];
        let (counts, stats) = count_sharded(&enc, &cands, None, 16);
        assert_eq!(counts, vec![2]);
        assert_eq!(stats.num_shards(), 2, "clamped to one row per shard");
    }

    #[test]
    fn empty_table_zero_counts_any_threads() {
        // An empty table has zero-cardinality code domains, so no valid
        // quantitative rectangle exists; categorical candidates exercise
        // the zero-row scan path.
        let schema = Schema::builder()
            .quantitative("x")
            .categorical("c")
            .build()
            .unwrap();
        let t = Table::new(schema);
        let enc = EncodedTable::encode_full_resolution(&t).unwrap();
        let cands: Vec<Itemset> = vec![vec![Item::value(1, 0)].into_iter().collect()];
        for threads in [1, 4] {
            let (counts, stats) = count_sharded(&enc, &cands, None, threads);
            assert_eq!(counts, vec![0], "threads={threads}");
            assert_eq!(stats.num_shards(), 1, "empty table collapses to one shard");
        }
    }

    /// A duplicate-heavy categorical table: 2 categorical attributes with
    /// 2–3 labels over many rows, so a few distinct tuples cover all rows.
    fn duplicate_heavy() -> EncodedTable {
        let schema = Schema::builder()
            .categorical("c0")
            .categorical("c1")
            .quantitative("q")
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        for i in 0..60i64 {
            let c0 = ["a", "b"][(i % 2) as usize];
            let c1 = ["u", "v", "w"][(i % 3) as usize];
            t.push_row(&[Value::from(c0), Value::from(c1), Value::Int(i % 5)])
                .unwrap();
        }
        EncodedTable::encode_full_resolution(&t).unwrap()
    }

    fn duplicate_heavy_candidates() -> Vec<Itemset> {
        let mut cands: Vec<Itemset> = Vec::new();
        for c0 in 0..2u32 {
            for c1 in 0..3u32 {
                cands.push(
                    vec![Item::value(0, c0), Item::value(1, c1)]
                        .into_iter()
                        .collect(),
                );
                cands.push(
                    vec![Item::value(0, c0), Item::value(1, c1), Item::range(2, 0, 2)]
                        .into_iter()
                        .collect(),
                );
            }
            cands.push(
                vec![Item::value(0, c0), Item::range(2, 1, 4)]
                    .into_iter()
                    .collect(),
            );
        }
        cands
    }

    /// Every kernel is bit-identical to the naive reference, for every
    /// thread count, and reports itself in [`PassStats::kernel`].
    #[test]
    fn every_kernel_equals_naive_for_all_thread_counts() {
        let enc = duplicate_heavy();
        let cands = duplicate_heavy_candidates();
        let naive = count_candidates_naive(&enc, &cands);
        for threads in [1, 2, 4, 7] {
            for kernel in [
                ScanKernel::Direct,
                ScanKernel::Memoized,
                ScanKernel::Bitmask,
                ScanKernel::Auto,
            ] {
                let opts = ScanOptions {
                    kernel,
                    ..ScanOptions::new(threads)
                };
                let (counts, stats) = count_candidates_opts(&enc, &cands, None, opts).unwrap();
                assert_eq!(counts, naive, "threads={threads} kernel={kernel}");
                let cache_on = matches!(kernel, ScanKernel::Memoized | ScanKernel::Auto);
                assert_eq!(stats.memoized, cache_on);
                if cache_on {
                    // 6 distinct (c0, c1) tuples; every shard sees at most 6,
                    // and on this tiny table the trial never fires — `Auto`
                    // stays memoized.
                    assert_eq!(stats.kernel, "memoized");
                    assert!(stats.distinct_tuples >= 6, "{}", stats.distinct_tuples);
                    assert!(stats.distinct_tuples <= 6 * stats.num_shards());
                    assert!(stats.memo_hits > 0, "60 rows over 6 tuples must hit");
                } else {
                    assert_eq!(stats.kernel, kernel.name());
                    assert_eq!(stats.distinct_tuples, 0);
                    assert_eq!(stats.memo_hits, 0);
                }
            }
        }
    }

    /// The cache stops admitting tuples at `memo_limit`, keeps serving the
    /// admitted ones, and counts stay exact through the fallback.
    #[test]
    fn memo_limit_caps_cache_and_preserves_counts() {
        let enc = duplicate_heavy();
        let cands = duplicate_heavy_candidates();
        let naive = count_candidates_naive(&enc, &cands);
        // 6 distinct tuples; a limit of 2 forces the direct walk for the
        // other 4 tuples' rows.
        let opts = ScanOptions {
            kernel: ScanKernel::Memoized,
            memo_limit: 2,
            ..ScanOptions::new(1)
        };
        let (counts, stats) = count_candidates_opts(&enc, &cands, None, opts).unwrap();
        assert_eq!(counts, naive);
        assert_eq!(stats.distinct_tuples, 2, "cache admits exactly the cap");
        // The two admitted tuples each cover 10 of 60 rows; all but their
        // first occurrences are hits.
        assert_eq!(stats.memo_hits, 18);
        // A zero limit disables caching entirely without changing counts;
        // explicit `Memoized` stays on the row-wise walk...
        let opts = ScanOptions {
            kernel: ScanKernel::Memoized,
            memo_limit: 0,
            ..ScanOptions::new(1)
        };
        let (counts, stats) = count_candidates_opts(&enc, &cands, None, opts).unwrap();
        assert_eq!(counts, naive);
        assert_eq!(stats.kernel, "memoized");
        assert_eq!(stats.distinct_tuples, 0);
        assert_eq!(stats.memo_hits, 0);
        // ...while `Auto` with nothing to trial goes straight to bitmask.
        let opts = ScanOptions {
            memo_limit: 0,
            ..ScanOptions::new(1)
        };
        let (counts, stats) = count_candidates_opts(&enc, &cands, None, opts).unwrap();
        assert_eq!(counts, naive);
        assert_eq!(stats.kernel, "bitmask");
        assert_eq!(stats.distinct_tuples, 0);
        assert_eq!(stats.memo_hits, 0);
    }

    /// The distinct-tuple fallback: on an all-distinct table the shard
    /// stops probing the cache at the first full-block boundary — hits
    /// stay at zero, the admitted high-water mark is exactly one block's
    /// worth of tuples, and counts are untouched.
    #[test]
    fn distinct_tuple_fallback_disables_cache() {
        let schema = Schema::builder()
            .categorical("c0")
            .categorical("c1")
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        // 41 × 43 coprime cardinalities: every tuple distinct up to 1763.
        for i in 0..1600usize {
            t.push_row(&[
                Value::from(format!("v{}", i % 41)),
                Value::from(format!("v{}", (i / 41) % 43)),
            ])
            .unwrap();
        }
        let enc = EncodedTable::encode_full_resolution(&t).unwrap();
        let cands: Vec<Itemset> = (0..3u32)
            .map(|c| {
                vec![Item::value(0, c), Item::value(1, c)]
                    .into_iter()
                    .collect()
            })
            .collect();
        let naive = count_candidates_naive(&enc, &cands);
        let (counts, stats) =
            count_candidates_opts(&enc, &cands, None, ScanOptions::new(1)).unwrap();
        assert_eq!(counts, naive);
        assert!(stats.memoized);
        assert_eq!(stats.memo_hits, 0, "all-distinct tuples never hit");
        assert_eq!(
            stats.distinct_tuples, CANCEL_CHECK_INTERVAL,
            "cache dropped at the first block boundary"
        );
        // `Auto` turns the failed trial into a mid-scan kernel switch: the
        // remaining 576 rows run the bitmask kernel (and still count
        // identically — asserted against naive above).
        assert_eq!(stats.kernel, "bitmask");
        // Explicit `Memoized` keeps the row-wise walk after the same
        // fallback and reports itself unchanged.
        let opts = ScanOptions {
            kernel: ScanKernel::Memoized,
            ..ScanOptions::new(1)
        };
        let (counts, stats) = count_candidates_opts(&enc, &cands, None, opts).unwrap();
        assert_eq!(counts, naive);
        assert_eq!(stats.kernel, "memoized");
        assert_eq!(stats.distinct_tuples, CANCEL_CHECK_INTERVAL);
    }

    /// The trial keeps the cache for a long duplicate-heavy table: 6
    /// tuples over 1600 rows easily clear the reuse bar, so every row
    /// after the first occurrences is a hit.
    #[test]
    fn trial_keeps_cache_on_duplicate_heavy_tables() {
        let schema = Schema::builder()
            .categorical("c0")
            .categorical("c1")
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        for i in 0..1600usize {
            t.push_row(&[
                Value::from(["a", "b"][i % 2]),
                Value::from(["u", "v", "w"][i % 3]),
            ])
            .unwrap();
        }
        let enc = EncodedTable::encode_full_resolution(&t).unwrap();
        let cands: Vec<Itemset> = vec![
            vec![Item::value(0, 0), Item::value(1, 0)]
                .into_iter()
                .collect(),
            vec![Item::value(0, 1), Item::value(1, 2)]
                .into_iter()
                .collect(),
        ];
        let naive = count_candidates_naive(&enc, &cands);
        let (counts, stats) =
            count_candidates_opts(&enc, &cands, None, ScanOptions::new(1)).unwrap();
        assert_eq!(counts, naive);
        assert_eq!(stats.kernel, "memoized", "trial keeps Auto on the cache");
        assert_eq!(stats.distinct_tuples, 6);
        assert_eq!(stats.memo_hits, 1600 - 6, "every repeat row hits");
    }

    /// A wide mixed table exercising the bitmask kernel's edge geometry:
    /// multiple blocks plus a partial tail block, degenerate `lo == hi`
    /// rectangles, boundary-hugging codes, purely categorical plans,
    /// purely quantitative plans, and a sorted column whose narrow
    /// per-block ranges make the pre-screen actually skip work.
    fn mixed_wide() -> (EncodedTable, Vec<Itemset>) {
        let schema = Schema::builder()
            .categorical("c0")
            .quantitative("q0")
            .quantitative("q1")
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        for i in 0..2500i64 {
            // q0 is sorted (0..=96): later blocks sit in narrow value
            // ranges, so low rectangles pre-screen whole blocks away.
            t.push_row(&[
                Value::from(["a", "b", "c", "d", "e", "f", "g"][(i % 7) as usize]),
                Value::Int(i / 26),
                Value::Int((i * 31) % 53),
            ])
            .unwrap();
        }
        let enc = EncodedTable::encode_full_resolution(&t).unwrap();
        let mut cands: Vec<Itemset> = Vec::new();
        for c in 0..7u32 {
            // Categorical + degenerate one-code rectangle (lo == hi).
            cands.push(
                vec![Item::value(0, c), Item::range(1, 0, 0)]
                    .into_iter()
                    .collect(),
            );
            // Categorical + low range that later (sorted) blocks miss.
            cands.push(
                vec![Item::value(0, c), Item::range(1, 0, 3)]
                    .into_iter()
                    .collect(),
            );
            // Categorical + full-range + second dimension.
            cands.push(
                vec![
                    Item::value(0, c),
                    Item::range(1, 0, 96),
                    Item::range(2, 10, 40),
                ]
                .into_iter()
                .collect(),
            );
        }
        // Purely quantitative plans, including both domain boundaries.
        cands.push(vec![Item::range(1, 96, 96)].into_iter().collect());
        cands.push(
            vec![Item::range(1, 90, 96), Item::range(2, 0, 52)]
                .into_iter()
                .collect(),
        );
        cands.push(
            vec![Item::range(1, 0, 96), Item::range(2, 52, 52)]
                .into_iter()
                .collect(),
        );
        // Purely categorical plan.
        cands.push(vec![Item::value(0, 6)].into_iter().collect());
        (enc, cands)
    }

    /// The bitmask kernel matches the direct kernel and the naive
    /// reference bit-for-bit across thread counts on a table whose blocks
    /// hit the tail, pre-screen, and degenerate-rectangle paths.
    #[test]
    fn bitmask_matches_direct_on_mixed_wide_table() {
        let (enc, cands) = mixed_wide();
        let naive = count_candidates_naive(&enc, &cands);
        let direct_opts = ScanOptions {
            kernel: ScanKernel::Direct,
            ..ScanOptions::new(1)
        };
        let (direct, _) = count_candidates_opts(&enc, &cands, None, direct_opts).unwrap();
        assert_eq!(direct, naive);
        for threads in [1, 2, 3, 8] {
            let opts = ScanOptions {
                kernel: ScanKernel::Bitmask,
                ..ScanOptions::new(threads)
            };
            let (counts, stats) = count_candidates_opts(&enc, &cands, None, opts).unwrap();
            assert_eq!(counts, naive, "threads={threads}");
            assert_eq!(stats.kernel, "bitmask");
            assert!(!stats.memoized);
        }
    }

    /// An explicit per-`Miner` pool and the implicit global pool produce
    /// identical counts.
    #[test]
    fn explicit_pool_matches_global_pool() {
        let enc = duplicate_heavy();
        let cands = duplicate_heavy_candidates();
        let pool = crate::pool::WorkerPool::new(3);
        let opts_own = ScanOptions {
            pool: Some(&pool),
            ..ScanOptions::new(4)
        };
        let (with_own, stats) = count_candidates_opts(&enc, &cands, None, opts_own).unwrap();
        assert!(stats.pooled);
        let (with_global, _) =
            count_candidates_opts(&enc, &cands, None, ScanOptions::new(4)).unwrap();
        assert_eq!(with_own, with_global);
        // The pool survives for another scan (persistent across passes).
        let (again, _) = count_candidates_opts(&enc, &cands, None, opts_own).unwrap();
        assert_eq!(again, with_own);
    }

    #[test]
    fn implicit_pairs_equal_naive_for_all_thread_counts() {
        let enc = people();
        // Frequent items per attribute, as the level-wise driver sends them.
        let grid = PairGrid::new(vec![
            (0, vec![Item::range(0, 0, 2), Item::range(0, 3, 4)]),
            (1, vec![Item::value(1, 0), Item::value(1, 1)]),
            (2, vec![Item::range(2, 0, 1), Item::value(2, 2)]),
        ])
        .unwrap();
        assert_eq!(grid.len(), 12);
        let naive = count_candidates_naive(&enc, &grid.itemsets());
        for budget in [usize::MAX, 1] {
            // budget 1 forces the R*-tree fallback for every pair.
            for threads in [1, 2, 4, 9] {
                let (counts, stats) =
                    count_pairs_opts(&enc, &grid, budget, ScanOptions::new(threads)).unwrap();
                assert_eq!(counts, naive, "budget={budget} threads={threads}");
                assert_eq!(stats.super_candidates, 3);
            }
        }
    }

    #[test]
    fn pair_grid_rejects_non_canonical_lists() {
        let a = Item::value(0, 0);
        let b = Item::value(1, 0);
        assert!(PairGrid::new(vec![(1, vec![b]), (0, vec![a])]).is_err());
        assert!(PairGrid::new(vec![(0, vec![]), (1, vec![b])]).is_err());
        assert!(PairGrid::new(vec![(0, vec![b])]).is_err());
        assert!(PairGrid::new(vec![(0, vec![a, a])]).is_err());
        let grid = PairGrid::new(vec![(0, vec![a]), (1, vec![b])]).unwrap();
        assert_eq!(grid.cells().collect::<Vec<_>>(), vec![(a, b)]);
        assert!(PairGrid::new(vec![(0, vec![a])]).unwrap().is_empty());
    }
}
