//! Super-candidate support counting (Section 5.2), serial and sharded.
//!
//! Candidates sharing (a) identical categorical items and (b) the same set
//! of quantitative attributes are fused into one *super-candidate* (a
//! *plan*; its candidates are its *members*). A hash tree over the
//! categorical parts finds which super-candidates a record's categorical
//! values support; the quantitative values then form a point that is
//! counted against the super-candidate's rectangles — in a dense
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
//! # Two kernels and the rule between them
//!
//! [`ScanKernel::Direct`] is the Section 5.2 reference above, row at a
//! time. [`ScanKernel::Bitmask`] removes the per-row control flow: for
//! each [`CANCEL_CHECK_INTERVAL`]-row block it evaluates every predicate
//! over the whole block into `u64` bitsets — one equality mask per
//! *distinct* categorical `(attribute, code)` pair (shared by all plans
//! that test it, and filled by one pass over each categorical column),
//! one branchless `lo <= code <= hi` range mask per member rectangle
//! dimension — then ANDs masks together and popcounts, a shape the
//! autovectorizer turns into SIMD compares. Per-block min/max
//! summaries of each touched column pre-screen plans and members, and a
//! mask word that has gone all-zero short-circuits the remaining ANDs.
//!
//! The two costs grow with different things. The direct kernel pays a
//! fixed walk per row plus one point count per *matched* plan, however
//! many rectangles a plan holds (each shard reads its arrays and R*-trees
//! out once, after its rows). The bitmask kernel pays per row for every
//! member rectangle dimension. So a pass with few rectangles — the scan
//! bench's historical shape — runs several times faster on bitmask,
//! while a pass with hundreds of thousands of rectangles in a handful of
//! plans — pass 3 of the credit workload — overruns a 2 s deadline on
//! bitmask where direct scans it in about 20 ms (200k rows).
//!
//! Unless [`ScanOptions::kernel`] pins one, [`choose_kernel`] picks per
//! pass, after the plans are built and before any row is read, from
//! quantities the plans already expose: member rectangles × dimensions
//! against super-candidates plus hash-tree nodes
//! ([`BITMASK_WORK_PER_PLAN`] is the measured crossover). Every shard
//! runs the chosen kernel, and [`PassStats::kernel`] reports it. Both
//! kernels produce **bit-identical counts** (enforced by unit tests, the
//! `bitmask_scan_equals_direct_and_naive` and
//! `default_scan_equals_direct_and_naive` proptests, and the fuzz
//! oracle's `kernel` kind); the choice is pure performance, never
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

/// The measured `Direct`/`Bitmask` crossover of [`choose_kernel`]: the
/// bitmask kernel runs while a pass's member rectangle dimensions stay
/// within this many per unit of direct-walk work (a super-candidate or a
/// hash-tree node). The sweep in `BENCH_scan.json` puts the crossover
/// between 2 (100 plans of one rectangle each still favour bitmask) and
/// 11 (10 plans of 10 rectangles each favour direct).
pub const BITMASK_WORK_PER_PLAN: usize = 4;

/// Tuning knobs for one counting scan. [`ScanOptions::new`] gives the
/// defaults every production path uses; `kernel` exists for the
/// `--kernel` ablation and the fuzz oracle.
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
    /// A pinned scan kernel; `None` lets [`choose_kernel`] pick per pass.
    /// Counts are bit-identical either way.
    pub kernel: Option<ScanKernel>,
}

impl<'a> ScanOptions<'a> {
    /// Default options for an uncancellable scan on `num_threads` shards.
    pub fn new(num_threads: usize) -> Self {
        ScanOptions {
            num_threads,
            cancel: None,
            pool: None,
            kernel: None,
        }
    }
}

/// The pre-scan kernel rule: [`ScanKernel::Bitmask`] while the pass's
/// `member_dims` (member rectangles × their dimensions, summed over
/// super-candidates) stay within [`BITMASK_WORK_PER_PLAN`] per
/// super-candidate or hash-tree node, [`ScanKernel::Direct`] beyond.
/// The bitmask kernel evaluates every member dimension on every row; the
/// direct kernel's per-row work is a hash-tree walk plus one point count
/// per matched super-candidate, whatever its rectangle count. All three
/// inputs are record-independent, so every shard agrees.
pub fn choose_kernel(
    member_dims: usize,
    super_candidates: usize,
    hash_tree_nodes: usize,
) -> ScanKernel {
    let walk = super_candidates.saturating_add(hash_tree_nodes);
    if member_dims <= walk.saturating_mul(BITMASK_WORK_PER_PLAN) {
        ScanKernel::Bitmask
    } else {
        ScanKernel::Direct
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
    /// Total nodes across the pass's categorical hash trees (shared
    /// read-only by every shard; zero when every super-candidate is
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
    /// The scan kernel that counted the pass: `"direct"` or `"bitmask"`,
    /// or `"mixed"` when the physical sub-scans of one logical pass used
    /// different kernels.
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
    /// Per plan, per member match counts (a purely categorical plan's
    /// members all count the plan's matches).
    counts: Vec<Vec<u64>>,
    /// Busy time of this shard's scan loop.
    scan_time: Duration,
    /// True when the scan stopped early on a fired [`CancelToken`] — the
    /// tallies are partial and must be discarded.
    cancelled: bool,
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
    /// Per-predicate equality masks over the current block, plus one
    /// trailing sink mask that absorbs the codes no predicate tests.
    pred_masks: Vec<[u64; BLOCK_WORDS]>,
    /// Per column slot: code → its predicate's index in `pred_masks`
    /// (the sink for untested codes); empty for columns no categorical
    /// predicate reads.
    pred_of_code: Vec<Vec<u32>>,
    /// `true` when the predicate's code lies outside the block's
    /// `[min, max]` — its mask is empty and every plan using it skips
    /// the block.
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
        let pred_masks = vec![[0u64; BLOCK_WORDS]; preds.len() + 1];
        let pred_dead = vec![false; preds.len()];
        let sink = preds.len() as u32;
        let mut pred_of_code: Vec<Vec<u32>> = vec![Vec::new(); cols.len()];
        for (&(attr, code), &p) in &pred_of {
            let lookup = &mut pred_of_code[slot_of[&attr]];
            let card = table.cardinality(AttributeId(attr as usize)) as usize;
            let len = card.max(code as usize + 1);
            if lookup.len() < len {
                lookup.resize(len, sink);
            }
            lookup[code as usize] = p as u32;
        }
        BitmaskScan {
            cols,
            minmax,
            preds,
            pred_masks,
            pred_of_code,
            pred_dead,
            plan_preds,
            plan_dims,
        }
    }

    /// Count one block of rows into `counts` (per plan, per member).
    fn scan_block(&mut self, plans: &[SuperPlan], rows: Range<usize>, counts: &mut [Vec<u64>]) {
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

        // Equality masks for every predicate at once: one pass per
        // categorical column sets each row's bit in its code's mask.
        // Codes outside the block's range are dead and skip their plans.
        for mask in &mut self.pred_masks {
            mask[..words].fill(0);
        }
        for (slot, lookup) in self.pred_of_code.iter().enumerate() {
            if lookup.is_empty() {
                continue;
            }
            for (i, &v) in self.cols[slot][rows.clone()].iter().enumerate() {
                self.pred_masks[lookup[v as usize] as usize][i / 64] |= 1u64 << (i % 64);
            }
        }
        for (&(slot, code), dead) in self.preds.iter().zip(&mut self.pred_dead) {
            let (lo, hi) = self.minmax[slot];
            *dead = code < lo || code > hi;
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

            // AND the plan's shared categorical masks, starting from the
            // first (all-ones for a plan with no categorical part).
            let mut preds = self.plan_preds[pi].iter();
            match preds.next() {
                Some(&p) => plan_mask[..words].copy_from_slice(&self.pred_masks[p][..words]),
                None => fill_ones(&mut plan_mask, n),
            }
            for &p in preds {
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
                let matched = popcount(&plan_mask[..words]);
                counts[pi].iter_mut().for_each(|c| *c += matched);
                continue;
            }

            // Per member: start from the categorical mask and AND one
            // branchless range mask per dimension, skipping words already
            // all-zero and members whose rectangle misses the block.
            'members: for (m, count) in counts[pi].iter_mut().enumerate() {
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

/// Run `scan` over `rows` in [`CANCEL_CHECK_INTERVAL`]-row blocks,
/// checking `cancel` before each — relative to the rows this shard has
/// scanned, so a shard starting mid-interval still checks after at most
/// one block. Returns true when the token fired.
fn for_each_block(
    rows: Range<usize>,
    cancel: Option<&CancelToken>,
    mut scan: impl FnMut(Range<usize>),
) -> bool {
    let mut block_start = rows.start;
    while block_start < rows.end {
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return true;
        }
        let block_end = rows.end.min(block_start + CANCEL_CHECK_INTERVAL);
        scan(block_start..block_end);
        block_start = block_end;
    }
    false
}

/// The direct kernel over one contiguous row range: per row, the
/// hash-tree subset walk (trees shared read-only across shards, visit
/// stamps in this shard's private [`VisitScratch`]es), then a point count
/// into each matched plan's private rectangle counter, read out into
/// `counts` after the scan. Column slices are hoisted out of the row
/// loop (one `table.codes(..)` call per column per shard, not per row).
/// Returns true when the token fired.
fn scan_direct(
    table: &EncodedTable,
    plans: &[SuperPlan],
    always: &[u32],
    trees: &BTreeMap<usize, HashTree<u32>>,
    rows: Range<usize>,
    cancel: Option<&CancelToken>,
    counts: &mut [Vec<u64>],
) -> bool {
    let mut counters: Vec<Option<RectCounter>> = plans
        .iter()
        .map(|plan| {
            plan.kind
                .map(|kind| RectCounter::build_shared(kind, &plan.dims, Arc::clone(&plan.rects)))
        })
        .collect();
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
    let mut cat_buf: Vec<u64> = Vec::with_capacity(cat_cols.len());
    let mut matched: Vec<u32> = Vec::new();
    let mut point_buf: Vec<u32> = Vec::new();

    let cancelled = for_each_block(rows, cancel, |block| {
        for row in block {
            cat_buf.clear();
            for &(attr, col) in &cat_cols {
                cat_buf.push(cat_item_id(attr, col[row]));
            }
            matched.clear();
            matched.extend_from_slice(always);
            for (tree, scratch) in trees.values().zip(&mut scratches) {
                tree.for_each_subset_of_shared(scratch, &cat_buf, |_, &id| matched.push(id));
            }
            for &pi in &matched {
                let pi = pi as usize;
                match &mut counters[pi] {
                    Some(counter) => {
                        point_buf.clear();
                        for col in &plan_cols[pi] {
                            point_buf.push(col[row]);
                        }
                        counter.count_record(&point_buf);
                    }
                    None => counts[pi].iter_mut().for_each(|c| *c += 1),
                }
            }
        }
    });
    if !cancelled {
        for (plan_counts, counter) in counts.iter_mut().zip(counters) {
            if let Some(counter) = counter {
                *plan_counts = counter.finish();
            }
        }
    }
    cancelled
}

/// Count one contiguous row range with `kernel` into fresh per-shard
/// tallies.
fn scan_shard(
    table: &EncodedTable,
    plans: &[SuperPlan],
    always: &[u32],
    trees: &BTreeMap<usize, HashTree<u32>>,
    rows: Range<usize>,
    cancel: Option<&CancelToken>,
    kernel: ScanKernel,
) -> ShardTally {
    let started = Instant::now();
    let mut counts: Vec<Vec<u64>> = plans
        .iter()
        .map(|plan| vec![0u64; plan.members.len()])
        .collect();
    let cancelled = match kernel {
        ScanKernel::Direct => scan_direct(table, plans, always, trees, rows, cancel, &mut counts),
        ScanKernel::Bitmask => {
            let mut scan = BitmaskScan::new(table, plans);
            for_each_block(rows, cancel, |block| {
                scan.scan_block(plans, block, &mut counts)
            })
        }
    };
    ShardTally {
        counts,
        scan_time: started.elapsed(),
        cancelled,
    }
}

/// Count the support of every candidate in one pass over `table`,
/// scanning up to [`ScanOptions::num_threads`] contiguous row shards in
/// parallel with the pinned kernel, or the one [`choose_kernel`] picks;
/// see [`ScanOptions`] for the other knobs.
///
/// `force_kind` pins the quantitative counting backend (for the ablation
/// bench); `None` applies the paper's memory heuristic per
/// super-candidate. Counts are bit-identical across every option
/// combination — threads, pool, and kernel are performance choices,
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
    let kernel = opts.kernel.unwrap_or_else(|| {
        let member_dims = plans.iter().map(|p| p.members.len() * p.dims.len()).sum();
        choose_kernel(member_dims, stats.super_candidates, stats.hash_tree_nodes)
    });
    stats.kernel = kernel.name().to_string();
    let num_rows = table.num_rows();
    let bounds = shard_bounds(num_rows, opts.num_threads);
    stats.counter_bytes = stats.counter_bytes.saturating_mul(bounds.len());
    stats.pooled = bounds.len() > 1;
    let cancel = opts.cancel;

    let scan_started = Instant::now();
    let (plans_ref, always_ref, trees_ref) = (&plans, &always, &trees);
    let scan = move |range| {
        scan_shard(
            table, plans_ref, always_ref, trees_ref, range, cancel, kernel,
        )
    };
    let mut tallies: Vec<ShardTally> = if bounds.len() <= 1 {
        vec![scan(bounds.into_iter().next().unwrap_or(0..0))]
    } else {
        let tasks: Vec<_> = bounds
            .into_iter()
            .map(|range| move || scan(range))
            .collect();
        run_sharded(opts.pool, tasks)
    };
    if tallies.iter().any(|t| t.cancelled) {
        return Err(ScanCancelled);
    }
    stats.scan_time = scan_started.elapsed();
    stats.shard_scan_times = tallies.iter().map(|t| t.scan_time).collect();

    // Merge per-shard tallies in shard order (u64 sums: order-independent,
    // fixed anyway for determinism of the timing bookkeeping).
    let merge_started = Instant::now();
    let mut merged = tallies.remove(0).counts;
    for tally in tallies {
        for (into, from) in merged.iter_mut().zip(tally.counts) {
            for (a, b) in into.iter_mut().zip(from) {
                *a += b;
            }
        }
    }
    if stats.shard_scan_times.len() > 1 {
        stats.merge_time = merge_started.elapsed();
    }

    // Scatter per-member counts back to candidate order.
    let mut counts = vec![0u64; candidates.len()];
    for (plan, plan_counts) in plans.iter().zip(merged) {
        for (&member, count) in plan.members.iter().zip(plan_counts) {
            counts[member] = count;
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
/// no hash-tree walk, so [`ScanOptions::kernel`] and the kernel rule only
/// reach the fallback pairs (the array scan itself reports as the
/// `"direct"` kernel).
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
        // The dense 2-D scan is a plain per-row increment with no
        // bitmask — report it as the direct kernel (fallback groups fold
        // their own kernel in via `absorb_scan`).
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
            for_each_block(rows, cancel, |block| {
                for row in block {
                    for (ci, &(col_a, col_b)) in cols.iter().enumerate() {
                        counters[ci].increment(&[col_a[row], col_b[row]]);
                    }
                }
            })
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

    /// Every kernel — pinned or picked by the rule — is bit-identical to
    /// the naive reference, for every thread count, and reports itself
    /// in [`PassStats::kernel`].
    #[test]
    fn every_kernel_equals_naive_for_all_thread_counts() {
        let enc = duplicate_heavy();
        let cands = duplicate_heavy_candidates();
        let naive = count_candidates_naive(&enc, &cands);
        for threads in [1, 2, 4, 7] {
            for kernel in [None, Some(ScanKernel::Direct), Some(ScanKernel::Bitmask)] {
                let opts = ScanOptions {
                    kernel,
                    ..ScanOptions::new(threads)
                };
                let (counts, stats) = count_candidates_opts(&enc, &cands, None, opts).unwrap();
                assert_eq!(counts, naive, "threads={threads} kernel={kernel:?}");
                // 14 candidates with at most one dimension each: the rule
                // picks bitmask.
                let want = kernel.unwrap_or(ScanKernel::Bitmask);
                assert_eq!(stats.kernel, want.name(), "threads={threads}");
            }
        }
    }

    /// The rule sends few rectangles to the bitmask kernel and many to
    /// the direct kernel: the scan bench's historical shape (92 mostly
    /// categorical candidates in 84 super-candidates, 27 hash-tree nodes)
    /// against pass 3 of the credit workload at minsup 30% / maxsup 60%
    /// (379,668 three-dimensional rectangles in 10 purely quantitative
    /// super-candidates).
    #[test]
    fn kernel_rule_separates_bench_and_credit_shapes() {
        assert_eq!(choose_kernel(12, 84, 27), ScanKernel::Bitmask);
        assert_eq!(choose_kernel(3 * 379_668, 10, 0), ScanKernel::Direct);
        // Degenerate passes (no plan, no rectangle) take the bitmask path.
        assert_eq!(choose_kernel(0, 0, 0), ScanKernel::Bitmask);

        // End to end: a handful of plans holding thousands of rectangles
        // each resolves to direct, with counts unchanged.
        let (enc, _) = mixed_wide();
        let mut cands: Vec<Itemset> = Vec::new();
        for c in 0..7u32 {
            for lo in 0..40u32 {
                for hi in (lo..97).step_by(3) {
                    cands.push(
                        vec![
                            Item::value(0, c),
                            Item::range(1, lo, hi),
                            Item::range(2, lo % 53, 52),
                        ]
                        .into_iter()
                        .collect(),
                    );
                }
            }
        }
        let (counts, stats) =
            count_candidates_opts(&enc, &cands, None, ScanOptions::new(2)).unwrap();
        assert_eq!(stats.super_candidates, 7);
        assert_eq!(stats.kernel, "direct");
        assert_eq!(counts, count_candidates_naive(&enc, &cands));
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
            kernel: Some(ScanKernel::Direct),
            ..ScanOptions::new(1)
        };
        let (direct, _) = count_candidates_opts(&enc, &cands, None, direct_opts).unwrap();
        assert_eq!(direct, naive);
        for threads in [1, 2, 3, 8] {
            let opts = ScanOptions {
                kernel: Some(ScanKernel::Bitmask),
                ..ScanOptions::new(threads)
            };
            let (counts, stats) = count_candidates_opts(&enc, &cands, None, opts).unwrap();
            assert_eq!(counts, naive, "threads={threads}");
            assert_eq!(stats.kernel, "bitmask");
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
