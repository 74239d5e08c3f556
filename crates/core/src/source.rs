//! The level-wise search over an abstract counting backend.
//!
//! The level-wise loop needs only three things from the data: the pass-1
//! per-attribute value histograms, the pass-2 pair counts and, for every
//! later pass, the raw support count of each candidate itemset. All are
//! sums over rows, so counts taken over *disjoint row partitions* merge
//! by element-wise `u64` addition into exactly the whole-table counts.
//!
//! [`CountSource`] abstracts that contract, and this module's driver
//! (behind [`mine_source`]) is the one level-wise loop every mining path
//! runs: the [`Miner`] facade over an [`InMemorySource`], `--chunk-rows`
//! over a [`ChunkedSource`], `--workers` over the TCP source of the
//! `qar-dist` crate, `--update` over a [`MergeSource`], and `--store`
//! through a [`CaptureSource`] around any of them. Candidate generation, rule
//! generation and the interest measure all happen on the driver's side;
//! only counting is delegated. That is the *count distribution* scheme
//! for distributed Apriori: every participant counts its partition, the
//! coordinator merges and decides. Because candidate generation is
//! global and counts are exact integers, the result is bit-identical
//! whatever the partitioning.
//!
//! Pass 2 is counted implicitly: the driver sends a [`PairGrid`] (each
//! attribute's frequent items) and gets back one count per `C_2` cell in
//! the grid's canonical order, which every source fills from dense
//! per-attribute-pair arrays instead of an explicit 2-itemset list. A
//! plain in-memory mine records no raw counts, so its source keeps only
//! the frequent cells as it reads the arrays out.
//!
//! [`Miner`]: crate::Miner

use std::collections::HashMap;
use std::time::Instant;

use crate::candidate::{generate_candidates, interest_prune_level1};
use crate::config::{InterestMode, MinerConfig, MinerError};
use crate::counts::{CapturedCounts, SupportCounts};
use crate::frequent::{attribute_value_counts, frequent_items_from_counts, QuantFrequentItemsets};
use crate::interest::{annotate_interest, ItemSupports};
use crate::mine::{pass_finished_event, MineStats, RunCtx};
use crate::pipeline::{MiningOutput, MiningStats};
use crate::pool::WorkerPool;
use crate::rules::generate_rules;
pub use crate::supercand::PairGrid;
use crate::supercand::{
    count_candidates_opts, count_pairs_opts, scan_pairs, PassStats, ScanOptions, PAIR_CELL_BUDGET,
};
use qar_itemset::{CounterKind, Itemset};
use qar_table::{AttributeKind, ChunkStore, EncodedTable};
use qar_trace::{event::micros, CancelToken, ProgressSink, TraceEvent};

/// Why a [`CountSource`] call did not produce counts.
#[derive(Debug)]
pub enum CountError {
    /// The run's cancellation token tripped mid-count; the driver turns
    /// this into [`MinerError::Cancelled`] with the completed passes'
    /// statistics.
    Cancelled,
    /// The source failed for real (I/O, a lost worker, a corrupt chunk).
    Failed(MinerError),
}

impl From<MinerError> for CountError {
    fn from(e: MinerError) -> Self {
        CountError::Failed(e)
    }
}

impl From<qar_table::TableError> for CountError {
    fn from(e: qar_table::TableError) -> Self {
        CountError::Failed(MinerError::from(e))
    }
}

impl From<crate::supercand::ScanCancelled> for CountError {
    fn from(_: crate::supercand::ScanCancelled) -> Self {
        CountError::Cancelled
    }
}

/// Raw counts plus the statistics of the scan that produced them.
pub type Counted = (Vec<u64>, PassStats);

/// The frequent itemsets of a pass with their counts, plus the statistics
/// of the scan that found them.
pub type Frequent = (Vec<(Itemset, u64)>, PassStats);

/// A counting backend for the level-wise search.
///
/// Implementations must satisfy the count-distribution contract: the
/// returned vectors are the *exact whole-table* tallies (raw, unfiltered
/// by support thresholds), as if computed by a single serial scan. Any
/// partitioning — across chunks, processes, or machines — must be over
/// disjoint row subsets whose per-partition counts are merged by `u64`
/// addition. Each counting call also returns the [`PassStats`] of its
/// scan (time, merge time, counter bytes, kernel, backends), which the
/// driver reports in the pass's `pass_finished` event.
pub trait CountSource {
    /// The schema and encoders of the table being mined. A decode-only
    /// header table ([`EncodedTable::header_only`]) is sufficient — the
    /// driver never scans it.
    fn meta(&self) -> &EncodedTable;

    /// Total number of rows across all partitions.
    fn num_rows(&self) -> u64;

    /// Pass 1: the per-attribute value histograms (`counts[attr][code]`),
    /// merged across partitions.
    fn value_counts(&mut self) -> Result<Vec<Vec<u64>>, CountError>;

    /// Pass 2: the raw support count of every cell of `grid`, in the
    /// grid's canonical order ([`PairGrid::cells`]), merged across
    /// partitions. Never called with an empty grid.
    fn count_pairs(&mut self, grid: &PairGrid) -> Result<Counted, CountError>;

    /// Pass 2 as the driver consumes it: the cells of `grid` counted at
    /// least `min_count` times. By default the raw
    /// [`CountSource::count_pairs`] answer, thresholded; a source whose
    /// raw counts nobody records may threshold during its readout
    /// instead and never hold a count per cell.
    fn frequent_pairs(&mut self, grid: &PairGrid, min_count: u64) -> Result<Frequent, CountError> {
        frequent_of_all_pairs(self, grid, min_count)
    }

    /// Pass `k ≥ 3`: the raw support count of each candidate, aligned
    /// with `candidates`, merged across partitions.
    fn count(&mut self, pass: usize, candidates: &[Itemset]) -> Result<Counted, CountError>;
}

/// An answer of the wrong length is an error.
fn aligned(pass: usize, counted: Counted, wanted: usize) -> Result<Counted, CountError> {
    match counted.0.len() == wanted {
        true => Ok(counted),
        false => Err(CountError::Failed(MinerError::Distributed(format!(
            "pass {pass}: source returned {} counts for {wanted} candidates",
            counted.0.len()
        )))),
    }
}

/// The default [`CountSource::frequent_pairs`]: the frequent cells of the
/// whole [`CountSource::count_pairs`] answer.
fn frequent_of_all_pairs<S: CountSource + ?Sized>(
    source: &mut S,
    grid: &PairGrid,
    min_count: u64,
) -> Result<Frequent, CountError> {
    if grid.is_empty() {
        return Ok((Vec::new(), PassStats::default()));
    }
    let (counts, stats) = aligned(2, source.count_pairs(grid)?, grid.len())?;
    let frequent = grid.cells().zip(counts).filter(|&(_, c)| c >= min_count);
    let level = frequent.map(|((a, b), c)| (Itemset::new(vec![a, b]), c));
    Ok((level.collect(), stats))
}

/// Settle a counting call into the run's result: cancellation becomes
/// [`MinerError::Cancelled`] carrying the completed passes' statistics.
fn settle<T>(
    counted: Result<T, CountError>,
    ctx: &RunCtx<'_>,
    pass: usize,
    stats: &mut MineStats,
) -> Result<T, MinerError> {
    match counted {
        Ok(counted) => Ok(counted),
        Err(CountError::Cancelled) => Err(ctx.cancelled(pass, std::mem::take(stats))),
        Err(CountError::Failed(e)) => Err(e),
    }
}

/// Mine all frequent itemsets using `source` for every counting scan —
/// the level-wise loop of Section 5.
///
/// Every pass emits its `pass_started`/`pass_finished` events into
/// `ctx.sink`, and `ctx.cancel` aborts the run cooperatively at pass
/// boundaries (the source checks it inside its scans), returning the
/// completed passes' statistics in [`MinerError::Cancelled`]. Pass 2 is
/// always recorded, with zero candidates when no attribute pair exists.
///
/// Also returns the merged pass-1 value counts (the pipeline reuses them
/// for [`ItemSupports`] instead of re-scanning).
pub(crate) fn mine_with_source_ctx(
    source: &mut dyn CountSource,
    config: &MinerConfig,
    ctx: RunCtx<'_>,
) -> Result<(QuantFrequentItemsets, MineStats, Vec<Vec<u64>>), MinerError> {
    config.validate()?;
    let num_rows = source.num_rows();
    if num_rows == 0 {
        return Err(MinerError::Schema(qar_table::TableError::EmptyTable));
    }
    let min_count = ((config.min_support * num_rows as f64).ceil() as u64).max(1);
    let max_count = (config.max_support * num_rows as f64).floor() as u64;

    let mut frequent = QuantFrequentItemsets::new(num_rows);
    let mut stats = MineStats {
        parallelism: config.effective_parallelism(),
        ..MineStats::default()
    };

    let run_started = Instant::now();
    ctx.emit(|| TraceEvent::RunStarted {
        rows: num_rows,
        attributes: source.meta().schema().len(),
        min_count,
        max_count,
        parallelism: stats.parallelism,
    });
    if ctx.is_cancelled() {
        return Err(ctx.cancelled(1, stats));
    }

    // Pass 1: frequent items from the merged histograms.
    ctx.emit(|| TraceEvent::PassStarted {
        pass: 1,
        candidates: 0,
    });
    let pass1_started = Instant::now();
    let value_counts = match source.value_counts() {
        Ok(v) => v,
        Err(CountError::Cancelled) => return Err(ctx.cancelled(1, stats)),
        Err(CountError::Failed(e)) => return Err(e),
    };
    let items = frequent_items_from_counts(source.meta(), value_counts, min_count, max_count);
    stats.pass1_scan_time = pass1_started.elapsed();
    let mut level1: Vec<(Itemset, u64)> = items
        .items
        .iter()
        .map(|&(item, count)| (Itemset::singleton(item), count))
        .collect();
    let value_counts = items.value_counts;

    // Lemma 5 interest prune (only sound when the user wants support AND
    // confidence above expectation). It depends only on level-1 fractions
    // and the schema, both already global.
    if let Some(interest) = &config.interest {
        if interest.prune_candidates && interest.mode == InterestMode::SupportAndConfidence {
            let before = level1.len();
            // A transient store so the prune can see fractions.
            let mut probe = QuantFrequentItemsets::new(num_rows);
            probe.push_level(level1.clone());
            let schema = source.meta().schema();
            let is_quant = |attr: u32| {
                schema.attributes()[attr as usize].kind() == AttributeKind::Quantitative
            };
            level1 = interest_prune_level1(level1, &probe, interest.level, &is_quant);
            stats.interest_pruned_items = before - level1.len();
        }
    }
    ctx.emit(|| TraceEvent::PassFinished {
        pass: 1,
        candidates: 0,
        frequent: level1.len(),
        pruned: stats.interest_pruned_items,
        super_candidates: 0,
        array_backed: 0,
        rtree_backed: 0,
        hash_tree_nodes: 0,
        counter_bytes: 0,
        scan_us: micros(stats.pass1_scan_time),
        merge_us: 0,
        shard_scan_us: Vec::new(),
        pooled: false,
        // Pass 1 is a plain per-attribute value count — no hash tree, no
        // masks — which is the direct kernel's shape.
        kernel: "direct".to_string(),
    });
    if level1.is_empty() {
        ctx.emit(|| TraceEvent::RunFinished {
            passes: 1,
            frequent_total: 0,
            elapsed_us: micros(run_started.elapsed()),
        });
        return Ok((frequent, stats, value_counts));
    }
    frequent.push_level(level1);

    // Passes k >= 2: global candidate generation, delegated counting.
    loop {
        let k = frequent.levels.len() + 1;
        if config.max_itemset_size != 0 && k > config.max_itemset_size {
            break;
        }
        if ctx.is_cancelled() {
            return Err(ctx.cancelled(k, stats));
        }
        let prev = frequent.levels.last().expect("level 1 pushed");
        // C_2 is the cross product of frequent items over distinct
        // attribute pairs — the source counts it implicitly from the
        // per-attribute item lists instead of a materialized list.
        let grid = (k == 2).then(|| PairGrid::from_level1(prev));
        let candidates = match grid {
            Some(_) => Vec::new(),
            None => generate_candidates(prev),
        };
        let wanted = grid.as_ref().map_or(candidates.len(), PairGrid::len);
        if wanted == 0 && k > 2 {
            break;
        }
        stats.candidates_per_pass.push(wanted);
        ctx.emit(|| TraceEvent::PassStarted {
            pass: k,
            candidates: wanted,
        });
        let (level, pass) = match &grid {
            Some(grid) => settle(source.frequent_pairs(grid, min_count), &ctx, k, &mut stats)?,
            None => {
                let counted = (source.count(k, &candidates)).and_then(|c| aligned(k, c, wanted));
                let (counts, pass) = settle(counted, &ctx, k, &mut stats)?;
                let frequent = candidates.into_iter().zip(counts);
                (frequent.filter(|&(_, c)| c >= min_count).collect(), pass)
            }
        };
        ctx.emit(|| pass_finished_event(k, stats.candidates_per_pass[k - 2], level.len(), &pass));
        stats.pass_stats.push(pass);
        if level.is_empty() {
            break;
        }
        frequent.push_level(level);
    }
    ctx.emit(|| TraceEvent::RunFinished {
        passes: 1 + stats.pass_stats.len(),
        frequent_total: frequent.total(),
        elapsed_us: micros(run_started.elapsed()),
    });
    Ok((frequent, stats, value_counts))
}

/// Run the complete Steps 3–5 pipeline (frequent itemsets, rules,
/// interest) over an abstract counting backend.
///
/// The result is bit-identical for every source over the same rows:
/// same frequent itemsets and supports, same rules, same interest
/// verdicts. Statistics differ only in their volatile fields (timings,
/// kernels) — [`MiningStats::normalized`] projections agree exactly.
pub fn mine_source(
    source: &mut dyn CountSource,
    config: &MinerConfig,
    sink: Option<&dyn ProgressSink>,
    cancel: Option<&CancelToken>,
) -> Result<MiningOutput, MinerError> {
    config.validate()?;
    let started = Instant::now();
    let ctx = RunCtx { sink, cancel };
    let (frequent, mine_stats, value_counts) = mine_with_source_ctx(source, config, ctx)?;
    let elapsed_mining = started.elapsed();

    // Step 4: rules.
    let rules = generate_rules(&frequent, config.min_confidence);

    // Step 5: interest — from the merged pass-1 histograms, which equal a
    // whole-table scan.
    let item_supports = ItemSupports::from_value_counts(&value_counts, frequent.num_rows);
    let interest = config
        .interest
        .as_ref()
        .map(|ic| annotate_interest(&rules, &frequent, &item_supports, ic));

    let rules_total = rules.len();
    let rules_interesting = match &interest {
        Some(v) => v.iter().filter(|x| x.interesting).count(),
        None => rules_total,
    };
    Ok(MiningOutput {
        encoded: source.meta().clone(),
        frequent,
        rules,
        interest,
        item_supports,
        stats: MiningStats {
            intervals_per_attribute: Vec::new(),
            mine: mine_stats,
            rules_total,
            rules_interesting,
            elapsed: started.elapsed(),
            elapsed_mining,
            encoding_reused: false,
        },
    })
}

/// A pass-through [`CountSource`] that records everything the driver
/// asked of the inner source: the pass-1 histograms and every
/// `(pass, candidate, raw count)` triple. The recording is exactly the
/// [`CapturedCounts`] a catalog persists for later incremental updates;
/// pass 2 is expanded from the grid into its `C_2` itemsets in canonical
/// order, which is the order an explicit `generate_candidates` list has.
pub struct CaptureSource<'s> {
    inner: &'s mut dyn CountSource,
    value_counts: Option<Vec<Vec<u64>>>,
    passes: Vec<(u32, Vec<(Itemset, u64)>)>,
}

impl<'s> CaptureSource<'s> {
    /// Wrap `inner`, recording every count it serves.
    pub fn new(inner: &'s mut dyn CountSource) -> Self {
        CaptureSource {
            inner,
            value_counts: None,
            passes: Vec::new(),
        }
    }

    /// The recording (valid once a mine over this source has finished).
    pub fn into_captured(self) -> CapturedCounts {
        CapturedCounts {
            value_counts: self.value_counts.unwrap_or_default(),
            passes: self.passes,
        }
    }
}

impl CountSource for CaptureSource<'_> {
    fn meta(&self) -> &EncodedTable {
        self.inner.meta()
    }

    fn num_rows(&self) -> u64 {
        self.inner.num_rows()
    }

    fn value_counts(&mut self) -> Result<Vec<Vec<u64>>, CountError> {
        let counts = self.inner.value_counts()?;
        self.value_counts = Some(counts.clone());
        Ok(counts)
    }

    fn count_pairs(&mut self, grid: &PairGrid) -> Result<Counted, CountError> {
        let (counts, stats) = self.inner.count_pairs(grid)?;
        if counts.len() == grid.len() {
            let entries = (grid.cells().zip(counts.iter().copied()))
                .map(|((a, b), c)| (Itemset::new(vec![a, b]), c));
            self.passes.push((2, entries.collect()));
        }
        Ok((counts, stats))
    }

    fn count(&mut self, pass: usize, candidates: &[Itemset]) -> Result<Counted, CountError> {
        let (counts, stats) = self.inner.count(pass, candidates)?;
        if counts.len() == candidates.len() {
            let entries = candidates.iter().cloned().zip(counts.iter().copied());
            self.passes.push((pass as u32, entries.collect()));
        }
        Ok((counts, stats))
    }
}

/// [`mine_source`] with count capture: returns the finished output
/// together with the raw tallies the run accumulated, ready to persist
/// as a catalog `COUNTS` section.
pub fn mine_source_captured(
    source: &mut dyn CountSource,
    config: &MinerConfig,
    sink: Option<&dyn ProgressSink>,
    cancel: Option<&CancelToken>,
) -> Result<(MiningOutput, CapturedCounts), MinerError> {
    let mut capture = CaptureSource::new(source);
    let output = mine_source(&mut capture, config, sink, cancel)?;
    Ok((output, capture.into_captured()))
}

/// The incremental-update [`CountSource`]: persisted base counts plus a
/// delta-only source, merged element-wise.
///
/// `value_counts` is base histograms + delta histograms. Pass 2 adds the
/// base run's pass-2 tallies to the delta's by position when the grid
/// is the base run's grid (the common case), and every later pass serves
/// each candidate as its base tally (looked up in the persisted pass
/// records) plus the delta source's tally — so the only rows ever
/// scanned are the delta's. By the count-distribution invariant the sums
/// equal a full base+delta scan exactly.
///
/// A candidate the base run never counted (a support crossed a threshold
/// as rows arrived, changing a frequent level and hence the candidate
/// sets derived from it) cannot be served incrementally; the lookup
/// fails with [`MinerError::Update`] and the caller falls back to a full
/// re-mine.
pub struct MergeSource<'a, S: CountSource> {
    base: &'a SupportCounts,
    delta: Option<S>,
    meta: EncodedTable,
    pass_maps: HashMap<u32, HashMap<Itemset, u64>>,
}

impl<'a, S: CountSource> MergeSource<'a, S> {
    /// A source over `base` counts plus `delta` (pass `None` for an
    /// empty delta — no scan at all then). `meta` must be a decode-only
    /// header whose `num_rows` is the combined base+delta total and whose
    /// schema/encoders are the ones `base.fingerprint` pins.
    pub fn new(base: &'a SupportCounts, delta: Option<S>, meta: EncodedTable) -> Self {
        MergeSource {
            base,
            delta,
            meta,
            pass_maps: HashMap::new(),
        }
    }

    /// Hand back the delta source (e.g. so a distributed cluster behind
    /// it can be shut down).
    pub fn into_delta(self) -> Option<S> {
        self.delta
    }

    fn base_pass(&self, pass: usize) -> Option<&'a [(Itemset, u64)]> {
        let base: &'a SupportCounts = self.base;
        base.captured
            .passes
            .iter()
            .find(|(p, _)| *p == pass as u32)
            .map(|(_, entries)| entries.as_slice())
    }

    fn base_counts(&mut self, pass: usize, candidates: &[Itemset]) -> Result<Vec<u64>, CountError> {
        let diverged = || {
            CountError::Failed(MinerError::Update(format!(
                "pass {pass}: candidate set diverged from the base run \
                 (a support crossed a threshold); full re-mine required"
            )))
        };
        let recorded = self.base_pass(pass).ok_or_else(diverged)?;
        let map = self
            .pass_maps
            .entry(pass as u32)
            .or_insert_with(|| recorded.iter().cloned().collect());
        candidates
            .iter()
            .map(|c| map.get(c).copied().ok_or_else(diverged))
            .collect()
    }

    /// Base pass-2 tallies for `grid`: read off by position when the base
    /// run's record holds exactly these cells, else looked up per cell (a
    /// grid that lost items since the base run is still servable).
    fn base_pair_counts(&mut self, grid: &PairGrid) -> Result<Vec<u64>, CountError> {
        let recorded = self.base_pass(2).filter(|r| r.len() == grid.len());
        if let Some(recorded) = recorded {
            let same_cells = (recorded.iter().zip(grid.cells()))
                .all(|((itemset, _), (a, b))| itemset.items() == [a, b]);
            if same_cells {
                return Ok(recorded.iter().map(|&(_, c)| c).collect());
            }
        }
        self.base_counts(2, &grid.itemsets())
    }

    /// Add the delta source's tallies (if any) onto the base tallies
    /// `counts`. The pass statistics are the delta scan's, with the
    /// addition as merge time.
    fn add_delta(
        &mut self,
        pass: usize,
        mut counts: Vec<u64>,
        delta: impl FnOnce(&mut S) -> Result<Counted, CountError>,
    ) -> Result<Counted, CountError> {
        let Some(source) = &mut self.delta else {
            return Ok((counts, PassStats::default()));
        };
        let (add, mut stats) = delta(source)?;
        if add.len() != counts.len() {
            return Err(CountError::Failed(MinerError::Distributed(format!(
                "pass {pass}: delta source returned {} counts for {} candidates",
                add.len(),
                counts.len()
            ))));
        }
        let started = Instant::now();
        for (x, y) in counts.iter_mut().zip(add) {
            *x += y;
        }
        stats.merge_time += started.elapsed();
        Ok((counts, stats))
    }
}

impl<S: CountSource> CountSource for MergeSource<'_, S> {
    fn meta(&self) -> &EncodedTable {
        &self.meta
    }

    fn num_rows(&self) -> u64 {
        self.base.num_rows + self.delta.as_ref().map_or(0, |d| d.num_rows())
    }

    fn value_counts(&mut self) -> Result<Vec<Vec<u64>>, CountError> {
        let mut merged = self.base.captured.value_counts.clone();
        if let Some(delta) = &mut self.delta {
            let add = delta.value_counts()?;
            if add.len() != merged.len() || add.iter().zip(&merged).any(|(a, m)| a.len() != m.len())
            {
                return Err(CountError::Failed(MinerError::Update(
                    "delta histograms do not align with the persisted base counts".to_string(),
                )));
            }
            for (acc, a) in merged.iter_mut().zip(add) {
                for (x, y) in acc.iter_mut().zip(a) {
                    *x += y;
                }
            }
        }
        Ok(merged)
    }

    fn count_pairs(&mut self, grid: &PairGrid) -> Result<Counted, CountError> {
        let counts = self.base_pair_counts(grid)?;
        self.add_delta(2, counts, |d| d.count_pairs(grid))
    }

    fn count(&mut self, pass: usize, candidates: &[Itemset]) -> Result<Counted, CountError> {
        let counts = self.base_counts(pass, candidates)?;
        self.add_delta(pass, counts, |d| d.count(pass, candidates))
    }
}

/// The scan options a source built from `config` starts with.
fn scan_options<'a>(config: &MinerConfig) -> ScanOptions<'a> {
    ScanOptions {
        kernel: config.kernel,
        ..ScanOptions::new(config.effective_parallelism())
    }
}

/// The reference [`CountSource`]: counts an in-memory [`EncodedTable`]
/// with the scan kernels of [`crate::supercand`].
pub struct InMemorySource<'a> {
    table: &'a EncodedTable,
    opts: ScanOptions<'a>,
    force_counter: Option<CounterKind>,
}

impl<'a> InMemorySource<'a> {
    /// A source over `table`, with parallelism and kernel from `config`.
    pub fn new(table: &'a EncodedTable, config: &MinerConfig) -> Self {
        InMemorySource {
            table,
            opts: scan_options(config),
            force_counter: None,
        }
    }

    /// Attach a cancellation token checked inside every counting scan.
    pub fn with_cancel(mut self, cancel: &'a CancelToken) -> Self {
        self.opts.cancel = Some(cancel);
        self
    }

    /// Run shard tasks on `pool` instead of the process-wide
    /// [`WorkerPool::global`].
    pub fn with_pool(mut self, pool: &'a WorkerPool) -> Self {
        self.opts.pool = Some(pool);
        self
    }

    /// Pin the quantitative counting backend of every pass ≥ 2 (for
    /// ablations). Pass 2 then counts `C_2` as an explicit candidate list
    /// through the pinned backend instead of the implicit pair arrays.
    pub fn with_counter(mut self, kind: CounterKind) -> Self {
        self.force_counter = Some(kind);
        self
    }
}

impl CountSource for InMemorySource<'_> {
    fn meta(&self) -> &EncodedTable {
        self.table
    }

    fn num_rows(&self) -> u64 {
        self.table.num_rows() as u64
    }

    fn value_counts(&mut self) -> Result<Vec<Vec<u64>>, CountError> {
        Ok(attribute_value_counts(self.table))
    }

    fn count_pairs(&mut self, grid: &PairGrid) -> Result<Counted, CountError> {
        Ok(match self.force_counter {
            Some(kind) => {
                count_candidates_opts(self.table, &grid.itemsets(), Some(kind), self.opts)
            }
            None => count_pairs_opts(self.table, grid, PAIR_CELL_BUDGET, self.opts),
        }?)
    }

    /// Without a pinned backend the whole grid is counted in one scan per
    /// group of pair arrays, keeping only the frequent cells at readout.
    fn frequent_pairs(&mut self, grid: &PairGrid, min_count: u64) -> Result<Frequent, CountError> {
        if self.force_counter.is_some() {
            return frequent_of_all_pairs(self, grid, min_count);
        }
        let mut level = Vec::new();
        let stats = scan_pairs(
            self.table,
            grid,
            PAIR_CELL_BUDGET,
            self.opts,
            |_, a, b, c| {
                if c >= min_count {
                    level.push((Itemset::new(vec![a, b]), c));
                }
            },
        )?;
        Ok((level, stats))
    }

    fn count(&mut self, _pass: usize, candidates: &[Itemset]) -> Result<Counted, CountError> {
        let force = self.force_counter;
        Ok(count_candidates_opts(
            self.table, candidates, force, self.opts,
        )?)
    }
}

/// A [`CountSource`] over a spilled [`ChunkStore`]: every counting pass
/// streams the chunks from disk one at a time and merges their counts by
/// addition, so peak memory is one chunk (plus the count vector)
/// regardless of table size.
pub struct ChunkedSource<'a> {
    store: &'a ChunkStore,
    meta: EncodedTable,
    opts: ScanOptions<'a>,
}

impl<'a> ChunkedSource<'a> {
    /// A source over `store`, with parallelism and kernel from `config`.
    pub fn new(store: &'a ChunkStore, config: &MinerConfig) -> Self {
        ChunkedSource {
            store,
            meta: store.header(),
            opts: scan_options(config),
        }
    }

    /// Attach a cancellation token checked inside every counting scan.
    pub fn with_cancel(mut self, cancel: &'a CancelToken) -> Self {
        self.opts.cancel = Some(cancel);
        self
    }

    /// Count every chunk with `count_chunk` and sum the results; the
    /// chunks' scan statistics fold into one pass record.
    fn sum_chunks(
        &self,
        len: usize,
        count_chunk: impl Fn(&EncodedTable) -> Result<Counted, CountError>,
    ) -> Result<Counted, CountError> {
        let mut merged = vec![0u64; len];
        let mut stats = PassStats::default();
        for i in 0..self.store.num_chunks() {
            let chunk = self.store.chunk(i)?;
            let (counts, chunk_stats) = count_chunk(&chunk)?;
            stats.absorb_scan(&chunk_stats);
            stats.super_candidates = chunk_stats.super_candidates;
            stats.array_backed = chunk_stats.array_backed;
            stats.rtree_backed = chunk_stats.rtree_backed;
            let started = Instant::now();
            for (a, b) in merged.iter_mut().zip(counts) {
                *a += b;
            }
            stats.merge_time += started.elapsed();
        }
        Ok((merged, stats))
    }
}

impl CountSource for ChunkedSource<'_> {
    fn meta(&self) -> &EncodedTable {
        &self.meta
    }

    fn num_rows(&self) -> u64 {
        self.store.num_rows() as u64
    }

    fn value_counts(&mut self) -> Result<Vec<Vec<u64>>, CountError> {
        let mut merged: Vec<Vec<u64>> = (self.meta.schema().iter())
            .map(|(id, _)| vec![0u64; self.meta.cardinality(id) as usize])
            .collect();
        for i in 0..self.store.num_chunks() {
            if self.opts.cancel.is_some_and(CancelToken::is_cancelled) {
                return Err(CountError::Cancelled);
            }
            let counts = attribute_value_counts(&self.store.chunk(i)?);
            for (acc, add) in merged.iter_mut().zip(counts) {
                for (a, b) in acc.iter_mut().zip(add) {
                    *a += b;
                }
            }
        }
        Ok(merged)
    }

    fn count_pairs(&mut self, grid: &PairGrid) -> Result<Counted, CountError> {
        self.sum_chunks(grid.len(), |chunk| {
            Ok(count_pairs_opts(chunk, grid, PAIR_CELL_BUDGET, self.opts)?)
        })
    }

    fn count(&mut self, _pass: usize, candidates: &[Itemset]) -> Result<Counted, CountError> {
        self.sum_chunks(candidates.len(), |chunk| {
            Ok(count_candidates_opts(chunk, candidates, None, self.opts)?)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PartitionSpec;
    use crate::miner::Miner;
    use qar_table::{Schema, Table, Value};

    fn people_table() -> Table {
        let schema = Schema::builder()
            .quantitative("Age")
            .categorical("Married")
            .quantitative("NumCars")
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        for (age, married, cars) in [
            (23, "No", 1),
            (25, "Yes", 1),
            (29, "No", 0),
            (34, "Yes", 2),
            (38, "Yes", 2),
            (41, "No", 1),
            (45, "Yes", 3),
            (52, "Yes", 2),
            (58, "No", 0),
            (63, "Yes", 2),
        ] {
            t.push_row(&[Value::Int(age), Value::from(married), Value::Int(cars)])
                .unwrap();
        }
        t
    }

    fn config() -> MinerConfig {
        MinerConfig {
            min_support: 0.2,
            min_confidence: 0.5,
            max_support: 1.0,
            partitioning: PartitionSpec::FixedIntervals(3),
            interest: None,
            ..MinerConfig::default()
        }
    }

    fn encoded() -> EncodedTable {
        let table = people_table();
        let (encoders, _) = crate::pipeline::build_encoders(&table, &config()).unwrap();
        EncodedTable::encode(&table, encoders).unwrap()
    }

    fn assert_outputs_identical(a: &MiningOutput, b: &MiningOutput) {
        assert_eq!(a.frequent.levels, b.frequent.levels);
        assert_eq!(a.rules, b.rules);
        assert_eq!(a.stats.rules_total, b.stats.rules_total);
        assert_eq!(a.stats.rules_interesting, b.stats.rules_interesting);
        assert_eq!(
            a.stats.mine.candidates_per_pass,
            b.stats.mine.candidates_per_pass
        );
        assert_eq!(a.stats.mine.pass_stats.len(), b.stats.mine.pass_stats.len());
        assert_eq!(
            a.stats.mine.interest_pruned_items,
            b.stats.mine.interest_pruned_items
        );
    }

    #[test]
    fn chunked_source_matches_serial_for_every_chunk_size() {
        let enc = encoded();
        let serial = Miner::new(config()).mine_encoded(&enc).unwrap();
        for chunk_rows in [1usize, 3, 4, 10, 100] {
            let dir = qar_table::chunk::default_spill_dir(&format!("src_test_{chunk_rows}"));
            let mut store =
                ChunkStore::create(&dir, enc.schema().clone(), enc.encoders().to_vec()).unwrap();
            let table = people_table();
            let mut i = 0;
            while i < table.num_rows() {
                let end = (i + chunk_rows).min(table.num_rows());
                let mut part = Table::new(table.schema().clone());
                for r in i..end {
                    part.push_row(&table.row(r).to_values()).unwrap();
                }
                store.append_chunk(&part).unwrap();
                i = end;
            }
            let mut source = ChunkedSource::new(&store, &config());
            let sourced = mine_source(&mut source, &config(), None, None).unwrap();
            assert_outputs_identical(&serial, &sourced);
        }
    }

    #[test]
    fn empty_source_rejected() {
        let schema = Schema::builder().quantitative("x").build().unwrap();
        let t = Table::new(schema);
        let enc = EncodedTable::encode_full_resolution(&t).unwrap();
        let mut source = InMemorySource::new(&enc, &config());
        assert!(matches!(
            mine_source(&mut source, &config(), None, None),
            Err(MinerError::Schema(_))
        ));
    }

    #[test]
    fn mismatched_count_length_is_a_distributed_error() {
        struct Broken<'a>(InMemorySource<'a>);
        impl CountSource for Broken<'_> {
            fn meta(&self) -> &EncodedTable {
                self.0.meta()
            }
            fn num_rows(&self) -> u64 {
                self.0.num_rows()
            }
            fn value_counts(&mut self) -> Result<Vec<Vec<u64>>, CountError> {
                self.0.value_counts()
            }
            fn count_pairs(&mut self, _grid: &PairGrid) -> Result<Counted, CountError> {
                Ok((vec![0], PassStats::default())) // wrong length
            }
            fn count(
                &mut self,
                _pass: usize,
                _candidates: &[Itemset],
            ) -> Result<Counted, CountError> {
                Ok((vec![0], PassStats::default())) // wrong length
            }
        }
        let enc = encoded();
        let mut broken = Broken(InMemorySource::new(&enc, &config()));
        assert!(matches!(
            mine_source(&mut broken, &config(), None, None),
            Err(MinerError::Distributed(_))
        ));
    }

    fn sub_table(rows: std::ops::Range<usize>) -> Table {
        let table = people_table();
        let mut part = Table::new(table.schema().clone());
        for r in rows {
            part.push_row(&table.row(r).to_values()).unwrap();
        }
        part
    }

    #[test]
    fn capture_records_histograms_and_every_counting_pass() {
        let enc = encoded();
        let mut source = InMemorySource::new(&enc, &config());
        let (out, captured) = mine_source_captured(&mut source, &config(), None, None).unwrap();
        assert_eq!(captured.value_counts, attribute_value_counts(&enc));
        // One pass record per non-empty candidate set, raw counts kept for
        // infrequent candidates too.
        let counting_passes = out
            .stats
            .mine
            .candidates_per_pass
            .iter()
            .filter(|&&c| c > 0)
            .count();
        assert_eq!(captured.passes.len(), counting_passes);
        for ((pass, entries), (k, &cands)) in captured
            .passes
            .iter()
            .zip(out.stats.mine.candidates_per_pass.iter().enumerate())
        {
            assert_eq!(*pass as usize, k + 2);
            assert_eq!(entries.len(), cands);
        }
    }

    #[test]
    fn merge_of_split_counts_equals_full_mine() {
        let full_table = people_table();
        let (encoders, _) = crate::pipeline::build_encoders(&full_table, &config()).unwrap();
        let full_enc = EncodedTable::encode(&full_table, encoders.clone()).unwrap();
        let mut full_src = InMemorySource::new(&full_enc, &config());
        let (full_out, full_cap) =
            mine_source_captured(&mut full_src, &config(), None, None).unwrap();

        for cut in [0usize, 4, 7, 10] {
            let base_enc = EncodedTable::encode(&sub_table(0..cut), encoders.clone()).unwrap();
            let delta_enc = EncodedTable::encode(&sub_table(cut..10), encoders.clone()).unwrap();

            // Base counts: captured from a real mine when the base is
            // non-empty, synthesized otherwise (a zero-row base mines
            // nothing, so the empty-base case starts from zero tallies).
            let base_counts = if cut > 0 {
                let mut base_src = InMemorySource::new(&base_enc, &config());
                let (_, cap) = mine_source_captured(&mut base_src, &config(), None, None).unwrap();
                SupportCounts::assemble(
                    full_enc.schema(),
                    &encoders,
                    cut as u64,
                    &config(),
                    Vec::new(),
                    cap,
                )
            } else {
                SupportCounts::assemble(
                    full_enc.schema(),
                    &encoders,
                    0,
                    &config(),
                    Vec::new(),
                    CapturedCounts {
                        value_counts: full_enc
                            .schema()
                            .iter()
                            .map(|(id, _)| vec![0u64; full_enc.cardinality(id) as usize])
                            .collect(),
                        passes: Vec::new(),
                    },
                )
            };

            let meta = EncodedTable::header_only(
                full_enc.schema().clone(),
                encoders.clone(),
                full_table.num_rows(),
            );
            let delta_src = (cut < 10).then(|| InMemorySource::new(&delta_enc, &config()));
            let mut merge = MergeSource::new(&base_counts, delta_src, meta);
            match mine_source_captured(&mut merge, &config(), None, None) {
                Ok((out, cap)) => {
                    assert_outputs_identical(&full_out, &out);
                    assert_eq!(cap, full_cap, "cut {cut}: captured counts diverge");
                }
                // A candidate-set divergence is a legitimate outcome (the
                // caller re-mines); anything else is a bug.
                Err(MinerError::Update(_)) => assert!(
                    cut < 10,
                    "an empty delta can never diverge from the base run"
                ),
                Err(other) => panic!("cut {cut}: unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn merge_with_empty_delta_never_scans() {
        struct Explode;
        impl CountSource for Explode {
            fn meta(&self) -> &EncodedTable {
                unreachable!("empty delta must not be consulted")
            }
            fn num_rows(&self) -> u64 {
                0
            }
            fn value_counts(&mut self) -> Result<Vec<Vec<u64>>, CountError> {
                panic!("empty delta must not be scanned")
            }
            fn count_pairs(&mut self, _: &PairGrid) -> Result<Counted, CountError> {
                panic!("empty delta must not be scanned")
            }
            fn count(&mut self, _: usize, _: &[Itemset]) -> Result<Counted, CountError> {
                panic!("empty delta must not be scanned")
            }
        }
        let enc = encoded();
        let mut src = InMemorySource::new(&enc, &config());
        let (full_out, cap) = mine_source_captured(&mut src, &config(), None, None).unwrap();
        let counts = SupportCounts::assemble(
            enc.schema(),
            enc.encoders(),
            enc.num_rows() as u64,
            &config(),
            Vec::new(),
            cap,
        );
        let meta = EncodedTable::header_only(
            enc.schema().clone(),
            enc.encoders().to_vec(),
            enc.num_rows(),
        );
        let mut merge: MergeSource<'_, Explode> = MergeSource::new(&counts, None, meta);
        let replay = mine_source(&mut merge, &config(), None, None).unwrap();
        assert_outputs_identical(&full_out, &replay);
    }

    #[test]
    fn cancelled_source_surfaces_cancellation() {
        let enc = encoded();
        let token = CancelToken::new();
        token.cancel();
        let mut source = InMemorySource::new(&enc, &config()).with_cancel(&token);
        match mine_source(&mut source, &config(), None, Some(&token)) {
            Err(MinerError::Cancelled(info)) => assert_eq!(info.pass, 1),
            Err(other) => panic!("expected Cancelled, got {other:?}"),
            Ok(_) => panic!("expected Cancelled, got Ok"),
        }
    }

    /// A table big enough that every counting scan takes measurable
    /// time: four attributes, several thousand rows.
    fn wide_table(rows: std::ops::Range<usize>) -> Table {
        let schema = Schema::builder()
            .quantitative("a")
            .quantitative("b")
            .categorical("c")
            .quantitative("d")
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        for r in rows {
            t.push_row(&[
                Value::Int((r % 5) as i64),
                Value::Int(((r * 7) % 6) as i64),
                Value::from(if r % 3 == 0 { "x" } else { "y" }),
                Value::Int(((r / 2) % 4) as i64),
            ])
            .unwrap();
        }
        t
    }

    fn wide_config() -> MinerConfig {
        MinerConfig {
            min_support: 0.05,
            min_confidence: 0.5,
            max_support: 0.6,
            partitioning: PartitionSpec::None,
            interest: None,
            ..MinerConfig::default()
        }
    }

    /// Every counting pass with candidates reports a non-zero scan time
    /// and a named kernel in its `pass_finished` event, on every path.
    #[test]
    fn pass_statistics_are_reported_on_every_path() {
        let cfg = wide_config();
        let table = wide_table(0..6000);
        let (encoders, _) = crate::pipeline::build_encoders(&table, &cfg).unwrap();
        let enc = EncodedTable::encode(&table, encoders.clone()).unwrap();
        let check = |path: &str, source: &mut dyn CountSource| {
            let sink = qar_trace::CollectingSink::new();
            mine_source(source, &cfg, Some(&sink), None).unwrap();
            let mut counted = 0;
            for event in sink.events() {
                if let TraceEvent::PassFinished {
                    pass,
                    candidates: 1..,
                    scan_us,
                    kernel,
                    ..
                } = event
                {
                    counted += 1;
                    assert!(scan_us > 0, "{path}: pass {pass} reports scan_us 0");
                    assert!(
                        ["direct", "bitmask", "mixed"].contains(&kernel.as_str()),
                        "{path}: pass {pass} reports kernel `{kernel}`"
                    );
                }
            }
            assert!(counted >= 2, "{path}: the workload must reach pass 3");
        };

        check("in-memory", &mut InMemorySource::new(&enc, &cfg));
        let mut inner = InMemorySource::new(&enc, &cfg);
        let mut capture = CaptureSource::new(&mut inner);
        check("captured", &mut capture);
        let captured = capture.into_captured();

        let dir = qar_table::chunk::default_spill_dir("src_test_pass_stats");
        let mut store = ChunkStore::create(&dir, enc.schema().clone(), encoders.clone()).unwrap();
        store.append_chunk(&wide_table(0..2500)).unwrap();
        store.append_chunk(&wide_table(2500..6000)).unwrap();
        check("chunked", &mut ChunkedSource::new(&store, &cfg));
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);

        // Merging the table's own counts with a delta of the same rows
        // doubles every tally, which keeps every candidate set.
        let rows = enc.num_rows();
        let base = SupportCounts::assemble(
            enc.schema(),
            &encoders,
            rows as u64,
            &cfg,
            Vec::new(),
            captured,
        );
        let meta = EncodedTable::header_only(enc.schema().clone(), encoders, 2 * rows);
        let delta = Some(InMemorySource::new(&enc, &cfg));
        check("merge", &mut MergeSource::new(&base, delta, meta));
    }

    /// The captured pass-2 record is exactly `generate_candidates(L_1)`
    /// zipped with the naive counts — the order and tallies an explicit
    /// pass 2 would have persisted — whether a pair is counted in a
    /// dense array or on the R*-tree fallback.
    #[test]
    fn captured_pass_two_is_pinned_to_candidate_order() {
        let cfg = wide_config();
        let table = wide_table(0..400);
        let (encoders, _) = crate::pipeline::build_encoders(&table, &cfg).unwrap();
        let enc = EncodedTable::encode(&table, encoders).unwrap();
        let mut source = InMemorySource::new(&enc, &cfg);
        let (out, captured) = mine_source_captured(&mut source, &cfg, None, None).unwrap();
        let (pass, entries) = &captured.passes[0];
        assert_eq!(*pass, 2);
        let candidates = generate_candidates(&out.frequent.levels[0]);
        let naive = crate::supercand::count_candidates_naive(&enc, &candidates);
        let expected: Vec<(Itemset, u64)> = candidates.into_iter().zip(naive.clone()).collect();
        assert_eq!(entries, &expected);

        // Cardinalities 5, 6, 2, 4: a 12-cell budget keeps the a×c, c×d
        // and b×c arrays and sends every other pair to the R*-tree.
        let grid = PairGrid::from_level1(&out.frequent.levels[0]);
        let (counts, stats) = count_pairs_opts(&enc, &grid, 12, ScanOptions::new(2)).unwrap();
        assert!(
            stats.array_backed > 0 && stats.rtree_backed > 0,
            "{stats:?}"
        );
        assert_eq!(counts, naive);

        // A merge with a delta of the same rows reads the base tallies
        // off the captured record by position and doubles them.
        let rows = enc.num_rows();
        let base = SupportCounts::assemble(
            enc.schema(),
            enc.encoders(),
            rows as u64,
            &cfg,
            Vec::new(),
            captured,
        );
        let meta =
            EncodedTable::header_only(enc.schema().clone(), enc.encoders().to_vec(), 2 * rows);
        let delta = InMemorySource::new(&enc, &cfg);
        let mut merge = MergeSource::new(&base, Some(delta), meta);
        let (merged, _) = merge.count_pairs(&grid).unwrap();
        assert_eq!(merged, naive.iter().map(|c| 2 * c).collect::<Vec<_>>());
    }
}
