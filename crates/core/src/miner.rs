//! The [`Miner`] facade: one configured entry point for the whole
//! pipeline, with progress events, cooperative cancellation, and
//! encoding reuse across repeated runs.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use crate::config::{MinerConfig, MinerError, ScanKernel};
use crate::counts::{encoding_fingerprint, update_precheck, SupportCounts};
use crate::mine::{MineStats, RunCtx};
use crate::pipeline::{build_encoders, MiningOutput};
use crate::pool::WorkerPool;
use crate::source::{
    mine_source, mine_source_captured, mine_with_source_ctx, InMemorySource, MergeSource,
};
use qar_itemset::CounterKind;
use qar_table::{AttributeEncoder, Column, EncodedTable, Schema, Table, TableError};
use qar_trace::{event::micros, CancelToken, ProgressSink, TraceEvent};

/// A configured miner: the builder-style entry point for the pipeline.
///
/// Every mining call runs the one level-wise driver
/// ([`crate::source::mine_source`]) over an [`InMemorySource`] that
/// carries this miner's scan pool, cancellation token and backend pin.
/// A `Miner`:
///
/// - emits one structured [`qar_trace::TraceEvent`] per pipeline
///   milestone into an attached [`ProgressSink`],
/// - honors a [`CancelToken`] cooperatively (pass boundaries plus
///   periodic checks inside every shard scan), returning partial
///   statistics via [`MinerError::Cancelled`],
/// - caches the partitioned/encoded form of the last table it mined, so
///   re-mining the same table (e.g. with different support thresholds)
///   skips Steps 1–2 entirely.
///
/// ```
/// use qar_core::{Miner, MinerConfig};
/// use qar_table::{Schema, Table, Value};
///
/// let schema = Schema::builder().quantitative("x").build().unwrap();
/// let mut table = Table::new(schema);
/// for v in [1, 1, 2] {
///     table.push_row(&[Value::Int(v)]).unwrap();
/// }
/// let output = Miner::new(MinerConfig {
///     min_support: 0.5,
///     max_support: 1.0,
///     interest: None,
///     ..MinerConfig::default()
/// })
/// .mine(&table)
/// .unwrap();
/// assert!(output.frequent.total() > 0);
/// ```
pub struct Miner {
    config: MinerConfig,
    sink: Option<Arc<dyn ProgressSink>>,
    cancel: Option<CancelToken>,
    force_counter: Option<CounterKind>,
    cache: Option<EncodingCache>,
    /// The persistent scan pool, created lazily on the first parallel
    /// counting pass and reused by every later run of this miner (the
    /// workers park between scans). Serial configurations never spawn it.
    pool: OnceLock<WorkerPool>,
}

/// The cached Steps 1–2 of the previous [`Miner::mine`] call.
struct EncodingCache {
    fingerprint: (u64, u64),
    encoded: EncodedTable,
    intervals: Vec<Option<usize>>,
}

impl std::fmt::Debug for Miner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Miner")
            .field("config", &self.config)
            .field("sink", &self.sink.as_ref().map(|_| "dyn ProgressSink"))
            .field("cancel", &self.cancel)
            .field("force_counter", &self.force_counter)
            .field("cached_encoding", &self.cache.is_some())
            .field("pool", &self.pool.get())
            .finish()
    }
}

impl Miner {
    /// A miner with the given configuration and no observers.
    pub fn new(config: MinerConfig) -> Self {
        Miner {
            config,
            sink: None,
            cancel: None,
            force_counter: None,
            cache: None,
            pool: OnceLock::new(),
        }
    }

    /// Attach a progress sink; every subsequent run reports its trace
    /// events there.
    pub fn with_progress(mut self, sink: Arc<dyn ProgressSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Attach a cancellation token; runs abort cooperatively once it
    /// trips (explicitly or by deadline), returning
    /// [`MinerError::Cancelled`] with the completed passes' statistics.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Pin the quantitative counting backend (for ablations; the default
    /// picks per super-candidate by the memory heuristic).
    pub fn with_counter(mut self, kind: CounterKind) -> Self {
        self.force_counter = Some(kind);
        self
    }

    /// Pin the support-counting scan kernel (unpinned, each pass picks
    /// one before its scan from its super-candidates' shape).
    pub fn with_kernel(mut self, kernel: ScanKernel) -> Self {
        self.config.kernel = Some(kernel);
        self
    }

    /// The configuration this miner runs with.
    pub fn config(&self) -> &MinerConfig {
        &self.config
    }

    /// Replace the configuration. The encoding cache survives only if
    /// the partitioning policy is unchanged (Steps 1–2 depend on it).
    pub fn set_config(&mut self, config: MinerConfig) {
        if config.partitioning != self.config.partitioning
            || config.partition_strategy != self.config.partition_strategy
            || config.taxonomies != self.config.taxonomies
            || config.min_support != self.config.min_support
        {
            self.cache = None;
        }
        // Re-size the scan pool if the thread budget changed (a fresh
        // OnceLock drops the old pool, joining its workers).
        if config.effective_parallelism() != self.config.effective_parallelism() {
            self.pool = OnceLock::new();
        }
        self.config = config;
    }

    /// Drop the cached encoding (e.g. to release memory between runs).
    pub fn clear_cache(&mut self) {
        self.cache = None;
    }

    /// The in-memory counting source for `encoded`, carrying this miner's
    /// cancellation token and backend pin. Multi-threaded configurations
    /// get this miner's own pool so repeated runs reuse one set of
    /// workers; a serial run needs no pool at all (and must not spawn the
    /// global one as a side effect).
    fn source<'a>(&'a self, encoded: &'a EncodedTable) -> InMemorySource<'a> {
        let mut source = InMemorySource::new(encoded, &self.config);
        let threads = self.config.effective_parallelism();
        if threads > 1 {
            source = source.with_pool(self.pool.get_or_init(|| WorkerPool::new(threads)));
        }
        if let Some(cancel) = &self.cancel {
            source = source.with_cancel(cancel);
        }
        if let Some(kind) = self.force_counter {
            source = source.with_counter(kind);
        }
        source
    }

    /// Run the full five-step pipeline over a raw [`Table`].
    ///
    /// Repeated calls on a table with identical contents reuse the
    /// partitioned encoding from the previous call
    /// ([`MiningStats::encoding_reused`] reports which path ran).
    ///
    /// [`MiningStats::encoding_reused`]: crate::MiningStats::encoding_reused
    pub fn mine(&mut self, table: &Table) -> Result<MiningOutput, MinerError> {
        self.run_on_table(table, false).map(|(output, _)| output)
    }

    /// [`Miner::mine`] with count capture: additionally returns the raw
    /// support tallies of every counting pass as a [`SupportCounts`],
    /// ready to persist in a catalog `COUNTS` section so later runs can
    /// update incrementally via [`Miner::update`]. Results are identical
    /// to [`Miner::mine`] (same itemsets, supports, rules, interest —
    /// statistics agree under [`crate::MiningStats::normalized`]).
    pub fn mine_with_counts(
        &mut self,
        table: &Table,
    ) -> Result<(MiningOutput, SupportCounts), MinerError> {
        let (output, counts) = self.run_on_table(table, true)?;
        Ok((output, counts.expect("capture was requested")))
    }

    /// Steps 1–2 (or the cached encoding), then Steps 3–5 through the
    /// driver, capturing the raw counts when `capture` is set.
    fn run_on_table(
        &mut self,
        table: &Table,
        capture: bool,
    ) -> Result<(MiningOutput, Option<SupportCounts>), MinerError> {
        self.config.validate()?;
        crate::pipeline::validate_partitioning(table.schema(), &self.config)?;
        if table.is_empty() {
            return Err(MinerError::Schema(TableError::EmptyTable));
        }
        let started = Instant::now();

        // Steps 1 + 2: partition and encode — or reuse the cached
        // encoding when the table is bit-identical to the previous run's.
        let fingerprint = table_fingerprint(table);
        let reused = match &self.cache {
            Some(cache) if cache.fingerprint == fingerprint => true,
            _ => {
                let (encoders, intervals) = build_encoders(table, &self.config)?;
                let encoded = EncodedTable::encode(table, encoders)?;
                self.cache = Some(EncodingCache {
                    fingerprint,
                    encoded,
                    intervals,
                });
                false
            }
        };
        let cache = self.cache.as_ref().expect("cache populated above");

        // Steps 3–5 over the encoded table.
        let mut source = self.source(&cache.encoded);
        let (sink, cancel) = (self.sink.as_deref(), self.cancel.as_ref());
        let (mut output, captured) = if capture {
            let (output, captured) = mine_source_captured(&mut source, &self.config, sink, cancel)?;
            (output, Some(captured))
        } else {
            (mine_source(&mut source, &self.config, sink, cancel)?, None)
        };
        output.stats.intervals_per_attribute = cache.intervals.clone();
        output.stats.encoding_reused = reused;
        output.stats.elapsed = started.elapsed();
        let counts = captured.map(|captured| {
            SupportCounts::assemble(
                cache.encoded.schema(),
                cache.encoded.encoders(),
                table.num_rows() as u64,
                &self.config,
                cache.intervals.clone(),
                captured,
            )
        });
        Ok((output, counts))
    }

    /// Incrementally refresh a catalog's mining results after `delta`
    /// rows were appended to its table, scanning **only** the delta.
    ///
    /// `schema`/`encoders`/`counts` come from the existing catalog. The
    /// miner's configuration must semantically match the one the counts
    /// were taken under ([`crate::counts::CountsConfig::check_matches`]);
    /// performance knobs (parallelism, kernel) may differ freely.
    ///
    /// The merged counts are exact, so the result — including the new
    /// [`SupportCounts`] — is identical to mining base+delta from
    /// scratch. When the delta would change the encoding (interval
    /// repartitioning, an unseen value) or a support crossing a
    /// threshold changes a candidate set, the update falls back to a
    /// full re-mine of `base_rows` + `delta` (emitting a pinned
    /// `incremental_fallback` trace event with the reason); without
    /// `base_rows` the fallback is unavailable and [`MinerError::Update`]
    /// is returned instead.
    pub fn update(&mut self, input: UpdateInput<'_>) -> Result<UpdateOutput, MinerError> {
        self.config.validate()?;
        let UpdateInput {
            schema,
            encoders,
            counts,
            delta,
            base_rows,
        } = input;
        counts
            .config
            .check_matches(&self.config)
            .map_err(MinerError::Update)?;
        if delta.schema() != schema {
            return Err(MinerError::Update(
                "delta schema differs from the catalog schema".to_string(),
            ));
        }
        if counts.fingerprint != encoding_fingerprint(schema, encoders) {
            return self.update_fallback(
                "persisted counts were taken under a different encoding fingerprint".to_string(),
                delta,
                base_rows,
            );
        }
        if let Err(reason) = update_precheck(schema, encoders, delta.num_rows() as u64) {
            return self.update_fallback(reason, delta, base_rows);
        }

        // Encode the delta with the catalog's encoders. An unseen value
        // means the combined table would be encoded differently — the
        // persisted counts are invalid for it, so re-mine.
        let delta_encoded = if delta.num_rows() == 0 {
            None
        } else {
            match EncodedTable::encode(delta, encoders.to_vec()) {
                Ok(enc) => Some(enc),
                Err(e @ TableError::UnencodableValue { .. }) => {
                    return self.update_fallback(
                        format!("delta is not encodable under the catalog's encoders ({e})"),
                        delta,
                        base_rows,
                    );
                }
                Err(e) => return Err(MinerError::Schema(e)),
            }
        };

        let update_started = Instant::now();
        let total_rows = counts.num_rows + delta.num_rows() as u64;
        let meta =
            EncodedTable::header_only(schema.clone(), encoders.to_vec(), total_rows as usize);
        let delta_source = delta_encoded.as_ref().map(|enc| self.source(enc));
        let mut merge = MergeSource::new(counts, delta_source, meta);
        match mine_source_captured(
            &mut merge,
            &self.config,
            self.sink.as_deref(),
            self.cancel.as_ref(),
        ) {
            Ok((mut output, captured)) => {
                output.stats.intervals_per_attribute = counts.intervals_per_attribute.clone();
                let new_counts = SupportCounts {
                    num_rows: total_rows,
                    fingerprint: counts.fingerprint,
                    config: counts.config.clone(),
                    intervals_per_attribute: counts.intervals_per_attribute.clone(),
                    captured,
                };
                self.emit(TraceEvent::IncrementalUpdate {
                    base_rows: counts.num_rows,
                    delta_rows: delta.num_rows() as u64,
                    total_rows,
                    passes: new_counts.captured.passes.len() + 1,
                    elapsed_us: micros(update_started.elapsed()),
                });
                Ok(UpdateOutput {
                    output,
                    counts: new_counts,
                    incremental: true,
                    fallback: None,
                })
            }
            Err(MinerError::Update(reason)) => self.update_fallback(reason, delta, base_rows),
            Err(other) => Err(other),
        }
    }

    /// The full re-mine escape hatch of [`Miner::update`].
    fn update_fallback(
        &mut self,
        reason: String,
        delta: &Table,
        base_rows: Option<&Table>,
    ) -> Result<UpdateOutput, MinerError> {
        self.emit(TraceEvent::IncrementalFallback {
            reason: reason.clone(),
        });
        let Some(base) = base_rows else {
            return Err(MinerError::Update(format!(
                "{reason}; base rows unavailable for a full re-mine"
            )));
        };
        let mut combined = Table::new(base.schema().clone());
        for r in 0..base.num_rows() {
            combined.push_row(&base.row(r).to_values())?;
        }
        for r in 0..delta.num_rows() {
            combined.push_row(&delta.row(r).to_values())?;
        }
        let (output, counts) = self.mine_with_counts(&combined)?;
        Ok(UpdateOutput {
            output,
            counts,
            incremental: false,
            fallback: Some(reason),
        })
    }

    fn emit(&self, event: TraceEvent) {
        if let Some(sink) = &self.sink {
            sink.on_event(&event);
        }
    }

    /// Run Steps 3–5 over an already-encoded table (partitioning was
    /// done by the caller, so [`crate::MiningStats::intervals_per_attribute`]
    /// is empty and nothing is cached).
    pub fn mine_encoded(&self, table: &EncodedTable) -> Result<MiningOutput, MinerError> {
        mine_source(
            &mut self.source(table),
            &self.config,
            self.sink.as_deref(),
            self.cancel.as_ref(),
        )
    }

    /// Frequent itemsets only (Step 3) over an already-encoded table.
    pub fn frequent_itemsets(
        &self,
        table: &EncodedTable,
    ) -> Result<(crate::frequent::QuantFrequentItemsets, MineStats), MinerError> {
        let ctx = RunCtx {
            sink: self.sink.as_deref(),
            cancel: self.cancel.as_ref(),
        };
        let (frequent, stats, _) =
            mine_with_source_ctx(&mut self.source(table), &self.config, ctx)?;
        Ok((frequent, stats))
    }
}

/// Everything [`Miner::update`] needs from the existing catalog plus the
/// newly appended rows.
pub struct UpdateInput<'a> {
    /// The catalog's schema.
    pub schema: &'a Schema,
    /// The catalog's per-attribute encoders (what the persisted counts
    /// were encoded under).
    pub encoders: &'a [AttributeEncoder],
    /// The catalog's persisted support counts.
    pub counts: &'a SupportCounts,
    /// The appended rows (may be empty).
    pub delta: &'a Table,
    /// The base table's rows, if still available — enables the full
    /// re-mine fallback when the delta invalidates the counts.
    pub base_rows: Option<&'a Table>,
}

/// What [`Miner::update`] produced.
pub struct UpdateOutput {
    /// The refreshed mining results over base+delta. On the incremental
    /// path `output.encoded` is a decode-only header (rules render, but
    /// there are no code columns to re-scan).
    pub output: MiningOutput,
    /// Refreshed support counts, ready to persist (identical to what a
    /// from-scratch capture mine of base+delta would produce).
    pub counts: SupportCounts,
    /// True when only the delta was scanned.
    pub incremental: bool,
    /// The fallback reason, when a full re-mine was required.
    pub fallback: Option<String>,
}

impl std::fmt::Debug for UpdateOutput {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UpdateOutput")
            .field("rules", &self.output.rules.len())
            .field("num_rows", &self.counts.num_rows)
            .field("incremental", &self.incremental)
            .field("fallback", &self.fallback)
            .finish()
    }
}

/// A 128-bit content fingerprint of a table: schema (names and kinds),
/// row count, and every cell, mixed through two independently-seeded
/// SplitMix64 lanes. Collisions would silently reuse a stale encoding,
/// so two lanes keep the probability negligible for same-process reuse.
fn table_fingerprint(table: &Table) -> (u64, u64) {
    let mut lanes = [
        Lane::new(0x9e37_79b9_7f4a_7c15),
        Lane::new(0x1234_5678_9abc_def0),
    ];
    let mut absorb = |word: u64| {
        for lane in &mut lanes {
            lane.absorb(word);
        }
    };
    absorb(table.num_rows() as u64);
    for (id, def) in table.schema().iter() {
        absorb(def.name().len() as u64);
        for chunk in def.name().as_bytes().chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            absorb(u64::from_le_bytes(word));
        }
        match table.column(id) {
            Column::Quantitative { data, integral } => {
                absorb(1 + u64::from(*integral));
                for v in data {
                    absorb(v.to_bits());
                }
            }
            Column::Categorical { data } => {
                absorb(3);
                for label in data {
                    absorb(label.len() as u64);
                    for chunk in label.as_bytes().chunks(8) {
                        let mut word = [0u8; 8];
                        word[..chunk.len()].copy_from_slice(chunk);
                        absorb(u64::from_le_bytes(word));
                    }
                }
            }
        }
    }
    (lanes[0].finish(), lanes[1].finish())
}

/// One SplitMix64-style absorbing lane.
struct Lane(u64);

impl Lane {
    fn new(seed: u64) -> Self {
        Lane(seed)
    }

    fn absorb(&mut self, word: u64) {
        let mut z = self.0 ^ word.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = z ^ (z >> 31);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PartitionSpec;
    use qar_table::{Schema, Value};

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
        ] {
            t.push_row(&[Value::Int(age), Value::from(married), Value::Int(cars)])
                .unwrap();
        }
        t
    }

    fn config() -> MinerConfig {
        MinerConfig {
            min_support: 0.4,
            min_confidence: 0.5,
            max_support: 1.0,
            partitioning: PartitionSpec::None,
            interest: None,
            ..MinerConfig::default()
        }
    }

    #[test]
    fn mine_matches_mine_encoded_on_the_same_encoding() {
        let table = people_table();
        let via_table = Miner::new(config()).mine(&table).unwrap();
        let via_encoded = Miner::new(config())
            .mine_encoded(&via_table.encoded)
            .unwrap();
        assert_eq!(via_table.frequent.levels, via_encoded.frequent.levels);
        assert_eq!(via_table.rules, via_encoded.rules);
        assert_eq!(via_table.stats.rules_total, via_encoded.stats.rules_total);
        assert_eq!(
            via_table.stats.normalized().mine,
            via_encoded.stats.normalized().mine
        );
    }

    #[test]
    fn second_run_reuses_encoding_and_matches() {
        let table = people_table();
        let mut miner = Miner::new(config());
        let first = miner.mine(&table).unwrap();
        assert!(!first.stats.encoding_reused);
        let second = miner.mine(&table).unwrap();
        assert!(second.stats.encoding_reused);
        assert_eq!(first.frequent.levels, second.frequent.levels);
        assert_eq!(
            first.stats.intervals_per_attribute,
            second.stats.intervals_per_attribute
        );
    }

    #[test]
    fn changed_cell_invalidates_the_cache() {
        let mut miner = Miner::new(config());
        miner.mine(&people_table()).unwrap();
        let mut other = people_table();
        other
            .push_row(&[Value::Int(60), Value::from("Yes"), Value::Int(3)])
            .unwrap();
        let out = miner.mine(&other).unwrap();
        assert!(!out.stats.encoding_reused);
        assert_eq!(out.frequent.num_rows, 6);
    }

    #[test]
    fn set_config_keeps_cache_only_when_encoding_unaffected() {
        let table = people_table();
        let mut miner = Miner::new(config());
        miner.mine(&table).unwrap();

        // Confidence does not affect Steps 1-2: cache survives.
        let mut same_encoding = config();
        same_encoding.min_confidence = 0.9;
        miner.set_config(same_encoding);
        assert!(miner.mine(&table).unwrap().stats.encoding_reused);

        // Partitioning does: cache dropped.
        let mut repartitioned = config();
        repartitioned.partitioning = PartitionSpec::FixedIntervals(2);
        miner.set_config(repartitioned);
        assert!(!miner.mine(&table).unwrap().stats.encoding_reused);
    }

    #[test]
    fn fingerprint_sensitive_to_content_and_schema() {
        let base = table_fingerprint(&people_table());
        assert_eq!(base, table_fingerprint(&people_table()));

        let mut more_rows = people_table();
        more_rows
            .push_row(&[Value::Int(23), Value::from("No"), Value::Int(1)])
            .unwrap();
        assert_ne!(base, table_fingerprint(&more_rows));

        let renamed = Schema::builder()
            .quantitative("Age2")
            .categorical("Married")
            .quantitative("NumCars")
            .build()
            .unwrap();
        let mut t = Table::new(renamed);
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
        assert_ne!(base, table_fingerprint(&t));
    }

    fn bigger_table(rows: std::ops::Range<usize>) -> Table {
        // Small integer domains so full-resolution encoders are
        // append-stable (every delta value already occurs in the base).
        let schema = Schema::builder()
            .quantitative("x")
            .quantitative("y")
            .categorical("c")
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        for r in rows {
            t.push_row(&[
                Value::Int((r % 5) as i64),
                Value::Int(((r * 7) % 4) as i64),
                Value::from(if r % 3 == 0 { "a" } else { "b" }),
            ])
            .unwrap();
        }
        t
    }

    fn update_config() -> MinerConfig {
        MinerConfig {
            min_support: 0.2,
            min_confidence: 0.4,
            max_support: 0.9,
            partitioning: PartitionSpec::None,
            interest: None,
            ..MinerConfig::default()
        }
    }

    #[test]
    fn incremental_update_matches_scratch_mine() {
        let base = bigger_table(0..40);
        let delta = bigger_table(40..50);
        let full = bigger_table(0..50);

        let mut miner = Miner::new(update_config());
        let (_, base_counts) = miner.mine_with_counts(&base).unwrap();
        let (full_out, full_counts) = Miner::new(update_config()).mine_with_counts(&full).unwrap();

        let schema = base.schema().clone();
        let (encoders, _) = crate::pipeline::build_encoders(&base, &update_config()).unwrap();
        let updated = miner
            .update(UpdateInput {
                schema: &schema,
                encoders: &encoders,
                counts: &base_counts,
                delta: &delta,
                base_rows: Some(&base),
            })
            .unwrap();

        assert_eq!(updated.output.frequent.levels, full_out.frequent.levels);
        assert_eq!(updated.output.rules, full_out.rules);
        assert_eq!(updated.counts, full_counts);
        if updated.incremental {
            assert!(updated.fallback.is_none());
        } else {
            assert!(updated.fallback.is_some());
        }
    }

    #[test]
    fn empty_delta_update_is_a_pure_replay() {
        let base = bigger_table(0..40);
        let mut miner = Miner::new(update_config());
        let (base_out, base_counts) = miner.mine_with_counts(&base).unwrap();
        let schema = base.schema().clone();
        let (encoders, _) = crate::pipeline::build_encoders(&base, &update_config()).unwrap();
        let empty_delta = Table::new(schema.clone());
        let updated = miner
            .update(UpdateInput {
                schema: &schema,
                encoders: &encoders,
                counts: &base_counts,
                delta: &empty_delta,
                base_rows: None,
            })
            .unwrap();
        assert!(updated.incremental);
        assert_eq!(updated.output.frequent.levels, base_out.frequent.levels);
        assert_eq!(updated.output.rules, base_out.rules);
        assert_eq!(updated.counts, base_counts);
    }

    #[test]
    fn interval_encoders_force_fallback() {
        let base = people_table();
        let mut cfg = update_config();
        cfg.partitioning = PartitionSpec::FixedIntervals(2);
        let mut miner = Miner::new(cfg.clone());
        let (_, counts) = miner.mine_with_counts(&base).unwrap();
        let schema = base.schema().clone();
        let (encoders, _) = crate::pipeline::build_encoders(&base, &cfg).unwrap();

        let mut delta = Table::new(schema.clone());
        delta
            .push_row(&[Value::Int(99), Value::from("Yes"), Value::Int(1)])
            .unwrap();

        // Without base rows the fallback is unavailable.
        let sink = Arc::new(qar_trace::CollectingSink::new());
        let mut observed = Miner::new(cfg.clone()).with_progress(sink.clone());
        let (_, counts2) = observed.mine_with_counts(&base).unwrap();
        assert_eq!(counts, counts2);
        let err = observed
            .update(UpdateInput {
                schema: &schema,
                encoders: &encoders,
                counts: &counts,
                delta: &delta,
                base_rows: None,
            })
            .unwrap_err();
        assert!(matches!(err, MinerError::Update(_)), "{err:?}");
        assert!(
            sink.events()
                .iter()
                .any(|e| e.name() == "incremental_fallback"),
            "fallback event must be pinned"
        );

        // With base rows the fallback re-mines and matches scratch.
        let updated = miner
            .update(UpdateInput {
                schema: &schema,
                encoders: &encoders,
                counts: &counts,
                delta: &delta,
                base_rows: Some(&base),
            })
            .unwrap();
        assert!(!updated.incremental);
        assert!(updated.fallback.is_some());
        let mut full = people_table();
        full.push_row(&[Value::Int(99), Value::from("Yes"), Value::Int(1)])
            .unwrap();
        let (full_out, full_counts) = Miner::new(cfg).mine_with_counts(&full).unwrap();
        assert_eq!(updated.output.frequent.levels, full_out.frequent.levels);
        assert_eq!(updated.counts, full_counts);
    }

    #[test]
    fn config_drift_is_an_update_error() {
        let base = bigger_table(0..40);
        let mut miner = Miner::new(update_config());
        let (_, counts) = miner.mine_with_counts(&base).unwrap();
        let schema = base.schema().clone();
        let (encoders, _) = crate::pipeline::build_encoders(&base, &update_config()).unwrap();
        let mut drifted_cfg = update_config();
        drifted_cfg.min_support = 0.3;
        let mut drifted = Miner::new(drifted_cfg);
        let err = drifted
            .update(UpdateInput {
                schema: &schema,
                encoders: &encoders,
                counts: &counts,
                delta: &bigger_table(40..45),
                base_rows: Some(&base),
            })
            .unwrap_err();
        assert!(matches!(err, MinerError::Update(_)), "{err:?}");
    }

    #[test]
    fn mine_with_counts_matches_plain_mine() {
        let table = people_table();
        let plain = Miner::new(config()).mine(&table).unwrap();
        let (captured, counts) = Miner::new(config()).mine_with_counts(&table).unwrap();
        assert_eq!(plain.frequent.levels, captured.frequent.levels);
        assert_eq!(plain.rules, captured.rules);
        let a = plain.stats.normalized();
        let b = captured.stats.normalized();
        assert_eq!(a.mine, b.mine);
        assert_eq!(a.intervals_per_attribute, b.intervals_per_attribute);
        assert_eq!(counts.num_rows, table.num_rows() as u64);
        assert_eq!(
            counts.fingerprint,
            encoding_fingerprint(captured.encoded.schema(), captured.encoded.encoders())
        );
    }

    #[test]
    fn mine_with_counts_keeps_the_miners_backend_pin_and_pool() {
        let mut cfg = update_config();
        cfg.parallelism = std::num::NonZeroUsize::new(2);
        let table = bigger_table(0..60);
        let plain = Miner::new(cfg.clone()).mine(&table).unwrap();
        let mut miner = Miner::new(cfg).with_counter(CounterKind::RTree);
        let (pinned, _) = miner.mine_with_counts(&table).unwrap();
        assert!(
            pinned.stats.mine.pass_stats[0].rtree_backed > 0,
            "the R*-tree pin must reach pass 2"
        );
        assert!(
            miner.pool.get().is_some(),
            "the miner's own pool must run the scans"
        );
        assert_eq!(plain.frequent.levels, pinned.frequent.levels);
        assert_eq!(plain.rules, pinned.rules);
        let (a, b) = (plain.stats.normalized(), pinned.stats.normalized());
        assert_eq!(a.mine, b.mine);
        assert_eq!(a.intervals_per_attribute, b.intervals_per_attribute);
    }

    #[test]
    fn invalid_config_rejected() {
        let mut bad = config();
        bad.min_support = 0.0;
        assert!(matches!(
            Miner::new(bad).mine(&people_table()),
            Err(MinerError::Config(_))
        ));
    }

    #[test]
    fn empty_table_rejected() {
        let schema = Schema::builder().quantitative("x").build().unwrap();
        assert!(matches!(
            Miner::new(config()).mine(&Table::new(schema)),
            Err(MinerError::Schema(_))
        ));
    }
}
