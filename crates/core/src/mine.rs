//! Statistics and observability plumbing of the level-wise search
//! (Step 3, second half; Section 5). The loop itself is
//! [`crate::source`]'s driver, which runs over any
//! [`crate::source::CountSource`].

use crate::config::{CancelledInfo, MinerError};
use crate::supercand::PassStats;
use qar_trace::{event::micros, CancelToken, ProgressSink, TraceEvent};

/// Per-pass numbers collected while mining.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MineStats {
    /// `candidates[k-2]` — |C_k| before counting, for k ≥ 2.
    pub candidates_per_pass: Vec<usize>,
    /// Super-candidate statistics per pass, aligned with
    /// `candidates_per_pass`.
    pub pass_stats: Vec<PassStats>,
    /// Frequent items removed by the Lemma 5 interest prune.
    pub interest_pruned_items: usize,
    /// Record-scan time of pass 1 (per-attribute value counting).
    pub pass1_scan_time: std::time::Duration,
    /// Worker threads the counting passes were allowed to use (the
    /// resolved [`crate::MinerConfig::effective_parallelism`]; actual shard
    /// counts per pass are in [`PassStats::shard_scan_times`]).
    pub parallelism: usize,
}

impl MineStats {
    /// Total record-scan time across all passes — the component of the
    /// runtime the paper's Section 6 cost model says is "directly
    /// proportional to the number of records".
    pub fn total_scan_time(&self) -> std::time::Duration {
        self.pass1_scan_time
            + self
                .pass_stats
                .iter()
                .map(|p| p.scan_time)
                .sum::<std::time::Duration>()
    }
}

/// The observability context a mining run carries: an optional event sink
/// and an optional cancellation token. (The scan pool travels with the
/// counting source, not the run.)
#[derive(Clone, Copy, Default)]
pub(crate) struct RunCtx<'a> {
    /// Receives one [`TraceEvent`] per pipeline milestone.
    pub sink: Option<&'a dyn ProgressSink>,
    /// Checked at pass boundaries (the source checks it inside scans).
    pub cancel: Option<&'a CancelToken>,
}

impl RunCtx<'_> {
    /// Emit an event if a sink is attached (the closure keeps event
    /// construction off the unobserved path).
    pub(crate) fn emit(&self, make: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = self.sink {
            sink.on_event(&make());
        }
    }

    pub(crate) fn is_cancelled(&self) -> bool {
        self.cancel.is_some_and(CancelToken::is_cancelled)
    }

    /// Emit the `cancelled` event and build the [`MinerError::Cancelled`]
    /// carrying the completed passes' statistics.
    pub(crate) fn cancelled(&self, pass: usize, stats: MineStats) -> MinerError {
        let deadline = self.cancel.is_some_and(CancelToken::deadline_exceeded);
        self.emit(|| TraceEvent::Cancelled { pass, deadline });
        MinerError::Cancelled(CancelledInfo {
            pass,
            deadline_exceeded: deadline,
            stats,
        })
    }
}

/// A [`TraceEvent::PassFinished`] for a counting pass `k ≥ 2`.
pub(crate) fn pass_finished_event(
    pass: usize,
    candidates: usize,
    frequent: usize,
    stats: &PassStats,
) -> TraceEvent {
    TraceEvent::PassFinished {
        pass,
        candidates,
        frequent,
        pruned: 0,
        super_candidates: stats.super_candidates,
        array_backed: stats.array_backed,
        rtree_backed: stats.rtree_backed,
        hash_tree_nodes: stats.hash_tree_nodes,
        counter_bytes: stats.counter_bytes,
        scan_us: micros(stats.scan_time),
        merge_us: micros(stats.merge_time),
        shard_scan_us: stats.shard_scan_times.iter().map(|&d| micros(d)).collect(),
        pooled: stats.pooled,
        kernel: stats.kernel.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{InterestMode, MinerConfig, PartitionSpec};
    use crate::frequent::QuantFrequentItemsets;
    use crate::miner::Miner;
    use qar_itemset::{CounterKind, Item, Itemset};
    use qar_table::{AttributeEncoder, AttributeId, EncodedTable, Schema, Table, Value};
    use std::sync::Arc;

    fn mine(
        table: &EncodedTable,
        config: &MinerConfig,
        force: Option<CounterKind>,
    ) -> Result<(QuantFrequentItemsets, MineStats), MinerError> {
        let mut miner = Miner::new(config.clone());
        if let Some(kind) = force {
            miner = miner.with_counter(kind);
        }
        miner.frequent_itemsets(table)
    }

    /// Figure 3's People table with the Figure 3(b) Age partitioning.
    fn people_fig3() -> EncodedTable {
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
        let ages = t.column(AttributeId(0)).as_quantitative().unwrap().to_vec();
        let cars = t.column(AttributeId(2)).as_quantitative().unwrap().to_vec();
        let encoders = vec![
            AttributeEncoder::quant_intervals_from(&ages, vec![25.0, 30.0, 35.0], true),
            AttributeEncoder::categorical_from(t.column(AttributeId(1)).as_categorical().unwrap()),
            AttributeEncoder::quant_values_from(&cars, true),
        ];
        EncodedTable::encode(&t, encoders).unwrap()
    }

    fn fig3_config() -> MinerConfig {
        MinerConfig {
            min_support: 0.4,
            min_confidence: 0.5,
            max_support: 1.0,
            partitioning: PartitionSpec::None, // already encoded
            partition_strategy: Default::default(),
            taxonomies: Default::default(),
            interest: None,
            max_itemset_size: 0,
            parallelism: None,
            kernel: Default::default(),
        }
    }

    #[test]
    fn figure_3f_frequent_itemsets() {
        let enc = people_fig3();
        let (frequent, _) = mine(&enc, &fig3_config(), None).unwrap();
        // The paper's sample (Figure 3f):
        // {⟨Age: 30..39⟩} support 2, {⟨Age: 20..29⟩} support 3,
        // {⟨Married: Yes⟩} 3, {⟨Married: No⟩} 2, {⟨NumCars: 0..1⟩} 3,
        // {⟨Age: 30..39⟩, ⟨Married: Yes⟩} 2.
        let sup = |items: Vec<Item>| frequent.support_of(&Itemset::new(items));
        assert_eq!(sup(vec![Item::range(0, 2, 3)]), Some(2)); // Age 30..39
        assert_eq!(sup(vec![Item::range(0, 0, 1)]), Some(3)); // Age 20..29
        assert_eq!(sup(vec![Item::value(1, 1)]), Some(3)); // Married Yes
        assert_eq!(sup(vec![Item::value(1, 0)]), Some(2)); // Married No
        assert_eq!(sup(vec![Item::range(2, 0, 1)]), Some(3)); // NumCars 0..1
        assert_eq!(sup(vec![Item::range(0, 2, 3), Item::value(1, 1)]), Some(2));
        // The headline rule's 3-itemset:
        // {⟨Age: 30..39⟩, ⟨Married: Yes⟩, ⟨NumCars: 2⟩} support 2.
        assert_eq!(
            sup(vec![
                Item::range(0, 2, 3),
                Item::value(1, 1),
                Item::value(2, 2)
            ]),
            Some(2)
        );
    }

    #[test]
    fn all_reported_supports_are_exact() {
        let enc = people_fig3();
        let (frequent, _) = mine(&enc, &fig3_config(), None).unwrap();
        for (itemset, count) in frequent.iter() {
            let recount =
                crate::supercand::count_candidates_naive(&enc, std::slice::from_ref(itemset))[0];
            assert_eq!(*count, recount, "{itemset}");
        }
    }

    #[test]
    fn support_is_anti_monotone_across_levels() {
        let enc = people_fig3();
        let (frequent, _) = mine(&enc, &fig3_config(), None).unwrap();
        for level in frequent.levels.iter().skip(1) {
            for (itemset, count) in level {
                for sub in itemset.subsets_dropping_one() {
                    let sub_count = frequent.support_of(&sub).expect("subset frequent");
                    assert!(sub_count >= *count);
                }
            }
        }
    }

    #[test]
    fn max_itemset_size_caps_levels() {
        let enc = people_fig3();
        let mut cfg = fig3_config();
        cfg.max_itemset_size = 1;
        let (frequent, stats) = mine(&enc, &cfg, None).unwrap();
        assert_eq!(frequent.levels.len(), 1);
        assert!(stats.candidates_per_pass.is_empty());
    }

    #[test]
    fn interest_prune_reduces_items() {
        // With R = 2 items of support > 50% are pruned: ⟨NumCars: 0..2⟩
        // (the full range, support 5) and friends.
        let enc = people_fig3();
        let mut cfg = fig3_config();
        cfg.interest = Some(crate::config::InterestConfig {
            level: 2.0,
            mode: InterestMode::SupportAndConfidence,
            prune_candidates: true,
        });
        let (pruned, stats) = mine(&enc, &cfg, None).unwrap();
        assert!(stats.interest_pruned_items > 0);
        // ⟨Age: 20..29⟩ has support 3/5 = 0.6 > 0.5 -> pruned.
        assert_eq!(
            pruned.support_of(&Itemset::singleton(Item::range(0, 0, 1))),
            None
        );
        // Categorical ⟨Married: Yes⟩ (0.6) stays.
        assert_eq!(
            pruned.support_of(&Itemset::singleton(Item::value(1, 1))),
            Some(3)
        );
    }

    #[test]
    fn counting_backends_agree_end_to_end() {
        let enc = people_fig3();
        let cfg = fig3_config();
        let (a, _) = mine(&enc, &cfg, Some(CounterKind::Array)).unwrap();
        let (r, _) = mine(&enc, &cfg, Some(CounterKind::RTree)).unwrap();
        assert_eq!(a.total(), r.total());
        for (itemset, count) in a.iter() {
            assert_eq!(r.support_of(itemset), Some(*count));
        }
    }

    #[test]
    fn events_cover_every_pass_and_run_lifecycle() {
        let enc = people_fig3();
        let sink = Arc::new(qar_trace::CollectingSink::new());
        let (frequent, stats) = Miner::new(fig3_config())
            .with_progress(sink.clone())
            .frequent_itemsets(&enc)
            .unwrap();
        let events = sink.events();
        assert_eq!(events[0].name(), "run_started");
        assert_eq!(events.last().unwrap().name(), "run_finished");
        let started = events.iter().filter(|e| e.name() == "pass_started").count();
        let finished = events
            .iter()
            .filter(|e| e.name() == "pass_finished")
            .count();
        // One started/finished pair per counting pass (pass 1 + each k).
        assert_eq!(started, 1 + stats.pass_stats.len());
        assert_eq!(started, finished);
        assert!(frequent.total() > 0);
        // Pass-finished events agree with the returned stats.
        for event in &events {
            if let TraceEvent::PassFinished {
                pass,
                candidates,
                super_candidates,
                ..
            } = event
            {
                if *pass >= 2 {
                    assert_eq!(*candidates, stats.candidates_per_pass[pass - 2]);
                    assert_eq!(
                        *super_candidates,
                        stats.pass_stats[pass - 2].super_candidates
                    );
                }
            }
        }
    }
}
