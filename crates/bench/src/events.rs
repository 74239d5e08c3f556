//! Aggregating trace events into the totals the benchmarks report.
//!
//! The benches attach a [`qar_trace::CollectingSink`] to the miner and
//! fold the emitted [`TraceEvent`] stream with [`pass_totals`] — the same
//! event stream the CLI's `--trace` flag exposes, so the harness has no
//! private timing channel into the miner.

use qar_trace::TraceEvent;
use std::time::Duration;

/// Totals over the counting passes (`pass_finished` events with
/// `pass >= 2`; pass 1 is the per-attribute item scan and has no shard
/// structure).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PassTotals {
    /// Number of counting passes observed.
    pub passes: usize,
    /// Candidates counted across all passes.
    pub candidates: usize,
    /// Frequent itemsets found across all passes.
    pub frequent: usize,
    /// Summed record-scan wall-clock (elapsed time of each pass's whole
    /// fan-out/join region).
    pub scan_wall: Duration,
    /// Summed per-shard busy time; `busy / scan_wall` is the effective
    /// parallel speedup of the scans.
    pub shard_busy: Duration,
    /// Summed counter-merge time.
    pub merge: Duration,
    /// Largest single-pass peak counter estimate, in bytes.
    pub peak_counter_bytes: usize,
}

/// Fold a run's event stream into per-pass totals.
pub fn pass_totals(events: &[TraceEvent]) -> PassTotals {
    let mut totals = PassTotals::default();
    for event in events {
        if let TraceEvent::PassFinished {
            pass,
            candidates,
            frequent,
            counter_bytes,
            scan_us,
            merge_us,
            shard_scan_us,
            ..
        } = event
        {
            if *pass < 2 {
                continue;
            }
            totals.passes += 1;
            totals.candidates += candidates;
            totals.frequent += frequent;
            totals.scan_wall += Duration::from_micros(*scan_us);
            totals.shard_busy += shard_scan_us
                .iter()
                .map(|&us| Duration::from_micros(us))
                .sum();
            totals.merge += Duration::from_micros(*merge_us);
            totals.peak_counter_bytes = totals.peak_counter_bytes.max(*counter_bytes);
        }
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finished(pass: usize, scan_us: u64, shards: Vec<u64>) -> TraceEvent {
        TraceEvent::PassFinished {
            pass,
            candidates: 10,
            frequent: 4,
            pruned: 0,
            super_candidates: 3,
            array_backed: 2,
            rtree_backed: 1,
            hash_tree_nodes: 5,
            counter_bytes: 1000 * pass,
            scan_us,
            merge_us: 7,
            shard_scan_us: shards,
            pooled: true,
            kernel: "direct".to_string(),
        }
    }

    #[test]
    fn totals_skip_pass_one_and_sum_the_rest() {
        let events = vec![
            TraceEvent::RunStarted {
                rows: 100,
                attributes: 3,
                min_count: 10,
                max_count: 40,
                parallelism: 2,
            },
            finished(1, 999, vec![]),
            finished(2, 100, vec![60, 55]),
            finished(3, 50, vec![30, 28]),
            TraceEvent::RunFinished {
                passes: 3,
                frequent_total: 8,
                elapsed_us: 400,
            },
        ];
        let totals = pass_totals(&events);
        assert_eq!(totals.passes, 2);
        assert_eq!(totals.candidates, 20);
        assert_eq!(totals.frequent, 8);
        assert_eq!(totals.scan_wall, Duration::from_micros(150));
        assert_eq!(totals.shard_busy, Duration::from_micros(173));
        assert_eq!(totals.merge, Duration::from_micros(14));
        assert_eq!(totals.peak_counter_bytes, 3000);
    }

    #[test]
    fn empty_stream_is_all_zero() {
        assert_eq!(pass_totals(&[]), PassTotals::default());
    }
}
