//! `WorkerPool::global()` is a process-wide singleton: the free counting
//! entry points (`ScanOptions.pool == None`) all share it, across calls
//! and across `Miner` instances, and it never respawns. These paths were
//! previously only exercised indirectly through full mining runs.

use qar_core::supercand::{count_candidates_opts, ScanOptions};
use qar_core::{Miner, MinerConfig, PartitionSpec, WorkerPool};
use qar_itemset::{Item, Itemset};
use qar_table::{EncodedTable, Schema, Table, Value};
use std::num::NonZeroUsize;

fn people(rows: usize) -> Table {
    let schema = Schema::builder()
        .quantitative("age")
        .categorical("married")
        .quantitative("num_cars")
        .build()
        .unwrap();
    let mut t = Table::new(schema);
    let labels = ["Yes", "No"];
    for i in 0..rows {
        t.push_row(&[
            Value::Int(20 + (i % 30) as i64),
            Value::from(labels[i % 2]),
            Value::Int((i % 3) as i64),
        ])
        .unwrap();
    }
    t
}

fn candidates() -> Vec<Itemset> {
    vec![
        vec![Item::range(0, 3, 8), Item::value(1, 0)]
            .into_iter()
            .collect(),
        vec![Item::range(0, 0, 14), Item::value(2, 2)]
            .into_iter()
            .collect(),
        vec![Item::value(1, 1), Item::value(2, 1)]
            .into_iter()
            .collect(),
    ]
}

fn config(threads: usize) -> MinerConfig {
    MinerConfig {
        min_support: 0.1,
        min_confidence: 0.5,
        max_support: 1.0,
        partitioning: PartitionSpec::FixedIntervals(5),
        partition_strategy: Default::default(),
        taxonomies: Default::default(),
        interest: None,
        max_itemset_size: 0,
        parallelism: NonZeroUsize::new(threads),
        kernel: Default::default(),
    }
}

/// Sharded counting with no explicit pool routes through
/// `WorkerPool::global()`; interleaving those scans with runs of two
/// distinct `Miner` instances (each owning a private pool) must leave the
/// global pool untouched — same instance, same worker count — and every
/// counting result bit-identical to the serial reference.
#[test]
fn global_pool_survives_unchanged_across_miners_and_free_scans() {
    let global = WorkerPool::global();
    let workers_before = global.workers();

    let table = people(400);
    let encoded = EncodedTable::encode_full_resolution(&table).unwrap();
    let cands = candidates();
    let (serial_counts, serial_stats) =
        count_candidates_opts(&encoded, &cands, None, ScanOptions::new(1)).unwrap();
    assert!(!serial_stats.pooled, "one thread scans inline");

    // Two independent Miner instances, each with its own pool.
    let first = Miner::new(config(2)).mine(&table).expect("first miner");
    // A global-pool scan between the two miners.
    let (mid_counts, mid_stats) =
        count_candidates_opts(&encoded, &cands, None, ScanOptions::new(4)).unwrap();
    assert!(mid_stats.pooled, "four shards go through the pool");
    assert_eq!(mid_counts, serial_counts);
    let second = Miner::new(config(3)).mine(&table).expect("second miner");

    assert_eq!(first.rules.len(), second.rules.len());
    for (a, b) in first.rules.iter().zip(&second.rules) {
        assert_eq!(a.support, b.support);
        assert_eq!(a.confidence.to_bits(), b.confidence.to_bits());
    }

    // And once more after both miners (and their pools) are gone.
    drop((first, second));
    let (after_counts, _) =
        count_candidates_opts(&encoded, &cands, None, ScanOptions::new(4)).unwrap();
    assert_eq!(after_counts, serial_counts);

    let global_after = WorkerPool::global();
    assert!(
        std::ptr::eq(global, global_after),
        "global() is the same instance for the life of the process"
    );
    assert_eq!(global_after.workers(), workers_before);
}

/// One `Miner` reuses its own pool across repeated runs (the pool is
/// lazily created on the first parallel pass and kept), and the results
/// stay identical run over run.
#[test]
fn one_miner_reuses_its_pool_across_runs() {
    let table = people(400);
    let mut miner = Miner::new(config(2));
    let first = miner.mine(&table).expect("first run");
    let second = miner.mine(&table).expect("second run");
    assert!(second.stats.encoding_reused, "same table hits the cache");
    assert_eq!(first.rules.len(), second.rules.len());
    for (a, b) in first.rules.iter().zip(&second.rules) {
        assert_eq!(a.support, b.support);
        assert_eq!(a.confidence.to_bits(), b.confidence.to_bits());
    }
}
