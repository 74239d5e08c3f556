//! Every trace event a real mining run emits must validate against the
//! checked-in JSON schema (`schemas/trace_events.schema.json`) — the
//! contract `qar trace-check` and the CI trace-smoke job enforce — and
//! the `Miner` facade must reuse its encoding cache across runs without
//! changing the output.

use quantrules::core::{Miner, MinerConfig, PartitionSpec};
use quantrules::table::{Schema, Table, Value};
use quantrules::trace::schema::{validate_lines, Schema as TraceSchema};
use quantrules::trace::{CollectingSink, TraceEvent};
use std::sync::Arc;

const SCHEMA_TEXT: &str = include_str!("../schemas/trace_events.schema.json");

fn config() -> MinerConfig {
    MinerConfig {
        min_support: 0.15,
        min_confidence: 0.5,
        max_support: 1.0,
        partitioning: PartitionSpec::FixedIntervals(4),
        partition_strategy: Default::default(),
        taxonomies: Default::default(),
        interest: None,
        max_itemset_size: 0,
        parallelism: None,
        kernel: Default::default(),
    }
}

fn sample_table() -> Table {
    let schema = Schema::builder()
        .quantitative("age")
        .quantitative("income")
        .categorical("married")
        .build()
        .unwrap();
    let mut t = Table::new(schema);
    let labels = ["yes", "no"];
    for i in 0..180 {
        t.push_row(&[
            Value::Int(20 + (i % 40) as i64),
            Value::Int(30 + ((i * 7) % 50) as i64),
            Value::from(labels[i % 2]),
        ])
        .unwrap();
    }
    t
}

#[test]
fn every_emitted_event_validates_against_the_checked_in_schema() {
    let schema: TraceSchema = SCHEMA_TEXT.parse().expect("checked-in schema parses");
    let sink = Arc::new(CollectingSink::new());
    let table = sample_table();
    Miner::new(config())
        .with_progress(sink.clone())
        .mine(&table)
        .expect("mining succeeds");

    let events = sink.events();
    assert!(!events.is_empty(), "a run must emit events");
    let lines: String = events.iter().map(|e| e.to_json() + "\n").collect();
    let counts = match validate_lines(&schema, &lines) {
        Ok(counts) => counts,
        Err((line, err)) => panic!("trace line {line} rejected by schema: {err}"),
    };

    let count_of = |name: &str| {
        counts
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| *c)
            .unwrap_or_else(|| panic!("schema does not know event {name}"))
    };
    assert_eq!(count_of("run_started"), 1);
    assert_eq!(count_of("run_finished"), 1);
    let passes = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::PassStarted { .. }))
        .count();
    assert!(passes >= 2, "workload must reach a counting pass");
    assert_eq!(count_of("pass_started"), passes);
    assert_eq!(count_of("pass_finished"), passes);

    // Every pass_finished must name the kernel that counted it, so
    // benches and `qar trace-check` observe kernel selection directly.
    let kernels: Vec<(usize, String)> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::PassFinished { pass, kernel, .. } => Some((*pass, kernel.clone())),
            _ => None,
        })
        .collect();
    assert_eq!(kernels.len(), passes);
    for (pass, kernel) in &kernels {
        if *pass == 1 {
            // Pass 1 is a plain per-attribute value count.
            assert_eq!(kernel, "direct", "pass 1 kernel");
        } else {
            assert!(
                ["direct", "bitmask", "mixed"].contains(&kernel.as_str()),
                "pass {pass} reported unknown kernel `{kernel}`"
            );
        }
    }
}

#[test]
fn second_run_reuses_the_encoding_and_is_identical() {
    let table = sample_table();
    let mut miner = Miner::new(config());
    let first = miner.mine(&table).expect("first run");
    assert!(!first.stats.encoding_reused);
    let second = miner.mine(&table).expect("second run");
    assert!(
        second.stats.encoding_reused,
        "same table must hit the cache"
    );
    assert_eq!(first.frequent.levels, second.frequent.levels);
    assert_eq!(first.rules.len(), second.rules.len());
    for (a, b) in first.rules.iter().zip(&second.rules) {
        assert_eq!(a.support, b.support);
        assert_eq!(a.confidence.to_bits(), b.confidence.to_bits());
    }
    assert_eq!(
        first.stats.intervals_per_attribute,
        second.stats.intervals_per_attribute
    );
}
