//! The traced form of the mining calls and the per-layer metrics read
//! from the statistics the library already returns.
//!
//! Traced runs replace one `Miner` call by the public calls it is built
//! from, each inside its own span, so time lands on the layer that spent
//! it. The untraced runs check that both forms give identical results.

use std::collections::BTreeMap;

use qar_core::pipeline::{build_encoders, validate_partitioning};
use qar_core::source::mine_source_captured;
use qar_core::{
    InMemorySource, MinerConfig, MinerError, MiningOutput, QuantFrequentItemsets, SupportCounts,
};
use qar_table::{EncodedTable, Table};

use crate::common::{median, Report};
use crate::trace::{self, Tracer};

type BoxError = Box<dyn std::error::Error>;

/// The checks every `Miner` mining call makes before its first layer
/// (configuration and schema-level partitioning), in a `core.other`
/// span. The table fingerprint that follows them in the library is
/// private, so no traced form can time it: it lands in
/// `trace.residual_s`.
pub fn validate_traced(
    tracer: &Tracer,
    table: &Table,
    config: &MinerConfig,
) -> Result<(), MinerError> {
    tracer.span("core.other", || {
        config.validate()?;
        validate_partitioning(table.schema(), config)
    })
}

/// Traced `Miner::mine_with_counts`: validation, partition, encode, then
/// the count-distribution driver over an in-memory source with capture.
pub fn mine_with_counts_traced(
    tracer: &Tracer,
    table: &Table,
    config: &MinerConfig,
) -> Result<(MiningOutput, SupportCounts), MinerError> {
    validate_traced(tracer, table, config)?;
    let (encoders, intervals) =
        tracer.span("partition.build_encoders", || build_encoders(table, config))?;
    let encoded = tracer.span("table.encode", || EncodedTable::encode(table, encoders))?;
    tracer.span("core.count", || {
        let mut source = InMemorySource::new(&encoded, config);
        let (mut output, captured) = mine_source_captured(&mut source, config, None, None)?;
        output.stats.intervals_per_attribute = intervals.clone();
        let counts = SupportCounts::assemble(
            encoded.schema(),
            encoded.encoders(),
            table.num_rows() as u64,
            config,
            intervals,
            captured,
        );
        Ok((output, counts))
    })
}

/// Every per-layer metric name a traced run reports, with its unit.
/// Layers a workload does not run report 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("table.ingest_s", "s"),
    ("table.encode_s", "s"),
    ("partition.build_encoders_s", "s"),
    ("partition.intervals", "count"),
    ("core.count_s", "s"),
    ("core.gen_s", "s"),
    ("core.rules_s", "s"),
    ("core.interest_s", "s"),
    ("core.other_s", "s"),
    ("core.pass1.candidates", "count"),
    ("core.pass1.frequent", "count"),
    ("core.pass1.yield", "ratio"),
    ("core.pass1.scan_s", "s"),
    ("core.pass1.counter_bytes", "bytes"),
    ("core.pass2.candidates", "count"),
    ("core.pass2.frequent", "count"),
    ("core.pass2.yield", "ratio"),
    ("core.pass2.scan_s", "s"),
    ("core.pass2.counter_bytes", "bytes"),
    ("core.pass3.candidates", "count"),
    ("core.pass3.frequent", "count"),
    ("core.pass3.yield", "ratio"),
    ("core.pass3.scan_s", "s"),
    ("core.pass3.counter_bytes", "bytes"),
    ("core.update_s", "s"),
    ("core.update.fallbacks", "count"),
    ("store.catalog_s", "s"),
    ("store.encode_s", "s"),
    ("store.write_s", "s"),
    ("store.counts_bytes", "bytes"),
    ("store.rules_bytes", "bytes"),
    ("store.load_s", "s"),
    ("store.index_build_s", "s"),
    ("store.query_us", "us"),
    ("serve.reload_s", "s"),
    ("serve.queries_per_s", "1/s"),
    ("serve.query_p50_us", "us"),
    ("serve.query_p99_us", "us"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.residual_s", "s"),
];

/// Per-layer values gathered by a traced run, reported in
/// [`LAYER_METRICS`] order.
#[derive(Default)]
pub struct LayerValues {
    values: BTreeMap<&'static str, f64>,
    /// Scan plus merge time of each traced mine, by run id; subtracted
    /// from the same run's `core.count` self time to give `core.gen_s`.
    scan_merge_s: BTreeMap<u64, f64>,
}

impl LayerValues {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            LAYER_METRICS.iter().any(|&(n, _)| n == name),
            "unknown layer metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Copy span self times (span `x.y` becomes metric `x.y_s`, the
    /// median over runs), derive `core.gen_s` run by run, and report
    /// every metric.
    pub fn finish(&mut self, tracer: &Tracer, report: &mut Report) {
        let per_run = tracer.self_times_per_run();
        for (span, runs) in &per_run {
            if let Some(&(name, _)) = LAYER_METRICS
                .iter()
                .find(|&&(n, _)| n.strip_suffix("_s") == Some(*span))
            {
                self.values
                    .insert(name, median(&runs.values().copied().collect::<Vec<_>>()));
            }
        }
        let gen: Vec<f64> = per_run
            .get("core.count")
            .into_iter()
            .flatten()
            .filter_map(|(run, count)| {
                let scan_merge = self.scan_merge_s.get(run)?;
                Some((count - scan_merge).max(0.0))
            })
            .collect();
        if !gen.is_empty() {
            self.set("core.gen_s", median(&gen));
        }
        for &(name, unit) in LAYER_METRICS {
            report.push(name, self.get(name), unit);
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Pass counts and scan times from the returned statistics of the
    /// traced mine of the current run.
    pub fn set_passes(
        &mut self,
        stats: &qar_core::MiningStats,
        frequent: &QuantFrequentItemsets,
        encoded: &EncodedTable,
    ) {
        const NAMES: [[&str; 5]; 3] = [
            [
                "core.pass1.candidates",
                "core.pass1.frequent",
                "core.pass1.yield",
                "core.pass1.scan_s",
                "core.pass1.counter_bytes",
            ],
            [
                "core.pass2.candidates",
                "core.pass2.frequent",
                "core.pass2.yield",
                "core.pass2.scan_s",
                "core.pass2.counter_bytes",
            ],
            [
                "core.pass3.candidates",
                "core.pass3.frequent",
                "core.pass3.yield",
                "core.pass3.scan_s",
                "core.pass3.counter_bytes",
            ],
        ];
        let mine = &stats.mine;
        // Pass 1 counts every value of every attribute. `MineStats` has
        // no counter size for it, so its counter bytes read 0.
        let values: usize = encoded
            .encoders()
            .iter()
            .map(|e| e.cardinality() as usize)
            .sum();
        let level = |k: usize| frequent.levels.get(k).map_or(0, Vec::len);
        let mut passes = vec![(values, level(0), mine.pass1_scan_time, 0)];
        for (k, (&candidates, pass)) in mine
            .candidates_per_pass
            .iter()
            .zip(&mine.pass_stats)
            .enumerate()
        {
            passes.push((candidates, level(k + 1), pass.scan_time, pass.counter_bytes));
        }
        for (names, &(candidates, found, scan, bytes)) in NAMES.iter().zip(&passes) {
            self.set(names[0], candidates as f64);
            self.set(names[1], found as f64);
            self.set(
                names[2],
                if candidates == 0 {
                    0.0
                } else {
                    found as f64 / candidates as f64
                },
            );
            self.set(names[3], scan.as_secs_f64());
            self.set(names[4], bytes as f64);
        }
        let intervals: usize = stats.intervals_per_attribute.iter().flatten().sum();
        self.set("partition.intervals", intervals as f64);
        let merge: f64 = mine
            .pass_stats
            .iter()
            .map(|p| p.merge_time.as_secs_f64())
            .sum();
        self.scan_merge_s.insert(
            trace::current_run(),
            mine.total_scan_time().as_secs_f64() + merge,
        );
    }
}

/// Kernel names per pass, for the human-readable log.
pub fn kernels(stats: &qar_core::MiningStats) -> String {
    let names: Vec<String> = stats
        .mine
        .pass_stats
        .iter()
        .enumerate()
        .map(|(k, p)| format!("pass{}={:?}", k + 2, p.kernel))
        .collect();
    names.join(" ")
}

/// Section sizes of an encoded catalog from its framing.
pub fn section_bytes(bytes: &[u8]) -> Result<(u64, u64), BoxError> {
    let sections = qar_store::section_inventory(bytes)?;
    let size = |name: &str| {
        sections
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.len)
            .sum::<u64>()
    };
    Ok((size("counts"), size("rules")))
}
