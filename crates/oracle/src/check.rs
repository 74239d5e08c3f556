//! The oracle proper: run a case through every execution path and demand
//! agreement, or check the invariant a primitive promises.
//!
//! A mining case exercises five paths that must produce the same answer:
//!
//! 1. the full miner with `parallelism = 1` (the reference execution),
//! 2. the full miner with `parallelism = threads` (sharded counting),
//! 3. the brute-force [`naive_mine`] enumerator,
//! 4. the boolean [`apriori()`] bridge, cross-checked against an independent
//!    row-index-intersection enumerator over the encoded table,
//! 5. a `.qarcat` save → load → query round trip.
//!
//! Partition, snap, and intervals cases check the contracts of the
//! corresponding primitives directly — those bugs cannot surface as
//! mining-path divergence because every mining path shares the one
//! encoded table.

use crate::case::{IncrementalCase, IntervalsCase, MiningCase, PartitionCase, ReproCase, SnapCase};
use qar_analytics::{chi2_p_value, AnalyticsConfig};
use qar_apriori::apriori;
use qar_apriori::bridge::to_transactions;
use qar_core::naive::naive_mine;
use qar_core::pipeline::build_encoders;
use qar_core::{
    InterestMode, ItemsetSetDelta, Miner, MinerConfig, MinerError, MiningOutput, PartitionStrategy,
    QuantFrequentItemsets, RuleSetDelta, ScanKernel, SupportCounts, UpdateInput,
};
use qar_dist::{mine_distributed, Backing, DistOptions, WorkerOptions, WorkerSpawn};
use qar_itemset::{Item, Itemset};
use qar_partition::range_completeness::snap_to_intervals;
use qar_partition::{num_intervals, EquiDepth, EquiWidth, KMeans1D, Partitioner, MAX_INTERVALS};
use qar_store::{analytics_from_mining, naive_query_range, naive_query_record, Catalog, RuleIndex};
use qar_table::{AttributeId, AttributeKind, EncodedTable, Table};
use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::num::NonZeroUsize;

/// A failed check: which oracle tripped, and enough detail to debug it.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Stable name of the check that failed (e.g. `serial-vs-parallel`).
    pub check: &'static str,
    /// Human-readable explanation of the disagreement.
    pub detail: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.check, self.detail)
    }
}

fn div(check: &'static str, detail: String) -> Divergence {
    Divergence { check, detail }
}

/// Check one case; `Ok(())` means every path and invariant agreed.
pub fn check_case(case: &ReproCase) -> Result<(), Divergence> {
    match case {
        ReproCase::Mining(c) => check_mining(c),
        ReproCase::Partition(c) => check_partition(c),
        ReproCase::Snap(c) => check_snap(c),
        ReproCase::Intervals(c) => check_intervals(c),
        ReproCase::Kernel(c) => check_kernel(c),
        ReproCase::Analytics(c) => check_analytics(c),
        ReproCase::Distributed(c) => check_distributed(c),
        ReproCase::Incremental(c) => check_incremental(c),
    }
}

fn with_parallelism(config: &MinerConfig, threads: usize) -> MinerConfig {
    let mut c = config.clone();
    c.parallelism = NonZeroUsize::new(threads);
    c
}

/// Scan-kernel oracle: the default kernel rule, pinned `Direct` and
/// pinned `Bitmask` must each agree bit-for-bit with the direct serial
/// scan, on one thread (same shard boundaries, different counting loop)
/// and pooled (different shard boundaries too). Generated tables are
/// duplicate-heavy, skew codes to the domain boundaries, or hold enough
/// rectangles per pass to put the rule on the direct side, so the
/// kernel's tail masks, `lo == hi` range rows, block pre-screening and
/// both sides of the rule all execute.
pub fn check_kernel(case: &MiningCase) -> Result<(), Divergence> {
    let reference = {
        let mut cfg = with_parallelism(&case.config, 1);
        cfg.kernel = Some(ScanKernel::Direct);
        Miner::new(cfg).mine(&case.table)
    };
    let parallel = case.threads.max(2);
    for (check, kernel, threads) in [
        ("default-serial-vs-direct", None, 1),
        ("default-parallel-vs-direct", None, parallel),
        (
            "direct-parallel-vs-direct",
            Some(ScanKernel::Direct),
            parallel,
        ),
        ("bitmask-serial-vs-direct", Some(ScanKernel::Bitmask), 1),
        (
            "bitmask-parallel-vs-direct",
            Some(ScanKernel::Bitmask),
            parallel,
        ),
    ] {
        let mut cfg = with_parallelism(&case.config, threads);
        cfg.kernel = kernel;
        compare_paths(check, &reference, &Miner::new(cfg).mine(&case.table))?;
    }
    Ok(())
}

/// Count-distribution oracle: the distributed coordinator over
/// in-process worker threads must reproduce the single-process miner
/// exactly. Workers return raw per-partition `u64` count vectors and the
/// coordinator merges them element-wise, so the cross-check is bitwise,
/// not approximate: same error on rejection, same itemsets, rules, and
/// interest verdicts on success — and the two runs' catalogs must be
/// byte-identical once volatile statistics are normalized.
pub fn check_distributed(case: &MiningCase) -> Result<(), Divergence> {
    let config = with_parallelism(&case.config, 1);
    let serial = Miner::new(config.clone()).mine(&case.table);
    let options = DistOptions {
        workers: case.threads.clamp(2, 4),
        spawn: WorkerSpawn::Threads(WorkerOptions::default()),
        ..DistOptions::default()
    };
    // Steps 1-2 (partitioning, encoding) run on the coordinator with the
    // factored-out builder — the same one the CLI's distributed path uses.
    let distributed = build_encoders(&case.table, &config).and_then(|(encoders, intervals)| {
        let encoded = EncodedTable::encode(&case.table, encoders).map_err(MinerError::from)?;
        let mut out = mine_distributed(Backing::Memory(&encoded), &config, &options, None, None)?;
        out.stats.intervals_per_attribute = intervals;
        Ok(out)
    });
    compare_paths("distributed-vs-serial", &serial, &distributed)?;
    if let (Ok(s), Ok(d)) = (&serial, &distributed) {
        let serial_bytes = normalized_catalog_bytes(s);
        let dist_bytes = normalized_catalog_bytes(d);
        if serial_bytes != dist_bytes {
            return Err(div(
                "distributed-catalog-bytes",
                format!(
                    "normalized catalogs differ: serial {} byte(s), distributed {} byte(s)",
                    serial_bytes.len(),
                    dist_bytes.len()
                ),
            ));
        }
    }
    Ok(())
}

/// The `.qarcat` encoding of a mine with volatile statistics zeroed —
/// the byte-level identity relation serial and distributed runs are held
/// to (what `qar mine --normalize-stats --store` writes).
fn normalized_catalog_bytes(out: &MiningOutput) -> Vec<u8> {
    Catalog::new(
        out.encoded.schema().clone(),
        out.encoded.encoders().to_vec(),
        out.frequent.num_rows,
        out.rules.clone(),
        out.interest.clone(),
        out.stats.normalized(),
    )
    .expect("mining output forms a valid catalog")
    .encode()
}

/// Incremental oracle: split the table at the cut, mine the base with
/// count capture, feed the delta through [`Miner::update`] (base rows
/// retained, so a fallback still completes), and demand the result equal
/// the from-scratch mine of the whole table exactly — same errors, same
/// itemsets/rules/interest, element-wise identical merged counts, and a
/// byte-identical normalized catalog with the `COUNTS` section attached.
pub fn check_incremental(inc: &IncrementalCase) -> Result<(), Divergence> {
    let case = &inc.case;
    let cut = inc.cut.min(case.table.num_rows());
    let mut base = Table::new(case.table.schema().clone());
    let mut delta = Table::new(case.table.schema().clone());
    for row in case.table.rows() {
        let side = if row.index() < cut {
            &mut base
        } else {
            &mut delta
        };
        side.push_row(&row.to_values()).expect("same schema");
    }

    let config = with_parallelism(&case.config, 1);
    let full = Miner::new(config.clone()).mine_with_counts(&case.table);
    let based = Miner::new(config.clone()).mine_with_counts(&base);
    let (base_output, base_counts) = match (based, &full) {
        (Err(b), Err(f)) => {
            // Rejection is configuration-driven; the split must not
            // change the error.
            if b.to_string() != f.to_string() {
                return Err(div(
                    "incremental-error-agreement",
                    format!("base mine error `{b}` != full mine error `{f}`"),
                ));
            }
            return Ok(());
        }
        (Err(b), Ok(_)) => {
            // An empty base legitimately fails data-dependent checks the
            // full table passes (e.g. quantitative encoding needs rows);
            // with no base catalog there is nothing incremental to check.
            if base.num_rows() == 0 {
                return Ok(());
            }
            return Err(div(
                "incremental-error-agreement",
                format!("full mine succeeded but the base mine failed: {b}"),
            ));
        }
        (Ok(_), Err(f)) => {
            return Err(div(
                "incremental-error-agreement",
                format!("base mine succeeded but the full mine failed: {f}"),
            ))
        }
        (Ok(b), Ok(_)) => b,
    };
    let (full_output, full_counts) = full.expect("full mine succeeded above");

    let updated = match Miner::new(config).update(UpdateInput {
        schema: base_output.encoded.schema(),
        encoders: base_output.encoded.encoders(),
        counts: &base_counts,
        delta: &delta,
        base_rows: Some(&base),
    }) {
        Ok(u) => u,
        Err(e) => {
            return Err(div(
                "incremental-update-error",
                format!("update failed where the full mine succeeded: {e}"),
            ))
        }
    };
    if delta.num_rows() == 0 && !updated.incremental {
        return Err(div(
            "incremental-empty-delta",
            format!(
                "an empty delta must stay on the incremental path, fell back: {:?}",
                updated.fallback
            ),
        ));
    }

    let full_res = Ok(full_output);
    let upd_res = Ok(updated.output);
    compare_paths("incremental-vs-full", &full_res, &upd_res)?;
    let (Ok(full_output), Ok(upd_output)) = (full_res, upd_res) else {
        unreachable!("both constructed as Ok")
    };

    if updated.counts != full_counts {
        return Err(div(
            "incremental-counts",
            format!(
                "merged counts differ from the full scan's \
                 (update {} candidate(s) over {} row(s), full {} over {})",
                updated.counts.total_candidates(),
                updated.counts.num_rows,
                full_counts.total_candidates(),
                full_counts.num_rows,
            ),
        ));
    }
    let upd_bytes = counted_catalog_bytes(&upd_output, updated.counts)?;
    let full_bytes = counted_catalog_bytes(&full_output, full_counts)?;
    if upd_bytes != full_bytes {
        return Err(div(
            "incremental-catalog-bytes",
            format!(
                "normalized catalogs (COUNTS included) differ: \
                 update {} byte(s), full {} byte(s)",
                upd_bytes.len(),
                full_bytes.len()
            ),
        ));
    }
    Ok(())
}

/// [`normalized_catalog_bytes`] with the `COUNTS` section attached — the
/// byte-level identity an incremental update is held to.
fn counted_catalog_bytes(out: &MiningOutput, counts: SupportCounts) -> Result<Vec<u8>, Divergence> {
    Catalog::new(
        out.encoded.schema().clone(),
        out.encoded.encoders().to_vec(),
        out.frequent.num_rows,
        out.rules.clone(),
        out.interest.clone(),
        out.stats.normalized(),
    )
    .expect("mining output forms a valid catalog")
    .with_counts(counts)
    .map(|catalog| catalog.encode())
    .map_err(|e| {
        div(
            "incremental-catalog-bytes",
            format!("counts do not attach to their own catalog: {e}"),
        )
    })
}

/// The fixed analytics tuning every analytics case uses, so persisted
/// repros re-check identically: few samples (speed), a fixed seed.
const ANALYTICS_CFG: AnalyticsConfig = AnalyticsConfig {
    shapley_samples: 8,
    seed: 0xA11A,
};

/// Independent restatement of the closed-form measures: same formulas,
/// same operation order as `qar_analytics::Measures::from_facts`, but a
/// second copy the oracle owns — any refactor over there that changes
/// rounding (or a count plumbed wrong anywhere in the pipeline) shows up
/// as a ulp-level divergence here.
struct RefMeasures {
    lift: f64,
    conviction: f64,
    leverage: f64,
    chi2: f64,
    p_value: f64,
    jmeasure: f64,
}

fn ref_jterm(p: f64, q: f64) -> f64 {
    if p == 0.0 {
        0.0
    } else {
        p * (p / q).log2()
    }
}

fn ref_jmeasure(n_rows: u64, count_a: u64, count_c: u64, count_ac: u64) -> f64 {
    if count_a == 0 || n_rows == 0 {
        return 0.0;
    }
    let n = n_rows as f64;
    let pa = count_a as f64 / n;
    let pc = count_c as f64 / n;
    let pca = count_ac as f64 / count_a as f64;
    pa * (ref_jterm(pca, pc) + ref_jterm(1.0 - pca, 1.0 - pc))
}

fn ref_measures(n_rows: u64, count_a: u64, count_c: u64, count_ac: u64) -> RefMeasures {
    let n = n_rows as f64;
    let ca = count_a as f64;
    let cc = count_c as f64;
    let cac = count_ac as f64;
    let lift = if count_a == 0 || count_c == 0 {
        f64::NAN
    } else {
        (cac * n) / (ca * cc)
    };
    let conviction = if count_a == 0 {
        f64::NAN
    } else if count_ac == count_a {
        f64::INFINITY
    } else {
        (1.0 - cc / n) / (1.0 - cac / ca)
    };
    let leverage = if n_rows == 0 {
        f64::NAN
    } else {
        cac / n - (ca / n) * (cc / n)
    };
    let degenerate = count_a == 0 || count_a == n_rows || count_c == 0 || count_c == n_rows;
    let chi2 = if degenerate {
        0.0
    } else {
        let o11 = cac;
        let o12 = ca - cac;
        let o21 = cc - cac;
        let o22 = n - ca - cc + cac;
        let det = o11 * o22 - o12 * o21;
        (n * det * det) / (ca * cc * (n - ca) * (n - cc))
    };
    RefMeasures {
        lift,
        conviction,
        leverage,
        chi2,
        p_value: chi2_p_value(chi2),
        jmeasure: ref_jmeasure(n_rows, count_a, count_c, count_ac),
    }
}

/// Independent Benjamini–Hochberg restatement (same tie-break, same
/// ratio-first operation order).
fn ref_bh(p: &[f64]) -> Vec<f64> {
    let m = p.len();
    let mut order: Vec<usize> = (0..m).collect();
    order.sort_by(|&a, &b| p[a].total_cmp(&p[b]).then(a.cmp(&b)));
    let mut adjusted = vec![0.0; m];
    let mut running = f64::INFINITY;
    for rank in (0..m).rev() {
        let i = order[rank];
        let scaled = p[i] * (m as f64 / (rank + 1) as f64);
        if scaled < running {
            running = scaled;
        }
        adjusted[i] = if running > 1.0 { 1.0 } else { running };
    }
    adjusted
}

/// Exact support count of an itemset by direct row iteration — the
/// independent counting path (the production paths count via
/// frequent-itemset lookups or the store's memoized scan).
fn ref_count(encoded: &EncodedTable, set: &Itemset) -> u64 {
    let mut record: Vec<u32> = vec![0; encoded.schema().len()];
    let mut count = 0;
    for row in 0..encoded.num_rows() {
        for (a, slot) in record.iter_mut().enumerate() {
            *slot = encoded.codes(AttributeId(a))[row];
        }
        if set.supported_by(&record) {
            count += 1;
        }
    }
    count
}

fn ulps_eq(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

/// Analytics oracle: every persisted measure must match the independent
/// contingency-table reference at 0 ulps, the BH adjustment must match
/// the independent restatement and its monotonicity contract, Shapley
/// attributions must be deterministic, efficient, and aligned with the
/// antecedent, and the `ANALYTICS` section must round-trip through the
/// catalog byte-exactly.
pub fn check_analytics(case: &MiningCase) -> Result<(), Divergence> {
    let out = match Miner::new(with_parallelism(&case.config, 1)).mine(&case.table) {
        Ok(out) => out,
        // Rejected configurations have no ruleset to annotate; the
        // error-agreement oracle owns that surface.
        Err(_) => return Ok(()),
    };
    let set = analytics_from_mining(&out, &ANALYTICS_CFG, None);
    if set.rules.len() != out.rules.len() {
        return Err(div(
            "analytics-alignment",
            format!(
                "{} analytics entries for {} rules",
                set.rules.len(),
                out.rules.len()
            ),
        ));
    }

    // Determinism: same mine, same config, bit-identical floats.
    let again = analytics_from_mining(&out, &ANALYTICS_CFG, None);
    if !set.bits_eq(&again) {
        return Err(div(
            "analytics-determinism",
            "two computations over the same mine differ bitwise".to_string(),
        ));
    }

    let n = out.frequent.num_rows;
    let mut ref_p = Vec::with_capacity(out.rules.len());
    for (i, (rule, got)) in out.rules.iter().zip(&set.rules).enumerate() {
        let count_a = ref_count(&out.encoded, &rule.antecedent);
        let count_c = ref_count(&out.encoded, &rule.consequent);
        if got.count_antecedent != count_a || got.count_consequent != count_c {
            return Err(div(
                "analytics-counts",
                format!(
                    "rule {i}: counts ({}, {}) != independent scan ({count_a}, {count_c})",
                    got.count_antecedent, got.count_consequent
                ),
            ));
        }
        let want = ref_measures(n, count_a, count_c, rule.support);
        for (name, got_v, want_v) in [
            ("lift", got.lift, want.lift),
            ("conviction", got.conviction, want.conviction),
            ("leverage", got.leverage, want.leverage),
            ("chi2", got.chi2, want.chi2),
            ("p_value", got.p_value, want.p_value),
            ("jmeasure", got.jmeasure, want.jmeasure),
        ] {
            if !ulps_eq(got_v, want_v) {
                return Err(div(
                    "analytics-measures",
                    format!("rule {i}: {name} {got_v} != reference {want_v} (0 ulps demanded)"),
                ));
            }
        }
        ref_p.push(want.p_value);

        // Shapley structure: one entry per antecedent attribute, in
        // order; the values sum to the J-measure (telescoping exactness
        // up to the sample average's rounding).
        let want_attrs: Vec<u32> = rule.antecedent.items().iter().map(|it| it.attr).collect();
        let got_attrs: Vec<u32> = got.shapley.iter().map(|(a, _)| *a).collect();
        if got_attrs != want_attrs {
            return Err(div(
                "analytics-shapley-attrs",
                format!("rule {i}: attribution over {got_attrs:?}, antecedent is {want_attrs:?}"),
            ));
        }
        let sum: f64 = got.shapley.iter().map(|(_, v)| v).sum();
        if (sum - got.jmeasure).abs() > 1e-9 * got.jmeasure.abs().max(1.0) {
            return Err(div(
                "analytics-shapley-efficiency",
                format!(
                    "rule {i}: attributions sum to {sum}, J-measure is {}",
                    got.jmeasure
                ),
            ));
        }
        if got.shapley.len() == 1 && !ulps_eq(got.shapley[0].1, got.jmeasure) {
            return Err(div(
                "analytics-shapley-single",
                format!(
                    "rule {i}: single-attribute attribution {} != J-measure {}",
                    got.shapley[0].1, got.jmeasure
                ),
            ));
        }
    }

    // BH across the whole ruleset: bit-identical to the restatement, and
    // the order contract (adjusted >= raw, <= 1, monotone in p order).
    let want_adjusted = ref_bh(&ref_p);
    for (i, (got, want)) in set.rules.iter().zip(&want_adjusted).enumerate() {
        if !ulps_eq(got.p_adjusted, *want) {
            return Err(div(
                "analytics-bh",
                format!(
                    "rule {i}: p_adjusted {} != reference {want}",
                    got.p_adjusted
                ),
            ));
        }
        // NaN on either side must flag, so spell the negated >= out.
        if got.p_adjusted.is_nan()
            || got.p_value.is_nan()
            || got.p_adjusted < got.p_value
            || got.p_adjusted > 1.0
        {
            return Err(div(
                "analytics-bh-bounds",
                format!(
                    "rule {i}: p_adjusted {} vs raw {} violates [raw, 1]",
                    got.p_adjusted, got.p_value
                ),
            ));
        }
    }
    let mut order: Vec<usize> = (0..ref_p.len()).collect();
    order.sort_by(|&a, &b| ref_p[a].total_cmp(&ref_p[b]).then(a.cmp(&b)));
    let mut prev = 0.0;
    for &i in &order {
        let adj = set.rules[i].p_adjusted;
        if adj < prev {
            return Err(div(
                "analytics-bh-monotone",
                format!("p_adjusted not monotone in p order at rule {i}: {adj} < {prev}"),
            ));
        }
        prev = adj;
    }

    // The ANALYTICS section round-trips byte-exactly through the catalog.
    let catalog = match Catalog::from_mining(&out).with_analytics(set.clone()) {
        Ok(c) => c,
        Err(e) => {
            return Err(div(
                "analytics-catalog",
                format!("attaching computed analytics failed validation: {e}"),
            ))
        }
    };
    let bytes = catalog.encode();
    let loaded = match Catalog::load_bytes(&bytes, None) {
        Ok(c) => c,
        Err(e) => {
            return Err(div(
                "analytics-catalog",
                format!("decoding a just-encoded analytics catalog failed: {e}"),
            ))
        }
    };
    if loaded.encode() != bytes {
        return Err(div(
            "analytics-catalog",
            "re-encoded analytics catalog differs byte-for-byte".to_string(),
        ));
    }
    match loaded.analytics() {
        Some(decoded) if decoded.bits_eq(&set) => Ok(()),
        Some(_) => Err(div(
            "analytics-catalog",
            "decoded analytics differ bitwise from the computed set".to_string(),
        )),
        None => Err(div(
            "analytics-catalog",
            "ANALYTICS section lost in the round trip".to_string(),
        )),
    }
}

/// Demand two executions of the same case agree: same error, or same
/// frequent itemsets, rules, and interest verdicts.
fn compare_paths(
    check: &'static str,
    reference: &Result<MiningOutput, MinerError>,
    other: &Result<MiningOutput, MinerError>,
) -> Result<(), Divergence> {
    match (reference, other) {
        (Err(a), Err(b)) => {
            if a.to_string() != b.to_string() {
                return Err(div(check, format!("errors differ: `{a}` vs `{b}`")));
            }
            Ok(())
        }
        (Ok(_), Err(b)) => Err(div(
            check,
            format!("reference succeeded but the other path failed: {b}"),
        )),
        (Err(a), Ok(_)) => Err(div(
            check,
            format!("the other path succeeded but the reference failed: {a}"),
        )),
        (Ok(a), Ok(b)) => {
            let itemsets = ItemsetSetDelta::between(&a.frequent, &b.frequent);
            if !itemsets.is_empty() {
                return Err(div(check, itemsets.to_string()));
            }
            let rules = RuleSetDelta::between(&a.rules, &b.rules, 0);
            if !rules.is_empty() {
                return Err(div(check, rules.to_string()));
            }
            if a.interest != b.interest {
                return Err(div(
                    check,
                    format!(
                        "interest verdicts differ: {:?} != {:?}",
                        a.interest, b.interest
                    ),
                ));
            }
            Ok(())
        }
    }
}

/// Run the five mining paths and compare them pairwise.
pub fn check_mining(case: &MiningCase) -> Result<(), Divergence> {
    let serial = Miner::new(with_parallelism(&case.config, 1)).mine(&case.table);
    let parallel =
        Miner::new(with_parallelism(&case.config, case.threads.max(2))).mine(&case.table);
    let out = match (serial, parallel) {
        (Err(s), Err(p)) => {
            // Rejection must not depend on the thread count.
            if s.to_string() != p.to_string() {
                return Err(div(
                    "error-agreement",
                    format!("serial error `{s}` != parallel error `{p}`"),
                ));
            }
            return Ok(());
        }
        (Ok(_), Err(p)) => {
            return Err(div(
                "error-agreement",
                format!("serial succeeded but parallel failed: {p}"),
            ))
        }
        (Err(s), Ok(_)) => {
            return Err(div(
                "error-agreement",
                format!("parallel succeeded but serial failed: {s}"),
            ))
        }
        (Ok(s), Ok(p)) => {
            let itemsets = ItemsetSetDelta::between(&s.frequent, &p.frequent);
            if !itemsets.is_empty() {
                return Err(div("serial-vs-parallel-itemsets", itemsets.to_string()));
            }
            let rules = RuleSetDelta::between(&s.rules, &p.rules, 0);
            if !rules.is_empty() {
                return Err(div("serial-vs-parallel-rules", rules.to_string()));
            }
            if s.interest != p.interest {
                return Err(div(
                    "serial-vs-parallel-interest",
                    format!(
                        "interest verdicts differ: serial {:?} != parallel {:?}",
                        s.interest, p.interest
                    ),
                ));
            }
            s
        }
    };
    check_naive(&out, &case.config)?;
    check_apriori(&out.encoded, &case.config)?;
    check_catalog(&out)
}

fn check_naive(out: &MiningOutput, config: &MinerConfig) -> Result<(), Divergence> {
    let reference = naive_reference(&out.encoded, config);
    let delta = ItemsetSetDelta::between(&reference, &out.frequent);
    if !delta.is_empty() {
        return Err(div("miner-vs-naive", delta.to_string()));
    }
    Ok(())
}

/// Brute-force reference for the miner's frequent itemsets.
///
/// [`naive_mine`] ignores the interest measure, but the miner's Lemma 5
/// prune deletes low-interest *items* after pass 1 — before extension —
/// so every itemset containing a pruned item disappears from the miner's
/// output. Mirror that here: a frequent singleton over a quantitative
/// attribute is pruned exactly when `count × R > rows` (fractional
/// support strictly above `1/R`). Anti-monotonicity guarantees the
/// filtered levels stay downward closed.
fn naive_reference(encoded: &EncodedTable, config: &MinerConfig) -> QuantFrequentItemsets {
    let raw = naive_mine(encoded, config);
    let Some(interest) = config
        .interest
        .as_ref()
        .filter(|i| i.prune_candidates && i.mode == InterestMode::SupportAndConfidence)
    else {
        return raw;
    };
    let rows = raw.num_rows as f64;
    let attrs = encoded.schema().attributes();
    let mut pruned: HashSet<Item> = HashSet::new();
    if let Some(level1) = raw.levels.first() {
        for (set, count) in level1 {
            let item = set.items()[0];
            let quantitative = attrs[item.attr as usize].kind() == AttributeKind::Quantitative;
            if quantitative && *count as f64 * interest.level > rows {
                pruned.insert(item);
            }
        }
    }
    if pruned.is_empty() {
        return raw;
    }
    let mut filtered = QuantFrequentItemsets::new(raw.num_rows);
    for level in &raw.levels {
        let keep: Vec<(Itemset, u64)> = level
            .iter()
            .filter(|(set, _)| set.items().iter().all(|i| !pruned.contains(i)))
            .cloned()
            .collect();
        filtered.push_level(keep);
    }
    filtered
}

/// Cross-check the boolean apriori bridge against an independent
/// enumerator that never goes through transactions at all.
fn check_apriori(encoded: &EncodedTable, config: &MinerConfig) -> Result<(), Divergence> {
    let (db, mapping) = to_transactions(encoded);
    let found = apriori(&db, config.min_support);
    let mut got: BTreeMap<Vec<(u32, u32)>, u64> = BTreeMap::new();
    for level in &found.by_size {
        for itemset in level {
            got.insert(mapping.decode_items(&itemset.items), itemset.support);
        }
    }
    let min_count = ((config.min_support * encoded.num_rows() as f64).ceil() as u64).max(1);
    let all_rows: Vec<usize> = (0..encoded.num_rows()).collect();
    let mut want = BTreeMap::new();
    enumerate_combos(encoded, 0, &all_rows, min_count, &mut Vec::new(), &mut want);
    if got != want {
        let only_want: Vec<_> = want
            .iter()
            .filter(|(k, v)| got.get(*k) != Some(v))
            .take(8)
            .collect();
        let only_got: Vec<_> = got
            .iter()
            .filter(|(k, v)| want.get(*k) != Some(v))
            .take(8)
            .collect();
        return Err(div(
            "apriori-vs-enumeration",
            format!(
                "apriori bridge disagrees with direct enumeration; \
                 enumeration-only (first 8): {only_want:?}; \
                 apriori-only (first 8): {only_got:?}"
            ),
        ));
    }
    Ok(())
}

/// Enumerate every one-code-per-attribute combination whose support count
/// reaches `min_count`, by intersecting row-index lists attribute by
/// attribute. Support anti-monotonicity makes the prefix pruning exact:
/// an infrequent prefix has no frequent extension.
fn enumerate_combos(
    encoded: &EncodedTable,
    attr: usize,
    rows: &[usize],
    min_count: u64,
    prefix: &mut Vec<(u32, u32)>,
    out: &mut BTreeMap<Vec<(u32, u32)>, u64>,
) {
    if attr == encoded.schema().len() {
        return;
    }
    // Either skip this attribute entirely...
    enumerate_combos(encoded, attr + 1, rows, min_count, prefix, out);
    // ...or fix it to each code frequent together with the prefix.
    let codes = encoded.codes(AttributeId(attr));
    let mut by_code: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for &row in rows {
        by_code.entry(codes[row]).or_default().push(row);
    }
    for (code, matching) in by_code {
        if matching.len() as u64 >= min_count {
            prefix.push((attr as u32, code));
            out.insert(prefix.clone(), matching.len() as u64);
            enumerate_combos(encoded, attr + 1, &matching, min_count, prefix, out);
            prefix.pop();
        }
    }
}

/// Save → load → query round trip: the decoded catalog must carry the
/// same content, and the interval index must agree with a linear scan on
/// deterministic probes (deterministic so persisted repros re-check
/// identically).
fn check_catalog(out: &MiningOutput) -> Result<(), Divergence> {
    let catalog = Catalog::from_mining(out);
    let bytes = catalog.encode();
    let loaded = match Catalog::load_bytes(&bytes, None) {
        Ok(c) => c,
        Err(e) => {
            return Err(div(
                "catalog-round-trip",
                format!("decoding a just-encoded catalog failed: {e}"),
            ))
        }
    };
    // NaN confidences make a catalog unequal even to itself, exactly like
    // `f64` comparison; content equality is only decidable without them.
    let has_nan = catalog.rules().iter().any(|r| r.confidence.is_nan());
    if !has_nan && !loaded.content_eq(&catalog) {
        let delta = RuleSetDelta::between(catalog.rules(), loaded.rules(), 0);
        return Err(div(
            "catalog-round-trip",
            format!("decoded catalog differs in content; rule delta: {delta}"),
        ));
    }

    let index = RuleIndex::build(&loaded, None);
    let schema = out.encoded.schema();
    // Record probes: the first few rows of the table itself.
    for row in 0..out.encoded.num_rows().min(3) {
        let record: Vec<(u32, u32)> = (0..schema.len())
            .map(|a| (a as u32, out.encoded.codes(AttributeId(a))[row]))
            .collect();
        let got = sorted_dedup(index.query_record(&record));
        let want = sorted_dedup(naive_query_record(&loaded, &record));
        if got != want {
            return Err(div(
                "index-vs-scan-record",
                format!("record {record:?}: index {got:?} != linear scan {want:?}"),
            ));
        }
    }
    // Range probes: full span and both halves of every quantitative
    // attribute's encoded domain.
    for (id, def) in schema.iter() {
        if def.kind() != AttributeKind::Quantitative {
            continue;
        }
        let encoder = out.encoded.encoder(id);
        let card = encoder.cardinality();
        if card == 0 {
            continue;
        }
        let Some((lo, hi)) = encoder.numeric_bounds(0, card - 1) else {
            continue;
        };
        let mid = lo + (hi - lo) / 2.0;
        for (a, b) in [(lo, hi), (lo, mid), (mid, hi)] {
            let got = sorted_dedup(index.query_range(id.index() as u32, a, b));
            let want = sorted_dedup(naive_query_range(&loaded, id.index() as u32, a, b));
            if got != want {
                return Err(div(
                    "index-vs-scan-range",
                    format!(
                        "attribute `{}` range [{a}, {b}]: index {got:?} != linear scan {want:?}",
                        def.name()
                    ),
                ));
            }
        }
    }
    Ok(())
}

fn sorted_dedup(mut ids: Vec<u32>) -> Vec<u32> {
    ids.sort_unstable();
    ids.dedup();
    ids
}

fn cut_points_for(case: &PartitionCase) -> Vec<f64> {
    match case.strategy {
        PartitionStrategy::EquiDepth => EquiDepth.cut_points(&case.values, case.k),
        PartitionStrategy::EquiWidth => EquiWidth.cut_points(&case.values, case.k),
        PartitionStrategy::KMeans => KMeans1D::default().cut_points(&case.values, case.k),
    }
}

/// Partitioner contract: deterministic, strictly increasing cuts, at most
/// `k` intervals, cuts inside the data range, and — for the data-driven
/// strategies — no empty interval. (Equi-width legitimately produces
/// empty intervals on skewed data; that weakness is the paper's point.)
pub fn check_partition(case: &PartitionCase) -> Result<(), Divergence> {
    let cuts = cut_points_for(case);
    if cuts != cut_points_for(case) {
        return Err(div(
            "partition-determinism",
            format!(
                "two runs disagreed on {} values, k={}",
                case.values.len(),
                case.k
            ),
        ));
    }
    if cuts.len() + 1 > case.k.max(1) {
        return Err(div(
            "partition-count",
            format!("{} cuts for k={} (at most k-1 allowed)", cuts.len(), case.k),
        ));
    }
    // partial_cmp so a NaN cut (never `Less`) also registers as a failure.
    let strictly_less = |a: f64, b: f64| a.partial_cmp(&b) == Some(std::cmp::Ordering::Less);
    if let Some(w) = cuts.windows(2).find(|w| !strictly_less(w[0], w[1])) {
        return Err(div(
            "partition-order",
            format!("cuts not strictly increasing: {} then {}", w[0], w[1]),
        ));
    }
    let min = case.values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = case
        .values
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    if let Some(&c) = cuts.iter().find(|&&c| !(c > min && c <= max)) {
        return Err(div(
            "partition-bounds",
            format!("cut {c} outside data range ({min}, {max}]"),
        ));
    }
    if case.strategy != PartitionStrategy::EquiWidth && !cuts.is_empty() {
        // Membership convention: value v lands in interval
        // `cuts.partition_point(|&c| c <= v)`.
        let mut counts = vec![0usize; cuts.len() + 1];
        for &v in &case.values {
            counts[cuts.partition_point(|&c| c <= v)] += 1;
        }
        if let Some(i) = counts.iter().position(|&c| c == 0) {
            return Err(div(
                "partition-empty-interval",
                format!(
                    "{:?} left interval {i} of {} empty (cuts {cuts:?})",
                    case.strategy,
                    counts.len()
                ),
            ));
        }
    }
    Ok(())
}

/// Snapping contract: the snapped range contains the input, has positive
/// width, stays finite — and when both endpoints sit bit-exactly on the
/// interval grid (and the range is non-degenerate), snapping must be the
/// identity: any widening there is a spurious interval.
pub fn check_snap(case: &SnapCase) -> Result<(), Divergence> {
    let &SnapCase { lo, hi, origin, w } = case;
    let (s_lo, s_hi) = snap_to_intervals(lo, hi, origin, w);
    if !s_lo.is_finite() || !s_hi.is_finite() {
        return Err(div(
            "snap-finite",
            format!("snap({lo}, {hi}) produced non-finite ({s_lo}, {s_hi})"),
        ));
    }
    if s_lo > lo || s_hi < hi {
        return Err(div(
            "snap-containment",
            format!("snapped ({s_lo}, {s_hi}) does not contain input ({lo}, {hi})"),
        ));
    }
    // Both ends are finite by now, so `<=` is the exact negation.
    if s_hi <= s_lo {
        return Err(div(
            "snap-zero-width",
            format!("snapped range ({s_lo}, {s_hi}) has no width"),
        ));
    }
    // Bit-exact grid case: float rounding is out of the picture, so the
    // necessity argument is exact and we can demand identity.
    let r_lo = ((lo - origin) / w).round();
    let r_hi = ((hi - origin) / w).round();
    if hi > lo && origin + r_lo * w == lo && origin + r_hi * w == hi && (s_lo, s_hi) != (lo, hi) {
        return Err(div(
            "snap-spurious-interval",
            format!(
                "({lo}, {hi}) lies exactly on the grid (origin {origin}, width {w}) \
                 but snapped to ({s_lo}, {s_hi})"
            ),
        ));
    }
    Ok(())
}

/// Equation-2 contract: `Ok(n)` must be the true ceiling of the raw count
/// for valid inputs and never exceed [`MAX_INTERVALS`]; `Err` must be
/// justified by an actually-invalid input or an overflowing count.
pub fn check_intervals(case: &IntervalsCase) -> Result<(), Divergence> {
    let &IntervalsCase {
        num_quantitative,
        minsup,
        level,
    } = case;
    let raw = 2.0 * num_quantitative as f64 / (minsup * (level - 1.0));
    let valid_params = level > 1.0 && minsup > 0.0 && minsup <= 1.0;
    match num_intervals(num_quantitative, minsup, level) {
        Ok(n) => {
            if !valid_params {
                return Err(div(
                    "intervals-accepts-invalid",
                    format!("num_intervals({num_quantitative}, {minsup}, {level}) = Ok({n})"),
                ));
            }
            if n > MAX_INTERVALS {
                return Err(div(
                    "intervals-overflow",
                    format!("Ok({n}) exceeds MAX_INTERVALS = {MAX_INTERVALS}"),
                ));
            }
            if !raw.is_finite() || n as f64 != raw.ceil() {
                return Err(div(
                    "intervals-count",
                    format!("Ok({n}) but the raw Equation-2 count is {raw}"),
                ));
            }
        }
        Err(e) => {
            let justified = !valid_params || !raw.is_finite() || raw > MAX_INTERVALS as f64;
            if justified {
                return Ok(());
            }
            return Err(div(
                "intervals-rejects-valid",
                format!("num_intervals({num_quantitative}, {minsup}, {level}) = Err({e})"),
            ));
        }
    }
    Ok(())
}
