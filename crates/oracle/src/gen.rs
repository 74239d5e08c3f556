//! Case generation, skewed toward the edge regions where boundary bugs
//! live: duplicate-heavy columns, adjacent-float values, minsup on exact
//! `k/n` grid points or near 0/1, completeness levels just above 1,
//! empty and single-row tables.

use crate::case::{IncrementalCase, IntervalsCase, MiningCase, PartitionCase, ReproCase, SnapCase};
use qar_core::{InterestConfig, InterestMode, MinerConfig, PartitionSpec, PartitionStrategy};
use qar_prng::Prng;
use qar_table::{Schema, Table, Value};

/// Draw one case. The mix favors end-to-end mining cases; the rest stress
/// the partitioning and completeness primitives directly.
pub fn gen_case(rng: &mut Prng) -> ReproCase {
    match rng.gen_weighted(&[5.0, 2.0, 1.0, 1.0, 4.0, 2.0, 2.0, 2.0]) {
        0 => ReproCase::Mining(gen_mining(rng)),
        1 => ReproCase::Partition(gen_partition(rng)),
        2 => ReproCase::Snap(gen_snap(rng)),
        3 => ReproCase::Intervals(gen_intervals(rng)),
        4 => ReproCase::Kernel(gen_kernel(rng)),
        5 => ReproCase::Analytics(gen_analytics(rng)),
        6 => ReproCase::Distributed(gen_distributed(rng)),
        _ => ReproCase::Incremental(gen_incremental(rng)),
    }
}

/// An incremental case: an ordinary mining case split at a cut point,
/// with the edges over-weighted — an empty base (the whole table is
/// delta), an empty delta, and a base much smaller than its delta — on
/// top of a uniform draw over every split.
fn gen_incremental(rng: &mut Prng) -> IncrementalCase {
    let case = gen_mining(rng);
    let rows = case.table.num_rows();
    let cut = match rng.gen_weighted(&[1.0, 2.0, 2.0, 5.0]) {
        0 => 0,
        1 => rows,
        2 => rows / 4,
        _ => rng.gen_range(0..rows + 1),
    };
    IncrementalCase { case, cut }
}

/// A distributed case: an ordinary mining case, unchanged — the edge
/// draws the base generator keeps making (empty tables, single rows,
/// row counts below the worker count) are exactly what the partition
/// split and empty-partition handling must survive. The case's thread
/// count doubles as the worker count.
fn gen_distributed(rng: &mut Prng) -> MiningCase {
    gen_mining(rng)
}

/// An analytics case: an ordinary mining case with the thresholds biased
/// toward actually producing rules (empty rulesets stay covered by the
/// edge draws the base generator keeps making), since the analytics
/// checks are per rule.
fn gen_analytics(rng: &mut Prng) -> MiningCase {
    let mut case = gen_mining(rng);
    if case.config.min_support > 0.3 && rng.gen_bool(0.8) {
        case.config.min_support = 0.25;
    }
    if case.config.min_confidence > 0.6 && rng.gen_bool(0.8) {
        case.config.min_confidence = 0.5;
    }
    case
}

/// A quantitative column of length `len`, drawn from one of the edge
/// styles. Values are always finite.
fn gen_quant_column(rng: &mut Prng, len: usize) -> Vec<f64> {
    match rng.gen_weighted(&[3.0, 3.0, 2.0, 2.0, 1.0, 1.0]) {
        // Small integer domain: heavy natural duplication.
        0 => (0..len).map(|_| rng.gen_range(0i64..6) as f64).collect(),
        // Zipf-weighted duplicates over a handful of values.
        1 => {
            let distinct = rng.gen_range(2..7);
            rng.gen_duplicate_heavy(len, distinct)
        }
        // Values a few ulps apart: midpoint-rounding territory.
        2 => {
            let base = *rng.choose(&[1.0, 3.5, 1.0e9]).expect("non-empty");
            let radius = rng.gen_range(1..5);
            rng.gen_ulp_neighborhood(len, base, radius)
        }
        // Clustered with near-duplicates inside clusters.
        3 => {
            let clusters = rng.gen_range(2..5);
            rng.gen_clustered(len, clusters, 0.5)
        }
        // Constant column (one distinct value).
        4 => vec![rng.gen_range(-3i64..4) as f64; len],
        // Exact multiples of a decimal step: grid-boundary values.
        _ => {
            let step = *rng.choose(&[0.07, 0.1, 0.25]).expect("non-empty");
            (0..len)
                .map(|_| rng.gen_range(0i64..12) as f64 * step)
                .collect()
        }
    }
}

/// An end-to-end mining case: small enough for the brute-force references,
/// adversarial enough to hit rounding and tie boundaries.
fn gen_mining(rng: &mut Prng) -> MiningCase {
    let num_rows = match rng.gen_weighted(&[1.0, 1.0, 4.0, 6.0]) {
        0 => 0,
        1 => 1,
        2 => rng.gen_range(2..8),
        _ => rng.gen_range(8..41),
    };
    let num_attrs = rng.gen_range(1..4usize);
    let kinds: Vec<bool> = (0..num_attrs).map(|_| rng.gen_bool(0.7)).collect();
    let mut builder = Schema::builder();
    for (i, &quant) in kinds.iter().enumerate() {
        let name = format!("a{i}");
        builder = if quant {
            builder.quantitative(name)
        } else {
            builder.categorical(name)
        };
    }
    let schema = builder.build().expect("generated names are valid");

    let labels = ["a", "b", "c", "d"];
    let columns: Vec<Vec<Value>> = kinds
        .iter()
        .map(|&quant| {
            if quant {
                gen_quant_column(rng, num_rows)
                    .into_iter()
                    .map(Value::Float)
                    .collect()
            } else {
                let distinct = rng.gen_range(1..labels.len() + 1);
                (0..num_rows)
                    .map(|_| Value::from(labels[rng.gen_zipf(distinct, 1.0)]))
                    .collect()
            }
        })
        .collect();
    let mut table = Table::new(schema);
    for row in 0..num_rows {
        let cells: Vec<Value> = columns.iter().map(|c| c[row].clone()).collect();
        table.push_row(&cells).expect("cells match schema");
    }

    let denom = num_rows.max(1) as u64;
    let min_support = rng.gen_edge_fraction(denom);
    let min_confidence = match rng.gen_weighted(&[1.0, 1.0, 3.0]) {
        0 => 0.0,
        1 => 1.0,
        _ => rng.gen_edge_fraction(denom),
    };
    let max_support = if rng.gen_bool(0.5) {
        1.0
    } else {
        rng.gen_edge_fraction(denom).max(min_support)
    };
    let partitioning = match rng.gen_weighted(&[4.0, 4.0, 2.0]) {
        0 => PartitionSpec::None,
        1 => {
            let level = *rng
                .choose(&[1.0 + 1.0e-9, 1.1, 1.5, 2.0, 3.0])
                .expect("non-empty");
            PartitionSpec::CompletenessLevel(level)
        }
        _ => PartitionSpec::FixedIntervals(rng.gen_range(1..7)),
    };
    let partition_strategy = *rng
        .choose(&[
            PartitionStrategy::EquiDepth,
            PartitionStrategy::EquiWidth,
            PartitionStrategy::KMeans,
        ])
        .expect("non-empty");
    let interest = if rng.gen_bool(0.5) {
        None
    } else {
        // Sometimes aim R exactly at rows/s so an item's support can sit
        // precisely on the Lemma-5 `1/R` boundary.
        let level = if num_rows >= 2 && rng.gen_bool(0.4) {
            let s = rng.gen_range(1..num_rows as u64);
            let exact = num_rows as f64 / s as f64;
            if exact > 1.0 {
                exact
            } else {
                2.0
            }
        } else {
            *rng.choose(&[1.5, 2.0, 3.0]).expect("non-empty")
        };
        let mode = if rng.gen_bool(0.5) {
            InterestMode::SupportAndConfidence
        } else {
            InterestMode::SupportOrConfidence
        };
        Some(InterestConfig {
            level,
            mode,
            prune_candidates: rng.gen_bool(0.7),
        })
    };
    let config = MinerConfig {
        min_support,
        min_confidence,
        max_support,
        partitioning,
        partition_strategy,
        taxonomies: Default::default(),
        interest,
        max_itemset_size: *rng.choose(&[0, 0, 0, 1, 2, 3]).expect("non-empty"),
        parallelism: None,
        kernel: Default::default(),
    };
    MiningCase {
        table,
        config,
        threads: rng.gen_range(2..9),
    }
}

/// A scan-kernel case in one of three table shapes. The checker runs the
/// default kernel rule and both pinned kernels, serial and pooled,
/// against the direct serial scan.
fn gen_kernel(rng: &mut Prng) -> MiningCase {
    match rng.gen_weighted(&[2.0, 2.0, 1.0]) {
        0 => gen_duplicate_heavy(rng),
        1 => gen_boundary_skewed(rng),
        _ => gen_rectangle_heavy(rng),
    }
}

/// Low-cardinality categorical attributes over enough rows that every
/// distinct tuple recurs many times.
fn gen_duplicate_heavy(rng: &mut Prng) -> MiningCase {
    let num_rows = rng.gen_range(16..65);
    let num_cats = rng.gen_range(2..5usize);
    let with_quant = rng.gen_bool(0.4);
    let mut builder = Schema::builder();
    for i in 0..num_cats {
        builder = builder.categorical(format!("c{i}"));
    }
    if with_quant {
        builder = builder.quantitative("q");
    }
    let schema = builder.build().expect("generated names are valid");
    let labels = ["a", "b", "c", "d"];
    let cardinalities: Vec<usize> = (0..num_cats).map(|_| rng.gen_range(2..5usize)).collect();
    let mut table = Table::new(schema);
    for _ in 0..num_rows {
        let mut cells: Vec<Value> = cardinalities
            .iter()
            .map(|&card| Value::from(labels[rng.gen_zipf(card, 1.0)]))
            .collect();
        if with_quant {
            // A tiny integer domain keeps PartitionSpec::None cheap and
            // the quant dimension duplicate-heavy too.
            cells.push(Value::Float(rng.gen_range(0i64..4) as f64));
        }
        table.push_row(&cells).expect("cells match schema");
    }
    let denom = num_rows as u64;
    let config = MinerConfig {
        min_support: rng.gen_edge_fraction(denom),
        min_confidence: rng.gen_edge_fraction(denom),
        max_support: 1.0,
        partitioning: PartitionSpec::None,
        partition_strategy: PartitionStrategy::EquiDepth,
        taxonomies: Default::default(),
        interest: None,
        max_itemset_size: *rng.choose(&[0, 0, 2, 3]).expect("non-empty"),
        parallelism: None,
        kernel: Default::default(),
    };
    MiningCase {
        table,
        config,
        threads: rng.gen_range(2..9),
    }
}

/// Codes skewed toward the domain boundaries (first/last encoded value),
/// constant columns whose frequent ranges degenerate to `lo == hi`, and
/// row counts straddling the bitmask kernel's 64-bit word and block
/// edges — plus occasional empty tables and impossible supports so the
/// plan list itself can be empty.
fn gen_boundary_skewed(rng: &mut Prng) -> MiningCase {
    // Word- and block-boundary row counts matter: the kernel's tail
    // masking and partial-block path only run when rows % 64 != 0.
    let num_rows = match rng.gen_weighted(&[1.0, 2.0, 3.0, 3.0, 3.0]) {
        0 => 0,
        1 => rng.gen_range(1..4),
        2 => *rng.choose(&[63, 64, 65, 127, 128, 129]).expect("non-empty"),
        3 => rng.gen_range(2..64),
        _ => rng.gen_range(64..200),
    };
    let num_quants = rng.gen_range(1..4usize);
    let num_cats = rng.gen_range(0..3usize);
    let mut builder = Schema::builder();
    for i in 0..num_quants {
        builder = builder.quantitative(format!("q{i}"));
    }
    for i in 0..num_cats {
        builder = builder.categorical(format!("c{i}"));
    }
    let schema = builder.build().expect("generated names are valid");
    let labels = ["a", "b", "c", "d"];
    // Per-column style: boundary-skewed (mass at domain min/max),
    // constant (every range is lo == hi), or a small uniform domain.
    let quant_styles: Vec<u32> = (0..num_quants)
        .map(|_| rng.gen_weighted(&[3.0, 2.0, 2.0]) as u32)
        .collect();
    let cat_cards: Vec<usize> = (0..num_cats).map(|_| rng.gen_range(1..5usize)).collect();
    let domain = rng.gen_range(2i64..8);
    let mut table = Table::new(schema);
    for _ in 0..num_rows {
        let mut cells: Vec<Value> = Vec::with_capacity(num_quants + num_cats);
        for &style in &quant_styles {
            let v = match style {
                // ~80% of the mass on the two extreme codes.
                0 => {
                    if rng.gen_bool(0.8) {
                        if rng.gen_bool(0.5) {
                            0
                        } else {
                            domain - 1
                        }
                    } else {
                        rng.gen_range(0i64..domain)
                    }
                }
                1 => 2,
                _ => rng.gen_range(0i64..domain),
            };
            cells.push(Value::Float(v as f64));
        }
        for &card in &cat_cards {
            cells.push(Value::from(labels[rng.gen_zipf(card, 1.0)]));
        }
        table.push_row(&cells).expect("cells match schema");
    }
    let denom = num_rows.max(1) as u64;
    // Sometimes demand more support than any itemset can have, so the
    // super-candidate plan list is empty and the kernel counts nothing.
    let min_support = if rng.gen_bool(0.15) {
        1.0
    } else {
        rng.gen_edge_fraction(denom)
    };
    let config = MinerConfig {
        min_support,
        min_confidence: rng.gen_edge_fraction(denom),
        max_support: if rng.gen_bool(0.5) { 1.0 } else { 0.5 },
        partitioning: PartitionSpec::None,
        partition_strategy: PartitionStrategy::EquiDepth,
        taxonomies: Default::default(),
        interest: None,
        max_itemset_size: *rng.choose(&[0, 0, 2, 3]).expect("non-empty"),
        parallelism: None,
        kernel: Default::default(),
    };
    MiningCase {
        table,
        config,
        threads: rng.gen_range(2..9),
    }
}

/// Two uniform quantitative attributes over wide domains next to one
/// small categorical attribute, mined unpartitioned with no upper support
/// bound: pass 3 holds a few super-candidates (one per label) with
/// hundreds to thousands of range rectangles each, which puts the kernel
/// rule on the direct side.
fn gen_rectangle_heavy(rng: &mut Prng) -> MiningCase {
    let num_rows = rng.gen_range(64..200);
    let schema = Schema::builder()
        .quantitative("q0")
        .quantitative("q1")
        .categorical("c")
        .build()
        .expect("static names are valid");
    let domain = rng.gen_range(6i64..13);
    let labels = ["a", "b", "c"];
    let card = rng.gen_range(1..4usize);
    let mut table = Table::new(schema);
    for _ in 0..num_rows {
        table
            .push_row(&[
                Value::Float(rng.gen_range(0..domain) as f64),
                Value::Float(rng.gen_range(0..domain) as f64),
                Value::from(labels[rng.gen_range(0..card)]),
            ])
            .expect("cells match schema");
    }
    let config = MinerConfig {
        min_support: *rng.choose(&[0.05, 0.1, 0.2]).expect("non-empty"),
        min_confidence: 0.5,
        max_support: 1.0,
        partitioning: PartitionSpec::None,
        interest: None,
        max_itemset_size: 3,
        ..MinerConfig::default()
    };
    MiningCase {
        table,
        config,
        threads: rng.gen_range(2..9),
    }
}

fn gen_partition(rng: &mut Prng) -> PartitionCase {
    let len = rng.gen_range(2..60usize);
    let values = gen_quant_column(rng, len);
    let k = match rng.gen_weighted(&[1.0, 2.0, 4.0, 2.0]) {
        0 => 1,
        1 => 2,
        2 => rng.gen_range(3..9),
        // At or above the distinct-value count: full-resolution territory.
        _ => rng.gen_range(len.max(3)..len + 40),
    };
    let strategy = *rng
        .choose(&[
            PartitionStrategy::EquiDepth,
            PartitionStrategy::EquiWidth,
            PartitionStrategy::KMeans,
        ])
        .expect("non-empty");
    PartitionCase {
        values,
        k,
        strategy,
    }
}

fn gen_snap(rng: &mut Prng) -> SnapCase {
    // The huge-magnitude case: the interval width is below the endpoint's
    // ulp, so naive snapping cannot move the bounds at all.
    if rng.gen_bool(0.1) {
        let x = 1.0e16;
        return SnapCase {
            lo: x,
            hi: x,
            origin: 0.0,
            w: 0.5,
        };
    }
    let w = *rng
        .choose(&[0.07, 0.1, 0.5, 1.0, 0.003])
        .expect("non-empty");
    let origin = *rng.choose(&[0.0, -1.0, 10.0]).expect("non-empty");
    let lo = if rng.gen_bool(0.6) {
        // Exactly on the grid (modulo float rounding of origin + i*w).
        origin + rng.gen_range(0i64..30) as f64 * w
    } else {
        origin + rng.gen_f64() * 30.0 * w
    };
    let hi = match rng.gen_weighted(&[2.0, 4.0, 3.0]) {
        0 => lo, // degenerate range
        1 => lo + rng.gen_range(0i64..10) as f64 * w,
        _ => lo + rng.gen_f64() * 10.0 * w,
    };
    SnapCase {
        lo,
        hi: hi.max(lo),
        origin,
        w,
    }
}

fn gen_intervals(rng: &mut Prng) -> IntervalsCase {
    IntervalsCase {
        num_quantitative: rng.gen_range(1..4),
        minsup: rng.gen_edge_fraction(40),
        level: *rng
            .choose(&[0.5, 1.0, 1.0 + 1.0e-9, 1.0 + 1.0e-6, 1.5, 2.0, f64::NAN])
            .expect("non-empty"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qar_core::Miner;

    /// Kernel cases land on both sides of the kernel rule: some pass ≥ 3
    /// resolves to direct, some to bitmask.
    #[test]
    fn kernel_cases_straddle_the_kernel_rule() {
        let mut rng = Prng::seed_from_u64(7);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..60 {
            let case = gen_kernel(&mut rng);
            if let Ok(out) = Miner::new(case.config).mine(&case.table) {
                for stats in out.stats.mine.pass_stats.iter().skip(1) {
                    seen.insert(stats.kernel.clone());
                }
            }
        }
        assert!(seen.contains("direct"), "{seen:?}");
        assert!(seen.contains("bitmask"), "{seen:?}");
    }
}
