//! Scan-kernel crossover sweep: the support-counting record scan
//! (`count_candidates_opts`, plan building included) timed with the
//! direct kernel, the bitmask kernel, and the default (the pre-scan
//! kernel rule), over a grid of pass shapes on two tables:
//!
//! * **duplicate-heavy** — 3 categorical attributes whose 300 distinct
//!   tuples repeat over every row;
//! * **all-distinct** — every row's categorical tuple is unique.
//!
//! Both tables carry two quantitative attributes (32 codes each). A grid
//! point is `plans` super-candidates (distinct categorical triples, rows'
//! own tuples first), each holding `members` two-dimensional range
//! rectangles, for plan counts and members per plan from 1 to 10⁵ up to
//! 10⁶ rectangles in all (10⁴ plans on the duplicate-heavy table, whose
//! categorical domains hold ≈ 17k keys). Two fixed shapes ride along: the
//! scan bench's historical candidate set (≈ 80 mostly categorical
//! candidates, also timed pooled) and pass 3 of the credit workload
//! (10 super-candidates, 379,670 rectangles).
//!
//! At every point the kernels are interleaved sample by sample, so host
//! noise hits each alike. A kernel whose scan overruns the deadline is
//! cut off through the scan's `CancelToken` and recorded as
//! `"timed_out"` instead of hanging the sweep.
//!
//! Usage: `cargo run --release -p qar-bench --bin scan_kernel
//! [records] [--seed S]` (`--seed` rotates the table layouts).
//! Every kernel takes 5 samples a point. `QAR_BENCH_QUICK=1` sweeps up
//! to 10⁵ rectangles a point (plus the credit shape) with a 1 s
//! deadline; the full run goes to 10⁶ with a 2 s deadline.
//!
//! The sweep is written as one JSON document to `BENCH_scan.json`
//! (override the path with `QAR_BENCH_OUT`). Exit is non-zero when, at
//! any point, the record scan of the kernel the default rule picks is
//! slower than 0.95× the fastest kernel's (both timed as pinned runs;
//! plan building is the same for every kernel), or the default overran
//! the deadline, when the default pooled scan
//! of the historical shape on the duplicate-heavy table falls below
//! 1M rows/s, or when the bitmask kernel is less than 3× the direct
//! kernel on the historical shape over the all-distinct table (serial).

use qar_core::supercand::{count_candidates_opts, ScanOptions};
use qar_core::{ScanKernel, WorkerPool};
use qar_itemset::{Item, Itemset};
use qar_table::{AttributeId, EncodedTable, Schema, Table, Value};
use qar_trace::CancelToken;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Threads for the pooled measurements of the historical shape.
const THREADS: usize = 4;

/// Floors enforced on exit: the rule's pick against the fastest kernel
/// at every point…
const FLOOR_RULE_VS_BEST: f64 = 0.95;
/// …the default pooled rows/sec of the historical shape over the
/// duplicate-heavy table…
const FLOOR_ROWS_PER_SEC: f64 = 1_000_000.0;
/// …and the bitmask/direct serial speedup of the historical shape over
/// the all-distinct table. Measured against the same run's direct scan,
/// so the ratio holds on slower CI hosts too.
const FLOOR_BITMASK_SPEEDUP: f64 = 3.0;

/// Rows before the all-distinct table's tuples would repeat.
const DISTINCT_SPAN: usize = 59 * 61 * 57;

/// Code-domain size of both quantitative attributes.
const QUANT_CODES: u32 = 32;

/// Attribute ids: three categorical, then two quantitative.
const CATS: [u32; 3] = [0, 1, 2];
const QUANTS: [u32; 2] = [3, 4];

/// Build a table over the shared schema from per-row categorical label
/// indices; the quantitative columns are a fixed function of `j`.
fn table(rows: usize, seed: u64, tuple: impl Fn(usize) -> [usize; 3]) -> EncodedTable {
    let schema = Schema::builder()
        .categorical("c0")
        .categorical("c1")
        .categorical("c2")
        .quantitative("q0")
        .quantitative("q1")
        .build()
        .expect("static schema");
    let mut t = Table::new(schema);
    let q = QUANT_CODES as usize;
    for i in 0..rows {
        let j = i.wrapping_add(seed as usize);
        let [a, b, c] = tuple(j);
        t.push_row(&[
            Value::from(format!("v{a}")),
            Value::from(format!("v{b}")),
            Value::from(format!("v{c}")),
            Value::Int((j % q) as i64),
            Value::Int(((j * 5 + j / q) % q) as i64),
        ])
        .expect("row matches schema");
    }
    EncodedTable::encode_full_resolution(&t).expect("encode")
}

/// 40 × 45 × 50 labels, but only lcm(40, 45, 50) = 1,800 distinct
/// tuples.
fn duplicate_heavy(rows: usize, seed: u64) -> EncodedTable {
    table(rows, seed, |j| [j % 40, j % 45, j % 50])
}

/// 59 × 61 × 57 labels; every row's tuple is distinct (`j ↦ j + seed`
/// stays injective modulo the span).
fn all_distinct(rows: usize, seed: u64) -> EncodedTable {
    assert!(rows <= DISTINCT_SPAN, "tuples would repeat");
    table(rows, seed % DISTINCT_SPAN as u64, |j| {
        let j = j % DISTINCT_SPAN;
        [j % 59, (j / 59) % 61, (j / (59 * 61)) % 57]
    })
}

/// The first `n` single categorical items (attribute-major, code order):
/// each labels 1/40–1/61 of the rows, a frequent categorical part like
/// every rectangle-carrying candidate's in a real pass.
fn single_keys(encoded: &EncodedTable, n: usize) -> Vec<Vec<Item>> {
    CATS.iter()
        .flat_map(|&a| {
            (0..encoded.cardinality(AttributeId(a as usize))).map(move |c| vec![Item::value(a, c)])
        })
        .take(n)
        .collect()
}

/// Up to `n` distinct categorical triples `(c0, c1, c2)`: the rows' own
/// tuples first (in row order), then the rest of the code product.
fn triple_keys(encoded: &EncodedTable, n: usize) -> Vec<Vec<Item>> {
    let cols: Vec<&[u32]> = CATS
        .iter()
        .map(|&a| encoded.codes(AttributeId(a as usize)))
        .collect();
    let card = |a: u32| encoded.cardinality(AttributeId(a as usize));
    let product = (0..card(0))
        .flat_map(|a| (0..card(1)).flat_map(move |b| (0..card(2)).map(move |c| [a, b, c])));
    let mut seen = BTreeSet::new();
    (0..encoded.num_rows())
        .map(|row| [cols[0][row], cols[1][row], cols[2][row]])
        .chain(product)
        .filter(|key| seen.insert(*key))
        .take(n)
        .map(|key| {
            CATS.iter()
                .zip(key)
                .map(|(&a, c)| Item::value(a, c))
                .collect()
        })
        .collect()
}

/// Every inclusive interval over the quantitative domain, in a strided
/// order so the first few are spread over the domain rather than all
/// starting at code 0.
fn intervals() -> Vec<(u32, u32)> {
    let all: Vec<(u32, u32)> = (0..QUANT_CODES)
        .flat_map(|lo| (lo..QUANT_CODES).map(move |hi| (lo, hi)))
        .collect();
    (0..all.len()).map(|k| all[(k * 97) % all.len()]).collect()
}

/// One super-candidate per key; with `members > 0`, each holds that many
/// distinct two-dimensional range rectangles over the quantitative
/// attributes, otherwise the key alone is the (purely categorical)
/// candidate. `None` when the table holds fewer keys than asked for.
fn plans(keys: Vec<Vec<Item>>, wanted: usize, members: usize) -> Option<Vec<Itemset>> {
    if keys.len() < wanted {
        return None;
    }
    if members == 0 {
        return Some(keys.into_iter().map(Itemset::new).collect());
    }
    let iv = intervals();
    let mut out = Vec::with_capacity(keys.len() * members);
    for key in keys {
        for m in 0..members {
            // Distinct pairs: member m = t·|iv| + a takes (iv[a], iv[a + t]).
            let (lo0, hi0) = iv[m % iv.len()];
            let (lo1, hi1) = iv[(m / iv.len() + m) % iv.len()];
            let mut items = key.clone();
            items.push(Item::range(QUANTS[0], lo0, hi0));
            items.push(Item::range(QUANTS[1], lo1, hi1));
            out.push(Itemset::new(items));
        }
    }
    Some(out)
}

/// The scan bench's historical candidate set over the first few codes
/// of each categorical attribute plus quant-range supersets.
fn historical(encoded: &EncodedTable) -> Vec<Itemset> {
    let card = |attr: u32| encoded.cardinality(AttributeId(attr as usize)).min(4);
    let (n0, n1, n2) = (card(0), card(1), card(2));
    let mut out = Vec::new();
    for a in 0..n0 {
        for b in 0..n1 {
            out.push(Itemset::new(vec![Item::value(0, a), Item::value(1, b)]));
            for c in 0..n2 {
                out.push(Itemset::new(vec![
                    Item::value(0, a),
                    Item::value(1, b),
                    Item::value(2, c),
                ]));
            }
        }
    }
    for a in 0..n0 {
        for (lo, hi) in [(0u32, 1u32), (1, 3), (0, 4)] {
            out.push(Itemset::new(vec![
                Item::value(0, a),
                Item::range(QUANTS[0], lo, hi),
            ]));
        }
    }
    out
}

/// The three kernels a point times: pinned direct, pinned bitmask, and
/// the default rule.
const KERNELS: [(&str, Option<ScanKernel>); 3] = [
    ("direct", Some(ScanKernel::Direct)),
    ("bitmask", Some(ScanKernel::Bitmask)),
    ("default", None),
];

/// One kernel's fastest pass (plan building included) and fastest record
/// scan over the samples at one point; `None` once it overran.
type Timing = Option<(Duration, Duration)>;

/// One measured point.
struct Point {
    json: String,
    /// The fastest record scan of the kernel the rule picked (timed as
    /// its pinned run) over the fastest kernel's, as a throughput ratio
    /// (`0` when the default or the picked kernel overran).
    rule_vs_best: f64,
    /// Rows per second of each kernel's fastest pass.
    rows_per_sec: [Option<f64>; 3],
}

struct Sweep<'p> {
    samples: usize,
    deadline: Duration,
    pool: &'p WorkerPool,
}

impl Sweep<'_> {
    /// Time the three kernels on `cands`, interleaved sample by sample
    /// (the order rotates every sample).
    fn point(
        &self,
        table_name: &str,
        encoded: &EncodedTable,
        shape: &str,
        cands: &[Itemset],
        threads: usize,
    ) -> Point {
        let mut timings: [Timing; 3] = [Some((Duration::MAX, Duration::MAX)); 3];
        let mut rule = String::new();
        let mut stats_json = String::new();
        for sample in 0..self.samples {
            for k in (0..3).map(|k| (k + sample) % 3) {
                let Some((best, best_scan)) = &mut timings[k] else {
                    continue;
                };
                let token = CancelToken::with_deadline(self.deadline);
                let opts = ScanOptions {
                    cancel: Some(&token),
                    pool: (threads > 1).then_some(self.pool),
                    kernel: KERNELS[k].1,
                    ..ScanOptions::new(threads)
                };
                let t0 = Instant::now();
                let Ok((counts, stats)) = count_candidates_opts(encoded, cands, None, opts) else {
                    timings[k] = None;
                    continue;
                };
                *best = (*best).min(t0.elapsed());
                *best_scan = (*best_scan).min(stats.scan_time);
                std::hint::black_box(counts);
                if KERNELS[k].1.is_none() {
                    rule = stats.kernel;
                    stats_json = format!(
                        "\"super_candidates\":{},\"hash_tree_nodes\":{}",
                        stats.super_candidates, stats.hash_tree_nodes
                    );
                }
            }
        }
        let quant_items = |c: &Itemset| {
            c.items()
                .iter()
                .filter(|i| QUANTS.contains(&i.attr))
                .count()
        };
        let member_dims: usize = cands.iter().map(quant_items).sum();
        // The kernels share plan building; compare their record scans.
        // The rule is judged on its pick's pinned run, so the default
        // is not compared against a second timing of its own code.
        let best = timings[..2].iter().flatten().map(|t| t.1).min();
        let ratio = |k: usize| match (best, timings[k]) {
            (Some(best), Some((_, own))) => best.as_secs_f64() / own.as_secs_f64(),
            _ => 0.0,
        };
        let picked = KERNELS.iter().position(|(name, _)| *name == rule);
        let rule_vs_best = picked.map_or(0.0, ratio);
        let rows = encoded.num_rows() as f64;
        let rows_per_sec = timings.map(|t| t.map(|(total, _)| rows / total.as_secs_f64()));
        let show = |r: Option<f64>| r.map_or("> deadline".into(), |r| format!("{:.1}M", r / 1e6));
        println!(
            "{table_name} {shape} t{threads}: direct {} | bitmask {} | default {} ({rule}) \
             | rule/best {rule_vs_best:.2}",
            show(rows_per_sec[0]),
            show(rows_per_sec[1]),
            show(rows_per_sec[2]),
        );
        let mut json = format!(
            "{{\"table\":\"{table_name}\",\"shape\":\"{shape}\",\"threads\":{threads},\
             \"candidates\":{},\"member_dims\":{member_dims},{stats_json},\"rule\":\"{rule}\"",
            cands.len()
        );
        for ((name, _), timing) in KERNELS.iter().zip(timings) {
            json.push_str(&match timing {
                Some((total, scan)) => format!(
                    ",\"{name}\":{{\"min_ns\":{},\"scan_min_ns\":{},\"rows_per_sec\":{:.0}}}",
                    total.as_nanos(),
                    scan.as_nanos(),
                    rows / total.as_secs_f64()
                ),
                None => format!(",\"{name}\":{{\"timed_out\":true}}"),
            });
        }
        json.push_str(&format!(
            ",\"rule_vs_best\":{rule_vs_best:.4},\"default_vs_best\":{:.4}}}",
            ratio(2)
        ));
        Point {
            json,
            rule_vs_best,
            rows_per_sec,
        }
    }
}

fn main() {
    let quick = std::env::var_os("QAR_BENCH_QUICK").is_some();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let records = args.first().and_then(|a| a.parse().ok()).unwrap_or(200_000);
    let seed = match args.iter().position(|a| a == "--seed") {
        Some(i) => args
            .get(i + 1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| {
                eprintln!("scan_kernel: --seed needs an unsigned integer");
                std::process::exit(2);
            }),
        None => 0,
    };
    let pool = WorkerPool::new(THREADS);
    let sweep = Sweep {
        samples: 5,
        deadline: Duration::from_secs(if quick { 1 } else { 2 }),
        pool: &pool,
    };
    let max_rects = if quick { 100_000 } else { 1_000_000 };
    let decades = [1usize, 10, 100, 1_000, 10_000, 100_000];

    let mut points: Vec<Point> = Vec::new();
    let mut historical_points = Vec::new();
    for (name, encoded) in [
        ("dup_heavy", duplicate_heavy(records, seed)),
        (
            "all_distinct",
            all_distinct(records.min(DISTINCT_SPAN), seed),
        ),
    ] {
        println!("\n{name}: {} rows (seed {seed})", encoded.num_rows());
        let cands = historical(&encoded);
        for threads in [1, THREADS] {
            historical_points.push(points.len());
            points.push(sweep.point(name, &encoded, "historical", &cands, threads));
        }
        // Pass 3 of the credit workload: 10 super-candidates holding
        // 379,670 rectangles.
        let credit = plans(single_keys(&encoded, 10), 10, 37_967).expect("ten keys");
        points.push(sweep.point(name, &encoded, "credit_pass3", &credit, 1));
        drop(credit);
        // Rectangle-carrying plans keyed by frequent single items.
        for plan_count in [10, 100] {
            for &members in &decades {
                if plan_count * members > max_rects {
                    continue;
                }
                let keys = single_keys(&encoded, plan_count);
                let Some(cands) = plans(keys, plan_count, members) else {
                    continue;
                };
                let shape = format!("p{plan_count}_m{members}");
                points.push(sweep.point(name, &encoded, &shape, &cands, 1));
            }
        }
        // Purely categorical plans keyed by (mostly rare) triples.
        for &plan_count in &decades[1..] {
            let Some(cands) = plans(triple_keys(&encoded, plan_count), plan_count, 0) else {
                continue;
            };
            let shape = format!("p{plan_count}_categorical");
            points.push(sweep.point(name, &encoded, &shape, &cands, 1));
        }
    }

    let [_, dup_4t, distinct_1t, _] = [0, 1, 2, 3].map(|i| &points[historical_points[i]]);
    let dup_default_4t = dup_4t.rows_per_sec[2].unwrap_or(0.0);
    let bitmask_speedup = match distinct_1t.rows_per_sec {
        [Some(direct), Some(bitmask), _] => bitmask / direct,
        _ => 0.0,
    };
    let worst = points
        .iter()
        .min_by(|a, b| a.rule_vs_best.total_cmp(&b.rule_vs_best))
        .expect("points measured");

    let mut doc = format!(
        "{{\"suite\":\"scan_kernel\",\"records\":{records},\"seed\":{seed},\"threads\":{THREADS},\
         \"samples\":{},\"deadline_ms\":{},\"min_rule_vs_best\":{:.4},\
         \"dup_default_rows_per_sec_4t\":{dup_default_4t:.0},\
         \"distinct_bitmask_speedup_1t\":{bitmask_speedup:.4},\"points\":[",
        sweep.samples,
        sweep.deadline.as_millis(),
        worst.rule_vs_best
    );
    doc.push_str(
        &points
            .iter()
            .map(|p| p.json.as_str())
            .collect::<Vec<_>>()
            .join(",\n"),
    );
    doc.push_str("]}");
    let out_path = std::env::var("QAR_BENCH_OUT").unwrap_or_else(|_| "BENCH_scan.json".to_string());
    std::fs::write(&out_path, format!("{doc}\n")).expect("write bench JSON");

    println!(
        "\nrule's pick vs best kernel: worst {:.2} (floor {FLOOR_RULE_VS_BEST}); dup_heavy \
         historical default @{THREADS}t {dup_default_4t:.0} rows/s (floor {FLOOR_ROWS_PER_SEC}); \
         all_distinct historical bitmask/direct @1t {bitmask_speedup:.2}x (floor \
         {FLOOR_BITMASK_SPEEDUP}x); wrote {out_path}",
        worst.rule_vs_best
    );

    let mut failed = false;
    for p in points
        .iter()
        .filter(|p| p.rule_vs_best < FLOOR_RULE_VS_BEST)
    {
        eprintln!(
            "scan_kernel: the rule's pick at {:.2}x of the best kernel \
             (floor {FLOOR_RULE_VS_BEST}); failing record: {}",
            p.rule_vs_best, p.json
        );
        failed = true;
    }
    if dup_default_4t < FLOOR_ROWS_PER_SEC {
        eprintln!(
            "scan_kernel: default pooled scan below {FLOOR_ROWS_PER_SEC} rows/sec; \
             failing record: {}",
            dup_4t.json
        );
        failed = true;
    }
    if bitmask_speedup < FLOOR_BITMASK_SPEEDUP {
        eprintln!(
            "scan_kernel: bitmask kernel speedup {bitmask_speedup:.2}x below \
             {FLOOR_BITMASK_SPEEDUP}x on the all-distinct case; failing record: {}",
            distinct_1t.json
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
