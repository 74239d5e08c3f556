//! Pieces every workload shares: the metric report, output checks,
//! order statistics, peak memory, content digests, and the seeded query
//! mix with its naive reference answers.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use qar_prng::Prng;
use qar_store::protocol::{Query, QueryOptions};
use qar_store::{naive_query_range, naive_query_record, Catalog, RankBy};

use crate::trace::{harness, sp, Tracer};

/// One named measurement with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run hands back to `main`.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub checks: Checks,
}

impl Report {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// Output checks: every checked operation counts as attempted; a wrong
/// answer or an error return counts as failed.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure descriptions, for the human-readable log.
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Record an operation that failed outright (an error return).
    pub fn error(&mut self, what: String) {
        self.attempted += 1;
        self.fail(what);
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 10 {
            self.failures.push(what);
        }
    }
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Interquartile mean of a non-empty sample: the mean of its middle
/// half (all of it below four values). Like the median it ignores a
/// stray slow value, but when the host's speed shifts for seconds at a
/// time and a run's values split between a fast and a slow mode, it
/// moves with the share of each mode where the median jumps from one
/// mode to the other.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quarter = v.len() / 4;
    let middle = &v[quarter..v.len() - quarter];
    assert!(!middle.is_empty(), "interquartile mean of an empty sample");
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Nearest-rank percentile `p` (0..=100) of a non-empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    assert!(!v.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Time one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Hand the allocator's free memory back to the OS (glibc
/// `malloc_trim`), so the next timed sequence starts from the heap state
/// a fresh process would have rather than from whatever the previous
/// sequence left behind: whether freed pages are still mapped decides
/// whether a sequence page-faults, and otherwise splits its times into
/// two modes that differ by up to 1.6×.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: `malloc_trim` only returns free pages to the OS; it
        // touches no live allocation and is safe to call at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
/// Each benchmark invocation runs exactly one workload, so this is that
/// workload's high-water mark and nothing else's.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// FNV-1a over a stream of words: a cheap content digest for comparing
/// large results without keeping two copies alive.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn text(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

fn digest_itemset(d: &mut Digest, set: &qar_itemset::Itemset) {
    d.u64(set.len() as u64);
    for item in set.items() {
        d.u64(u64::from(item.attr) << 32 | u64::from(item.lo));
        d.u64(u64::from(item.hi));
    }
}

/// Digest of everything [`Catalog::content_eq`] compares: schema,
/// encoders, row count, rules, interest verdicts and persisted counts.
pub fn catalog_digest(catalog: &Catalog) -> u64 {
    let mut d = Digest::new();
    d.text(&format!("{:?}", catalog.schema()));
    d.text(&format!("{:?}", catalog.encoders()));
    d.u64(catalog.num_rows());
    d.u64(catalog.rules().len() as u64);
    for rule in catalog.rules() {
        digest_itemset(&mut d, &rule.antecedent);
        digest_itemset(&mut d, &rule.consequent);
        d.u64(rule.support);
        d.u64(rule.confidence.to_bits());
    }
    match catalog.interest() {
        None => d.u64(0),
        Some(verdicts) => {
            d.u64(1 + verdicts.len() as u64);
            for v in verdicts {
                d.u64(u64::from(v.interesting) << 1 | u64::from(v.has_ancestors));
            }
        }
    }
    match catalog.counts() {
        None => d.u64(0),
        Some(counts) => {
            d.u64(1);
            d.u64(counts.num_rows);
            d.u64(counts.fingerprint.0);
            d.u64(counts.fingerprint.1);
            d.text(&format!("{:?}", counts.config));
            d.text(&format!("{:?}", counts.intervals_per_attribute));
            for column in &counts.captured.value_counts {
                d.u64(column.len() as u64);
                column.iter().for_each(|&c| d.u64(c));
            }
            for (pass, tallies) in &counts.captured.passes {
                d.u64(u64::from(*pass));
                d.u64(tallies.len() as u64);
                for (set, count) in tallies {
                    digest_itemset(&mut d, set);
                    d.u64(*count);
                }
            }
        }
    }
    d.finish()
}

/// Digest of a run's algorithmic statistics (`MiningStats::normalized`):
/// intervals, candidates per pass, pruned items, rule totals.
pub fn stats_digest(stats: &qar_core::MiningStats) -> u64 {
    let mut d = Digest::new();
    d.text(&format!("{:?}", stats.normalized()));
    d.finish()
}

/// A seeded mix of point, range and top-k queries over `catalog`'s
/// attribute domains: 6 point : 3 range : 1 top-k.
pub fn query_mix(catalog: &Catalog, seed: u64, n: usize) -> Vec<Query> {
    let mut rng = Prng::seed_from_u64(seed ^ 0x5155_4552_5900_0000);
    let encoders = catalog.encoders();
    let quant: Vec<(u32, f64, f64)> = encoders
        .iter()
        .enumerate()
        .filter_map(|(attr, e)| {
            e.numeric_bounds(0, e.cardinality().saturating_sub(1))
                .map(|(lo, hi)| (attr as u32, lo, hi))
        })
        .collect();
    let ranks = [RankBy::Support, RankBy::Confidence, RankBy::Interest];
    (0..n)
        .map(|i| match i % 10 {
            0 => Query::TopK {
                by: ranks[rng.gen_range(0..ranks.len())],
                k: rng.gen_range(1..21u32),
            },
            1..=3 if !quant.is_empty() => {
                let (attr, lo, hi) = quant[rng.gen_range(0..quant.len())];
                let a = lo + rng.gen_f64() * (hi - lo);
                let b = lo + rng.gen_f64() * (hi - lo);
                Query::Range {
                    attr,
                    lo: a.min(b),
                    hi: a.max(b),
                    opts: QueryOptions::default(),
                }
            }
            _ => Query::Point {
                record: encoders
                    .iter()
                    .enumerate()
                    .map(|(attr, e)| (attr as u32, rng.gen_range(0..e.cardinality().max(1))))
                    .collect(),
                opts: QueryOptions::default(),
            },
        })
        .collect()
}

/// The reference answer to `query`: a linear scan over the catalog's
/// rules (`naive_query_*`), or a full sort for top-k.
pub fn naive_answer(catalog: &Catalog, query: &Query) -> Vec<u32> {
    match query {
        Query::Point { record, .. } => naive_query_record(catalog, record),
        Query::Range { attr, lo, hi, .. } => naive_query_range(catalog, *attr, *lo, *hi),
        Query::TopK { by, k } => naive_top_k(catalog, *by, *k as usize),
    }
}

/// Top-k by sorting every rule: metric descending, then support
/// descending, then rule id (interest ranks interesting rules first).
pub fn naive_top_k(catalog: &Catalog, by: RankBy, k: usize) -> Vec<u32> {
    let rules = catalog.rules();
    let interesting = |id: usize| catalog.interest().is_none_or(|v| v[id].interesting);
    let mut ids: Vec<usize> = (0..rules.len()).collect();
    ids.sort_by(|&a, &b| {
        let (ra, rb) = (&rules[a], &rules[b]);
        let primary = match by {
            RankBy::Support => std::cmp::Ordering::Equal,
            RankBy::Interest => interesting(b)
                .cmp(&interesting(a))
                .then(rb.confidence.total_cmp(&ra.confidence)),
            _ => rb.confidence.total_cmp(&ra.confidence),
        };
        primary.then(rb.support.cmp(&ra.support)).then(a.cmp(&b))
    });
    ids.into_iter().take(k).map(|id| id as u32).collect()
}

/// Reference answers per (catalog version, query index), computed once
/// on first use.
#[derive(Default)]
pub struct AnswerCache {
    answers: HashMap<(u64, usize), Vec<u32>>,
}

impl AnswerCache {
    pub fn get(&mut self, version: u64, catalog: &Catalog, queries: &[Query], i: usize) -> &[u32] {
        self.answers
            .entry((version, i))
            .or_insert_with(|| naive_answer(catalog, &queries[i]))
    }
}

/// The seeded query mix replayed in-process through
/// `serve::execute_query` against a freshly built index, each answer
/// checked against the naive scan.
pub struct QueryReplay {
    seed: u64,
    /// Digest of the catalog `queries` were drawn for.
    drawn_for: Option<u64>,
    queries: Vec<Query>,
    answers: AnswerCache,
}

impl QueryReplay {
    /// Distinct queries in the mix.
    pub const MIX: usize = 1024;

    pub fn new(seed: u64) -> Self {
        QueryReplay {
            seed,
            drawn_for: None,
            queries: Vec::new(),
            answers: AnswerCache::default(),
        }
    }

    /// Answer the mix once against `index` (built from `catalog`, whose
    /// content digest is `digest`), each query in its own `store.query`
    /// span when tracing, and check every answer.
    pub fn replay(
        &mut self,
        catalog: &Catalog,
        index: &qar_store::RuleIndex,
        digest: u64,
        tracer: Option<&Tracer>,
        checks: &mut Checks,
    ) {
        if self.drawn_for != Some(digest) {
            self.queries = query_mix(catalog, self.seed, Self::MIX);
            self.drawn_for = Some(digest);
        }
        let answers: Vec<_> = self
            .queries
            .iter()
            .map(|query| {
                sp(tracer, "store.query", || {
                    qar_store::serve::execute_query(index, query)
                })
            })
            .collect();
        harness(tracer, || {
            for (i, ids) in answers.iter().enumerate() {
                let expected = self.answers.get(digest, catalog, &self.queries, i);
                checks.check(ids.as_deref().ok() == Some(expected), || {
                    format!("query {i} answered {ids:?}, naive scan says {expected:?}")
                });
            }
        });
    }
}
