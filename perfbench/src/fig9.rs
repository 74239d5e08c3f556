//! `fig9_store`: the paper's 500,000-record credit table through the
//! call sequence of `qar mine --store` followed by `qar query --top-k`,
//! then the query mix against the loaded catalog.
//!
//! CSV bytes → `csv::read_table` → `Miner::mine_with_counts` →
//! `Catalog::from_mining(..).with_counts(..)` → encode → write →
//! `Catalog::load` → `RuleIndex::build` → first top-k.

use std::path::Path;
use std::time::Instant;

use qar_core::{Miner, MinerConfig, PartitionSpec, ScanKernel};
use qar_datagen::credit::credit_schema;
use qar_datagen::{CreditConfig, CreditDataset};
use qar_store::protocol::Query;
use qar_store::serve::execute_query;
use qar_store::{Catalog, RankBy, RuleIndex};
use qar_table::csv;

use crate::common::{catalog_digest, naive_answer, peak_rss_mb, secs, stats_digest, Report};
use crate::layers::{self, mine_with_counts_traced};
use crate::mining::{self, Env, Iteration};
use crate::trace::{harness, harness_secs, sp};
use crate::Ctx;

type BoxError = Box<dyn std::error::Error>;

const RECORDS: usize = 500_000;

/// The first query, as `qar query --top-k 10` asks it.
pub const FIRST_QUERY: Query = Query::TopK {
    by: RankBy::Confidence,
    k: 10,
};

/// Section 6 settings at the low end of Figure 9's supports: minsup 10%,
/// maxsup 20%, minconf 25%, partial completeness K = 2, no interest
/// filter.
pub fn config() -> MinerConfig {
    MinerConfig {
        min_support: 0.10,
        max_support: 0.20,
        min_confidence: 0.25,
        partitioning: PartitionSpec::CompletenessLevel(2.0),
        interest: None,
        ..MinerConfig::default()
    }
}

/// The credit table for `seed`, as CSV bytes.
fn input(seed: u64) -> Result<Vec<u8>, BoxError> {
    let table = CreditDataset::generate(CreditConfig {
        num_records: RECORDS,
        seed,
        ..CreditConfig::default()
    })
    .table;
    let mut bytes = Vec::new();
    csv::write_table(&mut bytes, &table)?;
    Ok(bytes)
}

fn iteration(csv_bytes: &[u8], path: &Path, env: Env<'_>) -> Result<Iteration, BoxError> {
    let Env {
        tracer,
        queries,
        checks,
        layer,
    } = env;
    let config = config();
    let started = Instant::now();
    let checked_before = harness_secs();
    let table = sp(tracer, "table.ingest", || {
        csv::read_table(csv_bytes, &credit_schema())
    })?;
    let (output, counts) = match tracer {
        Some(t) => mine_with_counts_traced(t, &table, &config)?,
        None => Miner::new(config.clone()).mine_with_counts(&table)?,
    };
    let mined = sp(tracer, "store.catalog", || {
        Catalog::from_mining(&output).with_counts(counts)
    })?;
    let bytes = sp(tracer, "store.encode", || mined.encode());
    sp(tracer, "store.write", || std::fs::write(path, &bytes))?;
    let mine_s = secs(started.elapsed());
    if tracer.is_some() {
        layer.set_passes(&output.stats, &output.frequent, &output.encoded);
        let (counts_bytes, rules_bytes) = layers::section_bytes(&bytes)?;
        layer.set("store.counts_bytes", counts_bytes as f64);
        layer.set("store.rules_bytes", rules_bytes as f64);
    }
    let catalog_bytes = bytes.len() as u64;
    eprintln!(
        "  mined {} rules, candidates {:?}, kernels {}",
        output.rules.len(),
        output.stats.mine.candidates_per_pass,
        layers::kernels(&output.stats)
    );
    // Checked by digest so the mined catalog need not stay alive while
    // the loaded one exists: a `qar query` process never holds both.
    let (mined_digest, stats) = harness(tracer, || {
        (catalog_digest(&mined), stats_digest(&output.stats))
    });
    drop((bytes, output, table, mined));

    let loaded_at = Instant::now();
    let loaded = sp(tracer, "store.load", || Catalog::load(path, None))?;
    let index = sp(tracer, "store.index_build", || {
        RuleIndex::build(&loaded, None)
    });
    let first = sp(tracer, "store.query", || {
        execute_query(&index, &FIRST_QUERY)
    });
    let first_query_s = secs(loaded_at.elapsed());

    let loaded_digest = harness(tracer, || {
        let loaded_digest = catalog_digest(&loaded);
        checks.check(loaded_digest == mined_digest, || {
            "loaded catalog differs from the mined one".into()
        });
        let expected = naive_answer(&loaded, &FIRST_QUERY);
        checks.check(first.as_deref().ok() == Some(&expected[..]), || {
            format!("first top-k answer {first:?} differs from the naive ranking")
        });
        loaded_digest
    });
    // The sequence's high-water mark; the replay below only adds the
    // benchmark's own answer buffers.
    let peak_rss_mb = peak_rss_mb();
    queries.replay(&loaded, &index, loaded_digest, tracer, checks);
    Ok(Iteration {
        wall_s: secs(started.elapsed()) - (harness_secs() - checked_before),
        mine_s,
        first_query_s,
        catalog_bytes,
        peak_rss_mb,
        mined_digest,
        stats_digest: stats,
    })
}

pub fn run(ctx: &Ctx) -> Result<Report, BoxError> {
    let path = ctx.work.join("fig9.qarcat");
    mining::run(
        ctx,
        "fig9_store",
        || input(ctx.seed),
        |csv_bytes, env| iteration(csv_bytes, &path, env),
        |csv_bytes| {
            let table = csv::read_table(&csv_bytes[..], &credit_schema())?;
            let (output, counts) = Miner::new(config())
                .with_kernel(ScanKernel::Direct)
                .mine_with_counts(&table)?;
            let catalog = Catalog::from_mining(&output).with_counts(counts)?;
            Ok((catalog_digest(&catalog), stats_digest(&output.stats)))
        },
    )
}
