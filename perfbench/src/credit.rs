//! `credit_rules`: the credit table held in memory, mined with plain
//! `Miner::mine` at minsup 30%, maxsup 60% and the library-default
//! interest filter (R = 1.1 with the Lemma 5 prune). No ingest, no file.
//! The result is then indexed in memory and queried.
//!
//! `Table` → `Miner::mine` → `Catalog::from_mining` → `RuleIndex::build`
//! → first top-k.

use std::time::Instant;

use qar_core::pipeline::{build_encoders, item_supports_of};
use qar_core::{
    annotate_interest, generate_rules, Miner, MinerConfig, MiningOutput, MiningStats, ScanKernel,
};
use qar_datagen::{CreditConfig, CreditDataset};
use qar_store::serve::execute_query;
use qar_store::{Catalog, RuleIndex};
use qar_table::{EncodedTable, Table};

use crate::common::{catalog_digest, naive_answer, peak_rss_mb, secs, stats_digest, Report};
use crate::fig9::FIRST_QUERY;
use crate::layers;
use crate::mining::{self, Env, Iteration};
use crate::trace::{harness, harness_secs, sp, Tracer};
use crate::Ctx;

type BoxError = Box<dyn std::error::Error>;

const RECORDS: usize = 500_000;

/// minsup 30%, maxsup 60%, minconf 25%, K = 2, default interest.
pub fn config() -> MinerConfig {
    MinerConfig {
        min_support: 0.30,
        max_support: 0.60,
        ..MinerConfig::default()
    }
}

/// Traced `Miner::mine`: validation, partition, encode, the level-wise
/// driver (`Miner::frequent_itemsets`), rule generation, interest, and
/// the copy of the encoded table the library hands out in its
/// `MiningOutput` (it keeps the original as its encoding cache).
fn mine_traced(
    tracer: &Tracer,
    table: &Table,
    config: &MinerConfig,
) -> Result<MiningOutput, BoxError> {
    let started = Instant::now();
    layers::validate_traced(tracer, table, config)?;
    let (encoders, intervals) =
        tracer.span("partition.build_encoders", || build_encoders(table, config))?;
    let encoded = tracer.span("table.encode", || EncodedTable::encode(table, encoders))?;
    let mining_started = Instant::now();
    let (frequent, mine) = tracer.span("core.count", || {
        Miner::new(config.clone()).frequent_itemsets(&encoded)
    })?;
    let elapsed_mining = mining_started.elapsed();
    let rules = tracer.span("core.rules", || {
        generate_rules(&frequent, config.min_confidence)
    });
    let (item_supports, interest) = tracer.span("core.interest", || {
        let supports = item_supports_of(&encoded);
        let interest = config
            .interest
            .as_ref()
            .map(|ic| annotate_interest(&rules, &frequent, &supports, ic));
        (supports, interest)
    });
    let rules_interesting = interest
        .as_ref()
        .map_or(rules.len(), |v| v.iter().filter(|x| x.interesting).count());
    let encoded = tracer.span("core.other", || encoded.clone());
    Ok(MiningOutput {
        stats: MiningStats {
            intervals_per_attribute: intervals,
            mine,
            rules_total: rules.len(),
            rules_interesting,
            elapsed: started.elapsed(),
            elapsed_mining,
            encoding_reused: false,
        },
        encoded,
        frequent,
        rules,
        interest,
        item_supports,
    })
}

fn iteration(table: &Table, env: Env<'_>) -> Result<Iteration, BoxError> {
    let Env {
        tracer,
        queries,
        checks,
        layer,
    } = env;
    let config = config();
    let started = Instant::now();
    let checked_before = harness_secs();
    let output = match tracer {
        Some(t) => mine_traced(t, table, &config)?,
        None => Miner::new(config.clone()).mine(table)?,
    };
    let mine_s = secs(started.elapsed());
    if tracer.is_some() {
        layer.set_passes(&output.stats, &output.frequent, &output.encoded);
    }

    let indexed_at = Instant::now();
    let catalog = sp(tracer, "store.catalog", || Catalog::from_mining(&output));
    let index = sp(tracer, "store.index_build", || {
        RuleIndex::build(&catalog, None)
    });
    let first = sp(tracer, "store.query", || {
        execute_query(&index, &FIRST_QUERY)
    });
    let first_query_s = secs(indexed_at.elapsed());

    let (digest, stats, catalog_bytes) = harness(tracer, || {
        let expected = naive_answer(&catalog, &FIRST_QUERY);
        checks.check(first.as_deref().ok() == Some(&expected[..]), || {
            format!("first top-k answer {first:?} differs from the naive ranking")
        });
        (
            catalog_digest(&catalog),
            stats_digest(&output.stats),
            catalog.encode().len() as u64,
        )
    });
    eprintln!(
        "  mined {} rules ({} interesting), candidates {:?}, kernels {}",
        output.stats.rules_total,
        output.stats.rules_interesting,
        output.stats.mine.candidates_per_pass,
        layers::kernels(&output.stats)
    );
    drop(output);
    // The sequence's high-water mark; the replay below only adds the
    // benchmark's own answer buffers.
    let peak_rss_mb = peak_rss_mb();
    queries.replay(&catalog, &index, digest, tracer, checks);
    Ok(Iteration {
        wall_s: secs(started.elapsed()) - (harness_secs() - checked_before),
        mine_s,
        first_query_s,
        catalog_bytes,
        peak_rss_mb,
        mined_digest: digest,
        stats_digest: stats,
    })
}

pub fn run(ctx: &Ctx) -> Result<Report, BoxError> {
    mining::run(
        ctx,
        "credit_rules",
        || {
            Ok(CreditDataset::generate(CreditConfig {
                num_records: RECORDS,
                seed: ctx.seed,
                ..CreditConfig::default()
            })
            .table)
        },
        iteration,
        |table| {
            let output = Miner::new(config())
                .with_kernel(ScanKernel::Direct)
                .mine(table)?;
            Ok((
                catalog_digest(&Catalog::from_mining(&output)),
                stats_digest(&output.stats),
            ))
        },
    )
}
