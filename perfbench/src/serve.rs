//! `serve_refresh`: an in-process `Server` (2 threads) over a catalog
//! with persisted counts, driven as a closed loop by two connections.
//!
//! * The query connection sends the seeded point/range/top-k mix back to
//!   back and times every round trip.
//! * The refresher connection applies [`REFRESHES`] deltas, evenly
//!   spaced over the run's window, each 1% of the rows the catalog holds
//!   when it lands (as `qar bench-update` sizes its delta):
//!   `Miner::update` → catalog encode + write → `Request::Reload`.
//!
//! The table has small value domains and is mined unpartitioned, with
//! every itemset's support at least 0.05 away from minsup, so every
//! delta keeps the update on the incremental path.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use qar_core::{Miner, MinerConfig, PartitionSpec, UpdateInput};
use qar_prng::Prng;
use qar_store::protocol::Query;
use qar_store::serve::ServeClient;
use qar_store::{Catalog, Request, Response, Server, ServerConfig};
use qar_table::{Schema, Table, Value};
use qar_trace::{ProgressSink, TraceEvent};

use crate::common::{
    catalog_digest, interquartile_mean, median, peak_rss_mb, percentile, query_mix, secs,
    AnswerCache, Checks, Digest, QueryReplay, Report,
};
use crate::layers::{self, mine_with_counts_traced, LayerValues};
use crate::trace::{sp, Tracer};
use crate::Ctx;

type BoxError = Box<dyn std::error::Error>;

const BASE_ROWS: usize = 50_000;
/// Deltas per run, whatever its length: every run grows the table by
/// the same 60 steps of 1%, to 90,803 rows.
const REFRESHES: usize = 60;
/// Set-up (base mine, save, bind) repeats; `setup_s` is their median.
const SETUP_REPEATS: usize = 31;
/// Server worker threads (one per connection).
const SERVER_THREADS: usize = 2;
const SLOT: &str = "serve";
const REGIONS: [&str; 4] = ["north", "south", "east", "west"];

fn schema() -> Schema {
    Schema::builder()
        .quantitative("qty")
        .quantitative("price")
        .categorical("region")
        .build()
        .expect("static schema is valid")
}

/// `rows` rows: 40% are the planted `(qty 1, price 10, north)`, the rest
/// uniform over qty 0..=3, price 5/10/15 and the other three regions. A
/// base table starts with rows that sweep every value, so each delta is
/// encodable under the base encoders.
fn table(rows: usize, rng: &mut Prng, sweep: bool) -> Table {
    let mut table = Table::with_capacity(schema(), rows);
    for i in 0..rows {
        let (qty, price, region) = if sweep && i < 12 {
            (i as i64 % 4, 5 + 5 * (i as i64 % 3), REGIONS[i % 4])
        } else if rng.gen_range(0..10u32) < 4 {
            (1, 10, REGIONS[0])
        } else {
            (
                rng.gen_range(0..4i64),
                5 + 5 * rng.gen_range(0..3i64),
                REGIONS[1 + rng.gen_range(0..3usize)],
            )
        };
        table
            .push_row(&[Value::Int(qty), Value::Int(price), Value::from(region)])
            .expect("generated rows match the schema");
    }
    table
}

/// Rows of each delta: 1% of the rows it is appended to.
fn delta_rows() -> Vec<usize> {
    let mut rows = BASE_ROWS;
    (0..REFRESHES)
        .map(|_| {
            let delta = rows / 100;
            rows += delta;
            delta
        })
        .collect()
}

/// Delta `r` (of `rows` rows) of the run with `seed`, generated when it
/// is due.
fn delta(seed: u64, r: usize, rows: usize) -> Table {
    let mut rng = Prng::seed_from_u64(seed ^ (r as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    table(rows, &mut rng, false)
}

/// minsup 25% (the nearest itemset support is 0.05 away), minconf 30%,
/// unpartitioned, itemsets of at most 3 items, default interest.
fn config() -> MinerConfig {
    MinerConfig {
        min_support: 0.25,
        min_confidence: 0.30,
        max_support: 1.0,
        partitioning: PartitionSpec::None,
        max_itemset_size: 3,
        ..MinerConfig::default()
    }
}

/// The server's own load/index timings, from the trace events it
/// already emits (traced runs only).
#[derive(Default)]
struct ServerTimes {
    load_s: Mutex<Vec<f64>>,
    index_s: Mutex<Vec<f64>>,
}

impl ProgressSink for ServerTimes {
    fn on_event(&self, event: &TraceEvent) {
        let (list, us) = match event {
            TraceEvent::CatalogLoaded { elapsed_us, .. } => (&self.load_s, *elapsed_us),
            TraceEvent::IndexBuilt { elapsed_us, .. } => (&self.index_s, *elapsed_us),
            _ => return,
        };
        list.lock()
            .expect("timing list poisoned")
            .push(us as f64 * 1e-6);
    }
}

/// Mine the base, save its catalog to `path`, and bind a server on it.
/// Only the mine is traced: the store and serve spans of a traced run
/// come from its refreshes, which is where they move `mine_s`.
fn setup(
    base: &Table,
    path: &Path,
    tracer: Option<&Tracer>,
    layer: &mut LayerValues,
    sink: Option<Arc<dyn ProgressSink>>,
) -> Result<(Server, Catalog), BoxError> {
    let config = config();
    let (output, counts) = match tracer {
        Some(t) => mine_with_counts_traced(t, base, &config)?,
        None => Miner::new(config.clone()).mine_with_counts(base)?,
    };
    if tracer.is_some() {
        layer.set_passes(&output.stats, &output.frequent, &output.encoded);
    }
    let catalog = Catalog::from_mining(&output).with_counts(counts)?;
    std::fs::write(path, catalog.encode())?;
    let server = Server::bind(
        &[(SLOT.to_string(), path.to_path_buf())],
        &ServerConfig {
            port: 0,
            threads: SERVER_THREADS,
        },
        sink,
    )?;
    Ok((server, catalog))
}

/// One answered query, as the query connection saw it.
struct Sample {
    query: u32,
    generation: u64,
    /// `None` when the server answered with an error.
    ids: Option<u64>,
    /// Receive time, ns since the loop's epoch.
    received_ns: u64,
    rtt_ns: u64,
}

fn ids_digest(ids: &[u32]) -> u64 {
    let mut d = Digest::new();
    d.u64(ids.len() as u64);
    ids.iter().for_each(|&id| d.u64(u64::from(id)));
    d.finish()
}

/// Send the query mix back to back until `stop` is set.
fn query_loop(
    addr: std::net::SocketAddr,
    queries: &[Query],
    stop: &AtomicBool,
    epoch: Instant,
) -> Result<Vec<Sample>, String> {
    let mut client = ServeClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut samples = Vec::with_capacity(1 << 20);
    let mut i = 0usize;
    while !stop.load(Ordering::Acquire) {
        let query = (i % queries.len()) as u32;
        i += 1;
        let request = Request::Query {
            catalog: SLOT.to_string(),
            deadline_ms: None,
            query: queries[query as usize].clone(),
        };
        let sent = Instant::now();
        let response = client
            .request(&request)
            .map_err(|e| format!("query: {e}"))?;
        let rtt_ns = sent.elapsed().as_nanos() as u64;
        let (generation, ids) = match response {
            Response::Ids { generation, ids } => (generation, Some(ids_digest(&ids))),
            _ => (0, None),
        };
        samples.push(Sample {
            query,
            generation,
            ids,
            received_ns: epoch.elapsed().as_nanos() as u64,
            rtt_ns,
        });
    }
    Ok(samples)
}

/// One applied delta.
struct Refresh {
    /// Delta handed over, ns since the loop's epoch.
    handed_ns: u64,
    /// Delta handed over → `Reloaded` acknowledged.
    refresh_s: f64,
    /// Generation the reload reported (0 when it failed).
    generation: u64,
    traced: bool,
}

/// Apply `delta` to the current catalog and reload the server on it.
fn refresh(
    current: &Catalog,
    delta: &Table,
    path: &Path,
    client: &mut ServeClient,
    tracer: Option<&Tracer>,
    checks: &mut Checks,
    fallbacks: &mut u64,
) -> Result<(Catalog, u64), BoxError> {
    let counts = current.counts().ok_or("catalog lost its counts")?;
    let updated = sp(tracer, "core.update", || {
        Miner::new(config()).update(UpdateInput {
            schema: current.schema(),
            encoders: current.encoders(),
            counts,
            delta,
            base_rows: None,
        })
    })?;
    if !updated.incremental {
        *fallbacks += 1;
    }
    checks.check(updated.incremental, || {
        format!("update fell back: {:?}", updated.fallback)
    });
    let catalog = sp(tracer, "store.catalog", || {
        Catalog::from_mining(&updated.output).with_counts(updated.counts)
    })?;
    let bytes = sp(tracer, "store.encode", || catalog.encode());
    sp(tracer, "store.write", || std::fs::write(path, &bytes))?;
    let response = sp(tracer, "serve.reload", || {
        client.request(&Request::Reload {
            catalog: SLOT.to_string(),
        })
    })?;
    let generation = match response {
        Response::Reloaded {
            generation, rules, ..
        } => {
            checks.check(rules == catalog.rules().len() as u64, || {
                format!(
                    "reload reported {rules} rules, catalog has {}",
                    catalog.rules().len()
                )
            });
            generation
        }
        other => {
            checks.error(format!("reload answered {other:?}"));
            0
        }
    };
    Ok((catalog, generation))
}

pub fn run(ctx: &Ctx) -> Result<Report, BoxError> {
    let mut rng = Prng::seed_from_u64(ctx.seed);
    let base = table(BASE_ROWS, &mut rng, true);
    let sizes = delta_rows();
    let spacing = Duration::from_secs_f64(ctx.seconds / (REFRESHES + 1) as f64);
    eprintln!(
        "serve_refresh: {BASE_ROWS} base rows, {REFRESHES} deltas of {}..{} rows every {spacing:?}",
        sizes[0],
        sizes[REFRESHES - 1]
    );
    let path: PathBuf = ctx.work.join(format!("{SLOT}.qarcat"));
    let mut report = Report::default();
    let mut layer = LayerValues::default();
    let tracer = Tracer::new();
    let times = Arc::new(ServerTimes::default());
    let sink = ctx
        .trace
        .then(|| Arc::clone(&times) as Arc<dyn ProgressSink>);

    // Set-up, repeated; the last server is the one that serves.
    let mut setups = Vec::new();
    let mut served = None;
    for k in 0..SETUP_REPEATS {
        let start = Instant::now();
        let bound = if ctx.trace {
            tracer.root("setup", 1_000_000 + k as u64, || {
                setup(&base, &path, Some(&tracer), &mut layer, sink.clone())
            })?
        } else {
            setup(&base, &path, None, &mut layer, None)?
        };
        setups.push(secs(start.elapsed()));
        served = Some(bound);
    }
    let (server, base_catalog) = served.expect("at least one set-up");
    // The program's high-water mark is the base mine; taken here, it
    // leaves out the loop's own sample buffers.
    let peak_rss_mb = peak_rss_mb();
    let addr = server.local_addr();
    let server_thread = std::thread::spawn(move || server.serve());

    let queries = query_mix(&base_catalog, ctx.seed, QueryReplay::MIX);
    let stop = AtomicBool::new(false);
    let epoch = Instant::now();
    // Generation 1 is the catalog the server was bound on.
    let mut catalogs: HashMap<u64, Catalog> = HashMap::from([(1, base_catalog.clone())]);
    let mut applied = Vec::new();
    let mut fallbacks = 0u64;
    let (samples, loop_s) = std::thread::scope(|scope| -> Result<_, BoxError> {
        let query_thread = scope.spawn(|| query_loop(addr, &queries, &stop, epoch));
        let outcome = (|| -> Result<(), BoxError> {
            let mut client = ServeClient::connect(addr)?;
            let mut current = base_catalog.clone();
            for (r, &rows) in sizes.iter().enumerate() {
                let delta = &delta(ctx.seed, r, rows);
                let due = epoch + spacing * (r as u32 + 1);
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                let handed = Instant::now();
                let traced = ctx.trace && r % 2 == 1;
                let (catalog, generation) = if traced {
                    tracer.root("refresh", r as u64, || {
                        refresh(
                            &current,
                            delta,
                            &path,
                            &mut client,
                            Some(&tracer),
                            &mut report.checks,
                            &mut fallbacks,
                        )
                    })?
                } else {
                    refresh(
                        &current,
                        delta,
                        &path,
                        &mut client,
                        None,
                        &mut report.checks,
                        &mut fallbacks,
                    )?
                };
                applied.push(Refresh {
                    handed_ns: handed.duration_since(epoch).as_nanos() as u64,
                    refresh_s: secs(handed.elapsed()),
                    generation,
                    traced,
                });
                catalogs.insert(generation, catalog.clone());
                current = catalog;
            }
            std::thread::sleep(
                (epoch + spacing * (REFRESHES as u32 + 1))
                    .saturating_duration_since(Instant::now()),
            );
            Ok(())
        })();
        stop.store(true, Ordering::Release);
        let samples = query_thread.join().expect("query thread panicked");
        outcome?;
        Ok((samples?, secs(epoch.elapsed())))
    })?;
    let mut client = ServeClient::connect(addr)?;
    let bye = client.request(&Request::Shutdown)?;
    report
        .checks
        .check(matches!(bye, Response::ShuttingDown), || {
            format!("shutdown answered {bye:?}")
        });
    drop(client);
    server_thread.join().expect("server thread panicked")?;

    check(
        &mut report.checks,
        ctx.seed,
        &base,
        &sizes,
        &catalogs,
        &applied,
        &queries,
        &samples,
    )?;

    let final_catalog = applied
        .last()
        .and_then(|r| catalogs.get(&r.generation))
        .ok_or("no refresh was applied")?;
    let rtt_us: Vec<f64> = samples.iter().map(|s| s.rtt_ns as f64 * 1e-3).collect();
    // Freshness: delta handed over → first answer from its generation.
    let fresh_s: Vec<f64> = applied
        .iter()
        .filter_map(|r| {
            let after = samples.partition_point(|s| s.received_ns < r.handed_ns);
            samples[after..]
                .iter()
                .find(|s| s.generation >= r.generation)
                .map(|s| (s.received_ns - r.handed_ns) as f64 * 1e-9)
        })
        .collect();
    eprintln!(
        "  {} queries over {:.2}s, {} refreshes ({} fallbacks), {} rules in the final catalog",
        samples.len(),
        loop_s,
        applied.len(),
        fallbacks,
        final_catalog.rules().len()
    );
    if ctx.trace {
        layer.set("serve.queries_per_s", samples.len() as f64 / loop_s);
        layer.set("serve.query_p50_us", median(&rtt_us));
        layer.set("serve.query_p99_us", percentile(&rtt_us, 99.0));
        layer.set("core.update.fallbacks", fallbacks as f64);
        let timing = |list: &Mutex<Vec<f64>>| {
            let list = list.lock().expect("timing list poisoned");
            if list.is_empty() {
                0.0
            } else {
                median(&list)
            }
        };
        layer.set("store.load_s", timing(&times.load_s));
        layer.set("store.index_build_s", timing(&times.index_s));
        let (mut replay, mut replay_checks) = (QueryReplay::new(ctx.seed), Checks::default());
        let index = qar_store::RuleIndex::build(final_catalog, None);
        let digest = catalog_digest(final_catalog);
        tracer.root("replay", 2_000_000, || {
            replay.replay(
                final_catalog,
                &index,
                digest,
                Some(&tracer),
                &mut replay_checks,
            )
        });
        report.checks.attempted += replay_checks.attempted;
        report.checks.failed += replay_checks.failed;
        report.checks.failures.extend(replay_checks.failures);
        layer.set(
            "store.query_us",
            tracer.median_duration("store.query") * 1e6,
        );
        layer.set("trace.coverage", tracer.coverage("refresh"));
        let med = |traced: bool| {
            median(
                &applied
                    .iter()
                    .filter(|r| r.traced == traced)
                    .map(|r| r.refresh_s)
                    .collect::<Vec<_>>(),
            )
        };
        layer.set("trace.overhead", med(true) / med(false));
        layer.set("trace.residual_s", med(false) - med(true));
        let (counts_bytes, rules_bytes) = layers::section_bytes(&final_catalog.encode())?;
        layer.set("store.counts_bytes", counts_bytes as f64);
        layer.set("store.rules_bytes", rules_bytes as f64);
        tracer.write(&crate::trace_path("serve_refresh", ctx.seed))?;
        layer.finish(&tracer, &mut report);
    } else {
        let refresh_s: Vec<f64> = applied.iter().map(|r| r.refresh_s).collect();
        report.push("setup_s", median(&setups), "s");
        report.push("mine_s", interquartile_mean(&refresh_s), "s");
        report.push("first_query_s", interquartile_mean(&fresh_s), "s");
        report.push(
            "catalog_bytes",
            final_catalog.encode().len() as f64,
            "bytes",
        );
        report.push("peak_rss_mb", peak_rss_mb, "MB");
    }
    Ok(report)
}

/// Every response equals the naive answer on the generation it reports;
/// the final catalog equals a scratch mine of base plus all deltas.
#[allow(clippy::too_many_arguments)]
fn check(
    checks: &mut Checks,
    seed: u64,
    base: &Table,
    sizes: &[usize],
    catalogs: &HashMap<u64, Catalog>,
    applied: &[Refresh],
    queries: &[Query],
    samples: &[Sample],
) -> Result<(), BoxError> {
    let mut expected = AnswerCache::default();
    for s in samples {
        let Some(got) = s.ids else {
            checks.error(format!("query {} answered with an error", s.query));
            continue;
        };
        let Some(catalog) = catalogs.get(&s.generation) else {
            checks.error(format!("answer from unknown generation {}", s.generation));
            continue;
        };
        let want = ids_digest(expected.get(s.generation, catalog, queries, s.query as usize));
        checks.check(got == want, || {
            format!(
                "query {} on generation {} differs from the naive scan",
                s.query, s.generation
            )
        });
    }

    let mut combined =
        Table::with_capacity(schema(), base.num_rows() + sizes.iter().sum::<usize>());
    let mut append = |part: &Table| -> Result<(), BoxError> {
        for row in part.rows() {
            combined.push_row(&row.to_values())?;
        }
        Ok(())
    };
    append(base)?;
    for (r, &rows) in sizes.iter().enumerate().take(applied.len()) {
        append(&delta(seed, r, rows))?;
    }
    let (output, counts) = Miner::new(config()).mine_with_counts(&combined)?;
    let scratch = Catalog::from_mining(&output).with_counts(counts)?;
    let last = applied.last().and_then(|r| catalogs.get(&r.generation));
    checks.check(last.is_some_and(|c| c.content_eq(&scratch)), || {
        "final catalog differs from a scratch mine of base plus deltas".into()
    });
    Ok(())
}
