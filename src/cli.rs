//! Command-line interface support for the `qar` binary.
//!
//! Kept in the library so the parsing and plumbing are unit-testable; the
//! binary in `src/bin/qar.rs` is a thin `main`.
//!
//! ```text
//! qar mine  --input data.csv --schema age:quant,married:cat [options]
//! qar generate credit|people|planted --records N [--seed S] [--output f]
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use qar_analytics::AnalyticsConfig;
use qar_core::{
    encoding_fingerprint, mine_source, mine_source_captured, update_precheck, CapturedCounts,
    ChunkedSource, CountError, CountSource, Counted, InMemorySource, InterestConfig, InterestMode,
    MergeSource, Miner, MinerConfig, MinerError, MiningOutput, PairGrid, PartitionSpec,
    PartitionStrategy, QuantRule, RuleInterest, ScanKernel, SupportCounts, UpdateInput,
};
use qar_dist::{Backing, DistOptions, DistSource, WorkerSpawn};
use qar_prng::Prng;
use qar_store::protocol::{Query, QueryOptions, Request, Response};
use qar_store::serve::ServeClient;
use qar_store::{
    analytics_from_encoded, analytics_from_mining, section_inventory, Catalog, RankBy, RuleIndex,
    Server, ServerConfig,
};
use qar_table::{csv, AttributeKind, EncodedTable, Schema, SchemaBuilder, Table, Value};
use qar_trace::{event::micros, CancelToken, ProgressSink, TraceEvent, TraceFormat, WriterSink};

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Mine rules from a CSV file.
    Mine(MineArgs),
    /// Generate a synthetic dataset as CSV.
    Generate(GenerateArgs),
    /// Validate a JSON-lines trace stream against the event schema.
    TraceCheck(TraceCheckArgs),
    /// Query a stored rule catalog.
    Query(QueryArgs),
    /// Backfill rule analytics into an existing catalog.
    Analyze(AnalyzeArgs),
    /// Validate a `.qarcat` catalog file.
    StoreCheck(StoreCheckArgs),
    /// Differentially fuzz every mining path against its references.
    Fuzz(FuzzArgs),
    /// Serve one or more catalogs over TCP.
    Serve(ServeArgs),
    /// Benchmark a rule server with concurrent clients.
    BenchServe(BenchServeArgs),
    /// Benchmark the analytics subsystem (closed-form + Shapley).
    BenchAnalytics(BenchAnalyticsArgs),
    /// Benchmark count-distribution counting against the serial scan.
    BenchDist(BenchDistArgs),
    /// Benchmark an incremental catalog update against a full re-mine.
    BenchUpdate(BenchUpdateArgs),
    /// Run as a counting worker connected to a mine coordinator.
    Worker(WorkerArgs),
    /// Print usage.
    Help,
}

/// Arguments of `qar worker`.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerArgs {
    /// Coordinator address (`HOST:PORT`) to connect to.
    pub connect: String,
    /// Threads per counting scan (0 = all cores).
    pub threads: usize,
    /// Pinned scan kernel for candidate counting (`None`: each pass
    /// picks its own).
    pub kernel: Option<ScanKernel>,
}

/// Arguments of `qar bench-dist`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDistArgs {
    /// Planted-dataset records the benchmark table holds.
    pub records: usize,
    /// Worker partitions the counting is distributed over.
    pub workers: usize,
    /// Minimum counting speedup; the run fails below this (0 = off).
    pub floor: f64,
    /// Where the machine-readable summary JSON goes; `None` falls back
    /// to `$QAR_BENCH_OUT`, then `BENCH_dist.json`.
    pub out: Option<String>,
}

/// Arguments of `qar bench-update`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchUpdateArgs {
    /// Base-table records mined (with counts) before the delta arrives.
    pub records: usize,
    /// Appended delta size, as a fraction of the base table.
    pub delta: f64,
    /// Minimum update-vs-remine speedup; the run fails below this
    /// (0 = off).
    pub floor: f64,
    /// Where the machine-readable summary JSON goes; `None` falls back
    /// to `$QAR_BENCH_OUT`, then `BENCH_update.json`.
    pub out: Option<String>,
}

/// Arguments of `qar mine`.
#[derive(Debug, Clone, PartialEq)]
pub struct MineArgs {
    /// CSV path ("-" = stdin).
    pub input: String,
    /// Attribute declarations, `name:quant` / `name:cat`, in CSV header
    /// order (any order relative to the file's header is fine — matching
    /// is by name).
    pub schema: Vec<(String, bool)>,
    /// Miner configuration assembled from the flags.
    pub config: MinerConfig,
    /// Print at most this many rules (0 = all).
    pub top: usize,
    /// Show only interesting rules when an interest level is set.
    pub interesting_only: bool,
    /// Output format.
    pub format: OutputFormat,
    /// Taxonomy files: `(attribute, path)` pairs from `--taxonomy a=path`.
    pub taxonomy_files: Vec<(String, String)>,
    /// Emit per-pass trace events to stderr in this format.
    pub trace: Option<TraceFormat>,
    /// Abort the run after this many seconds, reporting partial progress.
    pub deadline: Option<f64>,
    /// Also write the mined ruleset to this `.qarcat` catalog file.
    pub store: Option<String>,
    /// Compute rule analytics (lift, conviction, chi², J-measure,
    /// Shapley attribution) and persist them in the stored catalog.
    pub analytics: bool,
    /// Distribute the counting passes over this many worker processes
    /// (0 = mine serially in this process).
    pub workers: usize,
    /// Stream the CSV in row blocks of this size and spill encoded
    /// chunks to disk instead of loading the table into memory
    /// (0 = in-memory).
    pub chunk_rows: usize,
    /// Zero the volatile statistics (timings, kernels) before storing or
    /// reporting, so identical inputs give byte-identical catalogs.
    pub normalize_stats: bool,
    /// Incremental mode: update this existing `.qarcat` catalog by
    /// scanning only the delta rows in `--input`, merging them with the
    /// catalog's persisted support counts. The catalog's schema and
    /// semantic configuration are authoritative; the refreshed catalog is
    /// rewritten in place unless `--store` redirects it.
    pub update: Option<String>,
}

/// Arguments of `qar trace-check`.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceCheckArgs {
    /// Trace file to validate; `-` (the default) reads stdin.
    pub input: String,
    /// Schema file path; `None` uses the checked-in default
    /// (`schemas/trace_events.schema.json`).
    pub schema: Option<String>,
}

/// Arguments of `qar query`.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryArgs {
    /// Catalog path (`-` = stdin).
    pub catalog: String,
    /// Point query: `attr=value,...` — rules whose antecedents cover
    /// this record.
    pub record: Option<String>,
    /// Overlap query: `attr=lo..hi` — rules mentioning this value range.
    pub range: Option<String>,
    /// Keep only the first N rules after ranking (`None` = all).
    pub top_k: Option<usize>,
    /// Ranking metric; `None` preserves the catalog's mined order.
    pub by: Option<RankBy>,
    /// Keep only rules with `lift >= min_lift` (needs analytics).
    pub min_lift: Option<f64>,
    /// Keep only rules with BH-adjusted `p <= max_p` (needs analytics).
    pub max_p: Option<f64>,
    /// Output format.
    pub format: OutputFormat,
    /// Emit store trace events (catalog load, index build) to stderr.
    pub trace: Option<TraceFormat>,
}

/// Arguments of `qar analyze`.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzeArgs {
    /// Catalog file to backfill (a real path — it is rewritten in place
    /// unless `--output` redirects).
    pub catalog: String,
    /// The catalog's source data as CSV (`-` = stdin); must have the
    /// same row count the catalog was mined from.
    pub input: String,
    /// Monte-Carlo permutations per rule for the Shapley attribution.
    pub samples: u32,
    /// Base seed for the deterministic Shapley sampler.
    pub seed: u64,
    /// Destination path; `None` rewrites the catalog in place.
    pub output: Option<String>,
    /// Emit store trace events to stderr in this format.
    pub trace: Option<TraceFormat>,
}

/// Arguments of `qar bench-analytics`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchAnalyticsArgs {
    /// Planted-dataset records to mine the benchmark ruleset from.
    pub records: usize,
    /// Shapley samples per rule in the attribution timing.
    pub samples: u32,
    /// Minimum closed-form rules/sec; the run fails below this (0 = off).
    pub floor: f64,
    /// Where the machine-readable summary JSON goes; `None` falls back
    /// to `$QAR_BENCH_OUT`, then `BENCH_analytics.json`.
    pub out: Option<String>,
}

/// Arguments of `qar store-check`.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreCheckArgs {
    /// Catalog file to validate; `-` (the default) reads stdin.
    pub input: String,
}

/// Arguments of `qar fuzz`.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzArgs {
    /// Number of fuzz iterations.
    pub iters: u64,
    /// Base RNG seed; each iteration derives its own replayable seed.
    pub seed: u64,
    /// Directory minimized repro fixtures are written to.
    pub out: String,
}

/// Arguments of `qar serve`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// `.qarcat` paths to serve; each becomes a slot named after its
    /// file stem.
    pub catalogs: Vec<String>,
    /// TCP port on 127.0.0.1 (0 lets the OS pick; the bound address is
    /// printed on startup).
    pub port: u16,
    /// Connection worker threads (0 = one per CPU). Each live connection
    /// occupies one worker, so size this to the expected concurrent
    /// client count.
    pub threads: usize,
    /// Emit server trace events to stderr in this format.
    pub trace: Option<TraceFormat>,
}

/// Arguments of `qar bench-serve`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchServeArgs {
    /// Benchmark an already-running server at this address instead of
    /// spinning one up in-process.
    pub addr: Option<String>,
    /// Catalog the workload queries are drawn from. Required context for
    /// realistic queries; without it (addr mode only) the workload falls
    /// back to a generic query space.
    pub catalog: Option<String>,
    /// Concurrent client connections.
    pub clients: usize,
    /// Requests sent per client.
    pub requests: usize,
    /// Server worker threads in self-hosted mode (0 = one per client).
    pub threads: usize,
    /// Minimum aggregate queries/sec; the run fails below this (0 = off).
    pub floor: f64,
    /// Send a shutdown frame to an `--addr` server when done.
    pub shutdown: bool,
    /// Where the machine-readable summary JSON goes; `None` falls back
    /// to `$QAR_BENCH_OUT`, then `BENCH_serve.json`.
    pub out: Option<String>,
}

/// Output format for `qar mine`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputFormat {
    /// Human-readable report (default).
    #[default]
    Text,
    /// CSV with one rule per line.
    Csv,
    /// A JSON array of rule objects.
    Json,
}

/// Arguments of `qar generate`.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerateArgs {
    /// Which dataset: "credit", "people", or "planted".
    pub dataset: String,
    /// Number of records (ignored for "people").
    pub records: usize,
    /// RNG seed.
    pub seed: u64,
    /// Output path ("-" = stdout).
    pub output: String,
}

/// CLI errors with user-facing messages.
#[derive(Debug, Clone, PartialEq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Usage text.
pub const USAGE: &str = "\
qar — mine quantitative association rules (Srikant & Agrawal, SIGMOD '96)

USAGE:
  qar mine --input FILE --schema DECLS [options]
  qar generate DATASET [--records N] [--seed S] [--output FILE]
  qar query CATALOG [--record K=V,...|--range A=LO..HI] [--top-k N] [--by M]
  qar analyze CATALOG --input FILE [--samples N] [--seed S] [--output FILE]
  qar store-check [CATALOG]
  qar trace-check [TRACE] [--schema FILE]
  qar fuzz [--iters N] [--seed S] [--out DIR]
  qar serve CATALOG... [--port P] [--threads N] [--trace F]
  qar worker --connect HOST:PORT [--threads N] [--kernel K]
  qar bench-serve [--addr HOST:PORT] [--catalog FILE] [options]
  qar bench-analytics [--records N] [--samples N] [--floor R] [--out FILE]
  qar bench-dist [--records N] [--workers W] [--floor R] [--out FILE]
  qar bench-update [--records N] [--delta F] [--floor R] [--out FILE]
  qar help

MINE OPTIONS:
  --input FILE          CSV file with a header row (\"-\" for stdin)
  --schema DECLS        comma-separated `name:quant` / `name:cat`
  --minsup F            minimum support fraction        [default 0.2]
  --minconf F           minimum confidence              [default 0.25]
  --maxsup F            maximum combined-range support  [default 0.4]
  --completeness K      partial completeness level      [default 2.0]
  --intervals N         fixed interval count (overrides --completeness)
  --no-partition        mine raw values (small domains only)
  --strategy S          equidepth | equiwidth | kmeans  [default equidepth]
  --interest R          interest level (> 1); omit to keep all rules
  --interest-mode M     and | or                        [default or]
  --max-size K          cap itemset size (0 = unbounded)
  --threads N           counting worker threads (0 = all cores) [default 0]
  --kernel K            pin the scan kernel: direct | bitmask (unpinned,
                        each pass picks one from its super-candidates);
                        a bitmask pin costs O(member rectangles x rows)
                        per pass
  --top N               print at most N rules (0 = all) [default 50]
  --all-rules           print pruned rules too (with a * marker)
  --format F            text | csv | json               [default text]
                        (csv/json always export ALL rules with verdicts)
  --taxonomy A=FILE     is-a taxonomy for categorical attribute A; FILE has
                        one `child,parent` edge per line (repeatable)
  --trace F             emit per-pass trace events to stderr: json | text
  --deadline SECS       abort after SECS seconds, reporting partial progress
  --store FILE          also write the ruleset to FILE as a .qarcat catalog
                        (query it later with `qar query`, no re-mining)
  --analytics           compute rule analytics (lift, conviction, leverage,
                        chi² + BH-adjusted p, J-measure, Shapley attribution)
                        from the mine's own counts and persist them in the
                        stored catalog (requires --store; incompatible with
                        --workers / --chunk-rows)
  --workers N           distribute the counting passes over N worker
                        processes (spawned from this binary as
                        `qar worker`); candidate generation, frequency
                        decisions, and rule generation stay in the
                        coordinator, and the result is bit-identical to a
                        serial run                      [default 0 = serial]
  --chunk-rows N        stream the CSV in N-row blocks and spill encoded
                        chunks to a temp directory, mining out-of-core
                        with one chunk in memory at a time; needs a real
                        --input file (read twice)    [default 0 = in-memory]
  --normalize-stats     zero the volatile statistics (timings, kernel
                        names) before storing/reporting so identical
                        inputs give byte-identical .qarcat catalogs
                        across serial, --workers, and --chunk-rows runs
  --update CATALOG      incremental mode: treat --input as the rows
                        APPENDED since CATALOG was mined, scan only
                        them, and merge with the catalog's persisted
                        support counts (a catalog stored by `qar mine
                        --store` carries them). Schema, thresholds, and
                        partitioning come from the catalog, so the
                        corresponding flags are rejected; the refreshed
                        catalog rewrites CATALOG in place unless --store
                        redirects it. The result is identical to mining
                        base+delta from scratch; when the delta would
                        change the encoding (interval repartitioning, an
                        unseen value) or a support crosses a threshold,
                        the update stops with an `incremental_fallback`
                        trace event and an error naming the reason —
                        re-mine from the full data then

GENERATE:
  DATASET               credit | people | planted
  --records N           number of records               [default 10000]
  --seed S              RNG seed                        [default 1996]
  --output FILE         destination (\"-\" for stdout)  [default -]

QUERY:
  CATALOG               .qarcat file written by `qar mine --store`
                        (\"-\" reads the catalog from stdin)
  --record K=V,...      rules that FIRE for this record: every antecedent
                        item is satisfied by the record's value on that
                        attribute
  --range A=LO..HI      rules MENTIONING quantitative attribute A on
                        [LO, HI] (either rule side, bounds inclusive)
  --top-k N             keep only the first N rules after ranking (0 = all)
  --by M                rank by support | confidence | interest, or — with
                        an analytics section — lift | conviction | chi2 |
                        jmeasure   [default: the catalog's mined order]
  --min-lift F          keep only rules with lift >= F (needs analytics)
  --max-p F             keep only rules with BH-adjusted p <= F (needs
                        analytics)
  --format F            text | csv | json               [default text]

ANALYZE:
  Backfills the ANALYTICS section into a catalog mined before analytics
  existed (or re-computes it with different sampling). Re-encodes the
  catalog's source CSV with the catalog's own encoders and counts
  support by direct scan; the result is bit-identical to what
  `qar mine --analytics` would have stored.
  CATALOG               .qarcat file to annotate (rewritten in place)
  --input FILE          the catalog's source data as CSV (\"-\" = stdin);
                        row count must match the catalog
  --samples N           Shapley permutations per rule     [default 64]
  --seed S              Shapley sampler base seed
  --output FILE         write the annotated catalog here instead of
                        rewriting CATALOG in place
  --trace F             emit store trace events to stderr: json | text

STORE-CHECK:
  Decodes a .qarcat catalog (\"-\" or no argument reads stdin), verifying
  magic, version, section checksums, and structural invariants, then
  prints a summary and a section inventory (tag, length, CRC verdict,
  and how many unknown trailing sections this version skips). Exits
  non-zero on any corruption.

TRACE-CHECK:
  Reads a JSON-lines trace stream (as written by --trace json) from TRACE
  (\"-\" or no argument reads stdin) and validates every event against the
  trace-event schema.
  --schema FILE         schema to validate against
                        [default schemas/trace_events.schema.json]

FUZZ:
  Draws random tables and configurations (skewed toward boundary cases)
  and cross-checks every mining path — serial, parallel, the brute-force
  reference, the apriori bridge, the catalog round trip, and both scan
  kernels (pinned and by the default rule) on duplicate-heavy,
  boundary-skewed and rectangle-heavy tables — for agreement. On divergence the failing
  case is shrunk to a minimal repro and written as a fixture under
  --out; the exit code is non-zero.
  --iters N             fuzz iterations                 [default 200]
  --seed S              base RNG seed (each iteration derives a
                        replayable per-case seed)       [default 42]
  --out DIR             fixture directory    [default tests/fuzz_repros]

SERVE:
  Long-lived rule-serving daemon on 127.0.0.1. Loads each CATALOG into a
  slot named after its file stem and answers point / range / top-k /
  batch queries over a length-prefixed, CRC-framed TCP protocol (see
  DESIGN.md §12). Prints `listening on ADDR` once bound, then blocks.
  Stop it with a shutdown frame (`qar bench-serve --addr A --shutdown`).
  Catalogs hot-reload in place on a reload frame; in-flight queries
  finish on the old snapshot.
  --port P              TCP port (0 = OS-assigned)      [default 0]
  --threads N           connection workers (0 = one per CPU); each live
                        connection occupies one worker  [default 0]
  --trace F             emit server trace events to stderr: json | text

WORKER:
  Counting worker for distributed mining. Connects to a `qar mine
  --workers N` coordinator, receives the schema, encoders, and its row
  partition over the wire, and answers per-pass counting requests with
  raw u64 tallies until the coordinator shuts it down. Normally spawned
  by the coordinator itself; run it by hand only to place workers on
  other machines or debug the protocol.
  --connect HOST:PORT   coordinator address (required)
  --threads N           threads per counting scan (0 = all cores)
  --kernel K            pin the scan kernel: direct | bitmask
                        [default: each pass picks one]

BENCH-SERVE:
  Drives a mixed point/range/top-k/batch workload from concurrent client
  connections, reports p50/p99 request latency and aggregate throughput,
  and writes a summary JSON line to BENCH_serve.json. Without --addr it
  mines a planted catalog and serves it in-process on an OS-assigned
  port. Exits non-zero below the throughput floor.
  --addr HOST:PORT      benchmark an already-running server
  --catalog FILE        catalog to draw realistic queries from (used as
                        the slot name via its file stem; in self-hosted
                        mode also the catalog served)
  --clients N           concurrent connections          [default 8]
  --requests M          requests per client             [default 2000]
                        (QAR_BENCH_QUICK=1 caps this at 300)
  --threads N           self-hosted server workers (0 = one per client)
  --floor Q             fail under Q aggregate queries/sec (0 = off)
                        [default 50000]
  --shutdown            send a shutdown frame to an --addr server after
                        the run
  --out FILE            summary JSON destination
                        [default $QAR_BENCH_OUT, then BENCH_serve.json]

BENCH-ANALYTICS:
  Mines a planted catalog, then times the analytics subsystem: the
  closed-form measures (lift, conviction, leverage, chi² + p, J-measure,
  BH correction) as rules/sec and the Monte-Carlo Shapley attribution as
  samples/sec. Writes a summary JSON line to BENCH_analytics.json.
  Exits non-zero below the closed-form floor.
  --records N           planted records to mine         [default 5000]
                        (QAR_BENCH_QUICK=1 caps this at 1000)
  --samples N           Shapley permutations per rule   [default 64]
  --floor R             fail under R closed-form rules/sec (0 = off)
                        [default 500]
  --out FILE            summary JSON destination
                        [default $QAR_BENCH_OUT, then BENCH_analytics.json]

BENCH-DIST:
  Measures what count distribution buys per pass: mines a planted table
  once, timing every counting pass twice — a single serial scan over the
  whole table, and the distributed critical path (the slowest of W
  equal contiguous partitions scanned with the same single-threaded
  kernel, plus the coordinator's element-wise merge). The reported
  speedup = serial / (critical path + merge) isolates the algorithmic
  gain from host core count, so it holds on a single-core machine; it
  still falls below W when merge overhead or partition skew eats the
  margin. Every pass asserts the merged partition counts equal the
  serial counts. Writes a summary JSON line to BENCH_dist.json and
  exits non-zero below the floor.
  --records N           planted records to mine      [default 10000000]
                        (QAR_BENCH_QUICK=1 caps this at 200000)
  --workers W           partitions to distribute over   [default 2]
  --floor R             fail under speedup R (0 = off)  [default 1.6]
  --out FILE            summary JSON destination
                        [default $QAR_BENCH_OUT, then BENCH_dist.json]

BENCH-UPDATE:
  Measures what persisted counts buy: synthesizes a small-domain table,
  mines the base with count capture, appends a --delta fraction of new
  rows, then times a full re-mine of base+delta against an incremental
  `--update` (delta-only scan merged with the persisted counts). Every
  run asserts the update stayed on the incremental path and produced
  counts identical to the from-scratch mine. Writes a summary JSON line
  to BENCH_update.json and exits non-zero below the floor.
  --records N           base-table records              [default 1000000]
                        (QAR_BENCH_QUICK=1 caps this at 50000)
  --delta F             appended fraction of the base   [default 0.01]
  --floor R             fail under speedup R (0 = off)  [default 5.0]
  --out FILE            summary JSON destination
                        [default $QAR_BENCH_OUT, then BENCH_update.json]
";

/// Split an optional leading positional argument (anything not starting
/// with `--`) from the flags that follow. Returns the positional (or
/// `default` when absent) and the remaining args.
fn positional_then_flags<'a>(args: &'a [String], default: &str) -> (String, &'a [String]) {
    match args.first() {
        Some(a) if !a.starts_with("--") => (a.clone(), &args[1..]),
        _ => (default.to_string(), args),
    }
}

fn parse_flag_map(args: &[String]) -> Result<BTreeMap<String, String>, CliError> {
    let mut map: BTreeMap<String, String> = BTreeMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if !a.starts_with("--") {
            return Err(err(format!(
                "unexpected argument `{a}` (expected a --flag)"
            )));
        }
        let key = a.trim_start_matches("--").to_string();
        // Boolean flags take no value.
        if key == "no-partition"
            || key == "all-rules"
            || key == "shutdown"
            || key == "analytics"
            || key == "normalize-stats"
        {
            map.insert(key, "true".into());
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| err(format!("flag --{key} needs a value")))?;
        if key == "taxonomy" {
            // Repeatable flag: accumulate with a separator no path contains.
            match map.get_mut(&key) {
                Some(existing) => {
                    existing.push('\x1f');
                    existing.push_str(value);
                }
                None => {
                    map.insert(key, value.clone());
                }
            }
        } else {
            map.insert(key, value.clone());
        }
        i += 2;
    }
    Ok(map)
}

fn parse_f64(map: &BTreeMap<String, String>, key: &str, default: f64) -> Result<f64, CliError> {
    match map.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| err(format!("--{key}: `{v}` is not a number"))),
    }
}

fn parse_opt_f64(map: &BTreeMap<String, String>, key: &str) -> Result<Option<f64>, CliError> {
    match map.get(key) {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| err(format!("--{key}: `{v}` is not a number"))),
    }
}

/// The `--kernel` pin, if any (absent: each pass picks its own).
fn parse_kernel(map: &BTreeMap<String, String>) -> Result<Option<ScanKernel>, CliError> {
    map.get("kernel")
        .map(|v| {
            ScanKernel::parse(v)
                .ok_or_else(|| err(format!("--kernel: `{v}` is not direct or bitmask")))
        })
        .transpose()
}

fn parse_usize(
    map: &BTreeMap<String, String>,
    key: &str,
    default: usize,
) -> Result<usize, CliError> {
    match map.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| err(format!("--{key}: `{v}` is not an integer"))),
    }
}

/// Parse `name:quant,name:cat,...` declarations.
pub fn parse_schema_decls(decls: &str) -> Result<Vec<(String, bool)>, CliError> {
    let mut out = Vec::new();
    for part in decls.split(',') {
        let (name, kind) = part.split_once(':').ok_or_else(|| {
            err(format!(
                "schema entry `{part}` must be name:quant or name:cat"
            ))
        })?;
        let quant = match kind.trim() {
            "quant" | "q" | "quantitative" => true,
            "cat" | "c" | "categorical" => false,
            other => return Err(err(format!("unknown attribute kind `{other}`"))),
        };
        if name.trim().is_empty() {
            return Err(err("empty attribute name in schema"));
        }
        out.push((name.trim().to_string(), quant));
    }
    if out.is_empty() {
        return Err(err("schema has no attributes"));
    }
    Ok(out)
}

/// Build a [`Schema`] from parsed declarations.
pub fn build_schema(decls: &[(String, bool)]) -> Result<Schema, CliError> {
    let mut builder: SchemaBuilder = Schema::builder();
    for (name, quant) in decls {
        builder = if *quant {
            builder.quantitative(name.clone())
        } else {
            builder.categorical(name.clone())
        };
    }
    builder.build().map_err(|e| err(e.to_string()))
}

/// Parse a full command line (without the program name).
pub fn parse_command(args: &[String]) -> Result<Command, CliError> {
    let Some(verb) = args.first() else {
        return Ok(Command::Help);
    };
    match verb.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "mine" => {
            let map = parse_flag_map(&args[1..])?;
            let input = map
                .get("input")
                .cloned()
                .ok_or_else(|| err("mine requires --input FILE"))?;
            let update = map.get("update").cloned();
            let schema = if update.is_some() {
                // The catalog's persisted counts pin the schema and every
                // semantic knob; re-specifying any of them on an update
                // would silently disagree with what the counts mean.
                for key in [
                    "schema",
                    "minsup",
                    "minconf",
                    "maxsup",
                    "completeness",
                    "intervals",
                    "no-partition",
                    "strategy",
                    "interest",
                    "interest-mode",
                    "max-size",
                    "taxonomy",
                ] {
                    if map.contains_key(key) {
                        return Err(err(format!(
                            "--{key} cannot be combined with --update: the schema, thresholds, \
                             and partitioning come from the catalog's persisted counts"
                        )));
                    }
                }
                Vec::new()
            } else {
                parse_schema_decls(
                    map.get("schema")
                        .ok_or_else(|| err("mine requires --schema DECLS"))?,
                )?
            };
            let partitioning = if map.contains_key("no-partition") {
                PartitionSpec::None
            } else if let Some(n) = map.get("intervals") {
                PartitionSpec::FixedIntervals(
                    n.parse()
                        .map_err(|_| err(format!("--intervals: `{n}` is not an integer")))?,
                )
            } else {
                PartitionSpec::CompletenessLevel(parse_f64(&map, "completeness", 2.0)?)
            };
            let partition_strategy = match map.get("strategy").map(String::as_str) {
                None | Some("equidepth") => PartitionStrategy::EquiDepth,
                Some("equiwidth") => PartitionStrategy::EquiWidth,
                Some("kmeans") => PartitionStrategy::KMeans,
                Some(other) => return Err(err(format!("unknown strategy `{other}`"))),
            };
            let interest = match map.get("interest") {
                None => None,
                Some(v) => {
                    let level: f64 = v
                        .parse()
                        .map_err(|_| err(format!("--interest: `{v}` is not a number")))?;
                    let mode = match map.get("interest-mode").map(String::as_str) {
                        None | Some("or") => InterestMode::SupportOrConfidence,
                        Some("and") => InterestMode::SupportAndConfidence,
                        Some(other) => return Err(err(format!("unknown interest mode `{other}`"))),
                    };
                    Some(InterestConfig {
                        level,
                        mode,
                        prune_candidates: mode == InterestMode::SupportAndConfidence,
                    })
                }
            };
            let config = MinerConfig {
                min_support: parse_f64(&map, "minsup", 0.2)?,
                min_confidence: parse_f64(&map, "minconf", 0.25)?,
                max_support: parse_f64(&map, "maxsup", 0.4)?,
                partitioning,
                partition_strategy,
                taxonomies: Default::default(),
                interest,
                max_itemset_size: parse_usize(&map, "max-size", 0)?,
                parallelism: std::num::NonZeroUsize::new(parse_usize(&map, "threads", 0)?),
                kernel: parse_kernel(&map)?,
            };
            config.validate().map_err(|e| err(e.to_string()))?;
            let format = match map.get("format").map(String::as_str) {
                None | Some("text") => OutputFormat::Text,
                Some("csv") => OutputFormat::Csv,
                Some("json") => OutputFormat::Json,
                Some(other) => return Err(err(format!("unknown format `{other}`"))),
            };
            let mut taxonomy_files = Vec::new();
            if let Some(spec) = map.get("taxonomy") {
                for entry in spec.split('\x1f') {
                    let (attr, path) = entry.split_once('=').ok_or_else(|| {
                        err(format!("--taxonomy `{entry}` must be attribute=file"))
                    })?;
                    taxonomy_files.push((attr.trim().to_string(), path.trim().to_string()));
                }
            }
            let trace = match map.get("trace") {
                None => None,
                Some(v) => Some(
                    v.parse::<TraceFormat>()
                        .map_err(|_| err(format!("--trace: `{v}` is not json or text")))?,
                ),
            };
            let deadline = match map.get("deadline") {
                None => None,
                Some(v) => {
                    let secs: f64 = v
                        .parse()
                        .map_err(|_| err(format!("--deadline: `{v}` is not a number")))?;
                    if !secs.is_finite() || secs <= 0.0 {
                        return Err(err(format!("--deadline must be positive, got {v}")));
                    }
                    Some(secs)
                }
            };
            let analytics = map.contains_key("analytics");
            // An update rewrites its catalog in place, so it has a
            // destination for the analytics even without --store.
            if analytics && !map.contains_key("store") && update.is_none() {
                return Err(err(
                    "--analytics requires --store FILE (analytics are persisted in the catalog)",
                ));
            }
            let workers = parse_usize(&map, "workers", 0)?;
            let chunk_rows = parse_usize(&map, "chunk-rows", 0)?;
            if analytics && (workers > 0 || chunk_rows > 0) {
                return Err(err(
                    "--analytics needs the full in-memory table; drop --workers/--chunk-rows \
                     or backfill the catalog later with `qar analyze`",
                ));
            }
            if chunk_rows > 0 && input == "-" {
                return Err(err(
                    "--chunk-rows streams the input twice (stats pass, then spill pass), \
                     so it needs a real --input file, not stdin",
                ));
            }
            Ok(Command::Mine(MineArgs {
                input,
                schema,
                config,
                top: parse_usize(&map, "top", 50)?,
                interesting_only: !map.contains_key("all-rules"),
                format,
                taxonomy_files,
                trace,
                deadline,
                store: map.get("store").cloned(),
                analytics,
                workers,
                chunk_rows,
                normalize_stats: map.contains_key("normalize-stats"),
                update,
            }))
        }
        "worker" => {
            let map = parse_flag_map(&args[1..])?;
            for key in map.keys() {
                if !["connect", "threads", "kernel"].contains(&key.as_str()) {
                    return Err(err(format!("worker does not take --{key}")));
                }
            }
            let connect = map
                .get("connect")
                .cloned()
                .ok_or_else(|| err("worker requires --connect HOST:PORT"))?;
            Ok(Command::Worker(WorkerArgs {
                connect,
                threads: parse_usize(&map, "threads", 0)?,
                kernel: parse_kernel(&map)?,
            }))
        }
        "generate" => {
            let dataset = args
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .cloned()
                .ok_or_else(|| err("generate requires a dataset: credit | people | planted"))?;
            if !["credit", "people", "planted"].contains(&dataset.as_str()) {
                return Err(err(format!("unknown dataset `{dataset}`")));
            }
            let map = parse_flag_map(&args[2..])?;
            Ok(Command::Generate(GenerateArgs {
                dataset,
                records: parse_usize(&map, "records", 10_000)?,
                seed: parse_usize(&map, "seed", 1996)? as u64,
                output: map.get("output").cloned().unwrap_or_else(|| "-".into()),
            }))
        }
        "trace-check" => {
            let (input, rest) = positional_then_flags(&args[1..], "-");
            let map = parse_flag_map(rest)?;
            Ok(Command::TraceCheck(TraceCheckArgs {
                input,
                schema: map.get("schema").cloned(),
            }))
        }
        "query" => {
            let (catalog, rest) = positional_then_flags(&args[1..], "");
            if catalog.is_empty() {
                return Err(err("query requires a CATALOG path (or `-` for stdin)"));
            }
            let map = parse_flag_map(rest)?;
            let record = map.get("record").cloned();
            let range = map.get("range").cloned();
            if record.is_some() && range.is_some() {
                return Err(err("--record and --range are mutually exclusive"));
            }
            let by = match map.get("by") {
                None => None,
                Some(v) => Some(v.parse::<RankBy>().map_err(|e| err(format!("--by: {e}")))?),
            };
            let top_k = match map.get("top-k") {
                None => None,
                Some(v) => Some(
                    v.parse::<usize>()
                        .map_err(|_| err(format!("--top-k: `{v}` is not an integer")))?,
                ),
            };
            let format = match map.get("format").map(String::as_str) {
                None | Some("text") => OutputFormat::Text,
                Some("csv") => OutputFormat::Csv,
                Some("json") => OutputFormat::Json,
                Some(other) => return Err(err(format!("unknown format `{other}`"))),
            };
            let trace = match map.get("trace") {
                None => None,
                Some(v) => Some(
                    v.parse::<TraceFormat>()
                        .map_err(|_| err(format!("--trace: `{v}` is not json or text")))?,
                ),
            };
            Ok(Command::Query(QueryArgs {
                catalog,
                record,
                range,
                top_k,
                by,
                min_lift: parse_opt_f64(&map, "min-lift")?,
                max_p: parse_opt_f64(&map, "max-p")?,
                format,
                trace,
            }))
        }
        "analyze" => {
            let (catalog, rest) = positional_then_flags(&args[1..], "");
            if catalog.is_empty() || catalog == "-" {
                return Err(err(
                    "analyze requires a CATALOG file path (it is rewritten in place \
                     unless --output redirects, so stdin is not supported)",
                ));
            }
            let map = parse_flag_map(rest)?;
            for key in map.keys() {
                if !["input", "samples", "seed", "output", "trace"].contains(&key.as_str()) {
                    return Err(err(format!("analyze does not take --{key}")));
                }
            }
            let input = map
                .get("input")
                .cloned()
                .ok_or_else(|| err("analyze requires --input FILE (the catalog's source CSV)"))?;
            let defaults = AnalyticsConfig::default();
            let samples = parse_usize(&map, "samples", defaults.shapley_samples as usize)?;
            if samples == 0 || samples > u32::MAX as usize {
                return Err(err("--samples must be between 1 and 2^32-1"));
            }
            let trace = match map.get("trace") {
                None => None,
                Some(v) => Some(
                    v.parse::<TraceFormat>()
                        .map_err(|_| err(format!("--trace: `{v}` is not json or text")))?,
                ),
            };
            Ok(Command::Analyze(AnalyzeArgs {
                catalog,
                input,
                samples: samples as u32,
                seed: parse_usize(&map, "seed", defaults.seed as usize)? as u64,
                output: map.get("output").cloned(),
                trace,
            }))
        }
        "store-check" => {
            let (input, rest) = positional_then_flags(&args[1..], "-");
            parse_flag_map(rest)?; // no flags yet; reject unknown ones
            if !rest.is_empty() {
                return Err(err("store-check takes no flags"));
            }
            Ok(Command::StoreCheck(StoreCheckArgs { input }))
        }
        "fuzz" => {
            let map = parse_flag_map(&args[1..])?;
            for key in map.keys() {
                if !["iters", "seed", "out"].contains(&key.as_str()) {
                    return Err(err(format!("fuzz does not take --{key}")));
                }
            }
            let iters = parse_usize(&map, "iters", 200)? as u64;
            if iters == 0 {
                return Err(err("--iters must be at least 1"));
            }
            Ok(Command::Fuzz(FuzzArgs {
                iters,
                seed: parse_usize(&map, "seed", 42)? as u64,
                out: map
                    .get("out")
                    .cloned()
                    .unwrap_or_else(|| "tests/fuzz_repros".into()),
            }))
        }
        "serve" => {
            let rest = &args[1..];
            let split = rest
                .iter()
                .position(|a| a.starts_with("--"))
                .unwrap_or(rest.len());
            let catalogs: Vec<String> = rest[..split].to_vec();
            if catalogs.is_empty() {
                return Err(err("serve requires at least one CATALOG path"));
            }
            let map = parse_flag_map(&rest[split..])?;
            for key in map.keys() {
                if !["port", "threads", "trace"].contains(&key.as_str()) {
                    return Err(err(format!("serve does not take --{key}")));
                }
            }
            let port = parse_usize(&map, "port", 0)?;
            if port > u16::MAX as usize {
                return Err(err(format!("--port {port} is not a TCP port")));
            }
            let trace = match map.get("trace") {
                None => None,
                Some(v) => Some(
                    v.parse::<TraceFormat>()
                        .map_err(|_| err(format!("--trace: `{v}` is not json or text")))?,
                ),
            };
            Ok(Command::Serve(ServeArgs {
                catalogs,
                port: port as u16,
                threads: parse_usize(&map, "threads", 0)?,
                trace,
            }))
        }
        "bench-serve" => {
            let map = parse_flag_map(&args[1..])?;
            for key in map.keys() {
                let known = [
                    "addr", "catalog", "clients", "requests", "threads", "floor", "shutdown", "out",
                ];
                if !known.contains(&key.as_str()) {
                    return Err(err(format!("bench-serve does not take --{key}")));
                }
            }
            let clients = parse_usize(&map, "clients", 8)?;
            let requests = parse_usize(&map, "requests", 2000)?;
            if clients == 0 || requests == 0 {
                return Err(err("--clients and --requests must be at least 1"));
            }
            if map.contains_key("shutdown") && !map.contains_key("addr") {
                return Err(err(
                    "--shutdown only applies with --addr (self-hosted servers always stop)",
                ));
            }
            Ok(Command::BenchServe(BenchServeArgs {
                addr: map.get("addr").cloned(),
                catalog: map.get("catalog").cloned(),
                clients,
                requests,
                threads: parse_usize(&map, "threads", 0)?,
                floor: parse_f64(&map, "floor", 50_000.0)?,
                shutdown: map.contains_key("shutdown"),
                out: map.get("out").cloned(),
            }))
        }
        "bench-analytics" => {
            let map = parse_flag_map(&args[1..])?;
            for key in map.keys() {
                if !["records", "samples", "floor", "out"].contains(&key.as_str()) {
                    return Err(err(format!("bench-analytics does not take --{key}")));
                }
            }
            let records = parse_usize(&map, "records", 5_000)?;
            let samples = parse_usize(&map, "samples", 64)?;
            if records == 0 || samples == 0 {
                return Err(err("--records and --samples must be at least 1"));
            }
            if samples > u32::MAX as usize {
                return Err(err("--samples must fit in 32 bits"));
            }
            Ok(Command::BenchAnalytics(BenchAnalyticsArgs {
                records,
                samples: samples as u32,
                floor: parse_f64(&map, "floor", 500.0)?,
                out: map.get("out").cloned(),
            }))
        }
        "bench-dist" => {
            let map = parse_flag_map(&args[1..])?;
            for key in map.keys() {
                if !["records", "workers", "floor", "out"].contains(&key.as_str()) {
                    return Err(err(format!("bench-dist does not take --{key}")));
                }
            }
            let records = parse_usize(&map, "records", 10_000_000)?;
            let workers = parse_usize(&map, "workers", 2)?;
            if records == 0 {
                return Err(err("--records must be at least 1"));
            }
            if workers < 2 {
                return Err(err(
                    "--workers must be at least 2 (a one-worker split has no counting to distribute)",
                ));
            }
            Ok(Command::BenchDist(BenchDistArgs {
                records,
                workers,
                floor: parse_f64(&map, "floor", 1.6)?,
                out: map.get("out").cloned(),
            }))
        }
        "bench-update" => {
            let map = parse_flag_map(&args[1..])?;
            for key in map.keys() {
                if !["records", "delta", "floor", "out"].contains(&key.as_str()) {
                    return Err(err(format!("bench-update does not take --{key}")));
                }
            }
            let records = parse_usize(&map, "records", 1_000_000)?;
            if records == 0 {
                return Err(err("--records must be at least 1"));
            }
            let delta = parse_f64(&map, "delta", 0.01)?;
            if !delta.is_finite() || delta <= 0.0 || delta > 1.0 {
                return Err(err(
                    "--delta must be a fraction of the base table in (0, 1]",
                ));
            }
            Ok(Command::BenchUpdate(BenchUpdateArgs {
                records,
                delta,
                floor: parse_f64(&map, "floor", 5.0)?,
                out: map.get("out").cloned(),
            }))
        }
        other => Err(err(format!("unknown command `{other}` (try `qar help`)"))),
    }
}

/// Parse a taxonomy edge file: one `child,parent` pair per line; blank
/// lines and `#` comments ignored.
pub fn parse_taxonomy(text: &str) -> Result<qar_table::Taxonomy, CliError> {
    let mut edges: Vec<(String, String)> = Vec::new();
    for (no, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (child, parent) = line
            .split_once(',')
            .ok_or_else(|| err(format!("taxonomy line {}: expected `child,parent`", no + 1)))?;
        edges.push((child.trim().to_string(), parent.trim().to_string()));
    }
    if edges.is_empty() {
        return Err(err("taxonomy file has no edges"));
    }
    qar_table::Taxonomy::from_edges(&edges).map_err(|e| err(e.to_string()))
}

/// The stderr trace sink a `--trace` flag asks for, shared between the
/// miner and the catalog store so their events interleave on one stream.
pub fn trace_sink(trace: Option<TraceFormat>) -> Option<Arc<dyn ProgressSink>> {
    trace
        .map(|format| Arc::new(WriterSink::new(format, std::io::stderr())) as Arc<dyn ProgressSink>)
}

/// Build the [`Miner`] a `qar mine` invocation described: configuration
/// plus the given progress sink and the deadline token from the flags.
pub fn build_miner(args: &MineArgs, sink: Option<Arc<dyn ProgressSink>>) -> Miner {
    let mut miner = Miner::new(args.config.clone());
    if let Some(sink) = sink {
        miner = miner.with_progress(sink);
    }
    if let Some(secs) = args.deadline {
        miner = miner.with_cancel(CancelToken::with_deadline(Duration::from_secs_f64(secs)));
    }
    miner
}

/// The [`WorkerSpawn`] a production `qar mine --workers N` uses: child
/// processes of this very binary running `qar worker`, inheriting the
/// mine's thread flag and kernel pin.
fn process_spawn(config: &MinerConfig) -> Result<WorkerSpawn, CliError> {
    let exe = std::env::current_exe()
        .map_err(|e| err(format!("cannot locate the qar binary for workers: {e}")))?;
    let mut worker_args = Vec::new();
    if let Some(threads) = config.parallelism {
        worker_args.push("--threads".to_string());
        worker_args.push(threads.get().to_string());
    }
    if let Some(kernel) = config.kernel {
        worker_args.push("--kernel".to_string());
        worker_args.push(kernel.name().to_string());
    }
    Ok(WorkerSpawn::Processes {
        exe,
        args: worker_args,
    })
}

/// The deadline token a `--deadline` flag asks for (the non-serial mine
/// paths thread it into their counting scans themselves).
fn deadline_token(args: &MineArgs) -> Option<CancelToken> {
    args.deadline
        .map(|secs| CancelToken::with_deadline(Duration::from_secs_f64(secs)))
}

/// [`DistOptions`] for a `qar mine --workers N` run with the given spawn.
fn dist_options(args: &MineArgs, spawn: WorkerSpawn) -> DistOptions {
    DistOptions {
        workers: args.workers,
        spawn,
        ..DistOptions::default()
    }
}

/// Execute `qar mine` against an already-loaded table, writing a report to
/// `out` (trace events, when enabled, go to stderr). Separated from file
/// I/O for testability. With `args.workers > 0` the counting passes run
/// on worker processes spawned from this binary.
pub fn run_mine_on_table(
    table: &Table,
    args: &MineArgs,
    out: &mut impl std::io::Write,
) -> Result<(), Box<dyn std::error::Error>> {
    let spawn = if args.workers > 0 {
        Some(process_spawn(&args.config)?)
    } else {
        None
    };
    run_mine_on_table_spawn(table, args, spawn, out)
}

/// [`run_mine_on_table`] with an explicit worker spawn, so tests can use
/// in-process worker threads instead of child processes.
pub fn run_mine_on_table_spawn(
    table: &Table,
    args: &MineArgs,
    spawn: Option<WorkerSpawn>,
    out: &mut impl std::io::Write,
) -> Result<(), Box<dyn std::error::Error>> {
    let sink = trace_sink(args.trace);
    // A stored catalog gets a COUNTS section so `qar mine --update` can
    // refresh it later; report-only runs skip the capture overhead.
    let capture = args.store.is_some();
    let (result, counts) = if args.workers > 0 {
        let spawn = spawn.ok_or_else(|| err("distributed mining needs a worker spawn"))?;
        // The distributed driver counts already-encoded rows, so Steps 1-2
        // (partitioning, encoding) happen here on the coordinator — with
        // the exact encoders the serial path would build.
        let (encoders, intervals) =
            qar_core::pipeline::build_encoders(table, &args.config).map_err(box_miner_error)?;
        let encoded = EncodedTable::encode(table, encoders)?;
        let cancel = deadline_token(args);
        let mut source = DistSource::start(
            &dist_options(args, spawn),
            Backing::Memory(&encoded),
            &args.config,
            sink.as_deref(),
            cancel.as_ref(),
        )
        .map_err(box_miner_error)?;
        let mined = mine_topology(
            &mut source,
            args,
            intervals,
            sink.as_deref(),
            cancel.as_ref(),
        );
        source.shutdown();
        mined.map_err(box_miner_error)?
    } else if capture {
        let (result, counts) = build_miner(args, sink.clone()).mine_with_counts(table)?;
        (result, Some(counts))
    } else {
        (build_miner(args, sink.clone()).mine(table)?, None)
    };
    finish_mine(table.num_rows() as u64, result, counts, args, sink, out)
}

/// Execute `qar mine --chunk-rows N`: stream the CSV twice (stats pass,
/// then spill pass), mine the spilled chunks out-of-core — optionally
/// distributed over workers — and clean the spill directory up. The
/// result is bit-identical to the in-memory path on the same input.
pub fn run_mine_chunked(
    args: &MineArgs,
    out: &mut impl std::io::Write,
) -> Result<(), Box<dyn std::error::Error>> {
    let spawn = if args.workers > 0 {
        Some(process_spawn(&args.config)?)
    } else {
        None
    };
    run_mine_chunked_spawn(args, spawn, out)
}

/// [`run_mine_chunked`] with an explicit worker spawn (see
/// [`run_mine_on_table_spawn`]).
pub fn run_mine_chunked_spawn(
    args: &MineArgs,
    spawn: Option<WorkerSpawn>,
    out: &mut impl std::io::Write,
) -> Result<(), Box<dyn std::error::Error>> {
    if args.input == "-" {
        return Err(Box::new(err(
            "--chunk-rows needs a real --input file (the CSV is read twice)",
        )));
    }
    let sink = trace_sink(args.trace);
    let schema = build_schema(&args.schema)?;
    let open = || {
        std::fs::File::open(&args.input)
            .map(std::io::BufReader::new)
            .map_err(|e| err(format!("cannot open `{}`: {e}", args.input)))
    };
    // Pass 1 (stats): per-attribute summaries — enough to build the exact
    // encoders Steps 1-2 would build on the in-memory table.
    let summary = qar_table::chunk::summarize_csv(open()?, &schema, args.chunk_rows)?;
    let (encoders, intervals) =
        qar_core::pipeline::build_encoders_from_summary(&summary, &args.config)
            .map_err(box_miner_error)?;
    // Pass 2 (spill): encode row blocks and write per-chunk code files.
    let dir = qar_table::chunk::default_spill_dir("mine");
    let store = qar_table::chunk::spill_csv(open()?, &schema, encoders, args.chunk_rows, &dir)?;
    let num_rows = store.num_rows() as u64;
    let cancel = deadline_token(args);
    let mined = if args.workers > 0 {
        let spawn = spawn.ok_or_else(|| err("distributed mining needs a worker spawn"))?;
        DistSource::start(
            &dist_options(args, spawn),
            Backing::Chunks(&store),
            &args.config,
            sink.as_deref(),
            cancel.as_ref(),
        )
        .and_then(|mut source| {
            let mined = mine_topology(
                &mut source,
                args,
                intervals,
                sink.as_deref(),
                cancel.as_ref(),
            );
            source.shutdown();
            mined
        })
    } else {
        let mut source = ChunkedSource::new(&store, &args.config);
        if let Some(token) = &cancel {
            source = source.with_cancel(token);
        }
        mine_topology(
            &mut source,
            args,
            intervals,
            sink.as_deref(),
            cancel.as_ref(),
        )
    };
    // The spill directory is temporary either way — remove it before
    // surfacing the mining verdict.
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    let (result, counts) = mined.map_err(box_miner_error)?;
    finish_mine(num_rows, result, counts, args, sink, out)
}

/// Box a [`MinerError`] without losing its message.
fn box_miner_error(e: MinerError) -> Box<dyn std::error::Error> {
    Box::new(err(e.to_string()))
}

/// Execute `qar mine --update CATALOG`: refresh an existing catalog by
/// scanning only the delta rows in `--input` and merging them with the
/// catalog's persisted support counts. See [`run_mine_update_spawn`].
pub fn run_mine_update(
    args: &MineArgs,
    out: &mut impl std::io::Write,
) -> Result<(), Box<dyn std::error::Error>> {
    let spawn = if args.workers > 0 {
        Some(process_spawn(&args.config)?)
    } else {
        None
    };
    run_mine_update_spawn(args, spawn, out)
}

/// [`run_mine_update`] with an explicit worker spawn (see
/// [`run_mine_on_table_spawn`]).
///
/// The catalog's schema and semantic configuration are authoritative —
/// only the performance knobs (`--threads`, `--kernel`) and the topology
/// (`--workers`, `--chunk-rows`) come from this command line. The
/// refreshed catalog (rules, stats, analytics when `--analytics` is
/// passed, and the merged counts) rewrites the catalog in place unless
/// `--store` redirects it; the result is identical to mining base+delta
/// from scratch under the same flags.
pub fn run_mine_update_spawn(
    args: &MineArgs,
    spawn: Option<WorkerSpawn>,
    out: &mut impl std::io::Write,
) -> Result<(), Box<dyn std::error::Error>> {
    let catalog_path = args
        .update
        .as_deref()
        .ok_or_else(|| err("run_mine_update needs --update CATALOG"))?;
    let sink = trace_sink(args.trace);
    let catalog = Catalog::load(catalog_path, sink.as_deref())
        .map_err(|e| err(format!("cannot load `{catalog_path}`: {e}")))?;
    let Some(counts) = catalog.counts() else {
        return Err(Box::new(err(format!(
            "`{catalog_path}` has no persisted support counts; re-mine it with `qar mine \
             --store` (counts are captured automatically) before updating incrementally"
        ))));
    };
    // Rebuild the mining configuration from the catalog's snapshot; the
    // command line contributes only performance knobs.
    let mut config = counts.config.miner_config();
    config.parallelism = args.config.parallelism;
    config.kernel = args.config.kernel;

    let (mut result, new_counts) = if args.workers == 0 && args.chunk_rows == 0 {
        // Serial/pooled: the library's own update path.
        let delta = read_delta_table(&args.input, catalog.schema())?;
        let mut miner = Miner::new(config.clone());
        if let Some(s) = &sink {
            miner = miner.with_progress(Arc::clone(s));
        }
        if let Some(secs) = args.deadline {
            miner = miner.with_cancel(CancelToken::with_deadline(Duration::from_secs_f64(secs)));
        }
        let updated = miner
            .update(UpdateInput {
                schema: catalog.schema(),
                encoders: catalog.encoders(),
                counts,
                delta: &delta,
                base_rows: None,
            })
            .map_err(box_miner_error)?;
        (updated.output, updated.counts)
    } else {
        update_via_merge(args, &catalog, counts, &config, spawn, sink.as_deref())?
    };

    if args.normalize_stats {
        result.stats = result.stats.normalized();
    }
    if catalog.analytics().is_some() && !args.analytics {
        eprintln!(
            "qar: warning: `{catalog_path}` carried analytics the update invalidates; dropping \
             them (pass --analytics to recompute, or backfill later with `qar analyze`)"
        );
    }
    let total_rows = new_counts.num_rows;
    let mut refreshed = Catalog::from_mining(&result);
    if args.analytics {
        let set = analytics_from_mining(&result, &AnalyticsConfig::default(), sink.as_deref());
        refreshed = refreshed.with_analytics(set)?;
    }
    refreshed = refreshed.with_counts(new_counts)?;
    let dest = args.store.as_deref().unwrap_or(catalog_path);
    refreshed.save(dest, sink.as_deref())?;
    write_mine_report(total_rows, &result, args, out)
}

/// Read the delta CSV (`-` = stdin) against the catalog's schema, so the
/// column layout is the catalog's by construction.
fn read_delta_table(input: &str, schema: &Schema) -> Result<Table, Box<dyn std::error::Error>> {
    if input == "-" {
        let mut buf = String::new();
        std::io::Read::read_to_string(&mut std::io::stdin(), &mut buf)?;
        Ok(csv::read_table(buf.as_bytes(), schema)?)
    } else {
        let file =
            std::fs::File::open(input).map_err(|e| err(format!("cannot open `{input}`: {e}")))?;
        Ok(csv::read_table(std::io::BufReader::new(file), schema)?)
    }
}

/// Mine through a [`MergeSource`] over the persisted counts plus a
/// delta-only source, handing the delta source back so topology-specific
/// teardown (cluster shutdown) can run.
#[allow(clippy::type_complexity)]
fn mine_over_merge<S: CountSource>(
    counts: &SupportCounts,
    delta: Option<S>,
    meta: EncodedTable,
    config: &MinerConfig,
    sink: Option<&dyn ProgressSink>,
    cancel: Option<&CancelToken>,
) -> (
    Result<(MiningOutput, CapturedCounts), MinerError>,
    Option<S>,
) {
    let mut merge = MergeSource::new(counts, delta, meta);
    let result = mine_source_captured(&mut merge, config, sink, cancel);
    (result, merge.into_delta())
}

/// The `--update` execution path for the non-serial topologies
/// (`--workers` and/or `--chunk-rows`): mirror [`Miner::update`]'s
/// checks, build a delta-only [`CountSource`] for the topology, and mine
/// through a [`MergeSource`] over the persisted counts. Fallback
/// conditions emit the pinned `incremental_fallback` trace event and
/// surface as errors — `qar mine --update` only ever reads the delta, so
/// the full-re-mine escape hatch has no base rows to work with.
fn update_via_merge(
    args: &MineArgs,
    catalog: &Catalog,
    counts: &SupportCounts,
    config: &MinerConfig,
    spawn: Option<WorkerSpawn>,
    sink: Option<&dyn ProgressSink>,
) -> Result<(MiningOutput, SupportCounts), Box<dyn std::error::Error>> {
    let started = Instant::now();
    let schema = catalog.schema();
    let encoders = catalog.encoders();
    let fallback = |reason: String| -> Box<dyn std::error::Error> {
        if let Some(sink) = sink {
            sink.on_event(&TraceEvent::IncrementalFallback {
                reason: reason.clone(),
            });
        }
        Box::new(err(format!(
            "{reason}; base rows unavailable for a full re-mine"
        )))
    };
    if counts.fingerprint != encoding_fingerprint(schema, encoders) {
        return Err(fallback(
            "persisted counts were taken under a different encoding fingerprint".to_string(),
        ));
    }
    let cancel = deadline_token(args);
    let (total_rows, mined) = if args.chunk_rows > 0 {
        // Out-of-core delta: spill it with the catalog's encoders (no
        // stats pass — the encoders are already decided).
        let open = std::fs::File::open(&args.input)
            .map(std::io::BufReader::new)
            .map_err(|e| err(format!("cannot open `{}`: {e}", args.input)))?;
        let dir = qar_table::chunk::default_spill_dir("update");
        let store = match qar_table::chunk::spill_csv(
            open,
            schema,
            encoders.to_vec(),
            args.chunk_rows,
            &dir,
        ) {
            Ok(store) => store,
            Err(e @ qar_table::TableError::UnencodableValue { .. }) => {
                let _ = std::fs::remove_dir_all(&dir);
                return Err(fallback(format!(
                    "delta is not encodable under the catalog's encoders ({e})"
                )));
            }
            Err(e) => {
                let _ = std::fs::remove_dir_all(&dir);
                return Err(Box::new(e));
            }
        };
        let delta_rows = store.num_rows() as u64;
        let total_rows = counts.num_rows + delta_rows;
        if let Err(reason) = update_precheck(schema, encoders, delta_rows) {
            drop(store);
            let _ = std::fs::remove_dir_all(&dir);
            return Err(fallback(reason));
        }
        let meta =
            EncodedTable::header_only(schema.clone(), encoders.to_vec(), total_rows as usize);
        let mined = if delta_rows == 0 {
            mine_over_merge(
                counts,
                None::<InMemorySource>,
                meta,
                config,
                sink,
                cancel.as_ref(),
            )
            .0
        } else if args.workers > 0 {
            let spawn = spawn.ok_or_else(|| err("distributed mining needs a worker spawn"))?;
            let options = dist_options(args, spawn);
            match DistSource::start(
                &options,
                Backing::Chunks(&store),
                config,
                sink,
                cancel.as_ref(),
            ) {
                Ok(source) => {
                    let (mined, source) =
                        mine_over_merge(counts, Some(source), meta, config, sink, cancel.as_ref());
                    if let Some(source) = source {
                        source.shutdown();
                    }
                    mined
                }
                Err(e) => Err(e),
            }
        } else {
            let mut source = ChunkedSource::new(&store, config);
            if let Some(token) = &cancel {
                source = source.with_cancel(token);
            }
            mine_over_merge(counts, Some(source), meta, config, sink, cancel.as_ref()).0
        };
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
        (total_rows, mined)
    } else {
        // In-memory delta, distributed counting.
        let delta = read_delta_table(&args.input, schema)?;
        let delta_rows = delta.num_rows() as u64;
        if let Err(reason) = update_precheck(schema, encoders, delta_rows) {
            return Err(fallback(reason));
        }
        let delta_encoded = if delta_rows == 0 {
            None
        } else {
            match EncodedTable::encode(&delta, encoders.to_vec()) {
                Ok(enc) => Some(enc),
                Err(e @ qar_table::TableError::UnencodableValue { .. }) => {
                    return Err(fallback(format!(
                        "delta is not encodable under the catalog's encoders ({e})"
                    )));
                }
                Err(e) => return Err(Box::new(e)),
            }
        };
        let total_rows = counts.num_rows + delta_rows;
        let meta =
            EncodedTable::header_only(schema.clone(), encoders.to_vec(), total_rows as usize);
        let mined = match &delta_encoded {
            None => {
                mine_over_merge(
                    counts,
                    None::<InMemorySource>,
                    meta,
                    config,
                    sink,
                    cancel.as_ref(),
                )
                .0
            }
            Some(enc) => {
                let spawn = spawn.ok_or_else(|| err("distributed mining needs a worker spawn"))?;
                let options = dist_options(args, spawn);
                match DistSource::start(
                    &options,
                    Backing::Memory(enc),
                    config,
                    sink,
                    cancel.as_ref(),
                ) {
                    Ok(source) => {
                        let (mined, source) = mine_over_merge(
                            counts,
                            Some(source),
                            meta,
                            config,
                            sink,
                            cancel.as_ref(),
                        );
                        if let Some(source) = source {
                            source.shutdown();
                        }
                        mined
                    }
                    Err(e) => Err(e),
                }
            }
        };
        (total_rows, mined)
    };
    let (mut output, captured) = match mined {
        Ok(x) => x,
        Err(MinerError::Update(reason)) => return Err(fallback(reason)),
        Err(other) => return Err(box_miner_error(other)),
    };
    output.stats.intervals_per_attribute = counts.intervals_per_attribute.clone();
    let new_counts = SupportCounts {
        num_rows: total_rows,
        fingerprint: counts.fingerprint,
        config: counts.config.clone(),
        intervals_per_attribute: counts.intervals_per_attribute.clone(),
        captured,
    };
    if let Some(sink) = sink {
        sink.on_event(&TraceEvent::IncrementalUpdate {
            base_rows: counts.num_rows,
            delta_rows: total_rows - counts.num_rows,
            total_rows,
            passes: new_counts.captured.passes.len() + 1,
            elapsed_us: micros(started.elapsed()),
        });
    }
    Ok((output, new_counts))
}

/// Mine over a distributed or out-of-core source, capturing the raw
/// tallies as [`SupportCounts`] only when the catalog will store them
/// (`--store`); report-only runs skip the capture overhead.
fn mine_topology(
    source: &mut dyn CountSource,
    args: &MineArgs,
    intervals: Vec<Option<usize>>,
    sink: Option<&dyn ProgressSink>,
    cancel: Option<&CancelToken>,
) -> Result<(MiningOutput, Option<SupportCounts>), MinerError> {
    let config = &args.config;
    let (mut result, captured) = if args.store.is_some() {
        let (result, captured) = mine_source_captured(source, config, sink, cancel)?;
        (result, Some(captured))
    } else {
        (mine_source(source, config, sink, cancel)?, None)
    };
    result.stats.intervals_per_attribute = intervals.clone();
    let counts = captured.map(|captured| {
        let (schema, encoders) = (result.encoded.schema(), result.encoded.encoders());
        SupportCounts::assemble(
            schema,
            encoders,
            source.num_rows(),
            config,
            intervals,
            captured,
        )
    });
    Ok((result, counts))
}

/// The shared tail of every `qar mine` path: normalize stats when asked,
/// store the catalog (with its support counts), and write the report in
/// the requested format.
fn finish_mine(
    num_rows: u64,
    mut result: MiningOutput,
    counts: Option<SupportCounts>,
    args: &MineArgs,
    sink: Option<Arc<dyn ProgressSink>>,
    out: &mut impl std::io::Write,
) -> Result<(), Box<dyn std::error::Error>> {
    if args.normalize_stats {
        result.stats = result.stats.normalized();
    }
    if let Some(path) = &args.store {
        let mut catalog = Catalog::from_mining(&result);
        if args.analytics {
            let set = analytics_from_mining(&result, &AnalyticsConfig::default(), sink.as_deref());
            catalog = catalog.with_analytics(set)?;
        }
        if let Some(counts) = counts {
            catalog = catalog.with_counts(counts)?;
        }
        catalog.save(path, sink.as_deref())?;
    }
    write_mine_report(num_rows, &result, args, out)
}

/// The report half of [`finish_mine`], shared with the `--update` path:
/// write the mined rules to `out` in the requested format.
fn write_mine_report(
    num_rows: u64,
    result: &MiningOutput,
    args: &MineArgs,
    out: &mut impl std::io::Write,
) -> Result<(), Box<dyn std::error::Error>> {
    match args.format {
        OutputFormat::Csv => {
            qar_core::export::rules_to_csv(
                out,
                &result.rules,
                result.interest.as_deref(),
                &result.encoded,
                result.frequent.num_rows,
            )?;
            return Ok(());
        }
        OutputFormat::Json => {
            // One object with run/pass statistics alongside the rules, so
            // scripted consumers get the pass-level numbers too.
            let mut stats = Vec::new();
            qar_core::export::stats_to_json(&mut stats, &result.stats)?;
            write!(
                out,
                "{{\"stats\":{},\"rules\":",
                String::from_utf8(stats)?.trim_end()
            )?;
            qar_core::export::rules_to_json(
                out,
                &result.rules,
                result.interest.as_deref(),
                &result.encoded,
                result.frequent.num_rows,
            )?;
            writeln!(out, "}}")?;
            return Ok(());
        }
        OutputFormat::Text => {}
    }
    writeln!(
        out,
        "{} records; {} frequent itemsets across {} levels; {} rules ({} interesting)",
        num_rows,
        result.frequent.total(),
        result.frequent.levels.len(),
        result.stats.rules_total,
        result.stats.rules_interesting,
    )?;
    writeln!(
        out,
        "intervals per attribute: {:?}; mining took {:?}",
        result.stats.intervals_per_attribute, result.stats.elapsed_mining
    )?;
    let verdicts = result.interest.as_deref();
    // Sort by confidence (descending), then support.
    let mut order: Vec<usize> = (0..result.rules.len())
        .filter(|&i| match (args.interesting_only, verdicts) {
            (true, Some(v)) => v[i].interesting,
            _ => true,
        })
        .collect();
    order.sort_by(|&a, &b| {
        result.rules[b]
            .confidence
            .total_cmp(&result.rules[a].confidence)
            .then(result.rules[b].support.cmp(&result.rules[a].support))
    });
    let limit = if args.top == 0 { order.len() } else { args.top };
    for &i in order.iter().take(limit) {
        let marker = match verdicts {
            Some(v) if !v[i].interesting => " *pruned*",
            _ => "",
        };
        writeln!(out, "  {}{marker}", result.format_rule(i))?;
    }
    if order.len() > limit {
        writeln!(out, "  ... and {} more (raise --top)", order.len() - limit)?;
    }
    Ok(())
}

/// Execute `qar generate`, writing CSV to `out`.
pub fn run_generate(
    args: &GenerateArgs,
    out: &mut impl std::io::Write,
) -> Result<(), Box<dyn std::error::Error>> {
    let table = match args.dataset.as_str() {
        "credit" => {
            qar_datagen::CreditDataset::generate(qar_datagen::CreditConfig {
                num_records: args.records,
                seed: args.seed,
                ..Default::default()
            })
            .table
        }
        "people" => qar_datagen::people_table(),
        "planted" => {
            qar_datagen::PlantedDataset::generate(qar_datagen::PlantedConfig {
                num_records: args.records,
                seed: args.seed,
            })
            .table
        }
        other => return Err(Box::new(err(format!("unknown dataset `{other}`")))),
    };
    csv::write_table(out, &table)?;
    Ok(())
}

/// Execute `qar trace-check`: validate a JSON-lines trace stream against
/// the given schema document, writing a per-event tally to `out`. Fails on
/// the first invalid line.
pub fn run_trace_check(
    schema_text: &str,
    input: &str,
    out: &mut impl std::io::Write,
) -> Result<(), Box<dyn std::error::Error>> {
    let schema: qar_trace::Schema = schema_text
        .parse()
        .map_err(|e| err(format!("trace schema: {e}")))?;
    let counts = qar_trace::schema::validate_lines(&schema, input)
        .map_err(|(line, e)| err(format!("trace line {line}: {e}")))?;
    let total: usize = counts.iter().map(|(_, n)| n).sum();
    writeln!(out, "{total} events valid")?;
    for (name, n) in &counts {
        writeln!(out, "  {name}: {n}")?;
    }
    Ok(())
}

/// Parse a `--record attr=value,...` spec into `(attribute, code)` pairs
/// using the catalog's schema and encoders. Quantitative values are
/// numbers; categorical values are labels. Rejects unknown attributes,
/// duplicate attributes, and values the encoder has never seen.
pub fn parse_record(catalog: &Catalog, spec: &str) -> Result<Vec<(u32, u32)>, CliError> {
    let mut record: Vec<(u32, u32)> = Vec::new();
    for part in spec.split(',') {
        let (name, value) = part
            .split_once('=')
            .ok_or_else(|| err(format!("record entry `{part}` must be attribute=value")))?;
        let name = name.trim();
        let def = catalog
            .schema()
            .attribute_by_name(name)
            .map_err(|e| err(e.to_string()))?;
        let id = catalog
            .schema()
            .iter()
            .find(|(_, d)| d.name() == name)
            .map(|(id, _)| id)
            .expect("attribute_by_name succeeded");
        if record.iter().any(|&(a, _)| a == id.index() as u32) {
            return Err(err(format!("attribute `{name}` appears twice in --record")));
        }
        let value = value.trim();
        let parsed = match def.kind() {
            AttributeKind::Quantitative => Value::Float(
                value
                    .parse::<f64>()
                    .map_err(|_| err(format!("`{value}` is not a number for `{name}`")))?,
            ),
            AttributeKind::Categorical => Value::from(value),
        };
        let code = catalog.encoders()[id.index()]
            .encode(name, &parsed)
            .map_err(|e| err(e.to_string()))?;
        record.push((id.index() as u32, code));
    }
    if record.is_empty() {
        return Err(err("record has no attributes"));
    }
    Ok(record)
}

/// Parse a `--range attr=lo..hi` spec against the catalog's schema.
/// The attribute must be quantitative.
pub fn parse_range(catalog: &Catalog, spec: &str) -> Result<(u32, f64, f64), CliError> {
    let (name, bounds) = spec
        .split_once('=')
        .ok_or_else(|| err(format!("range `{spec}` must be attribute=lo..hi")))?;
    let name = name.trim();
    let def = catalog
        .schema()
        .attribute_by_name(name)
        .map_err(|e| err(e.to_string()))?;
    if def.kind() != AttributeKind::Quantitative {
        return Err(err(format!(
            "--range needs a quantitative attribute; `{name}` is categorical"
        )));
    }
    let id = catalog
        .schema()
        .iter()
        .find(|(_, d)| d.name() == name)
        .map(|(id, _)| id)
        .expect("attribute_by_name succeeded");
    let (lo, hi) = bounds
        .split_once("..")
        .ok_or_else(|| err(format!("range bounds `{bounds}` must be lo..hi")))?;
    let lo: f64 = lo
        .trim()
        .parse()
        .map_err(|_| err(format!("`{lo}` is not a number")))?;
    let hi: f64 = hi
        .trim()
        .parse()
        .map_err(|_| err(format!("`{hi}` is not a number")))?;
    if lo.is_nan() || hi.is_nan() || lo > hi {
        return Err(err(format!("range {lo}..{hi} is empty")));
    }
    Ok((id.index() as u32, lo, hi))
}

/// Execute `qar query` against catalog bytes (already read from a file
/// or stdin), writing matching rules to `out`.
pub fn run_query(
    bytes: &[u8],
    args: &QueryArgs,
    out: &mut impl std::io::Write,
) -> Result<(), Box<dyn std::error::Error>> {
    let sink = trace_sink(args.trace);
    let catalog = Catalog::load_bytes(bytes, sink.as_deref())?;
    let index = RuleIndex::build(&catalog, sink.as_deref());

    let (mut ids, what) = if let Some(spec) = &args.record {
        let record = parse_record(&catalog, spec)?;
        (index.query_record(&record), "fire for the record")
    } else if let Some(spec) = &args.range {
        let (attr, lo, hi) = parse_range(&catalog, spec)?;
        (index.query_range(attr, lo, hi), "mention the range")
    } else {
        ((0..catalog.rules().len() as u32).collect(), "stored")
    };
    index.filter_analytics(&mut ids, args.min_lift, args.max_p)?;
    let analytics_ranking = matches!(
        args.by,
        Some(RankBy::Lift | RankBy::Conviction | RankBy::Chi2 | RankBy::JMeasure)
    );
    if analytics_ranking && !index.has_analytics() {
        return Err(Box::new(qar_store::AnalyticsUnavailable));
    }
    let matched = ids.len();
    if args.by.is_some() || args.top_k.is_some() {
        index.rank(&mut ids, args.by.unwrap_or(RankBy::Confidence));
    }
    if let Some(k) = args.top_k {
        if k > 0 {
            ids.truncate(k);
        }
    }

    let rules: Vec<QuantRule> = ids
        .iter()
        .map(|&i| catalog.rules()[i as usize].clone())
        .collect();
    let verdicts: Option<Vec<RuleInterest>> = catalog
        .interest()
        .map(|v| ids.iter().map(|&i| v[i as usize].clone()).collect());
    match args.format {
        OutputFormat::Csv => {
            qar_core::export::rules_to_csv(
                out,
                &rules,
                verdicts.as_deref(),
                &catalog,
                catalog.num_rows(),
            )?;
        }
        OutputFormat::Json => {
            // With an ANALYTICS section each rule object carries its
            // measures. Non-finite values (conviction diverges to +inf at
            // confidence 1; chi² and its p degenerate to NaN on an empty
            // margin) serialize as `null` — JSON has no inf/NaN tokens,
            // and emitting them raw would make the document unparseable.
            match catalog.analytics() {
                Some(set) => {
                    use qar_core::export::json_f64 as f;
                    qar_core::export::rules_to_json_with(
                        out,
                        &rules,
                        verdicts.as_deref(),
                        &catalog,
                        catalog.num_rows(),
                        |i| {
                            let a = &set.rules[ids[i] as usize];
                            format!(
                                ",\"lift\":{},\"conviction\":{},\"leverage\":{},\
                                 \"chi2\":{},\"p_value\":{},\"p_adjusted\":{},\
                                 \"jmeasure\":{}",
                                f(a.lift),
                                f(a.conviction),
                                f(a.leverage),
                                f(a.chi2),
                                f(a.p_value),
                                f(a.p_adjusted),
                                f(a.jmeasure),
                            )
                        },
                    )?;
                }
                None => {
                    qar_core::export::rules_to_json(
                        out,
                        &rules,
                        verdicts.as_deref(),
                        &catalog,
                        catalog.num_rows(),
                    )?;
                }
            }
        }
        OutputFormat::Text => {
            writeln!(
                out,
                "{matched} of {} rules {what}{}",
                catalog.rules().len(),
                if rules.len() < matched {
                    format!(" (showing {})", rules.len())
                } else {
                    String::new()
                }
            )?;
            for rule in &rules {
                writeln!(
                    out,
                    "  {}",
                    qar_core::output::format_rule(rule, catalog.num_rows(), &catalog)
                )?;
            }
        }
    }
    Ok(())
}

/// Execute `qar store-check` against catalog bytes: decode with full
/// validation and print a summary. Any corruption surfaces as an `Err`.
pub fn run_store_check(
    bytes: &[u8],
    out: &mut impl std::io::Write,
) -> Result<(), Box<dyn std::error::Error>> {
    // Walk the section framing first: on corruption the inventory still
    // prints, showing WHICH section's checksum failed before the decode
    // error surfaces.
    let sections = section_inventory(bytes);
    if let Ok(sections) = &sections {
        writeln!(out, "sections:")?;
        for s in sections {
            writeln!(
                out,
                "  {} (tag {}): {} byte(s), crc {}{}",
                s.name,
                s.tag,
                s.len,
                if s.crc_ok { "ok" } else { "MISMATCH" },
                if s.known() { "" } else { " [skipped]" },
            )?;
        }
        let unknown = sections.iter().filter(|s| !s.known()).count();
        writeln!(out, "  {unknown} unknown section(s) skipped")?;
    }
    let catalog = Catalog::decode(bytes)?;
    let interesting = catalog
        .interest()
        .map(|v| v.iter().filter(|r| r.interesting).count());
    writeln!(
        out,
        "catalog OK: {} bytes, {} attribute(s), {} rule(s), {} row(s)",
        bytes.len(),
        catalog.schema().len(),
        catalog.rules().len(),
        catalog.num_rows(),
    )?;
    for (id, def) in catalog.schema().iter() {
        writeln!(
            out,
            "  {} ({}, {} code(s))",
            def.name(),
            def.kind().name(),
            catalog.encoders()[id.index()].cardinality(),
        )?;
    }
    match interesting {
        Some(n) => writeln!(out, "  interest verdicts: {n} interesting")?,
        None => writeln!(out, "  interest verdicts: none")?,
    }
    match catalog.analytics() {
        Some(set) => writeln!(
            out,
            "  analytics: {} rule(s), {} Shapley sample(s), seed {}",
            set.rules.len(),
            set.shapley_samples,
            set.seed,
        )?,
        None => writeln!(out, "  analytics: none")?,
    }
    match catalog.counts() {
        Some(counts) => writeln!(
            out,
            "  counts: {} pass(es), {} candidate(s), {} row(s)",
            counts.captured.passes.len() + 1,
            counts.total_candidates(),
            counts.num_rows,
        )?,
        None => writeln!(out, "  counts: none")?,
    }
    Ok(())
}

/// Execute `qar analyze`: backfill the `ANALYTICS` section by re-encoding
/// the catalog's source CSV with the catalog's own encoders and counting
/// support by direct scan. Returns the annotated catalog's bytes (the
/// binary writes them to `--output`, or back over the catalog).
pub fn run_analyze(
    catalog_bytes: &[u8],
    csv_bytes: &[u8],
    args: &AnalyzeArgs,
    out: &mut impl std::io::Write,
) -> Result<Vec<u8>, Box<dyn std::error::Error>> {
    let sink = trace_sink(args.trace);
    let catalog = Catalog::load_bytes(catalog_bytes, sink.as_deref())?;
    let table = csv::read_table(csv_bytes, catalog.schema())?;
    if table.num_rows() as u64 != catalog.num_rows() {
        return Err(Box::new(err(format!(
            "catalog was mined from {} row(s) but --input has {} — \
             is this the catalog's source data?",
            catalog.num_rows(),
            table.num_rows(),
        ))));
    }
    let encoded = EncodedTable::encode(&table, catalog.encoders().to_vec())?;
    let config = AnalyticsConfig {
        shapley_samples: args.samples,
        seed: args.seed,
    };
    let set = analytics_from_encoded(catalog.rules(), &encoded, &config, sink.as_deref());
    writeln!(
        out,
        "backfilled analytics for {} rule(s) ({} Shapley sample(s) per rule)",
        set.rules.len(),
        set.shapley_samples,
    )?;
    Ok(catalog.with_analytics(set)?.encode())
}

/// Execute `qar fuzz`: run the differential oracle, write one fixture
/// file per minimized failure under `args.out`, and return how many
/// divergences were found (the binary exits non-zero when `> 0`).
pub fn run_fuzz(
    args: &FuzzArgs,
    out: &mut impl std::io::Write,
) -> Result<usize, Box<dyn std::error::Error>> {
    writeln!(
        out,
        "fuzzing {} iteration(s) from seed {} ...",
        args.iters, args.seed
    )?;
    let mut progress: Vec<String> = Vec::new();
    let report = qar_oracle::run_fuzz(args.iters, args.seed, |line| {
        progress.push(line.to_string());
    });
    for line in &progress {
        writeln!(out, "  {line}")?;
    }
    let kinds: Vec<String> = report
        .kind_counts
        .iter()
        .map(|(kind, count)| format!("{count} {kind}"))
        .collect();
    writeln!(
        out,
        "ran {} case(s) ({})",
        report.iterations,
        kinds.join(", ")
    )?;
    if report.ok() {
        writeln!(out, "all paths agreed on every case")?;
        return Ok(0);
    }
    std::fs::create_dir_all(&args.out).map_err(|e| {
        err(format!(
            "cannot create fixture directory `{}`: {e}",
            args.out
        ))
    })?;
    for failure in &report.failures {
        let path = std::path::Path::new(&args.out).join(format!(
            "{}_{:016x}.txt",
            failure.case.kind(),
            failure.case_seed
        ));
        std::fs::write(&path, &failure.fixture)
            .map_err(|e| err(format!("cannot write fixture `{}`: {e}", path.display())))?;
        writeln!(out, "DIVERGENCE {}", failure.divergence)?;
        writeln!(out, "  minimized repro written to {}", path.display())?;
    }
    Ok(report.failures.len())
}

/// Map catalog paths to `(slot_name, path)` pairs for [`Server::bind`]:
/// the slot name is the file stem (`rules/cat.qarcat` serves as `cat`).
pub fn catalog_slots(paths: &[String]) -> Result<Vec<(String, PathBuf)>, CliError> {
    let mut slots = Vec::with_capacity(paths.len());
    for raw in paths {
        let path = PathBuf::from(raw);
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .filter(|s| !s.is_empty())
            .ok_or_else(|| err(format!("`{raw}` has no usable file stem for a slot name")))?;
        slots.push((stem.to_string(), path));
    }
    Ok(slots)
}

/// The query space a bench workload draws from: per-attribute code
/// cardinalities plus the numeric domain of each quantitative attribute.
struct QuerySpace {
    cards: Vec<u32>,
    quant_domains: Vec<(u32, f64, f64)>,
}

impl QuerySpace {
    fn from_catalog(catalog: &Catalog) -> QuerySpace {
        let cards: Vec<u32> = catalog.encoders().iter().map(|e| e.cardinality()).collect();
        let quant_domains = cards
            .iter()
            .enumerate()
            .filter_map(|(attr, &card)| {
                let encoder = &catalog.encoders()[attr];
                encoder
                    .numeric_bounds(0, card.saturating_sub(1))
                    .map(|(lo, hi)| (attr as u32, lo, hi))
            })
            .collect();
        QuerySpace {
            cards,
            quant_domains,
        }
    }

    /// Without a catalog the workload still exercises the protocol: the
    /// server answers unknown codes with empty result sets.
    fn generic() -> QuerySpace {
        QuerySpace {
            cards: vec![16; 4],
            quant_domains: vec![(0, 0.0, 100.0)],
        }
    }

    fn point(&self, rng: &mut Prng) -> Query {
        let record = self
            .cards
            .iter()
            .enumerate()
            .map(|(attr, &card)| (attr as u32, rng.gen_range(0..card.max(1))))
            .collect();
        Query::Point {
            record,
            opts: QueryOptions::default(),
        }
    }

    fn range(&self, rng: &mut Prng) -> Query {
        let (attr, dom_lo, dom_hi) = match self.quant_domains.as_slice() {
            [] => (0, 0.0, 100.0),
            domains => domains[rng.gen_range(0..domains.len() as u32) as usize],
        };
        let a = dom_lo + rng.gen_f64() * (dom_hi - dom_lo);
        let b = dom_lo + rng.gen_f64() * (dom_hi - dom_lo);
        Query::Range {
            attr,
            lo: a.min(b),
            hi: a.max(b),
            opts: QueryOptions::default(),
        }
    }
}

/// Queries inside one batch request.
const BENCH_BATCH: usize = 4;

/// A deterministic mixed workload for one client: point-heavy with
/// range, top-k, and batch requests interleaved, plus a deadline on
/// every seventh request to keep that path hot.
fn bench_workload(space: &QuerySpace, slot: &str, requests: usize, seed: u64) -> Vec<Request> {
    let mut rng = Prng::seed_from_u64(seed);
    let rank_cycle = [RankBy::Support, RankBy::Confidence, RankBy::Interest];
    (0..requests)
        .map(|i| {
            let deadline_ms = if i % 7 == 6 { Some(10_000) } else { None };
            match i % 8 {
                0 => Request::Query {
                    catalog: slot.to_string(),
                    deadline_ms,
                    query: Query::TopK {
                        by: rank_cycle[i / 8 % rank_cycle.len()],
                        k: 1 + (i as u32 % 20),
                    },
                },
                1 => Request::Query {
                    catalog: slot.to_string(),
                    deadline_ms,
                    query: space.range(&mut rng),
                },
                2 => Request::Batch {
                    catalog: slot.to_string(),
                    deadline_ms,
                    queries: (0..BENCH_BATCH).map(|_| space.point(&mut rng)).collect(),
                },
                _ => Request::Query {
                    catalog: slot.to_string(),
                    deadline_ms,
                    query: space.point(&mut rng),
                },
            }
        })
        .collect()
}

/// Per-client tallies from one bench connection.
struct ClientStats {
    latencies_us: Vec<u64>,
    queries: u64,
    results: u64,
}

/// Run one client's workload against a live server, timing each
/// request round trip.
fn drive_bench_client(addr: &str, workload: &[Request]) -> Result<ClientStats, String> {
    let mut client = ServeClient::connect(addr).map_err(|e| format!("connect to {addr}: {e}"))?;
    let mut stats = ClientStats {
        latencies_us: Vec::with_capacity(workload.len()),
        queries: 0,
        results: 0,
    };
    for request in workload {
        let start = Instant::now();
        let response = client
            .request(request)
            .map_err(|e| format!("request failed: {e}"))?;
        stats
            .latencies_us
            .push(start.elapsed().as_micros().min(u64::MAX as u128) as u64);
        match response {
            Response::Ids { ids, .. } => {
                stats.queries += 1;
                stats.results += ids.len() as u64;
            }
            Response::Batch { items, .. } => {
                stats.queries += items.len() as u64;
                for item in items {
                    match item {
                        Ok(ids) => stats.results += ids.len() as u64,
                        Err(e) => return Err(format!("batch item failed: {e}")),
                    }
                }
            }
            Response::Error(e) => return Err(format!("server error: {e}")),
            other => return Err(format!("unexpected response tag {}", other.tag())),
        }
    }
    Ok(stats)
}

/// Human-readable detail from a joined thread's panic payload. `join`
/// hands back `Box<dyn Any>`; the payload is a `&str` or `String` for
/// every `panic!`/`assert!` in practice, and anything else still gets a
/// generic description instead of propagating the panic.
fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        format!("thread panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("thread panicked: {s}")
    } else {
        "thread panicked (non-string payload)".to_string()
    }
}

/// The p-th percentile (0–100) of an unsorted latency sample.
fn percentile_us(latencies: &mut [u64], p: f64) -> u64 {
    if latencies.is_empty() {
        return 0;
    }
    latencies.sort_unstable();
    let rank = (p / 100.0 * (latencies.len() - 1) as f64).round() as usize;
    latencies[rank.min(latencies.len() - 1)]
}

/// Mine a small planted catalog for self-hosted benchmarking, written
/// to a temp file (`Server::bind` loads from disk). Looser thresholds
/// than the golden snapshot so the catalog holds a useful rule count.
fn bench_catalog_file(quick: bool) -> Result<PathBuf, Box<dyn std::error::Error>> {
    let records = if quick { 2_000 } else { 20_000 };
    let data = qar_datagen::PlantedDataset::generate(qar_datagen::PlantedConfig {
        num_records: records,
        seed: 1996,
    });
    let config = MinerConfig {
        min_support: 0.08,
        min_confidence: 0.5,
        max_support: 0.4,
        partitioning: PartitionSpec::FixedIntervals(20),
        interest: None,
        max_itemset_size: 2,
        ..MinerConfig::default()
    };
    let result = Miner::new(config).mine(&data.table)?;
    let path = std::env::temp_dir().join(format!("qar_bench_serve_{}.qarcat", std::process::id()));
    Catalog::from_mining(&result).save(&path, None)?;
    Ok(path)
}

/// Send a shutdown frame and wait for the acknowledgement.
fn shutdown_server(addr: &str) -> Result<(), String> {
    let mut client = ServeClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
    match client.request(&Request::Shutdown) {
        Ok(Response::ShuttingDown) => Ok(()),
        Ok(other) => Err(format!("unexpected shutdown response tag {}", other.tag())),
        Err(e) => Err(format!("shutdown request failed: {e}")),
    }
}

/// Execute `qar bench-serve`: run the concurrent-client workload,
/// print a human summary to `out`, write the machine-readable JSON
/// line, and return the aggregate queries/sec (the caller enforces the
/// floor so the exit code carries it).
pub fn run_bench_serve(
    args: &BenchServeArgs,
    out: &mut impl std::io::Write,
) -> Result<f64, Box<dyn std::error::Error>> {
    let quick = std::env::var_os("QAR_BENCH_QUICK").is_some();
    let requests = if quick {
        args.requests.min(300)
    } else {
        args.requests
    };

    // Resolve the catalog the workload is shaped by, and — in
    // self-hosted mode — the file the server loads.
    let mut temp_catalog: Option<PathBuf> = None;
    let catalog_path: Option<PathBuf> = match (&args.catalog, &args.addr) {
        (Some(path), _) => Some(PathBuf::from(path)),
        (None, Some(_)) => None,
        (None, None) => {
            let path = bench_catalog_file(quick)?;
            temp_catalog = Some(path.clone());
            Some(path)
        }
    };
    let slot = catalog_path
        .as_deref()
        .and_then(Path::file_stem)
        .and_then(|s| s.to_str())
        .unwrap_or("cat")
        .to_string();
    let space = match &catalog_path {
        Some(path) => QuerySpace::from_catalog(&Catalog::load(path, None)?),
        None => QuerySpace::generic(),
    };

    // Self-hosted mode spins the server on an OS-assigned port with one
    // worker per client (each live connection occupies a worker).
    let mut server_thread = None;
    let (addr, stop_when_done) = match &args.addr {
        Some(addr) => (addr.clone(), args.shutdown),
        None => {
            let path = catalog_path
                .clone()
                .expect("self-hosted mode has a catalog");
            let threads = if args.threads == 0 {
                args.clients.max(2)
            } else {
                args.threads
            };
            let server = Server::bind(
                &[(slot.clone(), path)],
                &ServerConfig { port: 0, threads },
                None,
            )?;
            let addr = server.local_addr().to_string();
            server_thread = Some(std::thread::spawn(move || server.serve()));
            (addr, true)
        }
    };

    let workloads: Vec<Vec<Request>> = (0..args.clients)
        .map(|c| bench_workload(&space, &slot, requests, 0xBE5E ^ c as u64))
        .collect();

    let started = Instant::now();
    let stats: Vec<Result<ClientStats, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = workloads
            .iter()
            .map(|workload| {
                let addr = addr.as_str();
                scope.spawn(move || drive_bench_client(addr, workload))
            })
            .collect();
        // A panicking client thread must not abort the whole bench via
        // an unwrap on `join` — capture the payload as that client's
        // failure row so the server still gets shut down and the other
        // clients' outcomes still get reported.
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|payload| Err(panic_detail(&*payload)))
            })
            .collect()
    });
    let elapsed = started.elapsed();

    let mut failures: Vec<(usize, String)> = Vec::new();
    let mut latencies: Vec<u64> = Vec::new();
    let mut queries = 0u64;
    let mut results = 0u64;
    for (client, outcome) in stats.into_iter().enumerate() {
        match outcome {
            Ok(s) => {
                latencies.extend_from_slice(&s.latencies_us);
                queries += s.queries;
                results += s.results;
            }
            Err(e) => failures.push((client, e)),
        }
    }

    let mut shutdown_error = None;
    if stop_when_done {
        if let Err(e) = shutdown_server(&addr) {
            shutdown_error = Some(format!("shutdown: {e}"));
        }
    }
    if let Some(handle) = server_thread {
        handle
            .join()
            .map_err(|payload| err(format!("server {}", panic_detail(&*payload))))?
            .map_err(|e| err(format!("server failed: {e}")))?;
    }
    if let Some(path) = temp_catalog {
        let _ = std::fs::remove_file(path);
    }
    if !failures.is_empty() {
        for (client, e) in &failures {
            writeln!(out, "client {client} failed: {e}")?;
        }
        return Err(Box::new(err(format!(
            "{} of {} bench client(s) failed; first: client {}: {}",
            failures.len(),
            args.clients,
            failures[0].0,
            failures[0].1,
        ))));
    }
    if let Some(e) = shutdown_error {
        return Err(Box::new(err(format!("bench cleanup failed: {e}"))));
    }

    let total_requests = latencies.len() as u64;
    let elapsed_s = elapsed.as_secs_f64();
    let qps = queries as f64 / elapsed_s.max(1e-9);
    let rps = total_requests as f64 / elapsed_s.max(1e-9);
    let p50 = percentile_us(&mut latencies, 50.0);
    let p99 = percentile_us(&mut latencies, 99.0);

    writeln!(
        out,
        "{} client(s) x {requests} request(s) against {addr} (slot `{slot}`)",
        args.clients
    )?;
    writeln!(
        out,
        "{total_requests} requests / {queries} queries in {elapsed_s:.3}s: \
         {qps:.0} queries/sec ({rps:.0} requests/sec), {results} rule ids returned"
    )?;
    writeln!(out, "latency p50 {p50}us, p99 {p99}us")?;

    let json = format!(
        "{{\"suite\":\"bench_serve\",\"clients\":{},\"requests\":{total_requests},\
         \"queries\":{queries},\"results\":{results},\"elapsed_s\":{elapsed_s:.6},\
         \"queries_per_sec\":{qps:.1},\"requests_per_sec\":{rps:.1},\
         \"p50_us\":{p50},\"p99_us\":{p99},\"floor\":{:.1}}}",
        args.clients, args.floor
    );
    let json_path = args
        .out
        .clone()
        .or_else(|| std::env::var("QAR_BENCH_OUT").ok())
        .unwrap_or_else(|| "BENCH_serve.json".into());
    std::fs::write(&json_path, format!("{json}\n"))
        .map_err(|e| err(format!("cannot write `{json_path}`: {e}")))?;
    writeln!(out, "summary written to {json_path}")?;

    Ok(qps)
}

/// Execute `qar bench-analytics`: mine a planted ruleset, time the
/// closed-form measures and the Monte-Carlo Shapley attribution, print a
/// human summary, write the machine-readable JSON line, and return the
/// closed-form rules/sec (the caller enforces the floor so the exit code
/// carries it).
pub fn run_bench_analytics(
    args: &BenchAnalyticsArgs,
    out: &mut impl std::io::Write,
) -> Result<f64, Box<dyn std::error::Error>> {
    let quick = std::env::var_os("QAR_BENCH_QUICK").is_some();
    let records = if quick {
        args.records.min(1_000)
    } else {
        args.records
    };
    let iters = if quick { 2 } else { 5 };

    let data = qar_datagen::PlantedDataset::generate(qar_datagen::PlantedConfig {
        num_records: records,
        seed: 1996,
    });
    let config = MinerConfig {
        min_support: 0.05,
        min_confidence: 0.4,
        max_support: 0.5,
        partitioning: PartitionSpec::FixedIntervals(10),
        interest: None,
        max_itemset_size: 2,
        ..MinerConfig::default()
    };
    let result = Miner::new(config).mine(&data.table)?;
    let rules = result.rules.len();
    if rules == 0 {
        return Err(Box::new(err("benchmark mine produced no rules")));
    }

    // Best-of-N wall time for one full analytics computation at the
    // given sampling level. One Shapley sample is the computation's
    // floor (samples are clamped to >= 1), so that run times the
    // closed-form measures; the delta to the full-sampling run is
    // attribution work.
    let time_at = |samples: u32| -> f64 {
        let config = AnalyticsConfig {
            shapley_samples: samples,
            ..AnalyticsConfig::default()
        };
        let mut best = f64::INFINITY;
        for _ in 0..iters {
            let start = Instant::now();
            let set = analytics_from_mining(&result, &config, None);
            best = best.min(start.elapsed().as_secs_f64());
            std::hint::black_box(set);
        }
        best
    };
    let closed_s = time_at(1);
    let shapley_s = time_at(args.samples);

    let rules_per_sec = rules as f64 / closed_s.max(1e-9);
    let total_samples = rules as u64 * args.samples as u64;
    let samples_per_sec = total_samples as f64 / shapley_s.max(1e-9);

    writeln!(
        out,
        "{rules} rule(s) from {records} planted record(s); best of {iters} run(s)"
    )?;
    writeln!(
        out,
        "closed-form measures: {rules_per_sec:.0} rules/sec ({:.3}ms per pass)",
        closed_s * 1e3
    )?;
    writeln!(
        out,
        "Shapley attribution: {samples_per_sec:.0} samples/sec \
         ({} samples/rule, {:.3}ms per pass)",
        args.samples,
        shapley_s * 1e3
    )?;

    let json = format!(
        "{{\"suite\":\"bench_analytics\",\"records\":{records},\"rules\":{rules},\
         \"samples\":{},\"closed_form_rules_per_sec\":{rules_per_sec:.1},\
         \"shapley_samples_per_sec\":{samples_per_sec:.1},\"closed_form_s\":{closed_s:.6},\
         \"shapley_s\":{shapley_s:.6},\"floor\":{:.1}}}",
        args.samples, args.floor
    );
    let json_path = args
        .out
        .clone()
        .or_else(|| std::env::var("QAR_BENCH_OUT").ok())
        .unwrap_or_else(|| "BENCH_analytics.json".into());
    std::fs::write(&json_path, format!("{json}\n"))
        .map_err(|e| err(format!("cannot write `{json_path}`: {e}")))?;
    writeln!(out, "summary written to {json_path}")?;

    Ok(rules_per_sec)
}

/// A [`CountSource`] that times every counting pass two ways — one
/// serial scan of the whole table, and the count-distribution critical
/// path (slowest of `parts`, plus the merge) — while returning the
/// serial counts so the level-wise search proceeds normally. Each pass
/// asserts the merged partition counts equal the serial counts, so the
/// benchmark doubles as an exactness check with real candidate sets.
struct BenchDistSource<'a> {
    full: &'a EncodedTable,
    parts: Vec<EncodedTable>,
    serial_s: f64,
    critical_s: f64,
    merge_s: f64,
}

impl BenchDistSource<'_> {
    fn opts() -> qar_core::supercand::ScanOptions<'static> {
        qar_core::supercand::ScanOptions::new(1)
    }
}

impl CountSource for BenchDistSource<'_> {
    fn meta(&self) -> &EncodedTable {
        self.full
    }

    fn num_rows(&self) -> u64 {
        self.full.num_rows() as u64
    }

    fn value_counts(&mut self) -> Result<Vec<Vec<u64>>, CountError> {
        // Histograms flattened attribute by attribute, then re-split.
        let (flat, _) = self.time_pass(1, |table| {
            let counts = qar_core::frequent::attribute_value_counts(table);
            Ok((counts.concat(), Default::default()))
        })?;
        let mut rest = &flat[..];
        Ok((self.full.schema().iter())
            .map(|(id, _)| {
                let (head, tail) = rest.split_at(self.full.cardinality(id) as usize);
                rest = tail;
                head.to_vec()
            })
            .collect())
    }

    fn count_pairs(&mut self, grid: &PairGrid) -> Result<Counted, CountError> {
        self.time_pass(2, |table| {
            qar_core::supercand::count_pairs_opts(
                table,
                grid,
                qar_core::supercand::PAIR_CELL_BUDGET,
                Self::opts(),
            )
        })
    }

    fn count(
        &mut self,
        pass: usize,
        candidates: &[qar_itemset::Itemset],
    ) -> Result<Counted, CountError> {
        self.time_pass(pass, |table| {
            qar_core::supercand::count_candidates_opts(table, candidates, None, Self::opts())
        })
    }
}

impl BenchDistSource<'_> {
    /// Count one pass serially and per partition with `count`, timing
    /// both, and check the merged partition counts equal the serial ones.
    fn time_pass(
        &mut self,
        pass: usize,
        count: impl Fn(&EncodedTable) -> Result<Counted, qar_core::supercand::ScanCancelled>,
    ) -> Result<Counted, CountError> {
        let timed = |table: &EncodedTable| -> Result<(Counted, f64), CountError> {
            let started = Instant::now();
            let counted = count(table)?;
            Ok((counted, started.elapsed().as_secs_f64()))
        };
        let ((full, stats), serial_s) = timed(self.full)?;
        self.serial_s += serial_s;

        let mut worst = 0.0f64;
        let mut part_counts = Vec::with_capacity(self.parts.len());
        for part in &self.parts {
            let ((counts, _), part_s) = timed(part)?;
            part_counts.push(counts);
            worst = worst.max(part_s);
        }
        self.critical_s += worst;

        let started = Instant::now();
        let mut merged = vec![0u64; full.len()];
        for counts in &part_counts {
            for (a, b) in merged.iter_mut().zip(counts) {
                *a += b;
            }
        }
        self.merge_s += started.elapsed().as_secs_f64();
        if merged != full {
            return Err(CountError::Failed(MinerError::Distributed(format!(
                "pass {pass}: merged partition counts diverge from the serial scan"
            ))));
        }
        Ok((full, stats))
    }
}

/// Split an encoded table into `workers` contiguous row partitions, the
/// same split the distributed coordinator uses: near-even, with the
/// first `rows % workers` partitions one row longer.
fn partition_encoded(encoded: &EncodedTable, workers: usize) -> Vec<EncodedTable> {
    let rows = encoded.num_rows();
    let base = rows / workers;
    let extra = rows % workers;
    let mut parts = Vec::with_capacity(workers);
    let mut start = 0usize;
    for w in 0..workers {
        let len = base + usize::from(w < extra);
        let columns: Vec<Vec<u32>> = encoded
            .schema()
            .iter()
            .map(|(id, _)| encoded.codes(id)[start..start + len].to_vec())
            .collect();
        parts.push(EncodedTable::from_parts(
            encoded.schema().clone(),
            encoded.encoders().to_vec(),
            columns,
            len,
        ));
        start += len;
    }
    parts
}

/// Execute `qar bench-dist`: mine a planted table through
/// `BenchDistSource`, print a human summary, write the
/// machine-readable JSON line, and return the counting speedup (the
/// caller enforces the floor so the exit code carries it).
pub fn run_bench_dist(
    args: &BenchDistArgs,
    out: &mut impl std::io::Write,
) -> Result<f64, Box<dyn std::error::Error>> {
    let quick = std::env::var_os("QAR_BENCH_QUICK").is_some();
    let records = if quick {
        args.records.min(200_000)
    } else {
        args.records
    };

    let data = qar_datagen::PlantedDataset::generate(qar_datagen::PlantedConfig {
        num_records: records,
        seed: 1996,
    });
    let config = MinerConfig {
        min_support: 0.08,
        min_confidence: 0.5,
        max_support: 0.4,
        partitioning: PartitionSpec::FixedIntervals(10),
        interest: None,
        max_itemset_size: 2,
        parallelism: std::num::NonZeroUsize::new(1),
        ..MinerConfig::default()
    };
    let (encoders, _) =
        qar_core::pipeline::build_encoders(&data.table, &config).map_err(box_miner_error)?;
    let encoded = EncodedTable::encode(&data.table, encoders)?;
    drop(data);

    let mut source = BenchDistSource {
        parts: partition_encoded(&encoded, args.workers),
        full: &encoded,
        serial_s: 0.0,
        critical_s: 0.0,
        merge_s: 0.0,
    };
    let result = mine_source(&mut source, &config, None, None).map_err(box_miner_error)?;
    let (serial_s, critical_s, merge_s) = (source.serial_s, source.critical_s, source.merge_s);
    let dist_s = critical_s + merge_s;
    let speedup = serial_s / dist_s.max(1e-9);
    let passes = 1 + result.stats.mine.pass_stats.len();

    writeln!(
        out,
        "{records} planted record(s), {} worker partition(s), {passes} counting pass(es), \
         {} rule(s); partition counts merged exactly on every pass",
        args.workers,
        result.rules.len(),
    )?;
    writeln!(
        out,
        "serial counting {serial_s:.3}s; distributed critical path {critical_s:.3}s \
         + merge {merge_s:.3}s = {dist_s:.3}s"
    )?;
    writeln!(
        out,
        "counting speedup {speedup:.2}x (floor {:.2}x)",
        args.floor
    )?;

    let json = format!(
        "{{\"suite\":\"bench_dist\",\"records\":{records},\"workers\":{},\
         \"passes\":{passes},\"rules\":{},\"serial_s\":{serial_s:.6},\
         \"critical_path_s\":{critical_s:.6},\"merge_s\":{merge_s:.6},\
         \"speedup\":{speedup:.3},\"floor\":{:.2}}}",
        args.workers,
        result.rules.len(),
        args.floor
    );
    let json_path = args
        .out
        .clone()
        .or_else(|| std::env::var("QAR_BENCH_OUT").ok())
        .unwrap_or_else(|| "BENCH_dist.json".into());
    std::fs::write(&json_path, format!("{json}\n"))
        .map_err(|e| err(format!("cannot write `{json_path}`: {e}")))?;
    writeln!(out, "summary written to {json_path}")?;

    Ok(speedup)
}

/// The synthetic update-benchmark table: small integer/categorical
/// domains (append-stable value-list encoders, so the incremental path
/// applies), with the first rows enumerating every value so a delta
/// drawn from the same distribution never introduces an unseen one.
///
/// Every candidate's expected support sits at least 0.03 away from the
/// benchmark's `minsup` (0.10) at any scale: 40% of rows are a planted
/// `(qty=1, price=10, region=north)` triple (items/pairs/triple at
/// 0.40–0.60), and the uniform remainder puts every other pair at
/// 0.05–0.067. Without that separation a pair hovering at the threshold
/// could cross it between the base mine and the combined mine, which
/// changes the next pass's candidate set and legitimately forces the
/// update off the incremental path — the one thing this benchmark must
/// never do.
fn bench_update_table(records: usize, seed: u64) -> Table {
    let schema = Schema::builder()
        .quantitative("qty")
        .quantitative("price")
        .categorical("region")
        .build()
        .expect("static schema");
    let regions = ["south", "east", "west"];
    let mut rng = Prng::seed_from_u64(seed);
    let mut table = Table::new(schema);
    for i in 0..records {
        // The first 10 rows sweep every domain so later draws (and the
        // delta) are always encodable under the base encoders.
        let (qty, price, region) = if i < 10 {
            (
                i as i64 % 4,
                (i as i64 % 3) * 5 + 5,
                if i % 4 == 0 { "north" } else { regions[i % 3] },
            )
        } else if rng.gen_range(0..10u32) < 4 {
            (1, 10, "north")
        } else {
            (
                rng.gen_range(0..4i64),
                rng.gen_range(0..3i64) * 5 + 5,
                regions[rng.gen_range(0..3usize)],
            )
        };
        table
            .push_row(&[
                Value::Int(qty),
                Value::Int(price),
                Value::Cat(region.to_string()),
            ])
            .expect("schema-conformant row");
    }
    table
}

/// Execute `qar bench-update`: mine a base table with count capture,
/// append a delta, and time the incremental `--update` path against a
/// full re-mine of base+delta — asserting along the way that the update
/// stayed incremental and reproduced the from-scratch counts and rules
/// exactly. Returns the update speedup (re-mine time / update time).
pub fn run_bench_update(
    args: &BenchUpdateArgs,
    out: &mut impl std::io::Write,
) -> Result<f64, Box<dyn std::error::Error>> {
    let quick = std::env::var_os("QAR_BENCH_QUICK").is_some();
    let records = if quick {
        args.records.min(50_000)
    } else {
        args.records
    };
    let delta_rows = ((records as f64 * args.delta).ceil() as usize).max(1);

    // Base and delta from the same distribution; raw-value mining keeps
    // the encoders append-stable so the update is genuinely incremental.
    let base = bench_update_table(records, 1996);
    let delta = bench_update_table(delta_rows, 2026);
    let mut combined = Table::new(base.schema().clone());
    for table in [&base, &delta] {
        for r in 0..table.num_rows() {
            combined.push_row(&table.row(r).to_values())?;
        }
    }
    let config = MinerConfig {
        min_support: 0.1,
        min_confidence: 0.3,
        max_support: 1.0,
        partitioning: PartitionSpec::None,
        max_itemset_size: 3,
        parallelism: std::num::NonZeroUsize::new(1),
        ..MinerConfig::default()
    };

    let (base_output, base_counts) = Miner::new(config.clone()).mine_with_counts(&base)?;

    let iters = if quick { 1 } else { 3 };
    let mut remine_s = f64::INFINITY;
    let mut remined = None;
    for _ in 0..iters {
        let t = Instant::now();
        let pair = Miner::new(config.clone()).mine_with_counts(&combined)?;
        remine_s = remine_s.min(t.elapsed().as_secs_f64());
        remined = Some(pair);
    }
    let (remine_output, remine_counts) = remined.expect("at least one re-mine iteration");

    let mut update_s = f64::INFINITY;
    let mut updated = None;
    for _ in 0..iters {
        let t = Instant::now();
        let uo = Miner::new(config.clone())
            .update(UpdateInput {
                schema: base_output.encoded.schema(),
                encoders: base_output.encoded.encoders(),
                counts: &base_counts,
                delta: &delta,
                base_rows: None,
            })
            .map_err(box_miner_error)?;
        update_s = update_s.min(t.elapsed().as_secs_f64());
        updated = Some(uo);
    }
    let updated = updated.expect("at least one update iteration");

    // Exactness gates: the benchmark is meaningless if the update fell
    // back or diverged from the from-scratch mine.
    if !updated.incremental {
        return Err(Box::new(err(format!(
            "bench-update fell back to a full re-mine ({})",
            updated.fallback.as_deref().unwrap_or("unknown reason")
        ))));
    }
    if updated.counts != remine_counts {
        return Err(Box::new(err(
            "bench-update: merged counts diverged from the from-scratch mine",
        )));
    }
    if updated.output.rules != remine_output.rules {
        return Err(Box::new(err(
            "bench-update: updated rules diverged from the from-scratch mine",
        )));
    }

    let speedup = remine_s / update_s.max(1e-9);
    let passes = updated.counts.captured.passes.len() + 1;
    writeln!(
        out,
        "{records} base record(s) + {delta_rows} delta record(s), {passes} counting pass(es), \
         {} rule(s); update counts and rules match the from-scratch mine exactly",
        updated.output.rules.len(),
    )?;
    writeln!(
        out,
        "full re-mine {remine_s:.3}s; incremental update {update_s:.3}s"
    )?;
    writeln!(
        out,
        "update speedup {speedup:.2}x (floor {:.2}x)",
        args.floor
    )?;

    let json = format!(
        "{{\"suite\":\"bench_update\",\"records\":{records},\"delta_rows\":{delta_rows},\
         \"passes\":{passes},\"rules\":{},\"remine_s\":{remine_s:.6},\
         \"update_s\":{update_s:.6},\"speedup\":{speedup:.3},\"floor\":{:.2}}}",
        updated.output.rules.len(),
        args.floor
    );
    let json_path = args
        .out
        .clone()
        .or_else(|| std::env::var("QAR_BENCH_OUT").ok())
        .unwrap_or_else(|| "BENCH_update.json".into());
    std::fs::write(&json_path, format!("{json}\n"))
        .map_err(|e| err(format!("cannot write `{json_path}`: {e}")))?;
    writeln!(out, "summary written to {json_path}")?;

    Ok(speedup)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|x| x.to_string()).collect()
    }

    #[test]
    fn help_variants() {
        assert_eq!(parse_command(&[]).unwrap(), Command::Help);
        assert_eq!(parse_command(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse_command(&argv("--help")).unwrap(), Command::Help);
    }

    #[test]
    fn mine_defaults() {
        let cmd = parse_command(&argv(
            "mine --input data.csv --schema age:quant,married:cat",
        ))
        .unwrap();
        let Command::Mine(args) = cmd else { panic!() };
        assert_eq!(args.input, "data.csv");
        assert_eq!(args.schema.len(), 2);
        assert_eq!(args.config.min_support, 0.2);
        assert_eq!(
            args.config.partitioning,
            PartitionSpec::CompletenessLevel(2.0)
        );
        assert!(args.config.interest.is_none());
        assert_eq!(args.config.kernel, None);
        assert_eq!(args.top, 50);
    }

    #[test]
    fn kernel_flag() {
        for (flag, want) in [
            ("direct", ScanKernel::Direct),
            ("bitmask", ScanKernel::Bitmask),
        ] {
            let cmd = parse_command(&argv(&format!(
                "mine --input f --schema a:q --kernel {flag}"
            )))
            .unwrap();
            let Command::Mine(args) = cmd else { panic!() };
            assert_eq!(args.config.kernel, Some(want), "--kernel {flag}");
        }
        // Unknown spellings (including the removed `auto`) are rejected.
        for flags in ["--kernel turbo", "--kernel auto"] {
            let line = format!("mine --input f --schema a:q {flags}");
            assert!(parse_command(&argv(&line)).is_err(), "{flags}");
        }
    }

    #[test]
    fn mine_full_flags() {
        let cmd = parse_command(&argv(
            "mine --input - --schema a:q,b:c --minsup 0.1 --minconf 0.6 --maxsup 0.3 \
             --intervals 8 --strategy kmeans --interest 1.5 --interest-mode and \
             --max-size 3 --top 10 --all-rules --kernel direct",
        ))
        .unwrap();
        let Command::Mine(args) = cmd else { panic!() };
        assert_eq!(args.config.min_support, 0.1);
        assert_eq!(args.config.partitioning, PartitionSpec::FixedIntervals(8));
        assert_eq!(args.config.partition_strategy, PartitionStrategy::KMeans);
        let interest = args.config.interest.unwrap();
        assert_eq!(interest.level, 1.5);
        assert_eq!(interest.mode, InterestMode::SupportAndConfidence);
        assert!(interest.prune_candidates);
        assert_eq!(args.config.max_itemset_size, 3);
        assert_eq!(args.config.kernel, Some(ScanKernel::Direct));
        assert!(!args.interesting_only);
        assert_eq!(args.format, OutputFormat::Text);
    }

    #[test]
    fn format_flag() {
        for (flag, want) in [
            ("csv", OutputFormat::Csv),
            ("json", OutputFormat::Json),
            ("text", OutputFormat::Text),
        ] {
            let cmd = parse_command(&argv(&format!(
                "mine --input f --schema a:q --format {flag}"
            )))
            .unwrap();
            let Command::Mine(args) = cmd else { panic!() };
            assert_eq!(args.format, want);
        }
        assert!(parse_command(&argv("mine --input f --schema a:q --format yaml")).is_err());
    }

    #[test]
    fn csv_format_end_to_end() {
        let gen = GenerateArgs {
            dataset: "people".into(),
            records: 0,
            seed: 0,
            output: "-".into(),
        };
        let mut csv_bytes = Vec::new();
        run_generate(&gen, &mut csv_bytes).expect("generate");
        let decls = parse_schema_decls("Age:quant,Married:cat,NumCars:quant").unwrap();
        let schema = build_schema(&decls).unwrap();
        let table = csv::read_table(csv_bytes.as_slice(), &schema).unwrap();
        let cmd = parse_command(&argv(
            "mine --input - --schema Age:quant,Married:cat,NumCars:quant \
             --minsup 0.4 --minconf 0.5 --maxsup 1.0 --no-partition --format csv",
        ))
        .unwrap();
        let Command::Mine(args) = cmd else { panic!() };
        let mut report = Vec::new();
        run_mine_on_table(&table, &args, &mut report).expect("mine");
        let text = String::from_utf8(report).unwrap();
        assert!(text.starts_with("antecedent,consequent,"), "{text}");
        assert!(text.contains("Married=Yes,NumCars=2,2,0.400000,1.000000"));
    }

    #[test]
    fn mine_rejects_bad_input() {
        assert!(parse_command(&argv("mine --schema a:q")).is_err()); // no input
        assert!(parse_command(&argv("mine --input f")).is_err()); // no schema
        assert!(parse_command(&argv("mine --input f --schema a:bogus")).is_err());
        assert!(parse_command(&argv("mine --input f --schema a:q --minsup nope")).is_err());
        assert!(parse_command(&argv("mine --input f --schema a:q --minsup 2.0")).is_err());
        assert!(parse_command(&argv("mine --input f --schema a:q --strategy diagonal")).is_err());
        assert!(parse_command(&argv("frobnicate")).is_err());
    }

    #[test]
    fn fuzz_defaults_and_flags() {
        let cmd = parse_command(&argv("fuzz")).unwrap();
        assert_eq!(
            cmd,
            Command::Fuzz(FuzzArgs {
                iters: 200,
                seed: 42,
                out: "tests/fuzz_repros".into(),
            })
        );
        let cmd = parse_command(&argv("fuzz --iters 1000 --seed 7 --out /tmp/repros")).unwrap();
        assert_eq!(
            cmd,
            Command::Fuzz(FuzzArgs {
                iters: 1000,
                seed: 7,
                out: "/tmp/repros".into(),
            })
        );
        assert!(parse_command(&argv("fuzz --iters 0")).is_err());
        assert!(parse_command(&argv("fuzz --iters nope")).is_err());
        assert!(parse_command(&argv("fuzz --input f")).is_err());
    }

    /// A short in-process fuzz run through the CLI plumbing: clean repo,
    /// zero divergences, nothing written to the fixture directory.
    #[test]
    fn run_fuzz_smoke_reports_clean() {
        let args = FuzzArgs {
            iters: 30,
            seed: 0xCAFE,
            out: "target/test-fuzz-out-should-not-exist".into(),
        };
        let mut report = Vec::new();
        let divergences = run_fuzz(&args, &mut report).expect("fuzz runs");
        let text = String::from_utf8(report).unwrap();
        assert_eq!(divergences, 0, "{text}");
        assert!(text.contains("all paths agreed"), "{text}");
        assert!(
            !std::path::Path::new(&args.out).exists(),
            "clean run must not create the fixture directory"
        );
    }

    #[test]
    fn schema_decl_parsing() {
        let decls = parse_schema_decls("age:quant, income :q,city:cat,flag:c").unwrap();
        assert_eq!(decls.len(), 4);
        assert!(decls[0].1 && decls[1].1);
        assert!(!decls[2].1 && !decls[3].1);
        assert_eq!(decls[1].0, "income");
        assert!(parse_schema_decls("x").is_err());
        assert!(parse_schema_decls(":q").is_err());
        let schema = build_schema(&decls).unwrap();
        assert_eq!(schema.len(), 4);
    }

    #[test]
    fn taxonomy_flag_parses_and_repeats() {
        let cmd = parse_command(&argv(
            "mine --input f --schema a:c,b:c --taxonomy a=ta.txt --taxonomy b=tb.txt",
        ))
        .unwrap();
        let Command::Mine(args) = cmd else { panic!() };
        assert_eq!(
            args.taxonomy_files,
            vec![
                ("a".to_string(), "ta.txt".to_string()),
                ("b".to_string(), "tb.txt".to_string())
            ]
        );
        assert!(parse_command(&argv("mine --input f --schema a:c --taxonomy nofile")).is_err());
    }

    #[test]
    fn taxonomy_file_parsing() {
        let tax = parse_taxonomy("# comment\nCA,West\nWA,West\n\nWest,USA\n").unwrap();
        assert!(tax.is_ancestor("USA", "CA"));
        assert!(parse_taxonomy("").is_err());
        assert!(parse_taxonomy("justoneword\n").is_err());
        assert!(parse_taxonomy("a,b\nb,a\n").is_err()); // cycle
    }

    #[test]
    fn generate_parsing() {
        let cmd = parse_command(&argv("generate credit --records 500 --seed 7")).unwrap();
        let Command::Generate(args) = cmd else {
            panic!()
        };
        assert_eq!(args.dataset, "credit");
        assert_eq!(args.records, 500);
        assert_eq!(args.seed, 7);
        assert_eq!(args.output, "-");
        assert!(parse_command(&argv("generate nonsense")).is_err());
        assert!(parse_command(&argv("generate")).is_err());
    }

    #[test]
    fn trace_and_deadline_flags() {
        let cmd = parse_command(&argv(
            "mine --input f --schema a:q --trace json --deadline 2.5",
        ))
        .unwrap();
        let Command::Mine(args) = cmd else { panic!() };
        assert_eq!(args.trace, Some(TraceFormat::Json));
        assert_eq!(args.deadline, Some(2.5));
        assert!(parse_command(&argv("mine --input f --schema a:q --trace yaml")).is_err());
        assert!(parse_command(&argv("mine --input f --schema a:q --deadline 0")).is_err());
        assert!(parse_command(&argv("mine --input f --schema a:q --deadline -1")).is_err());
    }

    #[test]
    fn trace_check_parsing_and_validation() {
        let cmd = parse_command(&argv("trace-check")).unwrap();
        assert_eq!(
            cmd,
            Command::TraceCheck(TraceCheckArgs {
                input: "-".into(),
                schema: None
            })
        );
        // Positional input: a file path or `-` for stdin.
        let cmd = parse_command(&argv("trace-check run.jsonl --schema custom.json")).unwrap();
        let Command::TraceCheck(args) = cmd else {
            panic!()
        };
        assert_eq!(args.input, "run.jsonl");
        assert_eq!(args.schema.as_deref(), Some("custom.json"));
        let cmd = parse_command(&argv("trace-check -")).unwrap();
        let Command::TraceCheck(args) = cmd else {
            panic!()
        };
        assert_eq!(args.input, "-");

        let schema_text = include_str!("../schemas/trace_events.schema.json");
        let good = "{\"event\":\"pass_started\",\"pass\":2,\"candidates\":7}\n";
        let mut out = Vec::new();
        run_trace_check(schema_text, good, &mut out).expect("valid stream");
        let report = String::from_utf8(out).unwrap();
        assert!(report.starts_with("1 events valid"), "{report}");
        assert!(report.contains("pass_started: 1"), "{report}");

        let bad = "{\"event\":\"pass_started\",\"pass\":2}\n";
        assert!(run_trace_check(schema_text, bad, &mut Vec::new()).is_err());
        assert!(run_trace_check("not json", good, &mut Vec::new()).is_err());
    }

    #[test]
    fn json_format_includes_pass_stats() {
        let gen = GenerateArgs {
            dataset: "people".into(),
            records: 0,
            seed: 0,
            output: "-".into(),
        };
        let mut csv_bytes = Vec::new();
        run_generate(&gen, &mut csv_bytes).expect("generate");
        let decls = parse_schema_decls("Age:quant,Married:cat,NumCars:quant").unwrap();
        let schema = build_schema(&decls).unwrap();
        let table = csv::read_table(csv_bytes.as_slice(), &schema).unwrap();
        let cmd = parse_command(&argv(
            "mine --input - --schema Age:quant,Married:cat,NumCars:quant \
             --minsup 0.4 --minconf 0.5 --maxsup 1.0 --no-partition --format json",
        ))
        .unwrap();
        let Command::Mine(args) = cmd else { panic!() };
        let mut report = Vec::new();
        run_mine_on_table(&table, &args, &mut report).expect("mine");
        let text = String::from_utf8(report).unwrap();
        let doc = qar_trace::json::parse(&text).expect("valid JSON output");
        let obj = doc.as_object().expect("top-level object");
        let stats = obj["stats"].as_object().expect("stats object");
        assert!(!stats["passes"].as_array().expect("passes").is_empty());
        assert!(!obj["rules"].as_array().expect("rules array").is_empty());
    }

    #[test]
    fn generate_then_mine_round_trip() {
        // people -> CSV -> parse -> mine, all through the CLI layer.
        let gen = GenerateArgs {
            dataset: "people".into(),
            records: 0,
            seed: 0,
            output: "-".into(),
        };
        let mut csv_bytes = Vec::new();
        run_generate(&gen, &mut csv_bytes).expect("generate");

        let decls =
            parse_schema_decls("Age:quant,Married:cat,NumCars:quant").expect("schema decls");
        let schema = build_schema(&decls).expect("schema");
        let table = csv::read_table(csv_bytes.as_slice(), &schema).expect("read generated CSV");

        let cmd = parse_command(&argv(
            "mine --input - --schema Age:quant,Married:cat,NumCars:quant \
             --minsup 0.4 --minconf 0.5 --maxsup 1.0 --no-partition --top 0",
        ))
        .expect("parse");
        let Command::Mine(args) = cmd else { panic!() };
        let mut report = Vec::new();
        run_mine_on_table(&table, &args, &mut report).expect("mine");
        let text = String::from_utf8(report).expect("utf8");
        assert!(text.contains("⟨Married: Yes⟩ ⇒ ⟨NumCars: 2⟩"), "{text}");
    }

    #[test]
    fn query_parsing() {
        let cmd = parse_command(&argv("query cat.qarcat")).unwrap();
        let Command::Query(args) = cmd else { panic!() };
        assert_eq!(args.catalog, "cat.qarcat");
        assert!(args.record.is_none() && args.range.is_none());
        assert!(args.by.is_none() && args.top_k.is_none());
        assert_eq!(args.format, OutputFormat::Text);

        let cmd = parse_command(&argv(
            "query - --record Age=30,Married=Yes --top-k 5 --by interest --format json",
        ))
        .unwrap();
        let Command::Query(args) = cmd else { panic!() };
        assert_eq!(args.catalog, "-"); // stdin
        assert_eq!(args.record.as_deref(), Some("Age=30,Married=Yes"));
        assert_eq!(args.top_k, Some(5));
        assert_eq!(args.by, Some(RankBy::Interest));
        assert_eq!(args.format, OutputFormat::Json);

        let cmd = parse_command(&argv("query c.qarcat --range Age=30..40")).unwrap();
        let Command::Query(args) = cmd else { panic!() };
        assert_eq!(args.range.as_deref(), Some("Age=30..40"));

        assert!(parse_command(&argv("query")).is_err()); // catalog required
        assert!(parse_command(&argv("query c --record a=1 --range a=1..2")).is_err());
        assert!(parse_command(&argv("query c --by niceness")).is_err());
        assert!(parse_command(&argv("query c --top-k lots")).is_err());
        assert!(parse_command(&argv("query c --format yaml")).is_err());
    }

    #[test]
    fn store_check_parsing() {
        let cmd = parse_command(&argv("store-check")).unwrap();
        assert_eq!(
            cmd,
            Command::StoreCheck(StoreCheckArgs { input: "-".into() })
        );
        let cmd = parse_command(&argv("store-check cat.qarcat")).unwrap();
        assert_eq!(
            cmd,
            Command::StoreCheck(StoreCheckArgs {
                input: "cat.qarcat".into()
            })
        );
        assert!(parse_command(&argv("store-check cat.qarcat --verbose yes")).is_err());
    }

    #[test]
    fn mine_store_query_end_to_end() {
        let gen = GenerateArgs {
            dataset: "people".into(),
            records: 0,
            seed: 0,
            output: "-".into(),
        };
        let mut csv_bytes = Vec::new();
        run_generate(&gen, &mut csv_bytes).expect("generate");
        let decls = parse_schema_decls("Age:quant,Married:cat,NumCars:quant").unwrap();
        let schema = build_schema(&decls).unwrap();
        let table = csv::read_table(csv_bytes.as_slice(), &schema).unwrap();

        let store_path =
            std::env::temp_dir().join(format!("qar-cli-end-to-end-{}.qarcat", std::process::id()));
        let cmd = parse_command(&argv(
            "mine --input - --schema Age:quant,Married:cat,NumCars:quant \
             --minsup 0.4 --minconf 0.5 --maxsup 1.0 --no-partition --format json",
        ))
        .unwrap();
        let Command::Mine(mut args) = cmd else {
            panic!()
        };
        args.store = Some(store_path.to_str().unwrap().to_string());
        let mut mine_out = Vec::new();
        run_mine_on_table(&table, &args, &mut mine_out).expect("mine");
        let mine_text = String::from_utf8(mine_out).unwrap();
        let bytes = std::fs::read(&store_path).expect("catalog written");
        std::fs::remove_file(&store_path).ok();

        // `qar store-check` accepts the pristine catalog, leading with
        // the section inventory...
        let mut check_out = Vec::new();
        run_store_check(&bytes, &mut check_out).expect("store-check");
        let check_text = String::from_utf8(check_out).unwrap();
        assert!(check_text.starts_with("sections:"), "{check_text}");
        assert!(check_text.contains("catalog OK:"), "{check_text}");
        assert!(check_text.contains("rules (tag 2):"), "{check_text}");
        assert!(
            check_text.contains("0 unknown section(s) skipped"),
            "{check_text}"
        );
        assert!(check_text.contains("analytics: none"), "{check_text}");

        // ...and rejects a bit-flipped copy.
        let mut corrupt = bytes.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x01;
        assert!(run_store_check(&corrupt, &mut Vec::new()).is_err());

        // An unfiltered JSON query reproduces the mined rules array
        // byte-for-byte — the contract the CI store-smoke step relies on.
        let cmd = parse_command(&argv("query - --format json")).unwrap();
        let Command::Query(qargs) = cmd else { panic!() };
        let mut query_out = Vec::new();
        run_query(&bytes, &qargs, &mut query_out).expect("query");
        let query_text = String::from_utf8(query_out).unwrap();
        let rules_at = mine_text.find("\"rules\":").expect("rules key") + "\"rules\":".len();
        let mined_rules = &mine_text[rules_at..mine_text.len() - "}\n".len()];
        assert_eq!(query_text, mined_rules);

        // A record query returns only rules whose antecedents cover it.
        let cmd = parse_command(&argv("query - --record Married=Yes,NumCars=2")).unwrap();
        let Command::Query(qargs) = cmd else { panic!() };
        let mut rec_out = Vec::new();
        run_query(&bytes, &qargs, &mut rec_out).expect("record query");
        let rec_text = String::from_utf8(rec_out).unwrap();
        assert!(rec_text.contains("fire for the record"), "{rec_text}");
        assert!(rec_text.contains("⟨Married: Yes⟩"), "{rec_text}");

        // A range query mentions the interval; an unknown label errors.
        let cmd = parse_command(&argv("query - --range Age=20..30 --top-k 3")).unwrap();
        let Command::Query(qargs) = cmd else { panic!() };
        run_query(&bytes, &qargs, &mut Vec::new()).expect("range query");
        let cmd = parse_command(&argv("query - --record Married=Perhaps")).unwrap();
        let Command::Query(qargs) = cmd else { panic!() };
        assert!(run_query(&bytes, &qargs, &mut Vec::new()).is_err());
        let cmd = parse_command(&argv("query - --range Married=1..2")).unwrap();
        let Command::Query(qargs) = cmd else { panic!() };
        assert!(run_query(&bytes, &qargs, &mut Vec::new()).is_err());
    }

    #[test]
    fn serve_defaults_and_flags() {
        let cmd = parse_command(&argv("serve cat.qarcat")).unwrap();
        assert_eq!(
            cmd,
            Command::Serve(ServeArgs {
                catalogs: vec!["cat.qarcat".into()],
                port: 0,
                threads: 0,
                trace: None,
            })
        );
        let cmd = parse_command(&argv(
            "serve a.qarcat b.qarcat --port 9999 --threads 4 --trace json",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Serve(ServeArgs {
                catalogs: vec!["a.qarcat".into(), "b.qarcat".into()],
                port: 9999,
                threads: 4,
                trace: Some(TraceFormat::Json),
            })
        );
        assert!(parse_command(&argv("serve")).is_err());
        assert!(parse_command(&argv("serve --port 1234")).is_err());
        assert!(parse_command(&argv("serve cat.qarcat --port 70000")).is_err());
        assert!(parse_command(&argv("serve cat.qarcat --bogus 1")).is_err());
    }

    #[test]
    fn bench_serve_defaults_and_flags() {
        let cmd = parse_command(&argv("bench-serve")).unwrap();
        assert_eq!(
            cmd,
            Command::BenchServe(BenchServeArgs {
                addr: None,
                catalog: None,
                clients: 8,
                requests: 2000,
                threads: 0,
                floor: 50_000.0,
                shutdown: false,
                out: None,
            })
        );
        let cmd = parse_command(&argv(
            "bench-serve --addr 127.0.0.1:7000 --catalog cat.qarcat --clients 2 \
             --requests 10 --threads 3 --floor 0 --shutdown --out b.json",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::BenchServe(BenchServeArgs {
                addr: Some("127.0.0.1:7000".into()),
                catalog: Some("cat.qarcat".into()),
                clients: 2,
                requests: 10,
                threads: 3,
                floor: 0.0,
                shutdown: true,
                out: Some("b.json".into()),
            })
        );
        // --shutdown is meaningless without --addr: self-hosted servers
        // are always stopped.
        assert!(parse_command(&argv("bench-serve --shutdown")).is_err());
        assert!(parse_command(&argv("bench-serve --clients 0")).is_err());
        assert!(parse_command(&argv("bench-serve --bogus 1")).is_err());
    }

    #[test]
    fn catalog_slots_use_file_stems() {
        let slots = catalog_slots(&["rules/cat.qarcat".into(), "other.qarcat".into()]).unwrap();
        assert_eq!(
            slots,
            vec![
                ("cat".to_string(), PathBuf::from("rules/cat.qarcat")),
                ("other".to_string(), PathBuf::from("other.qarcat")),
            ]
        );
        assert!(catalog_slots(&["..".into()]).is_err());
    }

    #[test]
    fn bench_workload_is_deterministic_and_mixed() {
        let space = QuerySpace::generic();
        let a = bench_workload(&space, "cat", 32, 7);
        let b = bench_workload(&space, "cat", 32, 7);
        assert_eq!(a, b);
        let kind = |r: &Request| match r {
            Request::Batch { .. } => "batch",
            Request::Query { query, .. } => query.kind(),
            _ => "other",
        };
        for want in ["point", "range", "top_k", "batch"] {
            assert!(a.iter().any(|r| kind(r) == want), "missing {want}");
        }
        // Every seventh request carries a deadline.
        let with_deadline = a
            .iter()
            .filter(|r| match r {
                Request::Query { deadline_ms, .. } | Request::Batch { deadline_ms, .. } => {
                    deadline_ms.is_some()
                }
                _ => false,
            })
            .count();
        assert_eq!(with_deadline, 32 / 7);
    }

    #[test]
    fn analytics_flag_requires_store() {
        let cmd = parse_command(&argv(
            "mine --input f --schema a:q --analytics --store cat.qarcat",
        ))
        .unwrap();
        let Command::Mine(args) = cmd else { panic!() };
        assert!(args.analytics);
        let cmd = parse_command(&argv("mine --input f --schema a:q --store cat.qarcat")).unwrap();
        let Command::Mine(args) = cmd else { panic!() };
        assert!(!args.analytics);
        let e = parse_command(&argv("mine --input f --schema a:q --analytics")).unwrap_err();
        assert!(e.to_string().contains("--store"), "{e}");
    }

    #[test]
    fn analyze_parsing() {
        let cmd = parse_command(&argv("analyze cat.qarcat --input data.csv")).unwrap();
        let Command::Analyze(args) = cmd else {
            panic!()
        };
        assert_eq!(args.catalog, "cat.qarcat");
        assert_eq!(args.input, "data.csv");
        assert_eq!(args.samples, AnalyticsConfig::default().shapley_samples);
        assert_eq!(args.seed, AnalyticsConfig::default().seed);
        assert!(args.output.is_none() && args.trace.is_none());

        let cmd = parse_command(&argv(
            "analyze cat.qarcat --input - --samples 16 --seed 7 --output new.qarcat --trace json",
        ))
        .unwrap();
        let Command::Analyze(args) = cmd else {
            panic!()
        };
        assert_eq!(args.samples, 16);
        assert_eq!(args.seed, 7);
        assert_eq!(args.output.as_deref(), Some("new.qarcat"));
        assert_eq!(args.trace, Some(TraceFormat::Json));

        assert!(parse_command(&argv("analyze --input d.csv")).is_err()); // catalog required
        assert!(parse_command(&argv("analyze - --input d.csv")).is_err()); // no stdin catalog
        assert!(parse_command(&argv("analyze cat.qarcat")).is_err()); // input required
        assert!(parse_command(&argv("analyze cat.qarcat --input d --samples 0")).is_err());
        assert!(parse_command(&argv("analyze cat.qarcat --input d --bogus 1")).is_err());
    }

    #[test]
    fn query_analytics_flags_parse() {
        let cmd = parse_command(&argv(
            "query cat.qarcat --by lift --min-lift 1.5 --max-p 0.05",
        ))
        .unwrap();
        let Command::Query(args) = cmd else { panic!() };
        assert_eq!(args.by, Some(RankBy::Lift));
        assert_eq!(args.min_lift, Some(1.5));
        assert_eq!(args.max_p, Some(0.05));
        for by in ["conviction", "chi2", "jmeasure"] {
            let cmd = parse_command(&argv(&format!("query c --by {by}"))).unwrap();
            let Command::Query(args) = cmd else { panic!() };
            assert!(args.by.is_some(), "--by {by}");
        }
        assert!(parse_command(&argv("query c --min-lift lots")).is_err());
        assert!(parse_command(&argv("query c --max-p often")).is_err());
    }

    #[test]
    fn bench_analytics_parsing() {
        let cmd = parse_command(&argv("bench-analytics")).unwrap();
        assert_eq!(
            cmd,
            Command::BenchAnalytics(BenchAnalyticsArgs {
                records: 5_000,
                samples: 64,
                floor: 500.0,
                out: None,
            })
        );
        let cmd = parse_command(&argv(
            "bench-analytics --records 100 --samples 8 --floor 0 --out b.json",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::BenchAnalytics(BenchAnalyticsArgs {
                records: 100,
                samples: 8,
                floor: 0.0,
                out: Some("b.json".into()),
            })
        );
        assert!(parse_command(&argv("bench-analytics --records 0")).is_err());
        assert!(parse_command(&argv("bench-analytics --samples 0")).is_err());
        assert!(parse_command(&argv("bench-analytics --bogus 1")).is_err());
    }

    /// The full analytics lifecycle through the CLI layer: mine with
    /// `--analytics`, inventory the stored sections, rank and filter by
    /// the new metrics, refuse them on an analytics-less catalog, and
    /// prove `qar analyze` backfills a byte-identical catalog.
    #[test]
    fn mine_analytics_analyze_query_end_to_end() {
        let gen = GenerateArgs {
            dataset: "people".into(),
            records: 0,
            seed: 0,
            output: "-".into(),
        };
        let mut csv_bytes = Vec::new();
        run_generate(&gen, &mut csv_bytes).expect("generate");
        let decls = parse_schema_decls("Age:quant,Married:cat,NumCars:quant").unwrap();
        let schema = build_schema(&decls).unwrap();
        let table = csv::read_table(csv_bytes.as_slice(), &schema).unwrap();

        let pid = std::process::id();
        let with_path = std::env::temp_dir().join(format!("qar-cli-analytics-{pid}.qarcat"));
        let plain_path = std::env::temp_dir().join(format!("qar-cli-plain-{pid}.qarcat"));
        let base = "mine --input - --schema Age:quant,Married:cat,NumCars:quant \
                    --minsup 0.4 --minconf 0.5 --maxsup 1.0 --no-partition";
        for (flags, path) in [(" --analytics", &with_path), ("", &plain_path)] {
            let cmd = parse_command(&argv(&format!(
                "{base}{flags} --store {}",
                path.to_str().unwrap()
            )))
            .unwrap();
            let Command::Mine(args) = cmd else { panic!() };
            run_mine_on_table(&table, &args, &mut Vec::new()).expect("mine");
        }
        let with_bytes = std::fs::read(&with_path).expect("analytics catalog written");
        let plain_bytes = std::fs::read(&plain_path).expect("plain catalog written");
        std::fs::remove_file(&with_path).ok();
        std::fs::remove_file(&plain_path).ok();

        // store-check inventories the ANALYTICS section on one catalog
        // and reports its absence on the other.
        let mut check_out = Vec::new();
        run_store_check(&with_bytes, &mut check_out).expect("store-check");
        let check_text = String::from_utf8(check_out).unwrap();
        assert!(check_text.contains("analytics (tag 4):"), "{check_text}");
        assert!(check_text.contains("Shapley sample(s)"), "{check_text}");
        let mut check_out = Vec::new();
        run_store_check(&plain_bytes, &mut check_out).expect("store-check");
        let check_text = String::from_utf8(check_out).unwrap();
        assert!(!check_text.contains("analytics (tag 4):"), "{check_text}");
        assert!(check_text.contains("analytics: none"), "{check_text}");

        // Analytics rankings and filters work on the annotated catalog...
        for spec in [
            "query - --by lift",
            "query - --by conviction --top-k 2",
            "query - --by chi2 --max-p 1.0",
            "query - --by jmeasure --min-lift 0",
            "query - --record Married=Yes --by lift --min-lift 0 --max-p 1.0",
        ] {
            let cmd = parse_command(&argv(spec)).unwrap();
            let Command::Query(qargs) = cmd else { panic!() };
            let mut out = Vec::new();
            run_query(&with_bytes, &qargs, &mut out).expect(spec);
            assert!(String::from_utf8(out).unwrap().contains("rules"), "{spec}");
        }

        // ...and are refused with a pointer at the backfill path on the
        // plain catalog, which keeps answering classic queries.
        for spec in ["query - --by lift", "query - --min-lift 1.0"] {
            let cmd = parse_command(&argv(spec)).unwrap();
            let Command::Query(qargs) = cmd else { panic!() };
            let e = run_query(&plain_bytes, &qargs, &mut Vec::new()).unwrap_err();
            assert!(e.to_string().contains("qar analyze"), "{spec}: {e}");
        }
        let cmd = parse_command(&argv("query - --by confidence --top-k 3")).unwrap();
        let Command::Query(qargs) = cmd else { panic!() };
        run_query(&plain_bytes, &qargs, &mut Vec::new()).expect("classic ranking");

        // `qar analyze` backfills the plain catalog into a byte-for-byte
        // copy of what `mine --analytics` stored (same defaults, same
        // deterministic sampler).
        let cmd = parse_command(&argv("analyze plain.qarcat --input -")).unwrap();
        let Command::Analyze(aargs) = cmd else {
            panic!()
        };
        let mut analyze_out = Vec::new();
        let annotated =
            run_analyze(&plain_bytes, &csv_bytes, &aargs, &mut analyze_out).expect("analyze");
        let analyze_text = String::from_utf8(analyze_out).unwrap();
        assert!(
            analyze_text.contains("backfilled analytics for"),
            "{analyze_text}"
        );
        // The annotated catalog is the plain one with the ANALYTICS
        // section spliced in before COUNTS — and that section is
        // byte-identical to what `mine --analytics` stored (the whole
        // files can't be compared: the two mines' STATS sections carry
        // different wall times).
        fn section_ranges(bytes: &[u8]) -> Vec<(u32, std::ops::Range<usize>)> {
            let sections = qar_store::section_inventory(bytes).expect("catalog walks");
            let mut offset = qar_store::format::MAGIC.len() + 4;
            sections
                .iter()
                .map(|s| {
                    let start = offset;
                    offset += 4 + 8 + 4 + s.len as usize;
                    (s.tag, start..offset)
                })
                .collect()
        }
        let analytics_of = |bytes: &[u8]| -> std::ops::Range<usize> {
            section_ranges(bytes)
                .into_iter()
                .find(|(tag, _)| *tag == 4)
                .expect("ANALYTICS section present")
                .1
        };
        let ann_range = analytics_of(&annotated);
        assert_eq!(
            annotated[ann_range.clone()],
            with_bytes[analytics_of(&with_bytes)],
            "backfilled ANALYTICS section is byte-identical"
        );
        let mut without_analytics = annotated.clone();
        without_analytics.drain(ann_range);
        assert_eq!(
            without_analytics, plain_bytes,
            "annotated catalog is the plain one plus the ANALYTICS section"
        );

        // A row-count mismatch is rejected before any annotation.
        let truncated_csv = {
            let text = String::from_utf8(csv_bytes.clone()).unwrap();
            let mut lines: Vec<&str> = text.lines().collect();
            lines.pop();
            lines.join("\n") + "\n"
        };
        let e = run_analyze(
            &plain_bytes,
            truncated_csv.as_bytes(),
            &aargs,
            &mut Vec::new(),
        )
        .unwrap_err();
        assert!(e.to_string().contains("row"), "{e}");
    }

    /// `bench-analytics` produces sane numbers and a parseable summary
    /// line at smoke scale.
    #[test]
    fn bench_analytics_smoke() {
        let out_path = std::env::temp_dir().join(format!(
            "qar-bench-analytics-test-{}.json",
            std::process::id()
        ));
        let args = BenchAnalyticsArgs {
            records: 400,
            samples: 8,
            floor: 0.0,
            out: Some(out_path.to_str().unwrap().to_string()),
        };
        let mut report = Vec::new();
        let rps = run_bench_analytics(&args, &mut report).expect("bench runs");
        assert!(rps > 0.0);
        let text = String::from_utf8(report).unwrap();
        assert!(text.contains("closed-form measures:"), "{text}");
        assert!(text.contains("Shapley attribution:"), "{text}");
        let json = std::fs::read_to_string(&out_path).expect("summary written");
        std::fs::remove_file(&out_path).ok();
        let doc = qar_trace::json::parse(&json).expect("valid JSON");
        let obj = doc.as_object().expect("object");
        assert_eq!(obj["suite"].as_str(), Some("bench_analytics"));
        for key in ["closed_form_rules_per_sec", "shapley_samples_per_sec"] {
            let qar_trace::json::Json::Num(v) = obj[key] else {
                panic!("{key} is not a number");
            };
            assert!(v > 0.0, "{key} = {v}");
        }
    }

    #[test]
    fn percentiles_of_latency_samples() {
        let mut empty: Vec<u64> = Vec::new();
        assert_eq!(percentile_us(&mut empty, 50.0), 0);
        let mut one = vec![42];
        assert_eq!(percentile_us(&mut one, 99.0), 42);
        let mut sample: Vec<u64> = (1..=100).rev().collect();
        // Nearest-rank on 100 samples: rank round(0.5 * 99) = 50.
        assert_eq!(percentile_us(&mut sample, 50.0), 51);
        assert_eq!(percentile_us(&mut sample, 99.0), 99);
        assert_eq!(percentile_us(&mut sample, 100.0), 100);
    }

    #[test]
    fn dist_mine_flags_parse() {
        let cmd = parse_command(&argv(
            "mine --input f --schema a:q --workers 3 --chunk-rows 512 --normalize-stats",
        ))
        .unwrap();
        let Command::Mine(args) = cmd else { panic!() };
        assert_eq!(args.workers, 3);
        assert_eq!(args.chunk_rows, 512);
        assert!(args.normalize_stats);
        // Defaults: serial, in-memory, raw stats.
        let cmd = parse_command(&argv("mine --input f --schema a:q")).unwrap();
        let Command::Mine(args) = cmd else { panic!() };
        assert_eq!(args.workers, 0);
        assert_eq!(args.chunk_rows, 0);
        assert!(!args.normalize_stats);
        // Analytics need the full in-memory table on the coordinator.
        for flags in ["--workers 2", "--chunk-rows 64"] {
            let e = parse_command(&argv(&format!(
                "mine --input f --schema a:q --store c.qarcat --analytics {flags}"
            )))
            .unwrap_err();
            assert!(e.to_string().contains("qar analyze"), "{flags}: {e}");
        }
        // The chunked path reads the file twice, so stdin is out.
        let e = parse_command(&argv("mine --input - --schema a:q --chunk-rows 64")).unwrap_err();
        assert!(e.to_string().contains("stdin"), "{e}");
        assert!(parse_command(&argv("mine --input f --schema a:q --workers lots")).is_err());
    }

    #[test]
    fn worker_parsing() {
        let cmd = parse_command(&argv("worker --connect 127.0.0.1:7001")).unwrap();
        assert_eq!(
            cmd,
            Command::Worker(WorkerArgs {
                connect: "127.0.0.1:7001".into(),
                threads: 0,
                kernel: None,
            })
        );
        let cmd =
            parse_command(&argv("worker --connect h:1 --threads 2 --kernel bitmask")).unwrap();
        assert_eq!(
            cmd,
            Command::Worker(WorkerArgs {
                connect: "h:1".into(),
                threads: 2,
                kernel: Some(ScanKernel::Bitmask),
            })
        );
        let e = parse_command(&argv("worker")).unwrap_err();
        assert!(e.to_string().contains("--connect"), "{e}");
        assert!(parse_command(&argv("worker --connect h:1 --kernel turbo")).is_err());
        assert!(parse_command(&argv("worker --connect h:1 --bogus 1")).is_err());
    }

    #[test]
    fn bench_dist_parsing() {
        let cmd = parse_command(&argv("bench-dist")).unwrap();
        assert_eq!(
            cmd,
            Command::BenchDist(BenchDistArgs {
                records: 10_000_000,
                workers: 2,
                floor: 1.6,
                out: None,
            })
        );
        let cmd = parse_command(&argv(
            "bench-dist --records 1000 --workers 4 --floor 0 --out b.json",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::BenchDist(BenchDistArgs {
                records: 1000,
                workers: 4,
                floor: 0.0,
                out: Some("b.json".into()),
            })
        );
        assert!(parse_command(&argv("bench-dist --records 0")).is_err());
        let e = parse_command(&argv("bench-dist --workers 1")).unwrap_err();
        assert!(e.to_string().contains("at least 2"), "{e}");
        assert!(parse_command(&argv("bench-dist --bogus 1")).is_err());
    }

    /// Count-distribution over in-process worker threads reproduces the
    /// serial miner's JSON report and stored catalog byte-for-byte
    /// (`--normalize-stats` zeroes the volatile timings on both sides).
    #[test]
    fn distributed_mine_matches_serial_byte_for_byte() {
        let gen = GenerateArgs {
            dataset: "people".into(),
            records: 0,
            seed: 0,
            output: "-".into(),
        };
        let mut csv_bytes = Vec::new();
        run_generate(&gen, &mut csv_bytes).expect("generate");
        let decls = parse_schema_decls("Age:quant,Married:cat,NumCars:quant").unwrap();
        let schema = build_schema(&decls).unwrap();
        let table = csv::read_table(csv_bytes.as_slice(), &schema).unwrap();

        let pid = std::process::id();
        let mut outputs = Vec::new();
        for workers in [0usize, 2, 3] {
            let path = std::env::temp_dir().join(format!("qar-cli-dist-{pid}-{workers}.qarcat"));
            let cmd = parse_command(&argv(
                "mine --input - --schema Age:quant,Married:cat,NumCars:quant \
                 --minsup 0.4 --minconf 0.5 --maxsup 1.0 --no-partition \
                 --normalize-stats --format json",
            ))
            .unwrap();
            let Command::Mine(mut args) = cmd else {
                panic!()
            };
            args.workers = workers;
            args.store = Some(path.to_str().unwrap().to_string());
            let spawn =
                (workers > 0).then(|| WorkerSpawn::Threads(qar_dist::WorkerOptions::default()));
            let mut report = Vec::new();
            run_mine_on_table_spawn(&table, &args, spawn, &mut report)
                .unwrap_or_else(|e| panic!("{workers} workers: {e}"));
            let catalog = std::fs::read(&path).expect("catalog written");
            std::fs::remove_file(&path).ok();
            outputs.push((workers, report, catalog));
        }
        let (_, serial_report, serial_catalog) = &outputs[0];
        assert!(!serial_catalog.is_empty());
        assert!(qar_trace::json::parse(&String::from_utf8(serial_report.clone()).unwrap()).is_ok());
        for (workers, report, catalog) in &outputs[1..] {
            assert_eq!(report, serial_report, "{workers} workers: report differs");
            assert_eq!(
                catalog, serial_catalog,
                "{workers} workers: catalog differs"
            );
        }
    }

    /// An out-of-core mine at an adversarially tiny chunk size — serial
    /// and distributed over worker threads — reproduces the in-memory
    /// catalog and report byte-for-byte (the issue's acceptance bar).
    #[test]
    fn chunked_mine_matches_in_memory_byte_for_byte() {
        let gen = GenerateArgs {
            dataset: "people".into(),
            records: 0,
            seed: 0,
            output: "-".into(),
        };
        let mut csv_bytes = Vec::new();
        run_generate(&gen, &mut csv_bytes).expect("generate");
        let decls = parse_schema_decls("Age:quant,Married:cat,NumCars:quant").unwrap();
        let schema = build_schema(&decls).unwrap();
        let table = csv::read_table(csv_bytes.as_slice(), &schema).unwrap();

        let pid = std::process::id();
        let csv_path = std::env::temp_dir().join(format!("qar-cli-chunked-{pid}.csv"));
        std::fs::write(&csv_path, &csv_bytes).expect("write CSV");
        let parse_mine = || {
            let cmd = parse_command(&argv(
                "mine --input - --schema Age:quant,Married:cat,NumCars:quant \
                 --minsup 0.4 --minconf 0.5 --maxsup 1.0 --no-partition \
                 --normalize-stats --format json",
            ))
            .unwrap();
            let Command::Mine(args) = cmd else { panic!() };
            args
        };

        // In-memory reference run.
        let ref_path = std::env::temp_dir().join(format!("qar-cli-chunked-{pid}-ref.qarcat"));
        let mut args = parse_mine();
        args.store = Some(ref_path.to_str().unwrap().to_string());
        let mut ref_report = Vec::new();
        run_mine_on_table(&table, &args, &mut ref_report).expect("in-memory mine");
        let ref_catalog = std::fs::read(&ref_path).expect("reference catalog");
        std::fs::remove_file(&ref_path).ok();

        // Out-of-core runs: 3-row chunks force many spill files; the
        // distributed variant hands whole chunks to worker threads.
        for workers in [0usize, 2] {
            let path = std::env::temp_dir().join(format!("qar-cli-chunked-{pid}-{workers}.qarcat"));
            let mut args = parse_mine();
            args.input = csv_path.to_str().unwrap().to_string();
            args.chunk_rows = 3;
            args.workers = workers;
            args.store = Some(path.to_str().unwrap().to_string());
            let spawn =
                (workers > 0).then(|| WorkerSpawn::Threads(qar_dist::WorkerOptions::default()));
            let mut report = Vec::new();
            run_mine_chunked_spawn(&args, spawn, &mut report)
                .unwrap_or_else(|e| panic!("chunked, {workers} workers: {e}"));
            let catalog = std::fs::read(&path).expect("chunked catalog");
            std::fs::remove_file(&path).ok();
            assert_eq!(report, ref_report, "chunked report, {workers} workers");
            assert_eq!(catalog, ref_catalog, "chunked catalog, {workers} workers");
        }
        std::fs::remove_file(&csv_path).ok();
    }

    #[test]
    fn update_flag_parsing() {
        let cmd = parse_command(&argv("mine --input d.csv --update c.qarcat")).unwrap();
        let Command::Mine(args) = cmd else { panic!() };
        assert_eq!(args.update.as_deref(), Some("c.qarcat"));
        assert!(args.schema.is_empty(), "schema comes from the catalog");

        // The schema, thresholds, and partitioning are the catalog's —
        // every semantic flag is refused in combination with --update.
        for flags in [
            "--schema a:q",
            "--minsup 0.2",
            "--minconf 0.6",
            "--maxsup 0.9",
            "--completeness 2.0",
            "--intervals 5",
            "--no-partition",
            "--strategy depth",
            "--interest 1.1",
            "--interest-mode prune",
            "--max-size 3",
        ] {
            let e = parse_command(&argv(&format!(
                "mine --input d.csv --update c.qarcat {flags}"
            )))
            .unwrap_err();
            assert!(e.to_string().contains("--update"), "{flags}: {e}");
        }

        // Performance and output knobs still compose, and --analytics is
        // legal without --store: the update rewrites the catalog in place.
        for flags in [
            "--workers 2",
            "--chunk-rows 64",
            "--threads 2",
            "--kernel bitmask",
            "--normalize-stats",
            "--analytics",
            "--analytics --store out.qarcat",
            "--format json",
        ] {
            parse_command(&argv(&format!(
                "mine --input d.csv --update c.qarcat {flags}"
            )))
            .unwrap_or_else(|e| panic!("{flags}: {e}"));
        }
    }

    #[test]
    fn bench_update_parsing() {
        let cmd = parse_command(&argv("bench-update")).unwrap();
        assert_eq!(
            cmd,
            Command::BenchUpdate(BenchUpdateArgs {
                records: 1_000_000,
                delta: 0.01,
                floor: 5.0,
                out: None,
            })
        );
        let cmd = parse_command(&argv(
            "bench-update --records 1000 --delta 0.5 --floor 0 --out b.json",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::BenchUpdate(BenchUpdateArgs {
                records: 1000,
                delta: 0.5,
                floor: 0.0,
                out: Some("b.json".into()),
            })
        );
        assert!(parse_command(&argv("bench-update --records 0")).is_err());
        for delta in ["0", "-0.1", "1.5", "nan"] {
            assert!(
                parse_command(&argv(&format!("bench-update --delta {delta}"))).is_err(),
                "--delta {delta} accepted"
            );
        }
        assert!(parse_command(&argv("bench-update --bogus 1")).is_err());
    }

    /// Write the paper's people table and a delta of rows copied from it
    /// (copies are always encodable under the base catalog's value-list
    /// encoders) to temp files, returning
    /// `(base_csv, delta_csv, combined_csv)` paths plus the base table.
    fn update_fixture(tag: &str, delta_rows: usize) -> (PathBuf, PathBuf, PathBuf, Table) {
        let gen = GenerateArgs {
            dataset: "people".into(),
            records: 0,
            seed: 0,
            output: "-".into(),
        };
        let mut csv_bytes = Vec::new();
        run_generate(&gen, &mut csv_bytes).expect("generate");
        let text = String::from_utf8(csv_bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let (header, rows) = (lines[0], &lines[1..]);
        assert!(delta_rows <= rows.len());
        let base_csv = text.clone();
        let delta_csv = std::iter::once(header)
            .chain(rows[..delta_rows].iter().copied())
            .collect::<Vec<_>>()
            .join("\n")
            + "\n";
        let combined_csv = text.clone() + &rows[..delta_rows].join("\n") + "\n";

        let decls = parse_schema_decls("Age:quant,Married:cat,NumCars:quant").unwrap();
        let schema = build_schema(&decls).unwrap();
        let table = csv::read_table(base_csv.as_bytes(), &schema).unwrap();

        let pid = std::process::id();
        let dir = std::env::temp_dir();
        let base_path = dir.join(format!("qar-cli-update-{tag}-{pid}-base.csv"));
        let delta_path = dir.join(format!("qar-cli-update-{tag}-{pid}-delta.csv"));
        let combined_path = dir.join(format!("qar-cli-update-{tag}-{pid}-combined.csv"));
        std::fs::write(&base_path, &base_csv).expect("write base CSV");
        std::fs::write(&delta_path, &delta_csv).expect("write delta CSV");
        std::fs::write(&combined_path, &combined_csv).expect("write combined CSV");
        (base_path, delta_path, combined_path, table)
    }

    const UPDATE_MINE_FLAGS: &str = "--minsup 0.4 --minconf 0.5 --maxsup 1.0 --no-partition \
                                     --normalize-stats --format json";

    /// `qar mine --update` across every topology — serial, worker
    /// threads, tiny chunks, and chunked+distributed — reproduces the
    /// from-scratch mine of base+delta byte-for-byte: same JSON report,
    /// same stored catalog including the merged COUNTS section. An empty
    /// delta reproduces the base catalog unchanged.
    #[test]
    fn mine_update_matches_scratch_mine_byte_for_byte() {
        let (base_path, delta_path, combined_path, table) = update_fixture("exact", 2);
        let pid = std::process::id();
        let dir = std::env::temp_dir();

        // From-scratch reference over base+delta.
        let decls = parse_schema_decls("Age:quant,Married:cat,NumCars:quant").unwrap();
        let schema = build_schema(&decls).unwrap();
        let combined_bytes = std::fs::read(&combined_path).unwrap();
        let combined = csv::read_table(combined_bytes.as_slice(), &schema).unwrap();
        let scratch_path = dir.join(format!("qar-cli-update-exact-{pid}-scratch.qarcat"));
        let cmd = parse_command(&argv(&format!(
            "mine --input - --schema Age:quant,Married:cat,NumCars:quant {UPDATE_MINE_FLAGS}"
        )))
        .unwrap();
        let Command::Mine(mut args) = cmd else {
            panic!()
        };
        args.store = Some(scratch_path.to_str().unwrap().to_string());
        let mut scratch_report = Vec::new();
        run_mine_on_table(&combined, &args, &mut scratch_report).expect("scratch mine");
        let scratch_catalog = std::fs::read(&scratch_path).expect("scratch catalog");
        std::fs::remove_file(&scratch_path).ok();

        // Base catalog with persisted counts.
        let base_cat_path = dir.join(format!("qar-cli-update-exact-{pid}-base.qarcat"));
        args.store = Some(base_cat_path.to_str().unwrap().to_string());
        run_mine_on_table(&table, &args, &mut Vec::new()).expect("base mine");
        let base_catalog = std::fs::read(&base_cat_path).expect("base catalog");
        std::fs::remove_file(&base_cat_path).ok();

        for (workers, chunk_rows) in [(0usize, 0usize), (2, 0), (0, 3), (2, 3)] {
            let label = format!("workers={workers} chunk_rows={chunk_rows}");
            let cat_path = dir.join(format!(
                "qar-cli-update-exact-{pid}-w{workers}c{chunk_rows}.qarcat"
            ));
            std::fs::write(&cat_path, &base_catalog).expect("seed catalog copy");
            let cmd = parse_command(&argv(&format!(
                "mine --input {} --update {} --normalize-stats --format json",
                delta_path.to_str().unwrap(),
                cat_path.to_str().unwrap(),
            )))
            .unwrap();
            let Command::Mine(mut uargs) = cmd else {
                panic!()
            };
            uargs.workers = workers;
            uargs.chunk_rows = chunk_rows;
            let spawn =
                (workers > 0).then(|| WorkerSpawn::Threads(qar_dist::WorkerOptions::default()));
            let mut report = Vec::new();
            run_mine_update_spawn(&uargs, spawn, &mut report)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            let updated = std::fs::read(&cat_path).expect("updated catalog");
            std::fs::remove_file(&cat_path).ok();
            assert_eq!(report, scratch_report, "{label}: report differs");
            assert_eq!(updated, scratch_catalog, "{label}: catalog differs");
        }

        // An empty delta (header only) leaves the catalog byte-identical.
        let empty_path = dir.join(format!("qar-cli-update-exact-{pid}-empty.csv"));
        std::fs::write(&empty_path, "Age,Married,NumCars\n").unwrap();
        for (workers, chunk_rows) in [(0usize, 0usize), (0, 3)] {
            let cat_path = dir.join(format!(
                "qar-cli-update-exact-{pid}-noop-w{workers}c{chunk_rows}.qarcat"
            ));
            std::fs::write(&cat_path, &base_catalog).unwrap();
            let cmd = parse_command(&argv(&format!(
                "mine --input {} --update {} --normalize-stats --format json",
                empty_path.to_str().unwrap(),
                cat_path.to_str().unwrap(),
            )))
            .unwrap();
            let Command::Mine(mut uargs) = cmd else {
                panic!()
            };
            uargs.workers = workers;
            uargs.chunk_rows = chunk_rows;
            run_mine_update_spawn(&uargs, None, &mut Vec::new())
                .unwrap_or_else(|e| panic!("empty delta, chunk_rows={chunk_rows}: {e}"));
            let updated = std::fs::read(&cat_path).expect("updated catalog");
            std::fs::remove_file(&cat_path).ok();
            assert_eq!(
                updated, base_catalog,
                "empty delta must be a no-op (chunk_rows={chunk_rows})"
            );
        }
        std::fs::remove_file(&empty_path).ok();
        std::fs::remove_file(&base_path).ok();
        std::fs::remove_file(&delta_path).ok();
        std::fs::remove_file(&combined_path).ok();
    }

    /// `--update` surfaces its guardrails as structured errors: a
    /// counts-less catalog points at `qar mine --store`, and a delta the
    /// base encoders cannot represent reports the incremental fallback
    /// (the CLI never silently re-mines without the base rows).
    #[test]
    fn mine_update_guardrails() {
        let (base_path, delta_path, combined_path, table) = update_fixture("guard", 1);
        let pid = std::process::id();
        let dir = std::env::temp_dir();

        let cmd = parse_command(&argv(&format!(
            "mine --input - --schema Age:quant,Married:cat,NumCars:quant {UPDATE_MINE_FLAGS}"
        )))
        .unwrap();
        let Command::Mine(mut args) = cmd else {
            panic!()
        };
        let cat_path = dir.join(format!("qar-cli-update-guard-{pid}.qarcat"));
        args.store = Some(cat_path.to_str().unwrap().to_string());
        run_mine_on_table(&table, &args, &mut Vec::new()).expect("base mine");
        let base_catalog = std::fs::read(&cat_path).expect("base catalog");

        // No counts → a structured error pointing at the re-mine path.
        let stripped = Catalog::load_bytes(&base_catalog, None)
            .expect("load")
            .without_counts();
        let stripped_path = dir.join(format!("qar-cli-update-guard-{pid}-nocounts.qarcat"));
        stripped
            .save(stripped_path.to_str().unwrap(), None)
            .expect("save");
        let cmd = parse_command(&argv(&format!(
            "mine --input {} --update {}",
            delta_path.to_str().unwrap(),
            stripped_path.to_str().unwrap(),
        )))
        .unwrap();
        let Command::Mine(uargs) = cmd else { panic!() };
        let e = run_mine_update(&uargs, &mut Vec::new()).unwrap_err();
        assert!(e.to_string().contains("no persisted support counts"), "{e}");
        std::fs::remove_file(&stripped_path).ok();

        // A delta with a value the base never saw cannot be encoded under
        // the frozen value-list encoders; without the base rows the CLI
        // reports the fallback instead of guessing.
        let bad_delta_path = dir.join(format!("qar-cli-update-guard-{pid}-bad.csv"));
        std::fs::write(&bad_delta_path, "Age,Married,NumCars\n99,Divorced,7\n").unwrap();
        for chunk_rows in [0usize, 3] {
            let cmd = parse_command(&argv(&format!(
                "mine --input {} --update {}",
                bad_delta_path.to_str().unwrap(),
                cat_path.to_str().unwrap(),
            )))
            .unwrap();
            let Command::Mine(mut uargs) = cmd else {
                panic!()
            };
            uargs.chunk_rows = chunk_rows;
            let e = run_mine_update(&uargs, &mut Vec::new()).unwrap_err();
            assert!(
                e.to_string().contains("base rows unavailable"),
                "chunk_rows={chunk_rows}: {e}"
            );
            let untouched = std::fs::read(&cat_path).expect("catalog survives");
            assert_eq!(untouched, base_catalog, "failed update must not rewrite");
        }
        std::fs::remove_file(&bad_delta_path).ok();
        std::fs::remove_file(&cat_path).ok();
        std::fs::remove_file(&base_path).ok();
        std::fs::remove_file(&delta_path).ok();
        std::fs::remove_file(&combined_path).ok();
    }

    /// Updating a catalog that carries ANALYTICS either recomputes them
    /// (`--analytics`, byte-identical to a from-scratch `mine
    /// --analytics` of base+delta) or drops them, and `store-check`
    /// inventories the COUNTS section either way.
    #[test]
    fn mine_update_analytics_recompute_or_drop() {
        let (base_path, delta_path, combined_path, table) = update_fixture("stale", 2);
        let pid = std::process::id();
        let dir = std::env::temp_dir();

        let decls = parse_schema_decls("Age:quant,Married:cat,NumCars:quant").unwrap();
        let schema = build_schema(&decls).unwrap();
        let combined_bytes = std::fs::read(&combined_path).unwrap();
        let combined = csv::read_table(combined_bytes.as_slice(), &schema).unwrap();

        // From-scratch reference with analytics over base+delta.
        let scratch_path = dir.join(format!("qar-cli-update-stale-{pid}-scratch.qarcat"));
        let cmd = parse_command(&argv(&format!(
            "mine --input - --schema Age:quant,Married:cat,NumCars:quant \
             --analytics --store {} {UPDATE_MINE_FLAGS}",
            scratch_path.to_str().unwrap()
        )))
        .unwrap();
        let Command::Mine(mut args) = cmd else {
            panic!()
        };
        run_mine_on_table(&combined, &args, &mut Vec::new()).expect("scratch mine");
        let scratch_catalog = std::fs::read(&scratch_path).expect("scratch catalog");
        std::fs::remove_file(&scratch_path).ok();

        // Base catalog with analytics and counts.
        let base_cat_path = dir.join(format!("qar-cli-update-stale-{pid}-base.qarcat"));
        args.store = Some(base_cat_path.to_str().unwrap().to_string());
        run_mine_on_table(&table, &args, &mut Vec::new()).expect("base mine");
        let base_catalog = std::fs::read(&base_cat_path).expect("base catalog");
        assert!(Catalog::load_bytes(&base_catalog, None)
            .unwrap()
            .analytics()
            .is_some());

        // --analytics recomputes: byte-identical to the scratch mine.
        let cmd = parse_command(&argv(&format!(
            "mine --input {} --update {} --analytics --normalize-stats --format json",
            delta_path.to_str().unwrap(),
            base_cat_path.to_str().unwrap(),
        )))
        .unwrap();
        let Command::Mine(uargs) = cmd else { panic!() };
        run_mine_update(&uargs, &mut Vec::new()).expect("update with analytics");
        let recomputed = std::fs::read(&base_cat_path).expect("updated catalog");
        assert_eq!(
            recomputed, scratch_catalog,
            "recomputed analytics must match the from-scratch mine"
        );

        // Without --analytics the stale section is dropped (with a
        // warning on stderr), leaving rules+stats+counts only.
        std::fs::write(&base_cat_path, &base_catalog).unwrap();
        let cmd = parse_command(&argv(&format!(
            "mine --input {} --update {} --normalize-stats",
            delta_path.to_str().unwrap(),
            base_cat_path.to_str().unwrap(),
        )))
        .unwrap();
        let Command::Mine(uargs) = cmd else { panic!() };
        run_mine_update(&uargs, &mut Vec::new()).expect("update dropping analytics");
        let dropped_bytes = std::fs::read(&base_cat_path).expect("updated catalog");
        let dropped = Catalog::load_bytes(&dropped_bytes, None).expect("load");
        assert!(dropped.analytics().is_none(), "stale analytics must drop");
        assert!(dropped.counts().is_some(), "counts must persist");

        // store-check inventories the refreshed COUNTS section.
        let mut check_out = Vec::new();
        run_store_check(&dropped_bytes, &mut check_out).expect("store-check");
        let check_text = String::from_utf8(check_out).unwrap();
        assert!(check_text.contains("counts (tag 5):"), "{check_text}");
        assert!(check_text.contains("counts: "), "{check_text}");
        let mut check_out = Vec::new();
        run_store_check(
            &Catalog::load_bytes(&dropped_bytes, None)
                .unwrap()
                .without_counts()
                .encode(),
            &mut check_out,
        )
        .expect("store-check");
        let check_text = String::from_utf8(check_out).unwrap();
        assert!(check_text.contains("counts: none"), "{check_text}");

        std::fs::remove_file(&base_cat_path).ok();
        std::fs::remove_file(&base_path).ok();
        std::fs::remove_file(&delta_path).ok();
        std::fs::remove_file(&combined_path).ok();
    }

    /// `bench-update` produces sane numbers (its internal exactness
    /// gates double as a correctness check) and a parseable summary.
    #[test]
    fn bench_update_smoke() {
        let out_path =
            std::env::temp_dir().join(format!("qar-bench-update-test-{}.json", std::process::id()));
        let args = BenchUpdateArgs {
            records: 2_000,
            delta: 0.01,
            floor: 0.0,
            out: Some(out_path.to_str().unwrap().to_string()),
        };
        let mut report = Vec::new();
        let speedup = run_bench_update(&args, &mut report).expect("bench runs");
        assert!(speedup > 0.0);
        let text = String::from_utf8(report).unwrap();
        assert!(text.contains("speedup"), "{text}");
        let json = std::fs::read_to_string(&out_path).expect("summary written");
        std::fs::remove_file(&out_path).ok();
        let doc = qar_trace::json::parse(&json).expect("valid JSON");
        let obj = doc.as_object().expect("object");
        assert_eq!(obj["suite"].as_str(), Some("bench_update"));
        for key in ["remine_s", "update_s", "speedup"] {
            let qar_trace::json::Json::Num(v) = obj[key] else {
                panic!("{key} is not a number");
            };
            assert!(v > 0.0, "{key} = {v}");
        }
    }

    /// Non-finite analytics values (conviction diverges to +inf at
    /// confidence 1; chi² and its p-values degenerate to NaN) serialize
    /// as `null` in `qar query --format json`, keeping the document
    /// parseable; finite values stay plain numbers.
    #[test]
    fn query_json_nulls_non_finite_analytics() {
        let gen = GenerateArgs {
            dataset: "people".into(),
            records: 0,
            seed: 0,
            output: "-".into(),
        };
        let mut csv_bytes = Vec::new();
        run_generate(&gen, &mut csv_bytes).expect("generate");
        let decls = parse_schema_decls("Age:quant,Married:cat,NumCars:quant").unwrap();
        let schema = build_schema(&decls).unwrap();
        let table = csv::read_table(csv_bytes.as_slice(), &schema).unwrap();
        let path =
            std::env::temp_dir().join(format!("qar-cli-nonfinite-{}.qarcat", std::process::id()));
        let cmd = parse_command(&argv(
            "mine --input - --schema Age:quant,Married:cat,NumCars:quant \
             --minsup 0.4 --minconf 0.5 --maxsup 1.0 --no-partition",
        ))
        .unwrap();
        let Command::Mine(mut args) = cmd else {
            panic!()
        };
        args.store = Some(path.to_str().unwrap().to_string());
        run_mine_on_table(&table, &args, &mut Vec::new()).expect("mine");
        let bytes = std::fs::read(&path).expect("catalog written");
        std::fs::remove_file(&path).ok();

        // Decorate with handcrafted analytics that pin the worst case:
        // +inf conviction and NaN chi²/p on every rule.
        let catalog = Catalog::load_bytes(&bytes, None).expect("load");
        let rules_analytics: Vec<qar_analytics::RuleAnalytics> = catalog
            .rules()
            .iter()
            .map(|rule| qar_analytics::RuleAnalytics {
                count_antecedent: rule.support,
                count_consequent: rule.support,
                lift: 2.5,
                conviction: f64::INFINITY,
                leverage: 0.125,
                chi2: f64::NAN,
                p_value: f64::NAN,
                p_adjusted: f64::NAN,
                jmeasure: 0.5,
                shapley: rule
                    .antecedent
                    .items()
                    .iter()
                    .map(|it| (it.attr, 0.5))
                    .collect(),
            })
            .collect();
        let annotated = catalog
            .with_analytics(qar_analytics::AnalyticsSet {
                shapley_samples: 1,
                seed: 0,
                rules: rules_analytics,
            })
            .expect("valid analytics")
            .encode();

        let cmd = parse_command(&argv("query - --format json")).unwrap();
        let Command::Query(qargs) = cmd else { panic!() };
        let mut out = Vec::new();
        run_query(&annotated, &qargs, &mut out).expect("query");
        let text = String::from_utf8(out).unwrap();
        let doc = qar_trace::json::parse(&text)
            .unwrap_or_else(|e| panic!("JSON stays parseable ({e}): {text}"));
        let rules = doc.as_array().expect("rules array");
        assert!(!rules.is_empty());
        for rule in rules {
            let obj = rule.as_object().expect("rule object");
            assert!(obj["conviction"].is_null(), "{text}");
            assert!(obj["chi2"].is_null(), "{text}");
            assert!(obj["p_value"].is_null(), "{text}");
            assert!(obj["p_adjusted"].is_null(), "{text}");
            let qar_trace::json::Json::Num(lift) = obj["lift"] else {
                panic!("lift is not a number: {text}");
            };
            assert_eq!(lift, 2.5);
        }
        // The raw text never smuggles bare inf/NaN tokens through.
        assert!(!text.contains("inf") && !text.contains("NaN"), "{text}");
    }

    #[test]
    fn panic_detail_extracts_payload_message() {
        let payload = std::thread::spawn(|| panic!("boom {}", 42))
            .join()
            .unwrap_err();
        assert_eq!(panic_detail(&*payload), "thread panicked: boom 42");
        let payload = std::thread::spawn(|| std::panic::panic_any(7u32))
            .join()
            .unwrap_err();
        assert_eq!(
            panic_detail(&*payload),
            "thread panicked (non-string payload)"
        );
    }
}
