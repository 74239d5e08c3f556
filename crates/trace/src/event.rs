//! Structured trace events emitted by a mining run.
//!
//! One event per pipeline milestone. The JSON rendering is one object per
//! line (JSON-lines) with an `"event"` discriminator, matching the
//! checked-in schema in `schemas/trace_events.schema.json`; the text
//! rendering (via [`std::fmt::Display`]) is for humans watching a run.
//!
//! Durations are reported in integer microseconds so events stay exact
//! under JSON's double-precision numbers.

use std::fmt;
use std::time::Duration;

/// Convert a duration to whole microseconds (the unit every event uses).
pub fn micros(d: Duration) -> u64 {
    d.as_micros() as u64
}

/// One observability event from the mining pipeline.
///
/// Pass numbering is 1-based and matches the paper: pass 1 counts single
/// values/ranges, pass `k ≥ 2` counts the `C_k` candidates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A mining run began (emitted before pass 1).
    RunStarted {
        /// Records in the encoded table.
        rows: u64,
        /// Attributes in the schema.
        attributes: usize,
        /// Absolute minimum support count derived from `min_support`.
        min_count: u64,
        /// Absolute maximum combined-range support count.
        max_count: u64,
        /// Worker threads the counting passes may use.
        parallelism: usize,
    },
    /// A pass is about to scan the table. `candidates` is `|C_k|` for
    /// `k ≥ 2` and 0 for pass 1 (pass 1 has no candidate set — every
    /// value is counted).
    PassStarted {
        /// 1-based pass number (= itemset size `k`).
        pass: usize,
        /// Candidates to be counted this pass.
        candidates: usize,
    },
    /// A pass completed, with its statistics.
    PassFinished {
        /// 1-based pass number.
        pass: usize,
        /// Candidates counted (0 for pass 1).
        candidates: usize,
        /// Itemsets that met minimum support.
        frequent: usize,
        /// Frequent items deleted by the Lemma 5 interest prune (pass 1
        /// only; 0 elsewhere).
        pruned: usize,
        /// Super-candidates formed (0 for pass 1).
        super_candidates: usize,
        /// Super-candidates counted by the dense-array backend.
        array_backed: usize,
        /// Super-candidates counted by the R*-tree backend.
        rtree_backed: usize,
        /// Total nodes across the pass's categorical hash trees.
        hash_tree_nodes: usize,
        /// Estimated peak bytes of counting structures across all shards.
        counter_bytes: usize,
        /// Wall-clock of the record scan, µs.
        scan_us: u64,
        /// Wall-clock of merging per-shard tallies, µs (0 when serial).
        merge_us: u64,
        /// Per-shard busy time of the scan, µs, in shard order.
        shard_scan_us: Vec<u64>,
        /// True when the scan ran its shards on the persistent worker
        /// pool (more than one shard); false for a serial scan.
        pooled: bool,
        /// Scan kernel that counted the pass: `"direct"` or `"bitmask"`,
        /// or `"mixed"` when the sub-scans of one pass used different
        /// kernels.
        kernel: String,
    },
    /// The run completed (all frequent itemsets found).
    RunFinished {
        /// Number of passes executed (including pass 1).
        passes: usize,
        /// Total frequent itemsets across all levels.
        frequent_total: usize,
        /// Wall-clock of the whole frequent-itemset phase, µs.
        elapsed_us: u64,
    },
    /// The run was cancelled before completing.
    Cancelled {
        /// Pass during (or before) which cancellation was observed.
        pass: usize,
        /// True when a deadline expired, false for an explicit abort.
        deadline: bool,
    },
    /// A rule catalog was serialized (`qar-store`'s `.qarcat` format).
    CatalogSaved {
        /// Rules written to the catalog.
        rules: usize,
        /// Total encoded size in bytes (header + sections).
        bytes: u64,
        /// Wall-clock of encode + write, µs.
        elapsed_us: u64,
    },
    /// A rule catalog was opened and decoded (checksums verified).
    CatalogLoaded {
        /// Rules the catalog holds.
        rules: usize,
        /// Total encoded size in bytes.
        bytes: u64,
        /// Wall-clock of read + decode, µs.
        elapsed_us: u64,
    },
    /// The in-memory query index over a catalog was built.
    IndexBuilt {
        /// Rules indexed.
        rules: usize,
        /// Entries across the categorical posting lists.
        posting_entries: usize,
        /// Entries across the R*-tree interval indexes.
        interval_entries: usize,
        /// Wall-clock of the index build, µs.
        elapsed_us: u64,
    },
    /// The rule-serving daemon (`qar serve`) is listening.
    ServerStarted {
        /// TCP port the listener bound (the OS's pick when `--port 0`).
        port: u16,
        /// Worker threads carrying connections.
        threads: usize,
        /// Catalogs loaded at startup.
        catalogs: usize,
    },
    /// A client connection was accepted.
    ConnectionOpened {
        /// Server-assigned connection number (1-based, monotonic).
        conn: u64,
    },
    /// A client connection ended (clean close or error).
    ConnectionClosed {
        /// Connection number from [`TraceEvent::ConnectionOpened`].
        conn: u64,
        /// Requests the connection served, including failed ones.
        requests: u64,
    },
    /// One request was answered (every request emits exactly one).
    RequestServed {
        /// Connection number serving the request.
        conn: u64,
        /// Request kind: `ping`, `point`, `range`, `top_k`, `batch`,
        /// `reload`, `info`, or `shutdown`.
        kind: String,
        /// False when the response was a structured error.
        ok: bool,
        /// Queries inside the request (1, or the batch length).
        items: usize,
        /// Rule ids returned across all queries in the request.
        results: usize,
        /// Wall-clock from decoded request to encoded response, µs.
        elapsed_us: u64,
    },
    /// Rule-quality analytics (lift, conviction, chi², J-measure,
    /// Shapley attribution) were computed for a ruleset — on the mine
    /// path (`qar mine --analytics`) or as a backfill (`qar analyze`).
    AnalyticsComputed {
        /// Rules the analytics cover.
        rules: usize,
        /// Monte-Carlo permutation samples per Shapley estimate.
        shapley_samples: u32,
        /// Wall-clock of the whole analytics computation, µs.
        elapsed_us: u64,
    },
    /// A distributed-mining worker connected and received its row
    /// partition (count-distribution coordinator side).
    WorkerJoined {
        /// 0-based worker index at the coordinator.
        worker: usize,
        /// Peer address the worker connected from.
        addr: String,
        /// Rows in the partition streamed to the worker.
        rows: u64,
    },
    /// The coordinator merged one pass's count vectors from all workers.
    PassMerged {
        /// 1-based pass number (matches [`TraceEvent::PassStarted`]).
        pass: usize,
        /// Workers whose counts were merged.
        workers: usize,
        /// Candidates counted this pass (0 for pass 1's histograms).
        candidates: usize,
        /// Wall-clock from dispatch to merged tallies, µs.
        elapsed_us: u64,
    },
    /// A worker connection failed mid-run; the coordinator recovers by
    /// recounting the lost partition locally.
    WorkerLost {
        /// 0-based worker index at the coordinator.
        worker: usize,
        /// Pass during which the loss was observed.
        pass: usize,
        /// Human-readable failure reason.
        detail: String,
    },
    /// A catalog's `COUNTS` section (persisted raw support tallies for
    /// incremental updates) was written.
    CountsSaved {
        /// Counting passes the section records (pass 1 histograms plus
        /// each candidate pass).
        passes: usize,
        /// Candidate itemsets tallied across all counting passes.
        itemsets: usize,
        /// Encoded size of the section payload in bytes.
        bytes: u64,
    },
    /// A catalog's `COUNTS` section was decoded (checksums verified).
    CountsLoaded {
        /// Counting passes the section records.
        passes: usize,
        /// Candidate itemsets tallied across all counting passes.
        itemsets: usize,
        /// Rows of the table the counts were taken over.
        rows: u64,
    },
    /// An incremental update merged persisted base counts with a
    /// delta-only scan (no base row was re-read).
    IncrementalUpdate {
        /// Rows covered by the persisted base counts.
        base_rows: u64,
        /// Appended rows scanned by this update.
        delta_rows: u64,
        /// Rows covered by the refreshed counts (base + delta).
        total_rows: u64,
        /// Passes of the merged run (pass 1 plus candidate passes).
        passes: usize,
        /// Wall-clock of the whole update, µs.
        elapsed_us: u64,
    },
    /// An incremental update could not proceed and fell back to a full
    /// re-mine (or failed, when no base rows were available).
    IncrementalFallback {
        /// Why the persisted counts could not be updated in place.
        reason: String,
    },
    /// A `RELOAD` control frame swapped in a fresh catalog.
    CatalogReloaded {
        /// Name of the reloaded catalog slot.
        catalog: String,
        /// Generation number after the swap (starts at 1 on load).
        generation: u64,
        /// Rules in the new catalog.
        rules: usize,
        /// Wall-clock of load + index rebuild + swap, µs.
        elapsed_us: u64,
    },
}

/// Render a string as a JSON string literal (quotes included), escaping
/// per RFC 8259.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl TraceEvent {
    /// The event's JSON-lines discriminator (`"event"` field value).
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::RunStarted { .. } => "run_started",
            TraceEvent::PassStarted { .. } => "pass_started",
            TraceEvent::PassFinished { .. } => "pass_finished",
            TraceEvent::RunFinished { .. } => "run_finished",
            TraceEvent::Cancelled { .. } => "cancelled",
            TraceEvent::CatalogSaved { .. } => "catalog_saved",
            TraceEvent::CatalogLoaded { .. } => "catalog_loaded",
            TraceEvent::IndexBuilt { .. } => "index_built",
            TraceEvent::ServerStarted { .. } => "server_started",
            TraceEvent::ConnectionOpened { .. } => "connection_opened",
            TraceEvent::ConnectionClosed { .. } => "connection_closed",
            TraceEvent::RequestServed { .. } => "request_served",
            TraceEvent::AnalyticsComputed { .. } => "analytics_computed",
            TraceEvent::WorkerJoined { .. } => "worker_joined",
            TraceEvent::PassMerged { .. } => "pass_merged",
            TraceEvent::WorkerLost { .. } => "worker_lost",
            TraceEvent::CountsSaved { .. } => "counts_saved",
            TraceEvent::CountsLoaded { .. } => "counts_loaded",
            TraceEvent::IncrementalUpdate { .. } => "incremental_update",
            TraceEvent::IncrementalFallback { .. } => "incremental_fallback",
            TraceEvent::CatalogReloaded { .. } => "catalog_reloaded",
        }
    }

    /// Render as a single JSON-lines object (no trailing newline).
    pub fn to_json(&self) -> String {
        match self {
            TraceEvent::RunStarted {
                rows,
                attributes,
                min_count,
                max_count,
                parallelism,
            } => format!(
                "{{\"event\":\"run_started\",\"rows\":{rows},\"attributes\":{attributes},\
                 \"min_count\":{min_count},\"max_count\":{max_count},\"parallelism\":{parallelism}}}"
            ),
            TraceEvent::PassStarted { pass, candidates } => format!(
                "{{\"event\":\"pass_started\",\"pass\":{pass},\"candidates\":{candidates}}}"
            ),
            TraceEvent::PassFinished {
                pass,
                candidates,
                frequent,
                pruned,
                super_candidates,
                array_backed,
                rtree_backed,
                hash_tree_nodes,
                counter_bytes,
                scan_us,
                merge_us,
                shard_scan_us,
                pooled,
                kernel,
            } => {
                let shards: Vec<String> =
                    shard_scan_us.iter().map(|us| us.to_string()).collect();
                format!(
                    "{{\"event\":\"pass_finished\",\"pass\":{pass},\"candidates\":{candidates},\
                     \"frequent\":{frequent},\"pruned\":{pruned},\
                     \"super_candidates\":{super_candidates},\"array_backed\":{array_backed},\
                     \"rtree_backed\":{rtree_backed},\"hash_tree_nodes\":{hash_tree_nodes},\
                     \"counter_bytes\":{counter_bytes},\"scan_us\":{scan_us},\
                     \"merge_us\":{merge_us},\"shard_scan_us\":[{}],\
                     \"pooled\":{pooled},\"kernel\":{}}}",
                    shards.join(","),
                    json_str(kernel)
                )
            }
            TraceEvent::RunFinished {
                passes,
                frequent_total,
                elapsed_us,
            } => format!(
                "{{\"event\":\"run_finished\",\"passes\":{passes},\
                 \"frequent_total\":{frequent_total},\"elapsed_us\":{elapsed_us}}}"
            ),
            TraceEvent::Cancelled { pass, deadline } => format!(
                "{{\"event\":\"cancelled\",\"pass\":{pass},\"deadline\":{deadline}}}"
            ),
            TraceEvent::CatalogSaved {
                rules,
                bytes,
                elapsed_us,
            } => format!(
                "{{\"event\":\"catalog_saved\",\"rules\":{rules},\"bytes\":{bytes},\
                 \"elapsed_us\":{elapsed_us}}}"
            ),
            TraceEvent::CatalogLoaded {
                rules,
                bytes,
                elapsed_us,
            } => format!(
                "{{\"event\":\"catalog_loaded\",\"rules\":{rules},\"bytes\":{bytes},\
                 \"elapsed_us\":{elapsed_us}}}"
            ),
            TraceEvent::IndexBuilt {
                rules,
                posting_entries,
                interval_entries,
                elapsed_us,
            } => format!(
                "{{\"event\":\"index_built\",\"rules\":{rules},\
                 \"posting_entries\":{posting_entries},\
                 \"interval_entries\":{interval_entries},\"elapsed_us\":{elapsed_us}}}"
            ),
            TraceEvent::ServerStarted {
                port,
                threads,
                catalogs,
            } => format!(
                "{{\"event\":\"server_started\",\"port\":{port},\"threads\":{threads},\
                 \"catalogs\":{catalogs}}}"
            ),
            TraceEvent::ConnectionOpened { conn } => {
                format!("{{\"event\":\"connection_opened\",\"conn\":{conn}}}")
            }
            TraceEvent::ConnectionClosed { conn, requests } => format!(
                "{{\"event\":\"connection_closed\",\"conn\":{conn},\"requests\":{requests}}}"
            ),
            TraceEvent::RequestServed {
                conn,
                kind,
                ok,
                items,
                results,
                elapsed_us,
            } => format!(
                "{{\"event\":\"request_served\",\"conn\":{conn},\"kind\":{},\
                 \"ok\":{ok},\"items\":{items},\"results\":{results},\
                 \"elapsed_us\":{elapsed_us}}}",
                json_str(kind)
            ),
            TraceEvent::AnalyticsComputed {
                rules,
                shapley_samples,
                elapsed_us,
            } => format!(
                "{{\"event\":\"analytics_computed\",\"rules\":{rules},\
                 \"shapley_samples\":{shapley_samples},\"elapsed_us\":{elapsed_us}}}"
            ),
            TraceEvent::WorkerJoined { worker, addr, rows } => format!(
                "{{\"event\":\"worker_joined\",\"worker\":{worker},\"addr\":{},\
                 \"rows\":{rows}}}",
                json_str(addr)
            ),
            TraceEvent::PassMerged {
                pass,
                workers,
                candidates,
                elapsed_us,
            } => format!(
                "{{\"event\":\"pass_merged\",\"pass\":{pass},\"workers\":{workers},\
                 \"candidates\":{candidates},\"elapsed_us\":{elapsed_us}}}"
            ),
            TraceEvent::WorkerLost {
                worker,
                pass,
                detail,
            } => format!(
                "{{\"event\":\"worker_lost\",\"worker\":{worker},\"pass\":{pass},\
                 \"detail\":{}}}",
                json_str(detail)
            ),
            TraceEvent::CountsSaved {
                passes,
                itemsets,
                bytes,
            } => format!(
                "{{\"event\":\"counts_saved\",\"passes\":{passes},\
                 \"itemsets\":{itemsets},\"bytes\":{bytes}}}"
            ),
            TraceEvent::CountsLoaded {
                passes,
                itemsets,
                rows,
            } => format!(
                "{{\"event\":\"counts_loaded\",\"passes\":{passes},\
                 \"itemsets\":{itemsets},\"rows\":{rows}}}"
            ),
            TraceEvent::IncrementalUpdate {
                base_rows,
                delta_rows,
                total_rows,
                passes,
                elapsed_us,
            } => format!(
                "{{\"event\":\"incremental_update\",\"base_rows\":{base_rows},\
                 \"delta_rows\":{delta_rows},\"total_rows\":{total_rows},\
                 \"passes\":{passes},\"elapsed_us\":{elapsed_us}}}"
            ),
            TraceEvent::IncrementalFallback { reason } => format!(
                "{{\"event\":\"incremental_fallback\",\"reason\":{}}}",
                json_str(reason)
            ),
            TraceEvent::CatalogReloaded {
                catalog,
                generation,
                rules,
                elapsed_us,
            } => format!(
                "{{\"event\":\"catalog_reloaded\",\"catalog\":{},\
                 \"generation\":{generation},\"rules\":{rules},\
                 \"elapsed_us\":{elapsed_us}}}",
                json_str(catalog)
            ),
        }
    }
}

fn fmt_us(us: u64) -> String {
    if us < 1_000 {
        format!("{us} µs")
    } else if us < 1_000_000 {
        format!("{:.2} ms", us as f64 / 1e3)
    } else {
        format!("{:.3} s", us as f64 / 1e6)
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::RunStarted {
                rows,
                attributes,
                min_count,
                max_count,
                parallelism,
            } => write!(
                f,
                "run started: {rows} rows × {attributes} attributes, \
                 min count {min_count}, max count {max_count}, {parallelism} thread(s)"
            ),
            TraceEvent::PassStarted { pass, candidates } => {
                if *candidates == 0 {
                    write!(f, "pass {pass}: counting single values/ranges")
                } else {
                    write!(f, "pass {pass}: counting {candidates} candidates")
                }
            }
            TraceEvent::PassFinished {
                pass,
                candidates,
                frequent,
                pruned,
                super_candidates,
                array_backed,
                rtree_backed,
                hash_tree_nodes,
                counter_bytes,
                scan_us,
                merge_us,
                shard_scan_us,
                pooled: _,
                kernel,
            } => {
                write!(
                    f,
                    "pass {pass} done: {candidates} candidates -> {frequent} frequent"
                )?;
                if *pruned > 0 {
                    write!(f, " ({pruned} interest-pruned)")?;
                }
                if *super_candidates > 0 {
                    write!(
                        f,
                        " | {super_candidates} super-candidates \
                         ({array_backed} array, {rtree_backed} rtree)"
                    )?;
                }
                write!(
                    f,
                    " | scan {} over {} shard(s)",
                    fmt_us(*scan_us),
                    shard_scan_us.len().max(1)
                )?;
                if *merge_us > 0 {
                    write!(f, " | merge {}", fmt_us(*merge_us))?;
                }
                if *hash_tree_nodes > 0 {
                    write!(f, " | tree nodes {hash_tree_nodes}")?;
                }
                if *counter_bytes > 0 {
                    write!(f, " | counters ~{} KiB", counter_bytes / 1024)?;
                }
                if !kernel.is_empty() {
                    write!(f, " | kernel {kernel}")?;
                }
                Ok(())
            }
            TraceEvent::RunFinished {
                passes,
                frequent_total,
                elapsed_us,
            } => write!(
                f,
                "run finished: {frequent_total} frequent itemsets over \
                 {passes} pass(es) in {}",
                fmt_us(*elapsed_us)
            ),
            TraceEvent::Cancelled { pass, deadline } => write!(
                f,
                "run cancelled during pass {pass} ({})",
                if *deadline {
                    "deadline exceeded"
                } else {
                    "caller abort"
                }
            ),
            TraceEvent::CatalogSaved {
                rules,
                bytes,
                elapsed_us,
            } => write!(
                f,
                "catalog saved: {rules} rule(s), {bytes} bytes in {}",
                fmt_us(*elapsed_us)
            ),
            TraceEvent::CatalogLoaded {
                rules,
                bytes,
                elapsed_us,
            } => write!(
                f,
                "catalog loaded: {rules} rule(s), {bytes} bytes in {}",
                fmt_us(*elapsed_us)
            ),
            TraceEvent::IndexBuilt {
                rules,
                posting_entries,
                interval_entries,
                elapsed_us,
            } => write!(
                f,
                "index built: {rules} rule(s), {posting_entries} posting + \
                 {interval_entries} interval entries in {}",
                fmt_us(*elapsed_us)
            ),
            TraceEvent::ServerStarted {
                port,
                threads,
                catalogs,
            } => write!(
                f,
                "server started: port {port}, {threads} worker(s), \
                 {catalogs} catalog(s)"
            ),
            TraceEvent::ConnectionOpened { conn } => {
                write!(f, "connection {conn} opened")
            }
            TraceEvent::ConnectionClosed { conn, requests } => {
                write!(f, "connection {conn} closed after {requests} request(s)")
            }
            TraceEvent::RequestServed {
                conn,
                kind,
                ok,
                items,
                results,
                elapsed_us,
            } => write!(
                f,
                "conn {conn}: {kind} x{items} -> {} ({results} id(s)) in {}",
                if *ok { "ok" } else { "error" },
                fmt_us(*elapsed_us)
            ),
            TraceEvent::AnalyticsComputed {
                rules,
                shapley_samples,
                elapsed_us,
            } => write!(
                f,
                "analytics computed: {rules} rule(s), \
                 {shapley_samples} Shapley sample(s) in {}",
                fmt_us(*elapsed_us)
            ),
            TraceEvent::WorkerJoined { worker, addr, rows } => write!(
                f,
                "worker {worker} joined from {addr}: {rows} row(s) assigned"
            ),
            TraceEvent::PassMerged {
                pass,
                workers,
                candidates,
                elapsed_us,
            } => write!(
                f,
                "pass {pass} merged from {workers} worker(s) \
                 ({candidates} candidate(s)) in {}",
                fmt_us(*elapsed_us)
            ),
            TraceEvent::WorkerLost {
                worker,
                pass,
                detail,
            } => write!(f, "worker {worker} lost during pass {pass}: {detail}"),
            TraceEvent::CountsSaved {
                passes,
                itemsets,
                bytes,
            } => write!(
                f,
                "support counts saved: {passes} pass(es), \
                 {itemsets} itemset tally(ies), {bytes} bytes"
            ),
            TraceEvent::CountsLoaded {
                passes,
                itemsets,
                rows,
            } => write!(
                f,
                "support counts loaded: {passes} pass(es), \
                 {itemsets} itemset tally(ies) over {rows} row(s)"
            ),
            TraceEvent::IncrementalUpdate {
                base_rows,
                delta_rows,
                total_rows,
                passes,
                elapsed_us,
            } => write!(
                f,
                "incremental update: {base_rows} base + {delta_rows} delta \
                 -> {total_rows} row(s), {passes} pass(es) in {}",
                fmt_us(*elapsed_us)
            ),
            TraceEvent::IncrementalFallback { reason } => {
                write!(
                    f,
                    "incremental update fell back to a full re-mine: {reason}"
                )
            }
            TraceEvent::CatalogReloaded {
                catalog,
                generation,
                rules,
                elapsed_us,
            } => write!(
                f,
                "catalog \"{catalog}\" reloaded: generation {generation}, \
                 {rules} rule(s) in {}",
                fmt_us(*elapsed_us)
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    fn sample_pass_finished() -> TraceEvent {
        TraceEvent::PassFinished {
            pass: 2,
            candidates: 120,
            frequent: 14,
            pruned: 0,
            super_candidates: 6,
            array_backed: 5,
            rtree_backed: 1,
            hash_tree_nodes: 9,
            counter_bytes: 4096,
            scan_us: 1500,
            merge_us: 20,
            shard_scan_us: vec![700, 750],
            pooled: true,
            kernel: "bitmask".to_string(),
        }
    }

    #[test]
    fn json_round_trips_through_parser() {
        let events = [
            TraceEvent::RunStarted {
                rows: 4000,
                attributes: 4,
                min_count: 400,
                max_count: 1200,
                parallelism: 4,
            },
            TraceEvent::PassStarted {
                pass: 2,
                candidates: 120,
            },
            sample_pass_finished(),
            TraceEvent::RunFinished {
                passes: 3,
                frequent_total: 44,
                elapsed_us: 9001,
            },
            TraceEvent::Cancelled {
                pass: 3,
                deadline: true,
            },
            TraceEvent::CatalogSaved {
                rules: 44,
                bytes: 18_000,
                elapsed_us: 210,
            },
            TraceEvent::CatalogLoaded {
                rules: 44,
                bytes: 18_000,
                elapsed_us: 95,
            },
            TraceEvent::IndexBuilt {
                rules: 44,
                posting_entries: 30,
                interval_entries: 52,
                elapsed_us: 40,
            },
            TraceEvent::ServerStarted {
                port: 7979,
                threads: 4,
                catalogs: 2,
            },
            TraceEvent::ConnectionOpened { conn: 3 },
            TraceEvent::ConnectionClosed {
                conn: 3,
                requests: 17,
            },
            TraceEvent::RequestServed {
                conn: 3,
                kind: "batch".into(),
                ok: true,
                items: 16,
                results: 240,
                elapsed_us: 85,
            },
            TraceEvent::AnalyticsComputed {
                rules: 44,
                shapley_samples: 64,
                elapsed_us: 1200,
            },
            TraceEvent::WorkerJoined {
                worker: 1,
                addr: "127.0.0.1:4921".into(),
                rows: 5000,
            },
            TraceEvent::PassMerged {
                pass: 2,
                workers: 2,
                candidates: 120,
                elapsed_us: 800,
            },
            TraceEvent::WorkerLost {
                worker: 1,
                pass: 3,
                detail: "read timed out".into(),
            },
            TraceEvent::CountsSaved {
                passes: 3,
                itemsets: 310,
                bytes: 5200,
            },
            TraceEvent::CountsLoaded {
                passes: 3,
                itemsets: 310,
                rows: 4000,
            },
            TraceEvent::IncrementalUpdate {
                base_rows: 4000,
                delta_rows: 40,
                total_rows: 4040,
                passes: 3,
                elapsed_us: 900,
            },
            TraceEvent::IncrementalFallback {
                reason: "attribute \"x\" is interval-partitioned".into(),
            },
            TraceEvent::CatalogReloaded {
                catalog: "cat \"v2\"\\planted".into(),
                generation: 2,
                rules: 44,
                elapsed_us: 310,
            },
        ];
        for event in events {
            let parsed = parse(&event.to_json()).expect("event JSON parses");
            let obj = parsed.as_object().expect("event is an object");
            assert_eq!(
                obj.get("event").and_then(Json::as_str),
                Some(event.name()),
                "{event:?}"
            );
        }
    }

    #[test]
    fn string_fields_are_escaped() {
        let event = TraceEvent::CatalogReloaded {
            catalog: "a\"b\\c\n\u{1}".into(),
            generation: 1,
            rules: 0,
            elapsed_us: 0,
        };
        let parsed = parse(&event.to_json()).expect("escaped JSON parses");
        assert_eq!(
            parsed
                .as_object()
                .unwrap()
                .get("catalog")
                .and_then(Json::as_str),
            Some("a\"b\\c\n\u{1}")
        );
    }

    #[test]
    fn pass_finished_fields_survive() {
        let parsed = parse(&sample_pass_finished().to_json()).unwrap();
        let obj = parsed.as_object().unwrap();
        assert_eq!(obj.get("pass").unwrap().as_u64(), Some(2));
        assert_eq!(obj.get("candidates").unwrap().as_u64(), Some(120));
        assert_eq!(obj.get("counter_bytes").unwrap().as_u64(), Some(4096));
        let shards = obj.get("shard_scan_us").unwrap().as_array().unwrap();
        assert_eq!(shards.len(), 2);
        assert_eq!(shards[0].as_u64(), Some(700));
        assert_eq!(obj.get("pooled").unwrap().as_bool(), Some(true));
        assert_eq!(
            obj.get("kernel").unwrap().as_str(),
            Some("bitmask"),
            "pass_finished must carry the resolved scan kernel"
        );
    }

    #[test]
    fn text_rendering_mentions_the_pass() {
        let text = sample_pass_finished().to_string();
        assert!(text.contains("pass 2"), "{text}");
        assert!(text.contains("120 candidates"), "{text}");
        assert!(text.contains("2 shard(s)"), "{text}");
        assert!(text.contains("kernel bitmask"), "{text}");
        let cancelled = TraceEvent::Cancelled {
            pass: 4,
            deadline: false,
        }
        .to_string();
        assert!(cancelled.contains("pass 4"), "{cancelled}");
        assert!(cancelled.contains("caller abort"), "{cancelled}");
    }

    #[test]
    fn analytics_computed_fields_survive() {
        let event = TraceEvent::AnalyticsComputed {
            rules: 44,
            shapley_samples: 64,
            elapsed_us: 1200,
        };
        let parsed = parse(&event.to_json()).unwrap();
        let obj = parsed.as_object().unwrap();
        assert_eq!(obj.get("rules").unwrap().as_u64(), Some(44));
        assert_eq!(obj.get("shapley_samples").unwrap().as_u64(), Some(64));
        assert_eq!(obj.get("elapsed_us").unwrap().as_u64(), Some(1200));
        let text = event.to_string();
        assert!(text.contains("44 rule(s)"), "{text}");
        assert!(text.contains("64 Shapley sample(s)"), "{text}");
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_us(999), "999 µs");
        assert_eq!(fmt_us(1500), "1.50 ms");
        assert_eq!(fmt_us(2_500_000), "2.500 s");
    }
}
