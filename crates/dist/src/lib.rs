//! # qar-dist — count-distribution distributed mining
//!
//! Multi-process Apriori in the *count distribution* style: the
//! coordinator keeps the whole level-wise search (candidate generation,
//! frequency decisions, rule generation) and delegates only the counting
//! scans. Each worker owns a disjoint, contiguous partition of the
//! encoded rows; every pass it returns the **raw** `u64` tallies of the
//! coordinator's candidates over its partition, and the coordinator
//! merges them by element-wise addition. Because the merged counts equal
//! a single serial scan's counts exactly — integer addition is the whole
//! merge — the distributed result is bit-identical to the serial miner:
//! same frequent itemsets, supports, rules, and (with normalized stats)
//! the same `.qarcat` bytes.
//!
//! The pieces:
//!
//! * [`worker`] — the worker side: a serve loop over the
//!   [`qar_store::dist`] wire protocol (Setup → Rows… → CountItems /
//!   CountCandidates… → Shutdown), counting with the same scan kernels
//!   the serial miner uses;
//! * [`coordinator`] — the coordinator side: [`Cluster`] spawns and
//!   connects workers (child processes of the `qar` binary, or
//!   in-process threads for tests), [`DistSource`] implements
//!   [`qar_core::CountSource`] over the worker pool, and
//!   [`mine_distributed`] runs the complete pipeline;
//! * partial failure — a worker that times out or drops its connection
//!   is declared lost (`worker_lost` trace event). By default the
//!   coordinator *recovers*: it retains the backing data, so it recounts
//!   the lost partition locally and the run still completes with the
//!   exact same answer. With [`DistOptions::fail_fast`] the loss is
//!   surfaced as [`qar_core::MinerError::WorkerLost`] instead.
//!
//! The backing data ([`Backing`]) is either an in-memory
//! [`qar_table::EncodedTable`] or an out-of-core
//! [`qar_table::ChunkStore`], so distributed and chunked mining compose:
//! a table too big for memory can be spilled to chunks *and* farmed out
//! to workers from the same code path.

#![warn(missing_docs)]

pub mod coordinator;
pub mod worker;

pub use coordinator::{
    mine_distributed, Backing, Cluster, ClusterOptions, DistOptions, DistSource, WorkerSpawn,
};
pub use worker::{run_worker, serve_connection, WorkerOptions};
