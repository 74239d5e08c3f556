//! # qar-core — mining quantitative association rules
//!
//! The primary contribution of Srikant & Agrawal, SIGMOD 1996, implemented
//! end to end as the five-step decomposition of Section 2.1:
//!
//! 1. **Partition** each quantitative attribute (number of intervals from
//!    the partial-completeness level, Section 3) — [`pipeline`] driving
//!    `qar-partition`;
//! 2. **Map** values/intervals to consecutive integers — `qar-table`'s
//!    encoders;
//! 3. **Find frequent itemsets**: frequent values/ranges per attribute
//!    ([`frequent`], with the `max_support` range-combining cap), then the
//!    level-wise search with super-candidate counting ([`mine`],
//!    [`supercand`]) and the Lemma 5 interest prune ([`candidate`]);
//! 4. **Generate rules** ([`rules`]);
//! 5. **Identify interesting rules** with the greater-than-expected-value
//!    measure, close ancestors, and specialization differences
//!    ([`interest`]).
//!
//! The [`Miner`] facade runs the whole thing — with optional progress
//! events ([`qar_trace::ProgressSink`]), cooperative cancellation
//! ([`qar_trace::CancelToken`]), and encoding reuse across repeated
//! runs — and [`output`] renders rules back in terms of the original
//! attribute values, like the paper's
//! `⟨Age: 30..39⟩ and ⟨Married: Yes⟩ ⇒ ⟨NumCars: 2⟩`.

#![warn(missing_docs)]

pub mod candidate;
pub mod config;
pub mod counts;
pub mod delta;
pub mod export;
pub mod frequent;
pub mod interest;
pub mod mine;
pub mod miner;
pub mod naive;
pub mod output;
pub mod pipeline;
pub mod pool;
pub mod rules;
pub mod source;
pub mod supercand;

pub use delta::{f64_close_ulps, ItemsetSetDelta, RuleSetDelta};

pub use config::{
    CancelledInfo, InterestConfig, InterestMode, MinerConfig, MinerError, PartitionSpec,
    PartitionStrategy, ScanKernel,
};
pub use counts::{
    encoding_fingerprint, update_precheck, CapturedCounts, CountsConfig, SupportCounts,
};
pub use frequent::QuantFrequentItemsets;
pub use interest::{annotate_interest, RuleInterest};
pub use miner::Miner;
pub use miner::{UpdateInput, UpdateOutput};
pub use output::RuleDecoder;
pub use pipeline::{MiningOutput, MiningStats};
pub use pool::WorkerPool;
pub use rules::{generate_rules, QuantRule};
pub use source::{
    mine_source, mine_source_captured, CaptureSource, ChunkedSource, CountError, CountSource,
    Counted, InMemorySource, MergeSource, PairGrid,
};
