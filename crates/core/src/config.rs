//! Miner configuration and validation.

use std::collections::BTreeMap;
use std::fmt;

/// How quantitative attributes are partitioned before mining (Step 1).
#[derive(Debug, Clone, PartialEq)]
pub enum PartitionSpec {
    /// Do not partition: every distinct value is its own base interval
    /// (what the paper does "if the number of values is small").
    None,
    /// Choose the interval count from the desired partial-completeness
    /// level via Equation (2); attributes with fewer distinct values than
    /// the computed interval count are left unpartitioned.
    CompletenessLevel(f64),
    /// A fixed number of equi-depth intervals for every quantitative
    /// attribute.
    FixedIntervals(usize),
    /// Explicit interval counts per attribute name; attributes absent from
    /// the map are not partitioned.
    PerAttribute(BTreeMap<String, usize>),
}

/// Which algorithm places the interval cut points (Step 1). The paper
/// uses equi-depth (optimal for partial completeness, Lemma 4); its
/// future-work section suggests clustering for skewed data, provided here
/// as 1-D k-means. Equi-width is the ablation baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionStrategy {
    /// Equi-depth quantiles (the paper's choice).
    #[default]
    EquiDepth,
    /// Equal-width intervals over the value range.
    EquiWidth,
    /// 1-D k-means (Lloyd's with quantile init) — the \[JD88\] clustering
    /// route of the paper's conclusion.
    KMeans,
}

/// A support-counting scan kernel (Step 3's record scan) to pin. Every
/// variant produces **bit-identical counts** — the kernel is a pure
/// performance choice, never semantics. Left unpinned
/// ([`MinerConfig::kernel`] `None`), each pass picks one before its scan
/// from the shape of its super-candidates (see
/// [`crate::supercand::choose_kernel`]); a pin exists for ablations,
/// benches, and the differential fuzz oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanKernel {
    /// The paper's Section 5.2 counting: per row, a hash-tree subset walk
    /// over the categorical parts, then a point count into each matched
    /// super-candidate's array or R*-tree. The reference every other
    /// path is checked against.
    Direct,
    /// Blocked bitmask kernel: per-attribute `lo <= code <= hi`
    /// predicates are evaluated over 1024-row blocks into `u64` bitsets,
    /// ANDed across attributes, and popcounted — no per-row branching,
    /// plus per-block min/max pre-screening so non-intersecting plans
    /// skip whole blocks. Its cost grows with member rectangles × rows.
    Bitmask,
}

impl ScanKernel {
    /// The kernel's wire name, as recorded in
    /// [`crate::supercand::PassStats::kernel`] and the `pass_finished`
    /// trace event.
    pub fn name(self) -> &'static str {
        match self {
            ScanKernel::Direct => "direct",
            ScanKernel::Bitmask => "bitmask",
        }
    }

    /// Parse a CLI/config spelling (the [`ScanKernel::name`] strings).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "direct" => Some(ScanKernel::Direct),
            "bitmask" => Some(ScanKernel::Bitmask),
            _ => None,
        }
    }
}

impl fmt::Display for ScanKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which deviations from expectation make a rule interesting (Section 4:
/// "the user can specify whether it should be support and confidence, or
/// support or confidence").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterestMode {
    /// Support **and** confidence must each be ≥ R × expected. Only this
    /// mode licenses the Lemma 5 candidate prune.
    SupportAndConfidence,
    /// Support **or** confidence ≥ R × expected suffices.
    SupportOrConfidence,
}

/// The greater-than-expected-value interest measure (Section 4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterestConfig {
    /// Minimum interest level `R` (> 1). A rule must beat `R ×` its
    /// expectation from a close interesting ancestor to survive.
    pub level: f64,
    /// And/or combination of support and confidence deviation.
    pub mode: InterestMode,
    /// Apply the Lemma 5 prune during candidate generation (delete items
    /// with fractional support > 1/R after pass 1). Sound only for
    /// [`InterestMode::SupportAndConfidence`]; ignored otherwise.
    pub prune_candidates: bool,
}

/// Full miner configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MinerConfig {
    /// Minimum fractional support (`minsup`), in `(0, 1]`.
    pub min_support: f64,
    /// Minimum confidence (`minconf`), in `[0, 1]`.
    pub min_confidence: f64,
    /// Maximum fractional support for a *combined* range (Section 1.2's
    /// "maximum support" parameter). Single values above it are kept.
    pub max_support: f64,
    /// Step 1 policy: how many intervals.
    pub partitioning: PartitionSpec,
    /// Step 1 policy: where the cut points go.
    pub partition_strategy: PartitionStrategy,
    /// Optional is-a taxonomies over categorical attributes (by attribute
    /// name). Values of such attributes are numbered in taxonomy DFS
    /// order, so interior nodes become contiguous code ranges and
    /// generalized categorical items ride the quantitative range
    /// machinery (the \[SA95\] connection the paper points out).
    pub taxonomies: BTreeMap<String, qar_table::Taxonomy>,
    /// Optional Step 5 interest measure.
    pub interest: Option<InterestConfig>,
    /// Stop after frequent itemsets of this size (0 = unbounded). Matches
    /// the paper's observation that `n` in Equation (2) can be replaced by
    /// a bound on rule size.
    pub max_itemset_size: usize,
    /// Worker threads for the support-counting passes. `None` (the
    /// default) uses [`std::thread::available_parallelism`]; `Some(1)`
    /// forces the exact single-threaded code path. Any setting produces
    /// bit-identical mining output — shards hold disjoint row ranges and
    /// their integer counts are summed in shard order — so this knob is
    /// pure performance, never semantics.
    pub parallelism: Option<std::num::NonZeroUsize>,
    /// A pinned support-counting scan kernel (see [`ScanKernel`]). The
    /// default `None` lets each pass pick before its scan; counts are
    /// bit-identical either way — a pin exists for the `--kernel`
    /// ablation and the differential fuzz oracle.
    pub kernel: Option<ScanKernel>,
}

impl Default for MinerConfig {
    fn default() -> Self {
        MinerConfig {
            // Section 6 defaults: minsup 20 %, minconf 25 %, maxsup 40 %.
            min_support: 0.2,
            min_confidence: 0.25,
            max_support: 0.4,
            partitioning: PartitionSpec::CompletenessLevel(2.0),
            partition_strategy: PartitionStrategy::default(),
            taxonomies: BTreeMap::new(),
            interest: Some(InterestConfig {
                level: 1.1,
                mode: InterestMode::SupportAndConfidence,
                prune_candidates: true,
            }),
            max_itemset_size: 0,
            parallelism: None,
            kernel: None,
        }
    }
}

impl MinerConfig {
    /// The worker-thread count the counting passes will actually use:
    /// the configured [`MinerConfig::parallelism`], or the machine's
    /// available parallelism when unset (falling back to 1 if the OS
    /// cannot say).
    ///
    /// The `QAR_TEST_THREADS` environment variable, when set to a positive
    /// integer, overrides an *unset* knob — CI uses it to run the whole
    /// test suite through the forced-serial path as well as the default
    /// one. An explicit `parallelism` setting always wins, so tests that
    /// pin a thread count are unaffected.
    pub fn effective_parallelism(&self) -> usize {
        if let Some(n) = self.parallelism {
            return n.get();
        }
        if let Some(n) = std::env::var("QAR_TEST_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
        {
            return n;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// Validate parameter ranges.
    pub fn validate(&self) -> Result<(), MinerError> {
        if !(self.min_support > 0.0 && self.min_support <= 1.0) {
            return Err(MinerError::Config(format!(
                "min_support must be in (0, 1], got {}",
                self.min_support
            )));
        }
        if !(0.0..=1.0).contains(&self.min_confidence) {
            return Err(MinerError::Config(format!(
                "min_confidence must be in [0, 1], got {}",
                self.min_confidence
            )));
        }
        if self.max_support < self.min_support {
            return Err(MinerError::Config(format!(
                "max_support ({}) must be >= min_support ({})",
                self.max_support, self.min_support
            )));
        }
        match &self.partitioning {
            // `!(k > 1)` rather than `k <= 1` so NaN is rejected too.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            PartitionSpec::CompletenessLevel(k) if !(*k > 1.0) => {
                return Err(MinerError::Config(format!(
                    "partial completeness level must exceed 1, got {k}"
                )));
            }
            PartitionSpec::FixedIntervals(0) => {
                return Err(MinerError::Config(
                    "fixed interval count must be positive".into(),
                ));
            }
            _ => {}
        }
        if let Some(interest) = &self.interest {
            // `!(level > 1)` rather than `level <= 1` so NaN is rejected too.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(interest.level > 1.0) {
                return Err(MinerError::Config(format!(
                    "interest level must exceed 1, got {}",
                    interest.level
                )));
            }
        }
        Ok(())
    }
}

/// What a cancelled run had accomplished when it stopped — carried inside
/// [`MinerError::Cancelled`] so callers aborting or deadlining a run still
/// get the statistics of the passes that completed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CancelledInfo {
    /// 1-based pass during (or before) which cancellation was observed.
    pub pass: usize,
    /// True when a [`qar_trace::CancelToken`] deadline expired; false for
    /// an explicit abort.
    pub deadline_exceeded: bool,
    /// Statistics of the passes completed before cancellation. Each later
    /// cancellation point extends (never shrinks) these partial stats.
    pub stats: crate::mine::MineStats,
}

/// Errors surfaced by the miner, by failure domain.
#[derive(Debug, Clone, PartialEq)]
pub enum MinerError {
    /// A configuration parameter was out of range.
    Config(String),
    /// The input table was unusable (empty, wrong arity, type mismatch,
    /// unknown attribute, ...).
    Schema(qar_table::TableError),
    /// Quantitative partitioning failed (bad interval count for an
    /// attribute's value distribution).
    Partition(String),
    /// Reading input (tables, schemas, taxonomy files) failed.
    Io(String),
    /// The run was aborted through a [`qar_trace::CancelToken`]; partial
    /// statistics are inside.
    Cancelled(CancelledInfo),
    /// Distributed-mining setup or protocol failure (worker spawn,
    /// handshake, malformed frame) with no usable fallback.
    Distributed(String),
    /// A worker died or timed out mid-run and its partition could not be
    /// recounted elsewhere.
    WorkerLost {
        /// 0-based index of the lost worker.
        worker: usize,
        /// 1-based pass during which the loss was observed.
        pass: usize,
        /// The underlying I/O or protocol failure.
        detail: String,
    },
    /// An incremental update could not proceed and no fallback was
    /// available (configuration drift from the persisted counts, encoding
    /// fingerprint mismatch, or a delta that invalidates the counts with
    /// no base rows to re-mine from).
    Update(String),
}

impl fmt::Display for MinerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MinerError::Config(msg) => write!(f, "bad parameter: {msg}"),
            MinerError::Schema(e) => write!(f, "table error: {e}"),
            MinerError::Partition(msg) => write!(f, "partitioning error: {msg}"),
            MinerError::Io(msg) => write!(f, "i/o error: {msg}"),
            MinerError::Cancelled(info) => write!(
                f,
                "mining cancelled during pass {} ({})",
                info.pass,
                if info.deadline_exceeded {
                    "deadline exceeded"
                } else {
                    "caller abort"
                }
            ),
            MinerError::Distributed(msg) => write!(f, "distributed mining error: {msg}"),
            MinerError::WorkerLost {
                worker,
                pass,
                detail,
            } => write!(f, "worker {worker} lost during pass {pass}: {detail}"),
            MinerError::Update(msg) => write!(f, "incremental update error: {msg}"),
        }
    }
}

impl std::error::Error for MinerError {}

impl From<qar_table::TableError> for MinerError {
    fn from(e: qar_table::TableError) -> Self {
        MinerError::Schema(e)
    }
}

impl From<std::io::Error> for MinerError {
    fn from(e: std::io::Error) -> Self {
        MinerError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(MinerConfig::default().validate().is_ok());
    }

    #[test]
    fn bad_support_rejected() {
        for min_support in [0.0, 1.5] {
            let c = MinerConfig {
                min_support,
                ..MinerConfig::default()
            };
            assert!(c.validate().is_err());
        }
    }

    #[test]
    fn maxsup_below_minsup_rejected() {
        let c = MinerConfig {
            min_support: 0.5,
            max_support: 0.3,
            ..MinerConfig::default()
        };
        assert!(matches!(c.validate(), Err(MinerError::Config(_))));
    }

    #[test]
    fn completeness_level_validated() {
        for (partitioning, ok) in [
            (PartitionSpec::CompletenessLevel(1.0), false),
            (PartitionSpec::CompletenessLevel(f64::NAN), false),
            (PartitionSpec::FixedIntervals(0), false),
            (PartitionSpec::None, true),
        ] {
            let c = MinerConfig {
                partitioning,
                ..MinerConfig::default()
            };
            assert_eq!(c.validate().is_ok(), ok);
        }
    }

    #[test]
    fn interest_level_validated() {
        for level in [1.0, 0.0, f64::NAN] {
            let c = MinerConfig {
                interest: Some(InterestConfig {
                    level,
                    mode: InterestMode::SupportAndConfidence,
                    prune_candidates: false,
                }),
                ..MinerConfig::default()
            };
            assert!(c.validate().is_err(), "{level}");
        }
    }

    #[test]
    fn explicit_parallelism_beats_env_override() {
        // An explicitly pinned thread count must never be overridden by
        // QAR_TEST_THREADS (tests that assert serial/parallel equivalence
        // rely on this). Only the pinned path is exercised here: mutating
        // the process environment would race with concurrently running
        // tests that mine under the default config.
        let c = MinerConfig {
            parallelism: std::num::NonZeroUsize::new(3),
            ..MinerConfig::default()
        };
        assert_eq!(c.effective_parallelism(), 3);
        let auto = MinerConfig::default().effective_parallelism();
        assert!(auto >= 1);
    }

    #[test]
    fn scan_kernel_names_round_trip() {
        for kernel in [ScanKernel::Direct, ScanKernel::Bitmask] {
            assert_eq!(ScanKernel::parse(kernel.name()), Some(kernel));
            assert_eq!(kernel.to_string(), kernel.name());
        }
        assert_eq!(ScanKernel::parse("simd"), None);
        assert_eq!(MinerConfig::default().kernel, None);
    }

    #[test]
    fn error_display_and_conversion() {
        let e: MinerError = qar_table::TableError::EmptyTable.into();
        assert!(e.to_string().contains("table error"));
        assert!(MinerError::Config("x".into()).to_string().contains("x"));
    }
}
