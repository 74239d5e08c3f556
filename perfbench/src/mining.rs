//! The loop shared by the two mining workloads: set-up, timed
//! iterations until the run's seconds are spent, the reference check,
//! and the metric report.

use std::time::Instant;

use crate::common::{
    interquartile_mean, median, release_free_memory, secs, timed, Checks, QueryReplay, Report,
};
use crate::layers::LayerValues;
use crate::trace::Tracer;
use crate::Ctx;

type BoxError = Box<dyn std::error::Error>;

/// What one iteration measured and produced.
pub struct Iteration {
    /// Wall time of the whole iteration minus the benchmark's checks.
    pub wall_s: f64,
    /// Input handed over → finished result.
    pub mine_s: f64,
    /// Finished result → first answer.
    pub first_query_s: f64,
    pub catalog_bytes: u64,
    /// `VmHWM` once the sequence is done, before the query replay.
    pub peak_rss_mb: f64,
    /// [`crate::common::catalog_digest`] of the mined result.
    pub mined_digest: u64,
    /// [`crate::common::stats_digest`] of the mined result.
    pub stats_digest: u64,
}

/// What an iteration gets to work with.
pub struct Env<'a> {
    /// Set on traced iterations.
    pub tracer: Option<&'a Tracer>,
    pub queries: &'a mut QueryReplay,
    pub checks: &'a mut Checks,
    pub layer: &'a mut LayerValues,
}

/// Make the workload's input with `make_input`, run `iteration` on it
/// until `ctx.seconds` have passed (at least once), then check every
/// iteration against `reference` — the (catalog, stats) digests of a
/// mine with the direct kernel — and report.
///
/// Making the input is the set-up (`setup_s`): the program's own
/// generator, and CSV writer where the workload starts from CSV. An
/// untraced run re-times it after every iteration, inside the run's
/// window, and reports the median, so set-up is sampled over the same
/// minutes as the iterations. The first iteration runs before any
/// repeat, so its `VmHWM` holds only one copy of the input.
///
/// Untraced runs time only untraced iterations. Traced runs alternate
/// an untraced and a traced iteration, so the tracing overhead is the
/// ratio of their wall times.
pub fn run<T>(
    ctx: &Ctx,
    workload: &str,
    make_input: impl Fn() -> Result<T, BoxError>,
    mut iteration: impl FnMut(&T, Env<'_>) -> Result<Iteration, BoxError>,
    reference: impl FnOnce(&T) -> Result<(u64, u64), BoxError>,
) -> Result<Report, BoxError> {
    let (input, made) = timed(&make_input);
    let input = input?;
    let mut setup = vec![secs(made)];
    eprintln!("{workload}: input made in {:.2}s", secs(made));
    let mut report = Report::default();
    let mut layer = LayerValues::default();
    let tracer = Tracer::new();
    let mut queries = QueryReplay::new(ctx.seed);

    let loop_start = Instant::now();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    while plain.is_empty()
        || (ctx.trace && traced.is_empty())
        || secs(loop_start.elapsed()) < ctx.seconds
    {
        release_free_memory();
        let tracing = ctx.trace && traced.len() < plain.len();
        let run = (plain.len() + traced.len()) as u64;
        let mut env = Env {
            tracer: None,
            queries: &mut queries,
            checks: &mut report.checks,
            layer: &mut layer,
        };
        if tracing {
            env.tracer = Some(&tracer);
            traced.push(tracer.root("iteration", run, || iteration(&input, env))?);
        } else {
            plain.push(iteration(&input, env)?);
            if !ctx.trace {
                release_free_memory();
                let (again, made) = timed(&make_input);
                drop(again?);
                setup.push(secs(made));
            }
        }
    }

    let (reference, ref_time) = timed(|| reference(&input));
    let (ref_digest, ref_stats) = reference?;
    eprintln!("  direct-kernel reference mined in {:.2}s", secs(ref_time));
    for it in plain.iter().chain(&traced) {
        report.checks.check(it.mined_digest == ref_digest, || {
            "mined result differs from the direct-kernel reference".into()
        });
        report.checks.check(it.stats_digest == ref_stats, || {
            "normalized stats differ from the direct-kernel reference".into()
        });
    }

    let med = |its: &[Iteration], f: fn(&Iteration) -> f64| {
        median(&its.iter().map(f).collect::<Vec<_>>())
    };
    if ctx.trace {
        layer.set(
            "store.query_us",
            tracer.median_duration("store.query") * 1e6,
        );
        layer.set("trace.coverage", tracer.coverage("iteration"));
        layer.set(
            "trace.overhead",
            med(&traced, |i| i.wall_s) / med(&plain, |i| i.wall_s),
        );
        layer.set(
            "trace.residual_s",
            med(&plain, |i| i.mine_s) - med(&traced, |i| i.mine_s),
        );
        tracer.write(&crate::trace_path(workload, ctx.seed))?;
        layer.finish(&tracer, &mut report);
    } else {
        let iqm =
            |f: fn(&Iteration) -> f64| interquartile_mean(&plain.iter().map(f).collect::<Vec<_>>());
        report.push("setup_s", median(&setup), "s");
        report.push("mine_s", iqm(|i| i.mine_s), "s");
        report.push("first_query_s", iqm(|i| i.first_query_s), "s");
        report.push("catalog_bytes", plain[0].catalog_bytes as f64, "bytes");
        // The first iteration ran in a fresh process, as a user's run
        // does; later ones only add heap fragmentation.
        report.push("peak_rss_mb", plain[0].peak_rss_mb, "MB");
    }
    let list = |its: &[Iteration], f: fn(&Iteration) -> f64| {
        list_values(&its.iter().map(f).collect::<Vec<_>>())
    };
    eprintln!("  mine_s per iteration: {}", list(&plain, |i| i.mine_s));
    eprintln!(
        "  first_query_s per iteration: {}",
        list(&plain, |i| i.first_query_s)
    );
    eprintln!("  setup_s per repeat: {}", list_values(&setup));
    eprintln!(
        "  {} untraced + {} traced iteration(s)",
        plain.len(),
        traced.len()
    );
    Ok(report)
}

fn list_values(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| format!("{v:.4}"))
        .collect::<Vec<_>>()
        .join(" ")
}
