//! Per-layer measurements for the traced run. Each one times a public call
//! into one layer inside a span of its own, reads the engine's own
//! per-response counters from the traced window, or takes a difference
//! between two such timings; nothing inside the engine is instrumented.

use crate::metrics::{ratio, tier_yields, Metrics, CLASSES};
use crate::serve::ClientResult;
use crate::stats::Samples;
use crate::trace::{self_time_by_name, Span, Tracer};
use crate::workload::{band_cells, config, radius, spread, with_options, Class, Inputs, Op};
use crate::write::{Recovery, WriteLog, TAIL_OPS};
use onex_core::{BaseStats, Explorer, QueryOptions, StoreFootprint};
use onex_dist::Envelope;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

pub struct Ctx<'a> {
    pub ex: &'a Explorer,
    pub inputs: &'a Inputs,
    pub raw_queries: &'a [Vec<f64>],
    pub ops: &'a [Vec<Op>],
    pub clients: &'a ClientResult,
    pub log: &'a WriteLog,
    pub recovery: &'a Recovery,
    pub setup_s: f64,
    /// Median `build::build_base` over the normalized dataset.
    pub groups_s: f64,
    pub base_stats: &'a BaseStats,
    pub footprint: &'a StoreFootprint,
    pub dir: &'a Path,
    pub snapshot: &'a Path,
    pub spans: &'a [Span],
}

const MB: f64 = 1024.0 * 1024.0;
/// Length of the series in the base the journal probe appends to.
const JOURNAL_PROBE_LEN: usize = 48;

/// Requests per class the option probes replay (range requests are the
/// expensive ones).
fn probe_count(c: Class) -> usize {
    match c {
        Class::BestMatch => 32,
        Class::TopK => 12,
        _ => 3,
    }
}

/// p50 of `variant` minus p50 of the default options over the first `n`
/// pooled requests, each run twice per side in alternating order. Positive
/// means the default saves time.
fn saving_ms(t: &mut Tracer, ex: &Explorer, ops: &[Op], n: usize, variant: QueryOptions) -> f64 {
    let mut default = Samples::default();
    let mut other = Samples::default();
    for rep in 0..2 {
        for op in spread(ops, n) {
            let requests = [op.request.clone(), with_options(&op.request, variant)];
            for k in [rep % 2, 1 - rep % 2] {
                let name = ["engine.query", "engine.query.variant"][k];
                let (r, ms) = t.time(name, || ex.query(requests[k].clone()));
                black_box(r.ok());
                if k == 0 {
                    default.push(ms);
                } else {
                    other.push(ms);
                }
            }
        }
    }
    other.median() - default.median()
}

fn class_metrics(ctx: &Ctx<'_>, t: &mut Tracer, m: &mut Metrics) {
    for (name, c) in CLASSES
        .iter()
        .zip([Class::BestMatch, Class::TopK, Class::Range])
    {
        let res = ctx.clients.class(c);
        let s = &res.stats;
        let n = res.latency_ms.len() as f64;
        let per_q = |v: usize| ratio(v as f64, n);
        let p = |k: &str| format!("similarity.{name}.{k}");
        m.set(&p("groups_visited_per_q"), "count", per_q(s.groups_visited));
        m.set(
            &p("members_examined_per_q"),
            "count",
            per_q(s.members_examined),
        );
        m.set(&p("dtw_evals_per_q"), "count", per_q(s.dtw_evals));
        m.set(&p("lb_keogh_evals_per_q"), "count", per_q(s.lb_keogh_evals));
        m.set(
            &p("prune_rate"),
            "ratio",
            ratio(s.lb_prunes as f64, (s.lb_prunes + s.dtw_evals) as f64),
        );
        m.set(
            &p("early_abandon_rate"),
            "ratio",
            ratio(s.early_abandons as f64, s.dtw_evals as f64),
        );
        let ops = &ctx.ops[c.index()];
        let no_cascade = QueryOptions {
            cascade: false,
            ..QueryOptions::default()
        };
        m.set(
            &p("cascade_saving_ms"),
            "ms",
            saving_ms(t, ctx.ex, ops, probe_count(c), no_cascade),
        );
        let one_thread = QueryOptions {
            query_threads: Some(1),
            ..QueryOptions::default()
        };
        m.set(
            &format!("par.{name}.saving_ms"),
            "ms",
            saving_ms(t, ctx.ex, ops, probe_count(c), one_thread),
        );
        for (tier, y) in ["paa", "kim", "keogh_eq", "keogh_ec"]
            .iter()
            .zip(tier_yields(s))
        {
            m.set(&format!("cascade.{name}.{tier}_yield"), "ratio", y);
        }
    }
    let best = ctx.clients.class(Class::BestMatch);
    let s = &best.stats;
    m.set(
        "symindex.skip_rate",
        "ratio",
        ratio(s.groups_skipped_by_index as f64, s.groups_visited as f64),
    );
    m.set(
        "symindex.fallback_rate",
        "ratio",
        ratio(s.index_fallbacks as f64, s.lengths_visited as f64),
    );
    m.set(
        "symindex.probes_per_q",
        "count",
        ratio(s.index_probes as f64, best.latency_ms.len() as f64),
    );
    let no_index = QueryOptions {
        symindex: false,
        ..QueryOptions::default()
    };
    m.set(
        "symindex.saving_ms",
        "ms",
        saving_ms(
            t,
            ctx.ex,
            &ctx.ops[Class::BestMatch.index()],
            probe_count(Class::BestMatch),
            no_index,
        ),
    );
}

/// `onex_dist::dtw` and `lb_keogh` at the pooled query lengths and the
/// radius the engine resolves for them, against dataset slices of the
/// same length.
fn dist_metrics(ctx: &Ctx<'_>, t: &mut Tracer, m: &mut Metrics) {
    let window = config().window;
    let base = ctx.ex.base();
    let series = base.dataset().series();
    let (mut dtw_ns, mut cells, mut lb_ns, mut points) = (0.0, 0.0, 0.0, 0.0);
    let best = &ctx.ops[Class::BestMatch.index()];
    for (i, op) in spread(best, 16).enumerate() {
        let x = match &op.request {
            onex_core::QueryRequest::BestMatch { values, .. } => values,
            _ => continue,
        };
        let len = x.len();
        let y = &series[i % series.len()].values()[..len];
        let r = radius(len);
        let env = Envelope::build(x, r);
        let reps = 8;
        let ((), ms) = t.time("dist.dtw", || {
            for _ in 0..reps {
                black_box(onex_dist::dtw(black_box(x), black_box(y), window));
            }
        });
        dtw_ns += ms * 1e6;
        cells += (reps * band_cells(len, r)) as f64;
        let reps = 64;
        let ((), ms) = t.time("dist.lb_keogh", || {
            for _ in 0..reps {
                black_box(onex_dist::lb_keogh(black_box(y), &env));
            }
        });
        lb_ns += ms * 1e6;
        points += (reps * len) as f64;
    }
    let ns_per_cell = ratio(dtw_ns, cells);
    m.set("dist.dtw_ns_per_cell", "ns", ns_per_cell);
    m.set("dist.lb_keogh_ns_per_point", "ns", ratio(lb_ns, points));
    // Upper bound: early-abandoned evaluations fill fewer cells. It is DTW
    // time over query wall time, so intra-query fan-out can lift it above 1.
    for (name, c) in CLASSES
        .iter()
        .zip([Class::BestMatch, Class::TopK, Class::Range])
    {
        let res = ctx.clients.class(c);
        let query_ns = res.latency_ms.sum() * 1e6;
        m.set(
            &format!("dist.{name}.dtw_share"),
            "ratio",
            ratio(res.dtw_cells * ns_per_cell, query_ns),
        );
    }
}

fn write_path_metrics(ctx: &Ctx<'_>, t: &mut Tracer, m: &mut Metrics) -> Result<(), String> {
    let ex = ctx.ex;
    let mut clone_ms = Samples::default();
    for _ in 0..3 {
        let base = ex.base();
        let (copy, ms) = t.time("maintain.clone", || (*base).clone());
        clone_ms.push(ms);
        drop(copy);
    }
    m.set("maintain.clone_ms", "ms", clone_ms.median());

    // Appends on a side explorer over the live base, without a WAL.
    let side = Explorer::new(ex.base());
    let mut plain = Samples::default();
    for series in ctx.inputs.held_out.iter().take(3) {
        let (r, ms) = t.time("maintain.append", || side.append_series(series.clone()));
        r.map_err(|e| format!("probe append: {e}"))?;
        plain.push(ms);
    }
    drop(side);
    m.set("maintain.append_nowal_ms", "ms", plain.median());
    // The writer's loosen-and-back round trips, each the mean of its two
    // `refine_to` calls.
    m.set("refine.refine_to_ms", "ms", ctx.log.refine_ms.median());

    // The journal's share is a difference of appends with and without the
    // WAL. On the workload's base that difference drowns in the base clone
    // every append pays, so it is taken on a tiny base of prefixes of the
    // workload's own series, where an append costs less than the journal's
    // write and fsync of its record.
    let prefix = |s: &onex_ts::TimeSeries| {
        let v = s.values();
        onex_ts::TimeSeries::new(v[..JOURNAL_PROBE_LEN.min(v.len())].to_vec())
            .expect("a prefix of a valid series is valid")
    };
    let small = onex_ts::Dataset::new(
        "probe",
        ctx.inputs.data.series()[..2].iter().map(prefix).collect(),
    );
    let side = Explorer::build(&small, config()).map_err(|e| format!("probe build: {e}"))?;
    let wal = ctx.dir.join("probe.onex.wal");
    let mut journal = Samples::default();
    for (i, series) in ctx
        .inputs
        .held_out
        .iter()
        .map(prefix)
        .cycle()
        .take(32)
        .enumerate()
    {
        let mut pair = [0.0; 2];
        for with_wal in [i % 2 == 0, i % 2 != 0] {
            if with_wal {
                side.attach_wal(&wal)
                    .map_err(|e| format!("probe attach_wal: {e}"))?;
            } else {
                side.detach_wal();
            }
            let name = ["maintain.append", "maintain.append.wal"][usize::from(with_wal)];
            let (r, ms) = t.time(name, || side.append_series(series.clone()));
            r.map_err(|e| format!("probe append: {e}"))?;
            pair[usize::from(with_wal)] = ms;
            let last = side.base().dataset().len() - 1;
            side.detach_wal();
            side.remove_series(last)
                .map_err(|e| format!("probe remove: {e}"))?;
        }
        journal.push(pair[1] - pair[0]);
    }
    m.set("wal.journal_ms", "ms", journal.median());
    m.set(
        "wal.bytes_per_op",
        "B",
        ctx.log.wal_bytes as f64 / TAIL_OPS as f64,
    );
    m.set(
        "wal.records_replayed",
        "count",
        ctx.recovery
            .loaded_epoch
            .saturating_sub(ctx.log.checkpoint_epoch) as f64,
    );

    let base = ex.base();
    let (encoded, encode_ms) = t.time("snapshot.encode", || onex_core::snapshot::encode(&base));
    drop(encoded);
    m.set("snapshot.encode_ms", "ms", encode_ms);
    m.set(
        "snapshot.write_ms",
        "ms",
        ctx.log.save_s.median() * 1e3 - encode_ms,
    );
    let (bytes, read_ms) = t.time("fs.read", || std::fs::read(ctx.snapshot));
    let bytes = bytes.map_err(|e| format!("read snapshot: {e}"))?;
    let (decoded, decode_ms) = t.time("snapshot.decode", || {
        onex_core::snapshot::decode_with_epoch(&bytes)
    });
    decoded.map_err(|e| format!("decode snapshot: {e}"))?;
    drop(bytes);
    // decode_with_epoch runs validate_invariants on what it parsed.
    m.set("snapshot.decode_ms", "ms", decode_ms);
    let (valid, validate_ms) = t.time("base.validate_invariants", || base.validate_invariants());
    valid.map_err(|e| format!("validate_invariants: {e}"))?;
    m.set("snapshot.validate_ms", "ms", validate_ms);
    m.set(
        "wal.replay_ms",
        "ms",
        ctx.log.load_s.median() * 1e3 - read_ms - decode_ms,
    );
    Ok(())
}

/// Microseconds that recording one traced client request's spans costs:
/// the three enter/exit pairs the client loop makes per request, timed in
/// a tight loop. The same cost taken as a difference between traced and
/// untraced windows is smaller than their run-to-run spread.
fn span_cost_us() -> f64 {
    const PER_BLOCK: u64 = 1000;
    let mut tracer = Tracer::new(true, Instant::now(), 0);
    let mut blocks = Samples::default();
    for _ in 0..20 {
        let t0 = Instant::now();
        for req in 0..PER_BLOCK {
            tracer.enter("request", req);
            tracer.enter("engine.query", req);
            tracer.exit();
            tracer.enter("check", req);
            tracer.exit();
            tracer.exit();
        }
        blocks.push(t0.elapsed().as_secs_f64() * 1e6 / PER_BLOCK as f64);
    }
    black_box(tracer.into_spans());
    blocks.median()
}

/// Seconds `build::build_base` takes over the min-max normalized dataset:
/// the grouping phase of set-up.
pub fn time_build_groups(t: &mut Tracer, normalized: &onex_ts::Dataset) -> f64 {
    let (slabs, ms) = t.time("build.build_base", || {
        onex_core::build::build_base(normalized, &config())
    });
    drop(slabs);
    ms / 1e3
}

/// Every per-layer metric, recording a span around each call it times.
pub fn measure(ctx: &Ctx<'_>, t: &mut Tracer) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    m.set("build.groups_s", "s", ctx.groups_s);
    m.set("build.index_s", "s", ctx.setup_s - ctx.groups_s);
    m.set(
        "build.subsequences",
        "count",
        ctx.base_stats.subsequences as f64,
    );
    m.set(
        "build.representatives",
        "count",
        ctx.base_stats.representatives as f64,
    );
    let fp = ctx.footprint;
    m.set("store.slab_mb", "MB", fp.slab_bytes() as f64 / MB);
    let members: usize = fp.per_length.iter().map(|l| l.member_bytes).sum();
    m.set("store.member_mb", "MB", members as f64 / MB);
    m.set("store.sketch_mb", "MB", fp.sketch_bytes() as f64 / MB);
    m.set("store.word_mb", "MB", fp.word_bytes() as f64 / MB);

    class_metrics(ctx, t, &mut m);
    dist_metrics(ctx, t, &mut m);

    let base = ctx.ex.base();
    let mut normalize_us = Samples::default();
    for _ in 0..3 {
        for raw in ctx.raw_queries {
            let (q, ms) = t.time("ts.normalize_query", || {
                base.normalize_query(black_box(raw))
            });
            black_box(q);
            normalize_us.push(ms * 1e3);
        }
    }
    drop(base);
    m.set("prep.normalize_us", "us", normalize_us.median());

    m.set("engine.shed", "count", ctx.clients.shed as f64);
    m.set("engine.degraded", "count", ctx.clients.degraded as f64);
    m.set("engine.swaps", "count", ctx.ex.epoch() as f64);

    write_path_metrics(ctx, t, &mut m)?;

    // Share of a median best-match request that its spans add.
    let best_us = ctx
        .clients
        .class(Class::BestMatch)
        .latency_ms
        .all()
        .median()
        * 1e3;
    m.set(
        "trace.overhead_pct",
        "%",
        ratio(span_cost_us(), best_us) * 100.0,
    );
    let selfs = self_time_by_name(ctx.spans);
    m.set(
        "trace.request_self_us",
        "us",
        selfs.get("request").map_or(0.0, Samples::median),
    );
    Ok(m)
}
