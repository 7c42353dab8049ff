//! End-to-end and per-layer benchmark of the ONEX engine.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload long_match --seed 1 --seconds 14 --trace 0
//! ```
//!
//! Every workload serves `OnexConfig::default()`, exactly as a user gets
//! it. The untraced run (`--trace 0`) prints every end-to-end metric; the
//! traced run (`--trace 1`) records spans around the benchmark's calls into
//! each layer and prints every per-layer metric. The last line of standard
//! output is the JSON result; the lines before it are the readable report,
//! with sample counts and the workload's recorded properties. Spans are
//! written to `.bench_out/` under the working directory.

mod metrics;
mod probes;
mod serve;
mod stats;
mod trace;
mod workload;
mod write;

use metrics::{per_layer, target, Metrics, END_TO_END};
use onex_core::Explorer;
use serve::{run_client, Check, ClientResult};
use stats::{max_supported_pct, supports, Samples};
use std::ops::RangeInclusive;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::{spans_json, Span, Tracer};
use workload::{Class, Kind};
use write::{cold_loads, Writer};

/// Builds per run, and the building time after which no more are started;
/// `setup_s` is their median. Small bases build more often, so their
/// median is as steady as a large base's.
const SETUPS: RangeInclusive<usize> = 3..=9;
const SETUP_BUDGET_S: f64 = 3.0;
/// Cold loads per run, and the loading time after which no more are
/// started; `load_s` is their median.
const LOADS: RangeInclusive<usize> = 3..=4;
const LOAD_BUDGET_S: f64 = 4.0;
/// Maintenance cycles per second of window in `mutate_serve`. The cycles
/// start on a fixed timetable spread over the window, so every run issues
/// the same ops and the reader shares the machine with the writer for the
/// same share of the window.
const WRITE_CYCLES_PER_S: f64 = 0.25;
/// Most equal rounds the query window is cut into (in `mutate_serve`, one
/// per writer cycle instead). A latency percentile is the first quartile
/// over rounds of the per-round percentile, and throughput the third
/// quartile over rounds: the middle of the rounds that ran faster, so
/// stretches in which other tenants slow the machine (see `stats::Timed`)
/// do not decide the result.
const ROUNDS: usize = 10;
const LATENCY_ACROSS_ROUNDS: f64 = 25.0;
const QPS_ACROSS_ROUNDS: f64 = 75.0;
/// Environment variables that would turn the default-config benchmark
/// into a different program.
const REFUSED_ENV: [&str; 2] = ["ONEX_FAULTS", "ONEX_QUERY_THREADS"];
const OUT_DIR: &str = ".bench_out";
/// Tracer thread id of the main thread's set-up and probe spans.
const MAIN_THREAD: u64 = 1 << 20;

struct Args {
    workload: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Kind::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn refused_env(get: impl Fn(&str) -> Option<String>) -> Option<String> {
    REFUSED_ENV.iter().find_map(|var| {
        get(var).map(|v| {
            format!(
                "refusing to run: {var}={v:?} is set, which changes the engine under test \
                 (the benchmark measures OnexConfig::default() as users get it); unset it"
            )
        })
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: onex-perfbench --workload long_match|short_serve|mutate_serve \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    if let Some(msg) = refused_env(|v| std::env::var(v).ok()) {
        eprintln!("{msg}");
        std::process::exit(2);
    }
    if let Err(e) = run(&args) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

/// Removes the run's working directory however the run ends.
struct RunDir(PathBuf);

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Wall-clock time of each phase of a run, so the run's length can be
/// budgeted.
struct Phases {
    last: Instant,
    done: Vec<(&'static str, f64)>,
}

impl Phases {
    fn start() -> Self {
        Phases {
            last: Instant::now(),
            done: Vec::new(),
        }
    }

    fn mark(&mut self, name: &'static str) {
        let now = Instant::now();
        self.done.push((name, (now - self.last).as_secs_f64()));
        self.last = now;
    }

    fn report(&self) -> String {
        let parts: Vec<String> = self
            .done
            .iter()
            .map(|(name, s)| format!("{name} {s:.1} s"))
            .collect();
        parts.join(", ")
    }
}

/// A timing with its sample count and whether that count supports the
/// percentile, per round and pooled.
fn timing_line(name: &str, value: f64, unit: &str, n: usize, pct: u32, rounds: usize) -> String {
    let rule = |n: usize| {
        if supports(n, pct) {
            "supported".to_string()
        } else {
            let best = max_supported_pct(n).map_or("none".into(), |p| format!("p{p}"));
            format!(
                "below the {}-beyond rule (supports {best})",
                stats::MIN_BEYOND
            )
        }
    };
    let per_round = if rounds > 1 {
        format!(
            ", first quartile of {rounds} rounds of ~{} ({})",
            n / rounds,
            rule(n / rounds)
        )
    } else {
        String::new()
    };
    format!(
        "{name:<20} {value:>12.4} {unit:<5} n={n} p{pct}: pooled {}{per_round}",
        rule(n)
    )
}

fn run(args: &Args) -> Result<(), String> {
    let spec = workload::spec(args.workload);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut phases = Phases::start();
    let origin = Instant::now();
    // Spans of set-up and of the per-layer probes; the writer is thread 0
    // and client `c` thread `c + 1`.
    let mut main_tracer = Tracer::new(args.trace, origin, MAIN_THREAD);
    let inputs = workload::inputs(&spec);
    phases.mark("inputs");

    // Set-up: dataset in memory -> servable explorer, several times. The
    // traced run also times the grouping phase alone after each set-up, so
    // both medians come from the same stretch of the run.
    let normalized = if args.trace {
        let (n, _) = onex_ts::normalize::min_max(&inputs.data).map_err(|e| format!("{e}"))?;
        Some(n)
    } else {
        None
    };
    let mut setup = Samples::default();
    let mut groups = Samples::default();
    let mut built = None;
    while setup.wants_more(&SETUPS, SETUP_BUDGET_S) {
        drop(built.take());
        let (ex, ms) = main_tracer.time("engine.build", || {
            Explorer::build(&inputs.data, workload::config())
        });
        setup.push(ms / 1e3);
        built = Some(ex.map_err(|e| format!("build: {e}"))?);
        if let Some(n) = &normalized {
            groups.push(probes::time_build_groups(&mut main_tracer, n));
        }
    }
    let ex = built.expect("at least one build");
    phases.mark("setup");
    let (base_stats, footprint, pool) = {
        let base = ex.base();
        let pool = workload::query_pool(&spec, &inputs, &base, args.seed);
        (base.stats(), base.footprint(), pool)
    };
    let raw_queries = workload::raw_slices(&inputs, &pool);
    let mut ops = workload::build_ops(&spec, &pool);
    workload::fill_references(&ex, &mut ops, cores)?;
    phases.mark("references");

    let out = PathBuf::from(OUT_DIR);
    let run_dir = RunDir(out.join(format!("{}-{}", spec.kind.name(), std::process::id())));
    std::fs::create_dir_all(&run_dir.0).map_err(|e| format!("{}: {e}", run_dir.0.display()))?;
    let snapshot = run_dir.0.join("base.onex");

    let window = Duration::from_secs_f64(args.seconds);
    let mut writer = Writer::new(
        &ex,
        snapshot.clone(),
        &inputs.held_out,
        Tracer::new(args.trace, origin, 0),
    )?;
    // With no epilogue the writer runs during the window on a fixed
    // timetable: cycle k starts k periods into the window (or when the one
    // before ends) and the tail follows the last cycle, so every period
    // holds one cycle's writes and is one round of the window.
    let concurrent = spec.epilogue_cycles.is_none();
    let cycles = ((args.seconds * WRITE_CYCLES_PER_S).round() as u32).max(1);
    let rounds = if concurrent { cycles as usize } else { ROUNDS };
    let check = if concurrent {
        Check::PerEpoch
    } else {
        Check::Reference
    };
    if concurrent {
        writer.checkpoint();
    }
    let mut clients = ClientResult::default();
    let window_start = Instant::now();
    let deadline = window_start + window;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..=spec.clients as u64)
            .map(|c| {
                let (ex, ops) = (&ex, &ops);
                scope.spawn(move || {
                    run_client(
                        ex,
                        ops,
                        spec.mix,
                        check,
                        args.seed ^ c.wrapping_mul(0x00C1_1EA7),
                        deadline,
                        window_start,
                        Tracer::new(args.trace, origin, c),
                        c,
                    )
                })
            })
            .collect();
        if concurrent {
            for k in 0..cycles {
                sleep_until(window_start + window / cycles * k);
                writer.cycle();
            }
            writer.tail();
        }
        for h in handles {
            clients.merge(h.join().expect("client panicked"));
        }
    });
    if let Some(n) = spec.epilogue_cycles {
        writer.checkpoint();
        for _ in 0..n {
            writer.cycle();
        }
        writer.tail();
    }
    phases.mark("window+writes");
    let recovery = cold_loads(&mut writer, (&LOADS, LOAD_BUDGET_S), &ops);
    phases.mark("loads+recovery");
    let (log, writer_spans) = writer.finish();
    let mut spans: Vec<Span> = std::mem::take(&mut clients.spans);
    spans.extend(writer_spans);

    let failed = clients.failed + clients.shed + clients.wrong + log.failed + recovery.failed;
    let attempted = clients.attempted + log.attempted + recovery.attempted;
    let errors: Vec<&String> = clients
        .errors
        .iter()
        .chain(&log.errors)
        .chain(&recovery.errors)
        .collect();

    // A latency percentile is taken in each of as many equal rounds as
    // still hold enough samples for it (`stats::supported_rounds`), and the
    // first quartile over those rounds reported; with one round it is the
    // pooled percentile.
    let latency = |c: Class, pct: u32| {
        let lat = &clients.class(c).latency_ms;
        let rounds = stats::supported_rounds(lat.len(), pct, rounds);
        let value =
            lat.round_percentile(pct as f64, LATENCY_ACROSS_ROUNDS, clients.elapsed_s, rounds);
        (value, rounds)
    };
    // The one tail in the result is best-match p90, the class with the most
    // samples: on a small shared machine p99 measures scheduler and host
    // stalls rather than the engine (it moved 5x between identical runs),
    // and the rarer classes' p90 spread too far between runs to gate on.
    // Every tail is still printed in the report. So is `refine_p50_ms`: a
    // refine regroups the whole base, and between stretches of a shared
    // host it moved 1.35-1.7x where query latency moved 1.15-1.4x, so its
    // spread between runs passed 0.25 of its median however many round
    // trips a run timed.
    let timings = [Class::BestMatch, Class::TopK, Class::Range];
    let qps = clients.round_qps(QPS_ACROSS_ROUNDS, rounds);
    let error_rate = failed as f64 / attempted as f64;
    let mut e2e = Metrics::default();
    e2e.set("setup_s", "s", setup.median());
    for c in timings {
        e2e.set(&format!("{}_p50_ms", c.name()), "ms", latency(c, 50).0);
    }
    e2e.set("best_match_p90_ms", "ms", latency(Class::BestMatch, 90).0);
    e2e.set("qps", "1/s", qps);
    e2e.set("append_p50_ms", "ms", log.append_ms.median());
    e2e.set("save_s", "s", log.save_s.median());
    e2e.set("load_s", "s", log.load_s.median());
    // The complement of the error rate, so that the metric is never 0.
    e2e.set("ok_rate", "ratio", 1.0 - error_rate);
    e2e.set("base_mb", "MB", base_stats.total_mb());
    e2e.set(
        "snapshot_mb",
        "MB",
        log.snapshot_bytes as f64 / (1024.0 * 1024.0),
    );

    // Readable report: every timing with its sample count.
    println!(
        "workload {} seed {} seconds {} trace {}",
        spec.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let props = properties(&spec, &base_stats, &ops, &clients, cores);
    println!("properties {props}");
    println!(
        "{}",
        timing_line("setup_s", setup.median(), "s", setup.len(), 50, 1)
    );
    for c in timings
        .into_iter()
        .chain([Class::Seasonal, Class::Recommend])
    {
        let lat = &clients.class(c).latency_ms;
        if lat.len() == 0 {
            continue;
        }
        for pct in [50, 90] {
            let name = format!("{}_p{pct}_ms", c.name());
            let (value, rounds) = latency(c, pct);
            println!(
                "{}",
                timing_line(&name, value, "ms", lat.len(), pct, rounds)
            );
        }
        let pooled = lat.all();
        println!(
            "{}",
            timing_line(
                &format!("{}_p99_ms", c.name()),
                pooled.percentile(99.0),
                "ms",
                lat.len(),
                99,
                1
            )
        );
        let per_round: Vec<String> = lat
            .rounds(clients.elapsed_s, rounds)
            .iter()
            .map(|r| format!("{:.3}/{:.3}", r.median(), r.percentile(90.0)))
            .collect();
        println!(
            "{:<20} rounds p50/p90 {} (max {:.3})",
            c.name(),
            per_round.join(" "),
            pooled.percentile(100.0)
        );
    }
    println!(
        "qps {qps:.1}: third quartile of {rounds} rounds; {} requests in {:.2} s, {:.2} s of it \
         computing per-epoch references ({} client(s))",
        clients.attempted,
        clients.elapsed_s,
        clients.verify_s.sum(),
        spec.clients
    );
    let in_order = |s: &Samples| -> String {
        let v: Vec<String> = s.values().iter().map(|v| format!("{v:.3}")).collect();
        v.join(" ")
    };
    for (name, s, pct, unit) in [
        ("append_p50_ms", &log.append_ms, 50, "ms"),
        ("append_p90_ms", &log.append_ms, 90, "ms"),
        ("remove_p50_ms", &log.remove_ms, 50, "ms"),
        ("refine_p50_ms", &log.refine_ms, 50, "ms"),
        ("save_s", &log.save_s, 50, "s"),
        ("load_s", &log.load_s, 50, "s"),
    ] {
        let value = s.percentile(pct as f64);
        println!("{}", timing_line(name, value, unit, s.len(), pct, 1));
        if pct == 50 {
            println!("{:<20} in order: {}", "", in_order(s));
        }
    }
    println!(
        "error_rate {error_rate:.6} (ok_rate {:.6}): attempted {attempted}, failed {} shed {} \
         wrong {} maintenance-failed {} recovery-failed {} unverified {}",
        1.0 - error_rate,
        clients.failed,
        clients.shed,
        clients.wrong,
        log.failed,
        recovery.failed,
        clients.unverified
    );
    for e in errors.iter().take(10) {
        println!("error: {e}");
    }

    let metrics = if args.trace {
        let ctx = probes::Ctx {
            ex: &ex,
            inputs: &inputs,
            raw_queries: &raw_queries,
            ops: &ops,
            clients: &clients,
            log: &log,
            recovery: &recovery,
            setup_s: setup.median(),
            groups_s: groups.median(),
            base_stats: &base_stats,
            footprint: &footprint,
            dir: &run_dir.0,
            snapshot: &snapshot,
            spans: &spans,
        };
        let layer = probes::measure(&ctx, &mut main_tracer)?;
        phases.mark("probes");
        let selected = layer.select(&per_layer())?;
        for (name, unit) in per_layer() {
            let (moves, on) = target(&name).expect("every layer metric has a target");
            println!(
                "layer {name:<42} {:>14.4} {unit:<6} moves {moves} on {on}",
                selected.get(&name).expect("selected")
            );
        }
        spans.extend(main_tracer.into_spans());
        println!("spans {}", spans.len());
        write_trace(&out, &spec, args.seed, &props, &spans)?;
        selected
    } else {
        let expected: Vec<(String, &'static str)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect();
        e2e.select(&expected)?
    };
    drop(run_dir);
    println!("phases {}", phases.report());
    println!(
        "{}",
        metrics::result_json(failed == 0, attempted, failed, &metrics)
    );
    Ok(())
}

/// The workload properties a later "helps only inputs with property P"
/// claim cites, as JSON.
fn properties(
    spec: &workload::Spec,
    base: &onex_core::BaseStats,
    ops: &[Vec<workload::Op>],
    clients: &ClientResult,
    cores: usize,
) -> String {
    let mut hist = std::collections::BTreeMap::<usize, (usize, usize, usize)>::new();
    for op in ops.iter().flatten().filter(|op| op.qlen > 0) {
        let bin = op.qlen / 16 * 16;
        let r = workload::radius(op.qlen);
        let e = hist.entry(bin).or_insert((0, usize::MAX, 0));
        e.0 += 1;
        e.1 = e.1.min(r);
        e.2 = e.2.max(r);
    }
    let bins: Vec<String> = hist
        .iter()
        .map(|(lo, (n, rmin, rmax))| {
            format!(
                "{{\"lengths\": \"{lo}-{}\", \"pooled\": {n}, \"radius\": \"{rmin}-{rmax}\"}}",
                lo + 15
            )
        })
        .collect();
    format!(
        "{{\"workload\": \"{}\", \"dataset\": \"{}\", \"series\": {}, \"series_len\": {}, \
         \"subsequences\": {}, \"representatives\": {}, \"clients\": {}, \
         \"query_length_histogram\": [{}], \"issued_similarity\": {}, \
         \"issued_radius_ge_13_share\": {:.4}, \
         \"wal_flush\": \"fsync (File::sync_all) per record, on the run's filesystem\", \
         \"cores\": {cores}}}",
        spec.kind.name(),
        spec.dataset.name(),
        spec.series,
        spec.len,
        base.subsequences,
        base.representatives,
        spec.clients,
        bins.join(", "),
        clients.similarity,
        metrics::ratio(clients.long_radius as f64, clients.similarity as f64),
    )
}

fn write_trace(
    out: &Path,
    spec: &workload::Spec,
    seed: u64,
    props: &str,
    spans: &[Span],
) -> Result<(), String> {
    let path = out.join(format!("trace-{}-seed{seed}.json", spec.kind.name()));
    let body = format!(
        "{{\"properties\": {props}, \"spans\": {}}}\n",
        spans_json(spans)
    );
    std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("spans written to {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload short_serve --seed 3 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(a.workload, Kind::ShortServe);
        assert_eq!((a.seed, a.seconds, a.trace), (3, 10.0, true));
        assert!(parse_args(&argv("--workload nope --seed 3 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload long_match --seed 3 --trace 0")).is_err());
    }

    #[test]
    fn refuses_fault_and_thread_overrides() {
        assert!(refused_env(|_| None).is_none());
        let msg =
            refused_env(|v| (v == "ONEX_QUERY_THREADS").then(|| "1".to_string())).expect("refused");
        assert!(msg.contains("ONEX_QUERY_THREADS"));
        assert!(refused_env(|v| (v == "ONEX_FAULTS").then(String::new)).is_some());
    }
}
