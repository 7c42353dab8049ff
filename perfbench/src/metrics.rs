//! Metric names, the derived ratios computed from the engine's per-response
//! counters, and the one-line JSON result the benchmark ends with.

use onex_core::QueryStats;
use std::fmt::Write as _;

/// Every end-to-end metric, with its unit. Each workload reports all of
/// them; `BENCHMARK.json` lists the same names (a test keeps them equal).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("best_match_p50_ms", "ms"),
    ("best_match_p90_ms", "ms"),
    ("top_k_p50_ms", "ms"),
    ("range_p50_ms", "ms"),
    ("qps", "1/s"),
    ("append_p50_ms", "ms"),
    ("save_s", "s"),
    ("load_s", "s"),
    ("ok_rate", "ratio"),
    ("base_mb", "MB"),
    ("snapshot_mb", "MB"),
];

/// Similarity query classes the per-layer metrics split by.
pub const CLASSES: [&str; 3] = ["best_match", "top_k", "range"];

/// Every per-layer metric, with its unit, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| out.push((name, unit));
    add("build.groups_s".into(), "s");
    add("build.index_s".into(), "s");
    add("build.subsequences".into(), "count");
    add("build.representatives".into(), "count");
    for plane in ["slab", "member", "sketch", "word"] {
        add(format!("store.{plane}_mb"), "MB");
    }
    for c in CLASSES {
        add(format!("similarity.{c}.groups_visited_per_q"), "count");
        add(format!("similarity.{c}.members_examined_per_q"), "count");
        add(format!("similarity.{c}.dtw_evals_per_q"), "count");
        add(format!("similarity.{c}.lb_keogh_evals_per_q"), "count");
        add(format!("similarity.{c}.prune_rate"), "ratio");
        add(format!("similarity.{c}.early_abandon_rate"), "ratio");
        add(format!("similarity.{c}.cascade_saving_ms"), "ms");
    }
    for c in CLASSES {
        for tier in ["paa", "kim", "keogh_eq", "keogh_ec"] {
            add(format!("cascade.{c}.{tier}_yield"), "ratio");
        }
    }
    add("symindex.skip_rate".into(), "ratio");
    add("symindex.fallback_rate".into(), "ratio");
    add("symindex.probes_per_q".into(), "count");
    add("symindex.saving_ms".into(), "ms");
    for c in CLASSES {
        add(format!("par.{c}.saving_ms"), "ms");
    }
    add("dist.dtw_ns_per_cell".into(), "ns");
    add("dist.lb_keogh_ns_per_point".into(), "ns");
    for c in CLASSES {
        add(format!("dist.{c}.dtw_share"), "ratio");
    }
    add("prep.normalize_us".into(), "us");
    add("engine.shed".into(), "count");
    add("engine.degraded".into(), "count");
    add("engine.swaps".into(), "count");
    add("maintain.clone_ms".into(), "ms");
    add("maintain.append_nowal_ms".into(), "ms");
    add("refine.refine_to_ms".into(), "ms");
    add("wal.journal_ms".into(), "ms");
    add("wal.bytes_per_op".into(), "B");
    add("wal.records_replayed".into(), "count");
    add("wal.replay_ms".into(), "ms");
    add("snapshot.encode_ms".into(), "ms");
    add("snapshot.write_ms".into(), "ms");
    add("snapshot.decode_ms".into(), "ms");
    add("snapshot.validate_ms".into(), "ms");
    add("trace.overhead_pct".into(), "%");
    add("trace.request_self_us".into(), "us");
    out
}

/// For each per-layer metric prefix: the end-to-end metric it should move,
/// and the workload that does most of that layer's work (after "/", one
/// that does little of it).
pub const LAYER_TARGETS: &[(&str, &str, &str)] = &[
    ("build.", "setup_s", "long_match / mutate_serve"),
    (
        "store.",
        "base_mb, snapshot_mb, append_p50_ms, load_s",
        "mutate_serve",
    ),
    (
        "similarity.",
        "<class>_p50_ms of its class",
        "long_match / short_serve",
    ),
    ("cascade.", "top_k_p50_ms, range_p50_ms", "long_match"),
    ("symindex.", "best_match_p50_ms", "short_serve / long_match"),
    (
        "par.",
        "qps (short_serve), top_k_p50_ms and range_p50_ms (long_match)",
        "short_serve, long_match",
    ),
    (
        "dist.",
        "<class>_p50_ms of its class",
        "long_match / short_serve",
    ),
    ("prep.", "best_match_p50_ms", "short_serve"),
    ("engine.", "ok_rate, best_match_p90_ms", "mutate_serve"),
    (
        "maintain.",
        "append_p50_ms, best_match_p90_ms",
        "mutate_serve",
    ),
    (
        "refine.",
        "refine_p50_ms (report only: too unsteady between runs to gate), load_s",
        "mutate_serve",
    ),
    ("wal.", "append_p50_ms, load_s", "mutate_serve"),
    ("snapshot.", "save_s, load_s", "mutate_serve"),
    ("trace.", "none: the cost of tracing itself", "all"),
];

/// The (end-to-end metric, workload) a per-layer metric should move.
pub fn target(name: &str) -> Option<(&'static str, &'static str)> {
    LAYER_TARGETS
        .iter()
        .find(|(prefix, _, _)| name.starts_with(prefix))
        .map(|(_, e2e, w)| (*e2e, *w))
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Share of the candidates reaching each cascade tier that the tier
/// pruned: PAA sketch, LB_Kim, query-envelope LB_Keogh, candidate-envelope
/// LB_Keogh. Every candidate the cascade sees is either pruned by one tier
/// or evaluated with DTW, so `lb_prunes + dtw_evals` enter tier 0 and each
/// tier passes on what it did not prune.
pub fn tier_yields(s: &QueryStats) -> [f64; 4] {
    let pruned = [
        s.pruned_paa,
        s.pruned_kim,
        s.pruned_keogh_eq,
        s.pruned_keogh_ec,
    ];
    let mut reaching = (s.lb_prunes + s.dtw_evals) as f64;
    let mut out = [0.0; 4];
    for (o, p) in out.iter_mut().zip(pruned) {
        *o = ratio(p as f64, reaching);
        reaching -= p as f64;
    }
    out
}

/// Collected metric values, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, &'static str, f64)>,
}

impl Metrics {
    pub fn set(&mut self, name: &str, unit: &'static str, value: f64) {
        self.entries.retain(|(n, _, _)| n != name);
        self.entries.push((name.to_string(), unit, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, _, v)| *v)
    }

    /// The metrics named in `expected`, in that order, with the expected
    /// units; an error names any that are missing, mis-unitted or not
    /// finite.
    pub fn select(&self, expected: &[(String, &'static str)]) -> Result<Metrics, String> {
        let mut out = Metrics::default();
        for (name, unit) in expected {
            let entry = self.entries.iter().find(|(n, _, _)| n == name);
            match entry {
                Some((_, u, v)) if u == unit && v.is_finite() => out.set(name, unit, *v),
                Some((_, u, v)) => return Err(format!("metric {name}: {v} {u}, want {unit}")),
                None => return Err(format!("metric {name} was not measured")),
            }
        }
        Ok(out)
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit, value)) in metrics.entries.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn tier_yields_divide_by_candidates_reaching_each_tier() {
        let s = QueryStats {
            dtw_evals: 20,
            lb_prunes: 80,
            pruned_paa: 50,
            pruned_kim: 10,
            pruned_keogh_eq: 15,
            pruned_keogh_ec: 5,
            ..Default::default()
        };
        // 100 reach tier 0, 50 reach LB_Kim, 40 reach the query envelope,
        // 25 reach the candidate envelope.
        assert_eq!(tier_yields(&s), [0.5, 0.2, 0.375, 0.2]);
        assert_eq!(tier_yields(&QueryStats::default()), [0.0; 4]);
    }

    #[test]
    fn every_layer_metric_names_what_it_should_move() {
        for (name, _) in per_layer() {
            assert!(target(&name).is_some(), "{name} has no target");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        m.set("latency_ms", "ms", 1.2034);
        m.set("setup_s", "s", 0.8127);
        assert_eq!(
            result_json(true, 1000, 0, &m),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn select_rejects_missing_and_non_finite_metrics() {
        let mut m = Metrics::default();
        m.set("a", "ms", 1.0);
        m.set("b", "ms", f64::NAN);
        assert!(m.select(&[("a".into(), "ms")]).is_ok());
        assert!(m.select(&[("a".into(), "s")]).is_err());
        assert!(m.select(&[("b".into(), "ms")]).is_err());
        assert!(m.select(&[("c".into(), "ms")]).is_err());
    }

    /// The names and units in `BENCHMARK.json` are the ones this program
    /// prints, so the metrics the file promises and the output cannot drift.
    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let section = |key: &str| -> BTreeSet<(String, String)> {
            let start = text.find(&format!("\"{key}\"")).expect("section present");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |f: &str| {
                        let at = entry.find(&format!("\"{f}\": \"")).expect("field") + f.len() + 5;
                        entry[at..at + entry[at..].find('"').expect("closing quote")].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |list: Vec<(String, &str)>| -> BTreeSet<(String, String)> {
            list.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        let e2e = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect();
        assert_eq!(section("end_to_end"), own(e2e));
        assert_eq!(section("per_layer"), own(per_layer()));
    }
}
