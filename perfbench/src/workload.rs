//! The three workloads: what data they generate from the seed, which
//! queries they pool, and the mix their clients draw from.

use onex_core::{
    Explorer, MatchMode, OnexBase, OnexConfig, QueryOptions, QueryRequest, QueryResult,
    SimilarityDegree,
};
use onex_ts::synth::PaperDataset;
use onex_ts::{Dataset, TimeSeries};

/// SplitMix64: small, seedable, and the same on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    LongMatch,
    ShortServe,
    MutateServe,
}

impl Kind {
    pub fn parse(s: &str) -> Option<Kind> {
        match s {
            "long_match" => Some(Kind::LongMatch),
            "short_serve" => Some(Kind::ShortServe),
            "mutate_serve" => Some(Kind::MutateServe),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::LongMatch => "long_match",
            Kind::ShortServe => "short_serve",
            Kind::MutateServe => "mutate_serve",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    BestMatch,
    TopK,
    Range,
    Seasonal,
    Recommend,
}

impl Class {
    pub const ALL: [Class; 5] = [
        Class::BestMatch,
        Class::TopK,
        Class::Range,
        Class::Seasonal,
        Class::Recommend,
    ];

    pub fn index(self) -> usize {
        self as usize
    }

    pub fn name(self) -> &'static str {
        match self {
            Class::BestMatch => "best_match",
            Class::TopK => "top_k",
            Class::Range => "range",
            Class::Seasonal => "seasonal",
            Class::Recommend => "recommend",
        }
    }
}

/// What one workload runs. Mix weights are shares of issued requests.
pub struct Spec {
    pub kind: Kind,
    pub dataset: PaperDataset,
    pub series: usize,
    pub len: usize,
    /// Closed-loop query clients.
    pub clients: usize,
    pub mix: &'static [(Class, f64)],
    /// Distinct similarity queries pooled for best-match.
    pub pool: usize,
    pub top_k_pool: usize,
    pub range_pool: usize,
    /// Maintenance cycles after the query window; `None` runs the writer
    /// during the window instead, on a fixed timetable.
    pub epilogue_cycles: Option<usize>,
}

/// Raw series appended by maintenance, from the dataset's own generator
/// stream but not in the dataset.
pub const HELD_OUT: usize = 8;
/// Raw series the long workload slices its held-out queries from.
const QUERY_SOURCES: usize = 16;
pub const TOP_K: usize = 10;

pub fn spec(kind: Kind) -> Spec {
    match kind {
        Kind::LongMatch => Spec {
            kind,
            dataset: PaperDataset::StarLightCurves,
            series: 40,
            len: 256,
            clients: 1,
            mix: &[
                (Class::BestMatch, 0.56),
                (Class::TopK, 0.40),
                (Class::Range, 0.04),
            ],
            pool: 192,
            top_k_pool: 192,
            range_pool: 16,
            epilogue_cycles: Some(2),
        },
        Kind::ShortServe => Spec {
            kind,
            dataset: PaperDataset::Ecg,
            series: 200,
            len: 97,
            clients: 2,
            mix: &[
                (Class::BestMatch, 0.70),
                (Class::TopK, 0.20),
                (Class::Seasonal, 0.05),
                (Class::Recommend, 0.045),
                (Class::Range, 0.005),
            ],
            pool: 256,
            top_k_pool: 256,
            range_pool: 32,
            epilogue_cycles: Some(3),
        },
        Kind::MutateServe => Spec {
            kind,
            dataset: PaperDataset::Ecg,
            series: 100,
            len: 97,
            clients: 1,
            mix: &[
                (Class::BestMatch, 0.87),
                (Class::TopK, 0.12),
                (Class::Range, 0.01),
            ],
            pool: 48,
            top_k_pool: 48,
            range_pool: 24,
            epilogue_cycles: None,
        },
    }
}

/// Generator seed of every workload's dataset. The dataset is the fixed
/// corpus an analyst explores; `--seed` varies the queries and the order
/// clients issue them in, so run-to-run spread measures the engine rather
/// than how the generator happened to draw the corpus.
const DATA_SEED: u64 = 0x0E7A_5EED;

/// Everything generated before the engine sees it.
pub struct Inputs {
    pub data: Dataset,
    pub held_out: Vec<TimeSeries>,
    query_sources: Vec<TimeSeries>,
}

pub fn inputs(spec: &Spec) -> Inputs {
    let all = spec.dataset.generate_with_shape(
        spec.series + HELD_OUT + QUERY_SOURCES,
        spec.len,
        DATA_SEED,
    );
    let series = all.series();
    Inputs {
        data: Dataset::new(spec.dataset.name(), series[..spec.series].to_vec()),
        held_out: series[spec.series..spec.series + HELD_OUT].to_vec(),
        query_sources: series[spec.series + HELD_OUT..].to_vec(),
    }
}

/// The pooled similarity queries, in the base's normalized space, drawn
/// from `seed` and ordered by length within each half. Every seed pools the
/// same spread of lengths, so seeds differ in where queries come from, not
/// in how long they are.
pub fn query_pool(spec: &Spec, inputs: &Inputs, base: &OnexBase, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = Rng::new(seed ^ 0x10C9);
    match spec.kind {
        // Lengths spread evenly over 128..=256 (band radius 13..=26); even
        // entries are slices of the dataset, odd ones of held-out series
        // of the same generator stream.
        Kind::LongMatch => {
            let data = base.dataset().series();
            (0..spec.pool)
                .map(|i| {
                    let len = 128 + (i / 2 * 2 * 128) / (spec.pool - 1);
                    if i % 2 == 0 {
                        let s = &data[rng.below(data.len())];
                        let start = rng.below(s.len() - len + 1);
                        s.values()[start..start + len].to_vec()
                    } else {
                        let s = &inputs.query_sources[rng.below(inputs.query_sources.len())];
                        let start = rng.below(s.len() - len + 1);
                        base.normalize_query(&s.values()[start..start + len])
                    }
                })
                .collect()
        }
        // The paper's §6.2 methodology (lengths spread over 4..=97, half
        // from the dataset, half held out) over twice the pool; the seed
        // keeps every other length band, picking which member of each
        // adjacent pair.
        Kind::ShortServe | Kind::MutateServe => {
            let half = spec.pool / 2;
            let all = onex_bench::harness::make_queries(
                spec.dataset,
                base,
                2 * half,
                2 * half,
                DATA_SEED,
            );
            all.chunks(2)
                .map(|pair| pair[rng.below(pair.len())].values.clone())
                .collect()
        }
    }
}

/// `n` items spread evenly over `items` (which the pool keeps ordered by
/// length), so every subset covers the same range of lengths.
pub fn spread<T>(items: &[T], n: usize) -> impl Iterator<Item = &T> {
    let step = (items.len() / n.max(1)).max(1);
    items.iter().step_by(step).take(n)
}

/// Raw (un-normalized) query-shaped slices of held-out series, one per
/// pooled length, for timing query normalization.
pub fn raw_slices(inputs: &Inputs, pool: &[Vec<f64>]) -> Vec<Vec<f64>> {
    pool.iter()
        .enumerate()
        .map(|(i, q)| {
            let s = inputs.held_out[i % inputs.held_out.len()].values();
            s[..q.len().min(s.len())].to_vec()
        })
        .collect()
}

/// One pooled request and the fingerprint of its reference answer.
pub struct Op {
    pub class: Class,
    pub request: QueryRequest,
    /// Query length for similarity classes, 0 otherwise.
    pub qlen: usize,
    pub reference: String,
}

/// The answer as text: `Debug` prints every `f64` in its shortest
/// round-trip form, so equal text means bit-identical answers.
pub fn fingerprint(result: &QueryResult) -> String {
    format!("{result:?}")
}

/// Options of the reference answer: every lower bound off, one thread.
pub fn reference_options() -> QueryOptions {
    QueryOptions {
        lb_pruning: false,
        query_threads: Some(1),
        ..QueryOptions::default()
    }
}

/// `request` with its options replaced.
pub fn with_options(request: &QueryRequest, options: QueryOptions) -> QueryRequest {
    let mut out = request.clone();
    match &mut out {
        QueryRequest::BestMatch { options: o, .. }
        | QueryRequest::TopK { options: o, .. }
        | QueryRequest::WithinThreshold { options: o, .. }
        | QueryRequest::Seasonal { options: o, .. }
        | QueryRequest::Recommend { options: o, .. } => *o = options,
        QueryRequest::Batch { .. } => {}
    }
    out
}

/// Pooled requests per class (indexed by [`Class::index`]), without
/// references yet.
pub fn build_ops(spec: &Spec, pool: &[Vec<f64>]) -> Vec<Vec<Op>> {
    let op = |class, request, qlen| Op {
        class,
        request,
        qlen,
        reference: String::new(),
    };
    let mut ops: Vec<Vec<Op>> = Class::ALL.iter().map(|_| Vec::new()).collect();
    let wanted = |c: Class| spec.mix.iter().any(|(m, _)| *m == c);
    for (i, q) in pool.iter().enumerate() {
        // Alternates per pair, so in-dataset and held-out queries both get
        // each length clause.
        let mode = if (i + i / 2) % 2 == 0 {
            MatchMode::Exact(q.len())
        } else {
            MatchMode::Any
        };
        ops[Class::BestMatch.index()].push(op(
            Class::BestMatch,
            QueryRequest::best_match(q.clone(), mode),
            q.len(),
        ));
    }
    for q in spread(pool, spec.top_k_pool) {
        ops[Class::TopK.index()].push(op(
            Class::TopK,
            QueryRequest::top_k(q.clone(), MatchMode::Exact(q.len()), TOP_K),
            q.len(),
        ));
    }
    for q in spread(pool, spec.range_pool) {
        let request = QueryRequest::WithinThreshold {
            values: q.clone(),
            mode: MatchMode::Exact(q.len()),
            verify: true,
            options: QueryOptions::default(),
        };
        ops[Class::Range.index()].push(op(Class::Range, request, q.len()));
    }
    if wanted(Class::Seasonal) {
        for (i, len) in [8, 16, 24, 32, 48, 64].into_iter().enumerate() {
            let request = if i % 2 == 0 {
                QueryRequest::seasonal_all(len, 2)
            } else {
                QueryRequest::seasonal_for_series(i * 7 % spec.series, len, 2)
            };
            ops[Class::Seasonal.index()].push(op(Class::Seasonal, request, 0));
        }
    }
    if wanted(Class::Recommend) {
        let degrees = [
            None,
            Some(SimilarityDegree::Strict),
            Some(SimilarityDegree::Medium),
            Some(SimilarityDegree::Loose),
        ];
        for (i, degree) in degrees.into_iter().enumerate() {
            let len = (i > 0).then_some(8 * i + 8);
            ops[Class::Recommend.index()].push(op(
                Class::Recommend,
                QueryRequest::recommend(degree, len),
                0,
            ));
        }
    }
    ops
}

/// Computes every op's reference answer on `threads` threads, dealing the
/// ops out round-robin so each thread gets its share of every class.
pub fn fill_references(ex: &Explorer, ops: &mut [Vec<Op>], threads: usize) -> Result<(), String> {
    let threads = threads.max(1);
    let mut parts: Vec<Vec<&mut Op>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, op) in ops.iter_mut().flatten().enumerate() {
        parts[i % threads].push(op);
    }
    std::thread::scope(|scope| {
        let workers: Vec<_> = parts
            .into_iter()
            .map(|mut part| {
                scope.spawn(move || -> Result<(), String> {
                    for op in part.iter_mut() {
                        let resp = ex
                            .query(with_options(&op.request, reference_options()))
                            .map_err(|e| format!("reference {}: {e}", op.class.name()))?;
                        op.reference = fingerprint(&resp.result);
                    }
                    Ok(())
                })
            })
            .collect();
        workers
            .into_iter()
            .try_for_each(|w| w.join().expect("reference worker panicked"))
    })
}

/// The engine configuration every workload serves with.
pub fn config() -> OnexConfig {
    OnexConfig::default()
}

/// Sakoe-Chiba band radius the engine resolves for a query of `len`
/// against candidates of the same length.
pub fn radius(len: usize) -> usize {
    config().window.resolve(len, len)
}

/// Cells a banded DTW fills for two series of length `n` at radius `r`.
pub fn band_cells(n: usize, r: usize) -> usize {
    (0..n)
        .map(|i| (i + r + 1).min(n) - i.saturating_sub(r))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn band_cells_counts_the_clipped_band() {
        assert_eq!(band_cells(4, 0), 4);
        assert_eq!(band_cells(4, 1), 10);
        assert_eq!(band_cells(3, 5), 9);
        assert_eq!(band_cells(128, 13), 128 * 27 - 13 * 14);
    }

    #[test]
    fn long_queries_have_radius_at_least_13() {
        assert_eq!(radius(128), 13);
        assert_eq!(radius(256), 26);
        assert_eq!(radius(97), 10);
    }

    #[test]
    fn rng_is_deterministic_per_seed() {
        let a: Vec<u64> = (0..3)
            .map({
                let mut r = Rng::new(5);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(5);
        assert_eq!(a, vec![r.next_u64(), r.next_u64(), r.next_u64()]);
        assert!((0..100).all(|_| r.below(7) < 7));
    }
}
