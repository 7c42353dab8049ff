//! Closed-loop query clients: each waits for an answer before it sends
//! the next request, the way an analyst drives an interactive exploration.

use crate::stats::Timed;
use crate::trace::{Span, Tracer};
use crate::workload::{
    band_cells, fingerprint, radius, reference_options, with_options, Class, Op, Rng,
};
use onex_core::{Explorer, OnexError, PinnedExplorer, QueryStats};
use std::collections::HashMap;
use std::time::Instant;

/// Per-class latencies and summed engine counters.
#[derive(Debug, Default, Clone)]
pub struct ClassResult {
    /// Latency of each answered request, stamped with its completion time
    /// in the window.
    pub latency_ms: Timed,
    pub stats: QueryStats,
    /// Σ dtw_evals × band cells at the query's own length.
    pub dtw_cells: f64,
}

impl ClassResult {
    pub fn merge(&mut self, other: &ClassResult) {
        self.latency_ms.extend(&other.latency_ms);
        self.stats.absorb(&other.stats);
        self.dtw_cells += other.dtw_cells;
    }
}

#[derive(Debug, Default)]
pub struct ClientResult {
    pub classes: Vec<ClassResult>,
    pub attempted: u64,
    /// Errors other than shedding.
    pub failed: u64,
    pub shed: u64,
    pub wrong: u64,
    /// Answers whose epoch could not be pinned for checking.
    pub unverified: u64,
    pub degraded: u64,
    /// Similarity queries issued, and those whose band radius is ≥ 13.
    pub similarity: u64,
    pub long_radius: u64,
    /// Completion time of every request in the window, and the seconds
    /// spent computing per-epoch reference answers, stamped likewise.
    pub done: Timed,
    pub verify_s: Timed,
    pub elapsed_s: f64,
    pub spans: Vec<Span>,
    pub errors: Vec<String>,
}

impl ClientResult {
    pub fn merge(&mut self, other: ClientResult) {
        if self.classes.is_empty() {
            self.classes = vec![ClassResult::default(); Class::ALL.len()];
        }
        for (mine, theirs) in self.classes.iter_mut().zip(&other.classes) {
            mine.merge(theirs);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.shed += other.shed;
        self.wrong += other.wrong;
        self.unverified += other.unverified;
        self.degraded += other.degraded;
        self.similarity += other.similarity;
        self.long_radius += other.long_radius;
        self.done.extend(&other.done);
        self.verify_s.extend(&other.verify_s);
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
        self.spans.extend(other.spans);
        self.errors.extend(other.errors);
    }

    pub fn class(&self, c: Class) -> &ClassResult {
        &self.classes[c.index()]
    }

    /// Requests per second in each round of the window, net of the time the
    /// client spent computing reference answers; the `across`-th percentile
    /// over rounds.
    pub fn round_qps(&self, across: f64, rounds: usize) -> f64 {
        let span = self.elapsed_s;
        let round_s = span / rounds as f64;
        let verify = self.verify_s.rounds(span, rounds);
        let mut per_round = crate::stats::Samples::default();
        for (k, done) in self.done.rounds(span, rounds).iter().enumerate() {
            per_round.push(done.len() as f64 / (round_s - verify[k].sum()));
        }
        per_round.percentile(across)
    }
}

/// How a client checks each answer.
#[derive(Debug, Clone, Copy)]
pub enum Check {
    /// Against the op's precomputed reference (the base never changes).
    Reference,
    /// Against a reference computed on the answering epoch, cached per
    /// epoch (the base is being mutated underneath the client).
    PerEpoch,
}

/// Class slots per deck; each mix weight becomes a whole number of slots.
const DECK: usize = 200;

/// A shuffled deck holding each class in exact proportion to its mix
/// weight, redealt when empty: every stretch of `DECK` requests has the
/// same mix, so how many expensive requests a run issues does not vary.
struct Deck {
    cards: Vec<Class>,
    next: usize,
}

impl Deck {
    fn new(mix: &[(Class, f64)]) -> Self {
        let total: f64 = mix.iter().map(|(_, w)| w).sum();
        let cards = mix
            .iter()
            .flat_map(|&(c, w)| {
                let n = ((w / total * DECK as f64).round() as usize).max(1);
                std::iter::repeat_n(c, n)
            })
            .collect();
        Deck {
            cards,
            next: usize::MAX,
        }
    }

    fn draw(&mut self, rng: &mut Rng) -> Class {
        if self.next >= self.cards.len() {
            for i in (1..self.cards.len()).rev() {
                self.cards.swap(i, rng.below(i + 1));
            }
            self.next = 0;
        }
        self.next += 1;
        self.cards[self.next - 1]
    }
}

/// Runs one closed-loop client until `deadline`.
#[allow(clippy::too_many_arguments)] // one independent choice of the caller each
pub fn run_client(
    ex: &Explorer,
    ops: &[Vec<Op>],
    mix: &[(Class, f64)],
    check: Check,
    seed: u64,
    deadline: Instant,
    window_start: Instant,
    mut tracer: Tracer,
    client: u64,
) -> ClientResult {
    let mut rng = Rng::new(seed);
    let mut deck = Deck::new(mix);
    let mut out = ClientResult {
        classes: vec![ClassResult::default(); Class::ALL.len()],
        ..ClientResult::default()
    };
    let mut cache: HashMap<(u64, Class, usize), String> = HashMap::new();
    let at = || window_start.elapsed().as_secs_f64();
    let mut req_id = client << 32;
    while Instant::now() < deadline {
        let class = deck.draw(&mut rng);
        let pool = &ops[class.index()];
        let idx = rng.below(pool.len());
        let op = &pool[idx];
        req_id += 1;
        tracer.enter("request", req_id);
        let request = op.request.clone();
        let before: Option<PinnedExplorer> = matches!(check, Check::PerEpoch).then(|| ex.pin());
        tracer.enter("engine.query", req_id);
        let t0 = Instant::now();
        let answer = ex.query(request);
        let dt = t0.elapsed();
        tracer.exit();
        out.attempted += 1;
        out.done.push(at(), 1.0);
        match answer {
            Ok(resp) => {
                let res = &mut out.classes[class.index()];
                res.latency_ms.push(at(), dt.as_secs_f64() * 1e3);
                res.stats.absorb(&resp.stats);
                if op.qlen > 0 {
                    let r = radius(op.qlen);
                    res.dtw_cells += resp.stats.dtw_evals as f64 * band_cells(op.qlen, r) as f64;
                    out.similarity += 1;
                    out.long_radius += u64::from(r >= 13);
                }
                out.degraded += u64::from(resp.stats.degraded);
                tracer.enter("check", req_id);
                let got = fingerprint(&resp.result);
                let ok = match check {
                    Check::Reference => Some(got == op.reference),
                    Check::PerEpoch => {
                        let key = (resp.stats.epoch, class, idx);
                        if let Some(want) = cache.get(&key) {
                            Some(&got == want)
                        } else {
                            let v0 = Instant::now();
                            let pinned = before
                                .into_iter()
                                .chain(std::iter::once(ex.pin()))
                                .find(|p| p.epoch() == resp.stats.epoch);
                            let want = pinned.and_then(|p| {
                                p.query(with_options(&op.request, reference_options()))
                                    .ok()
                                    .map(|r| fingerprint(&r.result))
                            });
                            out.verify_s.push(at(), v0.elapsed().as_secs_f64());
                            want.map(|w| {
                                let same = got == w;
                                cache.insert(key, w);
                                same
                            })
                        }
                    }
                };
                tracer.exit();
                match ok {
                    Some(true) => {}
                    Some(false) => {
                        out.wrong += 1;
                        if out.errors.len() < 5 {
                            out.errors
                                .push(format!("{} answer differs from reference", class.name()));
                        }
                    }
                    None => out.unverified += 1,
                }
            }
            Err(OnexError::Overloaded { .. }) => out.shed += 1,
            Err(e) => {
                out.failed += 1;
                if out.errors.len() < 5 {
                    out.errors.push(format!("{}: {e}", class.name()));
                }
            }
        }
        tracer.exit();
    }
    out.elapsed_s = at();
    out.spans = tracer.into_spans();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_deck_deals_the_mix_exactly() {
        let mix = [
            (Class::BestMatch, 0.56),
            (Class::TopK, 0.4),
            (Class::Range, 0.04),
        ];
        let mut deck = Deck::new(&mix);
        let mut rng = Rng::new(9);
        for _ in 0..3 {
            let dealt: Vec<Class> = (0..DECK).map(|_| deck.draw(&mut rng)).collect();
            let count = |c| dealt.iter().filter(|&&d| d == c).count();
            assert_eq!(
                (
                    count(Class::BestMatch),
                    count(Class::TopK),
                    count(Class::Range)
                ),
                (112, 80, 8)
            );
        }
    }
}
