//! The write path: a fixed maintenance schedule against the live
//! explorer, snapshot checkpoints, and the cold loads that recover it.
//!
//! One cycle appends three held-out series, removes them again, refines
//! the threshold to a looser value and back, and ends with a checkpoint,
//! so the base has the same series count and threshold after every cycle.
//! The tail after the last checkpoint is always the same four journaled
//! ops, so every cold load replays the same WAL.

use crate::stats::Samples;
use crate::trace::{Span, Tracer};
use crate::workload::{config, fingerprint, with_options, Op};
use onex_core::{Explorer, QueryOptions};
use onex_ts::TimeSeries;
use std::ops::RangeInclusive;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The threshold refinement alternates to and back from.
pub const ST_LOOSE: f64 = 0.25;

/// WAL records the fixed tail leaves after the last checkpoint.
pub const TAIL_OPS: u64 = 4;

#[derive(Debug, Default)]
pub struct WriteLog {
    pub append_ms: Samples,
    pub remove_ms: Samples,
    /// Mean `refine_to` time of each loosen-and-back round trip.
    pub refine_ms: Samples,
    pub save_s: Samples,
    pub load_s: Samples,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Epoch the last checkpoint recorded.
    pub checkpoint_epoch: u64,
    /// Size of the first checkpoint.
    pub snapshot_bytes: u64,
    pub wal_bytes: u64,
}

pub struct Writer<'a> {
    ex: &'a Explorer,
    path: PathBuf,
    held: &'a [TimeSeries],
    next: usize,
    log: WriteLog,
    tracer: Tracer,
    req: u64,
}

impl<'a> Writer<'a> {
    /// Attaches the WAL at the snapshot's sidecar; every maintenance op is
    /// journaled (and fsynced) before its hot swap from here on.
    pub fn new(
        ex: &'a Explorer,
        path: PathBuf,
        held: &'a [TimeSeries],
        tracer: Tracer,
    ) -> Result<Self, String> {
        ex.attach_wal(onex_core::wal::sidecar_path(&path))
            .map_err(|e| format!("attach_wal: {e}"))?;
        Ok(Writer {
            ex,
            path,
            held,
            next: 0,
            log: WriteLog::default(),
            tracer,
            req: 1 << 62,
        })
    }

    /// What the writer did, and the spans it recorded.
    pub fn finish(self) -> (WriteLog, Vec<Span>) {
        (self.log, self.tracer.into_spans())
    }

    /// Runs one op in a span, counting it and logging its error; returns
    /// its result and seconds when it succeeded.
    fn timed<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&Explorer) -> onex_core::Result<T>,
    ) -> Option<(T, f64)> {
        self.req += 1;
        self.log.attempted += 1;
        self.tracer.enter(name, self.req);
        let t0 = Instant::now();
        let r = f(self.ex);
        let secs = t0.elapsed().as_secs_f64();
        self.tracer.exit();
        match r {
            Ok(v) => Some((v, secs)),
            Err(e) => {
                self.log.failed += 1;
                self.log.errors.push(format!("{name}: {e}"));
                None
            }
        }
    }

    fn append(&mut self) {
        let series = self.held[self.next % self.held.len()].clone();
        self.next += 1;
        if let Some((_, s)) = self.timed("maintain.append", |ex| ex.append_series(series)) {
            self.log.append_ms.push(s * 1e3);
        }
    }

    fn remove_last(&mut self) {
        let last = self.ex.base().dataset().len() - 1;
        if let Some((_, s)) = self.timed("maintain.remove", |ex| ex.remove_series(last)) {
            self.log.remove_ms.push(s * 1e3);
        }
    }

    fn refine(&mut self, st: f64) -> Option<f64> {
        self.timed("refine.refine_to", |ex| ex.refine_to(st))
            .map(|(_, s)| s)
    }

    pub fn checkpoint(&mut self) {
        let path = self.path.clone();
        let epoch = self.ex.epoch();
        if let Some((_, s)) = self.timed("snapshot.save", |ex| ex.save(&path)) {
            self.log.save_s.push(s);
            self.log.checkpoint_epoch = epoch;
            if self.log.snapshot_bytes == 0 {
                self.log.snapshot_bytes = file_len(&path);
            }
        }
    }

    pub fn cycle(&mut self) {
        self.append();
        self.append();
        self.remove_last();
        let loosen = self.refine(ST_LOOSE);
        self.append();
        self.remove_last();
        let tighten = self.refine(config().st);
        self.remove_last();
        if let (Some(a), Some(b)) = (loosen, tighten) {
            self.log.refine_ms.push((a + b) / 2.0 * 1e3);
        }
        self.checkpoint();
    }

    /// The fixed un-checkpointed tail: [`TAIL_OPS`] journaled ops.
    pub fn tail(&mut self) {
        self.append();
        self.append();
        self.remove_last();
        let _ = self.refine(ST_LOOSE);
        self.log.wal_bytes = file_len(&onex_core::wal::sidecar_path(&self.path));
    }
}

pub fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// Outcome of the checks made on a cold-loaded explorer.
#[derive(Debug, Default)]
pub struct Recovery {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub loaded_epoch: u64,
}

/// Loads the snapshot from cold as often as `(counts, budget_s)` asks (see
/// [`Samples::wants_more`]), timing each, and checks the first recovered
/// explorer against the live one: same epoch, invariants hold, and the
/// same answer to every pooled request.
pub fn cold_loads(
    writer: &mut Writer<'_>,
    (counts, budget_s): (&RangeInclusive<usize>, f64),
    ops: &[Vec<Op>],
) -> Recovery {
    let mut rec = Recovery::default();
    let mut first: Option<Explorer> = None;
    let path = writer.path.clone();
    let mut attempts = 0;
    while attempts < *counts.end() && writer.log.load_s.wants_more(counts, budget_s) {
        attempts += 1;
        if let Some((ex, s)) = writer.timed("snapshot.load", |_| Explorer::load(&path)) {
            writer.log.load_s.push(s);
            first.get_or_insert(ex);
        }
    }
    let Some(recovered) = first else {
        return rec;
    };
    let live = writer.ex;
    rec.loaded_epoch = recovered.epoch();
    let mut check = |ok: bool, what: String| {
        rec.attempted += 1;
        if !ok {
            rec.failed += 1;
            rec.errors.push(what);
        }
    };
    check(
        recovered.epoch() == live.epoch(),
        format!(
            "recovered epoch {} != live {}",
            recovered.epoch(),
            live.epoch()
        ),
    );
    let valid = recovered.base().validate_invariants();
    check(valid.is_ok(), format!("recovered base invalid: {valid:?}"));
    // The two explorers answer side by side, one query thread each: the
    // engine answers identically at any thread count.
    let answers = |ex: &Explorer| -> Vec<Option<String>> {
        let one_thread = QueryOptions {
            query_threads: Some(1),
            ..QueryOptions::default()
        };
        ops.iter()
            .flatten()
            .map(|op| {
                ex.query(with_options(&op.request, one_thread))
                    .ok()
                    .map(|r| fingerprint(&r.result))
            })
            .collect()
    };
    let (a, b) = std::thread::scope(|scope| {
        let a = scope.spawn(|| answers(live));
        let b = answers(&recovered);
        (a.join().expect("live answers panicked"), b)
    });
    for ((op, a), b) in ops.iter().flatten().zip(a).zip(b) {
        check(
            a.is_some() && a == b,
            format!("{} answer differs after recovery", op.class.name()),
        );
    }
    rec
}
