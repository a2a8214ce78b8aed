//! The driver: runs a case against a subject and the model side by side,
//! checking every answer as a multiset of whole records — duplicates
//! included — and `len()` after every update; and the cell runner that
//! seeds the cases and names a failure by `(seed, op ordinal)`.

use std::fmt::Debug;

use pc_pagestore::{Frame, Point};
use pc_rng::check::{check, no_shrink, Config};
use pc_rng::{mix64, Rng};

use crate::gen::{self, Case, Op, Query, Spec};
use crate::model::{canonical, Model};

/// One structure reached through one access path.
pub trait Subject {
    /// Applies an insert, a delete or a reopen.
    fn update(&mut self, op: &Op) -> Result<(), String>;
    /// Answers a query, in any order.
    fn answer(&mut self, q: &Query) -> Result<Vec<Point>, String>;
    /// The live count, where the path reports one.
    fn len(&mut self) -> Option<u64> {
        None
    }
    /// The frame the records are stored at, where the structure has one.
    fn frame(&mut self) -> Option<Frame> {
        None
    }
}

/// Runs `case` against `subject`; the error names the op ordinal.
pub fn drive(subject: &mut dyn Subject, case: &Case) -> Result<(), String> {
    let mut model = Model::new(&case.build);
    check_len(subject, &model).map_err(|e| format!("after the build: {e}"))?;
    for (ordinal, op) in case.ops.iter().enumerate() {
        let step = match op {
            Op::Query(q) => subject.answer(q).and_then(|got| same(got, model.answer(q))),
            _ => subject.update(op).and_then(|()| {
                model.update(op);
                check_len(subject, &model)
            }),
        };
        step.map_err(|e| format!("op {ordinal} ({op:?}): {e}"))?;
    }
    Ok(())
}

fn check_len(subject: &mut dyn Subject, model: &Model) -> Result<(), String> {
    match subject.len() {
        Some(len) if len != model.len() => Err(format!("len() {len}, want {}", model.len())),
        _ => Ok(()),
    }
}

/// `Ok` when `got` is `want` as a multiset of records; else what differs.
pub fn same(got: Vec<Point>, want: Vec<Point>) -> Result<(), String> {
    let got = canonical(got);
    if got == want {
        return Ok(());
    }
    let (mut missing, mut extra) = (Vec::new(), Vec::new());
    let (mut g, mut w) = (got.iter().peekable(), want.iter().peekable());
    loop {
        let key = |p: &Point| (p.x, p.y, p.id);
        match (g.peek(), w.peek()) {
            (None, None) => break,
            (Some(a), Some(b)) if key(a) == key(b) => {
                g.next();
                w.next();
            }
            (Some(a), Some(b)) if key(a) < key(b) => extra.extend(g.next()),
            (Some(_), None) => extra.extend(g.next()),
            _ => missing.extend(w.next()),
        }
    }
    let head = |v: &[&Point]| v.iter().take(4).map(|p| format!("{p:?}")).collect::<Vec<_>>();
    Err(format!(
        "{} records, want {}: {} missing {:?}, {} extra {:?}",
        got.len(),
        want.len(),
        missing.len(),
        head(&missing),
        extra.len(),
        head(&extra)
    ))
}

/// The base seed every cell's cases derive from: `PC_CHAOS_SEED` when set
/// (`scripts/verify.sh --chaos` sets a fresh one), a fixed one otherwise.
pub fn base_seed() -> u64 {
    std::env::var("PC_CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0x0A4C_1E5E)
}

/// Runs `cases` inputs `generate` draws through `run`, each from a seed of
/// its own. A failure panics with that seed — pinned with
/// `Config::with_regressions` here, it reruns first — and `run`'s error,
/// which names the op.
pub fn cell<T: Clone + Debug>(
    name: &str,
    cases: u64,
    generate: impl FnMut(&mut Rng) -> T,
    mut run: impl FnMut(&T) -> Result<(), String>,
) {
    let salt = name.bytes().fold(0u64, |h, b| mix64(h ^ u64::from(b)));
    let config = Config { seed: mix64(base_seed() ^ salt), ..Config::with_cases(cases) };
    check(&config, generate, no_shrink, |input| run(input).map_err(|e| format!("{name}: {e}")));
}

/// [`cell`] over the cases of one spec.
pub fn cases(name: &str, cases: u64, spec: Spec, run: impl FnMut(&Case) -> Result<(), String>) {
    cell(name, cases, |rng| gen::case(rng, &spec), run);
}
