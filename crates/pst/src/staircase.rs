//! The staircase of a skeletal page's `U` buffer, kept in the page's tail
//! so that a query reads `U` only where it can change the answer.
//!
//! A 2-sided corner `{x ≥ x0, y ≥ y0}` holds a point of a set if and only if
//! it holds one of the set's maximal points — those no other point lies at
//! or above and at or to the right of — since a point dominating one in the
//! corner is in it too. That holds for a buffer's inserts and deletes
//! alike: an op outside the corner neither adds to its answer nor masks
//! one. So a region page keeps its `U`'s maximal points, its *steps*, as one
//! block of the block codec (`x` descending, `y` ascending) at the start of
//! a tail of [`tail_len`] bytes flush with the page's end, and sets
//! [`STAIRS`] in its header; a query whose corner holds no step leaves `U`
//! unread. A staircase that does not fit is coarsened ([`staircase`]): a
//! step then stands for an outer corner that still dominates every op, so
//! a coarse step costs at most a read of `U`, never an answer. Steps only
//! accumulate between flushes (each push adds the ops `U` took to the steps
//! on the page), and a flush, which empties `U`, empties them. The dynamic
//! PST keeps a staircase on its root page only (the `dynamic` module
//! header says why).

use pc_pagestore::layout::{encode_block, key_of, signed_of, Block, Columns, Fill, MAX_COLUMNS};
use pc_pagestore::{Result, NULL_PAGE};

use crate::mem::TwoSided;
use crate::two_level::{skeletal_capacity, UpdateRec, PAGE_HEADER, RECORD_LEN};

/// The header flag of a region page whose tail holds its `U`'s staircase.
/// A page without it (a page too small for one, or one written before
/// staircases) has its `U` read by every query that visits it.
pub(crate) const STAIRS: u16 = 1;

/// One step: a point no op of the buffer lies above and to the right of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Step {
    pub(crate) x: i64,
    pub(crate) y: i64,
}

impl Step {
    /// The step at an op's point.
    pub(crate) fn of(op: &UpdateRec) -> Step {
        Step { x: op.p.x, y: op.p.y }
    }
}

impl Columns for Step {
    const COLUMNS: usize = 2;

    #[inline]
    fn column(&self, c: usize) -> u64 {
        key_of(if c == 0 { self.x } else { self.y })
    }

    #[inline]
    fn from_columns(c: &[u64; MAX_COLUMNS]) -> Self {
        Step { x: signed_of(c[0]), y: signed_of(c[1]) }
    }
}

/// Bytes of a region page's staircase tail: what a page of
/// [`skeletal_capacity`] records leaves past them (47 at 4 KiB, 195 at
/// 1 KiB), or 0 where that cannot hold a block of one step (5 at 512 B).
pub(crate) fn tail_len(page_size: usize) -> usize {
    let left = page_size - PAGE_HEADER - RECORD_LEN * skeletal_capacity(page_size);
    if Fill::new(Step::COLUMNS).fits(left) {
        left
    } else {
        0
    }
}

/// The staircase tail of a region page.
pub(crate) fn tail(page: &[u8]) -> &[u8] {
    &page[page.len() - tail_len(page.len())..]
}

/// Bytes of the block of `steps`.
fn block_bytes(steps: &[Step]) -> usize {
    let mut fill = Fill::new(Step::COLUMNS);
    steps.iter().for_each(|step| fill.add(step));
    fill.bytes()
}

/// The staircase of `points`: their maximal points, `x` descending and `y`
/// ascending, coarsened until their block fits `budget` bytes. Coarsening
/// merges the adjacent pair of steps whose outer corner — the left one's
/// `x`, the right one's `y` — adds the least area (the first such pair on
/// a tie), so every point stays dominated by a step.
pub(crate) fn staircase(points: impl IntoIterator<Item = Step>, budget: usize) -> Vec<Step> {
    let mut points: Vec<Step> = points.into_iter().collect();
    points.sort_unstable_by(|a, b| b.x.cmp(&a.x).then(b.y.cmp(&a.y)));
    let mut steps: Vec<Step> = Vec::new();
    for p in points {
        if steps.last().is_none_or(|top| p.y > top.y) {
            steps.push(p);
        }
    }
    let gap = |hi: i64, lo: i64| (i128::from(hi) - i128::from(lo)) as u128;
    while steps.len() > 1 && block_bytes(&steps) > budget {
        let area = |i: usize| {
            let (left, right) = (steps[i], steps[i + 1]);
            gap(left.x, right.x) * gap(right.y, left.y)
        };
        let i = (0..steps.len() - 1).min_by_key(|&i| area(i)).expect("two steps");
        steps[i].y = steps[i + 1].y;
        steps.remove(i + 1);
    }
    steps
}

/// The steps a tail holds.
pub(crate) fn decode(tail: &[u8]) -> Result<Vec<Step>> {
    Ok(Block::parse::<Step>(tail)?.to_vec())
}

/// The tail of `page_size`-byte region pages holding `steps`, which must
/// fit it.
pub(crate) fn encode(steps: &[Step], page_size: usize) -> Vec<u8> {
    let mut bytes = encode_block(steps, NULL_PAGE);
    let len = tail_len(page_size);
    assert!(bytes.len() <= len, "a staircase of {} bytes in a {len}-byte tail", bytes.len());
    bytes.resize(len, 0);
    bytes
}

/// True if a step of the staircase in `tail` lies in `q`'s corner: if an
/// op of the buffer it stands for can.
pub(crate) fn meets(tail: &[u8], q: TwoSided) -> Result<bool> {
    Ok(!Block::parse::<Step>(tail)?.each(|step: Step| step.x < q.x0 || step.y < q.y0))
}
