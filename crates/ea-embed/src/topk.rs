//! Shared bounded top-k selection with deterministic, order-preserving merge.
//!
//! Every candidate engine in this crate — the blocked exact scan
//! ([`crate::candidates`]), the IVF pre-filter ([`crate::ann`]) and the SQ8
//! re-ranker ([`crate::quantized`]) — selects candidates with the same
//! primitive: a bounded binary heap keeping the best `cap` entries under the
//! canonical `(score desc, index asc)` total order ([`Ranked::rank_cmp`],
//! built on the NaN-safe [`crate::order`] comparators). This module is that
//! primitive, extracted so all engines share one implementation and so that
//! partial results become *mergeable*:
//!
//! * [`TopK`] — push scored candidates one by one, keep the best `cap`.
//! * [`TopK::merge`] — fold an already-selected best-first partial list into
//!   the selection, with an early exit once the list can no longer contribute.
//! * [`merge_ranked`] — merge several best-first partial lists into one
//!   best-first list of at most `cap` entries.
//!
//! **Merge contract.** Because `rank_cmp` is a *strict total order* over
//! candidates with distinct indices, the kept set of a [`TopK`] is a pure
//! function of the multiset of pushed candidates — push order never matters.
//! Merging per-segment (or per-block) partial top-k lists through a fresh
//! [`TopK`] therefore selects exactly what one global [`TopK`] over the
//! concatenated inputs would have selected, bit for bit, ids and score bits
//! alike. This is the property the LSM gather-merge ([`crate::lsm`]) is
//! built on: segments compute partials independently, and the gather step
//! merges them deterministically.

use crate::order;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One scored candidate: a corpus index plus its similarity score.
#[derive(Debug, Clone, Copy)]
pub struct Ranked {
    /// The candidate's similarity score (a clamped exact f32 dot product in
    /// every engine of this crate).
    pub score: f32,
    /// The candidate's row/column index in whatever table the engine scanned.
    /// The LSM engine remaps this from segment-local to canonical live
    /// positions before merging.
    pub index: u32,
}

impl Ranked {
    /// Canonical candidate order: descending score ([`order::desc_f32`], so
    /// NaN scores rank strictly last), ties broken by ascending index.
    /// `Less` means `self` ranks earlier (is the better candidate). This is
    /// the strict total order the dense ranking sorts with, so selections
    /// made under it match the dense reference exactly, including tie-breaks
    /// — and, being a total order, the selected set is independent of the
    /// order candidates are pushed in (the property the IVF pre-filter's
    /// list-order scans and the LSM merge rely on).
    pub fn rank_cmp(&self, other: &Ranked) -> Ordering {
        order::desc_f32(self.score, other.score).then(self.index.cmp(&other.index))
    }
}

/// Max-heap wrapper whose greatest element is the *worst*-ranked candidate,
/// so `peek`/`pop` expose the eviction victim of bounded top-k selection.
struct Worst(Ranked);

impl PartialEq for Worst {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Worst {}
impl PartialOrd for Worst {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Worst {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.rank_cmp(&other.0)
    }
}

/// Bounded top-k selector backed by a binary heap of the kept candidates,
/// worst on top. Because [`Ranked::rank_cmp`] is a strict total order, the
/// kept set (and its sorted drain) is a pure function of the pushed
/// candidates — push order never matters.
pub struct TopK {
    cap: usize,
    heap: BinaryHeap<Worst>,
}

impl TopK {
    /// A selector keeping at most `cap` candidates (`cap == 0` keeps none).
    pub fn new(cap: usize) -> Self {
        Self {
            cap,
            heap: BinaryHeap::with_capacity(cap.saturating_add(1)),
        }
    }

    /// Number of candidates currently kept.
    pub fn kept(&self) -> usize {
        self.heap.len()
    }

    /// Offers one candidate; it is kept iff it ranks among the best `cap`
    /// seen so far.
    // Called once per scored candidate by every blocked scan. A plain
    // `#[inline]` leaves the call to the optimiser's heuristics, which
    // shift with unrelated code in the crate; out of line it cost
    // `ExEa::new`'s candidate build 8–20%.
    #[inline(always)]
    pub fn push(&mut self, score: f32, index: u32) {
        if self.cap == 0 {
            return;
        }
        let entry = Ranked { score, index };
        if self.heap.len() < self.cap {
            self.heap.push(Worst(entry));
        } else if let Some(worst) = self.heap.peek() {
            if entry.rank_cmp(&worst.0) == Ordering::Less {
                self.heap.pop();
                self.heap.push(Worst(entry));
            }
        }
    }

    /// Folds a **best-first sorted** partial list into the selection.
    ///
    /// Equivalent to pushing every entry of `list`, and therefore — by the
    /// total-order merge contract — order-preserving: the resulting kept set
    /// is exactly what one selector fed all underlying candidates would
    /// keep. Sortedness buys an early exit: once the selection is full and
    /// an entry does not beat the current worst, no later entry of the same
    /// list can, so the remainder is skipped without being compared.
    pub fn merge(&mut self, list: &[Ranked]) {
        debug_assert!(
            list.windows(2)
                .all(|w| w[0].rank_cmp(&w[1]) != Ordering::Greater),
            "merge input must be best-first sorted"
        );
        for entry in list {
            if self.heap.len() == self.cap {
                match self.heap.peek() {
                    Some(worst) if entry.rank_cmp(&worst.0) != Ordering::Less => return,
                    _ => {}
                }
            }
            self.push(entry.score, entry.index);
        }
    }

    /// Drains the heap into a best-first list.
    pub fn into_sorted(self) -> Vec<Ranked> {
        let mut entries: Vec<Ranked> = self.heap.into_iter().map(|w| w.0).collect();
        entries.sort_unstable_by(|a, b| a.rank_cmp(b));
        entries
    }
}

/// Merges several best-first partial top-k lists into one best-first list of
/// at most `cap` entries — bit-identical (ids and score bits) to selecting
/// the top `cap` of the concatenated inputs with a single [`TopK`].
pub fn merge_ranked(lists: &[&[Ranked]], cap: usize) -> Vec<Ranked> {
    let mut select = TopK::new(cap);
    for list in lists {
        select.merge(list);
    }
    select.into_sorted()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries(pairs: &[(f32, u32)]) -> Vec<Ranked> {
        pairs
            .iter()
            .map(|&(score, index)| Ranked { score, index })
            .collect()
    }

    fn global_topk(all: &[Ranked], cap: usize) -> Vec<Ranked> {
        let mut select = TopK::new(cap);
        for e in all {
            select.push(e.score, e.index);
        }
        select.into_sorted()
    }

    #[test]
    fn merge_matches_global_selection_bit_for_bit() {
        let a = entries(&[(0.9, 3), (0.5, 1), (0.5, 7), (-0.2, 0)]);
        let b = entries(&[(1.0, 9), (0.5, 2), (0.1, 4)]);
        let c = entries(&[(0.5, 5)]);
        let mut all = Vec::new();
        all.extend_from_slice(&a);
        all.extend_from_slice(&b);
        all.extend_from_slice(&c);
        for cap in 0..=all.len() + 1 {
            let merged = merge_ranked(&[&a, &b, &c], cap);
            let global = global_topk(&all, cap);
            assert_eq!(merged.len(), global.len(), "cap {cap}");
            for (m, g) in merged.iter().zip(&global) {
                assert_eq!(m.index, g.index, "cap {cap}");
                assert_eq!(m.score.to_bits(), g.score.to_bits(), "cap {cap}");
            }
        }
    }

    #[test]
    fn merge_is_order_independent() {
        let a = entries(&[(0.7, 2), (0.3, 8)]);
        let b = entries(&[(0.7, 1), (0.7, 4), (0.2, 6)]);
        let fwd = merge_ranked(&[&a, &b], 3);
        let rev = merge_ranked(&[&b, &a], 3);
        let pairs = |v: &[Ranked]| {
            v.iter()
                .map(|e| (e.index, e.score.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(pairs(&fwd), pairs(&rev));
    }

    #[test]
    fn merge_early_exit_keeps_ties_deterministic() {
        // Every score identical: selection must be by ascending index, no
        // matter how entries are split across lists.
        let a = entries(&[(0.5, 0), (0.5, 2), (0.5, 4)]);
        let b = entries(&[(0.5, 1), (0.5, 3), (0.5, 5)]);
        let merged = merge_ranked(&[&a, &b], 4);
        let idx: Vec<u32> = merged.iter().map(|e| e.index).collect();
        assert_eq!(idx, vec![0, 1, 2, 3]);
    }

    #[test]
    fn zero_cap_and_empty_lists_are_safe() {
        assert!(merge_ranked(&[], 5).is_empty());
        assert!(merge_ranked(&[&[]], 5).is_empty());
        let a = entries(&[(0.5, 0)]);
        assert!(merge_ranked(&[&a], 0).is_empty());
    }

    #[test]
    fn nan_scores_rank_strictly_last() {
        let a = entries(&[(0.1, 2), (f32::NAN, 0)]);
        let b = entries(&[(-0.9, 1)]);
        let merged = merge_ranked(&[&a, &b], 3);
        let idx: Vec<u32> = merged.iter().map(|e| e.index).collect();
        assert_eq!(idx, vec![2, 1, 0]);
    }
}
