//! Streaming row updates: the serving layer's bridge to the
//! incremental machinery in `spgemm::delta`.
//!
//! [`ServeEngine::try_submit_row_update`] edits a registered matrix a
//! few rows at a time instead of re-registering it wholesale. The
//! store still gets a brand-new immutable version (snapshot semantics
//! for in-flight jobs are untouched), but the engine additionally
//! remembers *what changed*: per name, a bounded history of the last
//! [`HISTORY`] edit steps, each with its pre-edit version, post-edit
//! version and the [`DirtyRows`] the patch produced.
//!
//! Expression evaluation consumes that history for **patch-in-place**
//! of the cross-tenant subexpression cache: a `Multiply`-of-inputs
//! node whose fingerprint misses because an operand was row-updated
//! looks for the *newest* ancestor version whose product is still
//! cached, unions the dirty sets of the steps since then, recomputes
//! only the invalidated output rows (`dirty(A) ∪ {i : A[i] ∩ dirty(B)
//! ≠ ∅}`) with [`spgemm::delta::recompute_product_rows`], and re-caches
//! the result under the new fingerprint — byte-for-byte what a full
//! evaluation would have produced. A steady write/read stream thus
//! always patches from the previous read's product, however long it
//! runs. Full re-registration (or any version the history no longer
//! covers) simply misses and recomputes: divergence invalidates, it
//! never corrupts.
//!
//! [`ServeEngine::try_submit_row_update`]: crate::ServeEngine::try_submit_row_update

use parking_lot::Mutex;
use spgemm::delta::DirtyRows;
use std::collections::{HashMap, VecDeque};

/// What [`crate::ServeEngine::try_submit_row_update`] returns: the
/// version transition the patch caused and how many rows it touched.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RowUpdateReceipt {
    /// Store version the patch was applied against.
    pub old_version: u64,
    /// Store version now registered under the name.
    pub new_version: u64,
    /// Rows of the matrix the patch structurally or numerically
    /// edited (the [`DirtyRows`] count).
    pub rows_dirtied: usize,
}

/// How many edit steps per name the tracker keeps: how far back a
/// patch may look for a cached ancestor product.
pub(crate) const HISTORY: usize = 8;

/// One row update: `from_version → to_version` of a name, and the rows
/// it dirtied.
#[derive(Clone, Debug)]
pub(crate) struct DeltaStep {
    pub(crate) from_version: u64,
    pub(crate) to_version: u64,
    pub(crate) dirty: DirtyRows,
}

/// Per-name edit histories, plus the lock that serializes
/// read-modify-write row updates against the store.
#[derive(Default)]
pub(crate) struct DeltaTracker {
    /// Per name, the last [`HISTORY`] chained steps, oldest first.
    map: Mutex<HashMap<String, VecDeque<DeltaStep>>>,
    /// Held across a whole get → patch → re-insert row update so two
    /// concurrent updates to one store can't both apply against the
    /// same base version and silently drop one patch.
    update_lock: Mutex<()>,
}

impl DeltaTracker {
    /// Serialize a read-modify-write row update (see `update_lock`).
    pub(crate) fn update_guard(&self) -> parking_lot::MutexGuard<'_, ()> {
        self.update_lock.lock()
    }

    /// Record an update `old_version → new_version` of `name` with the
    /// given dirty set. It extends the name's history when it chains
    /// (the newest step ends at exactly `old_version` and the shape is
    /// unchanged); otherwise — the name was re-registered wholesale in
    /// between — the history restarts at this single step.
    pub(crate) fn record(&self, name: &str, old_version: u64, new_version: u64, dirty: &DirtyRows) {
        let mut map = self.map.lock();
        let hist = map.entry(name.to_string()).or_default();
        let chains = hist
            .back()
            .is_some_and(|s| s.to_version == old_version && s.dirty.nrows() == dirty.nrows());
        if !chains {
            hist.clear();
        }
        if hist.len() == HISTORY {
            hist.pop_front();
        }
        hist.push_back(DeltaStep {
            from_version: old_version,
            to_version: new_version,
            dirty: dirty.clone(),
        });
    }

    /// The chained steps ending at exactly `version` of `name`, newest
    /// first: step `d` leads from ancestor `from_version` toward
    /// `version`, so the rows changed since ancestor `d` are the union
    /// of steps `0..=d`. Empty when no patch-in-place is possible for
    /// results derived from older versions of this name.
    pub(crate) fn history(&self, name: &str, version: u64) -> Vec<DeltaStep> {
        let map = self.map.lock();
        match map.get(name) {
            Some(hist) if hist.back().is_some_and(|s| s.to_version == version) => {
                hist.iter().rev().cloned().collect()
            }
            _ => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn froms(h: &[DeltaStep]) -> Vec<u64> {
        h.iter().map(|s| s.from_version).collect()
    }

    #[test]
    fn chained_updates_compose_their_windows() {
        let t = DeltaTracker::default();
        t.record("m", 0, 1, &DirtyRows::from_rows(8, [2]));
        t.record("m", 1, 2, &DirtyRows::from_rows(8, [5]));
        let h = t.history("m", 2);
        assert_eq!(froms(&h), vec![1, 0], "newest ancestor first");
        let mut since_v0 = h[0].dirty.clone();
        since_v0.union_with(&h[1].dirty);
        assert_eq!(since_v0.iter().collect::<Vec<_>>(), vec![2, 5]);
        assert!(t.history("m", 1).is_empty(), "stale version misses");
    }

    #[test]
    fn non_chaining_update_resets_the_window() {
        let t = DeltaTracker::default();
        t.record("m", 0, 1, &DirtyRows::from_rows(8, [2]));
        // A wholesale re-registration happened: versions skip.
        t.record("m", 5, 6, &DirtyRows::from_rows(8, [7]));
        let h = t.history("m", 6);
        assert_eq!(froms(&h), vec![5]);
        assert_eq!(h[0].dirty.iter().collect::<Vec<_>>(), vec![7]);
    }

    #[test]
    fn shape_change_resets_instead_of_unioning() {
        let t = DeltaTracker::default();
        t.record("m", 0, 1, &DirtyRows::from_rows(8, [2]));
        t.record("m", 1, 2, &DirtyRows::from_rows(16, [9]));
        let h = t.history("m", 2);
        assert_eq!(froms(&h), vec![1]);
        assert_eq!(h[0].dirty.nrows(), 16);
    }

    #[test]
    fn history_is_bounded() {
        let t = DeltaTracker::default();
        for v in 0..3 * HISTORY as u64 {
            t.record("m", v, v + 1, &DirtyRows::from_rows(8, [(v % 8) as usize]));
        }
        let h = t.history("m", 3 * HISTORY as u64);
        assert_eq!(h.len(), HISTORY);
        assert_eq!(h[0].from_version, 3 * HISTORY as u64 - 1);
    }
}
