//! One-phase heap SpGEMM (§4.2.3, after Azad et al.).
//!
//! For each output row, a binary min-heap indexed by column holds one
//! cursor per nonzero of `a_i*` into the corresponding (sorted) row of
//! `B`. Repeatedly extracting the minimum column merges the scaled
//! `B`-rows in ascending column order, accumulating equal columns on
//! the fly — `O(flop · log nnz(a_i*))` per Eq (1), but only
//! `O(nnz(a_i*))` accumulator space.
//!
//! Column ties are broken by the cursor's position in `a_i*`, so the
//! products of one output entry are summed in `k`-encounter order —
//! the order of every other `k`-ordered kernel (Hash, SPA, ...), which
//! makes Heap's output bit-identical to theirs. The heap compares one
//! packed `u64` key, `(col << 32) | src`, so the tie-break costs no
//! extra comparison.
//!
//! Contracts (paper Table 1): inputs sorted, output sorted. One-phase:
//! no symbolic pass — every thread stages its rows into a flop-bound
//! private buffer, then the driver copies them into place.

use crate::exec::{
    self, AccumReq, ReusableAccumulator, RowAccumulator, StagedKernelFactory, StagedRowKernel,
};
use spgemm_par::Pool;
use spgemm_sparse::{ColIdx, Csr, Semiring};

/// One cursor in the per-row merge: the current entry `b.cols[pos]` of
/// a `B`-row being merged, scaled by the `A` value that selected it.
#[derive(Clone, Copy)]
struct Cursor<V> {
    /// `(b.cols[pos] << 32) | src`, `src` being the cursor's position
    /// in `a_i*`: ordering by key is ordering by column, then by `k`.
    key: u64,
    pos: usize,
    end: usize,
    aval: V,
}

/// The per-thread heap state, reused across rows.
pub struct HeapKernel<S: Semiring> {
    heap: Vec<Cursor<S::Elem>>,
}

impl<S: Semiring> HeapKernel<S> {
    /// Empty kernel; the heap grows to `nnz(a_i*)` lazily.
    pub fn new() -> Self {
        HeapKernel { heap: Vec::new() }
    }

    /// Sift `item` down from slot `at`: smaller children move up into
    /// the hole and `item` is written once where it lands (half the
    /// memory traffic of swapping at every level).
    #[inline]
    fn sift_down(&mut self, mut at: usize, item: Cursor<S::Elem>) {
        let len = self.heap.len();
        loop {
            let l = 2 * at + 1;
            if l >= len {
                break;
            }
            let r = l + 1;
            let smallest = if r < len && self.heap[r].key < self.heap[l].key {
                r
            } else {
                l
            };
            if self.heap[smallest].key < item.key {
                self.heap[at] = self.heap[smallest];
                at = smallest;
            } else {
                break;
            }
        }
        self.heap[at] = item;
    }

    fn heapify(&mut self) {
        let len = self.heap.len();
        for i in (0..len / 2).rev() {
            let item = self.heap[i];
            self.sift_down(i, item);
        }
    }

    /// Fill the heap with one cursor per non-empty scaled `B`-row
    /// selected by row `i` of `A`.
    fn load_row(&mut self, a: &Csr<S::Elem>, b: &Csr<S::Elem>, i: usize) {
        self.heap.clear();
        for (src, (&k, &aval)) in a.row_cols(i).iter().zip(a.row_vals(i)).enumerate() {
            let r = b.row_range(k as usize);
            if !r.is_empty() {
                self.heap.push(Cursor {
                    key: cursor_key(b.cols()[r.start], src as u64),
                    pos: r.start,
                    end: r.end,
                    aval,
                });
            }
        }
        self.heapify();
    }

    /// Pop the minimum-column cursor's current entry and advance it.
    #[inline]
    fn advance_top(&mut self, b: &Csr<S::Elem>) {
        let mut top = self.heap[0];
        let next = top.pos + 1;
        if next < top.end {
            top.pos = next;
            top.key = cursor_key(b.cols()[next], top.key & SRC_MASK);
            self.sift_down(0, top);
        } else {
            let last = self.heap.pop().expect("advance_top on an empty heap");
            if !self.heap.is_empty() {
                self.sift_down(0, last);
            }
        }
    }
}

impl<S: Semiring> Default for HeapKernel<S> {
    fn default() -> Self {
        Self::new()
    }
}

/// Low half of a cursor key: its position in `a_i*`.
const SRC_MASK: u64 = (1 << 32) - 1;

#[inline]
fn cursor_key(col: ColIdx, src: u64) -> u64 {
    ((col as u64) << 32) | src
}

#[inline]
fn key_col(key: u64) -> ColIdx {
    (key >> 32) as ColIdx
}

impl<S: Semiring> StagedRowKernel<S> for HeapKernel<S> {
    fn stage_row(
        &mut self,
        a: &Csr<S::Elem>,
        b: &Csr<S::Elem>,
        i: usize,
        cols: &mut Vec<ColIdx>,
        vals: &mut Vec<S::Elem>,
    ) -> usize {
        self.load_row(a, b, i);
        let mut emitted = 0usize;
        let mut last_col = ColIdx::MAX;
        while let Some(top) = self.heap.first() {
            let col = key_col(top.key);
            let contrib = S::mul(top.aval, b.vals()[top.pos]);
            if col == last_col {
                // accumulate into the entry emitted for this column
                let v = vals.last_mut().expect("last_col implies an emitted entry");
                *v = S::add(*v, contrib);
            } else {
                cols.push(col);
                vals.push(contrib);
                last_col = col;
                emitted += 1;
            }
            self.advance_top(b);
        }
        emitted
    }
}

impl<S: Semiring> RowAccumulator<S> for HeapKernel<S> {
    fn symbolic_row(&mut self, a: &Csr<S::Elem>, b: &Csr<S::Elem>, i: usize) -> usize {
        self.load_row(a, b, i);
        let mut count = 0usize;
        let mut last_col = ColIdx::MAX;
        while let Some(top) = self.heap.first() {
            let col = key_col(top.key);
            if col != last_col {
                last_col = col;
                count += 1;
            }
            self.advance_top(b);
        }
        count
    }

    /// The heap merge emits ascending columns by construction, so
    /// `sorted` is ignored (the output is always sorted — Table 1).
    fn numeric_row(
        &mut self,
        a: &Csr<S::Elem>,
        b: &Csr<S::Elem>,
        i: usize,
        cols: &mut [ColIdx],
        vals: &mut [S::Elem],
        _sorted: bool,
    ) {
        self.load_row(a, b, i);
        let mut pos = 0usize;
        let mut last_col = ColIdx::MAX;
        while let Some(top) = self.heap.first() {
            let col = key_col(top.key);
            let contrib = S::mul(top.aval, b.vals()[top.pos]);
            if col == last_col {
                vals[pos - 1] = S::add(vals[pos - 1], contrib);
            } else {
                cols[pos] = col;
                vals[pos] = contrib;
                last_col = col;
                pos += 1;
            }
            self.advance_top(b);
        }
        debug_assert_eq!(pos, cols.len(), "row {i}: symbolic/numeric count mismatch");
    }
}

impl<S: Semiring> ReusableAccumulator<S> for HeapKernel<S> {
    fn ensure(&mut self, _req: &AccumReq) {
        // The heap grows to nnz(a_i*) lazily; nothing to pre-size.
    }

    fn scrub(&mut self) {
        self.heap.clear();
    }
}

struct HeapFactory;

impl<S: Semiring> StagedKernelFactory<S> for HeapFactory {
    type Kernel = HeapKernel<S>;
    fn make(&self, _max_row_flop: usize, _inner: usize, _ncols_b: usize) -> Self::Kernel {
        HeapKernel::new()
    }
}

/// Heap SpGEMM. Inputs must have sorted rows (checked by the caller,
/// [`crate::multiply_in`]); output rows are sorted by construction.
pub fn multiply<S: Semiring>(a: &Csr<S::Elem>, b: &Csr<S::Elem>, pool: &Pool) -> Csr<S::Elem> {
    debug_assert!(
        a.is_sorted() && b.is_sorted(),
        "heap requires sorted inputs"
    );
    exec::one_phase_staged::<S, _>(a, b, pool, &HeapFactory, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algos::reference;
    use spgemm_sparse::{approx_eq_f64, PlusTimes};

    type P = PlusTimes<f64>;

    fn check(a: &Csr<f64>, b: &Csr<f64>) {
        let expect = reference::multiply::<P>(a, b);
        for nt in [1usize, 2, 3] {
            let pool = Pool::new(nt);
            let got = multiply::<P>(a, b, &pool);
            assert!(approx_eq_f64(&expect, &got, 1e-12), "nt={nt}");
            assert!(got.is_sorted(), "heap output always sorted");
            assert!(got.validate().is_ok());
        }
    }

    #[test]
    fn small_square() {
        let a = Csr::from_triplets(
            4,
            4,
            &[
                (0, 1, 1.0),
                (0, 2, 2.0),
                (1, 0, 3.0),
                (2, 3, 4.0),
                (3, 0, 5.0),
                (3, 3, 6.0),
            ],
        )
        .unwrap();
        check(&a, &a);
    }

    #[test]
    fn accumulation_across_cursors() {
        // two A-entries hitting the same B column must merge:
        // A row 0 = {0, 1}; B rows 0 and 1 both have column 2.
        let a = Csr::from_triplets(2, 2, &[(0, 0, 2.0), (0, 1, 3.0)]).unwrap();
        let b = Csr::from_triplets(2, 3, &[(0, 2, 10.0), (1, 2, 100.0)]).unwrap();
        let c = multiply::<P>(&a, &b, &Pool::new(1));
        assert_eq!(c.nnz(), 1);
        assert_eq!(c.get(0, 2), Some(&320.0));
    }

    #[test]
    fn ties_accumulate_in_k_order() {
        // Three products meet in (0, 0): 1e16, 1.0 and -1e16, in that
        // k order. Summed in k order, 1e16 + 1 rounds back to 1e16 and
        // the result is 0; any other order gives 1.
        let a = Csr::from_triplets(1, 3, &[(0, 0, 1e16), (0, 1, 1.0), (0, 2, -1e16)]).unwrap();
        let b = Csr::from_triplets(3, 1, &[(0, 0, 1.0), (1, 0, 1.0), (2, 0, 1.0)]).unwrap();
        let expect = reference::multiply::<P>(&a, &b);
        assert_eq!(expect.get(0, 0), Some(&0.0));
        let got = multiply::<P>(&a, &b, &Pool::new(1));
        assert_eq!(got.get(0, 0).map(|v| v.to_bits()), Some(0.0f64.to_bits()));
    }

    #[test]
    fn rectangular_and_empty_rows() {
        let a = Csr::from_triplets(3, 5, &[(0, 0, 1.0), (2, 4, 2.0)]).unwrap();
        let b = Csr::from_triplets(5, 2, &[(0, 1, 3.0), (4, 0, 4.0)]).unwrap();
        check(&a, &b);
        let z = Csr::<f64>::zero(3, 3);
        check(&z, &z);
    }

    #[test]
    fn duplicate_heavy_merge() {
        // dense-ish 8x8 exercise: every row of A hits every B row
        let mut trips = Vec::new();
        for i in 0..8usize {
            for j in 0..8usize {
                if (i + j) % 2 == 0 {
                    trips.push((i, j as u32, (i * 8 + j) as f64 * 0.25));
                }
            }
        }
        let a = Csr::from_triplets(8, 8, &trips).unwrap();
        check(&a, &a);
    }

    #[test]
    fn heap_property_maintained_under_long_rows() {
        // one row of A with many entries → heap of that many cursors
        let n = 64usize;
        let mut trips: Vec<(usize, u32, f64)> = (0..n).map(|k| (0usize, k as u32, 1.0)).collect();
        for k in 0..n {
            trips.push((k, ((k * 7) % n) as u32, 1.0));
            trips.push((k, ((k * 13 + 1) % n) as u32, 2.0));
        }
        let a = Csr::from_triplets(n, n, &trips).unwrap();
        check(&a, &a);
    }
}
