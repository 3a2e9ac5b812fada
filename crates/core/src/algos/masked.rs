//! Masked SpGEMM: `C = (A · B) ∘ M` computed *without materializing*
//! `A · B`.
//!
//! Triangle counting (§5.6) only ever reads the wedge product `L · U`
//! at the positions of the graph's own edges; masked SpGEMM exploits
//! that by rejecting every intermediate product that falls outside the
//! mask row, shrinking both the accumulator working set (≤ nnz(m_i*)
//! instead of flop(c_i*)) and the output. This is the natural
//! "future work" extension of the paper's kernels and matches the
//! masked primitives of the GraphBLAS ecosystem its applications come
//! from.
//!
//! There is one masked kernel, `MaskedSpa`, and one way to run it: a masked
//! [`SpgemmPlan`] (see [`SpgemmPlan::new_masked_in`]), which pools the
//! accumulators like every other plan. [`multiply_masked`] is that
//! plan used once; `ExprPlan` uses it to fuse `(x · y) ∘ mask`.
//!
//! **Output bytes.** Products are summed in `k`-encounter order and
//! each row is emitted in the mask row's column order, so entry
//! `(i, j)` is `(Σ_k A[i,k]·B[k,j]) · M[i,j]`, present iff `j ∈ m_i*`
//! and at least one product reached it — byte for byte what any
//! `k`-ordered kernel's product followed by a Hadamard with `M` gives.

use crate::exec::MultiplyStats;
use crate::{OutputOrder, SpgemmPlan};
use spgemm_par::{scan, unsync::SharedMutSlice, Pool, WorkspacePool};
use spgemm_sparse::{ColIdx, Csr, Semiring, SparseError};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Dense, epoch-stamped accumulator restricted to the mask row.
///
/// `stamp[j]` relative to the current row's `base`: below `base` —
/// stale; `base` — in the mask row, no product yet; `base + 1` — in
/// the mask row with a product; `base + 2` — outside the mask but
/// reached (symbolic pass only, to count the unmasked product). Rows
/// reset by bumping `base`, so a reused accumulator never needs a
/// scrub: whatever an earlier (even panicked) row left is stale.
pub(crate) struct MaskedSpa<S: Semiring> {
    stamp: Vec<u32>,
    base: u32,
    vals: Vec<S::Elem>,
}

impl<S: Semiring> MaskedSpa<S> {
    fn new(ncols_b: usize) -> Self {
        MaskedSpa {
            stamp: vec![0; ncols_b],
            base: 0,
            vals: vec![S::zero(); ncols_b],
        }
    }

    /// Grow to `ncols_b` output columns (never shrinks). Fresh stamps
    /// of 0 read as stale once `base ≥ 3`.
    fn ensure(&mut self, ncols_b: usize) {
        if ncols_b > self.stamp.len() {
            self.stamp.resize(ncols_b, 0);
            self.vals.resize(ncols_b, S::zero());
        }
    }

    fn begin_row(&mut self, mask_cols: &[ColIdx]) {
        if self.base > u32::MAX - 3 {
            // one full clear every ~1.4 billion rows
            self.stamp.fill(0);
            self.base = 0;
        }
        self.base += 3;
        for &c in mask_cols {
            self.stamp[c as usize] = self.base;
        }
    }

    /// `(nnz(c_i*) under the mask, nnz of the unmasked row)`.
    fn symbolic_row(
        &mut self,
        a: &Csr<S::Elem>,
        b: &Csr<S::Elem>,
        i: usize,
        mask_cols: &[ColIdx],
    ) -> (usize, usize) {
        self.begin_row(mask_cols);
        let base = self.base;
        let (mut inside, mut outside) = (0usize, 0usize);
        for &k in a.row_cols(i) {
            for &j in b.row_cols(k as usize) {
                let s = &mut self.stamp[j as usize];
                if *s < base {
                    *s = base + 2;
                    outside += 1;
                } else if *s == base {
                    *s = base + 1;
                    inside += 1;
                }
            }
        }
        (inside, inside + outside)
    }

    /// Accumulate row `i` in `k`-encounter order, then emit it in the
    /// mask row's order, scaling each sum by its mask value.
    #[allow(clippy::too_many_arguments)]
    fn numeric_row(
        &mut self,
        a: &Csr<S::Elem>,
        b: &Csr<S::Elem>,
        i: usize,
        mask_cols: &[ColIdx],
        mask_vals: &[S::Elem],
        cols: &mut [ColIdx],
        vals: &mut [S::Elem],
    ) {
        if mask_cols.is_empty() {
            return;
        }
        self.begin_row(mask_cols);
        let (open, hit) = (self.base, self.base + 1);
        for (&k, &aval) in a.row_cols(i).iter().zip(a.row_vals(i)) {
            let kr = k as usize;
            for (&j, &bval) in b.row_cols(kr).iter().zip(b.row_vals(kr)) {
                let jj = j as usize;
                let s = self.stamp[jj];
                if s == hit {
                    self.vals[jj] = S::add(self.vals[jj], S::mul(aval, bval));
                } else if s == open {
                    self.stamp[jj] = hit;
                    self.vals[jj] = S::mul(aval, bval);
                }
            }
        }
        let mut pos = 0usize;
        for (&c, &mv) in mask_cols.iter().zip(mask_vals) {
            let j = c as usize;
            if self.stamp[j] == hit {
                cols[pos] = c;
                vals[pos] = S::mul(self.vals[j], mv);
                pos += 1;
            }
        }
        debug_assert_eq!(pos, cols.len(), "row {i}: symbolic/numeric count mismatch");
    }
}

/// The masked plan's pooled per-thread accumulators.
pub(crate) type MaskedWorkspaces<S> = WorkspacePool<MaskedSpa<S>>;

/// Run `f` on worker `wid`'s pooled accumulator, sized for `ncols_b`.
fn with_acc<S: Semiring, R>(
    ws: &MaskedWorkspaces<S>,
    wid: usize,
    ncols_b: usize,
    f: impl FnOnce(&mut MaskedSpa<S>) -> R,
) -> R {
    ws.with(
        wid,
        || MaskedSpa::new(ncols_b),
        |acc, reused| {
            if reused {
                acc.ensure(ncols_b);
            }
            f(acc)
        },
    )
}

/// What the masked symbolic pass learns.
pub(crate) struct MaskedSymbolic {
    /// Output row pointers.
    pub(crate) rpts: Vec<usize>,
    /// `nnz(C)`.
    pub(crate) nnz: usize,
    /// `nnz(A · B)`: the product the mask kept from materializing.
    pub(crate) product_nnz: usize,
}

/// Symbolic pass: per-row masked counts over the plan's partition,
/// scanned into row pointers.
pub(crate) fn symbolic_pass<S: Semiring>(
    ws: &MaskedWorkspaces<S>,
    a: &Csr<S::Elem>,
    b: &Csr<S::Elem>,
    mask: &Csr<S::Elem>,
    stats: &MultiplyStats,
    pool: &Pool,
) -> MaskedSymbolic {
    let n = a.nrows();
    let width = b.ncols();
    let mut rpts64 = vec![0u64; n + 1];
    let product_nnz = AtomicUsize::new(0);
    {
        let rp = SharedMutSlice::new(&mut rpts64[..]);
        pool.parallel_ranges(&stats.offsets, |wid, range| {
            if range.is_empty() {
                return;
            }
            let full = with_acc(ws, wid, width, |acc| {
                let mut full = 0usize;
                for i in range {
                    let (cnt, row_full) = acc.symbolic_row(a, b, i, mask.row_cols(i));
                    full += row_full;
                    // SAFETY: row `i` belongs to exactly one thread's range.
                    unsafe { rp.write(i + 1, cnt as u64) };
                }
                full
            });
            product_nnz.fetch_add(full, Ordering::Relaxed);
        });
    }
    let nnz = scan::parallel_inclusive_scan(pool, &mut rpts64) as usize;
    MaskedSymbolic {
        rpts: rpts64.iter().map(|&x| x as usize).collect(),
        nnz,
        product_nnz: product_nnz.into_inner(),
    }
}

/// Numeric pass into pre-sliced output with pooled accumulators.
#[allow(clippy::too_many_arguments)]
pub(crate) fn numeric_pass<S: Semiring>(
    ws: &MaskedWorkspaces<S>,
    a: &Csr<S::Elem>,
    b: &Csr<S::Elem>,
    mask: &Csr<S::Elem>,
    stats: &MultiplyStats,
    rpts: &[usize],
    pool: &Pool,
    cols: &mut [ColIdx],
    vals: &mut [S::Elem],
) {
    let width = b.ncols();
    let cols_s = SharedMutSlice::new(cols);
    let vals_s = SharedMutSlice::new(vals);
    pool.parallel_ranges(&stats.offsets, |wid, range| {
        if range.is_empty() {
            return;
        }
        with_acc(ws, wid, width, |acc| {
            for i in range {
                let span = rpts[i]..rpts[i + 1];
                // SAFETY: row spans are disjoint across threads by
                // construction of `rpts` and the contiguous partition.
                let (c, v) = unsafe { (cols_s.slice_mut(span.clone()), vals_s.slice_mut(span)) };
                acc.numeric_row(a, b, i, mask.row_cols(i), mask.row_vals(i), c, v);
            }
        });
    });
}

/// Masked SpGEMM: `C = (A · B) ∘ M`, each entry the `k`-ordered sum
/// times the mask value — exactly a product followed by
/// [`spgemm_sparse::ops::hadamard`] with `M`, without ever
/// materializing `A · B`.
///
/// Entries of `A · B` outside `M`'s pattern are never accumulated, so
/// the cost is `O(flop)` probes but only `O(Σ nnz(m_i*))` output. The
/// mask must be shaped like the product. Rows come out in the mask's
/// column order: sorted when the mask is, and sorted on request
/// otherwise. This is a one-shot masked [`SpgemmPlan`]; hold the plan
/// ([`SpgemmPlan::new_masked_in`]) to repeat the product.
pub fn multiply_masked<S: Semiring>(
    a: &Csr<S::Elem>,
    b: &Csr<S::Elem>,
    mask: &Csr<S::Elem>,
    order: OutputOrder,
    pool: &Pool,
) -> Result<Csr<S::Elem>, SparseError> {
    SpgemmPlan::<S>::new_masked_oneshot(a, b, mask, order, pool)?
        .execute_masked_in(a, b, mask, pool)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algos::reference;
    use spgemm_sparse::{ops, PlusTimes};

    type P = PlusTimes<f64>;

    fn bits_eq(a: &Csr<f64>, b: &Csr<f64>) -> bool {
        a.rpts() == b.rpts()
            && a.cols() == b.cols()
            && a.vals()
                .iter()
                .zip(b.vals())
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn equals_multiply_then_hadamard() {
        let a = spgemm_gen::rmat::generate_kind(
            spgemm_gen::RmatKind::G500,
            7,
            6,
            &mut spgemm_gen::rng(1),
        );
        // mask: the matrix's own pattern (the triangle-counting shape),
        // with non-unit values
        let mask = a.map(|v| v * 0.5 - 1.0);
        let pool = Pool::new(2);
        let masked = multiply_masked::<P>(&a, &a, &mask, OutputOrder::Sorted, &pool).unwrap();
        let expect = ops::hadamard(&reference::multiply::<P>(&a, &a), &mask).unwrap();
        assert!(bits_eq(&expect, &masked));
        assert!(masked.nnz() <= mask.nnz());
    }

    #[test]
    fn empty_mask_gives_empty_product() {
        let a = Csr::from_triplets(3, 3, &[(0, 1, 1.0), (1, 2, 2.0), (2, 0, 3.0)]).unwrap();
        let mask = Csr::<f64>::zero(3, 3);
        let pool = Pool::new(1);
        let c = multiply_masked::<P>(&a, &a, &mask, OutputOrder::Sorted, &pool).unwrap();
        assert_eq!(c.nnz(), 0);
    }

    #[test]
    fn mask_wider_than_product_is_harmless() {
        // mask entries no product reaches simply do not appear
        let a = Csr::from_triplets(2, 2, &[(0, 0, 2.0)]).unwrap();
        let mask = Csr::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 1.0)]).unwrap();
        let pool = Pool::new(1);
        let c = multiply_masked::<P>(&a, &a, &mask, OutputOrder::Sorted, &pool).unwrap();
        assert_eq!(c.nnz(), 1);
        assert_eq!(c.get(0, 0), Some(&4.0));
    }

    #[test]
    fn shape_mismatches_rejected() {
        let a = Csr::<f64>::zero(2, 3);
        let b = Csr::<f64>::zero(3, 4);
        let pool = Pool::new(1);
        let bad_mask = Csr::<f64>::zero(2, 3);
        assert!(multiply_masked::<P>(&a, &b, &bad_mask, OutputOrder::Sorted, &pool).is_err());
        let bad_b = Csr::<f64>::zero(5, 4);
        let mask = Csr::<f64>::zero(2, 4);
        assert!(multiply_masked::<P>(&a, &bad_b, &mask, OutputOrder::Sorted, &pool).is_err());
    }

    #[test]
    fn unsorted_mask_and_output_orders() {
        let a = spgemm_gen::rmat::generate_kind(
            spgemm_gen::RmatKind::Er,
            6,
            4,
            &mut spgemm_gen::rng(2),
        );
        let mask = a.map(|_| 1.0);
        let pool = Pool::new(2);
        let s = multiply_masked::<P>(&a, &a, &mask, OutputOrder::Sorted, &pool).unwrap();
        let u = multiply_masked::<P>(&a, &a, &mask, OutputOrder::Unsorted, &pool).unwrap();
        assert!(
            s.is_sorted() && bits_eq(&s, &u),
            "a sorted mask emits sorted rows"
        );
        // a mask with reversed rows: sorted on request, mask order otherwise
        let mut trips = Vec::new();
        for i in 0..mask.nrows() {
            for (&c, &v) in mask.row_cols(i).iter().zip(mask.row_vals(i)).rev() {
                trips.push((c, v));
            }
        }
        let (cols, vals): (Vec<_>, Vec<_>) = trips.into_iter().unzip();
        let rev = Csr::from_parts_unchecked(
            mask.nrows(),
            mask.ncols(),
            mask.rpts().to_vec(),
            cols,
            vals,
            false,
        );
        let rs = multiply_masked::<P>(&a, &a, &rev, OutputOrder::Sorted, &pool).unwrap();
        assert!(rs.is_sorted() && bits_eq(&s, &rs));
        let mut ru = multiply_masked::<P>(&a, &a, &rev, OutputOrder::Unsorted, &pool).unwrap();
        assert!(!ru.is_sorted());
        ru.sort_rows();
        assert!(bits_eq(&s, &ru));
    }
}
