//! Steady-state allocation accounting for the expression-plan
//! executor — the acceptance test for the fusion claim: once an
//! [`ExprPlan`] and its reused output have warmed up,
//! `execute_into` re-runs the *whole pipeline* (SpGEMM, masked
//! SpGEMM, transpose, add, hadamard, fused element-wise epilogues,
//! root copy) with
//! **zero** heap allocations for intermediates.
//!
//! Same approach as `plan_zero_alloc.rs`: a counting
//! `#[global_allocator]` tallies allocations per thread and the strict
//! assertion runs on a single-thread pool (inline execution, exact
//! thread-local accounting).

use spgemm::expr::{ElemMap, ExprGraph, ExprPlan};
use spgemm::Algorithm;
use spgemm_par::Pool;
use spgemm_sparse::{ColIdx, Csr};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // const-init + no Drop: the TLS slot itself never allocates, so
    // the allocator hooks cannot recurse.
    static LOCAL_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = LOCAL_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    LOCAL_ALLOCATIONS.with(Cell::get)
}

/// Banded matrix: multi-entry rows, real accumulation in every node.
fn banded(n: usize) -> Csr<f64> {
    let mut trips = Vec::new();
    for i in 0..n {
        for d in [0usize, 1, 3, 7] {
            let j = (i + d) % n;
            trips.push((i, j as ColIdx, 1.0 + (i * 31 + j) as f64 * 0.01));
        }
    }
    Csr::from_triplets(n, n, &trips).unwrap()
}

#[test]
fn expr_execute_into_steady_state_allocates_nothing() {
    let a = banded(192);
    let rf: Vec<f64> = (0..a.nrows()).map(|i| 1.0 + (i % 3) as f64).collect();
    let pool = Pool::new(1); // inline execution: exact accounting

    // Every node kind in one DAG:
    //   t  = Aᵀ              (cached counting sort, gather refill)
    //   s  = A + t           (cached union structure, provenance refill)
    //   sq = s · s           (fused into h: never materialized)
    //   h  = sq ∘ A          (masked SpgemmPlan execute_masked_into)
    //   m  = |h|^2           (fused epilogue in h's buffer)
    //   n  = normalize_cols  (fused epilogue, cached colsum scratch)
    //   r  = scale_rows(n)   (fused epilogue)
    let mut g = ExprGraph::new();
    let ia = g.input();
    let vf = g.vec_input();
    let t = g.transpose(ia);
    let s = g.add(ia, t);
    let sq = g.multiply(s, s);
    let h = g.hadamard(sq, ia);
    let m = g.map(h, ElemMap::AbsPow(2.0));
    let n = g.normalize_cols(m);
    let root = g.scale_rows(n, vf);

    let mut plan = ExprPlan::new_in(&g, root, &[&a], &[&rf], Algorithm::Hash, &pool).unwrap();
    assert_eq!(
        plan.fused_nodes(),
        4,
        "the product fuses into the mask; map, normalize and scale fuse"
    );
    assert_eq!(plan.masked_fusions(), 1);
    assert!(plan.fused_bytes_eliminated() > 0);

    let mut out = Csr::<f64>::zero(0, 0);
    // Warm-up: size the output and every pooled accumulator.
    for _ in 0..3 {
        plan.execute_into_in(&[&a], &[&rf], &mut out, &pool)
            .unwrap();
    }
    let nnz = out.nnz();
    assert!(nnz > 0);

    let before = allocations();
    for _ in 0..10 {
        plan.execute_into_in(&[&a], &[&rf], &mut out, &pool)
            .unwrap();
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state expression execution must not allocate"
    );
    assert_eq!(out.nnz(), nnz, "result drifted");
    assert!(out.validate().is_ok());
}

/// A materialized product under RowClass: the bucketed passes
/// (u16-compressed indices at 192 columns) must reach the
/// allocation-free steady state inside an expression plan too. The
/// product feeds an `Add`, so it is not fused into a masked product.
#[test]
fn expr_rowclass_steady_state_allocates_nothing() {
    let a = banded(192);
    let pool = Pool::new(1);
    let mut g = ExprGraph::new();
    let ia = g.input();
    let t = g.transpose(ia);
    let s = g.add(ia, t);
    let sq = g.multiply(s, s);
    let root = g.add(sq, ia);

    let mut plan = ExprPlan::new_in(&g, root, &[&a], &[], Algorithm::RowClass, &pool).unwrap();
    let mut out = Csr::<f64>::zero(0, 0);
    for _ in 0..3 {
        plan.execute_into_in(&[&a], &[], &mut out, &pool).unwrap();
    }
    let nnz = out.nnz();
    assert!(nnz > 0);

    let before = allocations();
    for _ in 0..10 {
        plan.execute_into_in(&[&a], &[], &mut out, &pool).unwrap();
    }
    assert_eq!(
        allocations() - before,
        0,
        "steady-state RowClass expression execution must not allocate"
    );
    assert_eq!(out.nnz(), nnz, "result drifted");
    assert!(out.validate().is_ok());
}

/// The triangle-counting shape `(L · U) ∘ A` with a Hadamard on top:
/// the masked product (fused) and a cached-intersection Hadamard (its
/// operand is not a product) both refill without allocating, under a
/// heap and a hash request alike.
#[test]
fn expr_masked_product_steady_state_allocates_nothing() {
    let g500 =
        spgemm_gen::rmat::generate_kind(spgemm_gen::RmatKind::G500, 8, 8, &mut spgemm_gen::rng(5));
    let a = spgemm_sparse::ops::symmetrize_simple(&g500).unwrap();
    let (l, u) = spgemm_sparse::ops::split_lu(&a).unwrap();
    let pool = Pool::new(1);
    let mut g = ExprGraph::new();
    let il = g.input();
    let iu = g.input();
    let ia = g.input();
    let wedges = g.masked_multiply(il, iu, ia);
    let root = g.hadamard(wedges, ia);
    for algo in [Algorithm::Heap, Algorithm::Hash] {
        let inputs = [&l, &u, &a];
        let mut plan = ExprPlan::new_in(&g, root, &inputs, &[], algo, &pool).unwrap();
        assert_eq!(plan.masked_fusions(), 1, "{algo}");
        let mut out = Csr::<f64>::zero(0, 0);
        for _ in 0..3 {
            plan.execute_into_in(&inputs, &[], &mut out, &pool).unwrap();
        }
        let nnz = out.nnz();
        assert!(nnz > 0);

        let before = allocations();
        for _ in 0..10 {
            plan.execute_into_in(&inputs, &[], &mut out, &pool).unwrap();
        }
        assert_eq!(
            allocations() - before,
            0,
            "{algo}: steady-state masked expression execution must not allocate"
        );
        assert_eq!(out.nnz(), nnz, "result drifted");
        assert!(out.validate().is_ok());
    }
}

#[test]
fn expr_bind_does_allocate_and_results_stay_valid() {
    // Sanity that the instrumentation sees the real code path: the
    // bind pass must allocate (it builds every cached structure).
    let a = banded(64);
    let pool = Pool::new(1);
    let mut g = ExprGraph::new();
    let ia = g.input();
    let sq = g.multiply(ia, ia);
    let root = g.normalize_cols(sq);
    let before = allocations();
    let mut plan = ExprPlan::new_in(&g, root, &[&a], &[], Algorithm::Hash, &pool).unwrap();
    assert!(allocations() > before, "binding builds structures");
    let mut out = Csr::zero(0, 0);
    plan.execute_into_in(&[&a], &[], &mut out, &pool).unwrap();
    assert!(out.validate().is_ok());
    assert_eq!(out.nrows(), 64);
}
