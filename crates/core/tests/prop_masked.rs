//! Masked-product fusion: an `ExprPlan` that runs `(A · B) ∘ M` as one
//! masked `SpgemmPlan` must give, bit for bit, what the unfused product
//! followed by a Hadamard gives under every `k`-ordered kernel — with
//! non-unit mask values, empty mask rows, mask entries no product
//! reaches and products that cancel to 0.0 — and must keep its pooled
//! workspaces across mask drift.

use proptest::prelude::*;
use spgemm::expr::{ExprCache, ExprGraph, ExprPlan};
use spgemm::{multiply_in, Algorithm, OutputOrder, SpgemmPlan};
use spgemm_par::Pool;
use spgemm_sparse::{ops, ColIdx, Coo, Csr, PlusTimes};

type P = PlusTimes<f64>;

/// Every kernel that sums an entry's products in `k`-encounter order.
const K_ORDERED: [Algorithm; 8] = [
    Algorithm::Hash,
    Algorithm::HashVec,
    Algorithm::Spa,
    Algorithm::KkHash,
    Algorithm::Ikj,
    Algorithm::RowClass,
    Algorithm::Reference,
    Algorithm::Heap,
];

/// Random `n x n` matrix with values `q · step`, `q ∈ -4..=4`: sums of
/// three or more such products round differently in different orders,
/// and equal-and-opposite products cancel to exactly 0.0.
fn arb_matrix(n: usize, max_nnz: usize, step: f64) -> impl Strategy<Value = Csr<f64>> {
    proptest::collection::vec((0..n, 0..n, -4i64..=4), 0..=max_nnz).prop_map(move |trips| {
        let mut coo = Coo::new(n, n).unwrap();
        for (r, c, q) in trips {
            coo.push(r, c as ColIdx, q as f64 * step).unwrap();
        }
        coo.into_csr_sum()
    })
}

/// `(A, B, M)` of one size; every third row of `M` is emptied.
fn arb_case(
    max_dim: usize,
    max_nnz: usize,
) -> impl Strategy<Value = (Csr<f64>, Csr<f64>, Csr<f64>)> {
    (2..=max_dim).prop_flat_map(move |n| {
        (
            arb_matrix(n, max_nnz, 0.3),
            arb_matrix(n, max_nnz, 0.3),
            arb_matrix(n, 2 * max_nnz, 0.7).prop_map(|m| m.filter(|i, _, _| i % 3 != 2)),
        )
    })
}

fn bits_eq(a: &Csr<f64>, b: &Csr<f64>) -> bool {
    a.shape() == b.shape()
        && a.rpts() == b.rpts()
        && a.cols() == b.cols()
        && a.vals()
            .iter()
            .zip(b.vals())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The unfused reference: the kernel's product, rows sorted, then the
/// Hadamard with the mask.
fn unfused(
    a: &Csr<f64>,
    b: &Csr<f64>,
    m: &Csr<f64>,
    algo: Algorithm,
    order: OutputOrder,
) -> Csr<f64> {
    let mut prod = multiply_in::<P>(a, b, algo, order, &Pool::new(1)).unwrap();
    prod.sort_rows();
    ops::hadamard(&prod, m).unwrap()
}

fn masked_graph() -> (ExprGraph, spgemm::expr::NodeId) {
    let mut g = ExprGraph::new();
    let ia = g.input();
    let ib = g.input();
    let im = g.input();
    let root = g.masked_multiply(ia, ib, im);
    (g, root)
}

/// Byte size of a CSR matrix with `nrows` rows and `nnz` entries.
fn csr_bytes(nrows: usize, nnz: usize) -> usize {
    (nrows + 1) * std::mem::size_of::<usize>()
        + nnz * (std::mem::size_of::<ColIdx>() + std::mem::size_of::<f64>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn fused_equals_unfused_for_every_k_ordered_kernel(
        (a, b, m) in arb_case(18, 90),
        nt in 1usize..=3,
    ) {
        let pool = Pool::new(nt);
        let (g, root) = masked_graph();
        for algo in K_ORDERED {
            let expect = unfused(&a, &b, &m, algo, OutputOrder::Sorted);
            let mut plan = ExprPlan::new_in(&g, root, &[&a, &b, &m], &[], algo, &pool).unwrap();
            prop_assert_eq!(plan.masked_fusions(), 1, "{}", algo);
            let mut out = Csr::zero(0, 0);
            for round in 0..2 {
                plan.execute_into_in(&[&a, &b, &m], &[], &mut out, &pool).unwrap();
                prop_assert!(bits_eq(&out, &expect), "{} round {}", algo, round);
            }
            // values drift under a fixed structure: still bit-equal
            let (a2, m2) = (a.map(|v| v * -1.3), m.map(|v| v + 0.1));
            plan.execute_into_in(&[&a2, &b, &m2], &[], &mut out, &pool).unwrap();
            prop_assert!(bits_eq(&out, &unfused(&a2, &b, &m2, algo, OutputOrder::Sorted)), "{}", algo);

            for order in [OutputOrder::Sorted, OutputOrder::Unsorted] {
                let mp = SpgemmPlan::<P>::new_masked_in(&a, &b, &m, order, &pool).unwrap();
                let got = mp.execute_masked_in(&a, &b, &m, &pool).unwrap();
                prop_assert!(got.is_sorted(), "a sorted mask emits sorted rows");
                prop_assert!(bits_eq(&got, &unfused(&a, &b, &m, algo, order)), "{} {:?}", algo, order);
                let one_shot = spgemm::multiply_masked::<P>(&a, &b, &m, order, &pool).unwrap();
                prop_assert!(bits_eq(&one_shot, &got));
            }
        }
    }

    #[test]
    fn fused_product_is_counted((a, b, m) in arb_case(16, 70)) {
        let pool = Pool::new(2);
        let (g, root_f) = masked_graph();
        let plan = ExprPlan::new_in(&g, root_f, &[&a, &b, &m], &[], Algorithm::Hash, &pool).unwrap();
        let prod = multiply_in::<P>(&a, &b, Algorithm::Hash, OutputOrder::Sorted, &pool).unwrap();
        prop_assert_eq!(plan.fused_nodes(), 1);
        prop_assert_eq!(plan.fused_bytes_eliminated(), csr_bytes(a.nrows(), prod.nnz()));

        // A second consumer of the product keeps it materialized.
        let mut gu = ExprGraph::new();
        let (ia, ib, im) = (gu.input(), gu.input(), gu.input());
        let p = gu.multiply(ia, ib);
        let h = gu.hadamard(p, im);
        let root = gu.add(h, p);
        let unfused_plan = ExprPlan::new_in(&gu, root, &[&a, &b, &m], &[], Algorithm::Hash, &pool).unwrap();
        prop_assert_eq!(unfused_plan.masked_fusions(), 0);
        prop_assert_eq!(unfused_plan.fused_nodes(), 0);

        // Merge sums in its own order: never fused.
        let merge = ExprPlan::new_in(&g, root_f, &[&a, &b, &m], &[], Algorithm::Merge, &pool).unwrap();
        prop_assert_eq!(merge.masked_fusions(), 0);
    }
}

#[test]
fn cancelling_products_stay_present_as_zero() {
    // row 0: 1·2 + (-1)·2 = 0 at column 0, kept (the mask selects it)
    let a = Csr::from_triplets(2, 2, &[(0, 0, 1.0), (0, 1, -1.0)]).unwrap();
    let b = Csr::from_triplets(2, 2, &[(0, 0, 2.0), (1, 0, 2.0)]).unwrap();
    let m = Csr::from_triplets(2, 2, &[(0, 0, 3.0), (0, 1, 5.0), (1, 1, 1.0)]).unwrap();
    let pool = Pool::new(1);
    let (g, root) = masked_graph();
    let mut plan = ExprPlan::new_in(&g, root, &[&a, &b, &m], &[], Algorithm::Hash, &pool).unwrap();
    let out = plan.execute_in(&[&a, &b, &m], &[], &pool).unwrap();
    assert_eq!(out.nnz(), 1, "(0, 1) and (1, 1) are reached by no product");
    assert_eq!(out.get(0, 0), Some(&0.0));
    assert!(bits_eq(
        &out,
        &unfused(&a, &b, &m, Algorithm::Hash, OutputOrder::Sorted)
    ));
}

#[test]
fn masked_rebind_across_mask_drift_keeps_workspaces() {
    let pool = Pool::new(2);
    let (g, root) = masked_graph();
    let mut cache = ExprCache::new(g, root, Algorithm::Hash);
    let a = spgemm_gen::suite::uniform_matrix(60, 500, &mut spgemm_gen::rng(3));
    let masks = [
        a.map(|v| v * 0.5),
        a.filter(|i, j, _| (i + j as usize).is_multiple_of(2)),
        spgemm_gen::suite::uniform_matrix(60, 700, &mut spgemm_gen::rng(4)),
    ];
    let mut out = Csr::zero(0, 0);
    cache
        .execute_into_in(&[&a, &a, &masks[0]], &[], &mut out, &pool)
        .unwrap();
    let created = cache.plan().unwrap().workspace_stats().created;
    assert!(created >= 1);
    for (k, m) in masks.iter().enumerate().skip(1) {
        cache
            .execute_into_in(&[&a, &a, m], &[], &mut out, &pool)
            .unwrap();
        assert!(
            bits_eq(
                &out,
                &unfused(&a, &a, m, Algorithm::Hash, OutputOrder::Sorted)
            ),
            "mask {k}"
        );
        // and a numeric-only hit on the rebound plan
        cache
            .execute_into_in(&[&a, &a, m], &[], &mut out, &pool)
            .unwrap();
        assert!(
            bits_eq(
                &out,
                &unfused(&a, &a, m, Algorithm::Hash, OutputOrder::Sorted)
            ),
            "mask {k}"
        );
    }
    let plan = cache.plan().unwrap();
    assert_eq!(cache.stats().rebuilds, 3, "every mask drift rebinds");
    assert_eq!(cache.stats().hits, 2);
    assert_eq!(plan.masked_fusions(), 1);
    let st = plan.workspace_stats();
    assert_eq!(
        st.created, created,
        "rebinding keeps the masked workspaces: {st:?}"
    );
    assert!(st.reused > 0);
}

#[test]
fn masked_plan_rejects_unmasked_use_and_drifted_masks() {
    let pool = Pool::new(1);
    let a = spgemm_gen::suite::uniform_matrix(20, 80, &mut spgemm_gen::rng(8));
    let m = a.map(|_| 1.0);
    let mut plan = SpgemmPlan::<P>::new_masked_in(&a, &a, &m, OutputOrder::Sorted, &pool).unwrap();
    assert!(plan.is_masked());
    assert!(
        plan.execute_in(&a, &a, &pool).is_err(),
        "a masked plan needs its mask"
    );
    assert!(plan.rebind_in(&a, &a, &pool).is_err());
    let fewer = m.filter(|i, _, _| i != 0);
    assert!(
        plan.execute_masked_in(&a, &a, &fewer, &pool).is_err(),
        "mask nnz drifted"
    );
    assert!(plan.matches_masked_structure(&a, &a, &m));
    assert!(!plan.matches_masked_structure(&a, &a, &fewer));
    assert!(!plan.matches_structure(&a, &a));
    plan.rebind_masked_in(&a, &a, &fewer, &pool).unwrap();
    let got = plan.execute_masked_in(&a, &a, &fewer, &pool).unwrap();
    assert!(bits_eq(
        &got,
        &unfused(&a, &a, &fewer, Algorithm::Hash, OutputOrder::Sorted)
    ));
    let unmasked =
        SpgemmPlan::<P>::new_in(&a, &a, Algorithm::Hash, OutputOrder::Sorted, &pool).unwrap();
    assert!(unmasked.execute_masked_in(&a, &a, &m, &pool).is_err());
    let wrong_shape = Csr::<f64>::zero(20, 19);
    assert!(
        SpgemmPlan::<P>::new_masked_in(&a, &a, &wrong_shape, OutputOrder::Sorted, &pool).is_err()
    );
}
