//! Property tests for the application layer: BFS against the queue
//! reference on arbitrary digraphs, triangle counts against brute
//! force, and structural invariants of the AMG hierarchy.

use proptest::prelude::*;
use spgemm::Algorithm;
use spgemm_apps::{amg, bfs, triangles};
use spgemm_par::Pool;
use spgemm_sparse::{ColIdx, Coo, Csr};

fn arb_digraph(max_n: usize, max_m: usize) -> impl Strategy<Value = Csr<bool>> {
    (2..=max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n), 0..=max_m).prop_map(move |edges| {
            let mut coo = Coo::new(n, n).unwrap();
            for (u, v) in edges {
                coo.push(u, v as ColIdx, true).unwrap();
            }
            coo.into_csr_sum()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn bfs_levels_match_queue_reference(g in arb_digraph(30, 150), src_sel in 0usize..30) {
        let src = src_sel % g.nrows();
        let pool = Pool::new(2);
        let l = bfs::multi_source_bfs(&g, &[src], Algorithm::Hash, &pool).unwrap();
        let seq = bfs::sequential_bfs(&g, src);
        for (v, &lvl) in seq.iter().enumerate() {
            prop_assert_eq!(l.level(v, 0), lvl, "vertex {}", v);
        }
    }

    #[test]
    fn bfs_levels_are_lipschitz_along_edges(g in arb_digraph(25, 120)) {
        // for every edge u -> v: level(v) <= level(u) + 1 when u reached
        let pool = Pool::new(2);
        let l = bfs::multi_source_bfs(&g, &[0], Algorithm::Hash, &pool).unwrap();
        for u in 0..g.nrows() {
            let lu = l.level(u, 0);
            if lu == bfs::UNREACHED {
                continue;
            }
            for &v in g.row_cols(u) {
                let lv = l.level(v as usize, 0);
                prop_assert!(lv != bfs::UNREACHED && lv <= lu + 1,
                    "edge {}->{}: {} then {}", u, v, lu, lv);
            }
        }
    }

    #[test]
    fn triangle_count_matches_bruteforce(g in arb_digraph(16, 60)) {
        let gf = g.map(|_| 1.0f64);
        let pool = Pool::new(2);
        let naive = triangles::count_triangles_naive(&gf).unwrap();
        for algo in [Algorithm::Hash, Algorithm::Heap, Algorithm::Auto] {
            let mut counter = triangles::TriangleCounter::new(&gf, algo, &pool).unwrap();
            prop_assert_eq!(counter.expr_plan().masked_fusions(), 1, "{}", algo);
            prop_assert_eq!(counter.count(&pool).unwrap(), naive, "{}", algo);
        }
    }

    #[test]
    fn amg_levels_conserve_row_sums(k in 3usize..10) {
        // Galerkin with piecewise-constant P conserves total row sum
        let a = spgemm_gen::poisson::poisson2d(k);
        let total: f64 = a.vals().iter().sum();
        let pool = Pool::new(2);
        let levels = amg::setup_hierarchy(a, 4, 6, Algorithm::Hash, &pool).unwrap();
        for (d, op) in levels.iter().enumerate() {
            let s: f64 = op.vals().iter().sum();
            prop_assert!((s - total).abs() < 1e-6, "level {}: {} vs {}", d, s, total);
        }
    }
}
