//! Property tests for the GP stack: Cholesky correctness on random SPD
//! matrices (extension *and* downdate), SSK kernel axioms, lane-blocked
//! column bit-identity, GP posterior consistency, sliding-window
//! surrogate correctness, and EI behaviour.

use boils_gp::{
    expected_improvement, Cholesky, Gp, Kernel, Matrix, SquaredExponential, SskKernel, Surrogate,
    SurrogateConfig, TrainConfig,
};
use proptest::prelude::*;

fn spd_from_seed(n: usize, vals: &[f64]) -> Matrix {
    // A = BᵀB + n·I is SPD for any B.
    let b = Matrix::from_fn(n, n, |i, j| vals[(i * n + j) % vals.len()]);
    let mut a = b.transpose().mul(&b);
    for i in 0..n {
        a[(i, i)] += n as f64;
    }
    a
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cholesky_solves_random_spd_systems(
        n in 1usize..8,
        vals in prop::collection::vec(-2.0f64..2.0, 1..64),
        rhs in prop::collection::vec(-5.0f64..5.0, 8),
    ) {
        let a = spd_from_seed(n, &vals);
        let c = Cholesky::new(&a, 0.0).expect("spd");
        let b: Vec<f64> = rhs[..n].to_vec();
        let x = c.solve(&b);
        let back = a.mul_vec(&x);
        for (u, v) in back.iter().zip(&b) {
            prop_assert!((u - v).abs() < 1e-6, "Ax={u} b={v}");
        }
        // log|A| must be finite and consistent with the factor.
        prop_assert!(c.log_det().is_finite());
    }

    #[test]
    fn ssk_is_symmetric_and_cauchy_schwarz(
        s in prop::collection::vec(0u8..6, 1..10),
        t in prop::collection::vec(0u8..6, 1..10),
        ell in 1usize..4,
    ) {
        let k = SskKernel::new(ell).with_decays(0.7, 0.45).without_normalization();
        let kst = k.eval_raw(&s, &t);
        let kts = k.eval_raw(&t, &s);
        prop_assert!((kst - kts).abs() < 1e-9, "not symmetric");
        // Cauchy–Schwarz: k(s,t)² ≤ k(s,s)·k(t,t).
        let kss = k.eval_raw(&s, &s);
        let ktt = k.eval_raw(&t, &t);
        prop_assert!(kst * kst <= kss * ktt + 1e-9);
        prop_assert!(kss >= 0.0 && ktt >= 0.0);
    }

    #[test]
    fn normalised_ssk_is_bounded_by_one(
        s in prop::collection::vec(0u8..11, 1..12),
        t in prop::collection::vec(0u8..11, 1..12),
    ) {
        let k = SskKernel::new(4);
        let v = k.eval(&s, &t);
        prop_assert!((-1e-9..=1.0 + 1e-9).contains(&v), "out of range: {v}");
        let same = k.eval(&s, &s);
        prop_assert!((same - 1.0).abs() < 1e-9);
    }

    #[test]
    fn gp_interpolates_and_calibrates(
        ys in prop::collection::vec(-3.0f64..3.0, 3..10),
    ) {
        let xs: Vec<Vec<f64>> = (0..ys.len()).map(|i| vec![i as f64]).collect();
        let gp = Gp::fit(SquaredExponential::new(1), xs.clone(), ys.clone(), 1e-8)
            .expect("spd");
        for (x, y) in xs.iter().zip(&ys) {
            let (mean, var) = gp.predict(x);
            prop_assert!((mean - y).abs() < 1e-2, "mean {mean} vs {y}");
            prop_assert!(var >= 0.0);
        }
        // Far from data, variance approaches the prior variance — on the
        // original scale that is the sample variance of the targets.
        let mean_y = ys.iter().sum::<f64>() / ys.len() as f64;
        let var_y = ys.iter().map(|v| (v - mean_y).powi(2)).sum::<f64>() / ys.len() as f64;
        let (_, far_var) = gp.predict(&vec![1e4]);
        prop_assert!(
            far_var > 0.5 * var_y.max(1e-12),
            "far variance {far_var} vs target variance {var_y}"
        );
    }

    #[test]
    fn cholesky_extension_matches_full_factorisation(
        n in 2usize..8,
        vals in prop::collection::vec(-2.0f64..2.0, 1..64),
    ) {
        // Factor the leading (n-1)×(n-1) block of a random SPD matrix,
        // extend by the last row/column, and compare against factoring
        // the full matrix directly.
        let a = spd_from_seed(n, &vals);
        let leading = Matrix::from_fn(n - 1, n - 1, |i, j| a[(i, j)]);
        let off: Vec<f64> = (0..n - 1).map(|i| a[(i, n - 1)]).collect();
        let extended = Cholesky::new(&leading, 1e-9)
            .expect("spd")
            .extend(&off, a[(n - 1, n - 1)])
            .expect("positive pivot");
        let direct = Cholesky::new(&a, 1e-9).expect("spd");
        for i in 0..n {
            for j in 0..=i {
                prop_assert!(
                    (extended.l()[(i, j)] - direct.l()[(i, j)]).abs() < 1e-10,
                    "L[{},{}]: {} vs {}", i, j, extended.l()[(i, j)], direct.l()[(i, j)]
                );
            }
        }
        prop_assert!((extended.log_det() - direct.log_det()).abs() < 1e-10);
    }

    #[test]
    fn incremental_gp_extension_matches_from_scratch_fit(
        seqs in prop::collection::vec(prop::collection::vec(0u8..11, 1..8), 3..9),
        ys in prop::collection::vec(-2.0f64..2.0, 9),
    ) {
        // Random sequence Grams under the SSK: growing the GP one
        // observation at a time must agree with a from-scratch fit to
        // ≤ 1e-10 in posterior mean, variance, and NLML.
        let ys = &ys[..seqs.len()];
        let split = 2;
        let mut incremental =
            Gp::fit(SskKernel::new(3), seqs[..split].to_vec(), ys[..split].to_vec(), 1e-4)
                .expect("spd");
        for i in split..seqs.len() {
            incremental = incremental.extend(seqs[i].clone(), ys[i]).expect("extend").0;
        }
        let scratch = Gp::fit(SskKernel::new(3), seqs.clone(), ys.to_vec(), 1e-4).expect("spd");
        for probe in &seqs {
            let (m_inc, v_inc) = incremental.predict(probe);
            let (m_full, v_full) = scratch.predict(probe);
            prop_assert!((m_inc - m_full).abs() < 1e-10, "mean {m_inc} vs {m_full}");
            prop_assert!((v_inc - v_full).abs() < 1e-10, "var {v_inc} vs {v_full}");
        }
        prop_assert!((incremental.nlml() - scratch.nlml()).abs() < 1e-10);
    }

    #[test]
    fn cholesky_downdate_matches_refactorisation(
        n in 2usize..9,
        index in 0usize..9,
        vals in prop::collection::vec(-2.0f64..2.0, 1..64),
    ) {
        // Factor a random SPD matrix, downdate an arbitrary row/column,
        // and compare against factoring the reduced matrix directly: the
        // Givens restoration must agree to ≤ 1e-8.
        let index = index % n;
        let a = spd_from_seed(n, &vals);
        let full = Cholesky::new(&a, 1e-9).expect("spd");
        let down = full.downdate(index).expect("principal submatrix stays pd");
        let keep: Vec<usize> = (0..n).filter(|&i| i != index).collect();
        let reduced = Matrix::from_fn(n - 1, n - 1, |i, j| a[(keep[i], keep[j])]);
        let direct = Cholesky::new(&reduced, 1e-9).expect("spd");
        for i in 0..n - 1 {
            for j in 0..=i {
                prop_assert!(
                    (down.l()[(i, j)] - direct.l()[(i, j)]).abs() <= 1e-8,
                    "L[{},{}]: {} vs {}", i, j, down.l()[(i, j)], direct.l()[(i, j)]
                );
            }
        }
        prop_assert!((down.log_det() - direct.log_det()).abs() <= 1e-8);
    }

    #[test]
    fn warm_ssk_gram_is_bit_identical_to_cold_recomputation(
        seqs in prop::collection::vec(prop::collection::vec(0u8..11, 0..10), 0..10),
        probes in prop::collection::vec(prop::collection::vec(0u8..11, 0..10), 0..3),
        shape in 0usize..20,
        tm in 0.05f64..1.0,
        tg in 0.05f64..1.0,
    ) {
        // Every column `eval_column(xs[..p], b)` for p in 0..=|xs| (0..=9
        // points) and b in xs ∪ probes, from a kernel whose DP buffer is
        // warm from a fill at other decays and which `set_params` moved,
        // equals the per-pair `eval_with_info` of a fresh kernel bit for
        // bit. Half the time the xs share one length below 10 (empty
        // included), so whole blocks run the four lanes; otherwise lengths
        // mix and most blocks fall back to one lane.
        let mut xs = seqs;
        if shape < 10 {
            for x in &mut xs {
                x.resize(shape, 3);
            }
        }
        let targets: Vec<Vec<u8>> = xs.iter().chain(&probes).cloned().collect();
        let cold = SskKernel::new(4).with_decays(tm, tg);
        let mut warm = SskKernel::new(4).with_decays(0.8, 0.5);
        let column = |k: &SskKernel, xs: &[Vec<u8>], b: &Vec<u8>| {
            let infos: Vec<f64> = xs.iter().map(|x| k.self_info(x)).collect();
            let mut out = vec![f64::NAN; xs.len()];
            k.eval_column(xs, &infos, b, k.self_info(b), &mut out);
            out
        };
        for b in &targets {
            let _ = column(&warm, &xs, b);
        }
        warm.set_params(&[tm, tg]);
        for b in &targets {
            let info_b = cold.self_info(b);
            for p in 0..=xs.len() {
                let got = column(&warm, &xs[..p], b);
                for (x, v) in xs[..p].iter().zip(&got) {
                    let want = cold.eval_with_info(x, cold.self_info(x), b, info_b);
                    prop_assert_eq!(v.to_bits(), want.to_bits(), "x={:?} b={:?} p={}", x, b, p);
                }
            }
        }
    }

    #[test]
    fn gp_downdate_matches_scratch_fit_on_survivors(
        seqs in prop::collection::vec(prop::collection::vec(0u8..11, 2..8), 5..9),
        ys in prop::collection::vec(-2.0f64..2.0, 9),
        evict_seed in 0usize..1000,
    ) {
        // Downdating arbitrary rows in a random order must agree with a
        // from-scratch fit on the surviving points.
        let ys = &ys[..seqs.len()];
        let mut gp = Gp::fit(SskKernel::new(3), seqs.clone(), ys.to_vec(), 1e-4).expect("spd");
        let mut survivors: Vec<usize> = (0..seqs.len()).collect();
        let mut state = evict_seed;
        for _ in 0..seqs.len() - 3 {
            state = (state * 1103515245 + 12345) % (1 << 31);
            let victim = state % survivors.len();
            let (next, _) = gp.downdate(victim).expect("pd");
            gp = next;
            survivors.remove(victim);
        }
        let xs: Vec<Vec<u8>> = survivors.iter().map(|&i| seqs[i].clone()).collect();
        let yk: Vec<f64> = survivors.iter().map(|&i| ys[i]).collect();
        let scratch = Gp::fit(SskKernel::new(3), xs, yk, 1e-4).expect("spd");
        for probe in &seqs {
            let (m_d, v_d) = gp.predict(probe);
            let (m_s, v_s) = scratch.predict(probe);
            prop_assert!((m_d - m_s).abs() < 1e-6, "mean {} vs {}", m_d, m_s);
            prop_assert!((v_d - v_s).abs() < 1e-6, "var {} vs {}", v_d, v_s);
        }
    }

    #[test]
    fn windowed_surrogate_matches_scratch_fit_on_the_retained_window(
        window_choice in 0usize..3,
        stream in prop::collection::vec(
            (prop::collection::vec(0u8..11, 3..8), -2.0f64..2.0), 6..24),
    ) {
        // Sliding-window correctness over window sizes {4, 8, 16} and
        // whatever evict order the stream's targets induce (the pinned
        // incumbent shifts arbitrarily): after every update, the windowed
        // posterior equals a from-scratch GP fit on exactly the retained
        // window, and the incumbent is always retained.
        let window = [4usize, 8, 16][window_choice];
        let mut surrogate: Surrogate<SskKernel, Vec<u8>> = Surrogate::new(
            SskKernel::new(3),
            SurrogateConfig {
                noise: 1e-4,
                retrain_every: 1_000_000, // isolate the extend/forget path
                window: Some(window),
                train: TrainConfig { steps: 2, ..TrainConfig::default() },
            },
        );
        let mut best: Option<(usize, f64)> = None;
        for (i, (x, y)) in stream.iter().enumerate() {
            surrogate.observe(x.clone(), *y);
            if best.is_none_or(|(_, by)| *y > by) {
                best = Some((i, *y));
            }
            surrogate.maybe_retrain().expect("fit");
        }
        let retained = surrogate.window_indices().to_vec();
        prop_assert!(retained.len() <= window);
        let (best_idx, _) = best.expect("non-empty stream");
        prop_assert!(
            retained.contains(&best_idx),
            "incumbent {} evicted: {:?}", best_idx, retained
        );
        let gp = surrogate.gp().expect("fitted");
        let xs: Vec<Vec<u8>> = retained.iter().map(|&i| stream[i].0.clone()).collect();
        let ys: Vec<f64> = retained.iter().map(|&i| stream[i].1).collect();
        let scratch = Gp::fit(gp.kernel().clone(), xs, ys, 1e-4).expect("spd");
        for (probe, _) in stream.iter().take(6) {
            let (m_w, v_w) = gp.predict(probe);
            let (m_s, v_s) = scratch.predict(probe);
            prop_assert!((m_w - m_s).abs() < 1e-6, "mean {} vs {}", m_w, m_s);
            prop_assert!((v_w - v_s).abs() < 1e-6, "var {} vs {}", v_w, v_s);
        }
    }

    #[test]
    fn ei_is_nonnegative_and_monotone_in_mean(
        mean in -5.0f64..5.0,
        var in 0.0f64..10.0,
        best in -5.0f64..5.0,
    ) {
        let ei = expected_improvement(mean, var, best);
        prop_assert!(ei >= 0.0);
        let ei_better = expected_improvement(mean + 0.5, var, best);
        prop_assert!(ei_better >= ei - 1e-12, "EI not monotone in mean");
    }
}
