//! Cross-crate property tests on the paper's core invariants.

use network_reliability::bdd::brute_force_reliability;
use network_reliability::prelude::*;
use network_reliability::preprocessing::preprocess;
use network_reliability::s2bdd::reduced_samples;
use proptest::prelude::*;

/// Strategy: a random simple graph on up to 8 vertices with probabilities.
fn small_graph() -> impl Strategy<Value = UncertainGraph> {
    proptest::collection::vec((0usize..8, 0usize..8, 0.05f64..1.0), 1..14).prop_filter_map(
        "needs at least one simple edge",
        |edges| {
            let mut seen = std::collections::HashSet::new();
            let list: Vec<(usize, usize, f64)> = edges
                .into_iter()
                .filter_map(|(u, v, p)| {
                    if u == v {
                        return None;
                    }
                    let key = (u.min(v), u.max(v));
                    seen.insert(key).then_some((key.0, key.1, p))
                })
                .collect();
            if list.is_empty() {
                None
            } else {
                Some(UncertainGraph::new(8, list).unwrap())
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `p_c ≤ R ≤ 1 − p_d` for any width, any sample count, any seed.
    #[test]
    fn s2bdd_bounds_bracket_truth(g in small_graph(), w in 1usize..8, seed in 0u64..1000) {
        let t = vec![0usize, 7];
        let exact = brute_force_reliability(&g, &t);
        let r = S2Bdd::solve(
            &g,
            &t,
            S2BddConfig { max_width: w, samples: 100, seed, ..Default::default() },
        )
        .unwrap();
        prop_assert!(r.lower_bound <= exact + 1e-9, "lb {} > R {}", r.lower_bound, exact);
        prop_assert!(r.upper_bound >= exact - 1e-9, "ub {} < R {}", r.upper_bound, exact);
        prop_assert!(r.estimate >= r.lower_bound - 1e-12 && r.estimate <= r.upper_bound + 1e-12);
    }

    /// Pro with the extension equals Pro without it (in expectation both
    /// estimate R; with unbounded width both are *exact* and must be equal).
    #[test]
    fn extension_does_not_change_exact_answer(g in small_graph(), t0 in 0usize..8, t1 in 0usize..8) {
        let mut t = vec![t0, t1];
        t.sort_unstable();
        t.dedup();
        prop_assume!(t.len() == 2);
        let with = pro_reliability(
            &g,
            &t,
            ProConfig { s2bdd: S2BddConfig::exact(), ..Default::default() },
        )
        .unwrap();
        let without = pro_reliability(
            &g,
            &t,
            ProConfig {
                s2bdd: S2BddConfig::exact(),
                preprocess: PreprocessConfig::disabled(),
                ..Default::default()
            },
        )
        .unwrap();
        prop_assert!((with.estimate - without.estimate).abs() < 1e-9,
            "with {} vs without {}", with.estimate, without.estimate);
    }

    /// The preprocessing stats are internally consistent.
    #[test]
    fn preprocess_stats_consistent(g in small_graph(), t0 in 0usize..8, t1 in 0usize..8) {
        let mut t = vec![t0, t1];
        t.sort_unstable();
        t.dedup();
        prop_assume!(t.len() == 2);
        let pre = preprocess(&g, &t, PreprocessConfig::default()).unwrap();
        prop_assert!(pre.stats.pruned_edges <= pre.stats.original_edges);
        prop_assert!(pre.stats.max_part_edges <= pre.stats.pruned_edges);
        prop_assert!(pre.stats.reduced_ratio <= 1.0);
        prop_assert_eq!(pre.stats.num_parts, pre.parts.len());
        for part in &pre.parts {
            prop_assert!(part.terminals.len() >= 2);
            prop_assert!(part.graph.num_edges() > 0);
        }
    }

    /// Theorem 1 sanity across the whole (pc, pd) simplex: the reduced
    /// budget never exceeds the requested one. (Note the theorem's budget is
    /// *not* monotone in pd for pc < pd — the `1 − 4·pc·(1−pd)` case is a
    /// coarser bound as pd grows — so only one-sided monotonicity in each
    /// single bound is asserted, on the slice where the other bound is 0.)
    #[test]
    fn sample_reduction_respects_simplex(s in 1usize..100_000, pc in 0.0f64..=1.0, frac in 0.0f64..=1.0) {
        let pd = (1.0 - pc) * frac;
        let sp = reduced_samples(s, pc, pd);
        prop_assert!(sp <= s);
        prop_assert!(reduced_samples(s, pc.min(1.0), 0.0) <= reduced_samples(s, pc / 2.0, 0.0) + 1);
        prop_assert!(reduced_samples(s, 0.0, pd) <= reduced_samples(s, 0.0, pd / 2.0) + 1);
    }

    /// `parallel_parts` only changes the schedule, never the draws: the
    /// parallel and sequential paths must agree bit for bit, including on
    /// width-bounded (sampling) configurations with many decomposed parts.
    #[test]
    fn parallel_parts_bit_identical_to_sequential(
        g in small_graph(),
        t0 in 0usize..8,
        t1 in 0usize..8,
        w in 1usize..6,
        seed in 0u64..1000,
    ) {
        let mut t = vec![t0, t1];
        t.sort_unstable();
        t.dedup();
        prop_assume!(t.len() == 2);
        let seq_cfg = ProConfig {
            s2bdd: S2BddConfig { max_width: w, samples: 300, seed, ..Default::default() },
            ..Default::default()
        };
        let par_cfg = ProConfig { parallel_parts: true, ..seq_cfg };
        let a = pro_reliability(&g, &t, seq_cfg).unwrap();
        let b = pro_reliability(&g, &t, par_cfg).unwrap();
        prop_assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
        prop_assert_eq!(a.lower_bound.to_bits(), b.lower_bound.to_bits());
        prop_assert_eq!(a.upper_bound.to_bits(), b.upper_bound.to_bits());
        prop_assert_eq!(a.variance_estimate.to_bits(), b.variance_estimate.to_bits());
        prop_assert_eq!(a.samples_used, b.samples_used);
        prop_assert_eq!(a.exact, b.exact);
    }

    /// The batched engine is an optimization, not a different algorithm:
    /// batch answers match one-shot `pro_reliability` bit for bit on every
    /// query, whatever the batch composition and cache state.
    #[test]
    fn engine_batch_matches_oneshot(
        g in small_graph(),
        t0 in 0usize..8,
        t1 in 0usize..8,
        w in 1usize..6,
        seed in 0u64..1000,
    ) {
        let mut t = vec![t0, t1];
        t.sort_unstable();
        t.dedup();
        prop_assume!(t.len() == 2);
        let cfg = ProConfig {
            s2bdd: S2BddConfig { max_width: w, samples: 300, seed, ..Default::default() },
            ..Default::default()
        };
        let mut engine = Engine::new(EngineConfig::default());
        let id = engine.register("g", g.clone());
        // Issue the query twice plus a decoy so the second run crosses a
        // warm cache; every answer must still equal the one-shot result.
        let queries = vec![
            PlannedQuery::fixed(SemanticsSpec::KTerminal, t.clone(), cfg),
            PlannedQuery::fixed(SemanticsSpec::KTerminal, vec![t[0]], cfg),
            PlannedQuery::fixed(SemanticsSpec::KTerminal, t.clone(), cfg),
        ];
        let answers = engine.run_planned_batch(id, &queries).unwrap();
        let solo = pro_reliability(&g, &t, cfg).unwrap();
        for i in [0usize, 2] {
            let a = answers[i].as_ref().unwrap();
            prop_assert_eq!(a.estimate.to_bits(), solo.estimate.to_bits());
            prop_assert_eq!(a.lower_bound.to_bits(), solo.lower_bound.to_bits());
            prop_assert_eq!(a.upper_bound.to_bits(), solo.upper_bound.to_bits());
            prop_assert_eq!(a.samples_used, solo.samples_used);
            prop_assert_eq!(a.exact, solo.exact);
        }
    }

    /// Monte Carlo estimates are unbiased enough: with a generous budget the
    /// estimate lands within 6 binomial sigmas of the truth.
    #[test]
    fn flat_sampling_statistically_sound(g in small_graph(), seed in 0u64..50) {
        let t = vec![0usize, 7];
        let exact = brute_force_reliability(&g, &t);
        let s = 20_000usize;
        let r = sample_reliability(
            &g,
            &t,
            SamplingConfig { samples: s, seed, ..Default::default() },
        )
        .unwrap();
        let sigma = (exact * (1.0 - exact) / s as f64).sqrt();
        prop_assert!((r.estimate - exact).abs() <= 6.0 * sigma + 1e-9,
            "estimate {} vs exact {} (sigma {})", r.estimate, exact, sigma);
    }
}
