//! Golden bit fixtures for the S2BDD and the materialized BDD.
//!
//! The other suites compare solvers with brute force within a tolerance, or
//! compare two entry points that run the same S2BDD code, so neither notices
//! a rewrite of the layer loop that moves an answer by one ulp. These
//! fixtures pin the exact bits of the estimate, both bounds and the variance,
//! plus the construction counters, on cases chosen to exercise every order
//! the answer depends on: node processing order, insertion order into the
//! next layer, the first-inserted state winning a merge, `p_n` accumulation
//! order, the deleted-pool order, the priority-sort permutation including
//! ties (uniform probabilities), and the sampler's random stream.
//!
//! `peak_memory_bytes` is deliberately not pinned: it is an accounting
//! figure of the layer storage, not part of the answer.

use network_reliability::bdd::frontier::MergeRule;
use network_reliability::bdd::{FullBdd, FullBddConfig};
use network_reliability::datasets::karate::{karate, karate_fixed};
use network_reliability::prelude::*;
use network_reliability::s2bdd::{EstimatorKind, S2Bdd, S2BddConfig, S2BddResult};

/// Pinned fields of one S2BDD run.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    /// `to_bits()` of estimate, lower bound, upper bound, variance.
    bits: [u64; 4],
    /// nodes_created, samples_used, deleted_nodes, strata, peak_width,
    /// layers_completed.
    counts: [usize; 6],
    /// early_exit, node_cap_hit.
    flags: [bool; 2],
}

impl Golden {
    fn of(r: &S2BddResult) -> Self {
        Golden {
            bits: [
                r.estimate.to_bits(),
                r.lower_bound.to_bits(),
                r.upper_bound.to_bits(),
                r.variance_estimate.to_bits(),
            ],
            counts: [
                r.nodes_created,
                r.samples_used,
                r.deleted_nodes,
                r.strata,
                r.peak_width,
                r.layers_completed,
            ],
            flags: [r.early_exit, r.node_cap_hit],
        }
    }
}

const fn g(bits: [u64; 4], counts: [usize; 6], flags: [bool; 2]) -> Golden {
    Golden {
        bits,
        counts,
        flags,
    }
}

/// The paper's Figure 1 graph (uniform p = 0.7, so priorities tie) with
/// terminals {a, d, e}.
fn figure1() -> (UncertainGraph, Vec<usize>) {
    let g = UncertainGraph::new(
        5,
        [
            (0, 1, 0.7),
            (0, 2, 0.7),
            (1, 2, 0.7),
            (1, 3, 0.7),
            (2, 4, 0.7),
            (3, 4, 0.7),
        ],
    )
    .unwrap();
    (g, vec![0, 3, 4])
}

/// A `rows × cols` grid with every edge at probability `p`.
fn grid(rows: usize, cols: usize, p: f64) -> UncertainGraph {
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            let v = r * cols + c;
            if c + 1 < cols {
                edges.push((v, v + 1, p));
            }
            if r + 1 < rows {
                edges.push((v, v + cols, p));
            }
        }
    }
    UncertainGraph::new(rows * cols, edges).unwrap()
}

/// The smallest-id vertex exactly `hops` BFS hops from `src`.
fn vertex_at_hops(g: &UncertainGraph, src: usize, hops: usize) -> usize {
    let mut dist = vec![usize::MAX; g.num_vertices()];
    let mut queue = std::collections::VecDeque::from([src]);
    dist[src] = 0;
    while let Some(v) = queue.pop_front() {
        for &(w, _) in g.neighbors(v) {
            if dist[w] == usize::MAX {
                dist[w] = dist[v] + 1;
                queue.push_back(w);
            }
        }
    }
    (0..g.num_vertices())
        .find(|&v| dist[v] == hops)
        .expect("the graph reaches that far")
}

/// road-cold's bounded part configuration.
fn road_cold_config(seed: u64) -> S2BddConfig {
    S2BddConfig {
        max_width: 16,
        samples: 20_000,
        node_cap: 10_000,
        reduce_samples: true,
        seed,
        ..Default::default()
    }
}

/// Every pinned S2BDD run, by name, in table order.
fn s2bdd_cases() -> Vec<(String, Golden)> {
    let mut out = Vec::new();
    let mut push = |name: String, r: &S2BddResult| out.push((name, Golden::of(r)));
    let (fig1, t) = figure1();

    push(
        "fig1/exact".into(),
        &S2Bdd::solve(&fig1, &t, S2BddConfig::exact()).unwrap(),
    );
    for w in 1..=3 {
        let cfg = S2BddConfig {
            max_width: w,
            samples: 4000,
            ..Default::default()
        };
        push(
            format!("fig1/w{w}/mc"),
            &S2Bdd::solve(&fig1, &t, cfg).unwrap(),
        );
        let cfg = S2BddConfig {
            estimator: EstimatorKind::HorvitzThompson,
            seed: 11,
            ..cfg
        };
        push(
            format!("fig1/w{w}/ht"),
            &S2Bdd::solve(&fig1, &t, cfg).unwrap(),
        );
    }
    push(
        "fig1/exact-counts/exact".into(),
        &S2Bdd::solve(
            &fig1,
            &t,
            S2BddConfig {
                merge_rule: MergeRule::ExactCounts,
                ..S2BddConfig::exact()
            },
        )
        .unwrap(),
    );
    push(
        "fig1/exact-counts/w2".into(),
        &S2Bdd::solve(
            &fig1,
            &t,
            S2BddConfig {
                max_width: 2,
                samples: 4000,
                merge_rule: MergeRule::ExactCounts,
                seed: 5,
                ..Default::default()
            },
        )
        .unwrap(),
    );
    push(
        "fig1/node-cap".into(),
        &S2Bdd::solve(
            &fig1,
            &t,
            S2BddConfig {
                node_cap: 3,
                samples: 50_000,
                seed: 13,
                ..S2BddConfig::exact()
            },
        )
        .unwrap(),
    );
    push(
        "fig1/zero-samples".into(),
        &S2Bdd::solve(
            &fig1,
            &t,
            S2BddConfig {
                max_width: 1,
                samples: 0,
                ..Default::default()
            },
        )
        .unwrap(),
    );

    // Layers wider than 20 nodes take the standard library's full unstable
    // sort (shorter slices use insertion sort), and uniform probabilities
    // make many priorities tie.
    let grid = grid(5, 6, 0.5);
    push(
        "grid5x6/exact".into(),
        &S2Bdd::solve(&grid, &[0, 17, 29], S2BddConfig::exact()).unwrap(),
    );
    for estimator in [EstimatorKind::MonteCarlo, EstimatorKind::HorvitzThompson] {
        let cfg = S2BddConfig {
            max_width: 24,
            samples: 3000,
            estimator,
            seed: 3,
            ..Default::default()
        };
        push(
            format!("grid5x6/w24/{estimator:?}"),
            &S2Bdd::solve(&grid, &[0, 17, 29], cfg).unwrap(),
        );
    }
    let kf = karate_fixed(0.5);
    push(
        "karate-fixed/w32".into(),
        &S2Bdd::solve(
            &kf,
            &[0, 16, 33],
            S2BddConfig {
                max_width: 32,
                samples: 5000,
                seed: 21,
                ..Default::default()
            },
        )
        .unwrap(),
    );

    // road-cold's bounded route on a Tokyo-like road graph.
    let tokyo = Dataset::Tokyo.generate(0.05, 7);
    for hops in [8, 30] {
        let src = tokyo.num_vertices() / 2;
        let far = vertex_at_hops(&tokyo, src, hops);
        push(
            format!("tokyo/{hops}hops/road-cold"),
            &S2Bdd::solve(&tokyo, &[src, far], road_cold_config(7)).unwrap(),
        );
    }
    for (name, pro) in pro_runs() {
        for (i, part) in pro.parts.iter().enumerate() {
            push(format!("{name}/part{i}"), part);
        }
    }
    out
}

/// The pinned `pro_reliability` runs: road-cold's bounded configuration on a
/// Tokyo-like road graph with terminals 8 and 30 hops apart, and karate at
/// the paper default.
fn pro_runs() -> Vec<(String, ProResult)> {
    let tokyo = Dataset::Tokyo.generate(0.05, 7);
    let mut runs = Vec::new();
    for hops in [8, 30] {
        let src = tokyo.num_vertices() / 2;
        let terminals = [src, vertex_at_hops(&tokyo, src, hops)];
        let cfg = ProConfig {
            s2bdd: road_cold_config(7),
            ..ProConfig::paper_default(7)
        };
        let pro = pro_reliability(&tokyo, &terminals, cfg).unwrap();
        runs.push((format!("tokyo/{hops}hops/pro"), pro));
    }
    for (name, graph, terminals) in [
        ("karate", karate(7), vec![0, 33]),
        ("karate", karate(7), vec![0, 5, 16, 24, 33]),
        ("karate-fixed", karate_fixed(0.5), vec![0, 16, 33]),
    ] {
        let pro = pro_reliability(&graph, &terminals, ProConfig::paper_default(7)).unwrap();
        runs.push((format!("{name}/pro{terminals:?}"), pro));
    }
    runs
}

/// Every pinned top-level `pro_reliability` answer: `to_bits()` of
/// estimate, lower bound, upper bound, variance.
fn pro_cases() -> Vec<(String, [u64; 4])> {
    pro_runs()
        .into_iter()
        .map(|(name, r)| {
            (
                name,
                [
                    r.estimate.to_bits(),
                    r.lower_bound.to_bits(),
                    r.upper_bound.to_bits(),
                    r.variance_estimate.to_bits(),
                ],
            )
        })
        .collect()
}

/// Every pinned materialized BDD: node count and reliability bits.
fn full_cases() -> Vec<(String, usize, u64)> {
    let (fig1, t) = figure1();
    let mut out = Vec::new();
    for (name, graph, terminals) in [
        ("fig1", fig1, t),
        ("grid4x5", grid(4, 5, 0.5), vec![0, 7, 19]),
        ("grid5x6", grid(5, 6, 0.5), vec![0, 17, 29]),
    ] {
        for rule in [MergeRule::Pattern, MergeRule::ExactCounts] {
            let cfg = FullBddConfig {
                merge_rule: rule,
                ..Default::default()
            };
            let b = FullBdd::build(&graph, &terminals, cfg).unwrap();
            out.push((
                format!("{name}/{rule:?}"),
                b.node_count,
                b.reliability.to_bits(),
            ));
        }
    }
    out
}

const S2BDD_GOLDEN: &[(&str, Golden)] = &[
    (
        "fig1/exact",
        g(
            [
                0x3fe5a5093964a59c,
                0x3fe5a5093964a59c,
                0x3fe5a5093964a59c,
                0x0000000000000000,
            ],
            [13, 0, 0, 0, 3, 6],
            [false, false],
        ),
    ),
    (
        "fig1/w1/mc",
        g(
            [
                0x3fe5c193b3a68b1a,
                0x3fd3f9f01b866e42,
                0x3fef031ceaf251c2,
                0x3f0487f0d12c5cef,
            ],
            [6, 2628, 3, 3, 1, 6],
            [false, false],
        ),
    ),
    (
        "fig1/w1/ht",
        g(
            [
                0x3fe5a5093964a59a,
                0x3fd3f9f01b866e42,
                0x3fef031ceaf251c2,
                0x3f0476fe3e5e1c0d,
            ],
            [6, 2628, 3, 3, 1, 6],
            [false, false],
        ),
    ),
    (
        "fig1/w2/mc",
        g(
            [
                0x3fe5a411c2a02320,
                0x3fe0f809917939a7,
                0x3fe7b05b7cfe5860,
                0x3ee7540cbd54bce8,
            ],
            [10, 840, 1, 1, 2, 6],
            [false, false],
        ),
    ),
    (
        "fig1/w2/ht",
        g(
            [
                0x3fe5a5093964a59b,
                0x3fe0f809917939a7,
                0x3fe7b05b7cfe5860,
                0x3ee74ddb4ba68ecd,
            ],
            [10, 840, 1, 1, 2, 6],
            [false, false],
        ),
    ),
    (
        "fig1/w3/mc",
        g(
            [
                0x3fe5a5093964a59c,
                0x3fe5a5093964a59c,
                0x3fe5a5093964a59c,
                0x0000000000000000,
            ],
            [13, 0, 0, 0, 3, 6],
            [false, false],
        ),
    ),
    (
        "fig1/w3/ht",
        g(
            [
                0x3fe5a5093964a59c,
                0x3fe5a5093964a59c,
                0x3fe5a5093964a59c,
                0x0000000000000000,
            ],
            [13, 0, 0, 0, 3, 6],
            [false, false],
        ),
    ),
    (
        "fig1/exact-counts/exact",
        g(
            [
                0x3fe5a5093964a59c,
                0x3fe5a5093964a59c,
                0x3fe5a5093964a59c,
                0x0000000000000000,
            ],
            [14, 0, 0, 0, 3, 6],
            [false, false],
        ),
    ),
    (
        "fig1/exact-counts/w2",
        g(
            [
                0x3fe5c0bdcad14a0a,
                0x3fe0f809917939a7,
                0x3fe7b05b7cfe5860,
                0x3ee694ca1cc63c86,
            ],
            [11, 840, 1, 1, 2, 6],
            [false, false],
        ),
    ),
    (
        "fig1/node-cap",
        g(
            [
                0x3fe590a41ffa34f0,
                0x0000000000000000,
                0x3fed1eb851eb851e,
                0x3ed01e1d9247e0a9,
            ],
            [6, 41404, 0, 1, 3, 2],
            [false, true],
        ),
    ),
    (
        "fig1/zero-samples",
        g(
            [
                0x3fd3f9f01b866e42,
                0x3fd3f9f01b866e42,
                0x3fef031ceaf251c2,
                0x0000000000000000,
            ],
            [6, 0, 3, 0, 1, 6],
            [false, false],
        ),
    ),
    (
        "grid5x6/exact",
        g(
            [
                0x3fb9bab86df09200,
                0x3fb9bab86df09200,
                0x3fb9bab86df09200,
                0x0000000000000000,
            ],
            [3975, 0, 0, 0, 297, 49],
            [false, false],
        ),
    ),
    (
        "grid5x6/w24/MonteCarlo",
        g(
            [
                0x3fbc2e2bb6593588,
                0x3f924067eb798c00,
                0x3fd9e26be9e218c0,
                0x3f07ce04b6b058e9,
            ],
            [907, 561, 223, 26, 24, 49],
            [false, false],
        ),
    ),
    (
        "grid5x6/w24/HorvitzThompson",
        g(
            [
                0x3fbae48c5768df43,
                0x3f924067eb798c00,
                0x3fd9e26be9e218c0,
                0x3f07bac922f4bb9d,
            ],
            [907, 561, 223, 26, 24, 49],
            [false, false],
        ),
    ),
    (
        "karate-fixed/w32",
        g(
            [
                0x3fe2e8a5eabfc360,
                0x3f1e471780000000,
                0x3fefffac00000000,
                0x3f0933d36cdf46c5,
            ],
            [1541, 5000, 492, 18, 32, 59],
            [true, false],
        ),
    ),
    (
        "tokyo/8hops/road-cold",
        g(
            [
                0x3f615442a26b45f1,
                0x0000000000000000,
                0x3fc34253e1c7ce24,
                0x3ea2f60532ef40df,
            ],
            [3138, 766, 1090, 96, 16, 206],
            [false, false],
        ),
    ),
    (
        "tokyo/30hops/road-cold",
        g(
            [
                0x0000000000000000,
                0x0000000000000000,
                0x3f8f1e7b36487740,
                0x0000000000000000,
            ],
            [1193, 37, 346, 35, 16, 100],
            [false, false],
        ),
    ),
    (
        "tokyo/8hops/pro/part0",
        g(
            [
                0x3f5b4bf93c883b7e,
                0x3ed7f0688ff18d45,
                0x3fb151b69f5c43d0,
                0x3ea38b0b017cc057,
            ],
            [2321, 284, 1041, 87, 16, 152],
            [false, false],
        ),
    ),
    (
        "tokyo/30hops/pro/part0",
        g(
            [
                0x0000000000000000,
                0x0000000000000000,
                0x3f8dd85d4e2ca440,
                0x0000000000000000,
            ],
            [3028, 127, 1214, 107, 16, 202],
            [false, false],
        ),
    ),
    (
        "karate/pro[0, 33]/part0",
        g(
            [
                0x3fefd49d7693408d,
                0x3fef3a71b02b5e33,
                0x3fefde8ed6db4bb6,
                0x3e7ed15b493c34ff,
            ],
            [154963, 199, 42832, 7, 10000, 56],
            [false, false],
        ),
    ),
    (
        "karate/pro[0, 5, 16, 24, 33]/part0",
        g(
            [
                0x3fe8133264b10a57,
                0x3fe7591cf867b628,
                0x3fe8770c1d664ffa,
                0x3eaa5fc3711e1ef3,
            ],
            [168746, 348, 48126, 7, 10000, 58],
            [false, false],
        ),
    ),
    (
        "karate-fixed/pro[0, 16, 33]/part0",
        g(
            [
                0x3fe3140801bb67b5,
                0x3fd5966704700000,
                0x3fe6c0d4e9800000,
                0x3edec1f9fcfaa824,
            ],
            [118963, 2940, 50495, 8, 10000, 35],
            [true, false],
        ),
    ),
];

const PRO_GOLDEN: &[(&str, [u64; 4])] = &[
    (
        "tokyo/8hops/pro",
        [
            0x3f5b4bf93c883b7e,
            0x3ed7f0688ff18d45,
            0x3fb151b69f5c43d0,
            0x3ea38b0b017cc058,
        ],
    ),
    (
        "tokyo/30hops/pro",
        [
            0x0000000000000000,
            0x0000000000000000,
            0x3f335a5a1d83aceb,
            0x0000000000000000,
        ],
    ),
    (
        "karate/pro[0, 33]",
        [
            0x3fefd49d7693408d,
            0x3fef3a71b02b5e33,
            0x3fefde8ed6db4bb6,
            0x3e7ed15b49000000,
        ],
    ),
    (
        "karate/pro[0, 5, 16, 24, 33]",
        [
            0x3fe8133264b10a57,
            0x3fe7591cf867b628,
            0x3fe8770c1d664ffa,
            0x3eaa5fc371200000,
        ],
    ),
    (
        "karate-fixed/pro[0, 16, 33]",
        [
            0x3fe3140801bb67b5,
            0x3fd5966704700000,
            0x3fe6c0d4e9800000,
            0x3edec1f9fcfb0000,
        ],
    ),
];

const FULL_GOLDEN: &[(&str, usize, u64)] = &[
    ("fig1/Pattern", 13, 0x3fe5a5093964a59a),
    ("fig1/ExactCounts", 14, 0x3fe5a5093964a59a),
    ("grid4x5/Pattern", 1221, 0x3fc36a3e39000000),
    ("grid4x5/ExactCounts", 1222, 0x3fc36a3e39000000),
    ("grid5x6/Pattern", 3975, 0x3fb9bab86df09200),
    ("grid5x6/ExactCounts", 3976, 0x3fb9bab86df09200),
];

#[test]
fn s2bdd_runs_match_golden_bits() {
    let got = s2bdd_cases();
    assert_eq!(got.len(), S2BDD_GOLDEN.len(), "case list changed");
    for ((name, golden), (want_name, want)) in got.iter().zip(S2BDD_GOLDEN) {
        assert_eq!(name, want_name);
        assert_eq!(golden, want, "{name}");
    }
}

#[test]
fn pro_answers_match_golden_bits() {
    let got = pro_cases();
    assert_eq!(got.len(), PRO_GOLDEN.len(), "case list changed");
    for ((name, bits), (want_name, want)) in got.iter().zip(PRO_GOLDEN) {
        assert_eq!(name, want_name);
        assert_eq!(bits, want, "{name}");
    }
}

#[test]
fn full_bdds_match_golden_bits() {
    let got = full_cases();
    assert_eq!(got.len(), FULL_GOLDEN.len(), "case list changed");
    for ((name, nodes, bits), (want_name, want_nodes, want_bits)) in got.iter().zip(FULL_GOLDEN) {
        assert_eq!(name, want_name);
        assert_eq!((nodes, bits), (want_nodes, want_bits), "{name}");
    }
}

/// The fixtures must exercise what they claim to: a layer wider than the
/// insertion-sort cut-off with tied priorities, deletions, both estimators'
/// strata, an early exit and a tripped node cap.
#[test]
fn fixtures_cover_the_orders_they_pin() {
    let cases = s2bdd_cases();
    let any = |f: &dyn Fn(&Golden) -> bool| cases.iter().any(|(_, c)| f(c));
    assert!(any(&|c| c.counts[4] > 20), "a layer wider than 20 nodes");
    assert!(any(&|c| c.counts[2] > 0), "deleted nodes");
    assert!(any(&|c| c.flags[0]), "an early exit");
    assert!(any(&|c| c.flags[1]), "a tripped node cap");
    assert!(
        any(&|c| c.counts[1] == 0 && c.counts[2] > 0),
        "zero samples"
    );
}
