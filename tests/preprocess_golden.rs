//! Golden digests of the preprocessing pipeline's output.
//!
//! `preprocess` is a wrapper that builds a `GraphIndex` and calls
//! `preprocess_with_index`, so a test comparing the two cannot notice a
//! rewrite of either that changes what they both return. These fixtures pin
//! `preprocess_with_index` itself: the bits of `pb`, `trivially_zero`, every
//! statistic, and per part the vertex count, the `(u, v, p bits)` edge list
//! in order and the terminals in order. That is everything the solvers
//! downstream read, so a change of planning code that keeps these digests
//! keeps every answer.
//!
//! The graphs are the serve benchmark's road and protein graphs plus the
//! lollipop fixture of the preprocessing unit tests, each under the default
//! configuration and with pruning off (decompose then reads the shared
//! index of the input graph directly).

use network_reliability::graph::VertexId;
use network_reliability::prelude::*;
use network_reliability::preprocessing::{
    preprocess_with_index, GraphIndex, PreprocessConfig, Preprocessed,
};

/// Pinned fields of one preprocessing run.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    /// `pb.to_bits()`.
    pb: u64,
    /// Number of residual parts.
    parts: usize,
    /// FNV-1a digest of the whole output (see [`digest`]).
    digest: u64,
}

const fn g(pb: u64, parts: usize, digest: u64) -> Golden {
    Golden { pb, parts, digest }
}

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Digest every byte of `pre` that a solver or a response reads.
fn digest(pre: &Preprocessed) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.word(pre.pb.to_bits());
    h.word(u64::from(pre.trivially_zero));
    let s = &pre.stats;
    for x in [
        s.original_edges,
        s.pruned_edges,
        s.num_parts,
        s.max_part_edges,
        s.transform_rules,
    ] {
        h.word(x as u64);
    }
    h.word(s.reduced_ratio.to_bits());
    h.word(pre.parts.len() as u64);
    for part in &pre.parts {
        h.word(part.graph.num_vertices() as u64);
        h.word(part.graph.num_edges() as u64);
        for e in part.graph.edges() {
            h.word(e.u as u64);
            h.word(e.v as u64);
            h.word(e.p.to_bits());
        }
        h.word(part.terminals.len() as u64);
        for &t in &part.terminals {
            h.word(t as u64);
        }
    }
    h.0
}

/// Triangle {0,1,2} — bridge — triangle {3,4,5} — pendant path 5-6-7; with
/// `island`, also a detached edge 8-9 that no lollipop vertex can reach.
fn lollipop(island: bool) -> UncertainGraph {
    let mut edges = vec![
        (0, 1, 0.5),
        (1, 2, 0.6),
        (0, 2, 0.7),
        (2, 3, 0.8),
        (3, 4, 0.5),
        (4, 5, 0.6),
        (3, 5, 0.7),
        (5, 6, 0.9),
        (6, 7, 0.9),
    ];
    if island {
        edges.push((8, 9, 0.5));
    }
    UncertainGraph::new(if island { 10 } else { 8 }, edges).unwrap()
}

/// The smallest-id vertex `hops` BFS hops from `src`, or as far as the graph
/// reaches when its eccentricity is smaller.
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
    let reach = dist.iter().filter(|&&d| d != usize::MAX).max().unwrap();
    let hops = hops.min(*reach);
    (0..g.num_vertices()).find(|&v| dist[v] == hops).unwrap()
}

/// Pairs near and far, and 3- and 4-terminal sets spread over the ids. On
/// the road graph the second set of each size leaves two parts.
fn spread_terminal_sets(g: &UncertainGraph) -> Vec<Vec<VertexId>> {
    let n = g.num_vertices();
    vec![
        vec![n / 2, vertex_at_hops(g, n / 2, 8)],
        vec![n / 3, 2 * n / 3],
        vec![0, n - 1],
        vec![n / 7, n / 2, 6 * n / 7],
        vec![10, n / 2, n - 10],
        vec![n / 5, 2 * n / 5, 3 * n / 5, 4 * n / 5],
        vec![n / 11, 3 * n / 11, 5 * n / 11, 10 * n / 11],
    ]
}

/// Every pinned run, by name, in table order.
fn cases() -> Vec<(String, Preprocessed)> {
    let mut fixtures = Vec::new();
    for (name, graph) in [
        ("tokyo", Dataset::Tokyo.generate(0.05, 7)),
        ("hitd", Dataset::HitD.generate(0.01, 7)),
    ] {
        let sets = spread_terminal_sets(&graph);
        fixtures.push((name, graph, sets));
    }
    fixtures.push((
        "lollipop",
        lollipop(false),
        vec![
            vec![0, 4],
            vec![0, 7],
            vec![6, 7],
            vec![1, 4, 6],
            vec![0, 3, 5, 7],
        ],
    ));
    fixtures.push(("lollipop+island", lollipop(true), vec![vec![0, 9]]));

    let no_prune = PreprocessConfig {
        prune: false,
        ..Default::default()
    };
    let mut out = Vec::new();
    for (name, graph, sets) in fixtures {
        let index = GraphIndex::build(&graph);
        for terminals in sets {
            for (cfg_name, cfg) in [
                ("default", PreprocessConfig::default()),
                ("no-prune", no_prune),
            ] {
                let pre = preprocess_with_index(&graph, &index, &terminals, cfg).unwrap();
                out.push((format!("{name}/{terminals:?}/{cfg_name}"), pre));
            }
        }
    }
    out
}

const GOLDEN: &[(&str, Golden)] = &[
    (
        "tokyo/[648, 619]/default",
        g(0x3ff0000000000000, 1, 0x0d584dd104dd5f48),
    ),
    (
        "tokyo/[648, 619]/no-prune",
        g(0x3ff0000000000000, 1, 0x9cf10a9ee6e942e6),
    ),
    (
        "tokyo/[432, 864]/default",
        g(0x3fb745b30d19d496, 1, 0xb92731e34b12c00e),
    ),
    (
        "tokyo/[432, 864]/no-prune",
        g(0x3fb745b30d19d496, 1, 0xbff130b86c31708d),
    ),
    (
        "tokyo/[0, 1295]/default",
        g(0x3f4ba383e90201cc, 1, 0x5c6c6798a68abbb7),
    ),
    (
        "tokyo/[0, 1295]/no-prune",
        g(0x3f4ba383e90201cc, 1, 0x98a16e85171f3702),
    ),
    (
        "tokyo/[185, 648, 1110]/default",
        g(0x3ff0000000000000, 1, 0x1c9ce9fad1871a1a),
    ),
    (
        "tokyo/[185, 648, 1110]/no-prune",
        g(0x3ff0000000000000, 1, 0x7d84751ab7d892cc),
    ),
    (
        "tokyo/[10, 648, 1286]/default",
        g(0x3fc74accfd1f245f, 2, 0xae8417561dfd07d0),
    ),
    (
        "tokyo/[10, 648, 1286]/no-prune",
        g(0x3fc74accfd1f245f, 2, 0xd6d36b15c8df7b68),
    ),
    (
        "tokyo/[259, 518, 777, 1036]/default",
        g(0x3ff0000000000000, 1, 0x9fb91444ad6c897f),
    ),
    (
        "tokyo/[259, 518, 777, 1036]/no-prune",
        g(0x3ff0000000000000, 1, 0xb812796868af7b83),
    ),
    (
        "tokyo/[117, 353, 589, 1178]/default",
        g(0x3ef96d9f9a7a3fce, 2, 0x6f6f16860c3750c2),
    ),
    (
        "tokyo/[117, 353, 589, 1178]/no-prune",
        g(0x3ef96d9f9a7a3fce, 2, 0xc6421ce20fed6c8d),
    ),
    (
        "hitd/[91, 15]/default",
        g(0x3ff0000000000000, 1, 0x817c69a4be7c3b78),
    ),
    (
        "hitd/[91, 15]/no-prune",
        g(0x3ff0000000000000, 1, 0x817c69a4be7c3b78),
    ),
    (
        "hitd/[61, 122]/default",
        g(0x3ff0000000000000, 1, 0x4e0a36c562f309cb),
    ),
    (
        "hitd/[61, 122]/no-prune",
        g(0x3ff0000000000000, 1, 0x4e0a36c562f309cb),
    ),
    (
        "hitd/[0, 182]/default",
        g(0x3ff0000000000000, 1, 0x0d9a5fd2376adb3a),
    ),
    (
        "hitd/[0, 182]/no-prune",
        g(0x3ff0000000000000, 1, 0x0d9a5fd2376adb3a),
    ),
    (
        "hitd/[26, 91, 156]/default",
        g(0x3ff0000000000000, 1, 0x9de592c614421090),
    ),
    (
        "hitd/[26, 91, 156]/no-prune",
        g(0x3ff0000000000000, 1, 0x9de592c614421090),
    ),
    (
        "hitd/[10, 91, 173]/default",
        g(0x3ff0000000000000, 1, 0x21d4efa65a2a5ed1),
    ),
    (
        "hitd/[10, 91, 173]/no-prune",
        g(0x3ff0000000000000, 1, 0x21d4efa65a2a5ed1),
    ),
    (
        "hitd/[36, 73, 109, 146]/default",
        g(0x3ff0000000000000, 1, 0xe7ee75f1a1a90638),
    ),
    (
        "hitd/[36, 73, 109, 146]/no-prune",
        g(0x3ff0000000000000, 1, 0xe7ee75f1a1a90638),
    ),
    (
        "hitd/[16, 49, 83, 166]/default",
        g(0x3ff0000000000000, 1, 0x600b971eca316b7e),
    ),
    (
        "hitd/[16, 49, 83, 166]/no-prune",
        g(0x3ff0000000000000, 1, 0x600b971eca316b7e),
    ),
    (
        "lollipop/[0, 4]/default",
        g(0x3fe999999999999a, 2, 0xf1cc4d74b74a202c),
    ),
    (
        "lollipop/[0, 4]/no-prune",
        g(0x3fe999999999999a, 2, 0x00a77ba92b76e4a0),
    ),
    (
        "lollipop/[0, 7]/default",
        g(0x3fe4bc6a7ef9db24, 2, 0x868d4008b328dddc),
    ),
    (
        "lollipop/[0, 7]/no-prune",
        g(0x3fe4bc6a7ef9db24, 2, 0x868d4008b328dddc),
    ),
    (
        "lollipop/[6, 7]/default",
        g(0x3feccccccccccccd, 0, 0xa2726e3be4412c65),
    ),
    (
        "lollipop/[6, 7]/no-prune",
        g(0x3feccccccccccccd, 0, 0xea3fc316857cf26d),
    ),
    (
        "lollipop/[1, 4, 6]/default",
        g(0x3fe70a3d70a3d70b, 2, 0xe7a7c5e4bb5b23c8),
    ),
    (
        "lollipop/[1, 4, 6]/no-prune",
        g(0x3fe70a3d70a3d70b, 2, 0x8274037a01869ec1),
    ),
    (
        "lollipop/[0, 3, 5, 7]/default",
        g(0x3fe4bc6a7ef9db24, 2, 0x868d4008b328dddc),
    ),
    (
        "lollipop/[0, 3, 5, 7]/no-prune",
        g(0x3fe4bc6a7ef9db24, 2, 0x868d4008b328dddc),
    ),
    (
        "lollipop+island/[0, 9]/default",
        g(0x0000000000000000, 0, 0x39820a955d1c8a8e),
    ),
    (
        "lollipop+island/[0, 9]/no-prune",
        g(0x0000000000000000, 0, 0x5fc160841391d304),
    ),
];

#[test]
fn preprocess_with_index_matches_golden_digests() {
    let got = cases();
    assert_eq!(got.len(), GOLDEN.len(), "case list changed");
    for ((name, pre), (want_name, want)) in got.iter().zip(GOLDEN) {
        assert_eq!(name, want_name);
        let pinned = g(pre.pb.to_bits(), pre.parts.len(), digest(pre));
        assert_eq!(
            &pinned, want,
            "{name}: got g({:#018x}, {}, {:#018x})",
            pinned.pb, pinned.parts, pinned.digest
        );
    }
}

/// The fixtures must reach every branch of the output they pin: pruned
/// edges, bridges factored into `pb`, several parts, transform rules, and a
/// trivially zero terminal set under both configurations.
#[test]
fn fixtures_cover_what_they_pin() {
    let cases = cases();
    let any = |f: &dyn Fn(&Preprocessed) -> bool| cases.iter().any(|(_, p)| f(p));
    assert!(
        any(&|p| p.stats.pruned_edges < p.stats.original_edges && !p.trivially_zero),
        "pruned edges"
    );
    assert!(any(&|p| p.pb < 1.0 && p.pb > 0.0), "bridges in pb");
    assert!(
        cases
            .iter()
            .any(|(name, p)| name.starts_with("tokyo/") && p.parts.len() >= 2),
        "several parts of a road graph"
    );
    assert!(any(&|p| p.stats.transform_rules > 0), "transform rules");
    assert!(
        any(&|p| p.parts.is_empty() && !p.trivially_zero),
        "no parts"
    );
    let zero = cases.iter().filter(|(_, p)| p.trivially_zero).count();
    assert_eq!(zero, 2, "one trivially zero set per configuration");
}
