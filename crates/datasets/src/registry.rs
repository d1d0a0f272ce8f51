//! The dataset registry mirroring the paper's Table 2.

use crate::gen;
use crate::karate;
use crate::prob::ProbModel;
use netrel_ugraph::UncertainGraph;

/// The seven evaluation datasets of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// Zachary-karate-club (social, embedded verbatim).
    Karate,
    /// American-Revolution (affiliation).
    AmRv,
    /// DBLP before 2000 (co-authorship).
    Dblp1,
    /// DBLP after 2000 (co-authorship).
    Dblp2,
    /// Tokyo (road network).
    Tokyo,
    /// New York City (road network).
    Nyc,
    /// Hit-direct (protein interaction).
    HitD,
}

/// Target statistics from the paper's Table 2.
#[derive(Clone, Copy, Debug)]
pub struct DatasetSpec {
    /// Full dataset name.
    pub name: &'static str,
    /// Paper abbreviation.
    pub abbr: &'static str,
    /// Graph type.
    pub kind: &'static str,
    /// Vertex count reported in Table 2.
    pub vertices: usize,
    /// Edge count reported in Table 2.
    pub edges: usize,
    /// Average degree reported in Table 2.
    pub avg_degree: f64,
    /// Average probability reported in Table 2.
    pub avg_prob: f64,
}

impl Dataset {
    /// All datasets, small then large, in the paper's Table 2 order.
    pub const ALL: [Dataset; 7] = [
        Dataset::Karate,
        Dataset::AmRv,
        Dataset::Dblp1,
        Dataset::Dblp2,
        Dataset::Tokyo,
        Dataset::Nyc,
        Dataset::HitD,
    ];

    /// The five large datasets (efficiency experiments, Figures 3–5).
    pub const LARGE: [Dataset; 5] = [
        Dataset::Dblp1,
        Dataset::Dblp2,
        Dataset::Tokyo,
        Dataset::Nyc,
        Dataset::HitD,
    ];

    /// Paper-reported statistics.
    pub fn spec(self) -> DatasetSpec {
        match self {
            Dataset::Karate => DatasetSpec {
                name: "Zachary-karate-club",
                abbr: "Karate",
                kind: "Social",
                vertices: 34,
                edges: 78,
                avg_degree: 4.59,
                avg_prob: 0.527,
            },
            Dataset::AmRv => DatasetSpec {
                name: "American-Revolution",
                abbr: "Am-Rv",
                kind: "Affiliation",
                vertices: 141,
                edges: 160,
                avg_degree: 2.27,
                avg_prob: 0.528,
            },
            Dataset::Dblp1 => DatasetSpec {
                name: "DBLP before 2000",
                abbr: "DBLP1",
                kind: "Coauthorship",
                vertices: 25_871,
                edges: 108_459,
                avg_degree: 8.38,
                avg_prob: 0.222,
            },
            Dataset::Dblp2 => DatasetSpec {
                name: "DBLP after 2000",
                abbr: "DBLP2",
                kind: "Coauthorship",
                vertices: 48_938,
                edges: 136_034,
                avg_degree: 5.56,
                avg_prob: 0.203,
            },
            Dataset::Tokyo => DatasetSpec {
                name: "Tokyo",
                abbr: "Tokyo",
                kind: "Road network",
                vertices: 26_370,
                edges: 32_298,
                avg_degree: 2.45,
                avg_prob: 0.391,
            },
            Dataset::Nyc => DatasetSpec {
                name: "New York City",
                abbr: "NYC",
                kind: "Road network",
                vertices: 180_188,
                edges: 208_441,
                avg_degree: 2.31,
                avg_prob: 0.294,
            },
            Dataset::HitD => DatasetSpec {
                name: "Hit-direct",
                abbr: "Hit-d",
                kind: "Protein",
                vertices: 18_256,
                edges: 248_770,
                avg_degree: 27.25,
                avg_prob: 0.470,
            },
        }
    }

    /// Whether this is one of the five large efficiency datasets.
    pub fn is_large(self) -> bool {
        Dataset::LARGE.contains(&self)
    }

    /// Instantiate the dataset. The two small datasets ignore `scale`; the
    /// five large synthetic stand-ins scale their vertex counts by `scale`
    /// (e.g. `0.05` for quick laptop runs, `1.0` for full Table 2 size).
    /// Deterministic for a given `(scale, seed)`.
    pub fn generate(self, scale: f64, seed: u64) -> UncertainGraph {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        let spec = self.spec();
        let scaled = |v: usize| ((v as f64 * scale).round() as usize).max(32);
        match self {
            Dataset::Karate => karate::karate(seed),
            Dataset::AmRv => {
                // KONECT brunson_revolution: 141 vertices = 136 persons + 5
                // organizations, 160 memberships. The small organization side
                // matters: it is what keeps the 2-edge-connected cores tiny
                // after preprocessing, which is the property Table 4 exercises
                // (Pro resolves Am-Rv *exactly* at the default width).
                let w = gen::affiliation(136, 5, 160, seed);
                ProbModel::Uniform { lo: 0.05, hi: 1.0 }.build_graph(141, &w, seed)
            }
            Dataset::Dblp1 => {
                // α_M = 180 calibrates the paper's avg prob 0.222 against the
                // generator's co-paper weight distribution.
                let n = scaled(spec.vertices);
                let w = gen::coauthor(n, spec.avg_degree, seed);
                ProbModel::LogWeightMax { alpha_max: 180.0 }.build_graph(n, &w, seed)
            }
            Dataset::Dblp2 => {
                let n = scaled(spec.vertices);
                let w = gen::coauthor(n, spec.avg_degree, seed);
                ProbModel::LogWeightMax { alpha_max: 290.0 }.build_graph(n, &w, seed)
            }
            Dataset::Tokyo => {
                // α_M = 10 km roads reproduce avg prob ≈ 0.39 (Table 2).
                let n = scaled(spec.vertices);
                let side = (n as f64).sqrt().round() as usize;
                let w = gen::road_grid(side.max(2), side.max(2), spec.avg_degree, seed);
                ProbModel::LogWeightMax {
                    alpha_max: 10_000.0,
                }
                .build_graph(side.max(2) * side.max(2), &w, seed)
            }
            Dataset::Nyc => {
                // Longer maximum segments push NYC's avg prob down to ≈ 0.29.
                let n = scaled(spec.vertices);
                let side = (n as f64).sqrt().round() as usize;
                let w = gen::road_grid(side.max(2), side.max(2), spec.avg_degree, seed);
                ProbModel::LogWeightMax {
                    alpha_max: 244_000.0,
                }
                .build_graph(side.max(2) * side.max(2), &w, seed)
            }
            Dataset::HitD => {
                let n = scaled(spec.vertices);
                let w = gen::protein_interaction(n, spec.avg_degree, seed);
                // Beta(2, 2.26) has mean 0.470 = Table 2's Hit-d average.
                ProbModel::Score { a: 2.0, b: 2.26 }.build_graph(n, &w, seed)
            }
        }
    }
}

impl std::fmt::Display for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.spec().abbr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netrel_ugraph::GraphStats;

    #[test]
    fn all_datasets_generate_connected_graphs() {
        for ds in Dataset::ALL {
            let g = ds.generate(0.02_f64.max(0.02), 1);
            assert!(g.is_connected(), "{ds} disconnected");
            assert!(g.num_edges() > 0);
        }
    }

    #[test]
    fn small_datasets_exact_sizes() {
        let karate = Dataset::Karate.generate(1.0, 1);
        assert_eq!(karate.num_vertices(), 34);
        assert_eq!(karate.num_edges(), 78);
        let amrv = Dataset::AmRv.generate(1.0, 1);
        assert_eq!(amrv.num_vertices(), 141);
        let s = GraphStats::compute(&amrv);
        assert!(
            (s.avg_degree - 2.27).abs() < 0.35,
            "avg deg {}",
            s.avg_degree
        );
    }

    #[test]
    fn scaled_large_dataset_tracks_spec_density() {
        let g = Dataset::Dblp1.generate(0.05, 1);
        let s = GraphStats::compute(&g);
        let spec = Dataset::Dblp1.spec();
        assert!(
            (s.avg_degree - spec.avg_degree).abs() < 1.6,
            "avg deg {} vs {}",
            s.avg_degree,
            spec.avg_degree
        );
        // Calibrated log-weight probabilities land in the paper's low range.
        assert!((s.avg_prob - 0.222).abs() < 0.06, "avg prob {}", s.avg_prob);
    }

    #[test]
    fn road_networks_sparse() {
        let g = Dataset::Tokyo.generate(0.05, 2);
        let s = GraphStats::compute(&g);
        assert!(
            (2.0..2.7).contains(&s.avg_degree),
            "avg deg {}",
            s.avg_degree
        );
    }

    #[test]
    fn hitd_dense_with_scores() {
        let g = Dataset::HitD.generate(0.02, 3);
        let s = GraphStats::compute(&g);
        assert!(s.avg_degree > 20.0, "avg deg {}", s.avg_degree);
        assert!((s.avg_prob - 0.470).abs() < 0.05, "avg prob {}", s.avg_prob);
    }

    #[test]
    fn deterministic_generation() {
        let a = Dataset::Dblp2.generate(0.02, 5);
        let b = Dataset::Dblp2.generate(0.02, 5);
        assert_eq!(a.edges(), b.edges());
    }

    #[test]
    fn display_uses_abbreviation() {
        assert_eq!(Dataset::Nyc.to_string(), "NYC");
        assert_eq!(Dataset::HitD.to_string(), "Hit-d");
    }
}
