//! Exact reliability solvers.
//!
//! For small graphs (after preprocessing) the unbounded-width S2BDD computes
//! `R[G, T]` exactly — this is what the paper uses as ground truth for its
//! accuracy experiments (Tables 3–4). For tiny graphs the brute-force
//! enumerator from `netrel-bdd` remains available as an independent oracle.

use crate::pro::{pro_reliability, ProConfig};
use crate::semantics::{combine_semantics_plan, exact_semantics_part, SemanticsSpec};
use netrel_preprocess::{GraphIndex, PreprocessConfig};
use netrel_s2bdd::S2BddConfig;
use netrel_ugraph::{GraphError, UncertainGraph, VertexId};

/// Exact `R[G, T]` via preprocessing plus an unbounded-width S2BDD.
///
/// Feasible whenever the decomposed components' frontier-based diagrams fit
/// in memory — in practice graphs up to a few hundred edges per 2-edge-
/// connected component, far beyond the brute-force limit.
pub fn exact_reliability(g: &UncertainGraph, terminals: &[VertexId]) -> Result<f64, GraphError> {
    let cfg = ProConfig {
        s2bdd: S2BddConfig::exact(),
        preprocess: PreprocessConfig::default(),
    };
    let r = pro_reliability(g, terminals, cfg)?;
    debug_assert!(r.exact, "unbounded-width S2BDD must be exact");
    Ok(r.estimate)
}

/// Exact value of *any* [`SemanticsSpec`] on `(g, terminals)`: plan with
/// the semantics' preprocessing, then solve every part with its exact
/// solver — unbounded-width S2BDD for connectivity parts, full recursive
/// conditioning for d-hop parts (no
/// [`DHOP_EXACT_EDGE_LIMIT`](crate::DHOP_EXACT_EDGE_LIMIT) fallback, so
/// d-hop cost is `O(2^|E|)` worst case on the *pruned* part).
pub fn exact_semantics_value(
    g: &UncertainGraph,
    spec: SemanticsSpec,
    terminals: &[VertexId],
) -> Result<f64, GraphError> {
    let index = GraphIndex::build(g);
    let plan = spec.plan(g, &index, terminals, PreprocessConfig::default())?;
    let solved = plan
        .parts
        .iter()
        .map(exact_semantics_part)
        .collect::<Result<Vec<_>, _>>()?;
    let r = combine_semantics_plan(&plan, solved);
    debug_assert!(r.exact, "exact part solvers must yield an exact combine");
    Ok(r.estimate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netrel_bdd::brute_force_reliability;

    #[test]
    fn matches_brute_force() {
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
        for t in [vec![0, 3], vec![0, 3, 4], vec![1, 2, 3, 4]] {
            let expect = brute_force_reliability(&g, &t);
            let got = exact_reliability(&g, &t).unwrap();
            assert!((got - expect).abs() < 1e-12, "{t:?}");
        }
    }

    #[test]
    fn handles_instances_beyond_brute_force() {
        // A 3xN grid has far too many edges for enumeration but a tiny
        // frontier; exactness comes from the S2BDD.
        let cols = 12usize;
        let mut edges = Vec::new();
        for c in 0..cols {
            for r in 0..3usize {
                let v = c * 3 + r;
                if r + 1 < 3 {
                    edges.push((v, v + 1, 0.9));
                }
                if c + 1 < cols {
                    edges.push((v, v + 3, 0.9));
                }
            }
        }
        let g = UncertainGraph::new(3 * cols, edges).unwrap();
        let r = exact_reliability(&g, &[0, 3 * cols - 1]).unwrap();
        assert!(r > 0.5 && r < 1.0, "grid reliability {r}");
    }

    #[test]
    fn invalid_terminals_error() {
        let g = UncertainGraph::new(2, [(0, 1, 0.5)]).unwrap();
        assert!(exact_reliability(&g, &[]).is_err());
        assert!(exact_reliability(&g, &[9]).is_err());
    }
}
