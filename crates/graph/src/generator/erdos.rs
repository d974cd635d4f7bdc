//! Erdős–Rényi G(n, m) generator.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::EdgeSet;
use crate::{Coo, Graph, GraphError, VertexId};

/// Generates an undirected Erdős–Rényi graph with exactly `num_edges`
/// distinct undirected edges (stored as `2 * num_edges` directed edges).
///
/// # Errors
///
/// * [`GraphError::EmptyGraph`] if `num_vertices < 2`.
/// * [`GraphError::TooManyEdges`] if `num_edges > n*(n-1)/2`.
pub fn erdos_renyi(num_vertices: usize, num_edges: usize, seed: u64) -> Result<Graph, GraphError> {
    if num_vertices < 2 {
        return Err(GraphError::EmptyGraph);
    }
    let capacity = num_vertices * (num_vertices - 1) / 2;
    if num_edges > capacity {
        return Err(GraphError::TooManyEdges {
            requested: num_edges,
            capacity,
        });
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = EdgeSet::new(num_vertices, num_edges);
    let mut coo = Coo::new(num_vertices);
    let n = num_vertices as VertexId;
    let mut added = 0;
    while added < num_edges {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a == b {
            continue;
        }
        if seen.insert(a.min(b), a.max(b)) {
            coo.push_undirected(a, b)?;
            added += 1;
        }
    }
    Ok(Graph::from_coo(&coo, 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_edge_count() {
        let g = erdos_renyi(50, 100, 3).unwrap();
        assert_eq!(g.num_edges(), 200);
    }

    #[test]
    fn symmetric() {
        let g = erdos_renyi(30, 60, 5).unwrap();
        for v in 0..30 {
            for &u in g.in_neighbors(v) {
                assert!(g.in_neighbors(u).contains(&v));
            }
        }
    }

    #[test]
    fn no_self_loops() {
        let g = erdos_renyi(20, 50, 7).unwrap();
        for v in 0..20 {
            assert!(!g.in_neighbors(v).contains(&v));
        }
    }

    #[test]
    fn rejects_overfull() {
        assert!(matches!(
            erdos_renyi(4, 7, 0),
            Err(GraphError::TooManyEdges { .. })
        ));
    }

    #[test]
    fn rejects_trivial() {
        assert!(matches!(erdos_renyi(1, 0, 0), Err(GraphError::EmptyGraph)));
    }

    #[test]
    fn deterministic() {
        let a = erdos_renyi(40, 80, 11).unwrap();
        let b = erdos_renyi(40, 80, 11).unwrap();
        assert_eq!(a, b);
    }

    /// Pins the exact graphs the generator emits, across both
    /// [`EdgeSet`] representations (the last request is sparse enough
    /// for the ordered set) and a complete graph.
    #[test]
    fn outputs_are_pinned_by_content_hash() {
        let pinned: [(usize, usize, u64, u64); 4] = [
            (512, 4096, 42, 0xe958_be08_1a0a_fc4a),
            (100, 400, 1, 0x89f9_eb5a_93ac_fcfa),
            (64, 2016, 3, 0x95de_fed8_59ec_7b84),
            (1000, 8000, 5, 0x43e4_d480_2dd6_c4f0),
        ];
        assert!(matches!(EdgeSet::new(1000, 8000), EdgeSet::Sorted(_)));
        for (n, m, seed, want) in pinned {
            let g = erdos_renyi(n, m, seed).unwrap();
            assert_eq!(g.content_hash(), want, "erdos_renyi({n}, {m}, seed {seed})");
        }
    }

    #[test]
    fn complete_graph_possible() {
        let g = erdos_renyi(5, 10, 1).unwrap();
        assert_eq!(g.num_edges(), 20);
        for v in 0..5 {
            assert_eq!(g.in_degree(v), 4);
        }
    }
}
