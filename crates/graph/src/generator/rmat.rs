//! R-MAT (recursive matrix) generator.
//!
//! R-MAT recursively subdivides the adjacency matrix into quadrants with
//! probabilities `(a, b, c, d)`, producing both power-law degrees and
//! community blocks — the structure of social graphs like Reddit. The
//! default parameters `(0.57, 0.19, 0.19, 0.05)` are the Graph500 values.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::EdgeSet;
use crate::{Coo, Graph, GraphError, VertexId};

/// Quadrant probabilities of the recursive subdivision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmatParams {
    /// Top-left (dense core) probability.
    pub a: f64,
    /// Top-right probability.
    pub b: f64,
    /// Bottom-left probability.
    pub c: f64,
    /// Bottom-right probability (implied: `1 - a - b - c`).
    pub d: f64,
}

impl Default for RmatParams {
    /// Graph500 reference parameters.
    fn default() -> Self {
        Self {
            a: 0.57,
            b: 0.19,
            c: 0.19,
            d: 0.05,
        }
    }
}

impl RmatParams {
    /// Validates that the probabilities are non-negative and sum to ~1.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameter`] otherwise.
    pub fn validate(&self) -> Result<(), GraphError> {
        let sum = self.a + self.b + self.c + self.d;
        if self.a < 0.0 || self.b < 0.0 || self.c < 0.0 || self.d < 0.0 {
            return Err(GraphError::InvalidParameter(
                "rmat probabilities must be non-negative".into(),
            ));
        }
        if (sum - 1.0).abs() > 1e-6 {
            return Err(GraphError::InvalidParameter(format!(
                "rmat probabilities must sum to 1, got {sum}"
            )));
        }
        Ok(())
    }
}

/// Generates an undirected R-MAT graph with `num_edges` undirected edges
/// (duplicates are re-drawn, so the count is exact).
///
/// `num_vertices` is rounded up internally to a power of two for the
/// recursion and truncated back; edges landing on truncated ids are
/// re-drawn.
///
/// # Errors
///
/// * [`GraphError::EmptyGraph`] if `num_vertices < 2`.
/// * [`GraphError::InvalidParameter`] for invalid probabilities.
/// * [`GraphError::TooManyEdges`] if the requested count exceeds capacity.
pub fn rmat(
    num_vertices: usize,
    num_edges: usize,
    params: RmatParams,
    seed: u64,
) -> Result<Graph, GraphError> {
    if num_vertices < 2 {
        return Err(GraphError::EmptyGraph);
    }
    params.validate()?;
    let capacity = num_vertices * (num_vertices - 1) / 2;
    if num_edges > capacity {
        return Err(GraphError::TooManyEdges {
            requested: num_edges,
            capacity,
        });
    }
    let levels = usize::BITS - (num_vertices - 1).leading_zeros();
    let thresholds = Thresholds::new(&params);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = EdgeSet::new(num_vertices, num_edges);
    let mut coo = Coo::new(num_vertices);
    // Cap the retry budget: R-MAT cores saturate, and beyond the cap we
    // fill in uniform edges to guarantee the exact requested size.
    let mut attempts = 0usize;
    let max_attempts = num_edges.saturating_mul(64) + 1024;
    let mut added = 0usize;
    while added < num_edges {
        attempts += 1;
        let (src, dst) = if attempts <= max_attempts {
            draw_edge(&mut rng, levels, &thresholds)
        } else {
            (
                rng.gen_range(0..num_vertices as VertexId),
                rng.gen_range(0..num_vertices as VertexId),
            )
        };
        if src == dst || src as usize >= num_vertices || dst as usize >= num_vertices {
            continue;
        }
        if seen.insert(src.min(dst), src.max(dst)) {
            coo.push_undirected(src, dst)?;
            added += 1;
        }
    }
    Ok(Graph::from_coo(&coo, 1))
}

/// The cumulative quadrant thresholds of one [`rmat`] call, summed in
/// the order `a`, `+ b`, `+ c` so that every draw compares against the
/// same floats.
struct Thresholds {
    a: f64,
    ab: f64,
    abc: f64,
}

impl Thresholds {
    fn new(p: &RmatParams) -> Self {
        Self {
            a: p.a,
            ab: p.a + p.b,
            abc: p.a + p.b + p.c,
        }
    }

    /// The `(src, dst)` bits of the quadrant a uniform draw `r` picks:
    /// `[0, a)` top-left, `[a, a+b)` top-right, `[a+b, a+b+c)`
    /// bottom-left, the rest bottom-right. Computed without branches
    /// (the thresholds are non-decreasing because the probabilities are
    /// non-negative), since which quadrant wins is unpredictable.
    fn quadrant(&self, r: f64) -> (VertexId, VertexId) {
        let src = r >= self.ab;
        let dst = ((r >= self.a) & (r < self.ab)) | (r >= self.abc);
        (VertexId::from(src), VertexId::from(dst))
    }
}

fn draw_edge(rng: &mut StdRng, levels: u32, t: &Thresholds) -> (VertexId, VertexId) {
    let mut src: VertexId = 0;
    let mut dst: VertexId = 0;
    for _ in 0..levels {
        let (s, d) = t.quadrant(rng.gen());
        src = (src << 1) | s;
        dst = (dst << 1) | d;
    }
    (src, dst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::DegreeStats;
    use proptest::prelude::*;

    #[test]
    fn exact_edge_count_and_vertices() {
        let g = rmat(100, 300, RmatParams::default(), 2).unwrap();
        assert_eq!(g.num_vertices(), 100);
        assert_eq!(g.num_edges(), 600);
    }

    #[test]
    fn skewed_when_a_dominates() {
        let g = rmat(512, 4096, RmatParams::default(), 3).unwrap();
        let stats = DegreeStats::of(&g);
        assert!(stats.max as f64 > 3.0 * stats.mean);
    }

    #[test]
    fn uniform_params_behave_like_er() {
        let p = RmatParams {
            a: 0.25,
            b: 0.25,
            c: 0.25,
            d: 0.25,
        };
        let g = rmat(256, 1024, p, 4).unwrap();
        let stats = DegreeStats::of(&g);
        // Near-uniform: the max degree stays within a small factor of mean.
        assert!((stats.max as f64) < 4.0 * stats.mean);
    }

    #[test]
    fn invalid_params_rejected() {
        let p = RmatParams {
            a: 0.9,
            b: 0.3,
            c: 0.0,
            d: 0.0,
        };
        assert!(rmat(16, 10, p, 0).is_err());
    }

    #[test]
    fn negative_params_rejected() {
        let p = RmatParams {
            a: -0.1,
            b: 0.5,
            c: 0.3,
            d: 0.3,
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn deterministic() {
        let a = rmat(64, 128, RmatParams::default(), 9).unwrap();
        let b = rmat(64, 128, RmatParams::default(), 9).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn non_power_of_two_vertex_count() {
        let g = rmat(100, 200, RmatParams::default(), 5).unwrap();
        // All ids < 100 even though the recursion uses 128.
        for (s, d) in g.edges() {
            assert!(s < 100 && d < 100);
        }
    }

    /// Pins the exact graphs the generator emits: the dedup set decides
    /// which draws become edges, so any change to it (or to the RNG
    /// draw sequence) must leave these hashes alone. Covers both set
    /// representations (the second request is sparse enough for the
    /// ordered set), a complete graph that only the uniform fallback
    /// can finish, and Reddit at the figures' default scale (1/64 of
    /// its vertices and edges).
    #[test]
    fn outputs_are_pinned_by_content_hash() {
        let pinned: [(usize, usize, u64, u64); 4] = [
            (100, 300, 2, 0x9cdd_ff09_ef93_3662),
            (1000, 8000, 0x5EED, 0x815c_e87c_2fcb_2e26),
            (16, 120, 6, 0xdf4d_1720_9c84_dbd4),
            (3640, 895_436, 0x5EED, 0x1351_7c3f_58a9_adc8),
        ];
        assert!(matches!(EdgeSet::new(1000, 8000), EdgeSet::Sorted(_)));
        assert!(matches!(EdgeSet::new(3640, 895_436), EdgeSet::Bits { .. }));
        for (n, m, seed, want) in pinned {
            let g = rmat(n, m, RmatParams::default(), seed).unwrap();
            assert_eq!(g.num_edges(), 2 * m);
            assert_eq!(g.content_hash(), want, "rmat({n}, {m}, seed {seed:#x})");
        }
    }

    /// The quadrant choice `draw_edge` made before it went branch-free,
    /// kept as the reference the branch-free one must reproduce.
    fn quadrant_by_chain(r: f64, p: &RmatParams) -> (VertexId, VertexId) {
        if r < p.a {
            (0, 0)
        } else if r < p.a + p.b {
            (0, 1)
        } else if r < p.a + p.b + p.c {
            (1, 0)
        } else {
            (1, 1)
        }
    }

    /// Valid parameters other than the defaults; in four draws of five
    /// one of the probabilities (`d` among them) is forced to 0.
    fn arb_params() -> impl Strategy<Value = RmatParams> {
        (
            0.001f64..1.0,
            0.001f64..1.0,
            0.001f64..1.0,
            0.001f64..1.0,
            0usize..5,
        )
            .prop_map(|(a, b, c, d, zeroed)| {
                let mut w = [a, b, c, d];
                if let Some(x) = w.get_mut(zeroed) {
                    *x = 0.0;
                }
                let sum: f64 = w.iter().sum();
                let [a, b, c, d] = w.map(|x| x / sum);
                RmatParams { a, b, c, d }
            })
    }

    /// `r` itself and the floats either side of it.
    fn around(r: f64) -> [f64; 3] {
        [r.next_down(), r, r.next_up()]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// The branch-free quadrant equals the `if/else` chain for random
        /// draws and exactly at (and one float either side of) each
        /// threshold `a`, `a+b`, `a+b+c`.
        #[test]
        fn branch_free_quadrant_matches_the_chain(p in arb_params(), r in 0.0f64..1.0) {
            prop_assert!(p.validate().is_ok());
            let t = Thresholds::new(&p);
            let edges = [p.a, p.a + p.b, p.a + p.b + p.c];
            for r in std::iter::once(r).chain(edges.into_iter().flat_map(around)) {
                prop_assert_eq!(t.quadrant(r), quadrant_by_chain(r, &p), "r = {r}, {p:?}");
            }
        }
    }

    #[test]
    fn branch_free_quadrant_matches_the_chain_on_fixed_params() {
        let fixed = [
            RmatParams::default(),
            RmatParams {
                a: 0.5,
                b: 0.25,
                c: 0.25,
                d: 0.0,
            },
            RmatParams {
                a: 0.25,
                b: 0.25,
                c: 0.25,
                d: 0.25,
            },
            RmatParams {
                a: 1.0,
                b: 0.0,
                c: 0.0,
                d: 0.0,
            },
            RmatParams {
                a: 0.0,
                b: 0.0,
                c: 0.0,
                d: 1.0,
            },
        ];
        for p in fixed {
            let t = Thresholds::new(&p);
            let edges = [0.0, p.a, p.a + p.b, p.a + p.b + p.c, 1.0];
            for r in edges.into_iter().flat_map(around) {
                assert_eq!(t.quadrant(r), quadrant_by_chain(r, &p), "r = {r}, {p:?}");
            }
        }
    }

    #[test]
    fn dense_request_completes_via_fallback() {
        // Nearly complete graph: the R-MAT core alone would spin, the
        // uniform fallback must finish it.
        let g = rmat(16, 100, RmatParams::default(), 6).unwrap();
        assert_eq!(g.num_edges(), 200);
    }
}
