//! Synthetic graph generators.
//!
//! The paper evaluates on six real datasets (Table 4). Reproducing the
//! hardware mechanisms only requires graphs with matching *statistics* —
//! vertex count, edge count, degree skew, and community structure — because
//! every measured effect (feature reuse across overlapping neighborhoods,
//! window sparsity, row-buffer locality) is a function of those statistics.
//! Three families cover the datasets:
//!
//! * [`erdos_renyi`] — uniform random edges, the low-structure control.
//! * [`preferential_attachment`] — heavy-tailed degree distribution (pure
//!   global hubs).
//! * [`community_powerlaw`] — heavy-tailed degrees *plus* community
//!   locality, like citation networks (Cora, Citeseer, Pubmed); the
//!   locality is what window sliding/shrinking exploits.
//! * [`rmat`] — recursive-matrix graphs with power-law degrees *and*
//!   community blocks, like social graphs (Reddit, COLLAB).
//! * [`assembled_cliques`] — many small dense graphs packed into one, the
//!   paper's protocol for multi-graph datasets (IMDB-BIN, COLLAB): "the
//!   datasets with more than one graph are tested by assembling randomly
//!   selected 128 graphs into a large graph".

use std::collections::BTreeSet;

use crate::VertexId;

mod assembled;
mod community;
mod erdos;
mod powerlaw;
mod rmat;

pub use assembled::assembled_cliques;
pub use community::community_powerlaw;
pub use erdos::erdos_renyi;
pub use powerlaw::preferential_attachment;
pub use rmat::{rmat, RmatParams};

/// The undirected edges a generator has drawn so far, for rejecting
/// duplicate draws. Edges enter the COO in draw order, so the set only
/// answers membership and its layout never reaches the graph.
pub(crate) enum EdgeSet {
    /// One bit per `(min, max)` pair of an `n x n` matrix — chosen when
    /// those `n²` bits take no more memory than 64 bits per requested
    /// edge (dense requests, such as scaled-down Reddit or a COLLAB
    /// block).
    Bits { words: Vec<u64>, n: usize },
    /// Each edge as its `(min, max)` pair, for sparse requests.
    Sorted(BTreeSet<(VertexId, VertexId)>),
}

impl EdgeSet {
    /// An empty set for up to `num_edges` edges over ids `< num_vertices`.
    pub(crate) fn new(num_vertices: usize, num_edges: usize) -> Self {
        let bits = num_vertices.saturating_mul(num_vertices);
        if bits <= num_edges.saturating_mul(64) {
            EdgeSet::Bits {
                words: vec![0; bits.div_ceil(64)],
                n: num_vertices,
            }
        } else {
            EdgeSet::Sorted(BTreeSet::new())
        }
    }

    /// Adds the edge `(lo, hi)`, `lo < hi < n`; whether it was new.
    pub(crate) fn insert(&mut self, lo: VertexId, hi: VertexId) -> bool {
        match self {
            EdgeSet::Bits { words, n } => {
                let i = lo as usize * *n + hi as usize;
                let (word, bit) = (&mut words[i / 64], 1u64 << (i % 64));
                let new = *word & bit == 0;
                *word |= bit;
                new
            }
            EdgeSet::Sorted(set) => set.insert((lo, hi)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_generators_hit_requested_sizes() {
        let er = erdos_renyi(100, 400, 1).unwrap();
        assert_eq!(er.num_vertices(), 100);
        // Undirected edges are stored twice.
        assert_eq!(er.num_edges(), 800);

        let pa = preferential_attachment(100, 3, 1).unwrap();
        assert_eq!(pa.num_vertices(), 100);
        assert!(pa.num_edges() > 0);

        let rm = rmat(128, 512, RmatParams::default(), 1).unwrap();
        assert_eq!(rm.num_vertices(), 128);
        assert_eq!(rm.num_edges(), 1024);

        let ac = assembled_cliques(16, 4, 10, 1).unwrap();
        assert_eq!(ac.num_vertices(), 16 * 10);
    }
}
