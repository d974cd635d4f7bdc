//! Hardware stride-prefetcher model.
//!
//! §3.1 of the paper: CPUs "employ complex caching and prefetching
//! techniques to offset the processor-memory disparity by exploiting the
//! regular access pattern", but "the indirect and irregular accesses
//! render the data prefetching in the Aggregation phase ineffective,
//! since it is difficult to predict the data addresses without knowing
//! the indices of neighbors in advance".
//!
//! The model is a classic per-stream stride detector in front of the
//! cache hierarchy: it tracks the last few miss addresses, and when two
//! consecutive misses exhibit a stable stride it prefetches `depth`
//! lines ahead. Useful prefetches turn demand misses into hits;
//! useless ones are counted (they waste bandwidth on a real machine).

use crate::cache::Hierarchy;
use hygcn_mem::cast::widen_u64;
use std::collections::BTreeSet;

/// Number of independent stride streams tracked (one per access PC in
/// real hardware; our traces have few logical streams).
const STREAMS: usize = 8;

/// A stride prefetcher wrapped around a [`Hierarchy`].
#[derive(Debug, Clone)]
pub struct PrefetchingHierarchy {
    inner: Hierarchy,
    line: u64,
    depth: u64,
    streams: Vec<Stream>,
    prefetched: BTreeSet<u64>,
    issued: u64,
    useful: u64,
    demand_accesses: u64,
    demand_covered: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct Stream {
    last: u64,
    /// Signed line-address delta; `i128` holds any difference of two
    /// `u64` addresses exactly.
    stride: i128,
    confirmed: bool,
}

impl PrefetchingHierarchy {
    /// Wraps `inner` with a stride prefetcher fetching `depth` lines
    /// ahead once a stride is confirmed.
    pub fn new(inner: Hierarchy, depth: u64) -> Self {
        Self {
            inner,
            line: 64,
            depth: depth.max(1),
            streams: vec![Stream::default(); STREAMS],
            prefetched: BTreeSet::new(),
            issued: 0,
            useful: 0,
            demand_accesses: 0,
            demand_covered: 0,
        }
    }

    /// Demand access from logical stream `stream` (e.g. 0 = edges,
    /// 1 = features, 2 = accumulators).
    pub fn access(&mut self, stream: usize, addr: u64) {
        let line_addr = addr / self.line * self.line;
        self.demand_accesses += 1;
        if self.prefetched.remove(&line_addr) {
            // Covered by an earlier prefetch: the line is already (being)
            // fetched; count it and touch the hierarchy so LRU state
            // matches (the fetch itself already happened).
            self.useful += 1;
            self.demand_covered += 1;
            self.inner.access(line_addr);
        } else {
            self.inner.access(line_addr);
        }
        self.train_and_issue(stream % STREAMS, line_addr);
    }

    /// Demand access over a byte range.
    pub fn access_range(&mut self, stream: usize, addr: u64, bytes: u64) {
        let mut a = addr / self.line * self.line;
        while a < addr + bytes {
            self.access(stream, a);
            a += self.line;
        }
    }

    fn train_and_issue(&mut self, s: usize, line_addr: u64) {
        let st = &mut self.streams[s];
        let stride = i128::from(line_addr) - i128::from(st.last);
        if st.last != 0 && stride != 0 && stride == st.stride {
            st.confirmed = true;
        } else if st.last != 0 {
            st.stride = stride;
            st.confirmed = false;
        }
        st.last = line_addr;
        if st.confirmed {
            let stride = st.stride;
            for k in 1..=self.depth {
                let target = i128::from(line_addr) + stride * i128::from(k);
                if let Ok(t) = u64::try_from(target) {
                    if self.prefetched.insert(t) {
                        // Fetch into the hierarchy now (timing-less model:
                        // we only care about miss coverage).
                        self.inner.access(t);
                        self.issued += 1;
                    }
                }
            }
        }
    }

    /// Fraction of demand accesses covered by prefetches, in `[0, 1]`.
    pub fn coverage(&self) -> f64 {
        if self.demand_accesses == 0 {
            0.0
        } else {
            self.demand_covered as f64 / self.demand_accesses as f64
        }
    }

    /// Fraction of issued prefetches that were ever used.
    pub fn accuracy(&self) -> f64 {
        if self.issued == 0 {
            0.0
        } else {
            self.useful as f64 / self.issued as f64
        }
    }

    /// Prefetches issued.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// The wrapped hierarchy.
    pub fn inner(&self) -> &Hierarchy {
        &self.inner
    }
}

/// Measures prefetcher effectiveness on the two phases' access patterns
/// over `graph`: returns `(aggregation_coverage, combination_coverage)`.
///
/// The combination trace is a dense stream over the feature matrix (the
/// GEMM's row-major walk); the aggregation trace is the per-edge gather
/// of [`crate::trace`]. The paper's claim is that the former prefetches
/// nearly perfectly while the latter does not.
pub fn phase_prefetch_coverage(
    graph: &hygcn_graph::Graph,
    agg_width: usize,
    max_edges: u64,
) -> (f64, f64) {
    let row_bytes = widen_u64(agg_width * 4);

    // Aggregation: edge-indexed gathers — the row-leading address of each
    // gather depends on the neighbor id, unpredictable to a stride
    // detector. (The remaining lines *within* a row are trivially
    // sequential in both phases, so the leading access is the
    // discriminating latency; we measure exactly that stream.)
    let mut agg = PrefetchingHierarchy::new(Hierarchy::xeon(), 4);
    let edge_base = widen_u64(graph.num_vertices()) * row_bytes;
    let mut edges = 0u64;
    for &src in graph.csc().raw_sources() {
        agg.access(0, edge_base + edges * 4);
        agg.access(1, u64::from(src) * row_bytes);
        edges += 1;
        if edges >= max_edges {
            break;
        }
    }

    // Combination: a sequential sweep of the same feature matrix.
    let mut comb = PrefetchingHierarchy::new(Hierarchy::xeon(), 4);
    let total = widen_u64(graph.num_vertices()) * row_bytes;
    let mut addr = 0u64;
    while addr < total {
        comb.access(0, addr);
        addr += 64;
    }

    (agg.coverage(), comb.coverage())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hygcn_graph::generator::{rmat, RmatParams};

    #[test]
    fn sequential_stream_is_covered() {
        let mut p = PrefetchingHierarchy::new(Hierarchy::xeon(), 4);
        for i in 0..4096u64 {
            p.access(0, i * 64);
        }
        assert!(p.coverage() > 0.9, "coverage {}", p.coverage());
        assert!(p.accuracy() > 0.9, "accuracy {}", p.accuracy());
    }

    #[test]
    fn strided_stream_is_covered() {
        let mut p = PrefetchingHierarchy::new(Hierarchy::xeon(), 4);
        for i in 0..2048u64 {
            p.access(0, i * 256); // stride of 4 lines
        }
        assert!(p.coverage() > 0.8, "coverage {}", p.coverage());
    }

    #[test]
    fn random_stream_is_not_covered() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut p = PrefetchingHierarchy::new(Hierarchy::xeon(), 4);
        for _ in 0..4096 {
            p.access(0, rng.gen_range(0..(1u64 << 30)) / 64 * 64);
        }
        assert!(p.coverage() < 0.1, "coverage {}", p.coverage());
    }

    #[test]
    fn paper_claim_prefetch_ineffective_for_aggregation() {
        let g = rmat(4096, 40_000, RmatParams::default(), 9)
            .unwrap()
            .with_feature_len(128);
        let (agg, comb) = phase_prefetch_coverage(&g, 128, 100_000);
        // §3.1: combination's regular walk prefetches nearly perfectly;
        // aggregation's indirect gathers do not.
        assert!(comb > 0.9, "combination coverage {comb}");
        assert!(agg < 0.35, "aggregation coverage {agg}");
        assert!(comb > 2.0 * agg, "comb {comb} vs agg {agg}");
    }

    #[test]
    fn empty_prefetcher_stats() {
        let p = PrefetchingHierarchy::new(Hierarchy::xeon(), 4);
        assert_eq!(p.coverage(), 0.0);
        assert_eq!(p.accuracy(), 0.0);
        assert_eq!(p.issued(), 0);
    }

    #[test]
    fn multiple_streams_tracked_independently() {
        let mut p = PrefetchingHierarchy::new(Hierarchy::xeon(), 2);
        // Two interleaved sequential streams at distant bases.
        for i in 0..1024u64 {
            p.access(0, i * 64);
            p.access(1, (1 << 30) + i * 64);
        }
        assert!(p.coverage() > 0.8, "coverage {}", p.coverage());
    }
}
