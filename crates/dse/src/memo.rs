//! A process-wide memo of built workload graphs, shared by every
//! campaign that is handed it (see [`crate::Campaign::with_graphs`]).
//!
//! A campaign without a memo synthesizes each of its workload groups'
//! graphs and drops them when the group finishes, so a run of many
//! campaigns over the same workloads — the paper's figures, where
//! Fig. 10–18 revisit the six datasets — rebuilds the same graph once
//! per campaign. Handing all of them one memo builds each
//! `(workload, fidelity)` pair exactly once.

use std::sync::{Arc, Mutex, PoisonError};

use hygcn_graph::Graph;

use crate::space::WorkloadSpec;
use crate::DseError;

/// Built graphs keyed by `(WorkloadSpec::canon(), fidelity bits)` — the
/// same identity the cache key and the campaign's workload groups use.
/// Cloning the memo shares it.
#[derive(Clone, Default)]
pub struct GraphMemo(Arc<Mutex<Vec<MemoEntry>>>);

type MemoEntry = ((String, u64), Arc<Graph>);

impl std::fmt::Debug for GraphMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "GraphMemo({} graphs)", self.len())
    }
}

impl GraphMemo {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// The graph of `workload` at `fidelity`, built on the first request
    /// (inside a `workload_build` span, as a campaign's own build is)
    /// and shared by every later one.
    ///
    /// # Errors
    ///
    /// The workload's canon or build errors ([`WorkloadSpec::canon`],
    /// [`WorkloadSpec::build_at`]); a failed build is not memoized.
    pub fn get(&self, workload: &WorkloadSpec, fidelity: f64) -> Result<Arc<Graph>, DseError> {
        let key = (workload.canon()?, fidelity.to_bits());
        let mut graphs = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((_, graph)) = graphs.iter().find(|(k, _)| *k == key) {
            return Ok(Arc::clone(graph));
        }
        let _obs = hygcn_obs::span(hygcn_obs::Phase::WorkloadBuild);
        let graph = Arc::new(workload.build_at(fidelity)?);
        graphs.push((key, Arc::clone(&graph)));
        Ok(graph)
    }

    /// How many distinct graphs the memo holds.
    pub fn len(&self) -> usize {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).len()
    }

    /// Whether the memo holds no graph yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hygcn_graph::datasets::DatasetKey;
    use hygcn_graph::reorder::Ordering;

    #[test]
    fn same_key_shares_one_graph_and_any_difference_builds_another() {
        let memo = GraphMemo::new();
        let ib = WorkloadSpec::dataset(DatasetKey::Ib, 0.05, 1);
        let a = memo.get(&ib, 1.0).unwrap();
        let b = memo.clone().get(&ib.clone(), 1.0).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "clones share the memo");
        assert_eq!(memo.len(), 1);

        let reordered = WorkloadSpec::Reordered {
            key: DatasetKey::Ib,
            scale: 0.05,
            seed: 1,
            orderings: vec![Ordering::Random(7)],
        };
        let others = [
            memo.get(&ib, 0.5).unwrap(),
            memo.get(&WorkloadSpec::dataset(DatasetKey::Ib, 0.05, 2), 1.0)
                .unwrap(),
            memo.get(&reordered, 1.0).unwrap(),
        ];
        for other in &others {
            assert!(!Arc::ptr_eq(&a, other));
            assert_ne!(a.content_hash(), other.content_hash());
        }
        assert_eq!(memo.len(), 4);
        assert_eq!(*a, ib.build().unwrap(), "memoized graph is the plain build");
    }

    #[test]
    fn failed_builds_are_errors_and_not_memoized() {
        let memo = GraphMemo::new();
        let ib = WorkloadSpec::dataset(DatasetKey::Ib, 0.05, 1);
        assert!(matches!(memo.get(&ib, 0.0), Err(DseError::Spec(_))));
        assert!(memo.is_empty());
    }
}
