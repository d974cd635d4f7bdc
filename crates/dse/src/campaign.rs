//! The campaign executor: shared workload builds, cached execution, and
//! streaming persistence.
//!
//! Execution strategy, shaped by the single-CPU reference box:
//!
//! 1. **Reuse over threads.** Points are grouped by workload; each graph
//!    is synthesized once per campaign and each `(model, feature_len)`
//!    pair is instantiated once per group, shared by reference across
//!    every config point that touches it. Building Reddit-scale graphs
//!    dwarfs a single simulation, so this is where the campaign's speed
//!    comes from. Campaigns handed one [`GraphMemo`]
//!    ([`Campaign::with_graphs`]) go further and build each graph once
//!    between them — `hygcn figures` gives all its campaigns one memo.
//!    Without a memo a group's graph is a plain local, dropped when the
//!    group finishes.
//! 2. **Fan out where threads exist.** Within a group, missing points run
//!    through [`hygcn_par::par_map_slice`] in batches of one point per
//!    worker; results splice back in deterministic point order (the same
//!    ordered-merge discipline as the simulator's chunk pipeline), so a
//!    campaign's outputs are bit-identical at any thread count.
//! 3. **Stream completions.** Every finished batch is appended to the
//!    [`ResultStore`] before the next batch starts: a killed campaign
//!    loses at most one batch, and the re-run skips everything already
//!    stored.
//! 4. **Isolate failures.** A backend evaluation that errors (after
//!    bounded retries) or panics becomes a [`PointOutcome::Failed`] — it
//!    is *not* persisted, so a resumed campaign re-attempts exactly the
//!    failed points, and one bad point never aborts the rest of the run.
//! 5. **Substitute the fast path once it proves itself.** A `cycle`
//!    campaign that revisits a workload runs later points on
//!    `cycle-fast` — after dual-evaluating the first point of each
//!    config class (controller × sampling) on both backends and
//!    checking the reports are bit-identical. Stored results keep the
//!    `cycle` key; [`Campaign::without_fast_substitution`] opts out.

use std::path::PathBuf;
use std::sync::Arc;

use hygcn_core::backend::{core_backend, SimBackend};
use hygcn_core::SimReport;
use hygcn_gcn::model::GcnModel;
use hygcn_graph::Graph;

use crate::memo::GraphMemo;
use crate::space::{ConfigSpace, DesignPoint};
use crate::store::{ResultStore, StoreRecord};
use crate::store_io::{default_sleeper, RetryPolicy, Sleeper, StoreIo};
use crate::DseError;

/// Seed for the shared model weights — the same constant the CLI's
/// single-run commands use, so a 1-point campaign reproduces
/// `hygcn simulate` bit-for-bit.
pub const MODEL_SEED: u64 = 0xC0DE;

/// One successfully executed (or cache-served) design point.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedPoint {
    /// The point.
    pub point: DesignPoint,
    /// Simulated cycles.
    pub cycles: u64,
    /// Simulated seconds.
    pub time_s: f64,
    /// Total dynamic energy in joules.
    pub energy_j: f64,
    /// Total DRAM traffic in bytes.
    pub dram_bytes: u64,
    /// Full report as compact single-line JSON.
    pub report_json: String,
    /// Whether the result came from the store (true) or a fresh
    /// simulation (false).
    pub cached: bool,
}

/// What became of one design point.
#[derive(Debug, Clone, PartialEq)]
pub enum PointOutcome {
    /// The point completed (fresh simulation or cache hit).
    Done(CompletedPoint),
    /// The backend evaluation failed — errored after bounded retries, or
    /// panicked. Failed points are never persisted, so a resumed
    /// campaign re-attempts exactly these.
    Failed {
        /// The point.
        point: DesignPoint,
        /// The terminal error (the last retry's message, or the panic
        /// payload).
        error: String,
    },
}

impl PointOutcome {
    /// The design point, completed or not.
    pub fn point(&self) -> &DesignPoint {
        match self {
            PointOutcome::Done(c) => &c.point,
            PointOutcome::Failed { point, .. } => point,
        }
    }

    /// The completed result, if the point succeeded.
    pub fn done(&self) -> Option<&CompletedPoint> {
        match self {
            PointOutcome::Done(c) => Some(c),
            PointOutcome::Failed { .. } => None,
        }
    }

    /// Mutable access to the completed result, if the point succeeded.
    pub fn done_mut(&mut self) -> Option<&mut CompletedPoint> {
        match self {
            PointOutcome::Done(c) => Some(c),
            PointOutcome::Failed { .. } => None,
        }
    }

    /// The completed result; panics (with the stored error) on a failed
    /// point — for harness code where a failure is itself a bug.
    pub fn expect_done(&self) -> &CompletedPoint {
        match self {
            PointOutcome::Done(c) => c,
            PointOutcome::Failed { point, error } => {
                // lint: allow(panic-macro) -- panicking on failure is this accessor's documented contract; error() is the fallible form
                panic!("point {} failed: {error}", point.label())
            }
        }
    }

    /// The failure message, if the point failed.
    pub fn error(&self) -> Option<&str> {
        match self {
            PointOutcome::Done(_) => None,
            PointOutcome::Failed { error, .. } => Some(error),
        }
    }

    /// Whether the point failed.
    pub fn is_failed(&self) -> bool {
        matches!(self, PointOutcome::Failed { .. })
    }
}

/// Everything a campaign run produced, in enumeration order.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Per-point outcomes, ordered as [`ConfigSpace::enumerate`] listed
    /// them.
    pub points: Vec<PointOutcome>,
    /// Points simulated fresh this run.
    pub simulated: usize,
    /// Points served from the store.
    pub cache_hits: usize,
    /// Points whose evaluation failed this run (not persisted; a re-run
    /// re-attempts them).
    pub failed: usize,
}

impl CampaignReport {
    /// The completed outcomes, in campaign order (failed points skipped).
    pub fn completed(&self) -> impl Iterator<Item = &CompletedPoint> {
        self.points.iter().filter_map(PointOutcome::done)
    }
}

/// A runnable campaign: a space, the backend evaluating its points, and
/// an optional persistent store.
#[derive(Clone)]
pub struct Campaign {
    space: ConfigSpace,
    store_path: Option<PathBuf>,
    store_io: Option<Arc<dyn StoreIo>>,
    retry: RetryPolicy,
    sleeper: Option<Sleeper>,
    backend: Option<Arc<dyn SimBackend>>,
    fast_substitution: bool,
    graphs: Option<GraphMemo>,
}

impl std::fmt::Debug for Campaign {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Campaign")
            .field("space", &self.space)
            .field("store_path", &self.store_path)
            .field("store_io", &self.store_io)
            .field("retry", &self.retry)
            .field("backend", &self.backend)
            .field("fast_substitution", &self.fast_substitution)
            .field("graphs", &self.graphs)
            .finish()
    }
}

impl Campaign {
    /// A campaign over `space` with no persistence (results are
    /// recomputed every run — the legacy `sweep` behavior).
    ///
    /// The evaluation backend is resolved from the space's backend id
    /// when `hygcn-core` provides it (`cycle`, `seed`, `analytical`);
    /// other ids (the platform backends of `hygcn-baseline`, which this
    /// crate cannot depend on) must be supplied via
    /// [`Self::with_backend`] before running.
    pub fn new(space: ConfigSpace) -> Self {
        let backend = core_backend(&space.backend);
        Self {
            space,
            store_path: None,
            store_io: None,
            retry: RetryPolicy::default(),
            sleeper: None,
            backend,
            fast_substitution: true,
            graphs: None,
        }
    }

    /// Disables the transparent `cycle-fast` substitution (see
    /// [`Self::run_points`]): every `cycle`-keyed point runs on the
    /// staged simulator, full stop. The CLI's `--no-fast-substitution`
    /// flag lands here.
    pub fn without_fast_substitution(mut self) -> Self {
        self.fast_substitution = false;
        self
    }

    /// Takes each workload group's graph from `memo` (building it there
    /// on a miss) instead of building and dropping a private copy, so
    /// campaigns handed the same memo build each `(workload, fidelity)`
    /// graph once between them. Stored results are unchanged: the graph
    /// is the same, and its plan cache is emptied when the group
    /// finishes so no campaign inherits another's plans.
    pub fn with_graphs(mut self, memo: GraphMemo) -> Self {
        self.graphs = Some(memo);
        self
    }

    /// Persists results to (and resumes from) `path`.
    pub fn with_store(mut self, path: impl Into<PathBuf>) -> Self {
        self.store_path = Some(path.into());
        self
    }

    /// Routes all store file traffic through `io` — the fault-injection
    /// hook ([`crate::store_io::FaultyIo`]); production runs keep the
    /// default [`crate::store_io::RealIo`].
    pub fn with_store_io(mut self, io: Arc<dyn StoreIo>) -> Self {
        self.store_io = Some(io);
        self
    }

    /// Sets the bounded retry-with-backoff policy shared by store
    /// appends and backend evaluations.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Replaces how retry backoff delays are executed (tests inject a
    /// recorder so retries consume no wall-clock time).
    pub fn with_sleeper(mut self, sleeper: Sleeper) -> Self {
        self.sleeper = Some(sleeper);
        self
    }

    /// Supplies the evaluation backend object. The space's backend id is
    /// synced to it, so points enumerated by [`Self::run`] are keyed for
    /// exactly the backend that will evaluate them.
    pub fn with_backend(mut self, backend: Arc<dyn SimBackend>) -> Self {
        self.space.backend = backend.backend_id().to_string();
        self.backend = Some(backend);
        self
    }

    /// The space this campaign runs.
    pub fn space(&self) -> &ConfigSpace {
        &self.space
    }

    /// The resolved backend, or a spec error naming the missing id.
    fn backend(&self) -> Result<&Arc<dyn SimBackend>, DseError> {
        self.backend.as_ref().ok_or_else(|| {
            DseError::Spec(format!(
                "backend '{}' is not provided by hygcn-core; supply it with \
                 Campaign::with_backend (hygcn_baseline::backend::resolve knows \
                 the full vocabulary)",
                self.space.backend
            ))
        })
    }

    /// Enumerates the space and runs every point not already in the
    /// store, streaming completions to disk.
    ///
    /// # Errors
    ///
    /// * [`DseError::Spec`] for an empty space.
    /// * [`DseError::Workload`] when a graph fails to build.
    /// * [`DseError::Sim`] when a model fails to instantiate.
    /// * [`DseError::StoreIo`] for store I/O problems (already-completed
    ///   points stay persisted, so a fixed re-run resumes).
    ///
    /// A backend evaluation that errors or panics is **not** an error:
    /// the campaign completes and the report carries the point as
    /// [`PointOutcome::Failed`].
    pub fn run(&self) -> Result<CampaignReport, DseError> {
        let points = self.space.enumerate()?;
        self.run_points(&points)
    }

    /// Runs an explicit point list through the executor — the hook the
    /// successive-halving search uses to evaluate each rung's survivors
    /// (with per-rung fidelity overrides already stamped on the points).
    ///
    /// Workload sharing groups by `(workload_idx, config.fidelity)`:
    /// every group builds its graph once via
    /// [`WorkloadSpec::build_at`], so a half-fidelity rung shares one
    /// half-scale graph across its survivors, and mixed-fidelity lists
    /// never leak a graph across fidelities. Outcomes return in input
    /// order; completions stream to the store exactly as in [`Self::run`].
    ///
    /// # Errors
    ///
    /// As [`Self::run`], minus the enumeration errors; additionally
    /// [`DseError::Spec`] when a point is keyed for a different backend
    /// than this campaign evaluates with (the guard that makes serving a
    /// cached result from the wrong backend structurally impossible).
    pub fn run_points(&self, points: &[DesignPoint]) -> Result<CampaignReport, DseError> {
        let backend = self.backend()?;
        if let Some(p) = points.iter().find(|p| p.backend != backend.backend_id()) {
            return Err(DseError::Spec(format!(
                "point {} is keyed for backend '{}' but this campaign evaluates \
                 with '{}'",
                p.label(),
                p.backend,
                backend.backend_id()
            )));
        }
        let sleeper = self.sleeper.clone().unwrap_or_else(default_sleeper);
        let mut store = match &self.store_path {
            Some(p) => ResultStore::open_with(
                p,
                self.store_io
                    .clone()
                    .unwrap_or_else(|| Arc::new(crate::store_io::RealIo)),
                self.retry,
                sleeper.clone(),
            )?,
            None => ResultStore::in_memory(),
        };

        // Which points were already done before this run started.
        let preexisting: Vec<bool> = points.iter().map(|p| store.get(p.key).is_some()).collect();
        let hits = preexisting.iter().filter(|&&c| c).count() as u64;
        hygcn_obs::count(hygcn_obs::Counter::PointsTotal, points.len() as u64);
        hygcn_obs::count(hygcn_obs::Counter::CacheHits, hits);
        hygcn_obs::count(hygcn_obs::Counter::PointsCached, hits);
        hygcn_obs::count(hygcn_obs::Counter::CacheMisses, points.len() as u64 - hits);

        // Group the missing points by (workload, fidelity), preserving
        // point order within each group (the pair is the sharing handle:
        // one built graph per group).
        let mut groups: Vec<((usize, u64), Vec<usize>)> = Vec::new();
        for (i, p) in points.iter().enumerate() {
            if preexisting[i] {
                continue;
            }
            let handle = (p.workload_idx, p.config.fidelity.to_bits());
            match groups.iter_mut().find(|(h, _)| *h == handle) {
                Some((_, idxs)) => idxs.push(i),
                None => groups.push((handle, vec![i])),
            }
        }

        let mut simulated = 0usize;
        let mut failures: std::collections::BTreeMap<usize, String> =
            std::collections::BTreeMap::new();
        for ((_, fidelity_bits), idxs) in groups {
            let workload = &points[idxs[0]].workload;
            let fidelity = f64::from_bits(fidelity_bits);
            // A memo's graph is shared; without one the group owns a
            // plain local, dropped when the group finishes.
            let (shared, owned);
            let (graph, graph_hash): (&Graph, u64) = match &self.graphs {
                Some(memo) => {
                    shared = memo.get(workload, fidelity)?;
                    (&shared, shared.content_hash())
                }
                None => {
                    let _obs = hygcn_obs::span(hygcn_obs::Phase::WorkloadBuild);
                    owned = workload.build_at(fidelity)?;
                    (&owned, owned.content_hash())
                }
            };
            // One model instance per kind in this group, shared across
            // every point of the group.
            let mut models: Vec<(hygcn_gcn::model::ModelKind, GcnModel)> = Vec::new();
            for &i in &idxs {
                let kind = points[i].model;
                if !models.iter().any(|(k, _)| *k == kind) {
                    let model = GcnModel::new(kind, graph.feature_len(), MODEL_SEED)
                        .map_err(|e| DseError::Sim(e.to_string()))?;
                    models.push((kind, model));
                }
            }

            // Transparent fast substitution: when this campaign
            // evaluates with the `cycle` backend and the group revisits
            // its workload (>= 2 points share one built graph, so the
            // precompiled machinery's caches actually amortize), points
            // run on `cycle-fast` instead — but only after the
            // bit-equality contract has been *proven on this workload*
            // for the point's config class (controller policy ×
            // sampling): the first point of each class is evaluated on
            // both backends and the reports compared bit-for-bit. A
            // mismatch pins the class to the staged path — the guard
            // that makes the substitution safe by construction, not
            // merely by test coverage. Results are stored under the
            // unchanged `cycle` key, so the substitution is invisible
            // to the store, resumes, and analysis tables.
            let substitute =
                self.fast_substitution && backend.backend_id() == "cycle" && idxs.len() >= 2;
            let fast_backend = hygcn_core::CycleFastBackend;
            // (class, proven) — per group, because the proof is a
            // statement about this group's graph.
            let mut class_proofs: Vec<(String, bool)> = Vec::new();

            // Fan the group out in batches of one point per worker; the
            // ordered collect keeps results in point order, and the store
            // append after each batch is the streaming/kill-safety point.
            // Evaluations retry up to the campaign's policy; a panic is
            // caught (and never retried — the backend's state is suspect)
            // so one bad point cannot take the run down.
            let batch = hygcn_par::num_threads().max(1);
            for chunk in idxs.chunks(batch) {
                let _obs_batch = hygcn_obs::span(hygcn_obs::Phase::CampaignBatch);
                // Decide each point's evaluation mode up front (the proof
                // table cannot be mutated mid-batch): proven class →
                // fast only; refuted class → staged only; unseen class →
                // dual-evaluate and report the comparison back.
                let modes: Vec<Option<(String, Option<bool>)>> = chunk
                    .iter()
                    .map(|&i| {
                        if !substitute {
                            return None;
                        }
                        let class = config_class(&points[i]);
                        let proven = class_proofs
                            .iter()
                            .find(|(c, _)| *c == class)
                            .map(|&(_, ok)| ok);
                        Some((class, proven))
                    })
                    .collect();
                let reports: Vec<EvalOutcome> = hygcn_par::par_map_slice(chunk, |slot, &i| {
                    let p = &points[i];
                    // Prebuilt above for every kind in the group; a
                    // miss fails the point instead of the process.
                    let Some(model) = models.iter().find(|(k, _)| *k == p.model).map(|(_, m)| m)
                    else {
                        return Err(format!("{}: model not prebuilt", p.label()));
                    };
                    let eval = |b: &dyn SimBackend| -> Result<SimReport, String> {
                        let mut attempt = 0u32;
                        loop {
                            attempt += 1;
                            let run =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    b.evaluate(graph, model, &p.config)
                                }));
                            match run {
                                Ok(Ok(report)) => return Ok(report),
                                Ok(Err(_)) if attempt < self.retry.max_attempts => {
                                    hygcn_obs::count(hygcn_obs::Counter::EvalRetries, 1);
                                    sleeper(self.retry.delay(attempt));
                                }
                                Ok(Err(e)) => return Err(format!("{}: {e}", p.label())),
                                Err(payload) => {
                                    return Err(format!(
                                        "{}: backend panicked: {}",
                                        p.label(),
                                        panic_message(payload.as_ref())
                                    ))
                                }
                            }
                        }
                    };
                    match &modes[slot] {
                        // Proven class: the fast path IS the cycle
                        // path for this class on this graph.
                        Some((_, Some(true))) => Ok((eval(&fast_backend)?, None)),
                        // Refuted class or substitution off: staged.
                        Some((_, Some(false))) | None => Ok((eval(&**backend)?, None)),
                        // Unseen class: prove (or refute) it. The
                        // staged report is authoritative either way;
                        // a fast-path error or panic simply refutes.
                        Some((class, None)) => {
                            let staged = eval(&**backend)?;
                            let fast =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    fast_backend.evaluate(graph, model, &p.config)
                                }));
                            let matched = matches!(&fast, Ok(Ok(f)) if *f == staged);
                            Ok((staged, Some((class.clone(), matched))))
                        }
                    }
                });
                for report in reports.iter().flatten() {
                    if let (_, Some((class, matched))) = report {
                        match class_proofs.iter_mut().find(|(c, _)| c == class) {
                            // A single refutation pins the class.
                            Some((_, proven)) => *proven &= *matched,
                            None => class_proofs.push((class.clone(), *matched)),
                        }
                    }
                }
                for (&i, report) in chunk.iter().zip(reports) {
                    let report = match report {
                        Ok((r, _)) => r,
                        Err(error) => {
                            hygcn_obs::count(hygcn_obs::Counter::PointsFailed, 1);
                            failures.insert(i, error);
                            continue;
                        }
                    };
                    let p = &points[i];
                    store.append(StoreRecord {
                        key: p.key,
                        label: p.label(),
                        graph_hash,
                        cycles: report.cycles,
                        time_s: report.time_s,
                        energy_j: report.energy_j(),
                        dram_bytes: report.dram_bytes(),
                        report_json: report.to_json_compact(),
                    })?;
                    hygcn_obs::count(hygcn_obs::Counter::PointsSimulated, 1);
                    simulated += 1;
                }
            }
            if self.graphs.is_some() {
                graph.clear_plans();
            }
        }

        // Assemble outcomes in input order from the (now complete) store.
        let mut outcomes = Vec::with_capacity(points.len());
        for (i, p) in points.iter().enumerate() {
            if let Some(error) = failures.get(&i) {
                outcomes.push(PointOutcome::Failed {
                    point: p.clone(),
                    error: error.clone(),
                });
                continue;
            }
            let rec = store.get(p.key).ok_or_else(|| {
                DseError::Store(format!(
                    "point {} completed but is missing from the store",
                    p.label()
                ))
            })?;
            outcomes.push(PointOutcome::Done(CompletedPoint {
                cycles: rec.cycles,
                time_s: rec.time_s,
                energy_j: rec.energy_j,
                dram_bytes: rec.dram_bytes,
                report_json: rec.report_json.clone(),
                cached: preexisting[i],
                point: p.clone(),
            }));
        }
        Ok(CampaignReport {
            points: outcomes,
            simulated,
            cache_hits: preexisting.iter().filter(|&&c| c).count(),
            failed: failures.len(),
        })
    }
}

/// One evaluated point: the report, plus — when the point was
/// dual-evaluated to prove its config class — `(class, matched)`.
type EvalOutcome = Result<(SimReport, Option<(String, bool)>), String>;

/// The config class the fast-substitution proof is scoped to: the DRAM
/// controller policy (discriminant *and* window — a different reorder
/// depth is a different scheduling algorithm) crossed with whether the
/// point samples its graph at runtime. These are exactly the regimes
/// that exercise distinct code paths in the precompiled replay, so one
/// proof per class covers its classmates.
fn config_class(p: &DesignPoint) -> String {
    let sampling = p
        .config
        .sample_policy_override
        .unwrap_or_else(|| p.model.sample_policy())
        .is_sampling();
    format!("{:?}|sampling={sampling}", p.config.hbm.controller)
}

/// Renders a caught panic payload (the `&str`/`String` cases `panic!`
/// produces; anything else is labeled opaquely).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Builds the graph for a workload and hands back `(graph, model)` for
/// one kind — the sharing handle single-run callers (the `sweep` alias,
/// examples) use to avoid rebuilding per configuration.
pub fn build_workload(
    spec: &crate::space::WorkloadSpec,
    kind: hygcn_gcn::model::ModelKind,
) -> Result<(Graph, GcnModel), DseError> {
    let graph = spec.build()?;
    let model = GcnModel::new(kind, graph.feature_len(), MODEL_SEED)
        .map_err(|e| DseError::Sim(e.to_string()))?;
    Ok((graph, model))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{Axis, SpaceSample, WorkloadSpec};
    use hygcn_core::{AnalyticalBackend, HyGcnConfig, SimError};
    use hygcn_gcn::model::ModelKind;
    use hygcn_graph::datasets::DatasetKey;
    use std::sync::Mutex;

    fn tiny_space() -> ConfigSpace {
        ConfigSpace::new(
            vec![WorkloadSpec::dataset(DatasetKey::Ib, 0.1, 1)],
            vec![ModelKind::Gcn],
        )
        .with_axis(Axis::parse("aggbuf-mb", "4,16").unwrap())
        .with_axis(Axis::parse("sparsity", "on,off").unwrap())
    }

    #[test]
    fn in_memory_campaign_runs_every_point() {
        let report = Campaign::new(tiny_space()).run().unwrap();
        assert_eq!(report.points.len(), 4);
        assert_eq!(report.simulated, 4);
        assert_eq!(report.cache_hits, 0);
        assert_eq!(report.failed, 0);
        for p in report.completed() {
            assert!(p.cycles > 0);
            assert!(p.energy_j > 0.0);
            assert!(!p.cached);
        }
        // The sparsity on/off pair shares a workload and buffer size but
        // must diverge in the simulated report.
        let (a, b) = (
            report.points[0].expect_done(),
            report.points[1].expect_done(),
        );
        assert_eq!(a.point.assignment[3].1, "on");
        assert_eq!(b.point.assignment[3].1, "off");
        assert_ne!(a.report_json, b.report_json);
    }

    #[test]
    fn shared_graphs_store_exactly_what_private_builds_store() {
        let dir = std::env::temp_dir().join("hygcn-dse-memo-test");
        std::fs::create_dir_all(&dir).unwrap();
        let (private, shared) = (dir.join("private.jsonl"), dir.join("shared.jsonl"));
        let space = || {
            ConfigSpace::new(
                vec![
                    WorkloadSpec::dataset(DatasetKey::Ib, 0.1, 1),
                    WorkloadSpec::dataset(DatasetKey::Cr, 0.1, 1),
                ],
                vec![ModelKind::Gcn, ModelKind::Gin],
            )
            .with_axis(Axis::parse("aggbuf-mb", "4,16").unwrap())
            .with_axis(Axis::parse("controller", "inorder,frfcfs").unwrap())
        };
        for path in [&private, &shared] {
            std::fs::remove_file(path).ok();
        }
        let plain = Campaign::new(space()).with_store(&private).run().unwrap();
        let memo = GraphMemo::new();
        let memoized = Campaign::new(space())
            .with_graphs(memo.clone())
            .with_store(&shared)
            .run()
            .unwrap();
        assert_eq!((plain.simulated, memoized.simulated), (16, 16));
        assert_eq!(memo.len(), 2, "one graph per workload");
        let fields = |r: &CampaignReport| -> Vec<(u64, u64, u64, String)> {
            r.completed()
                .map(|p| (p.point.key, p.cycles, p.dram_bytes, p.report_json.clone()))
                .collect()
        };
        assert_eq!(fields(&plain), fields(&memoized));
        assert_eq!(
            std::fs::read(&private).unwrap(),
            std::fs::read(&shared).unwrap(),
            "stored bytes are identical"
        );
        // A second campaign on the memo builds nothing new.
        Campaign::new(space().with_axis(Axis::parse("sparsity", "off").unwrap()))
            .with_graphs(memo.clone())
            .run()
            .unwrap();
        assert_eq!(memo.len(), 2);
        for path in [&private, &shared] {
            std::fs::remove_file(path).ok();
        }
    }

    #[test]
    fn sampled_campaign_respects_max_points() {
        let report = Campaign::new(tiny_space().with_sample(SpaceSample {
            max_points: 3,
            seed: 5,
        }))
        .run()
        .unwrap();
        assert_eq!(report.points.len(), 3);
        assert_eq!(report.simulated, 3);
    }

    #[test]
    fn multi_model_group_shares_graph() {
        let space = ConfigSpace::new(
            vec![WorkloadSpec::dataset(DatasetKey::Ib, 0.05, 1)],
            vec![ModelKind::Gcn, ModelKind::Gin],
        );
        let report = Campaign::new(space).run().unwrap();
        assert_eq!(report.points.len(), 2);
        assert_ne!(
            report.points[0].expect_done().cycles,
            report.points[1].expect_done().cycles
        );
    }

    #[test]
    fn analytical_campaign_runs_and_is_cache_isolated_from_cycle() {
        let dir = std::env::temp_dir().join("hygcn-dse-backend-test");
        std::fs::create_dir_all(&dir).unwrap();
        let store = dir.join("shared-backends.jsonl");
        std::fs::remove_file(&store).ok();

        // Cycle campaign fills the store...
        let cycle = Campaign::new(tiny_space())
            .with_store(&store)
            .run()
            .unwrap();
        assert_eq!((cycle.simulated, cycle.cache_hits), (4, 0));
        // ...and the analytical campaign over the SAME space and store
        // gets zero cross-backend hits.
        let analytical = Campaign::new(tiny_space().with_backend_id("analytical"))
            .with_store(&store)
            .run()
            .unwrap();
        assert_eq!((analytical.simulated, analytical.cache_hits), (4, 0));
        for (c, a) in cycle.completed().zip(analytical.completed()) {
            assert_ne!(c.point.key, a.point.key);
            assert_ne!(c.report_json, a.report_json);
            assert!(a.report_json.contains("\"backend\": \"analytical\""));
        }
        // Each backend's own re-run is 100% hits.
        let rerun = Campaign::new(tiny_space().with_backend_id("analytical"))
            .with_store(&store)
            .run()
            .unwrap();
        assert_eq!((rerun.simulated, rerun.cache_hits), (0, 4));
        assert_eq!(rerun.points, {
            let mut pts = analytical.points.clone();
            for p in &mut pts {
                p.done_mut().unwrap().cached = true;
            }
            pts
        });
        std::fs::remove_file(&store).ok();
    }

    #[test]
    fn backend_mismatched_points_are_rejected() {
        let points = tiny_space().enumerate().unwrap();
        let retargeted: Vec<_> = points
            .iter()
            .map(|p| p.with_backend("analytical").unwrap())
            .collect();
        // A cycle campaign refuses analytical-keyed points...
        match Campaign::new(tiny_space()).run_points(&retargeted) {
            Err(DseError::Spec(m)) => assert!(m.contains("keyed for backend"), "{m}"),
            other => panic!("expected Spec error, got {other:?}"),
        }
        // ...and an unresolvable backend id fails with guidance.
        match Campaign::new(tiny_space().with_backend_id("gpu")).run() {
            Err(DseError::Spec(m)) => assert!(m.contains("with_backend"), "{m}"),
            other => panic!("expected Spec error, got {other:?}"),
        }
    }

    #[test]
    fn with_backend_object_syncs_space_and_keys() {
        let backend: std::sync::Arc<dyn SimBackend> =
            std::sync::Arc::new(hygcn_core::AnalyticalBackend);
        let campaign = Campaign::new(tiny_space()).with_backend(backend);
        assert_eq!(campaign.space().backend, "analytical");
        let report = campaign.run().unwrap();
        assert_eq!(report.points.len(), 4);
        for p in report.completed() {
            assert_eq!(p.point.backend, "analytical");
            assert!(p.cycles > 0);
        }
    }

    #[test]
    fn build_workload_matches_campaign_inputs() {
        let (graph, model) = build_workload(
            &WorkloadSpec::dataset(DatasetKey::Ib, 0.05, 1),
            ModelKind::Gcn,
        )
        .unwrap();
        assert_eq!(graph.feature_len(), model.feature_len());
    }

    /// A backend that misbehaves deterministically: evaluations of
    /// configs whose aggregation buffer matches `fail_aggbuf` fail (by
    /// erroring or panicking), after burning through `transient` global
    /// transient failures first. Everything else delegates to the
    /// analytical backend.
    #[derive(Debug)]
    struct MisbehavingBackend {
        inner: AnalyticalBackend,
        fail_aggbuf: Option<usize>,
        panic_instead: bool,
        transient: Mutex<usize>,
    }

    impl MisbehavingBackend {
        fn failing_on(aggbuf_bytes: usize, panic_instead: bool) -> Self {
            Self {
                inner: AnalyticalBackend,
                fail_aggbuf: Some(aggbuf_bytes),
                panic_instead,
                transient: Mutex::new(0),
            }
        }

        fn transient_failures(n: usize) -> Self {
            Self {
                inner: AnalyticalBackend,
                fail_aggbuf: None,
                panic_instead: false,
                transient: Mutex::new(n),
            }
        }
    }

    impl SimBackend for MisbehavingBackend {
        fn backend_id(&self) -> &'static str {
            "analytical"
        }

        fn evaluate(
            &self,
            graph: &Graph,
            model: &GcnModel,
            config: &HyGcnConfig,
        ) -> Result<SimReport, SimError> {
            {
                let mut left = self.transient.lock().unwrap();
                if *left > 0 {
                    *left -= 1;
                    return Err(SimError::Backend(
                        "injected transient backend failure".into(),
                    ));
                }
            }
            if self.fail_aggbuf == Some(config.aggregation_buffer_bytes) {
                if self.panic_instead {
                    panic!("injected backend panic");
                }
                return Err(SimError::Backend("injected permanent failure".into()));
            }
            self.inner.evaluate(graph, model, config)
        }
    }

    #[test]
    fn failing_point_is_isolated_and_reattempted_on_resume() {
        let dir = std::env::temp_dir().join("hygcn-dse-failure-test");
        std::fs::create_dir_all(&dir).unwrap();
        let store = dir.join("failed-points.jsonl");
        std::fs::remove_file(&store).ok();

        // The two aggbuf=4MB points fail permanently; the campaign must
        // still complete and report them.
        let (sleeper, _slept) = recording_sleeper();
        let broken = Campaign::new(tiny_space())
            .with_backend(Arc::new(MisbehavingBackend::failing_on(4 << 20, false)))
            .with_store(&store)
            .with_retry(RetryPolicy {
                max_attempts: 2,
                base_delay_ms: 1,
            })
            .with_sleeper(sleeper)
            .run()
            .unwrap();
        assert_eq!(broken.points.len(), 4);
        assert_eq!((broken.simulated, broken.failed), (2, 2));
        let errors: Vec<&str> = broken.points.iter().filter_map(|p| p.error()).collect();
        assert_eq!(errors.len(), 2);
        assert!(
            errors[0].contains("injected permanent failure"),
            "{errors:?}"
        );
        for p in &broken.points {
            let failed = p.point().assignment[2].1 == "4";
            assert_eq!(p.is_failed(), failed, "{}", p.point().label());
        }

        // Failed points were not persisted: a resumed run with a healthy
        // backend re-attempts exactly those two and nothing else.
        let healed = Campaign::new(tiny_space().with_backend_id("analytical"))
            .with_store(&store)
            .run()
            .unwrap();
        assert_eq!(
            (healed.simulated, healed.cache_hits, healed.failed),
            (2, 2, 0)
        );
        std::fs::remove_file(&store).ok();
    }

    #[test]
    fn panicking_backend_is_caught_not_fatal() {
        let report = Campaign::new(tiny_space())
            .with_backend(Arc::new(MisbehavingBackend::failing_on(4 << 20, true)))
            .with_retry(RetryPolicy::none())
            .run()
            .unwrap();
        assert_eq!((report.simulated, report.failed), (2, 2));
        let err = report
            .points
            .iter()
            .find_map(|p| p.error())
            .expect("a failed point");
        assert!(err.contains("backend panicked"), "{err}");
        assert!(err.contains("injected backend panic"), "{err}");
    }

    #[test]
    fn fast_substitution_is_transparent() {
        // The substituted campaign and the opted-out campaign must be
        // indistinguishable: same outcomes, same report JSON, and the
        // store keys stay `cycle`-keyed either way (a store filled by
        // one resumes the other with 100% hits).
        let dir = std::env::temp_dir().join("hygcn-dse-fast-sub-test");
        std::fs::create_dir_all(&dir).unwrap();
        let store = dir.join("substituted.jsonl");
        std::fs::remove_file(&store).ok();

        let space = tiny_space().with_axis(Axis::parse("controller", "inorder,frfcfs").unwrap());
        let substituted = Campaign::new(space.clone())
            .with_store(&store)
            .run()
            .unwrap();
        let staged = Campaign::new(space.clone()).without_fast_substitution();
        assert!(!format!("{staged:?}").contains("fast_substitution: true"));
        let staged = staged.run().unwrap();
        assert_eq!(substituted.points.len(), 8);
        assert_eq!((substituted.simulated, substituted.failed), (8, 0));
        for (s, c) in substituted.completed().zip(staged.completed()) {
            assert_eq!(s.point.key, c.point.key);
            assert_eq!(s.point.backend, "cycle");
            assert_eq!(s.report_json, c.report_json);
        }
        // The store the substituted run filled serves the staged
        // campaign entirely from cache.
        let resumed = Campaign::new(space)
            .without_fast_substitution()
            .with_store(&store)
            .run()
            .unwrap();
        assert_eq!((resumed.simulated, resumed.cache_hits), (0, 8));
        std::fs::remove_file(&store).ok();
    }

    /// A backend that *claims* to be `cycle` but answers with the
    /// analytical model — so the substitution's dual-evaluation proof
    /// must fail, pinning every config class to this (staged) backend.
    #[derive(Debug)]
    struct ImpostorCycle(AnalyticalBackend);

    impl SimBackend for ImpostorCycle {
        fn backend_id(&self) -> &'static str {
            "cycle"
        }

        fn evaluate(
            &self,
            graph: &Graph,
            model: &GcnModel,
            config: &HyGcnConfig,
        ) -> Result<SimReport, SimError> {
            self.0.evaluate(graph, model, config)
        }
    }

    #[test]
    fn refuted_class_never_substitutes() {
        // Every point's stored result must come from the impostor — the
        // bit-equality proof fails on the first point of the class, so
        // cycle-fast output (which would carry different cycles) never
        // reaches the store.
        let report = Campaign::new(tiny_space())
            .with_backend(Arc::new(ImpostorCycle(AnalyticalBackend)))
            .run()
            .unwrap();
        assert_eq!((report.simulated, report.failed), (4, 0));
        for p in report.completed() {
            assert!(
                p.report_json.contains("\"backend\": \"analytical\""),
                "substitution leaked past a refuted class: {}",
                p.report_json
            );
        }
    }

    fn recording_sleeper() -> (Sleeper, Arc<Mutex<Vec<std::time::Duration>>>) {
        let log = Arc::new(Mutex::new(Vec::new()));
        let writer = log.clone();
        let sleeper: Sleeper = Arc::new(move |d| writer.lock().unwrap().push(d));
        (sleeper, log)
    }

    #[test]
    fn transient_eval_errors_retry_and_succeed() {
        let (sleeper, slept) = recording_sleeper();
        let report = Campaign::new(tiny_space())
            .with_backend(Arc::new(MisbehavingBackend::transient_failures(2)))
            .with_retry(RetryPolicy {
                max_attempts: 3,
                base_delay_ms: 5,
            })
            .with_sleeper(sleeper)
            .run()
            .unwrap();
        // Both injected failures were absorbed by retries: every point
        // completed, and the backoff schedule was executed (2 sleeps,
        // deterministic durations — no wall clock in the test itself).
        assert_eq!((report.simulated, report.failed), (4, 0));
        let slept = slept.lock().unwrap();
        assert_eq!(slept.len(), 2);
        for d in slept.iter() {
            assert!(d.as_millis() >= 5);
        }
    }
}
