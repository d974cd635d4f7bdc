//! The benchmark's three workloads: what one repetition runs, what it
//! times, and the checks on its outputs.
//!
//! A repetition is set-up, a cold pass on an empty result store, and a
//! warm pass on the store the cold pass filled. A sweep's cold pass
//! synthesizes its own graphs, so after the first few repetitions a
//! sweep skips set-up and spends the run on the passes. Only calls into the
//! workspace crates' public API are made, with the `cycle` backend and
//! default campaign options.

use std::path::{Path, PathBuf};
use std::time::Instant;

use hygcn_bench::figures::{run_figure, FigureCtx, FigureRun, FigureSpec, FIGURES};
use hygcn_core::core_backend;
use hygcn_dse::campaign::build_workload;
use hygcn_dse::space::{Axis, ConfigSpace, WorkloadSpec};
use hygcn_dse::{Campaign, CampaignReport, DseError, PointOutcome, ResultStore};
use hygcn_gcn::model::{GcnModel, ModelKind};
use hygcn_graph::datasets::DatasetKey;
use hygcn_graph::hashing::Fnv64;
use hygcn_graph::Graph;

use crate::calib::HostMeter;
use crate::trace::Tracer;

/// The dataset-generator seed the pinned digests were taken at.
pub const DEFAULT_SEED: u64 = 0x5EED;

/// `figures`: the scale multiplier every artifact runs at.
pub const FIGURE_MULT: f64 = 0.25;

/// `figures`: FNV-1a over every artifact's id and rendered text.
const FIGURES_DIGEST: u64 = 0x6717_f2e5_bd1b_c745;
/// `figures`: points the cold pass simulates and serves from the store
/// (artifacts share points, so later artifacts hit the store).
const FIGURES_COLD: (usize, usize) = (126, 142);

/// Sweeps: datasets, models and the scale they synthesize at.
const SWEEP_DATASETS: [DatasetKey; 2] = [DatasetKey::Cl, DatasetKey::Pb];
const SWEEP_MODELS: [ModelKind; 2] = [ModelKind::Gcn, ModelKind::Gin];
const SWEEP_SCALE: f64 = 1.0;
/// Sweeps: warm passes per repetition. One warm pass takes a few
/// milliseconds, so many are timed.
const SWEEP_WARM_PASSES: usize = 40;

/// `timing_sweep`: axes that leave the HBM request stream unchanged.
const TIMING_AXES: [(&str, &str); 3] = [
    ("controller", "inorder,frfcfs"),
    ("t-row", "7,14,28,56,112"),
    ("clock-ghz", "0.5,0.75,1,1.5,2"),
];
/// `structure_sweep`: axes that give every point its own stream.
const STRUCTURE_AXES: [(&str, &str); 3] = [
    ("aggbuf-mb", "2,4,8,16"),
    ("sparsity", "on,off"),
    ("inputbuf-kb", "32,64,128,256,512"),
];
/// Sweeps: FNV-1a over (key, cycles, dram_bytes) of every point, at
/// [`DEFAULT_SEED`].
const TIMING_DIGEST: u64 = 0x5349_9955_6b64_f7c4;
const STRUCTURE_DIGEST: u64 = 0xa14c_552e_cd01_f439;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every paper artifact, cold then warm.
    Figures,
    /// A campaign over timing and controller knobs only.
    TimingSweep,
    /// A campaign over buffer sizes and sparsity elimination.
    StructureSweep,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::Figures,
        Workload::TimingSweep,
        Workload::StructureSweep,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Figures => "figures",
            Workload::TimingSweep => "timing_sweep",
            Workload::StructureSweep => "structure_sweep",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Design points requested, and those that ended failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Points requested.
    pub attempted: u64,
    /// Points that ended [`PointOutcome::Failed`].
    pub failed: u64,
}

impl Tally {
    /// Counts one campaign's points.
    pub fn add(&mut self, report: &CampaignReport) {
        self.attempted += report.points.len() as u64;
        self.failed += report.points.iter().filter(|p| p.is_failed()).count() as u64;
    }

    /// Sums two tallies.
    pub fn merge(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
    }
}

/// What one repetition measured.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Set-up: synthesizing and loading the inputs, seconds; `None`
    /// when the repetition skipped it.
    pub setup_s: Option<f64>,
    /// The cold pass, seconds.
    pub cold_s: f64,
    /// Each warm pass, seconds (`figures` has one, a sweep
    /// [`SWEEP_WARM_PASSES`]).
    pub warm_s: Vec<f64>,
    /// Set-up and all passes, seconds.
    pub wall_s: f64,
    /// Points completed by the cold pass.
    pub cold_done: u64,
    /// Points of both passes.
    pub tally: Tally,
    /// Share of the warm pass's points served from the store.
    pub warm_hit_ratio: f64,
    /// Edges of the graphs the harness synthesized itself.
    pub synth_edges: u64,
    /// Failed correctness checks.
    pub problems: Vec<String>,
}

impl Rep {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

/// A workload bound to its seed and its scratch store.
pub struct Bench {
    store: PathBuf,
    /// A sweep's space and, at [`DEFAULT_SEED`], its pinned digest;
    /// `None` for `figures`.
    sweep: Option<(ConfigSpace, Option<u64>)>,
}

impl Bench {
    /// Prepares `workload` at `seed`, keeping its result store in `dir`.
    ///
    /// # Errors
    ///
    /// A sweep space that does not enumerate.
    pub fn new(workload: Workload, seed: u64, dir: &Path) -> Result<Self, DseError> {
        let pin = |digest: u64| (seed == DEFAULT_SEED).then_some(digest);
        let sweep = match workload {
            Workload::Figures => None,
            Workload::TimingSweep => Some((sweep_space(&TIMING_AXES, seed)?, pin(TIMING_DIGEST))),
            Workload::StructureSweep => {
                Some((sweep_space(&STRUCTURE_AXES, seed)?, pin(STRUCTURE_DIGEST)))
            }
        };
        Ok(Self {
            store: dir.join(format!("{}.jsonl", workload.name())),
            sweep,
        })
    }

    /// Runs one repetition under `t`. `figures` probes the host with
    /// `meter` between artifacts and leaves the probes out of its
    /// times; a sweep's repetition is short enough for the probes the
    /// caller runs around it. Without `setup`, a sweep skips
    /// set-up; `figures` always sets up, because its cold pass renders
    /// from the context set-up fills. With `oracle` (which needs
    /// `setup`), a sweep also re-evaluates the first point of each
    /// (dataset, model) on the `seed` backend, after the timed part.
    ///
    /// # Errors
    ///
    /// Campaign or store errors; a failed point is not an error but is
    /// counted in the tally and fails a check.
    pub fn rep(
        &self,
        t: &mut Tracer,
        meter: &mut HostMeter,
        setup: bool,
        oracle: bool,
    ) -> Result<Rep, String> {
        match &self.sweep {
            None => figures_rep(t, meter, &self.store),
            Some((space, pinned)) => sweep_rep(t, space, &self.store, *pinned, setup, oracle),
        }
    }
}

/// The median of `xs` (0 for none).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn reset_store(path: &Path) -> Result<(), String> {
    match std::fs::remove_file(path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("cannot clear {}: {e}", path.display())),
    }
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// Seconds since `since`, less the probing `meter` did meanwhile, which
/// read `spent_s` at `since`.
fn secs_unprobed(since: Instant, meter: &HostMeter, spent_s: f64) -> f64 {
    secs(since) - (meter.spent_s() - spent_s)
}

// ---------------------------------------------------------------------
// figures
// ---------------------------------------------------------------------

/// One pass over every artifact.
struct FiguresPass {
    runs: Vec<FigureRun>,
    tally: Tally,
}

impl FiguresPass {
    fn simulated(&self) -> usize {
        self.runs.iter().map(|r| r.simulated).sum()
    }

    fn cache_hits(&self) -> usize {
        self.runs.iter().map(|r| r.cache_hits).sum()
    }

    fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        for r in &self.runs {
            h.write_str(r.id);
            h.write_str("\n");
            h.write_str(&r.output);
        }
        h.finish()
    }
}

/// A figure context with every dataset graph the renders read already
/// synthesized.
fn filled_ctx(t: &mut Tracer, edges: &mut u64) -> FigureCtx {
    let mut ctx = FigureCtx::new(FIGURE_MULT);
    for key in DatasetKey::ALL {
        *edges += t.span("graph.synth", key.abbrev(), |_| {
            ctx.with_graph_model(key, ModelKind::Gcn, |g, _| g.num_edges() as u64)
        });
    }
    ctx
}

fn figures_rep(t: &mut Tracer, meter: &mut HostMeter, store: &Path) -> Result<Rep, String> {
    t.span("rep", "figures", |t| {
        reset_store(store)?;
        let mut rep = Rep::default();
        let (rep_start, rep_spent) = (Instant::now(), meter.spent_s());
        let start = Instant::now();
        let mut ctx = t.span("setup", "", |t| filled_ctx(t, &mut rep.synth_edges));
        rep.setup_s = Some(secs(start));
        let (start, spent) = (Instant::now(), meter.spent_s());
        let cold = t.span("cold", "", |t| figures_pass(t, meter, &mut ctx, store))?;
        rep.cold_s = secs_unprobed(start, meter, spent);
        // The warm pass starts from a fresh context, as a second
        // `hygcn figures all` does: its graphs and baselines are rebuilt,
        // only the simulations come from the store.
        let (start, spent) = (Instant::now(), meter.spent_s());
        let warm = t.span("warm", "", |t| {
            let mut ctx = filled_ctx(t, &mut rep.synth_edges);
            figures_pass(t, meter, &mut ctx, store)
        })?;
        rep.warm_s = vec![secs_unprobed(start, meter, spent)];
        rep.wall_s = secs_unprobed(rep_start, meter, rep_spent);

        rep.cold_done = cold.tally.attempted - cold.tally.failed;
        rep.tally = cold.tally;
        rep.tally.merge(warm.tally);
        rep.warm_hit_ratio = warm.cache_hits() as f64 / warm.tally.attempted.max(1) as f64;
        for (c, w) in cold.runs.iter().zip(&warm.runs) {
            rep.check(c.output == w.output, || {
                format!("{}: warm render differs from cold", c.id)
            });
        }
        let digest = cold.digest();
        rep.check(digest == FIGURES_DIGEST, || {
            format!("figures digest {digest:#018x}, pinned {FIGURES_DIGEST:#018x}")
        });
        let got = (cold.simulated(), cold.cache_hits());
        rep.check(got == FIGURES_COLD, || {
            format!("cold pass simulated/cached {got:?}, expected {FIGURES_COLD:?}")
        });
        rep.check(warm.simulated() == 0, || {
            format!("warm pass simulated {} points", warm.simulated())
        });
        let failed = rep.tally.failed;
        rep.check(failed == 0, || format!("{failed} points failed"));
        Ok(rep)
    })
}

fn figures_pass(
    t: &mut Tracer,
    meter: &mut HostMeter,
    ctx: &mut FigureCtx,
    store: &Path,
) -> Result<FiguresPass, String> {
    // The renders read the platform baselines of the evaluation grid;
    // they are memoized in the context, so computing them here first
    // moves that work out of the renders without adding any.
    t.span("baseline.platform", "", |_| {
        for (kind, key) in hygcn_bench::evaluation_grid() {
            ctx.baselines(kind, key);
        }
    });
    let mut pass = FiguresPass {
        runs: Vec::with_capacity(FIGURES.len()),
        tally: Tally::default(),
    };
    for spec in FIGURES {
        let run = if t.is_on() {
            t.span("figure", spec.id, |t| traced_figure(t, spec, ctx, store))
        } else {
            run_figure(spec, ctx, Some(store), None)
        }
        .map_err(|e| format!("{}: {e}", spec.id))?;
        for report in &run.reports {
            pass.tally.add(report);
        }
        pass.runs.push(run);
        meter.sample();
    }
    Ok(pass)
}

/// [`run_figure`] taken apart into its public steps, so each campaign
/// and the render get their own span. Table 2's render is one
/// `FigureCtx::characterization` call and its formatting, so its span
/// is the baseline layer's characterization.
fn traced_figure(
    t: &mut Tracer,
    spec: &FigureSpec,
    ctx: &mut FigureCtx,
    store: &Path,
) -> Result<FigureRun, DseError> {
    let mut reports = Vec::new();
    for space in (spec.spaces)(ctx.mult())? {
        let backend = hygcn_baseline::backend::resolve(&space.backend)
            .ok_or_else(|| DseError::Spec(format!("unknown backend '{}'", space.backend)))?;
        let campaign = Campaign::new(space).with_backend(backend).with_store(store);
        reports.push(t.span("dse.campaign", spec.id, |_| campaign.run())?);
    }
    let name = if spec.id == "table02" {
        "baseline.characterize"
    } else {
        "bench.render"
    };
    let output = t.span(name, spec.id, |_| (spec.render)(&reports, ctx));
    Ok(FigureRun {
        id: spec.id,
        title: spec.title,
        output,
        simulated: reports.iter().map(|r| r.simulated).sum(),
        cache_hits: reports.iter().map(|r| r.cache_hits).sum(),
        reports,
    })
}

// ---------------------------------------------------------------------
// Sweeps
// ---------------------------------------------------------------------

fn sweep_space(axes: &[(&str, &str)], seed: u64) -> Result<ConfigSpace, DseError> {
    let workloads = SWEEP_DATASETS
        .iter()
        .map(|&k| WorkloadSpec::dataset(k, SWEEP_SCALE, seed))
        .collect();
    let mut space = ConfigSpace::new(workloads, SWEEP_MODELS.to_vec());
    for (name, values) in axes {
        space = space.with_axis(Axis::parse(name, values)?);
    }
    space.enumerate()?;
    Ok(space)
}

/// FNV-1a over (key, cycles, dram_bytes) of every completed point.
pub fn sweep_digest(report: &CampaignReport) -> u64 {
    let mut h = Fnv64::new();
    for p in report.completed() {
        h.write_u64(p.point.key);
        h.write_u64(p.cycles);
        h.write_u64(p.dram_bytes);
    }
    h.finish()
}

type Inputs = Vec<(usize, ModelKind, Graph, GcnModel)>;

fn sweep_rep(
    t: &mut Tracer,
    space: &ConfigSpace,
    store: &Path,
    pinned: Option<u64>,
    setup: bool,
    oracle: bool,
) -> Result<Rep, String> {
    let (mut rep, inputs, cold) = t.span("rep", "sweep", |t| {
        reset_store(store)?;
        let mut rep = Rep::default();
        let rep_start = Instant::now();
        let start = Instant::now();
        let inputs = t.span("setup", "", |t| -> Result<Inputs, DseError> {
            let mut inputs = Vec::new();
            if !setup {
                return Ok(inputs);
            }
            for (wi, spec) in space.workloads.iter().enumerate() {
                for &kind in &space.models {
                    let label = format!("{}/{}", spec.label(), kind.abbrev());
                    let (g, m) = t.span("graph.synth", &label, |_| build_workload(spec, kind))?;
                    rep.synth_edges += g.num_edges() as u64;
                    inputs.push((wi, kind, g, m));
                }
            }
            t.span("dse.store_open", "", |_| ResultStore::open(store))?;
            Ok(inputs)
        });
        let inputs = inputs.map_err(|e| e.to_string())?;
        rep.setup_s = setup.then(|| secs(start));
        let campaign = |t: &mut Tracer, pass: &'static str| {
            let start = Instant::now();
            let report = t.span(pass, "", |t| {
                t.span("dse.campaign", pass, |_| {
                    Campaign::new(space.clone()).with_store(store).run()
                })
            });
            report.map(|r| (r, secs(start))).map_err(|e| e.to_string())
        };
        let (cold, cold_s) = campaign(t, "cold")?;
        rep.cold_s = cold_s;
        rep.cold_done = cold.completed().count() as u64;
        rep.tally.add(&cold);
        let digest = check_cold(&mut rep, &cold, pinned);
        let (mut hits, mut points) = (0, 0);
        for _ in 0..SWEEP_WARM_PASSES {
            let (warm, s) = campaign(t, "warm")?;
            rep.warm_s.push(s);
            rep.tally.add(&warm);
            hits += warm.cache_hits;
            points += warm.points.len();
            check_warm(&mut rep, &warm, digest);
        }
        rep.wall_s = secs(rep_start);
        rep.warm_hit_ratio = hits as f64 / points.max(1) as f64;
        Ok::<_, String>((rep, inputs, cold))
    })?;
    if oracle {
        for problem in oracle_check(&inputs, &cold) {
            rep.problems.push(problem);
        }
    }
    Ok(rep)
}

fn check_failed(rep: &mut Rep, report: &CampaignReport) {
    for p in &report.points {
        if let PointOutcome::Failed { point, error } = p {
            rep.problems
                .push(format!("{} failed: {error}", point.label()));
        }
    }
}

/// Checks a sweep's cold pass and returns its digest.
fn check_cold(rep: &mut Rep, cold: &CampaignReport, pinned: Option<u64>) -> u64 {
    check_failed(rep, cold);
    rep.check(cold.simulated == cold.points.len(), || {
        format!(
            "cold pass simulated {} of {} points",
            cold.simulated,
            cold.points.len()
        )
    });
    let digest = sweep_digest(cold);
    if let Some(pin) = pinned {
        rep.check(digest == pin, || {
            format!("sweep digest {digest:#018x}, pinned {pin:#018x}")
        });
    }
    digest
}

/// Checks a sweep's warm pass against the cold pass's digest.
fn check_warm(rep: &mut Rep, warm: &CampaignReport, digest: u64) {
    check_failed(rep, warm);
    rep.check(warm.cache_hits == warm.points.len(), || {
        format!(
            "warm pass served {} of {} points from the store",
            warm.cache_hits,
            warm.points.len()
        )
    });
    let dw = sweep_digest(warm);
    rep.check(dw == digest, || {
        format!("warm digest {dw:#018x} differs from cold {digest:#018x}")
    });
}

/// Re-evaluates the first point of each (dataset, model) on the `seed`
/// oracle backend; its report must be bit-identical to the stored one.
fn oracle_check(inputs: &Inputs, cold: &CampaignReport) -> Vec<String> {
    let mut problems = Vec::new();
    let Some(seed) = core_backend("seed") else {
        return vec!["the seed oracle backend is missing".to_string()];
    };
    for (wi, kind, graph, model) in inputs {
        let first = cold
            .completed()
            .find(|p| p.point.workload_idx == *wi && p.point.model == *kind);
        let Some(done) = first else {
            problems.push(format!("no completed point for workload {wi} {kind:?}"));
            continue;
        };
        match seed.evaluate(graph, model, &done.point.config) {
            Ok(r) if r.to_json_compact() == done.report_json => {}
            Ok(r) => problems.push(format!(
                "{}: seed oracle reports {} cycles / {} DRAM bytes, campaign {} / {}",
                done.point.label(),
                r.cycles,
                r.dram_bytes(),
                done.cycles,
                done.dram_bytes
            )),
            Err(e) => problems.push(format!("{}: seed oracle failed: {e}", done.point.label())),
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// The `hygcn_obs` collector is global, so a campaign in one test
    /// would land in another's traced window: campaigns run one at a time.
    fn campaign_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn failed_points_are_counted_not_fatal() {
        let _serial = campaign_lock();
        // A 1 KB input buffer cannot hold one feature vector, so every
        // point of this space fails inside the backend.
        let space = ConfigSpace::new(
            vec![WorkloadSpec::dataset(DatasetKey::Pb, 0.02, DEFAULT_SEED)],
            vec![ModelKind::Gcn],
        )
        .with_axis(Axis::parse("inputbuf-kb", "1,128").unwrap());
        let report = Campaign::new(space).run().unwrap();
        let mut tally = Tally::default();
        tally.add(&report);
        assert_eq!(
            tally,
            Tally {
                attempted: 2,
                failed: 1
            }
        );

        let mut rep = Rep::default();
        check_cold(&mut rep, &report, None);
        assert!(rep.problems.iter().any(|p| p.contains("failed")));
    }

    #[test]
    fn sweep_rep_counts_and_checks_a_tiny_space() {
        let _serial = campaign_lock();
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.bench_work")
            .join(format!("test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let space = ConfigSpace::new(
            vec![WorkloadSpec::dataset(DatasetKey::Ib, 0.05, 7)],
            vec![ModelKind::Gcn],
        )
        .with_axis(Axis::parse("t-row", "14,28").unwrap());
        let store = dir.join("tiny.jsonl");
        let rep = sweep_rep(&mut Tracer::off(), &space, &store, None, true, true).unwrap();
        assert!(rep.problems.is_empty(), "{:?}", rep.problems);
        assert_eq!(
            rep.tally,
            Tally {
                attempted: 2 * (1 + SWEEP_WARM_PASSES as u64),
                failed: 0
            }
        );
        assert_eq!(rep.cold_done, 2);
        assert_eq!(rep.warm_hit_ratio, 1.0);
        assert!(rep.setup_s > Some(0.0) && rep.cold_s > 0.0);
        assert_eq!(rep.warm_s.len(), SWEEP_WARM_PASSES);
        assert!(rep.warm_s.iter().all(|&s| s > 0.0));

        // Without set-up the passes run and check the same way.
        let rep = sweep_rep(&mut Tracer::off(), &space, &store, None, false, false).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(rep.problems.is_empty(), "{:?}", rep.problems);
        assert_eq!(rep.setup_s, None);
        assert_eq!(rep.cold_done, 2);
    }

    #[test]
    fn traced_rep_accounts_for_its_wall_time() {
        let _serial = campaign_lock();
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.bench_work")
            .join(format!("test-traced-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let space = ConfigSpace::new(
            vec![WorkloadSpec::dataset(DatasetKey::Ib, 0.05, 7)],
            vec![ModelKind::Gcn],
        )
        .with_axis(Axis::parse("clock-ghz", "1,2").unwrap());
        let mut t = Tracer::on();
        hygcn_obs::enable();
        let rep = sweep_rep(&mut t, &space, &dir.join("traced.jsonl"), None, true, false);
        hygcn_obs::disable();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(rep.unwrap().problems.is_empty());
        let a = crate::trace::Attribution::of(t.spans());
        assert_eq!(
            a.layer_ns.iter().sum::<u64>() + a.unattributed_ns,
            a.wall_ns
        );
        assert!(a.obs.core_evals >= 2, "{:?}", a.obs);
        assert!(a.obs.count(hygcn_obs::Phase::SpanProgramBuild) >= 1);
        assert!(a.layer_ns[crate::trace::Layer::Graph as usize] > 0);
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hit"), None);
    }
}
