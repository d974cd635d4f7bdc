//! CLI subcommand implementations.

use std::path::PathBuf;

use hygcn_baseline::backend::{resolve as resolve_backend, BACKEND_IDS};
use hygcn_baseline::{CpuModel, GpuModel};
use hygcn_bench::figures::{
    figure_csv, figure_json, find_figure, run_figure, FigureCtx, FigureSpec, FIGURES,
};
use hygcn_core::backend::SimBackend;
use hygcn_core::config::{HyGcnConfig, PipelineMode};
use hygcn_core::Simulator;
use hygcn_dse::campaign::Campaign;
use hygcn_dse::search::{
    prefilter_to_text, run_search_io, rungs_to_text, BudgetMetric, SearchStrategy,
};
use hygcn_dse::space::{Axis, ConfigSpace, SpaceSample, WorkloadSpec};
use hygcn_dse::store_io::{FaultPlan, FaultyIo, RealIo, StoreIo};
use hygcn_dse::{analysis, DseError};
use hygcn_gcn::model::{GcnModel, ModelKind};
use hygcn_graph::datasets::{DatasetKey, DatasetSpec};
use hygcn_graph::Graph;
use hygcn_mem::hbm::HbmConfig;
use hygcn_mem::scheduler::CoordinationMode;

use crate::args::{ArgError, Args};

/// Flags accepted by the workload-running commands.
pub const WORKLOAD_FLAGS: &[&str] = &[
    "dataset",
    "model",
    "scale",
    "seed",
    "layers",
    "pipeline",
    "coordination",
    "sparsity",
    "aggbuf-mb",
    "inputbuf-kb",
    "knob",
    "edges",
    "feature-len",
    "out",
];

/// Flags accepted by `hygcn campaign` — the base-config flags plus the
/// space/store/report knobs of the DSE subsystem.
pub const CAMPAIGN_FLAGS: &[&str] = &[
    "axes",
    "datasets",
    "models",
    "scale",
    "seed",
    "pipeline",
    "coordination",
    "sparsity",
    "aggbuf-mb",
    "inputbuf-kb",
    "edges",
    "feature-len",
    "sample",
    "sample-seed",
    "store",
    "csv",
    "md",
    "strategy",
    "eta",
    "rungs",
    "metric",
    "backend",
    "prefilter",
    "fault-plan",
    "metrics-out",
    "trace-out",
];

/// Boolean (valueless) flags accepted by `hygcn campaign`.
pub const CAMPAIGN_BOOL_FLAGS: &[&str] = &["progress", "no-fast-substitution"];

/// Flags accepted by `hygcn store` (the action — fsck/salvage/stats —
/// is positional).
pub const STORE_FLAGS: &[&str] = &["store"];

/// Boolean (valueless) flags accepted by `hygcn store`.
pub const STORE_BOOL_FLAGS: &[&str] = &["json"];

/// Flags accepted by `hygcn figures` (the artifact id is positional).
pub const FIGURE_FLAGS: &[&str] = &[
    "scale",
    "store",
    "backend",
    "csv",
    "json",
    "metrics-out",
    "trace-out",
];

/// Flags accepted by `hygcn bench` (the config flags plus the
/// benchmark's own workload/measurement knobs).
pub const BENCH_FLAGS: &[&str] = &[
    "model",
    "pipeline",
    "coordination",
    "sparsity",
    "aggbuf-mb",
    "inputbuf-kb",
    "feature-len",
    "vertices",
    "degree",
    "runs",
    "json",
    "threads",
    "trace-out",
];

/// Boolean (valueless) flags accepted by `hygcn bench`.
pub const BENCH_BOOL_FLAGS: &[&str] = &["profile"];

/// Flags accepted by `hygcn lint`.
pub const LINT_FLAGS: &[&str] = &["rule", "config", "root"];

/// Boolean (valueless) flags accepted by `hygcn lint`.
pub const LINT_BOOL_FLAGS: &[&str] = &["json"];

/// Top-level error for command execution.
#[derive(Debug)]
pub enum CliError {
    /// Argument problems.
    Args(ArgError),
    /// Unknown dataset/model/enum value.
    Unknown(String),
    /// A substrate error.
    Runtime(String),
    /// The campaign ran to completion but some points failed. Carries
    /// the full report so `main` can still print it before exiting with
    /// the dedicated non-zero code (3, distinct from the generic 2).
    CampaignFailed {
        /// The rendered campaign report.
        output: String,
        /// How many points failed.
        failed: usize,
    },
    /// `hygcn lint` found violations. Carries the rendered findings so
    /// `main` prints them to stdout (machine-readable) while the count
    /// summary goes to stderr, then exits 2.
    LintViolations {
        /// The rendered findings (text or JSON per `--json`).
        output: String,
        /// How many findings.
        count: usize,
    },
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::Unknown(msg) => write!(f, "{msg}"),
            CliError::Runtime(msg) => write!(f, "{msg}"),
            CliError::CampaignFailed { failed, .. } => {
                write!(f, "campaign completed with {failed} failed point(s)")
            }
            CliError::LintViolations { count, .. } => {
                write!(f, "lint found {count} violation(s)")
            }
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}

impl From<DseError> for CliError {
    fn from(e: DseError) -> Self {
        match e {
            DseError::Spec(m) => CliError::Unknown(m),
            other => CliError::Runtime(other.to_string()),
        }
    }
}

/// Resolves a dataset key from its paper abbreviation.
pub fn dataset_key(name: &str) -> Result<DatasetKey, CliError> {
    DatasetKey::from_abbrev(name)
        .ok_or_else(|| CliError::Unknown(format!("unknown dataset '{name}' (IB/CR/CS/CL/PB/RD)")))
}

/// Resolves a model kind from its paper abbreviation.
pub fn model_kind(name: &str) -> Result<ModelKind, CliError> {
    ModelKind::from_abbrev(name)
        .ok_or_else(|| CliError::Unknown(format!("unknown model '{name}' (GCN/GSC/GIN/DFP)")))
}

/// `--scale` validated against the `(0, 1]` bound its help text states.
fn scale_arg(args: &Args, default: f64) -> Result<f64, ArgError> {
    args.get_parsed_where("scale", default, "a float in (0,1]", |v| {
        *v > 0.0 && *v <= 1.0
    })
}

/// `--feature-len` validated against its `>= 1` bound.
fn feature_len_arg(args: &Args) -> Result<usize, ArgError> {
    args.get_parsed_where("feature-len", 128, "an integer >= 1", |v| *v >= 1)
}

fn build_graph(args: &Args) -> Result<Graph, CliError> {
    if let Some(path) = args.get("edges") {
        // A user-supplied edge list (undirected, `src dst` per line).
        let f = feature_len_arg(args)?;
        return hygcn_graph::io::read_edge_list_file(path, f, true)
            .map_err(|e| CliError::Runtime(e.to_string()));
    }
    let key = dataset_key(args.get_or("dataset", "CR"))?;
    let spec = DatasetSpec::get(key);
    let scale = scale_arg(args, spec.default_bench_scale())?;
    let seed = args.get_parsed("seed", 0x5EEDu64, "an integer")?;
    spec.instantiate(scale, seed)
        .map_err(|e| CliError::Runtime(e.to_string()))
}

fn build_config(args: &Args) -> Result<HyGcnConfig, CliError> {
    let mut cfg = HyGcnConfig::default();
    match args.get_or("pipeline", "latency") {
        "latency" => cfg.pipeline = PipelineMode::LatencyAware,
        "energy" => cfg.pipeline = PipelineMode::EnergyAware,
        "none" => cfg.pipeline = PipelineMode::None,
        other => return Err(CliError::Unknown(format!("unknown pipeline '{other}'"))),
    }
    match args.get_or("coordination", "on") {
        "on" => {}
        "off" => {
            cfg.coordination = CoordinationMode::Fcfs;
            cfg.hbm = HbmConfig::hbm1_uncoordinated();
        }
        other => return Err(CliError::Unknown(format!("unknown coordination '{other}'"))),
    }
    match args.get_or("sparsity", "on") {
        "on" => {}
        "off" => cfg.sparsity_elimination = false,
        other => return Err(CliError::Unknown(format!("unknown sparsity '{other}'"))),
    }
    let agg_mb: usize =
        args.get_parsed_where("aggbuf-mb", 16, "an integer >= 1 (MB)", |v| *v >= 1)?;
    cfg.aggregation_buffer_bytes = agg_mb << 20;
    let in_kb: usize =
        args.get_parsed_where("inputbuf-kb", 128, "an integer >= 1 (KB)", |v| *v >= 1)?;
    cfg.input_buffer_bytes = in_kb << 10;
    Ok(cfg)
}

/// `hygcn simulate` — run one workload on the accelerator.
pub fn simulate(args: &Args) -> Result<String, CliError> {
    let graph = build_graph(args)?;
    let kind = model_kind(args.get_or("model", "GCN"))?;
    let cfg = build_config(args)?;
    let layers: usize = args.get_parsed_where("layers", 1, "an integer >= 1", |v| *v >= 1)?;
    let sim = Simulator::new(cfg);
    let stack = sim
        .simulate_stack(&graph, kind, layers, false)
        .map_err(|e| CliError::Runtime(e.to_string()))?;
    let mut out = format!(
        "{} on {} ({} vertices, {} edges, f={})\n",
        kind.abbrev(),
        graph.name(),
        graph.num_vertices(),
        graph.num_edges(),
        graph.feature_len()
    );
    for (i, layer) in stack.layers.iter().enumerate() {
        out += &format!(
            "layer {}: {:>12} cycles  {:>8.3} ms  {:>9.3} mJ  {:>7.1} MB DRAM  bw {:>5.1}%  sparsity red. {:>5.1}%\n",
            i + 1,
            layer.cycles,
            layer.time_s * 1e3,
            layer.energy_j() * 1e3,
            layer.dram_bytes() as f64 / 1e6,
            layer.bandwidth_utilization * 100.0,
            layer.sparsity_reduction * 100.0,
        );
    }
    out += &format!(
        "total:   {:>12} cycles  {:>8.3} ms  {:>9.3} mJ\n",
        stack.total_cycles(),
        stack.total_time_s() * 1e3,
        stack.total_energy_j() * 1e3
    );
    if let Some(path) = args.get("out") {
        // One layer writes the report verbatim (`SimReport::to_json()`,
        // the golden-snapshot form); a multi-layer stack writes a JSON
        // array of per-layer reports.
        let json = match stack.layers.as_slice() {
            [only] => only.to_json(),
            layers => {
                let mut s = String::from("[\n");
                for (i, layer) in layers.iter().enumerate() {
                    s += layer.to_json().trim_end();
                    s += if i + 1 < layers.len() { ",\n" } else { "\n" };
                }
                s += "]\n";
                s
            }
        };
        std::fs::write(path, json).map_err(|e| CliError::Runtime(e.to_string()))?;
        out += &format!("wrote {path}\n");
    }
    Ok(out)
}

/// `hygcn compare` — HyGCN vs PyG-CPU vs PyG-GPU on one workload.
pub fn compare(args: &Args) -> Result<String, CliError> {
    let graph = build_graph(args)?;
    let kind = model_kind(args.get_or("model", "GCN"))?;
    let model = GcnModel::new(kind, graph.feature_len(), 0xC0DE)
        .map_err(|e| CliError::Runtime(e.to_string()))?;
    let hygcn = Simulator::new(build_config(args)?)
        .simulate(&graph, &model)
        .map_err(|e| CliError::Runtime(e.to_string()))?;
    let cpu = CpuModel::optimized().run(&graph, &model);
    let gpu = GpuModel::naive().run(&graph, &model);
    let mut out = format!(
        "{} on {}:\n{:<10} {:>12} {:>12} {:>12}\n",
        kind.abbrev(),
        graph.name(),
        "platform",
        "time",
        "energy",
        "DRAM"
    );
    for (name, t, e, d) in [
        ("PyG-CPU", cpu.time_s, cpu.energy_j, cpu.dram_bytes),
        ("PyG-GPU", gpu.time_s, gpu.energy_j, gpu.dram_bytes),
        ("HyGCN", hygcn.time_s, hygcn.energy_j(), hygcn.dram_bytes()),
    ] {
        out += &format!(
            "{:<10} {:>10.3}ms {:>10.3}mJ {:>10.1}MB\n",
            name,
            t * 1e3,
            e * 1e3,
            d as f64 / 1e6
        );
    }
    out += &format!(
        "speedup: {:.0}x vs CPU, {:.1}x vs GPU; energy: {:.0}x vs CPU, {:.1}x vs GPU\n",
        cpu.time_s / hygcn.time_s,
        gpu.time_s / hygcn.time_s,
        cpu.energy_j / hygcn.energy_j(),
        gpu.energy_j / hygcn.energy_j()
    );
    Ok(out)
}

/// The workloads a space-running command targets: either one edge-list
/// file or a comma-separated dataset list (each at `--scale` or its
/// default bench scale).
fn workloads_from_args(args: &Args) -> Result<Vec<WorkloadSpec>, CliError> {
    if let Some(path) = args.get("edges") {
        let f = feature_len_arg(args)?;
        return Ok(vec![WorkloadSpec::EdgeList {
            path: path.into(),
            feature_len: f,
        }]);
    }
    let seed: u64 = args.get_parsed("seed", 0x5EEDu64, "an integer")?;
    let names = args.get("datasets").or_else(|| args.get("dataset"));
    names
        .unwrap_or("CR")
        .split(',')
        .map(str::trim)
        .filter(|t| !t.is_empty())
        .map(|name| {
            let key = dataset_key(name)?;
            let spec = DatasetSpec::get(key);
            let scale = scale_arg(args, spec.default_bench_scale())?;
            Ok(WorkloadSpec::dataset(key, scale, seed))
        })
        .collect()
}

/// The models a space-running command targets (`--models GCN,GIN`).
fn models_from_args(args: &Args) -> Result<Vec<ModelKind>, CliError> {
    args.get("models")
        .or_else(|| args.get("model"))
        .unwrap_or("GCN")
        .split(',')
        .map(str::trim)
        .filter(|t| !t.is_empty())
        .map(model_kind)
        .collect()
}

/// `hygcn sweep --knob aggbuf|window|factor` — the legacy one-knob sweep,
/// reimplemented as a thin alias over a one-axis [`ConfigSpace`] so the
/// repo has exactly one sweep execution path (the campaign executor, with
/// its shared workload build).
pub fn sweep(args: &Args) -> Result<String, CliError> {
    let knob = args.get_or("knob", "aggbuf");
    let axis = match knob {
        "aggbuf" => Axis::parse("aggbuf-mb", "2,4,8,16,32"),
        "window" => Axis::parse("inputbuf-kb", "32,64,128,256,512"),
        "factor" => Axis::parse("factor", "1,2,4,8,16"),
        other => {
            return Err(CliError::Unknown(format!(
                "unknown knob '{other}' (aggbuf/window/factor)"
            )))
        }
    }?;
    let space = ConfigSpace::new(workloads_from_args(args)?, models_from_args(args)?)
        .with_base(build_config(args)?)
        .with_axis(axis);
    // No store: the legacy sweep recomputes every run.
    let report = Campaign::new(space).run()?;
    let mut out = format!(
        "sweep '{knob}' ({} points, via the campaign engine):\n\n",
        report.points.len()
    );
    out += &analysis::to_markdown(&report);
    Ok(out)
}

/// Resolves `--backend` into an evaluation backend object (default: the
/// cycle-accurate simulator).
fn backend_from_args(args: &Args) -> Result<std::sync::Arc<dyn SimBackend>, CliError> {
    let id = args.get_or("backend", "cycle");
    resolve_backend(id).ok_or_else(|| {
        CliError::Unknown(format!(
            "unknown backend '{id}' ({})",
            BACKEND_IDS.join("/")
        ))
    })
}

/// `hygcn campaign` — a multi-axis design-space campaign: cached,
/// resumable, with Pareto + marginal reporting, a pluggable search
/// strategy (`--strategy grid|random|successive-halving`), and a
/// pluggable evaluation backend (`--backend cycle|cycle-fast|analytical|cpu|gpu|
/// seed`).
pub fn campaign(args: &Args) -> Result<String, CliError> {
    let axes = Axis::parse_spec(args.get_or("axes", ""))?;
    let backend = backend_from_args(args)?;
    let mut space = ConfigSpace::new(workloads_from_args(args)?, models_from_args(args)?)
        .with_base(build_config(args)?);
    for axis in axes {
        space = space.with_axis(axis);
    }
    let sample_points: Option<usize> = match args.get("sample") {
        None => None,
        Some(n) => Some(
            n.parse()
                .ok()
                .filter(|v| *v >= 1)
                .ok_or_else(|| ArgError::BadValue {
                    flag: "sample".to_string(),
                    value: n.to_string(),
                    expected: "an integer >= 1",
                })?,
        ),
    };
    let sample_seed: u64 = args.get_parsed("sample-seed", 0xD5Eu64, "an integer")?;
    // For grid and halving, `--sample` thins the space itself; the
    // random strategy instead carries the bound (default 16) so that
    // `--strategy random` without `--sample` still samples.
    let strategy = match args.get_or("strategy", "grid") {
        "grid" | "successive-halving" => {
            if let Some(max_points) = sample_points {
                space = space.with_sample(SpaceSample {
                    max_points,
                    seed: sample_seed,
                });
            }
            if args.get_or("strategy", "grid") == "grid" {
                SearchStrategy::Grid
            } else {
                SearchStrategy::SuccessiveHalving {
                    eta: args.get_parsed_where("eta", 2, "an integer >= 2", |v| *v >= 2)?,
                    rungs: args.get_parsed_where("rungs", 3, "an integer >= 1", |v| *v >= 1)?,
                    budget_metric: BudgetMetric::parse(args.get_or("metric", "cycles"))?,
                    analytical_prefilter: match args.get_or("prefilter", "off") {
                        "on" => true,
                        "off" => false,
                        other => {
                            return Err(CliError::Unknown(format!(
                                "unknown prefilter '{other}' (on/off)"
                            )))
                        }
                    },
                }
            }
        }
        "random" => SearchStrategy::RandomSample {
            max_points: sample_points.unwrap_or(16),
            seed: sample_seed,
        },
        other => {
            return Err(CliError::Unknown(format!(
                "unknown strategy '{other}' (grid/random/successive-halving)"
            )))
        }
    };

    let store = args.get_or("store", "campaign.jsonl");
    let store_path = (store != "none").then(|| PathBuf::from(store));
    let store_io = fault_io_from_args(args)?;

    // The executor's counters drive both the periodic progress lines
    // and the exported metrics.
    let progress = args.get_bool("progress");
    let obs = ObsExport::start(args, progress);
    let reporter = progress.then(ProgressReporter::start);
    let result = run_search_io(
        &space,
        &strategy,
        store_path.as_deref(),
        Some(backend),
        store_io,
        // On by default: `cycle` campaigns transparently run proven
        // config classes on `cycle-fast` (bit-identical by dual-eval).
        !args.get_bool("no-fast-substitution"),
    );
    if let Some(r) = reporter {
        r.finish();
    }
    obs.stop();
    let outcome = result?;

    let mut out = String::new();
    if let SearchStrategy::SuccessiveHalving { budget_metric, .. } = strategy {
        out += &prefilter_to_text(outcome.prefilter.as_ref());
        out += &rungs_to_text(&outcome.rungs, budget_metric);
        out += "\n";
    }
    let report = &outcome.report;
    out += &analysis::to_markdown(report);
    if let Some(path) = args.get("csv") {
        std::fs::write(path, analysis::to_csv(report))
            .map_err(|e| CliError::Runtime(e.to_string()))?;
        out += &format!("\nwrote {path}\n");
    }
    if let Some(path) = args.get("md") {
        std::fs::write(path, analysis::to_markdown(report))
            .map_err(|e| CliError::Runtime(e.to_string()))?;
        out += &format!("\nwrote {path}\n");
    }
    if store != "none" {
        let (simulated, cached) = if outcome.rungs.is_empty() {
            (report.simulated, report.cache_hits)
        } else {
            let pre = outcome.prefilter.as_ref();
            (
                outcome.rungs.iter().map(|r| r.simulated).sum::<usize>()
                    + pre.map_or(0, |p| p.simulated),
                outcome.rungs.iter().map(|r| r.cache_hits).sum::<usize>()
                    + pre.map_or(0, |p| p.cache_hits),
            )
        };
        out += &format!("\nstore: {store} ({simulated} simulated, {cached} cached this run)\n");
        if report.failed > 0 {
            out += &format!(
                "warning: {} point(s) failed this run; they were not cached and will be \
                 re-attempted on the next resume\n",
                report.failed
            );
        }
    }
    obs.export(&mut out)?;
    // A campaign with failed points must not exit 0: the report still
    // prints (main writes `output` to stdout), but the process exits
    // with the dedicated failed-points code.
    if report.failed > 0 {
        return Err(CliError::CampaignFailed {
            output: out,
            failed: report.failed,
        });
    }
    Ok(out)
}

/// Observability for a command with `--metrics-out FILE` and
/// `--trace-out FILE`: collection stays off unless one of them (or
/// another obs consumer, such as `--progress`) was asked for, so by
/// default a run pays only relaxed-load checks.
struct ObsExport<'a> {
    metrics_out: Option<&'a str>,
    trace_out: Option<&'a str>,
    on: bool,
}

impl<'a> ObsExport<'a> {
    /// Starts a fresh collection if any output (or `also`) asks for it.
    fn start(args: &'a Args, also: bool) -> Self {
        let metrics_out = args.get("metrics-out");
        let trace_out = args.get("trace-out");
        let on = also || metrics_out.is_some() || trace_out.is_some();
        if on {
            hygcn_obs::reset();
            hygcn_obs::enable();
        }
        Self {
            metrics_out,
            trace_out,
            on,
        }
    }

    /// Ends collection; call it when the observed work is done.
    fn stop(&self) {
        if self.on {
            hygcn_obs::disable();
        }
    }

    /// Writes the requested files, notes each in `out`, and clears the
    /// collected data.
    fn export(&self, out: &mut String) -> Result<(), CliError> {
        if let Some(path) = self.metrics_out {
            std::fs::write(path, hygcn_obs::metrics_json())
                .map_err(|e| CliError::Runtime(format!("writing {path}: {e}")))?;
            *out += &format!("wrote {path}\n");
        }
        if let Some(path) = self.trace_out {
            std::fs::write(path, hygcn_obs::chrome_trace_json())
                .map_err(|e| CliError::Runtime(format!("writing {path}: {e}")))?;
            *out += &format!("wrote {path}\n");
        }
        if self.on {
            hygcn_obs::reset();
        }
        Ok(())
    }
}

/// Background thread emitting periodic `--progress` lines on stderr,
/// driven entirely by the obs counters the campaign executor maintains.
struct ProgressReporter {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    handle: std::thread::JoinHandle<()>,
    started: std::time::Instant,
}

impl ProgressReporter {
    const PERIOD: std::time::Duration = std::time::Duration::from_millis(500);

    fn start() -> Self {
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let started = std::time::Instant::now();
        let handle = {
            let stop = std::sync::Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    std::thread::sleep(Self::PERIOD);
                    if stop.load(std::sync::atomic::Ordering::Relaxed) {
                        break;
                    }
                    eprintln!("{}", render_progress(started.elapsed().as_secs_f64()));
                }
            })
        };
        Self {
            stop,
            handle,
            started,
        }
    }

    fn finish(self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let _ = self.handle.join();
        // One final line so short campaigns still report.
        eprintln!("{}", render_progress(self.started.elapsed().as_secs_f64()));
    }
}

/// One `--progress` line from the current obs counters.
fn render_progress(elapsed_s: f64) -> String {
    use hygcn_obs::{counter_value, Counter};
    let total = counter_value(Counter::PointsTotal);
    let simulated = counter_value(Counter::PointsSimulated);
    let cached = counter_value(Counter::PointsCached);
    let failed = counter_value(Counter::PointsFailed);
    let done = simulated + cached + failed;
    let rate = if elapsed_s > 0.0 {
        simulated as f64 / elapsed_s
    } else {
        0.0
    };
    let eta = if rate > 0.0 && total > done {
        format!("{:.1}s", (total - done) as f64 / rate)
    } else {
        "-".to_string()
    };
    format!(
        "progress: {done}/{total} points ({simulated} simulated, {cached} cached, \
         {failed} failed, {rate:.1} pts/s, eta {eta})"
    )
}

/// Build the optional fault-injecting store I/O layer from
/// `--fault-plan` (durability testing; absent means real I/O).
fn fault_io_from_args(args: &Args) -> Result<Option<std::sync::Arc<dyn StoreIo>>, CliError> {
    match args.get("fault-plan") {
        None => Ok(None),
        Some(spec) => {
            let plan = FaultPlan::parse(spec)
                .map_err(|e| CliError::Unknown(format!("bad --fault-plan '{spec}': {e}")))?;
            Ok(Some(std::sync::Arc::new(FaultyIo::new(plan))))
        }
    }
}

/// `hygcn store <fsck|salvage|stats>` — result-store maintenance.
///
/// * `fsck` — read-only integrity check; exits non-zero when the store
///   has quarantined lines, a torn tail, or duplicate keys.
/// * `salvage` — sideline damaged lines to `<store>.quarantine` and
///   rewrite the store canonically (checksummed, key-ordered,
///   deduplicated last-write-wins). Idempotent.
/// * `stats` — record/byte counts, checksum coverage, per-backend
///   breakdown, quarantined-line count.
pub fn store_cmd(args: &Args) -> Result<String, CliError> {
    let action = args.positional(0).unwrap_or("stats");
    let store = args.get_or("store", "campaign.jsonl");
    let path = PathBuf::from(store);
    let io = RealIo;
    match action {
        "fsck" => {
            let report = hygcn_dse::store::fsck(&path, &io)?;
            let mut out = format!(
                "fsck {store}: {} bytes, {} lines, {} valid ({} checksummed), \
                 {} unique, {} duplicate(s), torn tail: {}\n",
                report.bytes,
                report.lines,
                report.valid,
                report.checksummed,
                report.unique,
                report.duplicates,
                if report.torn_tail { "yes" } else { "no" },
            );
            for q in &report.quarantined {
                out += &format!("  line {}: {}\n", q.line_no, q.reason);
            }
            if report.is_clean() {
                out += "status: clean\n";
                Ok(out)
            } else {
                out += &format!(
                    "status: {} damaged line(s) — run `hygcn store salvage --store {store}`\n",
                    report.quarantined.len() + usize::from(report.torn_tail) + report.duplicates
                );
                Err(CliError::Runtime(out))
            }
        }
        "salvage" => {
            let report = hygcn_dse::store::salvage(&path, &io)?;
            let mut out = format!(
                "salvage {store}: kept {}, dropped {}, deduplicated {}\n",
                report.kept, report.dropped, report.deduplicated
            );
            match &report.quarantine_path {
                Some(q) => out += &format!("damaged lines sidelined to {}\n", q.display()),
                None => out += "no damage found; store rewritten canonically\n",
            }
            Ok(out)
        }
        "stats" => {
            let s = hygcn_dse::store::stats(&path, &io)?;
            if args.get_bool("json") {
                return Ok(store_stats_json(store, &s));
            }
            let mut out = format!(
                "store {store}: {} record(s), {} bytes, {} checksummed, \
                 {} quarantined line(s), torn tail: {}\n",
                s.records,
                s.bytes,
                s.checksummed,
                s.quarantined,
                if s.torn_tail { "yes" } else { "no" },
            );
            if !s.per_backend.is_empty() {
                out += "per backend:\n";
                for (backend, count) in &s.per_backend {
                    out += &format!("  {backend}: {count}\n");
                }
            }
            Ok(out)
        }
        other => Err(CliError::Unknown(format!(
            "unknown store action '{other}' (fsck/salvage/stats)"
        ))),
    }
}

/// `hygcn store stats --json`: the machine-readable form dashboards and
/// CI assertions consume.
fn store_stats_json(store: &str, s: &hygcn_dse::StoreStats) -> String {
    let coverage = if s.records > 0 {
        s.checksummed as f64 / s.records as f64
    } else {
        0.0
    };
    let per_backend = s
        .per_backend
        .iter()
        .map(|(backend, count)| format!("\"{}\": {count}", json_escape(backend)))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\n  \"store\": \"{}\",\n  \"records\": {},\n  \"bytes\": {},\n  \
         \"checksummed\": {},\n  \"checksum_coverage\": {:.4},\n  \"quarantined\": {},\n  \
         \"torn_tail\": {},\n  \"per_backend\": {{{per_backend}}}\n}}\n",
        json_escape(store),
        s.records,
        s.bytes,
        s.checksummed,
        coverage,
        s.quarantined,
        s.torn_tail,
    )
}

/// Minimal JSON string escaping for values we interpolate (paths,
/// backend ids).
fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// `hygcn figures <id|all>` — regenerate paper figure/table artifacts
/// through the campaign engine, all sharing one `figures.jsonl` store:
/// only invalidated points re-simulate, and an unchanged re-run
/// performs zero simulations.
pub fn figures(args: &Args) -> Result<String, CliError> {
    let selection = args.positional(0).unwrap_or("all");
    let specs: Vec<&'static FigureSpec> = if selection == "all" {
        FIGURES.iter().collect()
    } else {
        vec![find_figure(selection).ok_or_else(|| {
            let ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
            CliError::Unknown(format!(
                "unknown figure '{selection}' (known: {}, all)",
                ids.join("/")
            ))
        })?]
    };
    run_figures(&specs, args)
}

/// The body of `hygcn figures` over an explicit artifact list. An
/// artifact with failed points is reported (each point named) instead
/// of rendered, the rest still run, and the command ends with
/// [`CliError::CampaignFailed`] — exit code 3, as `campaign`.
fn run_figures(specs: &[&FigureSpec], args: &Args) -> Result<String, CliError> {
    let mult = scale_arg(args, 1.0)?;
    let store = args.get_or("store", "figures.jsonl");
    let store_path = (store != "none").then(|| PathBuf::from(store));
    let backend_override = match args.get("backend") {
        Some(id) => {
            // Validate eagerly so a typo fails before any simulation.
            resolve_backend(id).ok_or_else(|| {
                CliError::Unknown(format!(
                    "unknown backend '{id}' ({})",
                    BACKEND_IDS.join("/")
                ))
            })?;
            Some(id)
        }
        None => None,
    };
    let export_dir = |flag: &str| -> Result<Option<PathBuf>, CliError> {
        match args.get(flag) {
            None => Ok(None),
            Some(dir) => {
                let dir = PathBuf::from(dir);
                std::fs::create_dir_all(&dir)
                    .map_err(|e| CliError::Runtime(format!("creating {}: {e}", dir.display())))?;
                Ok(Some(dir))
            }
        }
    };
    let csv_dir = export_dir("csv")?;
    let json_dir = export_dir("json")?;

    let obs = ObsExport::start(args, false);
    // Failed points fail only their own artifact; any other error
    // stops the run.
    let mut ctx = FigureCtx::new(mult);
    let runs: Result<Vec<_>, DseError> = specs
        .iter()
        .map(
            |spec| match run_figure(spec, &mut ctx, store_path.as_deref(), backend_override) {
                Err(DseError::PointsFailed(errors)) => Ok((spec, Err(errors))),
                run => run.map(|run| (spec, Ok(run))),
            },
        )
        .collect();
    obs.stop();

    let mut out = String::new();
    let mut simulated = 0;
    let mut cached = 0;
    let mut failed = 0;
    for (spec, run) in runs? {
        let run = match run {
            Ok(run) => run,
            Err(errors) => {
                out += &format!(
                    "\n=== {} ===\nnot rendered: {} point(s) failed (not cached; a re-run \
                     retries them)\n",
                    spec.title,
                    errors.len()
                );
                for e in &errors {
                    out += &format!("  {e}\n");
                }
                failed += errors.len();
                continue;
            }
        };
        out += &format!("\n=== {} ===\n{}", run.title, run.output);
        simulated += run.simulated;
        cached += run.cache_hits;
        if let Some(dir) = &csv_dir {
            let data = figure_csv(&run);
            if !data.is_empty() {
                let path = dir.join(format!("{}.csv", run.id));
                std::fs::write(&path, data)
                    .map_err(|e| CliError::Runtime(format!("writing {}: {e}", path.display())))?;
                out += &format!("wrote {}\n", path.display());
            }
        }
        if let Some(dir) = &json_dir {
            let path = dir.join(format!("{}.json", run.id));
            std::fs::write(&path, figure_json(&run))
                .map_err(|e| CliError::Runtime(format!("writing {}: {e}", path.display())))?;
            out += &format!("wrote {}\n", path.display());
        }
    }
    out += &format!("\nfigures store: {store} ({simulated} simulated, {cached} cached this run)\n");
    obs.export(&mut out)?;
    if failed > 0 {
        return Err(CliError::CampaignFailed {
            output: out,
            failed,
        });
    }
    Ok(out)
}

/// `hygcn bench` — host-throughput benchmark of the cycle paths: times
/// the seed reference, `simulate()` (serial and parallel), and the
/// `cycle-fast` event-schedule backend on an RMAT-scale graph, verifies
/// all reports are bit-identical, and optionally writes a
/// `BENCH_sim.json` trajectory file.
pub fn bench(args: &Args) -> Result<String, CliError> {
    use std::time::Instant;

    let vertices: usize =
        args.get_parsed_where("vertices", 131_072, "an integer >= 1024", |v| *v >= 1024)?;
    let degree: usize = args.get_parsed_where("degree", 8, "an integer >= 1", |v| *v >= 1)?;
    let f = feature_len_arg(args)?;
    let runs: usize = args.get_parsed_where("runs", 3, "an integer >= 1", |v| *v >= 1)?;
    let threads: usize = args.get_parsed_where(
        "threads",
        hygcn_par::num_threads(),
        "an integer >= 1",
        |v| *v >= 1,
    )?;
    let kind = model_kind(args.get_or("model", "GCN"))?;

    let graph = hygcn_graph::generator::rmat(
        vertices,
        vertices * degree,
        hygcn_graph::generator::RmatParams::default(),
        7,
    )
    .map_err(|e| CliError::Runtime(e.to_string()))?
    .with_feature_len(f);
    let model = GcnModel::new(kind, f, 0xC0DE).map_err(|e| CliError::Runtime(e.to_string()))?;
    // The Table 6 default configuration; --aggbuf-mb etc. still apply
    // (smaller aggregation buffers mean more, smaller chunks).
    let cfg = build_config(args)?;
    let sim = Simulator::new(cfg);

    // Best-of-`runs` timing of one evaluation path. A missing report is
    // a hard error, not a panic: arg validation guarantees `runs >= 1`,
    // but the benchmark must degrade to a `CliError` if that invariant
    // ever breaks rather than take the process down.
    let time_path =
        |eval: &dyn Fn() -> Result<hygcn_core::SimReport, hygcn_core::SimError>|
         -> Result<(f64, hygcn_core::SimReport), CliError> {
            let mut best = f64::INFINITY;
            let mut report = None;
            for _ in 0..runs {
                let t0 = Instant::now();
                let r = eval().map_err(|e| CliError::Runtime(e.to_string()))?;
                best = best.min(t0.elapsed().as_secs_f64());
                report = Some(r);
            }
            report
                .map(|r| (best, r))
                .ok_or_else(|| CliError::Runtime("bench completed zero runs".to_string()))
        };
    let time_best = |threads: usize| -> Result<(f64, hygcn_core::SimReport), CliError> {
        hygcn_par::set_thread_override(Some(threads));
        let result = time_path(&|| sim.simulate(&graph, &model));
        hygcn_par::set_thread_override(None);
        result
    };

    // The seed path: serial, gather-and-sort planning, per-chunk
    // allocations — the "before" this benchmark measures against.
    let (seed_s, seed_report) = time_path(&|| sim.simulate_reference(&graph, &model))?;
    let (cycle_s, cycle_report) = time_best(1)?;
    // The event-schedule backend. The very first evaluation pays the
    // build-once costs — the graph's occupancy index and the span
    // program's decode pass — so it is timed separately as the cold
    // path; the best-of-N that follows hits both caches and reports the
    // warm replay cost a campaign or figure grid would pay per point.
    let fast_cold_t0 = Instant::now();
    let fast_cold_report = hygcn_core::cycle_fast::simulate_fast(sim.config(), &graph, &model)
        .map_err(|e| CliError::Runtime(e.to_string()))?;
    let fast_cold_s = fast_cold_t0.elapsed().as_secs_f64();
    let (fast_s, fast_report) =
        time_path(&|| hygcn_core::cycle_fast::simulate_fast(sim.config(), &graph, &model))?;
    let (parallel_s, parallel_report) = time_best(threads.max(1))?;
    let identical = cycle_report == parallel_report
        && seed_report == parallel_report
        && fast_report == parallel_report
        && fast_cold_report == parallel_report;
    let speedup = seed_s / fast_s;
    let thread_speedup = cycle_s / parallel_s;

    let mut out = format!(
        "simulate() host throughput: {} on RMAT ({} vertices, {} edges, f={})\n\
         chunks: {}   threads: {}   best of {} runs\n\
         seed path:  {:>9.1} ms   (serial, gather+sort, per-chunk allocs)\n\
         cycle:      {:>9.1} ms   (1 thread)\n\
         cycle-fast: {:>9.1} ms   (1 thread, warm span-program replay; \
         cold {:.1} ms incl. decode+index build)\n\
         parallel:   {:>9.1} ms   ({} threads, staged channel walk — \
         simulate()'s chunk pipeline, not the replay path)\n\
         speedup:    {:>9.2}x vs seed path   ({:.2}x from threads)\n\
         reports bit-identical across all four paths: {}\n\
         HBM: {} channels, row hit rate {:.3}\n",
        kind.abbrev(),
        graph.num_vertices(),
        graph.num_edges(),
        f,
        parallel_report.chunks,
        threads,
        runs,
        seed_s * 1e3,
        cycle_s * 1e3,
        fast_s * 1e3,
        fast_cold_s * 1e3,
        parallel_s * 1e3,
        threads,
        speedup,
        thread_speedup,
        identical,
        parallel_report.mem_channels.len(),
        parallel_report.mem.row_hit_rate(),
    );
    if !identical {
        return Err(CliError::Runtime(
            "seed, cycle, cycle-fast, and parallel SimReports diverged".to_string(),
        ));
    }
    if let Some(path) = args.get("json") {
        let json = format!(
            "{{\n  \"bench\": \"sim\",\n  \"model\": \"{}\",\n  \"vertices\": {},\n  \"edges\": {},\n  \"feature_len\": {},\n  \"chunks\": {},\n  \"threads\": {},\n  \"runs\": {},\n  \"seed_ms\": {:.3},\n  \"cycle_ms\": {:.3},\n  \"serial_ms\": {:.3},\n  \"fast_cold_ms\": {:.3},\n  \"parallel_ms\": {:.3},\n  \"parallel_path\": \"staged-walk\",\n  \"speedup_vs_seed\": {:.3},\n  \"thread_speedup\": {:.3},\n  \"identical_reports\": {},\n  \"cycles\": {},\n  \"dram_bytes\": {},\n  \"hbm_channels\": {},\n  \"row_hit_rate\": {:.6}\n}}\n",
            kind.abbrev(),
            graph.num_vertices(),
            graph.num_edges(),
            f,
            parallel_report.chunks,
            threads,
            runs,
            seed_s * 1e3,
            cycle_s * 1e3,
            fast_s * 1e3,
            fast_cold_s * 1e3,
            parallel_s * 1e3,
            speedup,
            thread_speedup,
            identical,
            parallel_report.cycles,
            parallel_report.dram_bytes(),
            parallel_report.mem_channels.len(),
            parallel_report.mem.row_hit_rate(),
        );
        // Same durability idiom as the campaign store: stage next to the
        // destination, then rename, so a crash mid-write can never leave
        // a torn trajectory file behind.
        let dest = std::path::Path::new(path);
        let tmp = dest.with_extension("tmp");
        std::fs::write(&tmp, json)
            .map_err(|e| CliError::Runtime(format!("writing {}: {e}", tmp.display())))?;
        std::fs::rename(&tmp, dest)
            .map_err(|e| CliError::Runtime(format!("renaming {} -> {path}: {e}", tmp.display())))?;
        out += &format!("wrote {path}\n");
    }

    // --profile / --trace-out: a separate instrumented pass AFTER the
    // timed section, so collection can never perturb the numbers above.
    // One run of each single-thread cycle path covers the whole span
    // taxonomy (window planning, schedule build, both engines, both
    // memory walks, backend evaluate).
    let profile = args.get_bool("profile");
    let trace_out = args.get("trace-out");
    if profile || trace_out.is_some() {
        hygcn_obs::reset();
        hygcn_obs::enable();
        hygcn_par::set_thread_override(Some(1));
        let profiled: Result<(), CliError> = (|| {
            hygcn_core::CycleAccurateBackend
                .evaluate(&graph, &model, sim.config())
                .map_err(|e| CliError::Runtime(e.to_string()))?;
            hygcn_core::CycleFastBackend
                .evaluate(&graph, &model, sim.config())
                .map_err(|e| CliError::Runtime(e.to_string()))?;
            Ok(())
        })();
        hygcn_par::set_thread_override(None);
        hygcn_obs::disable();
        profiled?;
        if profile {
            out += "\nphase profile (one instrumented run of cycle + cycle-fast):\n";
            out += &hygcn_obs::phase_table();
        }
        if let Some(path) = trace_out {
            std::fs::write(path, hygcn_obs::chrome_trace_json())
                .map_err(|e| CliError::Runtime(format!("writing {path}: {e}")))?;
            out += &format!("wrote {path}\n");
        }
        hygcn_obs::reset();
    }
    Ok(out)
}

/// `hygcn datasets` — the Table 4 registry.
pub fn datasets() -> String {
    let mut out = format!(
        "{:<4} {:<10} {:>10} {:>9} {:>13} {:>10}\n",
        "key", "name", "vertices", "feat.len", "edges", "avg.deg"
    );
    for spec in DatasetSpec::all() {
        out += &format!(
            "{:<4} {:<10} {:>10} {:>9} {:>13} {:>10.1}\n",
            spec.key.abbrev(),
            spec.name,
            spec.vertices,
            spec.feature_len,
            spec.edges,
            spec.avg_degree()
        );
    }
    out
}

/// `hygcn lint` — scan the workspace sources against the committed
/// invariant policy (`lint.toml`). Exit code contract: 0 when clean,
/// 2 when violations (or stale allowlist entries) remain. Findings go
/// to stdout — text or, with `--json`, a machine-readable report —
/// and the count summary to stderr, so pipelines can consume stdout
/// unconditionally.
pub fn lint(args: &Args) -> Result<String, CliError> {
    let root = PathBuf::from(args.get_or("root", "."));
    let config = args.get("config").map(PathBuf::from);
    let report = hygcn_lint::run_with_config_file(&root, config.as_deref(), args.get("rule"))
        .map_err(CliError::Runtime)?;
    let output = if args.get_bool("json") {
        report.to_json()
    } else {
        report.to_text()
    };
    if report.clean() {
        Ok(output)
    } else {
        Err(CliError::LintViolations {
            output,
            count: report.findings.len(),
        })
    }
}

/// `hygcn help`.
pub fn help() -> String {
    "hygcn — HyGCN (HPCA 2020) accelerator simulator

usage: hygcn <command> [--flag value]...

commands:
  simulate   run one workload on the accelerator
             --dataset IB|CR|CS|CL|PB|RD   --model GCN|GSC|GIN|DFP
             --layers N  --scale F  --seed N
             --pipeline latency|energy|none  --coordination on|off
             --sparsity on|off  --aggbuf-mb N  --inputbuf-kb N
             --out FILE (write the report as JSON)
  compare    HyGCN vs PyG-CPU vs PyG-GPU on one workload (same flags)
  sweep      legacy one-knob sweep: --knob aggbuf|window|factor
             (an alias over a one-axis campaign; same config flags)
  campaign   multi-axis DSE campaign: cached, resumable, Pareto-reported
             --axes \"axis=v1,v2;axis2=...\" with axes
               aggbuf-mb/inputbuf-kb/edgebuf-kb/pipeline/coordination/
               sparsity/factor/simd-cores/modules/module-geom/agg-mode/
               sched/remap/controller/channels/row-bytes/burst-bytes/
               clock-ghz/t-row
             --datasets IB,CR,...  --models GCN,GIN,...
             --scale F  --seed N
             --backend cycle|cycle-fast|analytical|cpu|gpu|seed (evaluation
               backend; every backend caches under its own keys in the
               same store — analytical screens points in microseconds)
             --sample N --sample-seed S (random subset of the grid)
             --strategy grid|random|successive-halving
               (halving: --eta N --rungs R --metric cycles|energy|dram;
               rungs evaluate survivors at fidelity eta^-(R-1-r), all
               cached in the same store, promotion deterministic;
               --prefilter on screens the full grid analytically and
               admits only the best n/eta candidates into rung 0)
             --store FILE|none (default campaign.jsonl; completed points
               are skipped on re-run; failed points are never cached and
               re-attempt on resume)
             --fault-plan SPEC (deterministic store fault injection for
               durability testing: kill-at-byte=N,transient-append=OP,
               short-append=OP:BYTES,disk-full=OP)
             --no-fast-substitution (cycle campaigns normally run
               repeat visits to a workload on cycle-fast once a
               dual-evaluated point proves the config class
               bit-identical; this pins every point to the staged
               simulator instead)
             --csv FILE  --md FILE
             --progress (periodic progress lines on stderr)
             --metrics-out FILE (flat metrics.json: counters, cache-hit
               ratio, phase timings, per-backend eval latency)
             --trace-out FILE (Chrome-trace JSON, loadable in Perfetto)
             exit code 3 if any point failed (report still printed;
               failed points re-attempt on resume)
  figures    regenerate paper figure/table artifacts via the campaign
             engine: hygcn figures <fig02|fig10|...|fig18|table02|
             table03|table07|ablation|all>
             --scale F (multiplier on each dataset's bench scale)
             --backend cycle|cycle-fast|analytical|cpu|gpu|seed (re-targets the
               accelerator spaces; fig10/fig11's cpu/gpu baseline
               spaces always run their own backends)
             --csv DIR / --json DIR (export each artifact's campaign
               data as plottable DIR/<id>.csv / DIR/<id>.json)
             --store FILE|none (default figures.jsonl, shared across all
               artifacts; an unchanged re-run simulates nothing)
             --metrics-out FILE / --trace-out FILE (as for campaign)
             exit code 3 if any point failed (its artifact is not
               rendered; failed points re-attempt on the next run)
  store      result-store maintenance: hygcn store <fsck|salvage|stats>
             --store FILE (default campaign.jsonl)
             fsck: read-only integrity check, non-zero exit on damage
             salvage: sideline damaged lines to FILE.quarantine, rewrite
               the store canonically (checksummed, key-ordered, deduped)
             stats: record/byte counts, checksum coverage, per-backend
               breakdown, quarantined-line count (--json for machines)
  bench      host-throughput benchmark: seed vs cycle (serial and
             parallel) vs the cycle-fast event-schedule backend
             --vertices N  --degree K  --feature-len F  --runs R
             --threads T  --json FILE (writes a BENCH_sim.json record)
             --profile (phase-time table from one instrumented run,
               collected after the timed section so timings are clean)
             --trace-out FILE (Chrome-trace JSON of the profiled run)
  lint       scan workspace sources against the invariant policy
             (determinism, cast-safety, panic-freedom, unsafe audit)
             --json (machine-readable report)  --rule R (one rule only)
             --config FILE (default lint.toml)  --root DIR (default .)
             findings on stdout, summary on stderr; exit 2 on findings
  datasets   list the Table 4 benchmark datasets
  help       this text

any workload command also accepts a user graph instead of --dataset:
  --edges FILE (whitespace `src dst` edge list)  --feature-len N
"
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Args;

    fn args(toks: &[&str]) -> Args {
        Args::parse(toks.iter().map(|s| s.to_string()), WORKLOAD_FLAGS).unwrap()
    }

    #[test]
    fn resolves_names_case_insensitively() {
        assert_eq!(dataset_key("cr").unwrap(), DatasetKey::Cr);
        assert_eq!(model_kind("gin").unwrap(), ModelKind::Gin);
        assert!(dataset_key("XX").is_err());
        assert!(model_kind("MLP").is_err());
    }

    #[test]
    fn simulate_small_workload() {
        let out = simulate(&args(&["simulate", "--dataset", "IB", "--scale", "0.1"])).unwrap();
        assert!(out.contains("GCN on IMDB-BIN"));
        assert!(out.contains("layer 1"));
        assert!(out.contains("total:"));
    }

    #[test]
    fn simulate_multi_layer() {
        let out = simulate(&args(&[
            "simulate",
            "--dataset",
            "IB",
            "--scale",
            "0.1",
            "--layers",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("layer 2"));
    }

    #[test]
    fn compare_reports_all_platforms() {
        let out = compare(&args(&["compare", "--dataset", "IB", "--scale", "0.1"])).unwrap();
        assert!(out.contains("PyG-CPU"));
        assert!(out.contains("PyG-GPU"));
        assert!(out.contains("HyGCN"));
        assert!(out.contains("speedup:"));
    }

    #[test]
    fn sweep_knobs() {
        for knob in ["aggbuf", "window", "factor"] {
            let out = sweep(&args(&[
                "sweep",
                "--dataset",
                "IB",
                "--scale",
                "0.1",
                "--knob",
                knob,
            ]))
            .unwrap();
            assert!(out.contains("sweep"), "{knob}");
        }
        assert!(sweep(&args(&["sweep", "--knob", "bogus", "--scale", "0.1"])).is_err());
    }

    #[test]
    fn datasets_lists_all_six() {
        let out = datasets();
        for key in ["IB", "CR", "CS", "CL", "PB", "RD"] {
            assert!(out.contains(key));
        }
    }

    #[test]
    fn config_flags_apply() {
        let out = simulate(&args(&[
            "simulate",
            "--dataset",
            "IB",
            "--scale",
            "0.1",
            "--pipeline",
            "none",
            "--coordination",
            "off",
            "--sparsity",
            "off",
            "--aggbuf-mb",
            "4",
        ]))
        .unwrap();
        assert!(out.contains("sparsity red.   0.0%"));
    }

    #[test]
    fn user_edge_list_loads() {
        let dir = std::env::temp_dir().join("hygcn-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("edges.txt");
        std::fs::write(&path, "0 1\n1 2\n2 3\n3 0\n").unwrap();
        let out = simulate(&args(&[
            "simulate",
            "--edges",
            path.to_str().unwrap(),
            "--feature-len",
            "32",
        ]))
        .unwrap();
        assert!(out.contains("4 vertices"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_enum_values_error() {
        assert!(simulate(&args(&["simulate", "--pipeline", "warp", "--scale", "0.1"])).is_err());
        assert!(simulate(&args(&["simulate", "--dataset", "nope"])).is_err());
    }

    fn campaign_args(toks: &[&str]) -> Args {
        Args::parse(toks.iter().map(|s| s.to_string()), CAMPAIGN_FLAGS).unwrap()
    }

    #[test]
    fn simulate_out_writes_report_json() {
        let dir = std::env::temp_dir().join("hygcn-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        std::fs::remove_file(&path).ok();
        let out = simulate(&args(&[
            "simulate",
            "--dataset",
            "IB",
            "--scale",
            "0.1",
            "--out",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("wrote"));
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.starts_with("{\n"));
        assert!(json.contains("\"cycles\": "));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn campaign_two_axes_reports_pareto_and_marginals() {
        let out = campaign(&campaign_args(&[
            "campaign",
            "--datasets",
            "IB",
            "--scale",
            "0.1",
            "--axes",
            "aggbuf-mb=4,16;sparsity=on,off",
            "--store",
            "none",
        ]))
        .unwrap();
        assert!(out.contains("## Campaign (4 points: 4 simulated, 0 cached)"));
        assert!(out.contains("### Pareto front"));
        assert!(out.contains("Per-axis marginals"));
    }

    #[test]
    fn campaign_store_makes_second_run_all_hits() {
        let dir = std::env::temp_dir().join("hygcn-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let store = dir.join("cli-campaign.jsonl");
        std::fs::remove_file(&store).ok();
        let toks = [
            "campaign",
            "--datasets",
            "IB",
            "--scale",
            "0.1",
            "--axes",
            "aggbuf-mb=4,16",
            "--store",
            store.to_str().unwrap(),
        ];
        let first = campaign(&campaign_args(&toks)).unwrap();
        assert!(first.contains("2 simulated, 0 cached"));
        let second = campaign(&campaign_args(&toks)).unwrap();
        assert!(second.contains("0 simulated, 2 cached"));
        std::fs::remove_file(&store).ok();
    }

    #[test]
    fn campaign_rejects_bad_axes() {
        for spec in ["bogus=1", "aggbuf-mb", "pipeline=warp"] {
            let e = campaign(&campaign_args(&[
                "campaign", "--axes", spec, "--store", "none", "--scale", "0.1",
            ]));
            assert!(e.is_err(), "{spec}");
        }
    }

    /// Every out-of-bounds flag value the help text promises to reject
    /// is rejected with `BadValue` naming the flag — previously all of
    /// these were accepted and panicked downstream or silently simulated
    /// nonsense.
    #[test]
    fn out_of_bounds_flag_values_are_bad_values() {
        let bad_value_for = |result: Result<String, CliError>, flag: &str| {
            match result {
                Err(CliError::Args(ArgError::BadValue { flag: f, .. })) => {
                    assert_eq!(f, flag, "wrong flag blamed")
                }
                other => panic!("--{flag}: expected BadValue, got {other:?}"),
            };
        };
        for scale in ["0", "1.5", "-0.5"] {
            bad_value_for(
                simulate(&args(&["simulate", "--dataset", "IB", "--scale", scale])),
                "scale",
            );
        }
        bad_value_for(
            simulate(&args(&["simulate", "--scale", "0.1", "--layers", "0"])),
            "layers",
        );
        bad_value_for(
            simulate(&args(&["simulate", "--scale", "0.1", "--aggbuf-mb", "0"])),
            "aggbuf-mb",
        );
        bad_value_for(
            simulate(&args(&["simulate", "--scale", "0.1", "--inputbuf-kb", "0"])),
            "inputbuf-kb",
        );
        bad_value_for(
            simulate(&args(&[
                "simulate",
                "--scale",
                "0.1",
                "--feature-len",
                "0",
                "--edges",
                "x",
            ])),
            "feature-len",
        );
        let bench_args =
            |toks: &[&str]| Args::parse(toks.iter().map(|s| s.to_string()), BENCH_FLAGS).unwrap();
        bad_value_for(
            bench(&bench_args(&["bench", "--vertices", "0"])),
            "vertices",
        );
        bad_value_for(
            bench(&bench_args(&["bench", "--vertices", "512"])),
            "vertices",
        );
        bad_value_for(bench(&bench_args(&["bench", "--runs", "0"])), "runs");
        bad_value_for(bench(&bench_args(&["bench", "--threads", "0"])), "threads");
        bad_value_for(bench(&bench_args(&["bench", "--degree", "0"])), "degree");
        bad_value_for(
            campaign(&campaign_args(&[
                "campaign", "--sample", "0", "--scale", "0.1",
            ])),
            "sample",
        );
        bad_value_for(
            campaign(&campaign_args(&[
                "campaign",
                "--strategy",
                "successive-halving",
                "--eta",
                "1",
                "--scale",
                "0.1",
            ])),
            "eta",
        );
        bad_value_for(
            campaign(&campaign_args(&[
                "campaign",
                "--strategy",
                "successive-halving",
                "--rungs",
                "0",
                "--scale",
                "0.1",
            ])),
            "rungs",
        );
    }

    #[test]
    fn campaign_successive_halving_runs_and_reports_rungs() {
        let dir = std::env::temp_dir().join("hygcn-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let store = dir.join("cli-halving.jsonl");
        std::fs::remove_file(&store).ok();
        let toks = [
            "campaign",
            "--datasets",
            "IB",
            "--scale",
            "0.2",
            "--axes",
            "aggbuf-mb=2,4,8,16",
            "--strategy",
            "successive-halving",
            "--eta",
            "2",
            "--rungs",
            "2",
            "--store",
            store.to_str().unwrap(),
        ];
        let first = campaign(&campaign_args(&toks)).unwrap();
        assert!(first.contains("successive halving (2 rungs, metric: cycles)"));
        assert!(first.contains("rung 0: fidelity 0.5"));
        assert!(first.contains("-> 2 promoted"));
        assert!(first.contains("6 simulated, 0 cached"));
        // Re-run: zero simulations; identical promotions and point rows
        // (only the simulated/cached counters may differ).
        let second = campaign(&campaign_args(&toks)).unwrap();
        assert!(second.contains("0 simulated, 6 cached"));
        let stable = |out: &str| -> Vec<String> {
            out.lines()
                .filter(|l| l.contains("promoted") || l.starts_with("| "))
                .map(|l| l.split(')').next_back().unwrap_or(l).to_string())
                .collect()
        };
        assert_eq!(stable(&first), stable(&second));
        std::fs::remove_file(&store).ok();
        assert!(campaign(&campaign_args(&[
            "campaign",
            "--strategy",
            "warp",
            "--scale",
            "0.1",
            "--store",
            "none",
        ]))
        .is_err());
        assert!(campaign(&campaign_args(&[
            "campaign",
            "--strategy",
            "successive-halving",
            "--metric",
            "joules",
            "--scale",
            "0.1",
            "--store",
            "none",
        ]))
        .is_err());
    }

    #[test]
    fn campaign_random_strategy_actually_samples() {
        // `--strategy random` without `--sample` evaluates a bounded
        // subset (default 16), never the full grid — and `--sample`
        // tightens it.
        let out = campaign(&campaign_args(&[
            "campaign",
            "--datasets",
            "IB",
            "--scale",
            "0.1",
            "--axes",
            "aggbuf-mb=2,4,8;sparsity=on,off",
            "--strategy",
            "random",
            "--sample",
            "3",
            "--store",
            "none",
        ]))
        .unwrap();
        assert!(out.contains("## Campaign (3 points"), "{out}");
    }

    fn figure_args(toks: &[&str]) -> Args {
        Args::parse_with_positionals(toks.iter().map(|s| s.to_string()), FIGURE_FLAGS, 1).unwrap()
    }

    #[test]
    fn figures_rejects_unknown_artifact_and_bad_scale() {
        let e = figures(&figure_args(&["figures", "fig99"])).unwrap_err();
        assert!(e.to_string().contains("unknown figure"));
        assert!(matches!(
            figures(&figure_args(&["figures", "table07", "--scale", "2.0"])),
            Err(CliError::Args(ArgError::BadValue { .. }))
        ));
    }

    #[test]
    fn figures_single_artifact_round_trips_through_store() {
        let dir = std::env::temp_dir().join("hygcn-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let store = dir.join("cli-figures.jsonl");
        std::fs::remove_file(&store).ok();
        let toks = [
            "figures",
            "fig17",
            "--scale",
            "0.05",
            "--store",
            store.to_str().unwrap(),
        ];
        let first = figures(&figure_args(&toks)).unwrap();
        assert!(first.contains("=== Fig. 17"));
        assert!(first.contains("6 simulated, 0 cached"));
        let second = figures(&figure_args(&toks)).unwrap();
        assert!(second.contains("0 simulated, 6 cached"));
        // The rendered tables are bit-identical whether simulated or
        // served from the store (only the store banner's counts differ).
        let tables = |out: &str| -> String {
            out.lines()
                .filter(|l| !l.contains("figures store:"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(tables(&first), tables(&second));
        std::fs::remove_file(&store).ok();
    }

    /// IB with a 1 KB Input Buffer, which cannot hold one feature row.
    fn failing_ib_space(mult: f64) -> Result<Vec<ConfigSpace>, DseError> {
        let ib = WorkloadSpec::dataset(DatasetKey::Ib, mult, 0x5EED);
        Ok(vec![ConfigSpace::new(vec![ib], vec![ModelKind::Gcn])
            .with_axis(Axis::parse("inputbuf-kb", "1")?)])
    }

    fn unreachable_render(_: &[hygcn_dse::CampaignReport], _: &mut FigureCtx) -> String {
        unreachable!("an artifact with failed points must not render")
    }

    #[test]
    fn figures_with_failed_points_end_in_the_exit_3_error() {
        let broken = FigureSpec {
            id: "broken",
            title: "Broken artifact",
            spaces: failing_ib_space,
            render: unreachable_render,
        };
        let specs = [&broken, find_figure("table07").unwrap()];
        let args = figure_args(&["figures", "--scale", "0.05", "--store", "none"]);
        match run_figures(&specs, &args) {
            Err(CliError::CampaignFailed { output, failed }) => {
                assert_eq!(failed, 1);
                assert!(output.contains("=== Broken artifact ===\nnot rendered: 1 point(s) failed"));
                assert!(output.contains("IB@0.05/GCN/inputbuf-kb=1: "), "{output}");
                // The artifacts after the failed one still render.
                assert!(output.contains("=== Table 7"), "{output}");
            }
            other => panic!("expected CampaignFailed, got {other:?}"),
        }
    }

    #[test]
    fn figures_static_artifact_needs_no_simulation() {
        let out = figures(&figure_args(&["figures", "table07", "--store", "none"])).unwrap();
        assert!(out.contains("=== Table 7"));
        assert!(out.contains("0 simulated, 0 cached"));
    }

    #[test]
    fn campaign_analytical_backend_caches_separately_from_cycle() {
        let dir = std::env::temp_dir().join("hygcn-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let store = dir.join("cli-backends.jsonl");
        std::fs::remove_file(&store).ok();
        let toks = |backend: &str| {
            vec![
                "campaign".to_string(),
                "--datasets".into(),
                "IB".into(),
                "--scale".into(),
                "0.1".into(),
                "--axes".into(),
                "aggbuf-mb=4,16".into(),
                "--backend".into(),
                backend.into(),
                "--store".into(),
                store.to_str().unwrap().into(),
            ]
        };
        let run =
            |backend: &str| campaign(&Args::parse(toks(backend), CAMPAIGN_FLAGS).unwrap()).unwrap();
        // Cycle fills the store; analytical over the same store gets
        // zero cross-backend hits; each re-run is 100% cached.
        assert!(run("cycle").contains("2 simulated, 0 cached"));
        assert!(run("analytical").contains("2 simulated, 0 cached"));
        assert!(run("analytical").contains("0 simulated, 2 cached"));
        assert!(run("cycle").contains("0 simulated, 2 cached"));
        // The platform backends run through the same machinery (the
        // accelerator-buffer axis still enumerates two points; the
        // platform models simply produce equal metrics for both).
        assert!(run("cpu").contains("2 simulated, 0 cached"));
        assert!(run("gpu").contains("2 simulated, 0 cached"));
        std::fs::remove_file(&store).ok();
        // Unknown backends fail loudly.
        assert!(campaign(&Args::parse(toks("warp"), CAMPAIGN_FLAGS).unwrap()).is_err());
    }

    #[test]
    fn campaign_cycle_fast_backend_caches_separately_from_cycle() {
        // `cycle-fast` reports are bit-identical to `cycle`'s, which
        // makes silent cross-backend cache hits especially easy to miss
        // — so prove the ids key separate store records.
        let dir = std::env::temp_dir().join("hygcn-cli-test-fastkey");
        std::fs::create_dir_all(&dir).unwrap();
        let store = dir.join("cli-fast-backend.jsonl");
        std::fs::remove_file(&store).ok();
        let toks = |backend: &str| {
            vec![
                "campaign".to_string(),
                "--datasets".into(),
                "IB".into(),
                "--scale".into(),
                "0.1".into(),
                "--axes".into(),
                "aggbuf-mb=4,16".into(),
                "--backend".into(),
                backend.into(),
                "--store".into(),
                store.to_str().unwrap().into(),
            ]
        };
        let run =
            |backend: &str| campaign(&Args::parse(toks(backend), CAMPAIGN_FLAGS).unwrap()).unwrap();
        assert!(run("cycle").contains("2 simulated, 0 cached"));
        // cycle-fast never hits cycle-keyed records...
        assert!(run("cycle-fast").contains("2 simulated, 0 cached"));
        // ...but re-hits its own, and leaves cycle's untouched.
        assert!(run("cycle-fast").contains("0 simulated, 2 cached"));
        assert!(run("cycle").contains("0 simulated, 2 cached"));
        std::fs::remove_file(&store).ok();
    }

    #[test]
    fn bench_simulation_failure_is_an_error_not_a_panic() {
        let bench_args =
            |toks: &[&str]| Args::parse(toks.iter().map(|s| s.to_string()), BENCH_FLAGS).unwrap();
        // Half of an 8 KB input buffer cannot hold one f=4096 feature
        // row, so every timed path fails — which must surface as a
        // CliError from the timing loop, not a panic.
        let err = bench(&bench_args(&[
            "bench",
            "--vertices",
            "1024",
            "--feature-len",
            "4096",
            "--inputbuf-kb",
            "8",
            "--runs",
            "1",
        ]))
        .unwrap_err();
        assert!(
            format!("{err}").contains("buffer"),
            "expected a buffer error, got: {err}"
        );
    }

    #[test]
    fn bench_json_is_atomic_and_covers_all_four_paths() {
        let dir = std::env::temp_dir().join("hygcn-cli-test-bench");
        std::fs::create_dir_all(&dir).unwrap();
        let json = dir.join("bench.json");
        std::fs::remove_file(&json).ok();
        let bench_args =
            |toks: &[&str]| Args::parse(toks.iter().map(|s| s.to_string()), BENCH_FLAGS).unwrap();
        let out = bench(&bench_args(&[
            "bench",
            "--vertices",
            "1024",
            "--degree",
            "4",
            "--feature-len",
            "32",
            "--runs",
            "1",
            "--threads",
            "1",
            "--json",
            json.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("cycle-fast:"), "{out}");
        assert!(
            out.contains("bit-identical across all four paths: true"),
            "{out}"
        );
        let body = std::fs::read_to_string(&json).unwrap();
        for field in [
            "\"seed_ms\"",
            "\"cycle_ms\"",
            "\"serial_ms\"",
            "\"parallel_ms\"",
            "\"identical_reports\": true",
        ] {
            assert!(body.contains(field), "missing {field} in {body}");
        }
        // The staged write leaves no temp file behind.
        assert!(!json.with_extension("tmp").exists());
        std::fs::remove_file(&json).ok();
    }

    #[test]
    fn campaign_prefilter_screens_before_halving() {
        let out = campaign(&campaign_args(&[
            "campaign",
            "--datasets",
            "IB",
            "--scale",
            "0.2",
            "--axes",
            "aggbuf-mb=2,4,8,16",
            "--strategy",
            "successive-halving",
            "--eta",
            "2",
            "--rungs",
            "2",
            "--prefilter",
            "on",
            "--store",
            "none",
        ]))
        .unwrap();
        assert!(out.contains("analytical prefilter: 4 screened"), "{out}");
        assert!(out.contains("-> 2 enter rung 0"), "{out}");
        assert!(out.contains("rung 0: fidelity 0.5"), "{out}");
        assert!(out.contains("2 evaluated (2 simulated"), "{out}");
        assert!(campaign(&campaign_args(&[
            "campaign",
            "--strategy",
            "successive-halving",
            "--prefilter",
            "maybe",
            "--scale",
            "0.1",
            "--store",
            "none",
        ]))
        .is_err());
    }

    #[test]
    fn figures_csv_json_export_writes_plottable_artifacts() {
        let dir = std::env::temp_dir().join("hygcn-cli-figures-export");
        std::fs::remove_dir_all(&dir).ok();
        let csv_dir = dir.join("csv");
        let json_dir = dir.join("json");
        let out = figures(&figure_args(&[
            "figures",
            "fig17",
            "--scale",
            "0.05",
            "--store",
            "none",
            "--csv",
            csv_dir.to_str().unwrap(),
            "--json",
            json_dir.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("fig17.csv"), "{out}");
        assert!(out.contains("fig17.json"), "{out}");
        let csv = std::fs::read_to_string(csv_dir.join("fig17.csv")).unwrap();
        assert!(csv.contains("dataset,model,coordination,cycles"));
        let json = std::fs::read_to_string(json_dir.join("fig17.json")).unwrap();
        assert!(json.contains("\"id\": \"fig17\""));
        assert!(json.contains("\"cycles\": "));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn figures_backend_override_reruns_from_its_own_cache() {
        let dir = std::env::temp_dir().join("hygcn-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let store = dir.join("cli-figures-analytical.jsonl");
        std::fs::remove_file(&store).ok();
        let toks = [
            "figures",
            "fig15",
            "--scale",
            "0.05",
            "--backend",
            "analytical",
            "--store",
            store.to_str().unwrap(),
        ];
        let first = figures(&figure_args(&toks)).unwrap();
        assert!(first.contains("(6 simulated, 0 cached"), "{first}");
        let second = figures(&figure_args(&toks)).unwrap();
        assert!(second.contains("(0 simulated, 6 cached"), "{second}");
        std::fs::remove_file(&store).ok();
        assert!(figures(&figure_args(&["figures", "fig15", "--backend", "warp"])).is_err());
    }

    #[test]
    fn sweep_is_a_campaign_alias() {
        let out = sweep(&args(&[
            "sweep",
            "--dataset",
            "IB",
            "--scale",
            "0.1",
            "--knob",
            "aggbuf",
        ]))
        .unwrap();
        assert!(out.contains("via the campaign engine"));
        assert!(out.contains("| aggbuf-mb |") || out.contains("aggbuf-mb"));
        assert!(out.contains("5 points"));
    }

    fn store_args(toks: &[&str]) -> Args {
        Args::parse_with_positionals(toks.iter().map(|s| s.to_string()), STORE_FLAGS, 1).unwrap()
    }

    #[test]
    fn store_fsck_salvage_stats_round_trip() {
        let dir = std::env::temp_dir().join("hygcn-cli-store-test");
        std::fs::create_dir_all(&dir).unwrap();
        let store = dir.join("maint.jsonl");
        std::fs::remove_file(&store).ok();
        std::fs::remove_file(dir.join("maint.jsonl.quarantine")).ok();
        let path = store.to_str().unwrap();
        campaign(&campaign_args(&[
            "campaign",
            "--datasets",
            "IB",
            "--scale",
            "0.1",
            "--axes",
            "aggbuf-mb=4,16",
            "--store",
            path,
        ]))
        .unwrap();

        let fsck = store_cmd(&store_args(&["store", "fsck", "--store", path])).unwrap();
        assert!(fsck.contains("status: clean"), "{fsck}");
        let stats = store_cmd(&store_args(&["store", "stats", "--store", path])).unwrap();
        assert!(stats.contains("2 record(s)"), "{stats}");
        assert!(stats.contains("cycle: 2"), "{stats}");
        assert!(stats.contains("0 quarantined line(s)"), "{stats}");

        // Corrupt one line and leave a torn tail: fsck now fails loudly,
        // salvage sidelines the damage, and a re-fsck is clean.
        let mut bytes = std::fs::read(&store).unwrap();
        bytes.extend_from_slice(b"{ not json at all }\n");
        bytes.extend_from_slice(b"{\"key\": 99");
        std::fs::write(&store, &bytes).unwrap();
        let err = store_cmd(&store_args(&["store", "fsck", "--store", path])).unwrap_err();
        assert!(err.to_string().contains("salvage"), "{err}");
        let salvaged = store_cmd(&store_args(&["store", "salvage", "--store", path])).unwrap();
        assert!(salvaged.contains("kept 2"), "{salvaged}");
        assert!(salvaged.contains("sidelined"), "{salvaged}");
        let refsck = store_cmd(&store_args(&["store", "fsck", "--store", path])).unwrap();
        assert!(refsck.contains("status: clean"), "{refsck}");

        // The salvaged store still serves every point from cache.
        let resumed = campaign(&campaign_args(&[
            "campaign",
            "--datasets",
            "IB",
            "--scale",
            "0.1",
            "--axes",
            "aggbuf-mb=4,16",
            "--store",
            path,
        ]))
        .unwrap();
        assert!(resumed.contains("0 simulated, 2 cached"), "{resumed}");

        assert!(store_cmd(&store_args(&["store", "defrag", "--store", path])).is_err());
        std::fs::remove_file(&store).ok();
        std::fs::remove_file(dir.join("maint.jsonl.quarantine")).ok();
    }

    #[test]
    fn campaign_unwritable_store_names_operation_and_path() {
        // `--store` pointing at a directory cannot be opened; the error
        // wraps the failing operation and the offending path instead of
        // a bare io::Error.
        let dir = std::env::temp_dir().join("hygcn-cli-store-is-a-dir");
        std::fs::create_dir_all(&dir).unwrap();
        let err = campaign(&campaign_args(&[
            "campaign",
            "--datasets",
            "IB",
            "--scale",
            "0.1",
            "--axes",
            "aggbuf-mb=4,16",
            "--store",
            dir.to_str().unwrap(),
        ]))
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("result store"), "{msg}");
        assert!(msg.contains("open"), "{msg}");
        assert!(msg.contains("hygcn-cli-store-is-a-dir"), "{msg}");
    }

    #[test]
    fn render_progress_formats_counters_and_eta() {
        // With collection off (the default in this process) every
        // counter reads zero: no rate, no ETA.
        let line = render_progress(1.0);
        assert!(line.starts_with("progress: 0/0 points"), "{line}");
        assert!(line.contains("0.0 pts/s, eta -"), "{line}");
    }

    #[test]
    fn store_stats_json_escapes_and_derives_coverage() {
        let s = hygcn_dse::StoreStats {
            records: 4,
            bytes: 512,
            checksummed: 3,
            quarantined: 1,
            torn_tail: true,
            per_backend: vec![("cycle".to_string(), 3)],
        };
        let json = store_stats_json("a\"b.jsonl", &s);
        assert!(json.contains("\"store\": \"a\\\"b.jsonl\""), "{json}");
        assert!(json.contains("\"checksum_coverage\": 0.7500"), "{json}");
        assert!(json.contains("\"torn_tail\": true"), "{json}");
        assert!(json.contains("\"cycle\": 3"), "{json}");
    }

    #[test]
    fn campaign_fault_plan_kills_then_resumes_without_resimulating() {
        let dir = std::env::temp_dir().join("hygcn-cli-fault-test");
        std::fs::create_dir_all(&dir).unwrap();
        let golden = dir.join("golden.jsonl");
        let store = dir.join("faulted.jsonl");
        std::fs::remove_file(&golden).ok();
        std::fs::remove_file(&store).ok();
        let path = store.to_str().unwrap();
        let base = |store_path: &str, extra: &[&str]| {
            let mut toks = vec![
                "campaign",
                "--datasets",
                "IB",
                "--scale",
                "0.1",
                "--axes",
                "aggbuf-mb=4,16",
                "--store",
                store_path,
            ];
            toks.extend_from_slice(extra);
            campaign_args(&toks)
        };
        // A clean golden run tells us where the first record ends; the
        // store format is deterministic, so killing ten bytes into the
        // second record tears exactly that record in the faulted run.
        campaign(&base(golden.to_str().unwrap(), &[])).unwrap();
        let first_line_end = std::fs::read(&golden)
            .unwrap()
            .iter()
            .position(|&b| b == b'\n')
            .unwrap()
            + 1;
        let plan = format!("kill-at-byte={}", first_line_end + 10);
        // The injected kill aborts the campaign mid-store-write...
        let err = campaign(&base(path, &["--fault-plan", &plan])).unwrap_err();
        assert!(err.to_string().contains("result store"), "{err}");
        // ...but a plain resume finishes the remaining points and a
        // second resume is fully cached: no point ever re-simulates.
        let resumed = campaign(&base(path, &[])).unwrap();
        assert!(resumed.contains("1 simulated, 1 cached"), "{resumed}");
        let again = campaign(&base(path, &[])).unwrap();
        assert!(again.contains("0 simulated, 2 cached"), "{again}");
        // The recovered store is bit-identical to the uninterrupted run.
        assert_eq!(
            std::fs::read(&store).unwrap(),
            std::fs::read(&golden).unwrap()
        );
        // Malformed plans fail loudly before any simulation.
        let bad = campaign(&base(path, &["--fault-plan", "explode=now"])).unwrap_err();
        assert!(bad.to_string().contains("fault-plan"), "{bad}");
        std::fs::remove_file(&golden).ok();
        std::fs::remove_file(&store).ok();
    }
}
