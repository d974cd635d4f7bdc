//! `e2ebench`: end-to-end and per-layer host-time benchmark of the HyGCN
//! reproduction.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload figures|timing_sweep|structure_sweep \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Repeats the workload (set-up, cold pass, warm pass) until `--seconds`
//! are spent, runs the host-speed probe of [`calib`] between
//! repetitions, and prints the end-to-end metrics: medians over the
//! repetitions of each time divided by the host's slowness at the time
//! (see [`calib::PROBE_REF_S`]). With
//! `--trace 1` it then runs one more repetition with the harness spans
//! and the `hygcn_obs` collector on, prints the per-layer metrics
//! instead, and writes both Chrome traces under `.bench_work/traces/`.
//! The last line of standard output is one JSON object; the exit code is
//! 1 when a correctness check fails. Every run uses one worker thread.

mod calib;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use hygcn_bench::figures::FIGURES;
use hygcn_obs::{Counter, Phase};

use trace::{Attribution, Layer, SpanRec, Tracer};
use calib::{HostMeter, PROBE_REF_S};
use workloads::{median, Bench, Rep, Workload, DEFAULT_SEED};

const USAGE: &str = "usage: e2ebench --workload figures|timing_sweep|structure_sweep \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Where stores and traces go, relative to the directory run from.
const WORK_DIR: &str = ".bench_work";

/// Repetitions that set up; later sweep repetitions skip it (their cold
/// pass synthesizes its own graphs), so the run times more passes.
const SETUP_REPS: usize = 5;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut parsed = Args {
        workload: Workload::Figures,
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => {
                let n = match value.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => value.parse(),
                };
                parsed.seed = n.map_err(|_| format!("--seed: '{value}' is not a u64"))?;
            }
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=3600).contains(s))
                    .ok_or_else(|| format!("--seconds: '{value}' is not 1..=3600"))?;
            }
            "--trace" => {
                parsed.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: '{value}' is not 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    parsed.workload = workload.ok_or("--workload is required")?;
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let dir = Path::new(WORK_DIR).join(format!("{}-{}", args.workload.name(), std::process::id()));
    let result = std::fs::create_dir_all(&dir)
        .map_err(|e| format!("cannot create {}: {e}", dir.display()))
        .and_then(|()| run(&args, &dir));
    // The stores are scratch; traces live outside this directory.
    let _ = std::fs::remove_dir_all(&dir);
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::from(1)
        }
    }
}

/// One named value with its unit.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Peak resident set of this process, MB (`VmHWM` in `/proc/self/status`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Runs the workload; `Ok(false)` when a correctness check failed.
fn run(args: &Args, dir: &Path) -> Result<bool, String> {
    // One worker thread: point-level fan-out is the only parallelism the
    // campaign has, and on a small shared host threads add noise, not
    // speed. Results are bit-identical at any thread count.
    hygcn_par::set_thread_override(Some(1));
    let bench = Bench::new(args.workload, args.seed, dir).map_err(|e| e.to_string())?;
    println!(
        "e2ebench workload={} seed={:#x} seconds={} trace={} threads=1",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    if args.workload == Workload::Figures {
        println!(
            "note: figures synthesizes its datasets with the figure registry's own seed \
             (hygcn_bench::figures::FIGURE_SEED = {:#x}); --seed does not change its inputs",
            hygcn_bench::figures::FIGURE_SEED
        );
    }
    println!(
        "note: the modelled HyGCN design has no hardware reference in this repository, \
         so no simulator error figure is given; outputs are checked against the seed \
         oracle backend and pinned digests instead"
    );

    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    // How slow the host was during each repetition: the mean time of
    // the probes on either side of it and inside it, over the reference.
    let mut slow: Vec<f64> = Vec::new();
    let mut meter = HostMeter::on();
    meter.sample();
    loop {
        let rep = bench.rep(
            &mut Tracer::off(),
            &mut meter,
            reps.len() < SETUP_REPS,
            reps.is_empty(),
        )?;
        meter.sample();
        let factor = meter.factor();
        eprintln!(
            "rep {}: setup {} s, cold {:.4} s, warm {:.4} s (median of {}), host factor {:.3}",
            reps.len(),
            rep.setup_s.map_or("-".to_string(), |s| format!("{s:.4}")),
            rep.cold_s,
            median(&rep.warm_s),
            rep.warm_s.len(),
            factor
        );
        reps.push(rep);
        slow.push(factor);
        // Stop before a repetition that would overrun the budget, once
        // there are two.
        let per_rep = start.elapsed() / reps.len() as u32;
        if reps.len() >= 2 && start.elapsed() + per_rep > budget {
            break;
        }
    }
    // Each repetition's times, raw and divided by its host factor.
    let times = |f: fn(&Rep) -> Option<f64>, normalize: bool| {
        let per_rep = reps.iter().zip(&slow);
        per_rep
            .filter_map(|(r, &h)| f(r).map(|t| if normalize { t / h } else { t }))
            .collect::<Vec<_>>()
    };
    let setup = |r: &Rep| r.setup_s;
    let cold = |r: &Rep| Some(r.cold_s);
    let warm = |r: &Rep| Some(median(&r.warm_s));
    let rates: Vec<f64> = reps
        .iter()
        .zip(&slow)
        .map(|(r, &h)| r.cold_done as f64 * h / r.cold_s)
        .collect();
    let e2e = vec![
        metric("setup_s", median(&times(setup, true)), "s"),
        metric("cold_s", median(&times(cold, true)), "s"),
        metric("warm_s", median(&times(warm, true)), "s"),
        metric("points_per_s", median(&rates), "1/s"),
        metric("peak_rss_mb", peak_rss_mb()?, "MB"),
    ];

    let mut all_reps: Vec<&Rep> = reps.iter().collect();
    let traced = if args.trace {
        // The traced repetition sets up, so it compares with those that did.
        let walls: Vec<f64> = reps
            .iter()
            .filter(|r| r.setup_s.is_some())
            .map(|r| r.wall_s)
            .collect();
        let untraced_wall = median(&walls);
        Some(traced_rep(args, &bench, untraced_wall)?)
    } else {
        None
    };
    if let Some((rep, _)) = &traced {
        all_reps.push(rep);
    }

    let mut attempted = 0;
    let mut failed = 0;
    let mut problems = Vec::new();
    for r in &all_reps {
        attempted += r.tally.attempted;
        failed += r.tally.failed;
        problems.extend(r.problems.iter().cloned());
    }
    problems.sort();
    problems.dedup();

    println!(
        "repetitions={} ({} set up); times are medians over them of time / host factor, \
         host factor = probe time / {PROBE_REF_S} s",
        reps.len(),
        times(setup, false).len()
    );
    println!(
        "host factor: median {:.4}, range {:.4}..{:.4}",
        median(&slow),
        slow.iter().copied().fold(f64::INFINITY, f64::min),
        slow.iter().copied().fold(0.0, f64::max)
    );
    println!(
        "raw medians: setup {:.6} s, cold {:.6} s, warm {:.6} s",
        median(&times(setup, false)),
        median(&times(cold, false)),
        median(&times(warm, false))
    );
    for m in &e2e {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    println!("metric ops_attempted = {attempted} count");
    println!("metric ops_failed = {failed} count");
    if let Some((_, layers)) = &traced {
        for m in layers {
            println!("metric {} = {} {}", m.name, m.value, m.unit);
        }
    }
    for p in &problems {
        println!("CHECK FAILED: {p}");
    }
    let correct = problems.is_empty();
    println!("correct={correct}");
    let shown = match &traced {
        Some((_, layers)) => layers,
        None => &e2e,
    };
    println!("{}", result_json(correct, attempted, failed, shown));
    Ok(correct)
}

/// One traced repetition: harness spans plus the obs collector. Returns
/// the repetition and its per-layer metrics.
fn traced_rep(
    args: &Args,
    bench: &Bench,
    untraced_wall: f64,
) -> Result<(Rep, Vec<Metric>), String> {
    let mut t = Tracer::on();
    hygcn_obs::reset();
    hygcn_obs::enable();
    let rep = bench.rep(&mut t, &mut HostMeter::off(), true, false);
    hygcn_obs::disable();
    let rep = rep?;
    let traces = Path::new(WORK_DIR).join("traces");
    std::fs::create_dir_all(&traces)
        .map_err(|e| format!("cannot create {}: {e}", traces.display()))?;
    let stem = format!("{}-seed{}", args.workload.name(), args.seed);
    let files: [(PathBuf, String); 3] = [
        (
            traces.join(format!("{stem}.harness.json")),
            t.chrome_trace_json(),
        ),
        (
            traces.join(format!("{stem}.obs.json")),
            hygcn_obs::chrome_trace_json(),
        ),
        (
            traces.join(format!("{stem}.obs-metrics.json")),
            hygcn_obs::metrics_json(),
        ),
    ];
    for (path, body) in &files {
        std::fs::write(path, body).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("trace written: {}", path.display());
    }
    let layers = layer_metrics(t.spans(), &rep, untraced_wall);
    Ok((rep, layers))
}

/// Total inclusive time of the spans named `name` (and, when given,
/// about `detail`), seconds.
fn spans_s(spans: &[SpanRec], name: &str, detail: Option<&str>) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name && detail.is_none_or(|d| s.detail == d))
        .fold(0.0, |acc, s| acc + s.dur_ns as f64 / 1e9)
}

fn layer_metrics(spans: &[SpanRec], rep: &Rep, untraced_wall: f64) -> Vec<Metric> {
    let a = Attribution::of(spans);
    let o = &a.obs;
    let ms = |p: Phase| o.ns(p) as f64 / 1e6;
    let synth_calls = spans.iter().filter(|s| s.name == "graph.synth").count() as u64;
    let synth_call_s = spans_s(spans, "graph.synth", None);
    let evals = o.core_evals + o.platform_evals;
    let fresh = o.counter(Counter::PointsSimulated)
        + o.counter(Counter::PointsFailed)
        + o.counter(Counter::EvalRetries);
    let mut m = vec![
        metric("traced_wall_s", a.wall_ns as f64 / 1e9, "s"),
        metric(
            "trace_overhead_s",
            a.wall_ns as f64 / 1e9 - untraced_wall,
            "s",
        ),
        metric("unattributed_s", a.unattributed_ns as f64 / 1e9, "s"),
    ];
    for layer in Layer::ALL {
        m.push(metric(
            format!("{}.self_s", layer.name()),
            a.layer_s(layer),
            "s",
        ));
    }
    m.extend([
        metric("graph.synth_s", a.layer_s(Layer::Graph), "s"),
        metric(
            "graph.builds",
            (synth_calls + o.count(Phase::WorkloadBuild)) as f64,
            "count",
        ),
        metric(
            "graph.edges_per_s",
            if synth_call_s > 0.0 {
                rep.synth_edges as f64 / synth_call_s
            } else {
                0.0
            },
            "1/s",
        ),
        metric(
            "baseline.platform_s",
            spans_s(spans, "baseline.platform", None) + o.platform_eval_ns as f64 / 1e9,
            "s",
        ),
        metric(
            "baseline.characterize_s",
            spans_s(spans, "baseline.characterize", None),
            "s",
        ),
        metric("bench.render_s", spans_s(spans, "bench.render", None), "s"),
    ]);
    for spec in FIGURES {
        let s = spans_s(spans, "bench.render", Some(spec.id))
            + spans_s(spans, "baseline.characterize", Some(spec.id));
        m.push(metric(format!("bench.{}.render_s", spec.id), s, "s"));
    }
    let store_ns = o.ns(Phase::StoreOpen) + o.ns(Phase::StoreAppend);
    m.extend([
        metric("dse.campaign_s", spans_s(spans, "dse.campaign", None), "s"),
        metric(
            "dse.workload_build_s",
            o.ns(Phase::WorkloadBuild) as f64 / 1e9,
            "s",
        ),
        metric("dse.store_open_ms", ms(Phase::StoreOpen), "ms"),
        metric("dse.store_append_ms", ms(Phase::StoreAppend), "ms"),
        metric("dse.cache_hit_ratio", rep.warm_hit_ratio, "ratio"),
        metric(
            "dse.executor_self_s",
            a.layer_ns[Layer::Dse as usize].saturating_sub(store_ns) as f64 / 1e9,
            "s",
        ),
        metric("core.evals", o.core_evals as f64, "count"),
        metric(
            "core.eval_ms_mean",
            if o.core_evals > 0 {
                o.core_eval_ns as f64 / 1e6 / o.core_evals as f64
            } else {
                0.0
            },
            "ms",
        ),
        metric("core.window_plan_ms", ms(Phase::WindowPlan), "ms"),
        metric("core.schedule_build_ms", ms(Phase::ScheduleBuild), "ms"),
        metric(
            "core.dual_evals",
            evals.saturating_sub(fresh) as f64,
            "count",
        ),
        metric(
            "mem.span_program_builds",
            o.count(Phase::SpanProgramBuild) as f64,
            "count",
        ),
        metric(
            "mem.span_program_build_ms",
            ms(Phase::SpanProgramBuild),
            "ms",
        ),
        metric("mem.span_replay_ms", ms(Phase::SpanReplay), "ms"),
        metric("mem.hbm_walk_ms", ms(Phase::HbmWalk), "ms"),
    ]);
    m
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // Non-finite values are not JSON; none of the metrics can be one
        // unless a clock misbehaves, and then null shows it.
        let value = if m.value.is_finite() {
            format!("{:?}", m.value)
        } else {
            "null".to_string()
        };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&strings(&[
            "--workload",
            "timing_sweep",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::TimingSweep,
                seed: 7,
                seconds: 20,
                trace: true
            }
        );
        let hex = parse_args(&strings(&["--workload", "figures", "--seed", "0x5EED"])).unwrap();
        assert_eq!(hex.seed, DEFAULT_SEED);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            &["--seed", "1"][..],
            &["--workload", "nope"],
            &["--workload", "figures", "--trace", "2"],
            &["--workload", "figures", "--seconds", "0"],
            &["--workload", "figures", "--bogus", "1"],
            &["--workload"],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_json(
            true,
            3,
            0,
            &[metric("setup_s", 0.5, "s"), metric("x", 2.0, "count")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"x\": {\"value\": 2.0, \"unit\": \"count\"}}}"
        );
    }
}
