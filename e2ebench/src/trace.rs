//! The harness's own spans, and the per-layer self-time split of a
//! traced repetition.
//!
//! Spans are recorded only around calls the harness itself makes into
//! the workspace crates. Each span also keeps the change in the
//! `hygcn_obs` collector's totals across it, so the time of a leaf span
//! that covers a campaign can be divided among the layers the collector
//! saw inside it (graph synthesis, backend evaluations, HBM phases).
//! With tracing off a span is a direct call.

use std::fmt::Write as _;
use std::time::Instant;

use hygcn_obs::{Counter, MetricsSnapshot, Phase, N_COUNTERS, N_PHASES};

/// The layers self time is attributed to, named after their crates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `hygcn-graph`: dataset synthesis.
    Graph,
    /// `hygcn-baseline`: the PyG CPU/GPU platform models.
    Baseline,
    /// `hygcn-bench`: figure rendering.
    Bench,
    /// `hygcn-dse`: campaign executor and result store.
    Dse,
    /// `hygcn-core`: the accelerator simulator outside the HBM model.
    Core,
    /// `hygcn-mem`: span-program build and replay, HBM walks.
    Mem,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 6] = [
        Layer::Graph,
        Layer::Baseline,
        Layer::Bench,
        Layer::Dse,
        Layer::Core,
        Layer::Mem,
    ];

    /// The crate-derived name used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Graph => "graph",
            Layer::Baseline => "baseline",
            Layer::Bench => "bench",
            Layer::Dse => "dse",
            Layer::Core => "core",
            Layer::Mem => "mem",
        }
    }

    /// The layer a harness span name belongs to: its prefix before the
    /// first `.`. Names without a known prefix (`rep`, `setup`, `cold`,
    /// ...) are harness glue.
    fn of_span(name: &str) -> Option<Layer> {
        let prefix = name.split('.').next().unwrap_or(name);
        Layer::ALL.into_iter().find(|l| l.name() == prefix)
    }
}

/// Backend ids whose evaluations belong to `hygcn-baseline`.
const PLATFORM_BACKENDS: [&str; 2] = ["cpu", "gpu"];

/// The simulator's HBM phases, all recorded inside core evaluations.
const MEM_PHASES: [Phase; 4] = [
    Phase::HbmWalk,
    Phase::SpanWalk,
    Phase::SpanProgramBuild,
    Phase::SpanReplay,
];

/// How much the obs collector's totals grew across one span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObsDelta {
    /// Per-phase span counts, indexed by `Phase as usize`.
    phase_count: [u64; N_PHASES],
    /// Per-phase inclusive time, nanoseconds.
    phase_ns: [u64; N_PHASES],
    /// Counter growth, indexed by `Counter as usize`.
    counters: [u64; N_COUNTERS],
    /// Evaluations on simulator backends (`cycle`, `cycle-fast`, `seed`,
    /// `analytical`).
    pub core_evals: u64,
    /// Their summed latency, nanoseconds (microsecond resolution).
    pub core_eval_ns: u64,
    /// Evaluations on the platform backends (`cpu`, `gpu`).
    pub platform_evals: u64,
    /// Their summed latency, nanoseconds (microsecond resolution).
    pub platform_eval_ns: u64,
}

impl ObsDelta {
    fn between(before: &MetricsSnapshot, after: &MetricsSnapshot) -> Self {
        let mut d = ObsDelta::default();
        for i in 0..N_PHASES {
            d.phase_count[i] = after.phases[i].count - before.phases[i].count;
            d.phase_ns[i] = after.phases[i].total_ns - before.phases[i].total_ns;
        }
        for i in 0..N_COUNTERS {
            d.counters[i] = after.counters[i] - before.counters[i];
        }
        for h in &after.evals {
            let (count0, us0) = before
                .evals
                .iter()
                .find(|b| b.backend == h.backend)
                .map_or((0, 0), |b| (b.count, b.total_us));
            let (count, ns) = (h.count - count0, (h.total_us - us0) * 1000);
            if PLATFORM_BACKENDS.contains(&h.backend.as_str()) {
                d.platform_evals += count;
                d.platform_eval_ns += ns;
            } else {
                d.core_evals += count;
                d.core_eval_ns += ns;
            }
        }
        d
    }

    /// Inclusive time of one phase.
    pub fn ns(&self, phase: Phase) -> u64 {
        self.phase_ns[phase as usize]
    }

    /// Span count of one phase.
    pub fn count(&self, phase: Phase) -> u64 {
        self.phase_count[phase as usize]
    }

    /// Growth of one counter.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize]
    }

    /// Time in the HBM phases.
    pub fn mem_ns(&self) -> u64 {
        MEM_PHASES.iter().map(|&p| self.ns(p)).sum()
    }
}

/// One finished harness span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// `layer.what` for calls into a layer, a bare word for glue.
    pub name: &'static str,
    /// What the call was about (artifact id, dataset label), or empty.
    pub detail: String,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Collector growth across the span.
    pub obs: ObsDelta,
}

/// Records harness spans when on; a pass-through when off.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Self {
            on: true,
            ..Self::off()
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        detail: &str,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let before = hygcn_obs::snapshot();
        let idx = self.spans.len();
        self.spans.push(SpanRec {
            name,
            detail: detail.to_string(),
            start_ns: nanos(self.epoch.elapsed()),
            dur_ns: 0,
            parent: self.open.last().copied(),
            obs: ObsDelta::default(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let end_ns = nanos(self.epoch.elapsed());
        let after = hygcn_obs::snapshot();
        let rec = &mut self.spans[idx];
        rec.dur_ns = end_ns - rec.start_ns;
        rec.obs = ObsDelta::between(&before, &after);
        out
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// The harness spans as Chrome-trace JSON (complete events),
    /// loadable in Perfetto or `chrome://tracing`.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"cat\": \"e2ebench\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": 1, \"tid\": 1, \"args\": {{\"detail\": \"{}\"}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.detail
            );
        }
        out.push_str("]}\n");
        out
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Self time per layer of one traced tree, plus what no layer claims.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Attribution {
    /// Wall time of the root span, nanoseconds.
    pub wall_ns: u64,
    /// Self time per layer, indexed like [`Layer::ALL`], nanoseconds.
    pub layer_ns: [u64; 6],
    /// Harness glue: self time of spans that are not calls into a
    /// layer, nanoseconds.
    pub unattributed_ns: u64,
    /// Collector growth across the root span.
    pub obs: ObsDelta,
}

impl Attribution {
    /// Splits a traced tree (span 0 is the root) into layer self times.
    ///
    /// A leaf span's time goes to its own layer, except the parts the
    /// collector saw inside it: graph builds (`workload_build`) to
    /// graph, platform-backend evaluations to baseline, HBM phases to
    /// mem, and the rest of simulator-backend evaluations to core. A
    /// non-leaf span's time not covered by its children, and a leaf that
    /// is not a call into a layer, is glue. The parts sum to the root's
    /// wall time exactly.
    pub fn of(spans: &[SpanRec]) -> Self {
        let mut a = Attribution {
            wall_ns: spans.first().map_or(0, |s| s.dur_ns),
            obs: spans.first().map_or_else(ObsDelta::default, |s| s.obs),
            ..Attribution::default()
        };
        let mut has_children = vec![false; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                has_children[p] = true;
            }
        }
        let mut claimed = 0u64;
        for (s, _) in spans.iter().zip(&has_children).filter(|(_, &c)| !c) {
            let Some(own) = Layer::of_span(s.name) else {
                continue;
            };
            let o = &s.obs;
            let mem = o.mem_ns();
            let mut parts = [
                (Layer::Graph, o.ns(Phase::WorkloadBuild)),
                (Layer::Baseline, o.platform_eval_ns),
                (Layer::Mem, mem),
                (Layer::Core, o.core_eval_ns.saturating_sub(mem)),
                (own, 0),
            ];
            let inner: u64 = parts.iter().map(|&(_, ns)| ns).sum();
            parts[4].1 = s.dur_ns.saturating_sub(inner);
            for (layer, ns) in parts {
                a.layer_ns[layer as usize] += ns;
                claimed += ns;
            }
        }
        a.unattributed_ns = a.wall_ns.saturating_sub(claimed);
        a
    }

    /// Self time of one layer, seconds.
    pub fn layer_s(&self, layer: Layer) -> f64 {
        self.layer_ns[layer as usize] as f64 / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, start: u64, dur: u64, parent: Option<usize>) -> SpanRec {
        SpanRec {
            name,
            detail: String::new(),
            start_ns: start,
            dur_ns: dur,
            parent,
            obs: ObsDelta::default(),
        }
    }

    #[test]
    fn layer_self_times_and_glue_sum_to_wall() {
        let mut campaign = rec("dse.campaign", 10, 60, Some(1));
        campaign.obs.phase_ns[Phase::WorkloadBuild as usize] = 15;
        campaign.obs.core_eval_ns = 30;
        campaign.obs.phase_ns[Phase::SpanReplay as usize] = 12;
        campaign.obs.platform_eval_ns = 5;
        let spans = vec![
            rec("rep", 0, 100, None),
            rec("cold", 5, 80, Some(0)),
            campaign,
            rec("bench.render", 72, 8, Some(1)),
        ];
        let a = Attribution::of(&spans);
        assert_eq!(a.wall_ns, 100);
        assert_eq!(a.layer_ns[Layer::Graph as usize], 15);
        assert_eq!(a.layer_ns[Layer::Mem as usize], 12);
        assert_eq!(a.layer_ns[Layer::Core as usize], 18);
        assert_eq!(a.layer_ns[Layer::Baseline as usize], 5);
        assert_eq!(a.layer_ns[Layer::Dse as usize], 60 - 15 - 30 - 5);
        assert_eq!(a.layer_ns[Layer::Bench as usize], 8);
        // Glue: rep's 20 uncovered ns plus cold's 12.
        assert_eq!(a.unattributed_ns, 32);
        assert_eq!(
            a.layer_ns.iter().sum::<u64>() + a.unattributed_ns,
            a.wall_ns
        );
    }

    #[test]
    fn tracer_off_records_nothing() {
        let mut t = Tracer::off();
        let v = t.span("graph.synth", "x", |t| t.span("inner", "", |_| 7));
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn tracer_on_nests_and_exports() {
        let mut t = Tracer::on();
        t.span("rep", "", |t| t.span("graph.synth", "CL", |_| ()));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].dur_ns >= spans[1].dur_ns);
        let json = t.chrome_trace_json();
        assert!(json.contains("\"name\": \"graph.synth\""));
        assert!(json.contains("\"detail\": \"CL\""));
    }
}
