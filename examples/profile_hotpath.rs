//! Decomposes `simulate()` host time into its two stages — the
//! per-chunk engine records and the HBM timing walk — to show where the
//! host cycles go at a given scale.
//!
//! ```text
//! cargo run --release --example profile_hotpath [vertices]
//! ```

#![allow(clippy::field_reassign_with_default)]

use std::time::Instant;

use hygcn_suite::core::config::HyGcnConfig;
use hygcn_suite::core::engine::aggregation::AggregationEngine;
use hygcn_suite::core::engine::combination::{CombinationEngine, SystolicMode};
use hygcn_suite::core::layout::AddressLayout;
use hygcn_suite::core::Simulator;
use hygcn_suite::gcn::model::{GcnModel, ModelKind};
use hygcn_suite::graph::generator::{rmat, RmatParams};
use hygcn_suite::graph::partition::Interval;
use hygcn_suite::mem::request::RequestArena;

fn main() {
    let vertices: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(131_072);
    let f = 128usize;
    let graph = rmat(vertices, vertices * 8, RmatParams::default(), 7)
        .expect("valid rmat parameters")
        .with_feature_len(f);
    let model = GcnModel::new(ModelKind::Gcn, f, 1).expect("valid model");
    let mut cfg = HyGcnConfig::default();
    cfg.aggregation_buffer_bytes = 1 << 20;
    let sim = Simulator::new(cfg.clone());

    // Stage 1 alone: per-chunk engine records.
    let dims = model.kind().mlp_dims(f);
    let layout = AddressLayout::new(
        graph.num_vertices() as u64,
        graph.num_edges() as u64,
        (f * 4) as u64,
        &dims,
    );
    let agg = AggregationEngine::new(&cfg, f, layout.feature_base, layout.edge_base);
    let comb = CombinationEngine::new(&cfg, &dims, layout.weight_base, layout.output_base);
    let chunk_w = cfg.chunk_width(f) as u32;
    let n = graph.num_vertices() as u32;

    let mut intervals = Vec::new();
    let mut start = 0u32;
    while start < n {
        let end = (start + chunk_w).min(n);
        intervals.push(Interval::new(start, end));
        start = end;
    }

    let t_ws = Instant::now();
    let planner = hygcn_suite::graph::window::WindowPlanner::new(agg.window_height());
    let ws = planner.plan_all(&graph, &intervals);
    println!(
        "plan_all:      {:>8.1} ms   ({} windows)",
        t_ws.elapsed().as_secs_f64() * 1e3,
        ws.total_windows()
    );

    let t0 = Instant::now();
    let mut arena = RequestArena::new();
    for (i, &dst) in intervals.iter().enumerate() {
        let a =
            agg.process_chunk_with_windows(&graph, dst, f, true, 0, 1, &mut arena, ws.windows(i));
        let _ = a;
        let _ = comb.process_chunk(
            u64::from(dst.end - dst.start),
            SystolicMode::Independent,
            i == 0,
            0,
            i as u64,
            &mut arena,
        );
    }
    let chunk_stage = t0.elapsed();
    println!(
        "chunk records: {:>8.1} ms   ({} requests)",
        chunk_stage.as_secs_f64() * 1e3,
        arena.len()
    );

    let t1 = Instant::now();
    let report = sim.simulate(&graph, &model).expect("simulates");
    let total = t1.elapsed();
    let t2 = Instant::now();
    let report2 = sim.simulate(&graph, &model).expect("simulates");
    println!(
        "simulate() #2: {:>8.1} ms   (identical: {})",
        t2.elapsed().as_secs_f64() * 1e3,
        report2 == report
    );
    println!(
        "simulate():    {:>8.1} ms   ({} cycles, {} chunks)",
        total.as_secs_f64() * 1e3,
        report.cycles,
        report.chunks
    );
    println!(
        "=> timing walk + report: ~{:.1} ms",
        (total.as_secs_f64() - chunk_stage.as_secs_f64()) * 1e3
    );
}
