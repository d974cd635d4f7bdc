//! Thread-count determinism: `SimReport` must be **bit-identical**
//! whatever the host worker-count override, across every pipeline mode and for both a
//! plain GCN and the two-path DiffPool model — and must also match the
//! seed reference path.
//!
//! This lives in its own integration-test binary because the thread
//! override is process-global; keeping a single `#[test]` here means no
//! concurrent test can race it.

#![allow(clippy::field_reassign_with_default)]

use hygcn_core::config::{HyGcnConfig, PipelineMode};
use hygcn_core::Simulator;
use hygcn_gcn::model::{GcnModel, ModelKind};
use hygcn_graph::generator::{rmat, RmatParams};
use hygcn_graph::GraphBuilder;
use hygcn_mem::HbmConfig;

#[test]
fn reports_identical_for_any_thread_count() {
    let g = rmat(4096, 48_000, RmatParams::default(), 13)
        .unwrap()
        .with_feature_len(128);
    for kind in [ModelKind::Gcn, ModelKind::DiffPool] {
        let model = GcnModel::new(kind, 128, 7).unwrap();
        for pipeline in [
            PipelineMode::LatencyAware,
            PipelineMode::EnergyAware,
            PipelineMode::None,
        ] {
            for sparsity in [true, false] {
                let mut cfg = HyGcnConfig::default();
                cfg.pipeline = pipeline;
                cfg.sparsity_elimination = sparsity;
                cfg.aggregation_buffer_bytes = 1 << 20; // many chunks
                let sim = Simulator::new(cfg);

                hygcn_par::set_thread_override(Some(1));
                let serial = sim.simulate(&g, &model).unwrap();
                let reference = sim.simulate_reference(&g, &model).unwrap();

                for threads in [2usize, 3, 8] {
                    hygcn_par::set_thread_override(Some(threads));
                    let parallel = sim.simulate(&g, &model).unwrap();
                    assert_eq!(
                        serial, parallel,
                        "{kind:?} {pipeline:?} sparsity={sparsity} threads={threads}"
                    );
                }
                hygcn_par::set_thread_override(None);
                assert_eq!(
                    serial, reference,
                    "{kind:?} {pipeline:?} sparsity={sparsity} vs seed path"
                );
            }
        }
    }

    // Degenerate geometries the per-channel merge must handle without
    // special-casing: a zero-edge graph (empty aggregation batches) and
    // a single-channel stack (every segment in one queue).
    let empty = GraphBuilder::new(64).feature_len(32).build();
    let narrow_model = GcnModel::new(ModelKind::Gcn, 32, 7).unwrap();
    for (label, graph, channels) in [
        ("zero-edge", &empty, 8usize),
        ("zero-edge 1ch", &empty, 1),
        (
            "single-channel",
            &rmat(1024, 12_000, RmatParams::default(), 5)
                .unwrap()
                .with_feature_len(32),
            1,
        ),
    ] {
        for pipeline in [
            PipelineMode::LatencyAware,
            PipelineMode::EnergyAware,
            PipelineMode::None,
        ] {
            let mut cfg = HyGcnConfig::default();
            cfg.pipeline = pipeline;
            cfg.aggregation_buffer_bytes = 1 << 18;
            cfg.hbm = HbmConfig {
                channels,
                ..HbmConfig::hbm1()
            };
            let sim = Simulator::new(cfg);
            hygcn_par::set_thread_override(Some(1));
            let serial = sim.simulate(graph, &narrow_model).unwrap();
            let reference = sim.simulate_reference(graph, &narrow_model).unwrap();
            for threads in [2usize, 8] {
                hygcn_par::set_thread_override(Some(threads));
                let parallel = sim.simulate(graph, &narrow_model).unwrap();
                assert_eq!(serial, parallel, "{label} {pipeline:?} threads={threads}");
            }
            hygcn_par::set_thread_override(None);
            assert_eq!(serial, reference, "{label} {pipeline:?} vs seed path");
            assert_eq!(serial.mem_channels.len(), channels, "{label} {pipeline:?}");
        }
    }
}
