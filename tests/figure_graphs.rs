//! One `figures all` run builds each workload graph exactly once: every
//! campaign and render of the run shares the `FigureCtx`'s graph memo.
//! Its own test binary, because it counts spans in the process-global
//! obs collector.

use hygcn_bench::figures::{run_figure, FigureCtx, FIGURES};

#[test]
fn figures_all_builds_each_distinct_workload_once() {
    let mult = 0.05;
    // Every figure point runs at full fidelity, so the distinct graphs
    // are the distinct workload canons across all spaces.
    let mut distinct: Vec<String> = FIGURES
        .iter()
        .flat_map(|spec| (spec.spaces)(mult).unwrap())
        .flat_map(|space| space.workloads)
        .map(|w| w.canon().unwrap())
        .collect();
    distinct.sort();
    distinct.dedup();
    assert_eq!(distinct.len(), 8, "six datasets plus two reorderings of PB");

    let dir = std::env::temp_dir().join("hygcn-figure-graphs");
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("figures.jsonl");
    std::fs::remove_file(&store).ok();

    hygcn_obs::reset();
    hygcn_obs::enable();
    let mut ctx = FigureCtx::new(mult);
    let mut simulated = 0;
    for spec in FIGURES {
        simulated += run_figure(spec, &mut ctx, Some(&store), None)
            .unwrap()
            .simulated;
    }
    hygcn_obs::disable();
    let builds = hygcn_obs::snapshot().phases[hygcn_obs::Phase::WorkloadBuild as usize].count;
    hygcn_obs::reset();

    assert!(simulated > 0);
    assert_eq!(builds, distinct.len() as u64);
    assert_eq!(ctx.graphs().len(), distinct.len());
    std::fs::remove_file(&store).ok();
}
