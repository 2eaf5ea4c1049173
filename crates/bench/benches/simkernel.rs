//! Microbenchmark of the OoO simulation kernel itself: full
//! fetch→commit simulation of a few representative workloads, reported
//! as host wall-clock plus simulation throughput (simulated cycles per
//! host second and committed mega-instructions per host second).
//!
//! This is the number the allocation-free hot-path work optimizes —
//! run it before and after a simulator change:
//!
//! ```text
//! cargo bench -p phast-bench --bench simkernel
//! ```
//!
//! Workloads are chosen to stress different parts of the kernel:
//! `lbm` (memory-heavy stores), `gcc_1` (branchy, big footprint),
//! `exchange2` (tight integer loops) and `perlbench_1` (mixed). Each
//! runs under the headline PHAST predictor, under MDP-TAGE (the costliest
//! predictor to simulate) and under blind speculation, bounding the
//! predictor's share of the kernel cost.

use criterion::{criterion_group, criterion_main, Criterion};
use phast_experiments::harness::simulate_run;
use phast_experiments::{Budget, PredictorKind};
use phast_ooo::{CoreConfig, Deadline, LaneBatch, LaneJob, LaneOutcome};
use std::hint::black_box;
use std::time::Instant;

const WORKLOADS: [&str; 4] = ["lbm", "gcc_1", "exchange2", "perlbench_1"];
const PREDICTORS: [PredictorKind; 3] =
    [PredictorKind::Blind, PredictorKind::Phast, PredictorKind::MdpTage];

fn bench_simkernel(c: &mut Criterion) {
    let budget = Budget::bench();
    let cfg = CoreConfig::alder_lake();
    let mut g = c.benchmark_group("simkernel");
    g.sample_size(10);

    for name in WORKLOADS {
        let w = phast_workloads::by_name(name).expect("bench workload exists");
        let program = w.build(budget.workload_iters);
        for kind in &PREDICTORS {
            let label = kind.label();
            // Throughput is derived from the run's own stats, so report
            // it once outside the timed samples (one warm run), then let
            // criterion time the same closure.
            let mut pred = kind.build(&program, budget.insts);
            let r = simulate_run(name, &label, &program, &cfg, pred.as_mut(), budget.insts);
            assert!(r.ok(), "simkernel bench run degraded: {:?}", r.failure);
            let wall = r.wall.as_secs_f64();
            println!(
                "simkernel {name:<12} {label:<12} {:>8} cycles {:>8} committed  \
                 {:>7.2} Mcycles/s  {:>7.2} MIPS",
                r.stats.cycles,
                r.stats.committed,
                if wall > 0.0 { r.stats.cycles as f64 / wall / 1e6 } else { 0.0 },
                if wall > 0.0 { r.stats.committed as f64 / wall / 1e6 } else { 0.0 },
            );
            g.bench_function(format!("{name}/{label}"), |b| {
                b.iter(|| {
                    let mut pred = kind.build(&program, budget.insts);
                    black_box(simulate_run(
                        name,
                        &label,
                        &program,
                        &cfg,
                        pred.as_mut(),
                        budget.insts,
                    ))
                })
            });
        }
    }
    g.finish();
}

/// Aggregate Mcycles/s of MDP-TAGE over PHAST on the same workloads:
/// summed cycles over the summed best-of-`REPS` wall per cell. Both sides
/// run on one host in one process, so the ratio is host-independent where
/// the raw rates are not; CI's perf-smoke gate puts a floor under it.
fn bench_predictor_ratio(_c: &mut Criterion) {
    const REPS: usize = 7;
    let budget = Budget::bench();
    let cfg = CoreConfig::alder_lake();
    let rate = |kind: PredictorKind| {
        let (mut cycles, mut wall) = (0u64, 0.0f64);
        for name in WORKLOADS {
            let w = phast_workloads::by_name(name).expect("bench workload exists");
            let program = w.build(budget.workload_iters);
            let mut core_cfg = cfg.clone();
            core_cfg.train_point = kind.train_point();
            let mut best = f64::INFINITY;
            let mut cell_cycles = 0;
            for _ in 0..REPS {
                let mut pred = kind.build(&program, budget.insts);
                let r =
                    simulate_run(name, &kind.label(), &program, &core_cfg, pred.as_mut(), budget.insts);
                assert!(r.ok(), "ratio bench run degraded: {:?}", r.failure);
                best = best.min(r.wall.as_secs_f64());
                cell_cycles = r.stats.cycles;
            }
            cycles += cell_cycles;
            wall += best;
        }
        cycles as f64 / wall / 1e6
    };
    let phast = rate(PredictorKind::Phast);
    let tage = rate(PredictorKind::MdpTage);
    println!(
        "simkernel-predictors phast={phast:.2} mdp-tage={tage:.2} Mcycles/s \
         ratio mdp-tage/phast={:.3}",
        tage / phast
    );
}

/// Builds the full grid as lane jobs (fresh program and predictor per
/// cell, exactly what one sweep cell constructs).
fn lane_grid(budget: &Budget, cfg: &CoreConfig) -> Vec<LaneJob> {
    let mut jobs = Vec::new();
    for name in WORKLOADS {
        let w = phast_workloads::by_name(name).expect("bench workload exists");
        for kind in &PREDICTORS {
            let program = w.build(budget.workload_iters);
            let mut core_cfg = cfg.clone();
            core_cfg.train_point = kind.train_point();
            let predictor = kind.build(&program, budget.insts);
            jobs.push(LaneJob::new(program, core_cfg, predictor, budget.insts, Deadline::none()));
        }
    }
    jobs
}

/// Aggregate throughput of the whole grid at a given lane count — the
/// number the `--lanes=N` sweep flag changes. `lanes=1` runs exactly what
/// the flag runs: the solo per-cell path (fresh hierarchy per cell);
/// `lanes=8` interleaves the grid through one [`LaneBatch`]. Prints one
/// machine-greppable line per lane count plus the lanes=8 / lanes=1
/// ratio; CI's perf-smoke gate bounds how far batching may fall below
/// solo (see `.github/workflows/ci.yml` and docs/KERNEL.md for the
/// honest single-host numbers).
fn bench_lanes(_c: &mut Criterion) {
    let budget = Budget::bench();
    let cfg = CoreConfig::alder_lake();
    let mut per_lanes = Vec::new();
    for lanes in [1usize, 8] {
        // One warm pass to populate the allocator and page cache, then
        // the measured pass.
        run_lane_grid(lanes, &budget, &cfg);
        let (cells, cycles, wall) = run_lane_grid(lanes, &budget, &cfg);
        let mcps = if wall > 0.0 { cycles as f64 / wall / 1e6 } else { 0.0 };
        println!(
            "simkernel-lanes lanes={lanes} cells={cells} total-cycles={cycles} \
             wall={wall:.3}s agg={mcps:.2} Mcycles/s",
        );
        per_lanes.push(mcps);
    }
    println!("simkernel-lanes ratio lanes8/lanes1={:.3}", per_lanes[1] / per_lanes[0]);
}

/// One timed pass of the grid: the solo path at `lanes == 1`, a
/// [`LaneBatch`] otherwise. Returns (cells, total simulated cycles, wall
/// seconds).
fn run_lane_grid(lanes: usize, budget: &Budget, cfg: &CoreConfig) -> (usize, u64, f64) {
    if lanes <= 1 {
        let mut cycles: u64 = 0;
        let mut cells = 0;
        let start = Instant::now();
        for name in WORKLOADS {
            let w = phast_workloads::by_name(name).expect("bench workload exists");
            for kind in &PREDICTORS {
                let program = w.build(budget.workload_iters);
                let mut core_cfg = cfg.clone();
                core_cfg.train_point = kind.train_point();
                let mut pred = kind.build(&program, budget.insts);
                let r =
                    simulate_run(name, &kind.label(), &program, &core_cfg, pred.as_mut(), budget.insts);
                assert!(r.ok(), "lane bench cell degraded: {:?}", r.failure);
                cycles += r.stats.cycles;
                cells += 1;
            }
        }
        return (cells, cycles, start.elapsed().as_secs_f64());
    }
    let start = Instant::now();
    let reports = LaneBatch::new(lanes).run(lane_grid(budget, cfg));
    let wall = start.elapsed().as_secs_f64();
    let mut cycles: u64 = 0;
    for r in &reports {
        match &r.outcome {
            LaneOutcome::Finished(stats) => cycles += stats.cycles,
            other => panic!("lane bench cell degraded: {other:?}"),
        }
    }
    (reports.len(), cycles, wall)
}

criterion_group!(benches, bench_simkernel, bench_predictor_ratio, bench_lanes);
criterion_main!(benches);
