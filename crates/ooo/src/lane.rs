//! Batched multi-lane simulation kernel.
//!
//! A [`LaneBatch`] advances several independent (program, predictor)
//! cells — *lanes* — on one host thread by interleaving bounded slices of
//! each core's cycle loop ([`Core::try_run_slice`]). The per-thread win
//! does not come from instruction-level magic (the cores are still
//! event-driven scalar state machines); it comes from amortizing the
//! per-cell fixed costs across lanes:
//!
//! * cache-hierarchy tag storage (the groups of sets a cell's accesses
//!   allocated) is recycled between waves through [`Hierarchy::reset`]
//!   instead of being reallocated and re-faulted per cell, and
//! * a finished lane's slot is refilled without returning to the harness,
//!   so a thread given `k × lanes` cells runs them back to back with no
//!   scheduling gaps.
//!
//! # Correctness contract
//!
//! Lane-batched output is **byte-identical** to running each cell solo
//! through [`try_simulate_within`](crate::try_simulate_within):
//!
//! * each lane owns its full simulation state ([`LaneJob`]); lanes share
//!   nothing mutable, so the interleave order cannot couple them;
//! * [`Core::try_run_slice`] keeps the deadline poll on the same
//!   `cycle & (DEADLINE_CHECK_INTERVAL - 1) == 0` condition as the
//!   unsliced loop, so poll points (and lease heartbeat ticks) are
//!   identical at any slice length;
//! * a recycled [`Hierarchy`] is equivalence-tested against a fresh one
//!   (`phast-mem` `reset_equivalence` tests), so wave N+1 cells start as
//!   cold as wave 0 cells.
//!
//! Per-lane failure isolation matches the pool's: a lane that panics or
//! fails ([`SimError`]) produces a [`LaneOutcome::Panicked`] /
//! [`LaneOutcome::Failed`] for that cell only; every other lane keeps
//! running. One caveat is inherent to batching and documented in
//! `docs/KERNEL.md`: a lane's wall-clock [`Deadline`] keeps ticking while
//! its wave-mates' slices run, so a wall timeout bounds the *wave*, not
//! the lone cell.

use crate::config::CoreConfig;
use crate::core::{Core, SliceOutcome};
use crate::deadline::Deadline;
use crate::error::SimError;
use crate::runner::default_max_cycles;
use crate::stats::SimStats;
use phast_branch::{Tage, TageConfig};
use phast_isa::Program;
use phast_mdp::MemDepPredictor;
use phast_mem::Hierarchy;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Index of a lane within one wave of a [`LaneBatch`].
///
/// Lane ids are dense (`0..lanes`) and purely positional: they name a
/// slot in the wave's state arrays, never a cell identity. All per-cell
/// state lives in the [`LaneJob`] occupying the slot, so re-running the
/// same jobs under any lane assignment (or solo) yields identical
/// statistics — the lane-permutation determinism tests pin this.
pub type LaneId = usize;

/// Default interleave granularity in cycles per slice.
///
/// A multiple of [`DEADLINE_CHECK_INTERVAL`](crate::DEADLINE_CHECK_INTERVAL)
/// large enough to amortize the host-cache refill a lane switch causes
/// (each lane's working set is several MB of tag state), small enough
/// that deadline polls stay responsive — polls happen *inside* the slice
/// every 2048 cycles regardless.
pub const DEFAULT_LANE_SLICE: u64 = 16 * crate::deadline::DEADLINE_CHECK_INTERVAL;

/// One cell of simulation work: a program, its predictor, and budgets.
///
/// The job owns everything its lane mutates, which is what makes lane
/// isolation sound (see the module docs). After [`LaneBatch::run`] the
/// job comes back inside a [`LaneReport`] so callers can inspect the
/// trained predictor (e.g. `num_paths`).
pub struct LaneJob {
    program: Program,
    cfg: CoreConfig,
    predictor: Box<dyn MemDepPredictor>,
    /// Taken when the lane's core is built.
    direction: Option<Box<dyn phast_branch::DirectionPredictor>>,
    max_insts: u64,
    max_cycles: u64,
    deadline: Deadline,
}

impl LaneJob {
    /// Creates a job mirroring the [`try_simulate_within`] contract: a
    /// default-TAGE direction predictor and the same generous default
    /// cycle ceiling for `max_insts`.
    ///
    /// [`try_simulate_within`]: crate::try_simulate_within
    pub fn new(
        program: Program,
        cfg: CoreConfig,
        predictor: Box<dyn MemDepPredictor>,
        max_insts: u64,
        deadline: Deadline,
    ) -> LaneJob {
        LaneJob {
            program,
            cfg,
            predictor,
            direction: Some(Box::new(Tage::new(TageConfig::default()))),
            max_insts,
            max_cycles: default_max_cycles(max_insts),
            deadline,
        }
    }

    /// The job's predictor (trained, once the batch has run).
    pub fn predictor(&self) -> &dyn MemDepPredictor {
        self.predictor.as_ref()
    }

    /// The job's program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Consumes the job, returning the predictor.
    pub fn into_predictor(self) -> Box<dyn MemDepPredictor> {
        self.predictor
    }
}

/// How one lane ended.
// Same rationale as `SliceOutcome`: one value per cell, moved straight
// into a `LaneReport`; boxing the stats would trade nothing for an
// allocation on the run-completion path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum LaneOutcome {
    /// The cell finished cleanly (halt or instruction budget).
    Finished(SimStats),
    /// The cell failed with a structured error — deadline, cycle ceiling,
    /// deadlock, lockstep divergence — exactly as the solo path reports.
    Failed(SimError),
    /// The cell panicked; the payload message is preserved. Only this
    /// lane is lost.
    Panicked(String),
}

/// One cell's result: the job handed back, its outcome, and the host
/// wall-clock time spent *in this lane's slices* (construction included,
/// wave-mates' slices excluded).
#[derive(Debug)]
pub struct LaneReport {
    /// The job, returned for predictor inspection.
    pub job: LaneJob,
    /// How the lane ended.
    pub outcome: LaneOutcome,
    /// Host time attributable to this lane alone.
    pub wall: Duration,
}

impl std::fmt::Debug for LaneJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LaneJob")
            .field("predictor", &self.predictor.name())
            .field("max_insts", &self.max_insts)
            .finish_non_exhaustive()
    }
}

/// A single-threaded multi-lane batch executor (see the module docs).
#[derive(Clone, Copy, Debug)]
pub struct LaneBatch {
    lanes: usize,
    slice: u64,
}

impl LaneBatch {
    /// Creates a batch that interleaves up to `lanes` cells at a time
    /// (clamped to at least 1), at [`DEFAULT_LANE_SLICE`] granularity.
    pub fn new(lanes: usize) -> LaneBatch {
        LaneBatch { lanes: lanes.max(1), slice: DEFAULT_LANE_SLICE }
    }

    /// Overrides the interleave slice length in cycles. Any value yields
    /// identical statistics (the deadline poll cadence is slice-invariant);
    /// this only tunes host-cache behavior. Values below
    /// [`DEADLINE_CHECK_INTERVAL`](crate::DEADLINE_CHECK_INTERVAL) are
    /// clamped up to it.
    pub fn with_slice(mut self, slice: u64) -> LaneBatch {
        self.slice = slice.max(crate::deadline::DEADLINE_CHECK_INTERVAL);
        self
    }

    /// The wave width this batch interleaves at.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Runs every job to completion, interleaving up to `lanes` of them
    /// at a time, and returns one [`LaneReport`] per job **in input
    /// order** regardless of which lane ran it or when it finished.
    pub fn run(&self, mut jobs: Vec<LaneJob>) -> Vec<LaneReport> {
        let n = jobs.len();
        let mut outcomes: Vec<Option<(LaneOutcome, Duration)>> = (0..n).map(|_| None).collect();
        // Hierarchies recovered from finished lanes, reset and ready for
        // the next wave's cells.
        let mut spare_mems: Vec<Hierarchy> = Vec::new();
        let mut start = 0;
        while start < n {
            let end = (start + self.lanes).min(n);
            self.run_wave(&mut jobs[start..end], &mut outcomes[start..end], &mut spare_mems);
            start = end;
        }
        jobs.into_iter()
            .zip(outcomes)
            .map(|(job, slot)| {
                let (outcome, wall) = slot.expect("every lane reports an outcome");
                LaneReport { job, outcome, wall }
            })
            .collect()
    }

    /// Advances one wave of lanes round-robin until all finish.
    fn run_wave(
        &self,
        jobs: &mut [LaneJob],
        out: &mut [Option<(LaneOutcome, Duration)>],
        spare_mems: &mut Vec<Hierarchy>,
    ) {
        struct Lane<'j> {
            core: Core<'j>,
            deadline: &'j Deadline,
            max_insts: u64,
            max_cycles: u64,
            wall: Duration,
        }

        let mut live = 0usize;
        let mut lanes: Vec<Option<Lane<'_>>> = Vec::with_capacity(jobs.len());
        for (id, job) in jobs.iter_mut().enumerate() {
            let t0 = Instant::now();
            let LaneJob { program, cfg, predictor, direction, max_insts, max_cycles, deadline } =
                job;
            let direction = direction.take().expect("a job is only run once");
            let mem = match spare_mems.pop() {
                Some(recycled) => recycled,
                None => Hierarchy::new(cfg.memory),
            };
            // Construction is caught too, so a pathological config kills
            // only its own cell — same boundary the pool gives solo jobs.
            let built = catch_unwind(AssertUnwindSafe(|| {
                Core::with_mem(&*program, cfg.clone(), predictor.as_mut(), direction, mem)
            }));
            match built {
                Ok(core) => {
                    lanes.push(Some(Lane {
                        core,
                        deadline: &*deadline,
                        max_insts: *max_insts,
                        max_cycles: *max_cycles,
                        wall: t0.elapsed(),
                    }));
                    live += 1;
                }
                Err(payload) => {
                    out[id] = Some((LaneOutcome::Panicked(panic_message(payload)), t0.elapsed()));
                    lanes.push(None);
                }
            }
        }

        while live > 0 {
            for (id, slot) in lanes.iter_mut().enumerate() {
                let Some(lane) = slot else { continue };
                let t0 = Instant::now();
                let stepped = catch_unwind(AssertUnwindSafe(|| {
                    lane.core.try_run_slice(lane.max_insts, lane.max_cycles, lane.deadline, self.slice)
                }));
                lane.wall += t0.elapsed();
                let (outcome, recycle) = match stepped {
                    Ok(Ok(SliceOutcome::Pending)) => continue,
                    Ok(Ok(SliceOutcome::Done(stats))) => (LaneOutcome::Finished(stats), true),
                    Ok(Err(e)) => (LaneOutcome::Failed(e), true),
                    // A panicking lane's hierarchy may be mid-update;
                    // never recycle it.
                    Err(payload) => (LaneOutcome::Panicked(panic_message(payload)), false),
                };
                let lane = slot.take().expect("lane was live");
                out[id] = Some((outcome, lane.wall));
                if recycle {
                    let mut mem = lane.core.into_mem();
                    mem.reset();
                    spare_mems.push(mem);
                }
                live -= 1;
            }
        }
    }
}

/// Extracts the conventional string payload from a caught panic (same
/// convention as the pool's `JobPanic`).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::try_simulate_within;
    use phast_isa::{AluKind, CondKind, MemSize, ProgramBuilder, Reg};
    use phast_mdp::{
        AccessStats, BlindSpeculation, LoadQuery, PredictionOutcome, Violation,
    };

    /// A loop with a store/load pair, enough to exercise the memory
    /// system and the predictor hooks.
    fn program(trip: u64) -> Program {
        let mut b = ProgramBuilder::new();
        let head = b.block();
        let exit = b.block();
        b.at(head)
            .addi(Reg(1), Reg(1), 1)
            .alui(AluKind::Shl, Reg(2), Reg(1), 6)
            .store(Reg(2), 0, Reg(1), MemSize::B8)
            .load(Reg(3), Reg(2), 0, MemSize::B8)
            .branchi(CondKind::LtU, Reg(1), trip as i64, head)
            .fallthrough(exit);
        b.at(exit).halt();
        b.set_entry(head);
        b.build().unwrap()
    }

    fn solo(trip: u64, insts: u64, deadline: &Deadline) -> Result<SimStats, SimError> {
        let mut p = BlindSpeculation;
        try_simulate_within(&program(trip), &CoreConfig::alder_lake(), &mut p, insts, deadline)
    }

    fn job(trip: u64, insts: u64, deadline: Deadline) -> LaneJob {
        LaneJob::new(
            program(trip),
            CoreConfig::alder_lake(),
            Box::new(BlindSpeculation),
            insts,
            deadline,
        )
    }

    #[test]
    fn batched_stats_match_solo_bit_for_bit() {
        // Mixed trip counts so lanes finish at different times and the
        // wave refills hierarchies from the recycle pool.
        let trips = [300u64, 1200, 90, 700, 250, 1500, 40, 640, 980, 120];
        let reports = LaneBatch::new(4)
            .with_slice(crate::deadline::DEADLINE_CHECK_INTERVAL)
            .run(trips.iter().map(|&t| job(t, 100_000, Deadline::none())).collect());
        assert_eq!(reports.len(), trips.len());
        for (report, &trip) in reports.iter().zip(&trips) {
            let want = solo(trip, 100_000, &Deadline::none()).unwrap();
            match &report.outcome {
                LaneOutcome::Finished(got) => {
                    assert_eq!(format!("{got:?}"), format!("{want:?}"), "trip={trip}");
                }
                other => panic!("trip={trip} did not finish: {other:?}"),
            }
        }
    }

    #[test]
    fn slice_length_is_unobservable() {
        for slice in [2048, 8192, DEFAULT_LANE_SLICE] {
            let reports = LaneBatch::new(3)
                .with_slice(slice)
                .run((0..3).map(|i| job(500 + i * 37, 100_000, Deadline::none())).collect());
            for (i, report) in reports.iter().enumerate() {
                let want = solo(500 + i as u64 * 37, 100_000, &Deadline::none()).unwrap();
                let LaneOutcome::Finished(got) = &report.outcome else {
                    panic!("lane {i} failed at slice {slice}");
                };
                assert_eq!(format!("{got:?}"), format!("{want:?}"), "slice={slice}");
            }
        }
    }

    /// A predictor that panics after a fixed number of predictions —
    /// fault injection for the isolation test.
    struct PanicAfter(u64);
    impl MemDepPredictor for PanicAfter {
        fn name(&self) -> &str {
            "panic-after"
        }
        fn predict_load(&mut self, _q: &LoadQuery<'_>) -> PredictionOutcome {
            self.0 = self.0.checked_sub(1).expect("injected lane panic");
            PredictionOutcome::none()
        }
        fn train_violation(&mut self, _v: &Violation<'_>) {}
        fn storage_bits(&self) -> usize {
            0
        }
        fn access_stats(&self) -> AccessStats {
            AccessStats::default()
        }
    }

    #[test]
    fn deadline_expiry_and_panic_degrade_only_their_lane() {
        let mut jobs = vec![
            job(800, 100_000, Deadline::none()),
            // Already-expired wall deadline: fires on this lane's cycle-0
            // poll, exactly as tests/deadline_edges.rs pins for solo runs.
            job(800, 100_000, Deadline::after(Duration::ZERO)),
            job(420, 100_000, Deadline::none()),
        ];
        // Lane 3: panics mid-run inside the predictor.
        jobs.push(LaneJob::new(
            program(900),
            CoreConfig::alder_lake(),
            Box::new(PanicAfter(40)),
            100_000,
            Deadline::none(),
        ));
        let reports = LaneBatch::new(4).run(jobs);
        assert!(matches!(reports[0].outcome, LaneOutcome::Finished(_)));
        assert!(
            matches!(&reports[1].outcome, LaneOutcome::Failed(SimError::Deadline { .. })),
            "expired deadline must surface as SimError::Deadline, got {:?}",
            reports[1].outcome
        );
        assert!(matches!(reports[2].outcome, LaneOutcome::Finished(_)));
        match &reports[3].outcome {
            LaneOutcome::Panicked(msg) => assert!(msg.contains("injected lane panic")),
            other => panic!("expected a caught panic, got {other:?}"),
        }
        // The healthy lanes' statistics are untouched by their
        // wave-mates' failures.
        for (i, trip) in [(0usize, 800u64), (2, 420)] {
            let want = solo(trip, 100_000, &Deadline::none()).unwrap();
            let LaneOutcome::Finished(got) = &reports[i].outcome else { unreachable!() };
            assert_eq!(format!("{got:?}"), format!("{want:?}"));
        }
    }

    #[test]
    fn more_jobs_than_lanes_waves_and_recycles() {
        let trips: Vec<u64> = (0..9).map(|i| 100 + i * 53).collect();
        let reports =
            LaneBatch::new(2).run(trips.iter().map(|&t| job(t, 100_000, Deadline::none())).collect());
        for (report, &trip) in reports.iter().zip(&trips) {
            let want = solo(trip, 100_000, &Deadline::none()).unwrap();
            let LaneOutcome::Finished(got) = &report.outcome else {
                panic!("trip={trip} failed");
            };
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "trip={trip}");
        }
    }
}
