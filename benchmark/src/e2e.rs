//! The three end-to-end workloads. Each runs the user's unit of work —
//! a sweep — through the repository's public entry points, serially or
//! through a one-worker daemon, and checks every cell it produced.
//!
//! Timing discipline (why a run is many short sweeps): one cell's host
//! time varies by almost 2x between fresh cores in one process, while a
//! whole grid varies far less. So a run times many sweeps after an
//! untimed warm-up sweep and reports medians; no single slow sweep moves
//! a run.

use crate::pins::{check_row_against, Pin, Pins, Row};
use crate::stats::{median, ms, peak_rss_mb, percentile, permute, timed_setup, Metric};
use phast_experiments::artifact::RunRecord;
use phast_experiments::figures::fig15;
use phast_experiments::harness::simulate_run;
use phast_experiments::serve::{
    ChaosPlan, Client, Event, LeaseConfig, Request, SchedConfig, ServeConfig, Server, StatusBody,
};
use phast_experiments::{
    Budget, Journal, PredictorKind, RunResult, SampleConfig, Sweep, SweepArtifact,
};
use phast_ooo::{CheckConfig, CoreConfig};
use phast_workloads::Workload;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Timed sweeps a run makes even when `--seconds` has already passed.
pub const MIN_TIMED_SWEEPS: usize = 3;
/// Set-up repetitions per run (at least this many, for at least
/// [`SETUP_SECS`], after one untimed repetition); the run reports their
/// median.
pub const SETUP_REPS: usize = 7;
/// Minimum host time spent repeating the set-up.
pub const SETUP_SECS: f64 = 0.5;

/// The workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["fig15_quick", "sampled_phase", "serve_bench"];

/// `Ideal` plus the five headline predictors: the fig15 grid's rows.
pub fn grid_kinds() -> Vec<PredictorKind> {
    let mut kinds = vec![PredictorKind::Ideal];
    kinds.extend(PredictorKind::headline());
    kinds
}

/// The two predictors of the `sampled_v2` grid.
pub fn sampled_kinds() -> Vec<PredictorKind> {
    vec![PredictorKind::StoreSets, PredictorKind::Phast]
}

/// The six quick-tier workloads in the seed's order.
pub fn quick_workloads(seed: u64) -> Vec<Workload> {
    let mut wl = Budget::quick().workloads();
    permute(&mut wl, seed);
    wl
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Cells attempted, warm-up included.
    pub attempted: u64,
    /// One message per failed cell.
    pub failures: Vec<String>,
    /// Host milliseconds per timed sweep.
    pub sweep_ms: Vec<f64>,
    /// Simulated MIPS per timed sweep.
    pub sim_mips: Vec<f64>,
    /// Host milliseconds per timed cell.
    pub cell_ms: Vec<f64>,
    /// Median set-up seconds.
    pub setup_s: f64,
    /// Extra human-readable result lines.
    pub notes: Vec<String>,
}

impl Measured {
    /// The six end-to-end metrics.
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            Metric::new("sim_mips", median(&self.sim_mips), "MIPS"),
            Metric::new("sweep_ms_p50", median(&self.sweep_ms), "ms"),
            Metric::new("cell_ms_p50", percentile(&self.cell_ms, 50.0), "ms"),
            Metric::new("cell_ms_p90", percentile(&self.cell_ms, 90.0), "ms"),
            Metric::new("setup_s", self.setup_s, "s"),
            Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
        ]
    }

    fn record(&mut self, attempted: u64, failures: Vec<String>) {
        self.attempted += attempted;
        self.failures.extend(failures);
    }
}

/// Repeats `sweep` for at least `seconds` and [`MIN_TIMED_SWEEPS`] times.
fn measure_for(seconds: f64, mut sweep: impl FnMut()) {
    let start = Instant::now();
    let mut n = 0;
    while n < MIN_TIMED_SWEEPS || start.elapsed().as_secs_f64() < seconds {
        sweep();
        n += 1;
    }
}

/// Failure messages for every expected cell a check could not vouch for.
fn all_failed(cells: &[(String, String)], why: &str) -> Vec<String> {
    cells
        .iter()
        .map(|(w, p)| format!("{w} × {p}: {why}"))
        .collect()
}

fn cells_of(workloads: &[Workload], kinds: &[PredictorKind]) -> Vec<(String, String)> {
    kinds
        .iter()
        .flat_map(|k| {
            workloads
                .iter()
                .map(move |w| (w.name.to_string(), k.label()))
        })
        .collect()
}

// ---------------------------------------------------------------------------
// In-process sweeps (fig15_quick, sampled_phase)

/// One in-process sweep: the grid, its journal, the `BENCH_<id>.json`
/// artifact and its self-verification — what `phast-experiments` does
/// for one experiment.
pub struct SweepPass {
    /// Host time of the whole sweep.
    pub wall: Duration,
    /// The results the sweep returned: the headline predictors' rows
    /// for fig15 (its `Ideal` row reaches only the artifact), every row
    /// for the sampled grid.
    pub results: Vec<RunResult>,
    /// The artifact as written.
    pub artifact: SweepArtifact,
    /// Whether writing and re-verifying the artifact succeeded.
    pub verified: Result<(), String>,
    /// Host time of writing the artifact.
    pub write: Duration,
    /// Host time of verifying the written artifact.
    pub verify: Duration,
    /// Bytes of the written artifact.
    pub artifact_bytes: u64,
    /// Bytes the journal holds after the sweep.
    pub journal_bytes: u64,
}

/// Runs one sweep `body` under a fresh journal in `dir` and writes and
/// verifies its artifact.
///
/// # Errors
///
/// The journal could not be created.
pub fn run_sweep(
    dir: &Path,
    id: &str,
    budget: &Budget,
    sampling: Option<SampleConfig>,
    body: impl FnOnce(&Sweep) -> Vec<RunResult>,
) -> Result<SweepPass, String> {
    let t = Instant::now();
    let journal_path = dir.join("journal.jsonl");
    let fingerprint = format!("{id} insts={} sampling={sampling:?}", budget.insts);
    let journal = Journal::create(&journal_path, &fingerprint).map_err(|e| e.to_string())?;
    let mut sweep = Sweep::serial().with_journal(journal.scope(id));
    if let Some(s) = sampling {
        sweep = sweep.with_sampling(s);
    }
    let results = body(&sweep);
    let artifact = sweep.artifact(id, budget, t.elapsed());
    let tw = Instant::now();
    let written = artifact
        .write_to(dir)
        .map_err(|e| format!("artifact write: {e}"));
    let write = tw.elapsed();
    let tv = Instant::now();
    let verified = written
        .as_ref()
        .map_err(Clone::clone)
        .and_then(|p| SweepArtifact::verify_file(p).map_err(|e| format!("artifact verify: {e}")));
    let verify = tv.elapsed();
    let wall = t.elapsed();
    let size = |p: &Path| std::fs::metadata(p).map_or(0, |m| m.len());
    Ok(SweepPass {
        wall,
        results,
        artifact_bytes: written.as_ref().map_or(0, |p| size(p)),
        journal_bytes: size(&journal_path),
        artifact,
        verified,
        write,
        verify,
    })
}

/// The input of `fig15_quick`: the quick budget over the six built-in
/// workloads in the seed's order plus one synthesized held-out program.
pub struct Fig15Input {
    /// Budget whose extras are the permuted built-ins and the synth.
    pub budget: Budget,
    /// The seed's synthesized workload.
    pub synth: Workload,
}

/// Builds the `fig15_quick` input: the set-up a user pays before the
/// first sweep (synthesizing the held-out program, building every
/// program once).
pub fn fig15_input(seed: u64) -> Fig15Input {
    let mut wl = quick_workloads(seed);
    let synth = phast_trace::synth_workloads(1, seed)
        .pop()
        .expect("synthesis yields the requested program");
    wl.push(synth);
    let quick = Budget::quick();
    for w in &wl {
        std::hint::black_box(w.build(quick.workload_iters));
    }
    Fig15Input {
        budget: Budget {
            max_workloads: Some(0),
            extra_workloads: wl,
            ..quick
        },
        synth,
    }
}

/// One `fig15_quick` sweep, exactly as `phast-experiments --quick
/// --serial fig15` runs it.
///
/// # Errors
///
/// The journal could not be created.
pub fn fig15_sweep(input: &Fig15Input, dir: &Path) -> Result<SweepPass, String> {
    run_sweep(dir, "fig15", &input.budget, None, |s| {
        fig15::run(s, &input.budget)
            .runs
            .into_iter()
            .flatten()
            .collect()
    })
}

/// Runs the seed's synthesized program under every grid predictor with
/// lockstep co-simulation against the reference emulator. Its results
/// become the synth cells' pins; a cell that diverges or fails has none.
pub fn synth_reference(input: &Fig15Input) -> (BTreeMap<String, Pin>, Vec<String>) {
    let budget = &input.budget;
    let program = input.synth.build(budget.workload_iters);
    let mut pins = BTreeMap::new();
    let mut failures = Vec::new();
    for kind in grid_kinds() {
        let mut cfg = CoreConfig::alder_lake();
        cfg.check = CheckConfig {
            lockstep: true,
            ..CheckConfig::off()
        };
        cfg.train_point = kind.train_point();
        let mut predictor = kind.build(&program, budget.insts);
        let run = simulate_run(
            input.synth.name,
            &kind.label(),
            &program,
            &cfg,
            predictor.as_mut(),
            budget.insts,
        );
        match run.failure {
            Some(f) => failures.push(format!(
                "{} × {} lockstep: {f}",
                input.synth.name,
                kind.label()
            )),
            None if run.stats.checked_commits != run.stats.committed => failures.push(format!(
                "{} × {}: lockstep checked {} of {} commits",
                input.synth.name,
                kind.label(),
                run.stats.checked_commits,
                run.stats.committed
            )),
            None => {
                pins.insert(kind.label(), Pin::of(&run.stats));
            }
        }
    }
    (pins, failures)
}

/// Checks every cell of a `fig15_quick` sweep: built-in cells against
/// the `quick` pins, synth cells against their lockstep-verified runs.
/// Artifact rows give cycles, committed, violations and false
/// dependences for all cells; the harness results add the branch count
/// for the headline predictors. Returns (cells attempted, failures).
pub fn check_fig15(
    pass: &SweepPass,
    input: &Fig15Input,
    synth_pins: &BTreeMap<String, Pin>,
    pins: &Pins,
) -> (u64, Vec<String>) {
    let cells = cells_of(&input.budget.workloads(), &grid_kinds());
    if let Err(e) = &pass.verified {
        return (cells.len() as u64, all_failed(&cells, e));
    }
    let pin_for = |w: &str, p: &str| -> Option<Pin> {
        if w == input.synth.name {
            synth_pins.get(p).copied()
        } else {
            pins.get("quick", w, p)
        }
    };
    let rows: BTreeMap<(String, String), Row> = pass
        .artifact
        .runs
        .iter()
        .map(|r| {
            (
                (r.workload.clone(), r.predictor.clone()),
                Row::from_record(r),
            )
        })
        .collect();
    let branches: BTreeMap<(String, String), u64> = pass
        .results
        .iter()
        .map(|r| {
            (
                (r.workload.clone(), r.predictor.clone()),
                r.stats.branch_mispredicts,
            )
        })
        .collect();
    let mut failures = Vec::new();
    for cell in &cells {
        let (w, p) = cell;
        let verdict = match (rows.get(cell), pin_for(w, p)) {
            (None, _) => Err(format!("{w} × {p}: missing from the artifact")),
            (Some(_), None) => Err(format!("{w} × {p}: no verified reference")),
            (Some(row), Some(pin)) => {
                check_row_against(&pin, row).and_then(|()| match branches.get(cell) {
                    Some(&b) if b != pin.branch_mispredicts => Err(format!(
                        "{w} × {p}: {b} branch mispredicts, pinned {}",
                        pin.branch_mispredicts
                    )),
                    _ => Ok(()),
                })
            }
        };
        if let Err(e) = verdict {
            failures.push(e);
        }
    }
    (cells.len() as u64, failures)
}

/// The `fig15_quick` workload.
pub fn run_fig15_quick(seed: u64, seconds: f64, dir: &Path, pins: &Pins) -> Measured {
    let (input, setup_s) = timed_setup(SETUP_REPS, SETUP_SECS, || fig15_input(seed));
    let mut m = Measured {
        setup_s,
        ..Measured::default()
    };
    let (synth_pins, lockstep_failures) = synth_reference(&input);
    m.record(grid_kinds().len() as u64, lockstep_failures);
    let sweep = |m: &mut Measured, timed: bool| match fig15_sweep(&input, dir) {
        Ok(pass) => {
            if timed {
                let committed: u64 = pass.artifact.runs.iter().map(|r| r.committed).sum();
                m.sweep_ms.push(ms(pass.wall));
                m.sim_mips
                    .push(committed as f64 / pass.wall.as_secs_f64() / 1e6);
                m.cell_ms
                    .extend(pass.artifact.runs.iter().map(|r| r.wall_s * 1e3));
            }
            let (n, f) = check_fig15(&pass, &input, &synth_pins, pins);
            m.record(n, f);
        }
        Err(e) => m.record(1, vec![e]),
    };
    sweep(&mut m, false);
    measure_for(seconds, || sweep(&mut m, true));
    m.notes.push(format!(
        "held-out program: {} (lockstep-verified)",
        input.synth.name
    ));
    m
}

/// The input of `sampled_phase`: the phase leg of the `sampled_v2` grid.
pub struct SampledInput {
    /// The quick budget at the 25x validation horizon (1M instructions)
    /// over the six built-ins in the seed's order.
    pub budget: Budget,
    /// 16 intervals, 12 clusters.
    pub sampling: SampleConfig,
}

/// Builds the `sampled_phase` input, building every program once.
pub fn sampled_input(seed: u64) -> SampledInput {
    let quick = Budget::quick();
    let wl = quick_workloads(seed);
    for w in &wl {
        std::hint::black_box(w.build(quick.workload_iters));
    }
    let budget = Budget {
        insts: quick.insts * 25,
        max_workloads: Some(0),
        extra_workloads: wl,
        ..quick
    };
    let base = budget.default_sampling();
    SampledInput {
        sampling: base.phase(base.clusters),
        budget,
    }
}

/// One `sampled_phase` sweep.
///
/// # Errors
///
/// The journal could not be created.
pub fn sampled_sweep(input: &SampledInput, dir: &Path) -> Result<SweepPass, String> {
    run_sweep(
        dir,
        "sampled_phase",
        &input.budget,
        Some(input.sampling),
        |s| {
            s.run_grid(&sampled_kinds(), &CoreConfig::alder_lake(), &input.budget)
                .into_iter()
                .flatten()
                .collect()
        },
    )
}

/// Checks every estimate of a `sampled_phase` sweep against its `sampled`
/// pin, and its IPC against the stored full-detail IPC (`full1m` pin)
/// within `ipc_error_bound`. Returns (cells attempted, failures, max
/// |IPC error|).
pub fn check_sampled(
    pass: &SweepPass,
    input: &SampledInput,
    pins: &Pins,
) -> (u64, Vec<String>, f64) {
    let cells = cells_of(&input.budget.workloads(), &sampled_kinds());
    if let Err(e) = &pass.verified {
        return (cells.len() as u64, all_failed(&cells, e), 0.0);
    }
    let results: BTreeMap<(String, String), &RunResult> = pass
        .results
        .iter()
        .map(|r| ((r.workload.clone(), r.predictor.clone()), r))
        .collect();
    let rows: BTreeMap<(String, String), Row> = pass
        .artifact
        .runs
        .iter()
        .map(|r| {
            (
                (r.workload.clone(), r.predictor.clone()),
                Row::from_record(r),
            )
        })
        .collect();
    let mut failures = Vec::new();
    let mut max_err = 0.0f64;
    for cell in &cells {
        let (w, p) = cell;
        let verdict = (|| {
            let r = results.get(cell).ok_or("missing from the sweep")?;
            let meta = r.sampling.as_ref().ok_or("no sampling metadata")?;
            pins.check_stats("sampled", w, p, &r.stats)?;
            pins.check_row(
                "sampled",
                rows.get(cell).ok_or("missing from the artifact")?,
            )?;
            let full = pins.get("full1m", w, p).ok_or("no full-detail reference")?;
            let err = (r.stats.ipc() - full.ipc()).abs();
            let bound = phast_sample::ipc_error_bound(full.ipc(), meta.ipc_ci_half);
            max_err = max_err.max(err);
            if err > bound {
                return Err(format!("IPC error {err:.4} exceeds bound {bound:.4}"));
            }
            Ok::<(), String>(())
        })();
        if let Err(e) = verdict {
            failures.push(format!("{w} × {p}: {e}"));
        }
    }
    (cells.len() as u64, failures, max_err)
}

/// Instructions of horizon a sampled sweep covered.
pub fn covered_horizon(results: &[RunResult]) -> u64 {
    results
        .iter()
        .filter_map(|r| r.sampling.as_ref())
        .map(|m| m.horizon)
        .sum()
}

/// Per-cell host ms of a sampled sweep. A workload's cells share one
/// capture pass, which the artifact charges wholly to the first of them
/// (~150 ms against ~25 ms of windows), so the raw `wall_s` splits into
/// two clusters and their median is the empty gap between them. Each cell
/// is charged an equal share of its workload's total instead.
pub fn shared_capture_cell_ms(runs: &[RunRecord]) -> Vec<f64> {
    let mut per_workload: BTreeMap<&str, (f64, usize)> = BTreeMap::new();
    for r in runs {
        let e = per_workload.entry(r.workload.as_str()).or_default();
        e.0 += r.wall_s * 1e3;
        e.1 += 1;
    }
    runs.iter()
        .map(|r| {
            let (total, n) = per_workload[r.workload.as_str()];
            total / n as f64
        })
        .collect()
}

/// The `sampled_phase` workload.
pub fn run_sampled_phase(seed: u64, seconds: f64, dir: &Path, pins: &Pins) -> Measured {
    let (input, setup_s) = timed_setup(SETUP_REPS, SETUP_SECS, || sampled_input(seed));
    let mut m = Measured {
        setup_s,
        ..Measured::default()
    };
    let mut max_err = 0.0f64;
    let mut sweep = |m: &mut Measured, timed: bool| match sampled_sweep(&input, dir) {
        Ok(pass) => {
            if timed {
                let horizon = covered_horizon(&pass.results);
                m.sweep_ms.push(ms(pass.wall));
                m.sim_mips
                    .push(horizon as f64 / pass.wall.as_secs_f64() / 1e6);
                m.cell_ms
                    .extend(shared_capture_cell_ms(&pass.artifact.runs));
            }
            let (n, f, e) = check_sampled(&pass, &input, pins);
            max_err = max_err.max(e);
            m.record(n, f);
        }
        Err(e) => m.record(1, vec![e]),
    };
    sweep(&mut m, false);
    measure_for(seconds, || sweep(&mut m, true));
    m.notes
        .push(format!("max |IPC error| vs full detail: {max_err:.4}"));
    m
}

// ---------------------------------------------------------------------------
// serve_bench

/// An in-process `phast-serve` daemon with one worker and one client
/// connection.
pub struct Daemon {
    /// The daemon.
    pub server: Server,
    /// The benchmark's connection to it.
    pub client: Client,
}

/// The journal fingerprint `phast-serve` uses.
pub const SERVE_JOURNAL: &str = "phast-serve-v1";

/// Starts a one-worker daemon with a fresh journal in `dir` and waits for
/// the first `pong`.
///
/// # Errors
///
/// Journal, bind, connect or protocol failures.
pub fn start_daemon(dir: &Path) -> Result<Daemon, String> {
    let journal =
        Journal::create(&dir.join("journal.jsonl"), SERVE_JOURNAL).map_err(|e| e.to_string())?;
    start_daemon_with(dir, journal)
}

/// [`start_daemon`] with a given journal (a resumed one replays the
/// cells it holds).
///
/// # Errors
///
/// Bind, connect or protocol failures.
pub fn start_daemon_with(dir: &Path, journal: Journal) -> Result<Daemon, String> {
    let mut daemon = connect_daemon(dir, journal)?;
    match daemon.client.request(&Request::Ping) {
        Ok(Event::Pong { .. }) => Ok(daemon),
        other => Err(format!("ping: {other:?}")),
    }
}

/// Starts a one-worker daemon with `journal` and connects to it: the
/// timed part of the `serve_bench` set-up.
///
/// # Errors
///
/// Bind or connect failures.
fn connect_daemon(dir: &Path, journal: Journal) -> Result<Daemon, String> {
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        sched: SchedConfig {
            workers: 1,
            lanes: 1,
            lease: LeaseConfig::default(),
            max_attempts: 3,
            housekeep_every: Duration::from_millis(25),
            chaos: ChaosPlan::none(),
        },
        max_active_sweeps: 2,
        json_dir: Some(dir.to_path_buf()),
        journal: Some(journal),
        run_timeout: None,
    })
    .map_err(|e| format!("daemon start: {e}"))?;
    let client = Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    Ok(Daemon { server, client })
}

impl Daemon {
    /// The daemon's `status` body.
    ///
    /// # Errors
    ///
    /// Socket or protocol failures.
    pub fn status(&mut self) -> Result<StatusBody, String> {
        match self.client.request(&Request::Status) {
            Ok(Event::Status(body)) => Ok(body),
            other => Err(format!("status: {other:?}")),
        }
    }

    /// Drains the daemon and returns its exit code.
    pub fn stop(self) -> i32 {
        drop(self.client);
        self.server.shutdown();
        self.server.join()
    }
}

/// The client's view of one served sweep.
#[derive(Debug, Default)]
pub struct ServedSweep {
    /// Submit → artifact fetched and verified.
    pub wall: Duration,
    /// Submit → `accepted`.
    pub accept: Duration,
    /// Submit → first `cell`.
    pub first_cell: Duration,
    /// Fetch + verify.
    pub fetch: Duration,
    /// Per-cell latency as the client saw it, from submit to the cell's
    /// event: (workload, predictor, ms).
    pub cells: Vec<(String, String, f64)>,
    /// The fetched artifact body.
    pub body: String,
    /// Submissions the daemon rejected.
    pub rejected: u64,
    /// Failures seen on the wire (non-ok cells, replays, protocol errors).
    pub failures: Vec<String>,
}

/// The `bench`-tier cells a served sweep over `kinds` must produce.
pub fn served_cells(kinds: &[String]) -> Vec<(String, String)> {
    let workloads = Budget::bench().workloads();
    kinds
        .iter()
        .flat_map(|k| {
            workloads
                .iter()
                .map(move |w| (w.name.to_string(), k.clone()))
        })
        .collect()
}

/// Submits one watched `bench`-tier sweep under `id`, streams it to
/// `done`, then fetches and verifies its artifact. A sweep whose cells
/// the journal replays instead of running is a failure: it measured
/// nothing.
pub fn serve_sweep(client: &mut Client, id: &str, kinds: &[String]) -> ServedSweep {
    let expected = served_cells(kinds);
    let mut out = ServedSweep::default();
    let t0 = Instant::now();
    let reply = client.request(&Request::Submit {
        id: id.to_string(),
        kinds: kinds.to_vec(),
        budget: "bench".to_string(),
        watch: true,
    });
    out.accept = t0.elapsed();
    match reply {
        Ok(Event::Accepted {
            cells, replayed, ..
        }) => {
            if replayed > 0 || cells != expected.len() as u64 {
                out.failures = all_failed(
                    &expected,
                    &format!(
                        "{id}: {replayed} of {cells} cell(s) replayed from the journal, not served"
                    ),
                );
            }
        }
        Ok(Event::Rejected { reason, .. }) => {
            out.rejected = 1;
            out.failures = all_failed(&expected, &format!("rejected: {reason}"));
            return out;
        }
        other => {
            out.failures = all_failed(&expected, &format!("submit: {other:?}"));
            return out;
        }
    }
    let digest = loop {
        match client.recv() {
            Ok(Event::Cell {
                workload,
                predictor,
                status,
                ..
            }) => {
                let since_submit = t0.elapsed();
                if out.cells.is_empty() {
                    out.first_cell = since_submit;
                }
                if status != "ok" {
                    out.failures
                        .push(format!("{workload} × {predictor}: {status}"));
                }
                out.cells.push((workload, predictor, ms(since_submit)));
            }
            Ok(Event::Done { digest, .. }) => break digest,
            other => {
                out.failures
                    .push(format!("{id}: stream ended with {other:?}"));
                return out;
            }
        }
    };
    let tf = Instant::now();
    match client.fetch(&digest) {
        Ok(body) => {
            if let Err(e) = SweepArtifact::verify_json(&body) {
                out.failures.push(format!("{id}: fetched artifact: {e}"));
            }
            out.body = body;
        }
        Err(e) => out.failures.push(format!("{id}: fetch: {e}")),
    }
    out.fetch = tf.elapsed();
    out.wall = t0.elapsed();
    out
}

/// Checks a fetched artifact body: its digest, and every expected row
/// against the `bench` pins.
pub fn check_served(body: &str, kinds: &[String], pins: &Pins) -> Vec<String> {
    let expected = served_cells(kinds);
    if let Err(e) = SweepArtifact::verify_json(body) {
        return all_failed(&expected, &format!("artifact: {e}"));
    }
    let rows = match Row::parse_artifact(body) {
        Ok(rows) => rows,
        Err(e) => return all_failed(&expected, &e),
    };
    expected
        .iter()
        .filter_map(
            |(w, p)| match rows.iter().find(|r| &r.workload == w && &r.predictor == p) {
                None => Some(format!("{w} × {p}: missing from the artifact")),
                Some(row) => pins.check_row("bench", row).err(),
            },
        )
        .collect()
}

/// The predictor labels a served sweep submits, in the seed's order.
pub fn served_kinds(seed: u64) -> Vec<String> {
    let mut kinds: Vec<String> = grid_kinds().iter().map(PredictorKind::label).collect();
    permute(&mut kinds, seed);
    kinds
}

/// Committed instructions of the clean rows of a fetched artifact.
pub fn served_committed(body: &str) -> u64 {
    Row::parse_artifact(body)
        .map(|rows| {
            rows.iter()
                .filter(|r| r.degraded.is_none())
                .map(|r| r.committed)
                .sum()
        })
        .unwrap_or(0)
}

/// Counts one served sweep's cells and failures into `m`; a sweep never
/// fails more cells than it has.
fn record_served(m: &mut Measured, s: &ServedSweep, kinds: &[String], pins: &Pins) {
    let expected = served_cells(kinds).len();
    let mut failures = s.failures.clone();
    if !s.body.is_empty() {
        failures.extend(check_served(&s.body, kinds, pins));
    }
    failures.truncate(expected);
    m.record(expected as u64, failures);
}

/// The `serve_bench` workload.
pub fn run_serve_bench(seed: u64, seconds: f64, dir: &Path, pins: &Pins) -> Measured {
    let mut m = Measured::default();
    let kinds = served_kinds(seed);
    // The set-up is repeated like the in-process ones (the first untimed),
    // each daemon in its own directory and stopped before the next starts;
    // the last one stays up for the sweeps. It is timed from
    // `Server::start` until the client's connection is established; the
    // first `pong` is excluded (see README.md).
    let mut secs = Vec::new();
    let mut kept: Option<Daemon> = None;
    let start = Instant::now();
    while secs.len() <= SETUP_REPS || start.elapsed().as_secs_f64() < SETUP_SECS {
        if let Some(old) = kept.take() {
            old.stop();
        }
        let rep_dir = dir.join(format!("daemon{}", secs.len()));
        let started = Journal::create(&rep_dir.join("journal.jsonl"), SERVE_JOURNAL)
            .map_err(|e| e.to_string())
            .and_then(|journal| {
                let t = Instant::now();
                let daemon = connect_daemon(&rep_dir, journal)?;
                secs.push(t.elapsed().as_secs_f64());
                Ok(daemon)
            });
        match started {
            Ok(daemon) => kept = Some(daemon),
            Err(e) => {
                m.record(1, vec![e]);
                return m;
            }
        }
    }
    m.setup_s = median(&secs[1..]);
    let mut daemon = kept.expect("at least one set-up");
    let warm_up = serve_sweep(&mut daemon.client, &format!("bench-{seed}-0"), &kinds);
    record_served(&mut m, &warm_up, &kinds, pins);
    let mut n = 0u64;
    measure_for(seconds, || {
        n += 1;
        let s = serve_sweep(&mut daemon.client, &format!("bench-{seed}-{n}"), &kinds);
        if s.failures.is_empty() {
            m.sweep_ms.push(ms(s.wall));
            m.sim_mips
                .push(served_committed(&s.body) as f64 / s.wall.as_secs_f64() / 1e6);
            m.cell_ms.extend(s.cells.iter().map(|c| c.2));
        }
        record_served(&mut m, &s, &kinds, pins);
    });
    match daemon.status() {
        Ok(st) => m.notes.push(format!(
            "daemon: reclaimed {} lost {}",
            st.reclaimed, st.lost
        )),
        Err(e) => m.failures.push(e),
    }
    let code = daemon.stop();
    if code != 0 {
        m.failures.push(format!("daemon exited {code}"));
    }
    m
}
