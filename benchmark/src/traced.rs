//! The traced run (`--trace 1`): per-layer host time and counts.
//!
//! Spans are recorded only here, in the benchmark, around calls into each
//! crate's public functions; nothing inside the program is instrumented.
//! Each round replays the cells of all three workloads in the order the
//! harness runs them — `Workload::build` → `phast_trace::signature` →
//! `PredictorKind::build` → `Core::new` → `Core::try_run` for full-detail
//! cells, `capture` → `cluster` → `run_window` → `estimate` for sampled
//! ones — plus one real sweep of each in-process workload (harness,
//! journal and artifact layers) and a few served sweeps (daemon layers).
//!
//! Per-call layers (the memory dependence predictor, the branch direction
//! predictor) are measured by decorators that count and time every call
//! and are recorded as one aggregate per run span: millions of
//! individual spans would cost more than the work they time. A span's
//! self time is its duration minus its child spans and aggregates.

use crate::e2e::{
    fig15_input, fig15_sweep, grid_kinds, quick_workloads, sampled_input, sampled_kinds,
    sampled_sweep, serve_sweep, served_kinds, Daemon, SweepPass,
};
use crate::pins::{Pin, Pins, Row};
use crate::stats::{median, Metric};
use phast_branch::{DirectionPredictor, Tage, TageConfig};
use phast_experiments::Budget;
use phast_isa::Pc;
use phast_mdp::{
    AccessStats, LoadCommit, LoadQuery, MemDepPredictor, PredictionOutcome, StoreQuery, Violation,
};
use phast_mem::Hierarchy;
use phast_ooo::{Core, CoreConfig, SimStats};
use phast_sample::{
    capture, cluster, estimate, run_window, sum_window_stats_weighted, CLUSTER_SEED,
};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

/// Served sweeps per traced round.
const SERVED_PER_ROUND: usize = 4;

/// Which end-to-end metric, on which workload, each layer (span or
/// aggregate name) should move.
pub const LAYER_MAP: [(&str, &str); 16] = [
    (
        "ooo.run",
        "sim_mips, sweep_ms_p50 on fig15_quick; barely sampled_phase",
    ),
    (
        "mdp",
        "sim_mips, cell_ms_p90 on fig15_quick (mdp-tage cells are the tail)",
    ),
    ("branch", "sim_mips on fig15_quick"),
    (
        "ooo.core_new",
        "cell_ms_p50, sweep_ms_p50 on serve_bench; sim_mips on sampled_phase",
    ),
    (
        "mem.hierarchy_new",
        "cell_ms_p50, sweep_ms_p50 on serve_bench; sim_mips on sampled_phase",
    ),
    (
        "mdp.build",
        "cell_ms_p50, sweep_ms_p50 on serve_bench; sim_mips on sampled_phase",
    ),
    (
        "trace.signature",
        "cell_ms_p50, sweep_ms_p50 on serve_bench; sim_mips on sampled_phase",
    ),
    (
        "workloads.build",
        "cell_ms_p50, sweep_ms_p50 on serve_bench; sim_mips on sampled_phase",
    ),
    ("cell", "per-cell glue of the replay itself"),
    ("sample.build", "sim_mips on sampled_phase"),
    ("sample.capture", "sim_mips on sampled_phase only"),
    ("sample.cluster", "sim_mips on sampled_phase only"),
    ("sample.window", "sim_mips on sampled_phase"),
    ("sample.estimate", "sim_mips on sampled_phase"),
    (
        "harness.sweep",
        "sweep_ms_p50 on fig15_quick and sampled_phase (whole real sweeps)",
    ),
    (
        "serve.sweep",
        "cell_ms_p50, sweep_ms_p50 on serve_bench only",
    ),
];

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start: u64,
    /// End, ns since the tracer's origin.
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The cell (or sweep) the span belongs to.
    pub cell: u64,
}

/// Summed per-call time of one decorated layer inside one span.
#[derive(Clone, Debug)]
pub struct Aggregate {
    /// Layer name.
    pub name: &'static str,
    /// Summed call time.
    pub ns: u64,
    /// Calls made.
    pub calls: u64,
    /// The span the calls happened in.
    pub parent: usize,
    /// The cell the calls belong to.
    pub cell: u64,
}

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    /// Every span, in start order.
    pub spans: Vec<Span>,
    /// Every decorator aggregate.
    pub aggregates: Vec<Aggregate>,
    stack: Vec<usize>,
    /// The current cell id.
    pub cell: u64,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            aggregates: Vec::new(),
            stack: Vec::new(),
            cell: 0,
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied(),
            cell: self.cell,
        });
        self.stack.push(id);
        id
    }

    /// Closes span `id` (which must be the innermost open one) and returns
    /// its duration in ns.
    pub fn end(&mut self, id: usize) -> u64 {
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans close innermost first");
        self.spans[id].end = self.now();
        self.spans[id].end - self.spans[id].start
    }

    /// Times `f` as span `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Records a decorator's totals inside span `parent`.
    pub fn aggregate(&mut self, parent: usize, name: &'static str, calls: &CallStats) {
        self.aggregates.push(Aggregate {
            name,
            ns: calls.ns,
            calls: calls.calls,
            parent,
            cell: self.cell,
        });
    }

    /// Self time in ns per layer name over spans `from..` (and the
    /// aggregates inside them): duration minus children.
    pub fn self_ns(&self, from: usize) -> BTreeMap<&'static str, u64> {
        let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in self.spans.iter().skip(from) {
            if let Some(p) = s.parent.filter(|&p| p >= from) {
                child_ns[p] += s.end - s.start;
            }
        }
        for a in self.aggregates.iter().filter(|a| a.parent >= from) {
            child_ns[a.parent] += a.ns;
            *out.entry(a.name).or_default() += a.ns;
        }
        for (i, s) in self.spans.iter().enumerate().skip(from) {
            *out.entry(s.name).or_default() += (s.end - s.start).saturating_sub(child_ns[i]);
        }
        out
    }

    /// Writes every span and aggregate as JSON lines.
    ///
    /// # Errors
    ///
    /// Filesystem errors.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"cell\": {}}}",
                s.name, s.start, s.end, s.cell
            );
        }
        for a in &self.aggregates {
            let _ = writeln!(
                out,
                "{{\"name\": \"{}\", \"calls\": {}, \"total_ns\": {}, \"parent\": {}, \"cell\": {}}}",
                a.name, a.calls, a.ns, a.parent, a.cell
            );
        }
        std::fs::write(path, out)
    }
}

/// Counted, timed calls into one decorated layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct CallStats {
    /// Summed host time of the calls.
    pub ns: u64,
    /// Calls of any kind.
    pub calls: u64,
    /// Prediction calls.
    pub predicts: u64,
    /// Training calls (violations, commits, direction updates).
    pub trains: u64,
}

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// A memory dependence predictor decorator that counts and times every
/// call and forwards it unchanged.
pub struct TimedMdp<'a> {
    inner: &'a mut dyn MemDepPredictor,
    /// Calls so far.
    pub stats: CallStats,
}

impl<'a> TimedMdp<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut dyn MemDepPredictor) -> TimedMdp<'a> {
        TimedMdp {
            inner,
            stats: CallStats::default(),
        }
    }

    fn timed<T>(&mut self, predict: bool, f: impl FnOnce(&mut dyn MemDepPredictor) -> T) -> T {
        let t = Instant::now();
        let out = f(self.inner);
        self.stats.ns += elapsed_ns(t);
        self.stats.calls += 1;
        if predict {
            self.stats.predicts += 1;
        } else {
            self.stats.trains += 1;
        }
        out
    }
}

impl MemDepPredictor for TimedMdp<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn predict_load(&mut self, q: &LoadQuery<'_>) -> PredictionOutcome {
        self.timed(true, |p| p.predict_load(q))
    }

    fn store_dispatched(&mut self, q: &StoreQuery<'_>) -> Option<u64> {
        self.timed(true, |p| p.store_dispatched(q))
    }

    fn store_executed(&mut self, pc: Pc, token: u64) {
        self.timed(false, |p| p.store_executed(pc, token));
    }

    fn train_violation(&mut self, v: &Violation<'_>) {
        self.timed(false, |p| p.train_violation(v));
    }

    fn load_committed(&mut self, c: &LoadCommit<'_>) {
        self.timed(false, |p| p.load_committed(c));
    }

    fn storage_bits(&self) -> usize {
        self.inner.storage_bits()
    }

    fn access_stats(&self) -> AccessStats {
        self.inner.access_stats()
    }

    fn num_paths(&self) -> u64 {
        self.inner.num_paths()
    }

    fn reset_access_stats(&mut self) {
        self.inner.reset_access_stats();
    }
}

/// A branch direction predictor decorator that counts and times every
/// call into a shared cell (the core owns the decorator).
pub struct TimedDirection {
    inner: Box<dyn DirectionPredictor>,
    stats: Rc<Cell<CallStats>>,
}

impl TimedDirection {
    /// Wraps `inner`, counting into `stats`.
    pub fn new(inner: Box<dyn DirectionPredictor>, stats: Rc<Cell<CallStats>>) -> TimedDirection {
        TimedDirection { inner, stats }
    }

    fn count(&self, t: Instant, predict: bool) {
        let mut s = self.stats.get();
        s.ns += elapsed_ns(t);
        s.calls += 1;
        if predict {
            s.predicts += 1;
        } else {
            s.trains += 1;
        }
        self.stats.set(s);
    }
}

impl DirectionPredictor for TimedDirection {
    fn predict(&self, pc: Pc, ghr: u128) -> bool {
        let t = Instant::now();
        let out = self.inner.predict(pc, ghr);
        self.count(t, true);
        out
    }

    fn update(&mut self, pc: Pc, ghr: u128, taken: bool) {
        let t = Instant::now();
        self.inner.update(pc, ghr, taken);
        self.count(t, false);
    }

    fn storage_bits(&self) -> usize {
        self.inner.storage_bits()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Per-round layer values: times in ms, counts as counts.
type Round = BTreeMap<String, f64>;

fn add(r: &mut Round, key: impl Into<String>, v: f64) {
    *r.entry(key.into()).or_default() += v;
}

/// The cycle ceiling the harness gives a full-detail run.
fn max_cycles(insts: u64) -> u64 {
    insts.saturating_mul(20).max(1_000_000)
}

/// One full-detail cell the way the harness runs it, traced (spans,
/// decorators, per-round counts) or not.
fn replay_cell(
    tr: &mut Tracer,
    traced: bool,
    workload: &phast_workloads::Workload,
    kind: &phast_experiments::PredictorKind,
    budget: &Budget,
    round: &mut Round,
) -> Result<SimStats, String> {
    let mut cfg = CoreConfig::alder_lake();
    cfg.train_point = kind.train_point();
    let label = kind.label();
    if !traced {
        let program = workload.build(budget.workload_iters);
        black_box(phast_trace::signature(&program).digest());
        let mut predictor = kind.build(&program, budget.insts);
        drop(black_box(Hierarchy::new(cfg.memory)));
        let direction = Box::new(Tage::new(TageConfig::default()));
        let mut core = Core::new(&program, cfg, predictor.as_mut(), direction);
        return core
            .try_run(budget.insts, max_cycles(budget.insts))
            .map_err(|e| e.to_string());
    }
    tr.cell += 1;
    let root = tr.begin("cell");
    let program = tr.span("workloads.build", || workload.build(budget.workload_iters));
    tr.span("trace.signature", || {
        black_box(phast_trace::signature(&program).digest())
    });
    add(round, "trace.signature_calls", 1.0);
    let mut predictor = tr.span("mdp.build", || kind.build(&program, budget.insts));
    tr.span("mem.hierarchy_new", || {
        drop(black_box(Hierarchy::new(cfg.memory)))
    });
    let mut timed = TimedMdp::new(predictor.as_mut());
    let branch = Rc::new(Cell::new(CallStats::default()));
    let direction = Box::new(TimedDirection::new(
        Box::new(Tage::new(TageConfig::default())),
        Rc::clone(&branch),
    ));
    let t = tr.begin("ooo.core_new");
    let mut core = Core::new(&program, cfg, &mut timed, direction);
    tr.end(t);
    let run = tr.begin("ooo.run");
    let result = core.try_run(budget.insts, max_cycles(budget.insts));
    let run_ns = tr.end(run);
    drop(core);
    let (mdp, br) = (timed.stats, branch.get());
    tr.aggregate(run, "mdp", &mdp);
    tr.aggregate(run, "branch", &br);
    tr.end(root);
    add(round, format!("ooo.run_ms.{label}"), run_ns as f64 / 1e6);
    add(round, format!("mdp.self_ms.{label}"), mdp.ns as f64 / 1e6);
    add(round, "mdp.predict_calls", mdp.predicts as f64);
    add(round, "mdp.train_calls", mdp.trains as f64);
    add(round, "mdp.calls", mdp.calls as f64);
    add(round, "branch.calls", br.calls as f64);
    result.map_err(|e| e.to_string())
}

/// Replays the 36 built-in cells of the quick fig15 grid. The held-out
/// synth program is left out so the counts repeat across seeds.
fn replay_grid(
    tr: &mut Tracer,
    traced: bool,
    seed: u64,
    pins: &Pins,
    round: &mut Round,
    failures: &mut Vec<String>,
) -> (u64, f64) {
    let budget = Budget::quick();
    let workloads = quick_workloads(seed);
    let t = Instant::now();
    let mut committed = 0;
    for kind in grid_kinds() {
        for w in &workloads {
            match replay_cell(tr, traced, w, &kind, &budget, round) {
                Ok(stats) => {
                    committed += stats.committed;
                    if let Err(e) = pins.check_stats("quick", w.name, &kind.label(), &stats) {
                        failures.push(format!("traced {e}"));
                    }
                    if traced {
                        add_counts(round, &stats);
                    }
                }
                Err(e) => failures.push(format!("traced {} × {}: {e}", w.name, kind.label())),
            }
        }
    }
    (committed, t.elapsed().as_secs_f64())
}

fn add_counts(round: &mut Round, s: &SimStats) {
    let m = &s.memory;
    for (k, v) in [
        ("ooo.cycles", s.cycles),
        ("ooo.committed", s.committed),
        ("ooo.squashed_uops", s.squashed_uops),
        ("mdp.violations", s.violations),
        ("mdp.false_deps", s.false_dependences),
        ("mem.l1d_misses", m.l1d.misses),
        ("mem.l2_misses", m.l2.misses),
        ("mem.l3_misses", m.l3.misses),
        (
            "mem.prefetch_fills",
            m.l1d.prefetch_fills + m.l2.prefetch_fills + m.l3.prefetch_fills,
        ),
    ] {
        add(round, k, v as f64);
    }
}

/// Replays the sampled grid: capture → cluster → windows → estimate.
fn replay_sampled(
    tr: &mut Tracer,
    seed: u64,
    pins: &Pins,
    round: &mut Round,
    failures: &mut Vec<String>,
) {
    let input = sampled_input(seed);
    let (budget, scfg) = (&input.budget, input.sampling);
    let cfg = CoreConfig::alder_lake();
    let (mut horizon, mut ff, mut windows, mut detailed, mut captured) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for w in budget.workloads() {
        tr.cell += 1;
        let program = tr.span("sample.build", || w.build(budget.workload_iters));
        let set = match tr.span("sample.capture", || {
            capture(&program, &cfg, &scfg, budget.insts)
        }) {
            Ok(set) => set,
            Err(e) => {
                failures.push(format!("traced capture {}: {e:?}", w.name));
                continue;
            }
        };
        captured += set.horizon;
        let plan = tr.span("sample.cluster", || {
            cluster(&set.features, scfg.clusters, CLUSTER_SEED)
        });
        if set.clusters.as_ref() != Some(&plan) {
            failures.push(format!(
                "traced cluster {}: differs from the capture's plan",
                w.name
            ));
        }
        for kind in sampled_kinds() {
            let mut core_cfg = cfg.clone();
            core_cfg.train_point = kind.train_point();
            let runs: Vec<_> = set
                .windows_to_run()
                .into_iter()
                .map(|j| {
                    tr.span("sample.window", || {
                        let mut predictor = kind.build(&program, budget.insts);
                        run_window(&program, &core_cfg, predictor.as_mut(), &set, j)
                    })
                })
                .collect();
            let est = tr.span("sample.estimate", || estimate(&set, &runs));
            let stats = sum_window_stats_weighted(&runs, &set.run_weights());
            if let Err(e) = pins.check_stats("sampled", w.name, &kind.label(), &stats) {
                failures.push(format!("traced {e}"));
            }
            horizon += est.horizon;
            ff += est.fast_forwarded_insts;
            windows += runs.len() as u64;
            detailed += est.measured_insts + est.warmed_insts;
        }
    }
    add(round, "sample.ff_insts", ff as f64);
    add(round, "sample.windows", windows as f64);
    add(round, "sample.detailed_insts", detailed as f64);
    add(
        round,
        "sample.detail_share",
        detailed as f64 / horizon.max(1) as f64,
    );
    add(round, "sample.captured_insts", captured as f64);
}

/// Harness, journal and artifact layers of one real sweep.
fn sweep_layers(
    tr: &mut Tracer,
    round: &mut Round,
    failures: &mut Vec<String>,
    f: impl FnOnce() -> Result<SweepPass, String>,
) {
    tr.cell += 1;
    let pass = match tr.span("harness.sweep", f) {
        Ok(p) => p,
        Err(e) => {
            failures.push(e);
            return;
        }
    };
    if let Err(e) = &pass.verified {
        failures.push(format!("traced sweep: {e}"));
    }
    let cells_s: f64 = pass.artifact.runs.iter().map(|r| r.wall_s).sum();
    add(
        round,
        "harness.overhead_ms",
        (pass.wall.as_secs_f64() - cells_s) * 1e3,
    );
    add(
        round,
        "harness.retries",
        pass.artifact
            .runs
            .iter()
            .map(|r| r.attempts.saturating_sub(1))
            .sum::<u64>() as f64,
    );
    add(
        round,
        "harness.failed",
        pass.artifact
            .runs
            .iter()
            .filter(|r| r.degraded.is_some())
            .count() as f64,
    );
    add(round, "journal.bytes", pass.journal_bytes as f64);
    add(round, "artifact.write_ms", pass.write.as_secs_f64() * 1e3);
    add(round, "artifact.verify_ms", pass.verify.as_secs_f64() * 1e3);
    add(round, "artifact.bytes", pass.artifact_bytes as f64);
}

/// Daemon layers of a few served sweeps.
fn serve_layers(
    tr: &mut Tracer,
    daemon: &mut Daemon,
    seed: u64,
    n: &mut u64,
    pins: &Pins,
    round: &mut Round,
    failures: &mut Vec<String>,
) {
    let kinds = served_kinds(seed);
    let (mut accept, mut first, mut fetch, mut overhead) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut rejected = 0;
    for _ in 0..SERVED_PER_ROUND {
        *n += 1;
        tr.cell += 1;
        let s = tr.span("serve.sweep", || {
            serve_sweep(&mut daemon.client, &format!("trace-{seed}-{n}"), &kinds)
        });
        failures.extend(s.failures.iter().cloned());
        failures.extend(crate::e2e::check_served(&s.body, &kinds, pins));
        rejected += s.rejected;
        accept.push(s.accept.as_secs_f64() * 1e3);
        first.push(s.first_cell.as_secs_f64() * 1e3);
        fetch.push(s.fetch.as_secs_f64() * 1e3);
        let cells_s: f64 = Row::parse_artifact(&s.body)
            .unwrap_or_default()
            .iter()
            .map(|r| r.wall_s)
            .sum();
        overhead.push((s.wall.as_secs_f64() - cells_s) * 1e3);
    }
    add(round, "serve.accept_ms_p50", median(&accept));
    add(round, "serve.first_cell_ms_p50", median(&first));
    add(round, "serve.fetch_ms_p50", median(&fetch));
    add(round, "serve.overhead_ms", median(&overhead));
    add(round, "serve.rejected", rejected as f64);
}

/// Keys that are simulated counts: they must repeat exactly every round.
const EXACT: [&str; 18] = [
    "ooo.cycles",
    "ooo.committed",
    "ooo.squashed_uops",
    "ooo.useful_uop_ratio",
    "mdp.violations",
    "mdp.false_deps",
    "mem.l1d_misses",
    "mem.l2_misses",
    "mem.l3_misses",
    "mem.prefetch_fills",
    "mdp.predict_calls",
    "mdp.train_calls",
    "branch.calls",
    "trace.signature_calls",
    "sample.ff_insts",
    "sample.windows",
    "sample.detailed_insts",
    "sample.detail_share",
];

/// Everything the traced run reports.
pub struct TracedRun {
    /// Cells replayed (traced and untraced) and served.
    pub attempted: u64,
    /// Failed checks.
    pub failures: Vec<String>,
    /// The per-layer metrics.
    pub metrics: Vec<Metric>,
    /// Human-readable per-layer table.
    pub table: String,
    /// The recorded spans.
    pub tracer: Tracer,
}

/// The traced run: rounds until `seconds` have passed (at least two, so
/// repeated counts are checked), reporting the median round.
pub fn run_traced(
    seed: u64,
    seconds: f64,
    dir: &Path,
    pins: &Pins,
    daemon: &mut Daemon,
) -> TracedRun {
    let mut tr = Tracer::default();
    let mut failures = Vec::new();
    let mut rounds: Vec<Round> = Vec::new();
    let mut attempted = 0u64;
    let fig15 = fig15_input(seed);
    let sampled = sampled_input(seed);
    let mut served = 0u64;
    let start = Instant::now();
    while rounds.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        let mark = tr.spans.len();
        let mut round = Round::new();
        let mut scratch = Round::new();
        let (committed, untraced_s) =
            replay_grid(&mut tr, false, seed, pins, &mut scratch, &mut failures);
        let (_, traced_s) = replay_grid(&mut tr, true, seed, pins, &mut round, &mut failures);
        replay_sampled(&mut tr, seed, pins, &mut round, &mut failures);
        sweep_layers(&mut tr, &mut round, &mut failures, || {
            fig15_sweep(&fig15, dir)
        });
        sweep_layers(&mut tr, &mut round, &mut failures, || {
            sampled_sweep(&sampled, dir)
        });
        serve_layers(
            &mut tr,
            daemon,
            seed,
            &mut served,
            pins,
            &mut round,
            &mut failures,
        );
        attempted += 2 * 36 + 12 + 42 + 12 + (SERVED_PER_ROUND * 12) as u64;
        let untraced_mips = committed as f64 / untraced_s / 1e6;
        let traced_mips = committed as f64 / traced_s / 1e6;
        add(
            &mut round,
            "trace.overhead_pct",
            100.0 * (untraced_mips - traced_mips) / untraced_mips,
        );
        derive(&mut round, &tr.self_ns(mark));
        rounds.push(round);
    }
    match daemon.status() {
        Ok(st) => {
            for r in &mut rounds {
                r.insert("serve.reclaimed".into(), st.reclaimed as f64);
                r.insert("serve.lost".into(), st.lost as f64);
            }
        }
        Err(e) => failures.push(e),
    }
    for key in EXACT {
        let first = rounds[0].get(key).copied();
        if rounds.iter().any(|r| r.get(key).copied() != first) {
            failures.push(format!("count {key} differs between rounds"));
        }
    }
    let keys: Vec<String> = per_layer_names();
    let metrics: Vec<Metric> = keys
        .iter()
        .map(|k| {
            let vals: Vec<f64> = rounds
                .iter()
                .map(|r| r.get(k).copied().unwrap_or(0.0))
                .collect();
            Metric::new(k.clone(), median(&vals), unit_of(k))
        })
        .collect();
    let table = self_time_table(&tr, rounds.len(), &rounds);
    TracedRun {
        attempted,
        failures,
        metrics,
        table,
        tracer: tr,
    }
}

/// Derived per-round values from span self times.
fn derive(round: &mut Round, self_ns: &BTreeMap<&'static str, u64>) {
    let ms = |k: &str| self_ns.get(k).copied().unwrap_or(0) as f64 / 1e6;
    let get = |r: &Round, k: &str| r.get(k).copied().unwrap_or(0.0);
    for (k, v) in [
        ("ooo.run_self_ms", ms("ooo.run")),
        ("mdp.self_ms", ms("mdp")),
        ("branch.self_ms", ms("branch")),
        ("ooo.core_new_ms", ms("ooo.core_new")),
        ("mem.hierarchy_new_ms", ms("mem.hierarchy_new")),
        ("mdp.build_ms", ms("mdp.build")),
        ("trace.signature_ms", ms("trace.signature")),
        ("workloads.build_ms", ms("workloads.build")),
        ("sample.capture_ms", ms("sample.capture")),
        ("sample.cluster_ms", ms("sample.cluster")),
        ("sample.window_ms", ms("sample.window")),
        ("sample.estimate_ms", ms("sample.estimate")),
    ] {
        round.insert(k.to_string(), v);
    }
    let cycles = get(round, "ooo.cycles");
    let committed = get(round, "ooo.committed");
    let squashed = get(round, "ooo.squashed_uops");
    round.insert(
        "ooo.ns_per_cycle".into(),
        get(round, "ooo.run_self_ms") * 1e6 / cycles.max(1.0),
    );
    round.insert(
        "ooo.useful_uop_ratio".into(),
        committed / (committed + squashed).max(1.0),
    );
    round.insert(
        "mdp.ns_per_call".into(),
        get(round, "mdp.self_ms") * 1e6 / get(round, "mdp.calls").max(1.0),
    );
    round.insert(
        "sample.capture_ns_per_inst".into(),
        get(round, "sample.capture_ms") * 1e6 / get(round, "sample.captured_insts").max(1.0),
    );
}

/// Every per-layer metric name, in `BENCHMARK.json` order.
pub fn per_layer_names() -> Vec<String> {
    let mut names: Vec<String> = ["ooo.run_self_ms", "ooo.ns_per_cycle"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let labels: Vec<String> = grid_kinds().iter().map(|k| k.label()).collect();
    names.extend(labels.iter().map(|l| format!("ooo.run_ms.{l}")));
    names.push("mdp.self_ms".into());
    names.extend(labels.iter().map(|l| format!("mdp.self_ms.{l}")));
    names.extend(
        [
            "mdp.predict_calls",
            "mdp.train_calls",
            "mdp.ns_per_call",
            "branch.self_ms",
            "branch.calls",
            "ooo.core_new_ms",
            "mem.hierarchy_new_ms",
            "mdp.build_ms",
            "trace.signature_ms",
            "trace.signature_calls",
            "workloads.build_ms",
            "sample.capture_ms",
            "sample.ff_insts",
            "sample.capture_ns_per_inst",
            "sample.cluster_ms",
            "sample.window_ms",
            "sample.windows",
            "sample.detailed_insts",
            "sample.detail_share",
            "sample.estimate_ms",
            "harness.overhead_ms",
            "harness.retries",
            "harness.failed",
            "journal.bytes",
            "artifact.write_ms",
            "artifact.verify_ms",
            "artifact.bytes",
            "serve.accept_ms_p50",
            "serve.first_cell_ms_p50",
            "serve.overhead_ms",
            "serve.fetch_ms_p50",
            "serve.rejected",
            "serve.reclaimed",
            "serve.lost",
            "ooo.cycles",
            "ooo.committed",
            "ooo.squashed_uops",
            "ooo.useful_uop_ratio",
            "mdp.violations",
            "mdp.false_deps",
            "mem.l1d_misses",
            "mem.l2_misses",
            "mem.l3_misses",
            "mem.prefetch_fills",
            "trace.overhead_pct",
        ]
        .iter()
        .map(|s| s.to_string()),
    );
    names
}

/// The unit of a per-layer metric, by its name.
pub fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_ms") || name.contains("_ms.") || name.ends_with("_ms_p50") {
        "ms"
    } else if name.starts_with("ooo.ns_")
        || name.ends_with("ns_per_call")
        || name.ends_with("ns_per_inst")
    {
        "ns"
    } else if name.ends_with("bytes") {
        "bytes"
    } else if name.ends_with("ratio") || name.ends_with("share") {
        "ratio"
    } else if name.ends_with("_pct") {
        "%"
    } else {
        "count"
    }
}

/// The per-layer self-time table with each layer's target metric.
fn self_time_table(tr: &Tracer, rounds: usize, per_round: &[Round]) -> String {
    let self_ns = tr.self_ns(0);
    let total: u64 = self_ns.values().sum();
    let mut out = format!("per-layer self time over {rounds} traced round(s) (ms per round):\n");
    let mut layers: Vec<_> = self_ns.iter().collect();
    layers.sort_by(|a, b| b.1.cmp(a.1));
    for (name, ns) in layers {
        let moves = LAYER_MAP
            .iter()
            .find(|(l, _)| l == name)
            .map_or("", |(_, m)| m);
        let _ = writeln!(
            out,
            "  {name:<18} {:>10.2} {:>6.1}%  {moves}",
            *ns as f64 / 1e6 / rounds as f64,
            100.0 * *ns as f64 / total.max(1) as f64
        );
    }
    let overhead: Vec<f64> = per_round
        .iter()
        .filter_map(|r| r.get("trace.overhead_pct").copied())
        .collect();
    let _ = writeln!(
        out,
        "tracing overhead on the replayed fig15 grid: {:.1}% of untraced sim_mips",
        median(&overhead)
    );
    out
}

/// Pins for the `--print-pins` mode: every cell the benchmark checks,
/// simulated directly through the public entry points.
pub fn compute_pins() -> Pins {
    let mut pins = Pins::default();
    let mut tr = Tracer::default();
    let mut round = Round::new();
    for (tier, budget) in [("quick", Budget::quick()), ("bench", Budget::bench())] {
        for kind in grid_kinds() {
            for w in budget.workloads() {
                let stats = replay_cell(&mut tr, false, &w, &kind, &budget, &mut round)
                    .unwrap_or_else(|e| panic!("{tier} {} × {}: {e}", w.name, kind.label()));
                pins.set(tier, w.name, &kind.label(), Pin::of(&stats));
            }
        }
    }
    let input = sampled_input(0);
    let full = Budget {
        max_workloads: Some(6),
        extra_workloads: Vec::new(),
        ..input.budget.clone()
    };
    for kind in sampled_kinds() {
        for w in full.workloads() {
            let stats = replay_cell(&mut tr, false, &w, &kind, &full, &mut round)
                .unwrap_or_else(|e| panic!("full1m {} × {}: {e}", w.name, kind.label()));
            pins.set("full1m", w.name, &kind.label(), Pin::of(&stats));
        }
    }
    let cfg = CoreConfig::alder_lake();
    for w in full.workloads() {
        let program = w.build(full.workload_iters);
        let set = capture(&program, &cfg, &input.sampling, full.insts)
            .expect("workloads emulate cleanly");
        for kind in sampled_kinds() {
            let mut core_cfg = cfg.clone();
            core_cfg.train_point = kind.train_point();
            let runs: Vec<_> = set
                .windows_to_run()
                .into_iter()
                .map(|j| {
                    run_window(
                        &program,
                        &core_cfg,
                        kind.build(&program, full.insts).as_mut(),
                        &set,
                        j,
                    )
                })
                .collect();
            let stats = sum_window_stats_weighted(&runs, &set.run_weights());
            pins.set("sampled", w.name, &kind.label(), Pin::of(&stats));
        }
    }
    pins
}
