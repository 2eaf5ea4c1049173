//! Pinned simulated results: the benchmark's correctness reference.
//!
//! `pins.txt` holds, per tier and (workload, predictor) cell, the five
//! public `SimStats` fields a timing-only change must leave untouched.
//! Only these fields are pinned so that new counters elsewhere in
//! `SimStats` do not break the pin. Tiers:
//!
//! * `quick` — the 36 built-in cells of the quick fig15 grid;
//! * `bench` — the 12 cells of the `bench` tier `serve_bench` submits;
//! * `sampled` — the 12 phase-sampled estimates of `sampled_phase`
//!   (cluster-weighted window sums);
//! * `full1m` — full-detail runs of the same 12 cells over the whole
//!   1M-instruction horizon: the reference the sampled IPC is held to.

use phast_experiments::artifact::RunRecord;
use phast_experiments::jsonio;
use phast_ooo::SimStats;
use std::collections::BTreeMap;

/// The pin file compiled into the benchmark.
pub const PINS_TXT: &str = include_str!("../pins.txt");

/// The pinned fields of one cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pin {
    /// Simulated cycles.
    pub cycles: u64,
    /// Committed instructions.
    pub committed: u64,
    /// Memory-order violations.
    pub violations: u64,
    /// False dependences.
    pub false_deps: u64,
    /// Conditional branch mispredictions.
    pub branch_mispredicts: u64,
}

impl Pin {
    /// The pinned fields of `stats`.
    pub fn of(stats: &SimStats) -> Pin {
        Pin {
            cycles: stats.cycles,
            committed: stats.committed,
            violations: stats.violations,
            false_deps: stats.false_dependences,
            branch_mispredicts: stats.branch_mispredicts,
        }
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Compares all five fields.
    pub fn check(&self, got: &Pin) -> Result<(), String> {
        if got == self {
            Ok(())
        } else {
            Err(format!("got {got:?}, pinned {self:?}"))
        }
    }
}

/// One artifact row, as written to disk or fetched from the daemon. The
/// row carries violations and false dependences only as MPKI, from which
/// the counts are recovered exactly; it carries no branch count.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Predictor label.
    pub predictor: String,
    /// Simulated cycles.
    pub cycles: u64,
    /// Committed instructions.
    pub committed: u64,
    /// Violations recovered from `violation_mpki`.
    pub violations: u64,
    /// False dependences recovered from `false_dep_mpki`.
    pub false_deps: u64,
    /// Host seconds the cell took.
    pub wall_s: f64,
    /// The degradation message, if the cell failed.
    pub degraded: Option<String>,
}

fn per_kilo_inverse(mpki: f64, committed: u64) -> u64 {
    (mpki * committed as f64 / 1000.0).round() as u64
}

impl Row {
    /// The row of an in-process artifact.
    pub fn from_record(r: &RunRecord) -> Row {
        Row {
            workload: r.workload.clone(),
            predictor: r.predictor.clone(),
            cycles: r.cycles,
            committed: r.committed,
            violations: per_kilo_inverse(r.violation_mpki, r.committed),
            false_deps: per_kilo_inverse(r.false_dep_mpki, r.committed),
            wall_s: r.wall_s,
            degraded: r.degraded.clone(),
        }
    }

    /// The rows of a rendered `BENCH_*.json` artifact.
    ///
    /// # Errors
    ///
    /// A description of the first malformed field.
    pub fn parse_artifact(body: &str) -> Result<Vec<Row>, String> {
        let doc = jsonio::parse(body).map_err(|e| format!("artifact does not parse: {e:?}"))?;
        let runs = doc
            .get("runs")
            .and_then(|r| r.as_array())
            .ok_or("artifact has no runs")?;
        runs.iter()
            .map(|r| {
                let s = |k: &str| r.get(k).and_then(|v| v.as_str()).map(str::to_string);
                let u = |k: &str| {
                    r.get(k)
                        .and_then(|v| v.as_u64())
                        .ok_or(format!("row lacks {k}"))
                };
                let f = |k: &str| {
                    r.get(k)
                        .and_then(|v| v.as_f64())
                        .ok_or(format!("row lacks {k}"))
                };
                let committed = u("committed")?;
                Ok(Row {
                    workload: s("workload").ok_or("row lacks workload")?,
                    predictor: s("predictor").ok_or("row lacks predictor")?,
                    cycles: u("cycles")?,
                    committed,
                    violations: per_kilo_inverse(f("violation_mpki")?, committed),
                    false_deps: per_kilo_inverse(f("false_dep_mpki")?, committed),
                    wall_s: f("wall_s")?,
                    degraded: s("degraded"),
                })
            })
            .collect()
    }
}

/// The pin table: `(tier, workload, predictor) → Pin`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Pins {
    map: BTreeMap<(String, String, String), Pin>,
}

impl Pins {
    /// The pins compiled into the benchmark.
    pub fn builtin() -> Pins {
        Pins::parse(PINS_TXT).expect("pins.txt is well formed")
    }

    /// Parses the pin file format: `#` comments, then one line per cell,
    /// `tier workload predictor cycles committed violations false_deps
    /// branch_mispredicts`.
    ///
    /// # Errors
    ///
    /// The first malformed line.
    pub fn parse(text: &str) -> Result<Pins, String> {
        let mut pins = Pins::default();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            let nums: Result<Vec<u64>, _> = f.iter().skip(3).map(|x| x.parse::<u64>()).collect();
            match (f.len(), nums) {
                (8, Ok(v)) => pins.set(
                    f[0],
                    f[1],
                    f[2],
                    Pin {
                        cycles: v[0],
                        committed: v[1],
                        violations: v[2],
                        false_deps: v[3],
                        branch_mispredicts: v[4],
                    },
                ),
                _ => return Err(format!("pins line {}: '{line}'", n + 1)),
            }
        }
        Ok(pins)
    }

    /// Renders the table in the format [`Pins::parse`] reads.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# tier workload predictor cycles committed violations false_deps branch_mispredicts\n",
        );
        for ((tier, w, p), pin) in &self.map {
            out.push_str(&format!(
                "{tier} {w} {p} {} {} {} {} {}\n",
                pin.cycles, pin.committed, pin.violations, pin.false_deps, pin.branch_mispredicts
            ));
        }
        out
    }

    /// Sets one pin.
    pub fn set(&mut self, tier: &str, workload: &str, predictor: &str, pin: Pin) {
        self.map.insert(
            (
                tier.to_string(),
                workload.to_string(),
                predictor.to_string(),
            ),
            pin,
        );
    }

    /// Looks one pin up.
    pub fn get(&self, tier: &str, workload: &str, predictor: &str) -> Option<Pin> {
        self.map
            .get(&(
                tier.to_string(),
                workload.to_string(),
                predictor.to_string(),
            ))
            .copied()
    }

    fn require(&self, tier: &str, workload: &str, predictor: &str) -> Result<Pin, String> {
        self.get(tier, workload, predictor)
            .ok_or_else(|| format!("no {tier} pin for {workload} × {predictor}"))
    }

    /// Checks a cell's full statistics against its pin.
    ///
    /// # Errors
    ///
    /// Which cell differs and how.
    pub fn check_stats(
        &self,
        tier: &str,
        workload: &str,
        predictor: &str,
        stats: &SimStats,
    ) -> Result<(), String> {
        self.require(tier, workload, predictor)?
            .check(&Pin::of(stats))
            .map_err(|e| format!("{tier} {workload} × {predictor}: {e}"))
    }

    /// Checks an artifact row against its pin (all fields but the branch
    /// count, which rows do not carry).
    ///
    /// # Errors
    ///
    /// Which cell differs and how, or the row's degradation.
    pub fn check_row(&self, tier: &str, row: &Row) -> Result<(), String> {
        let pin = self.require(tier, &row.workload, &row.predictor)?;
        check_row_against(&pin, row).map_err(|e| format!("{tier} {e}"))
    }
}

/// Checks `row` against `pin` (branch count excluded) and that it did not
/// degrade.
///
/// # Errors
///
/// Which cell differs and how.
pub fn check_row_against(pin: &Pin, row: &Row) -> Result<(), String> {
    if let Some(d) = &row.degraded {
        return Err(format!(
            "{} × {} degraded: {d}",
            row.workload, row.predictor
        ));
    }
    let got = Pin {
        cycles: row.cycles,
        committed: row.committed,
        violations: row.violations,
        false_deps: row.false_deps,
        branch_mispredicts: pin.branch_mispredicts,
    };
    pin.check(&got)
        .map_err(|e| format!("{} × {}: {e}", row.workload, row.predictor))
}
