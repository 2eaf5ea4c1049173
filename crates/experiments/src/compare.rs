//! Before/after timing of two sweep artifacts that simulated the same
//! thing (`phast-experiments --compare A.json B.json`).
//!
//! A performance change is only a performance change if every simulated
//! statistic stays put. [`compare_files`] therefore checks both digests,
//! then refuses the pair unless the two artifacts hold the same runs in
//! the same order with identical `cycles` and `committed`. Only then does
//! it report host-time deltas: summed `wall_s` and aggregate MIPS per
//! predictor, and the artifact-level `simulated_mips`.

use crate::artifact::{ArtifactError, JsonValue, RunRecord, SweepArtifact};
use crate::jsonio;
use crate::tablefmt::TextTable;
use std::path::{Path, PathBuf};

/// Why two artifacts cannot be compared. Every variant is an integrity
/// failure (exit code 3).
#[derive(Debug)]
pub enum CompareError {
    /// An artifact is unreadable or fails its sealed digest.
    Artifact {
        /// The offending file.
        path: PathBuf,
        /// What failed.
        error: ArtifactError,
    },
    /// An artifact's digest holds but its runs do not parse.
    Malformed {
        /// The offending file.
        path: PathBuf,
        /// The first missing or mistyped field.
        reason: String,
    },
    /// The artifacts do not hold the same runs in the same order.
    RunSetDiffers {
        /// The first differing position, or the run counts.
        detail: String,
    },
    /// A run's simulated result differs between the artifacts.
    StatsDiffer {
        /// Position of the run in matrix order.
        index: usize,
        /// Its workload.
        workload: String,
        /// Its predictor label.
        predictor: String,
        /// `cycles` or `committed`.
        field: &'static str,
        /// The value in the first artifact.
        before: u64,
        /// The value in the second artifact.
        after: u64,
    },
}

impl std::fmt::Display for CompareError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompareError::Artifact { path, error } => write!(f, "{}: {error}", path.display()),
            CompareError::Malformed { path, reason } => {
                write!(f, "{}: malformed run record: {reason}", path.display())
            }
            CompareError::RunSetDiffers { detail } => write!(f, "run sets differ: {detail}"),
            CompareError::StatsDiffer { index, workload, predictor, field, before, after } => {
                write!(f, "run {index} ({workload} / {predictor}): {field} {before} != {after}")
            }
        }
    }
}

impl std::error::Error for CompareError {}

/// One predictor's summed timing in both artifacts.
#[derive(Debug)]
struct PredictorRow {
    predictor: String,
    runs: usize,
    committed: u64,
    wall_before: f64,
    wall_after: f64,
}

/// Two artifacts with identical simulated results, ready to report.
#[derive(Debug)]
pub struct Comparison {
    runs: usize,
    rows: Vec<PredictorRow>,
    mips_before: f64,
    mips_after: f64,
}

/// The runs and recorded `simulated_mips` of a verified artifact.
fn load(path: &Path) -> Result<(Vec<RunRecord>, f64), CompareError> {
    let artifact_error = |error| CompareError::Artifact { path: path.to_path_buf(), error };
    let text = std::fs::read_to_string(path)
        .map_err(|e| artifact_error(ArtifactError::Io(format!("{}: {e}", path.display()))))?;
    SweepArtifact::verify_json(&text).map_err(artifact_error)?;
    let malformed = |reason: String| CompareError::Malformed { path: path.to_path_buf(), reason };
    let doc = jsonio::parse(&text).map_err(|e| malformed(e.to_string()))?;
    let runs = doc
        .get("runs")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| malformed("missing 'runs'".to_string()))?
        .iter()
        .map(RunRecord::from_json)
        .collect::<Result<Vec<_>, _>>()
        .map_err(malformed)?;
    let mips = doc
        .get("simulated_mips")
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| malformed("missing 'simulated_mips'".to_string()))?;
    Ok((runs, mips))
}

/// Compares two `BENCH_<id>.json` artifacts, `before` first.
///
/// # Errors
///
/// A [`CompareError`] naming the first failed digest, differing run or
/// differing simulated count.
pub fn compare_files(before: &Path, after: &Path) -> Result<Comparison, CompareError> {
    let (a, mips_before) = load(before)?;
    let (b, mips_after) = load(after)?;
    if a.len() != b.len() {
        return Err(CompareError::RunSetDiffers {
            detail: format!("{} runs before, {} after", a.len(), b.len()),
        });
    }
    let mut rows: Vec<PredictorRow> = Vec::new();
    for (index, (x, y)) in a.iter().zip(&b).enumerate() {
        if (&x.workload, &x.predictor) != (&y.workload, &y.predictor) {
            return Err(CompareError::RunSetDiffers {
                detail: format!(
                    "run {index} is {} / {} before but {} / {} after",
                    x.workload, x.predictor, y.workload, y.predictor
                ),
            });
        }
        for (field, before, after) in
            [("cycles", x.cycles, y.cycles), ("committed", x.committed, y.committed)]
        {
            if before != after {
                return Err(CompareError::StatsDiffer {
                    index,
                    workload: x.workload.clone(),
                    predictor: x.predictor.clone(),
                    field,
                    before,
                    after,
                });
            }
        }
        let row = match rows.iter().position(|r| r.predictor == x.predictor) {
            Some(i) => &mut rows[i],
            None => {
                rows.push(PredictorRow {
                    predictor: x.predictor.clone(),
                    runs: 0,
                    committed: 0,
                    wall_before: 0.0,
                    wall_after: 0.0,
                });
                rows.last_mut().expect("just pushed")
            }
        };
        row.runs += 1;
        row.committed += x.committed;
        row.wall_before += x.wall_s;
        row.wall_after += y.wall_s;
    }
    Ok(Comparison { runs: a.len(), rows, mips_before, mips_after })
}

/// `after / before`, or `-` when `before` is zero.
fn ratio(before: f64, after: f64) -> String {
    if before > 0.0 {
        format!("{:.3}", after / before)
    } else {
        "-".to_string()
    }
}

/// Committed mega-instructions per summed host second.
fn mips(committed: u64, wall_s: f64) -> f64 {
    if wall_s > 0.0 {
        committed as f64 / wall_s / 1e6
    } else {
        0.0
    }
}

impl Comparison {
    /// The report: one row per predictor (first-appearance order) plus a
    /// total, then the artifact-level `simulated_mips`.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "predictor",
            "runs",
            "wall_s before",
            "wall_s after",
            "ratio",
            "MIPS before",
            "MIPS after",
            "ratio",
        ]);
        let total = PredictorRow {
            predictor: "total".to_string(),
            runs: self.runs,
            committed: self.rows.iter().map(|r| r.committed).sum(),
            wall_before: self.rows.iter().map(|r| r.wall_before).sum(),
            wall_after: self.rows.iter().map(|r| r.wall_after).sum(),
        };
        for r in self.rows.iter().chain(std::iter::once(&total)) {
            let (mb, ma) = (mips(r.committed, r.wall_before), mips(r.committed, r.wall_after));
            t.row(vec![
                r.predictor.clone(),
                r.runs.to_string(),
                format!("{:.4}", r.wall_before),
                format!("{:.4}", r.wall_after),
                ratio(r.wall_before, r.wall_after),
                format!("{mb:.2}"),
                format!("{ma:.2}"),
                ratio(mb, ma),
            ]);
        }
        format!(
            "{} runs, cycles and committed identical\n{t}simulated_mips: {:.3} -> {:.3} (ratio {})\n",
            self.runs,
            self.mips_before,
            self.mips_after,
            ratio(self.mips_before, self.mips_after)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(workload: &str, predictor: &str, cycles: u64, wall_s: f64) -> RunRecord {
        RunRecord {
            workload: workload.to_string(),
            predictor: predictor.to_string(),
            ipc: 1000.0 / cycles as f64,
            violation_mpki: 0.5,
            false_dep_mpki: 0.25,
            cycles,
            committed: 1000,
            num_paths: 0,
            wall_s,
            mips: 1000.0 / wall_s / 1e6,
            attempts: 1,
            degraded: None,
            sampling: None,
            workload_signature: "sig".to_string(),
        }
    }

    fn artifact(runs: Vec<RunRecord>) -> SweepArtifact {
        SweepArtifact {
            id: "cmp".to_string(),
            git: "test".to_string(),
            workers: 1,
            budget_insts: 1000,
            budget_iters: 1,
            workloads: 2,
            wall_s: 1.0,
            runs,
            degraded: Vec::new(),
        }
    }

    fn write(dir: &Path, name: &str, a: &SweepArtifact) -> PathBuf {
        let path = dir.join(name);
        std::fs::write(&path, a.to_json()).unwrap();
        path
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("phast-compare-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn grid(cycles: [u64; 4], wall: f64) -> SweepArtifact {
        artifact(vec![
            run("mcf", "phast", cycles[0], wall),
            run("mcf", "nosq", cycles[1], wall),
            run("lbm", "phast", cycles[2], wall),
            run("lbm", "nosq", cycles[3], wall),
        ])
    }

    #[test]
    fn identical_stats_are_accepted_and_timed_per_predictor() {
        let dir = scratch_dir("ok");
        let before = write(&dir, "before.json", &grid([900, 950, 700, 800], 0.002));
        let after = write(&dir, "after.json", &grid([900, 950, 700, 800], 0.001));
        let report = compare_files(&before, &after).expect("same simulated results").render();
        assert!(report.contains("4 runs, cycles and committed identical"), "{report}");
        let phast = report.lines().find(|l| l.starts_with("phast")).expect("phast row");
        assert!(phast.contains("0.0040") && phast.contains("0.0020"), "{phast}");
        assert!(phast.contains("0.500") && phast.contains("2.000"), "{phast}");
        assert!(report.lines().any(|l| l.starts_with("total")), "{report}");
        assert!(report.contains("simulated_mips: 0.500 -> 1.000 (ratio 2.000)"), "{report}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_doctored_cycle_count_is_refused() {
        let dir = scratch_dir("cycles");
        let before = write(&dir, "before.json", &grid([900, 950, 700, 800], 0.002));
        // Resealed with a valid digest: only the cross-check can catch it.
        let after = write(&dir, "after.json", &grid([900, 950, 701, 800], 0.001));
        let err = compare_files(&before, &after).unwrap_err();
        assert_eq!(
            err.to_string(),
            "run 2 (lbm / phast): cycles 700 != 701",
            "names the first differing run"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn differing_run_sets_and_broken_digests_are_refused() {
        let dir = scratch_dir("sets");
        let before = write(&dir, "before.json", &grid([900, 950, 700, 800], 0.002));
        let mut fewer = grid([900, 950, 700, 800], 0.002);
        fewer.runs.pop();
        let short = write(&dir, "short.json", &fewer);
        assert!(matches!(
            compare_files(&before, &short),
            Err(CompareError::RunSetDiffers { .. })
        ));
        let mut swapped = grid([900, 950, 700, 800], 0.002);
        swapped.runs.swap(0, 1);
        let swapped = write(&dir, "swapped.json", &swapped);
        let err = compare_files(&before, &swapped).unwrap_err();
        assert!(err.to_string().contains("run 0 is mcf / phast before but mcf / nosq"), "{err}");
        let text = std::fs::read_to_string(&before).unwrap().replace("\"cycles\": 900", "\"cycles\": 9");
        let tampered = dir.join("tampered.json");
        std::fs::write(&tampered, text).unwrap();
        assert!(matches!(
            compare_files(&tampered, &before),
            Err(CompareError::Artifact { error: ArtifactError::DigestMismatch { .. }, .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
