//! `phast-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one benchmark workload and prints, as the last line of standard
//! output, `{"correct", "attempted", "failed", "metrics"}`: the six
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Human-readable detail goes to standard error.
//! `--print-pins` regenerates `pins.txt` instead. See README.md.

use phast_benchmark::e2e::{self, WORKLOADS};
use phast_benchmark::pins::Pins;
use phast_benchmark::stats::result_line;
use phast_benchmark::traced;
use std::path::{Path, PathBuf};

/// Everything the benchmark writes lives here, inside the checkout.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "error: {msg}\nusage: phast-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n\
         \x20      phast-benchmark --print-pins",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        argv.iter().position(|a| a == flag).map(|i| {
            argv.get(i + 1)
                .map_or_else(|| usage(&format!("{flag} needs a value")), String::as_str)
        })
    };
    let workload = value("--workload")
        .unwrap_or_else(|| usage("--workload is required"))
        .to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload '{workload}'"));
    }
    let seed = value("--seed")
        .map_or(Ok(1), str::parse)
        .unwrap_or_else(|_| usage("--seed takes an integer"));
    let seconds = value("--seconds")
        .map_or(Ok(10.0), str::parse::<f64>)
        .ok()
        .filter(|s| s.is_finite() && *s > 0.0)
        .unwrap_or_else(|| usage("--seconds takes a positive number"));
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        _ => usage("--trace takes 0 or 1"),
    };
    Args {
        workload,
        seed,
        seconds,
        trace,
    }
}

fn main() {
    if std::env::args().any(|a| a == "--print-pins") {
        print!("{}", traced::compute_pins().render());
        return;
    }
    let args = parse_args();
    let work = PathBuf::from(OUT_DIR).join(format!("work-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("error: {}: {e}", work.display());
        std::process::exit(1);
    }
    // Artifacts record `git describe`; pointing git at a directory that is
    // not a repository makes that call fail fast and identically wherever
    // the checkout lives.
    std::env::set_var("GIT_DIR", Path::new(OUT_DIR).join("no-git"));
    let pins = Pins::builtin();
    let line = if args.trace {
        run_traced(&args, &work, &pins)
    } else {
        let m = match args.workload.as_str() {
            "fig15_quick" => e2e::run_fig15_quick(args.seed, args.seconds, &work, &pins),
            "sampled_phase" => e2e::run_sampled_phase(args.seed, args.seconds, &work, &pins),
            _ => e2e::run_serve_bench(args.seed, args.seconds, &work, &pins),
        };
        let metrics = m.metrics();
        eprintln!(
            "{} seed {}: {} timed sweep(s), {} timed cell(s), {} of {} cell(s) failed",
            args.workload,
            args.seed,
            m.sweep_ms.len(),
            m.cell_ms.len(),
            m.failures.len(),
            m.attempted
        );
        for metric in &metrics {
            eprintln!(
                "  {:<14} {:>12.4} {}",
                metric.name, metric.value, metric.unit
            );
        }
        for note in &m.notes {
            eprintln!("  {note}");
        }
        report_failures(&m.failures);
        result_line(m.attempted, m.failures.len() as u64, &metrics)
    };
    let _ = std::fs::remove_dir_all(&work);
    println!("{line}");
}

fn run_traced(args: &Args, work: &Path, pins: &Pins) -> String {
    let daemon_dir = work.join("daemon");
    let daemon = std::fs::create_dir_all(&daemon_dir)
        .map_err(|e| e.to_string())
        .and_then(|()| e2e::start_daemon(&daemon_dir));
    let mut daemon = match daemon {
        Ok(d) => d,
        Err(e) => {
            report_failures(&[e]);
            return result_line(1, 1, &[]);
        }
    };
    let run = traced::run_traced(args.seed, args.seconds, work, pins, &mut daemon);
    let code = daemon.stop();
    let mut failures = run.failures;
    if code != 0 {
        failures.push(format!("daemon exited {code}"));
    }
    eprint!("{}", run.table);
    let spans = Path::new(OUT_DIR).join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    match run.tracer.write(&spans) {
        Ok(()) => eprintln!("spans written to {}", spans.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", spans.display()),
    }
    for m in &run.metrics {
        eprintln!("  {:<28} {:>14.4} {}", m.name, m.value, m.unit);
    }
    report_failures(&failures);
    result_line(run.attempted, failures.len() as u64, &run.metrics)
}

fn report_failures(failures: &[String]) {
    for f in failures.iter().take(20) {
        eprintln!("FAILED: {f}");
    }
    if failures.len() > 20 {
        eprintln!("... and {} more failure(s)", failures.len() - 20);
    }
}
