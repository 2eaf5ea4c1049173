//! Mutation tests: each correctness check the benchmark relies on must
//! report failed cells when its input is wrong. Run with
//! `cargo test --release` (the tests drive real sweeps).

use phast_benchmark::e2e::{
    check_fig15, check_sampled, check_served, fig15_input, fig15_sweep, sampled_input,
    sampled_sweep, serve_sweep, served_cells, served_kinds, start_daemon, start_daemon_with,
    synth_reference, SERVE_JOURNAL,
};
use phast_benchmark::pins::{Pin, Pins};
use phast_experiments::Journal;
use std::path::PathBuf;

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn bumped(pin: Pin) -> Pin {
    Pin {
        cycles: pin.cycles + 1,
        ..pin
    }
}

#[test]
fn fig15_check_fires_on_a_corrupted_pin() {
    let dir = scratch("fig15");
    let input = fig15_input(3);
    let (synth_pins, lockstep_failures) = synth_reference(&input);
    assert!(lockstep_failures.is_empty(), "{lockstep_failures:?}");
    let pass = fig15_sweep(&input, &dir).expect("sweep runs");
    let pins = Pins::builtin();
    let (attempted, failures) = check_fig15(&pass, &input, &synth_pins, &pins);
    assert_eq!(attempted, 42);
    assert!(failures.is_empty(), "{failures:?}");

    let mut wrong = pins.clone();
    let w = input.budget.workloads()[0].name;
    wrong.set(
        "quick",
        w,
        "phast",
        bumped(pins.get("quick", w, "phast").expect("pinned")),
    );
    let (_, failures) = check_fig15(&pass, &input, &synth_pins, &wrong);
    assert_eq!(failures.len(), 1, "{failures:?}");

    // The branch count comes from the harness results, not the artifact.
    let mut wrong = pins.clone();
    let pin = pins.get("quick", w, "nosq").expect("pinned");
    wrong.set(
        "quick",
        w,
        "nosq",
        Pin {
            branch_mispredicts: pin.branch_mispredicts + 1,
            ..pin
        },
    );
    let (_, failures) = check_fig15(&pass, &input, &synth_pins, &wrong);
    assert_eq!(failures.len(), 1, "{failures:?}");

    // A synth cell is held to its lockstep-verified run.
    let mut wrong_synth = synth_pins.clone();
    let ideal = wrong_synth.get_mut("ideal").expect("synth ideal verified");
    ideal.committed += 1;
    let (_, failures) = check_fig15(&pass, &input, &wrong_synth, &pins);
    assert_eq!(failures.len(), 1, "{failures:?}");
}

#[test]
fn sampled_check_fires_on_a_corrupted_pin_and_an_out_of_bound_estimate() {
    let dir = scratch("sampled");
    let input = sampled_input(5);
    let pass = sampled_sweep(&input, &dir).expect("sweep runs");
    let pins = Pins::builtin();
    let (attempted, failures, max_err) = check_sampled(&pass, &input, &pins);
    assert_eq!(attempted, 12);
    assert!(failures.is_empty(), "{failures:?}");
    assert!(max_err > 0.0);

    let w = input.budget.workloads()[2].name;
    let mut wrong = pins.clone();
    wrong.set(
        "sampled",
        w,
        "store-sets",
        bumped(pins.get("sampled", w, "store-sets").expect("pinned")),
    );
    assert_eq!(check_sampled(&pass, &input, &wrong).1.len(), 1);

    // A full-detail reference at half the IPC puts the estimate far
    // outside `ipc_error_bound`.
    let mut wrong = pins.clone();
    let full = pins.get("full1m", w, "phast").expect("pinned");
    wrong.set(
        "full1m",
        w,
        "phast",
        Pin {
            cycles: full.cycles * 2,
            ..full
        },
    );
    let failures = check_sampled(&pass, &input, &wrong).1;
    assert_eq!(failures.len(), 1, "{failures:?}");
    assert!(failures[0].contains("exceeds bound"), "{failures:?}");
}

#[test]
fn serve_checks_fire_on_a_corrupted_artifact_and_a_replayed_sweep() {
    let dir = scratch("serve");
    let mut daemon = start_daemon(&dir).expect("daemon starts");
    let kinds = served_kinds(9);
    let pins = Pins::builtin();

    let first = serve_sweep(&mut daemon.client, "mutation-1", &kinds);
    assert!(first.failures.is_empty(), "{:?}", first.failures);
    assert_eq!(first.cells.len(), 12);
    assert!(check_served(&first.body, &kinds, &pins).is_empty());

    // One flipped digit anywhere breaks the sealed digest: every cell fails.
    let at = first.body.find("\"cycles\": ").expect("rows carry cycles") + "\"cycles\": ".len();
    let mut corrupt = first.body.clone();
    let digit = corrupt.as_bytes()[at];
    corrupt.replace_range(at..=at, if digit == b'9' { "1" } else { "9" });
    assert_eq!(
        check_served(&corrupt, &kinds, &pins).len(),
        served_cells(&kinds).len()
    );

    // An intact artifact whose row disagrees with its pin fails that cell.
    let mut wrong = pins.clone();
    let (w, p) = &served_cells(&kinds)[0];
    wrong.set(
        "bench",
        w,
        p,
        bumped(pins.get("bench", w, p).expect("pinned")),
    );
    assert_eq!(check_served(&first.body, &kinds, &wrong).len(), 1);

    // A daemon resumed on the same journal replays a reused id's cells
    // instead of running them: nothing was served, every cell fails.
    assert_eq!(daemon.stop(), 0);
    let journal =
        Journal::resume(&dir.join("journal.jsonl"), SERVE_JOURNAL).expect("journal resumes");
    let mut resumed = start_daemon_with(&dir, journal).expect("daemon restarts");
    let replayed = serve_sweep(&mut resumed.client, "mutation-1", &kinds);
    assert_eq!(
        replayed.failures.len(),
        served_cells(&kinds).len(),
        "{:?}",
        replayed.failures
    );
    assert!(replayed.cells.is_empty());
    assert_eq!(resumed.stop(), 0);
}
