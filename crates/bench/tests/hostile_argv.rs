//! `bench_diff` and `host_check` take two paths; their argument handling
//! sits in `main`, so it is pinned through the built binaries: a hostile
//! command line is exit 1 with a message, never a panic and never a pass.
//! The `main`s of the three `spf_bench::cli` binaries get the same
//! treatment for what the parser fuzz (`tests/cli_fuzz.rs`) cannot see:
//! that a rejection and a failed artifact write really are exit 1.

use std::process::Command;

/// Runs `exe` with `args`; returns the exit code and stderr.
fn run(exe: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(exe).args(args).output().expect("binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn bench_diff_rejects_hostile_command_lines() {
    let exe = env!("CARGO_BIN_EXE_bench_diff");
    for (args, says) in [
        (&[][..], "usage: bench_diff"),
        (&["a.json", "b.json", "c.json"], "usage: bench_diff"),
        (&["--threshold", "2"], "bench_diff: --threshold: "),
    ] {
        let (code, err) = run(exe, args);
        assert_eq!(code, Some(1), "{args:?}: {err}");
        assert!(err.contains(says), "{args:?}: {err}");
    }
}

#[test]
fn host_check_rejects_hostile_command_lines() {
    let exe = env!("CARGO_BIN_EXE_host_check");
    for (args, says) in [
        (&["only-one.json"][..], "usage: host_check"),
        (
            &["a.json", "b.json", "--threshold"],
            "--threshold needs a number",
        ),
        (
            &["a.json", "b.json", "--threshold", "-"],
            "--threshold needs a number",
        ),
        (
            &["--thresold", "2", "a.json", "b.json"],
            "usage: host_check",
        ),
        (&["/proc/nope/a.json", ""], "/proc/nope/a.json"),
    ] {
        let (code, err) = run(exe, args);
        assert_eq!(code, Some(1), "{args:?}: {err}");
        assert!(err.contains(says), "{args:?}: {err}");
    }
}

#[test]
fn a_typo_is_exit_1_in_every_cli_binary() {
    for (exe, args, says) in [
        (
            env!("CARGO_BIN_EXE_figures"),
            &["tiny", "db", "--matrix-out", "-", "--trace-outt", "x"][..],
            "unknown flag \"--trace-outt\"",
        ),
        (
            env!("CARGO_BIN_EXE_figures"),
            &["tiny", "db", "extra"],
            "unexpected argument \"extra\"",
        ),
        (
            env!("CARGO_BIN_EXE_spf-lint"),
            &["tiny", "--provnance"],
            "unknown flag \"--provnance\"",
        ),
        (
            env!("CARGO_BIN_EXE_spf-serve"),
            &["--tenats", "3"],
            "unknown flag \"--tenats\"",
        ),
    ] {
        let (code, err) = run(exe, args);
        assert_eq!(code, Some(1), "{args:?}: {err}");
        assert!(
            err.contains(says) && err.contains("usage: "),
            "{args:?}: {err}"
        );
    }
}

#[test]
fn an_artifact_that_cannot_be_written_is_exit_1() {
    // One tenant, one request: the smallest run that reaches the writer.
    let args = ["--tenants", "1", "--requests", "1", "--jobs", "1"];
    let exe = env!("CARGO_BIN_EXE_spf-serve");
    let (code, err) = run(exe, &[&args[..], &["--out", "/proc/nope/s.json"]].concat());
    assert_eq!(code, Some(1), "{err}");
    assert!(err.contains("could not write /proc/nope/s.json"), "{err}");
    let (code, err) = run(exe, &[&args[..], &["--out", "-"]].concat());
    assert_eq!(code, Some(0), "{err}");
}
