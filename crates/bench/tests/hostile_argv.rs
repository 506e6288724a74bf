//! The `main`s of the three `spf_bench::cli` binaries, pinned through the
//! built binaries for what the parser fuzz (`tests/cli_fuzz.rs`) cannot
//! see: that a rejection and a failed artifact write really are exit 1,
//! with a message, never a panic and never a pass.

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
            env!("CARGO_BIN_EXE_figures"),
            &["tiny", "db", "--verify-serial"],
            "unknown flag \"--verify-serial\"",
        ),
        (
            env!("CARGO_BIN_EXE_spf-lint"),
            &["tiny", "--provenance"],
            "unknown flag \"--provenance\"",
        ),
        (
            env!("CARGO_BIN_EXE_spf-serve"),
            &["--tenats", "3"],
            "unknown flag \"--tenats\"",
        ),
        (
            env!("CARGO_BIN_EXE_spf-serve"),
            &[
                "--tenants",
                "1",
                "--requests",
                "3",
                "--mean-interarrival",
                "18446744073709551615",
                "--out",
                "-",
            ],
            "--mean-interarrival 18446744073709551615 overflows the arrival clock",
        ),
        (
            env!("CARGO_BIN_EXE_spf-serve"),
            &["--jobs", "4"],
            "unknown flag \"--jobs\"",
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
    let args = ["--tenants", "1", "--requests", "1"];
    let exe = env!("CARGO_BIN_EXE_spf-serve");
    let (code, err) = run(exe, &[&args[..], &["--out", "/proc/nope/s.json"]].concat());
    assert_eq!(code, Some(1), "{err}");
    assert!(err.contains("could not write /proc/nope/s.json"), "{err}");
    let (code, err) = run(exe, &[&args[..], &["--out", "-"]].concat());
    assert_eq!(code, Some(0), "{err}");
}
