//! `bench_diff` and `host_check` take two paths; their argument handling
//! sits in `main`, so it is pinned through the built binaries: a hostile
//! command line is exit 1 with a message, never a panic and never a pass.
//! `bench_diff`'s verdict is pinned the same way: it names the member that
//! drifted, and counts the baseline cells the new sweep lacks.
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

/// A sweep of one or two cells; `first` is the first cell's `loop_repatches`
/// and both of its host clocks.
fn two_cells(first: u64, second_cell: bool) -> String {
    let cell = |mode: &str, n: u64| {
        format!(
            "    {{\"name\": \"db\", \"mode\": \"{mode}\", \"processor\": \"Pentium 4\", \
             \"best_cycles\": 100, \"retired\": 10, \"wall_nanos\": {n}, \"host_wall_ns\": {n}, \
             \"deopts\": 0, \"recompiles\": 0, \"loop_deopts\": 3, \"loop_repatches\": {n}, \
             \"reagreed\": 0, \"inspection_cycles\": 0, \"static_sites\": 0, \"checksum\": 7}}"
        )
    };
    let mut cells = vec![cell("ADAPTIVE", first)];
    if second_cell {
        cells.push(cell("BASELINE", 3));
    }
    format!(
        "{{\n  \"size\": \"Tiny\",\n  \"jobs\": 1,\n  \"total_wall_nanos\": 9,\n  \"cells\": [\n{}\n  ]\n}}\n",
        cells.join(",\n")
    )
}

/// Runs `bench_diff` over two sweep texts; returns the exit code and stdout.
fn diff(tag: &str, old: &str, new: &str) -> (Option<i32>, String) {
    let dir = std::env::temp_dir();
    let paths = ["old", "new"].map(|side| {
        dir.join(format!(
            "bench_diff_{}_{tag}_{side}.json",
            std::process::id()
        ))
    });
    std::fs::write(&paths[0], old).expect("old written");
    std::fs::write(&paths[1], new).expect("new written");
    let out = Command::new(env!("CARGO_BIN_EXE_bench_diff"))
        .args(&paths)
        .output()
        .expect("binary runs");
    for path in &paths {
        let _ = std::fs::remove_file(path);
    }
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn bench_diff_names_the_member_that_drifted_and_no_other() {
    // The edit moves one counter and both host clocks of one cell; the
    // clocks are host noise and must not be reported.
    let (code, out) = diff("drift", &two_cells(3, true), &two_cells(4, true));
    assert_eq!(code, Some(1), "{out}");
    let members: Vec<&str> = out.lines().filter(|l| l.starts_with("  ")).collect();
    assert_eq!(members, ["  loop_repatches: 3 -> 4"], "{out}");
    assert!(out.contains("1 cell(s) DRIFTED"), "{out}");
    assert!(out.contains("0 cell(s) of OLD absent from NEW"), "{out}");

    let (code, out) = diff("same", &two_cells(3, true), &two_cells(3, true));
    assert_eq!(code, Some(0), "{out}");
    assert!(!out.contains("DRIFT"), "{out}");
}

#[test]
fn bench_diff_says_which_baseline_cells_it_did_not_compare() {
    // A filtered sweep against the full baseline is a supported use:
    // exit 0, but the skipped cell is counted.
    let (code, out) = diff("absent", &two_cells(3, true), &two_cells(3, false));
    assert_eq!(code, Some(0), "{out}");
    assert!(out.contains("total: 1 cells"), "{out}");
    assert!(out.contains("1 cell(s) of OLD absent from NEW"), "{out}");
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
