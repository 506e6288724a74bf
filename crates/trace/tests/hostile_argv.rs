//! `spf-trace-report`'s argument handling sits in `main`, so it is pinned
//! through the built binary: a hostile command line is exit 1 with a
//! message, never a panic and never a pass.

use std::process::Command;

#[test]
fn spf_trace_report_rejects_hostile_command_lines() {
    let exe = env!("CARGO_BIN_EXE_spf-trace-report");
    for (args, says) in [
        (&[][..], "usage: spf-trace-report"),
        (
            &["a.jsonl", "b.jsonl", "c.jsonl"],
            "usage: spf-trace-report",
        ),
        (&["deopt-summary"], "deopt-summary: "),
        (
            &["deopt-summary", "/proc/nope/d.jsonl"],
            "/proc/nope/d.jsonl",
        ),
        // Two files was the deleted diff mode: now a usage error.
        (&["--help", ""], "usage: spf-trace-report"),
        (&["/proc/nope/s.jsonl"], "/proc/nope/s.jsonl"),
    ] {
        let out = Command::new(exe).args(args).output().expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(err.contains(says), "{args:?}: {err}");
    }
}
