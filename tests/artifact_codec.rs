//! Every artifact format goes through one codec (`trace::json`); these
//! tests pin what that buys, end to end through the public readers:
//! hostile strings round-trip in all four record types, out-of-range
//! numbers are rejected instead of narrowed, no mutation of an emitted
//! file makes a reader panic, a document cut at a line boundary is an
//! error, and every committed artifact still parses.

use stride_prefetch::bench::matrix::CellResult;
use stride_prefetch::bench::{matrix_json, Measurement};
use stride_prefetch::prefetch::PrefetchMode;
use stride_prefetch::serve::{report, ChaosRow, ModeReport, ServeSummary};
use stride_prefetch::trace::deopt::{self, DeoptRow};
use stride_prefetch::trace::export::events_jsonl;
use stride_prefetch::trace::summary::{self, SummaryRow};
use stride_prefetch::trace::{json, StaleReason, TraceEvent};
use stride_prefetch::workloads::Size;

use spf_testkit::{cases, Rng};

/// Strings a line scanner gets wrong: quotes, backslashes, text that looks
/// like another field of the record, control characters, non-ASCII.
const HOSTILE: [&str; 6] = [
    "db/\"x\"/P4",
    "a, \"issued\": 7, \"site\": 9, \"best_cycles\": 1, \"p99\": 2, \"method\": 3, ",
    "back\\slash\\",
    "tab\tnewline\nreturn\r\u{1}",
    "é — 😀",
    "}]}, {\"mode\": \"",
];

fn cell(name: &str, processor: &str) -> CellResult {
    CellResult {
        measurement: Measurement {
            name: name.to_string(),
            mode: PrefetchMode::InterIntra,
            processor: processor.to_string(),
            best_cycles: 100,
            retired: 1000,
            mem: Default::default(),
            compiled_fraction: 0.5,
            jit_fraction: 0.1,
            prefetch_pass_fraction: 0.2,
            prefetches_inserted: 3,
            stride_check: Default::default(),
            deopts: 0,
            recompiles: 1,
            loop_deopts: 2,
            loop_repatches: 3,
            reagreed: 4,
            inspection_cycles: 160,
            static_sites: 5,
            checksum: -42,
        },
        wall_nanos: 12_345,
        host_wall_ns: 23_456,
    }
}

fn matrix_text(a: &str, b: &str) -> String {
    matrix_json::emit(&[cell(a, b), cell(b, a)], Size::Tiny, 2, 99_999)
}

fn serve_summary(a: &str, b: &str) -> ServeSummary {
    let mode = |mode: &str| ModeReport {
        mode: mode.to_string(),
        completed: 600,
        p50: 1_000,
        p99: 9_000,
        p999: 20_000,
        max: 30_000,
        mean: 2_000,
        queue_depth_max: 7,
        queue_depth_mean_milli: 1_250,
        compiles: 40,
        evictions: 3,
        deopts: 0,
        recompiles: 2,
        loop_deopts: 4,
        loop_repatches: 3,
        stranded: 1,
        checksum: -12345,
    };
    ServeSummary {
        processor: a.to_string(),
        tenants: 120,
        requests: 600,
        mean_interarrival: 20_000,
        seed: 99,
        slot_cycles: 100_000,
        compile_workers: 2,
        cache_capacity_instrs: 4096,
        modes: vec![mode(a), mode(b)],
        chaos: vec![ChaosRow {
            mode: b.to_string(),
            faults: 6,
            shed: 12,
            retries: 3,
            rearms: 5,
            stranded_final: 0,
            completed: 588,
            p99: 9_500,
            recovery_at: 4_000_000,
            post_requests: 80,
            post_p99_ratio_milli: 1_150,
        }],
    }
}

fn summary_rows(a: &str, b: &str) -> Vec<SummaryRow> {
    let row = |run: &str, method: &str, kind: &str| SummaryRow {
        run: run.to_string(),
        site: 0,
        method: method.to_string(),
        block: 4,
        index: 1,
        loop_header: -1,
        kind: kind.to_string(),
        generation: 1,
        issued: 7,
        useful: 4,
        too_early: 1,
        too_late: 1,
        dropped: 1,
        guarded_issued: 2,
        guarded_tlb_primed: 1,
    };
    vec![row(a, b, "swpf"), row(b, "walk", a)]
}

fn deopt_rows(a: &str, b: &str) -> Vec<DeoptRow> {
    let row = |run: &str, tag: &str, lp: &str, reason: &str| DeoptRow {
        run: run.to_string(),
        tag: tag.to_string(),
        method: 2,
        loop_header: lp.to_string(),
        generation: 1,
        reason: reason.to_string(),
        now: 415_923,
    };
    vec![
        row(a, "loop_invalidated", b, "gc-moved"),
        row(b, "loop_repatched", "7", a),
        row(a, "recompile", "-", "-"),
    ]
}

#[test]
fn hostile_strings_round_trip_in_every_record_type() {
    for (i, a) in HOSTILE.iter().enumerate() {
        let b = HOSTILE[(i + 1) % HOSTILE.len()];

        let cells = matrix_json::parse(&matrix_text(a, b)).expect("matrix");
        assert_eq!(cells.len(), 2);
        assert_eq!(
            (cells[0].name.as_str(), cells[0].processor.as_str()),
            (*a, b)
        );
        assert_eq!(
            (cells[1].name.as_str(), cells[1].processor.as_str()),
            (b, *a)
        );
        assert_eq!(cells[1].mode, "INTER+INTRA");
        assert_eq!((cells[1].best_cycles, cells[1].checksum), (100, -42));

        let serve = serve_summary(a, b);
        assert_eq!(report::parse(&report::emit(&serve)).expect("serve"), serve);

        let rows = summary_rows(a, b);
        assert_eq!(
            summary::parse(&summary::emit(&rows)).expect("summary"),
            rows
        );

        let rows = deopt_rows(a, b);
        assert_eq!(deopt::parse(&deopt::emit(&rows)).expect("deopt"), rows);
    }
}

#[test]
fn out_of_range_numbers_are_rejected_not_narrowed() {
    // 2^32 + 1 used to come back as 1 through `as u32`.
    let text =
        summary::emit(&summary_rows("r", "m")).replace("\"site\": 0", "\"site\": 4294967297");
    assert!(summary::parse(&text).unwrap_err().contains("site"));

    let text =
        deopt::emit(&deopt_rows("r", "7")).replace("\"method\": 2", "\"method\": 4294967297");
    assert!(deopt::parse(&text).unwrap_err().contains("method"));

    let text = report::emit(&serve_summary("p", "m"))
        .replace("\"queue_depth_max\": 7", "\"queue_depth_max\": 4294967297");
    assert!(report::parse(&text)
        .unwrap_err()
        .contains("queue_depth_max"));

    let text = matrix_text("db", "P4").replace("\"checksum\": -42", "\"checksum\": 2147483648");
    assert!(matrix_json::parse(&text).unwrap_err().contains("checksum"));
    let text = matrix_text("db", "P4").replace("\"retired\": 1000", "\"retired\": -1");
    assert!(matrix_json::parse(&text).unwrap_err().contains("retired"));
}

#[test]
fn an_event_dump_reads_back_as_its_adaptive_rows() {
    let events = [
        TraceEvent::JitBegin { method: 2 },
        TraceEvent::LoopInvalidated {
            method: 2,
            loop_header: 4,
            generation: 0,
            reason: StaleReason::UselessRatio,
            now: 100,
        },
        TraceEvent::GuardedIssued {
            site: stride_prefetch::trace::SiteId(0),
            line: 64,
            now: 120,
            tlb_primed: true,
        },
        TraceEvent::LoopRepatched {
            method: 2,
            loop_header: 4,
            generation: 1,
            now: 500,
        },
    ];
    let rows = deopt::parse(&events_jsonl(&events, None)).expect("events dump");
    assert_eq!(rows.len(), 2);
    assert_eq!(
        (rows[0].run.as_str(), rows[0].tag.as_str()),
        ("-", "loop_invalidated")
    );
    assert_eq!(rows[0].reason, "useless-ratio");
    assert_eq!(
        (rows[1].tag.as_str(), rows[1].generation),
        ("loop_repatched", 1)
    );
}

/// Every public `parse` entry point, fed the same text: none may panic.
fn parse_all(text: &str) {
    let _ = matrix_json::parse_with_warnings(text);
    let _ = report::parse(text);
    let _ = summary::parse(text);
    let _ = deopt::parse(text);
}

fn mutate(r: &mut Rng, text: &str) -> String {
    let mut lines: Vec<&str> = text.lines().collect();
    match r.below(4) {
        0 => {
            // Overwrite a few bytes with arbitrary ones (possibly breaking
            // UTF-8, which the lossy conversion turns into U+FFFD).
            let mut bytes = text.as_bytes().to_vec();
            for _ in 0..r.usize_in(1, 4) {
                let at = r.index(bytes.len());
                bytes[at] = r.below(256) as u8;
            }
            return String::from_utf8_lossy(&bytes).into_owned();
        }
        1 => {
            let mut cut = r.index(text.len());
            while !text.is_char_boundary(cut) {
                cut -= 1;
            }
            return text[..cut].to_string();
        }
        2 => {
            let at = r.index(lines.len());
            lines.insert(at, lines[at]);
        }
        _ => {
            lines.remove(r.index(lines.len()));
        }
    }
    lines.join("\n")
}

#[test]
fn mutated_artifacts_never_panic_a_reader() {
    let originals = [
        matrix_text("db", "Pentium 4"),
        report::emit(&serve_summary("Athlon MP", "ADAPTIVE")),
        summary::emit(&summary_rows("db/INTER/Pentium 4", "findInMemory")),
        deopt::emit(&deopt_rows("db/ADAPTIVE/Pentium 4", "27")),
    ];
    for text in &originals {
        parse_all(text);
    }
    cases(512, "artifact mutation", |r| {
        let mut text = r.pick(&originals).clone();
        for _ in 0..r.usize_in(1, 3) {
            text = mutate(r, &text);
            if text.is_empty() {
                break;
            }
            parse_all(&text);
        }
    });
}

#[test]
fn a_document_cut_at_a_line_boundary_is_an_error() {
    let matrix = matrix_text("db", "Pentium 4");
    let serve = report::emit(&serve_summary("Athlon MP", "ADAPTIVE"));
    for (text, lines) in [
        (&matrix, matrix.lines().count()),
        (&serve, serve.lines().count()),
    ] {
        for keep in 0..lines {
            let cut: String = text.lines().take(keep).map(|l| format!("{l}\n")).collect();
            assert!(
                matrix_json::parse(&cut).is_err() && report::parse(&cut).is_err(),
                "a file cut after line {keep} of {lines} parsed"
            );
        }
    }
}

fn committed(name: &str) -> String {
    let path = format!("{}/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn committed_artifacts_parse_through_their_readers() {
    for name in ["BENCH_baseline.json", "HOST_baseline.json"] {
        let (cells, warnings) = matrix_json::parse_with_warnings(&committed(name)).expect(name);
        assert_eq!(cells.len(), 120, "{name}");
        assert!(warnings.is_empty(), "{name}: {warnings:?}");
    }
    let sites = summary::parse(&committed("TRACE_summary.jsonl")).expect("TRACE_summary.jsonl");
    assert_eq!(sites.len(), 67);
    let events = deopt::parse(&committed("DEOPT_events.jsonl")).expect("DEOPT_events.jsonl");
    assert_eq!(events.len(), 10);
    assert!(events.iter().all(|e| e.tag == "loop_invalidated"));
    // The benchmark's own files are plain JSON documents too.
    let manifest = committed("BENCHMARK.json");
    let manifest = json::parse(&manifest).expect("BENCHMARK.json");
    assert_eq!(manifest.arr("workloads").expect("workloads").len(), 4);
    json::parse(&committed("benchmark/baseline.json")).expect("benchmark/baseline.json");
}
