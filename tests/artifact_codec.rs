//! Every artifact format goes through one codec (`trace::json`); these
//! tests pin what that buys, end to end through the public readers:
//! hostile strings round-trip in all four record types, out-of-range
//! numbers are rejected instead of narrowed, no mutation of an emitted
//! file makes a reader panic, a document cut at a line boundary is an
//! error, and every committed artifact still parses. The bytes are pinned
//! too: the committed artifacts re-emit from their parsed rows byte for
//! byte, and the event and serve writers reproduce two goldens written by
//! the hand-aligned format strings they replaced. What `record!` and
//! `events!` derive is checked per declaration: every row reads back what
//! it wrote, exactly the declared defaults are optional, `#[key]` renames
//! in both directions, and a tag is its variant's name in snake case.

use stride_prefetch::bench::matrix::CellResult;
use stride_prefetch::bench::matrix_json::{self, CellSummary};
use stride_prefetch::bench::Measurement;
use stride_prefetch::prefetch::PrefetchMode;
use stride_prefetch::serve::{report, ChaosRow, ModeReport, ServeSummary};
use stride_prefetch::trace::deopt::{self, DeoptRow};
use stride_prefetch::trace::export::events_jsonl;
use stride_prefetch::trace::summary::{self, SummaryRow};
use stride_prefetch::trace::{json, SiteInfo, SiteKind, SiteTable, StaleReason, TraceEvent};
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
    }
}

fn matrix_text(a: &str, b: &str) -> String {
    matrix_json::emit(&[cell(a, b), cell(b, a)], Size::Tiny, 2, 99_999)
}

/// The matrix file is a function of the simulation only: the worker count
/// and the sweep's wall time a caller passes leave no byte behind, so a
/// sweep on any host rewrites the committed `BENCH_baseline.json` exactly.
#[test]
fn the_matrix_file_ignores_the_host_arguments() {
    let cells = [cell("db", "Pentium 4"), cell("Euler", "Athlon MP")];
    let text = matrix_json::emit(&cells, Size::Tiny, 1, 0);
    assert_eq!(text, matrix_json::emit(&cells, Size::Tiny, 8, u128::MAX));
    assert_eq!(matrix_json::parse(&text).expect("round trip").len(), 2);
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
    let _ = matrix_json::parse(text);
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
    let cells = matrix_json::parse(&committed("BENCH_baseline.json")).expect("BENCH_baseline.json");
    assert_eq!(cells.len(), 96);
    let sites = summary::parse(&committed("TRACE_summary.jsonl")).expect("TRACE_summary.jsonl");
    assert_eq!(sites.len(), 44);
    let events = deopt::parse(&committed("DEOPT_events.jsonl")).expect("DEOPT_events.jsonl");
    assert_eq!(events.len(), 5);
    assert!(events.iter().all(|e| e.tag == "loop_invalidated"));
    // `spf-lint`'s rows: where SCEV proves a stride the inspector agrees.
    let disagree = json::lines(&committed("STRIDE_agreement.jsonl"), |row| {
        row.num::<u64>("disagree").map(Some)
    })
    .expect("STRIDE_agreement.jsonl");
    assert_eq!(disagree, [0; 96]);
    // The benchmark's own files are plain JSON documents too.
    let manifest = committed("BENCHMARK.json");
    let manifest = json::parse(&manifest).expect("BENCHMARK.json");
    assert_eq!(manifest.arr("workloads").expect("workloads").len(), 4);
    json::parse(&committed("benchmark/baseline.json")).expect("benchmark/baseline.json");
}

/// One event of every `TraceEvent` variant, in declaration order. Site 0 is
/// the one the golden's `SiteTable` resolves; site 7 stays unresolved.
fn every_event() -> Vec<TraceEvent> {
    use stride_prefetch::trace::{FaultKind, MissLevel, PlannedShape, SiteId, SuppressReason};
    let (site, line, now) = (SiteId(0), 0x1c0, 1_000);
    vec![
        TraceEvent::JitBegin { method: 2 },
        TraceEvent::LdgBuilt {
            loop_header: 4,
            nodes: 5,
            edges: 6,
        },
        TraceEvent::Inspected {
            loop_header: 4,
            iterations: 20,
            steps: u64::MAX,
            inter_patterns: 2,
            intra_patterns: 1,
        },
        TraceEvent::Suppressed {
            block: 4,
            index: 1,
            reason: SuppressReason::StrideTooSmall,
        },
        TraceEvent::Planned {
            block: 4,
            index: 2,
            shape: PlannedShape::IntraStride,
            param: i64::MIN,
        },
        TraceEvent::SiteRegistered {
            site,
            method: 2,
            block: 4,
            index: 3,
            generation: 1,
        },
        TraceEvent::DemandMiss {
            level: MissLevel::Dtlb,
            line,
            now,
            store: true,
        },
        TraceEvent::SwpfIssued { site, line, now },
        TraceEvent::SwpfDropped {
            site: SiteId(7),
            line,
            now,
        },
        TraceEvent::SwpfFill {
            site,
            line,
            now,
            ready_at: 1_200,
        },
        TraceEvent::SwpfRedundant { site, line, now },
        TraceEvent::GuardedIssued {
            site,
            line,
            now,
            tlb_primed: false,
        },
        TraceEvent::GuardedFill {
            site: SiteId::UNKNOWN,
            line,
            now,
            ready_at: 1_200,
        },
        TraceEvent::HwPrefetchFill {
            line,
            now,
            ready_at: 1_200,
        },
        TraceEvent::PrefetchUsed {
            site,
            line,
            now,
            wait: 17,
        },
        TraceEvent::PrefetchEvicted { site, line, now },
        TraceEvent::Recompile {
            method: 2,
            generation: 1,
            now,
        },
        TraceEvent::LoopInvalidated {
            method: 2,
            loop_header: u32::MAX,
            generation: 0,
            reason: StaleReason::GcMoved,
            now,
        },
        TraceEvent::LoopRepatched {
            method: 2,
            loop_header: 4,
            generation: 1,
            now,
        },
        TraceEvent::CompileEnqueued {
            tenant: 3,
            method: 2,
            depth: 9,
            now,
        },
        TraceEvent::CompileInstalled {
            tenant: 3,
            method: 2,
            wait: 800,
            now,
        },
        TraceEvent::CodeCacheEvicted {
            tenant: 3,
            method: 2,
            instrs: 64,
            now,
        },
        TraceEvent::RequestCompleted {
            tenant: 3,
            request: 11,
            latency: 5_000,
            now,
        },
        TraceEvent::FaultInjected {
            kind: FaultKind::CacheSqueeze,
            tenant: u32::MAX,
            now,
            until: 2_000,
        },
        TraceEvent::RequestShed {
            tenant: 3,
            request: 12,
            depth: 8,
            now,
        },
        TraceEvent::CompileRetried {
            tenant: 3,
            method: 2,
            attempt: 1,
            now,
        },
        TraceEvent::GuardRearmed {
            tenant: u32::MAX,
            method: 2,
            generation: 3,
            now,
        },
        TraceEvent::GcSlide {
            now,
            live_bytes: 4_096,
            freed_bytes: 512,
            moved_objects: 31,
        },
    ]
}

/// The variant's name, from its `Debug` rendering.
fn variant_name(ev: &TraceEvent) -> String {
    let debug = format!("{ev:?}");
    debug.split(' ').next().expect("a name").to_string()
}

#[test]
fn committed_artifacts_re_emit_byte_for_byte() {
    let text = committed("TRACE_summary.jsonl");
    let rows = summary::parse(&text).expect("TRACE_summary.jsonl");
    assert_eq!(summary::emit(&rows), text);
    let text = committed("DEOPT_events.jsonl");
    let rows = deopt::parse(&text).expect("DEOPT_events.jsonl");
    assert_eq!(deopt::emit(&rows), text);

    let text = committed("BENCH_baseline.json");
    let cells = matrix_json::parse(&text).expect("BENCH_baseline.json");
    let lines: Vec<&str> = text.lines().filter(|l| l.contains("\"name\"")).collect();
    assert_eq!(lines.len(), cells.len());
    for (line, cell) in lines.iter().zip(&cells) {
        let mut again = String::new();
        cell.write(&mut again);
        assert_eq!(again, line.trim_start().trim_end_matches(','));
    }
}

#[test]
fn the_event_and_serve_writers_match_their_goldens() {
    // Both files were written by the hand-aligned format strings the
    // declared writers replaced; the codec must keep reproducing them.
    let events = every_event();
    let names: std::collections::BTreeSet<String> = events.iter().map(variant_name).collect();
    assert_eq!(names.len(), 28, "one event of every variant");
    let mut sites = SiteTable::new();
    sites.register(SiteInfo::new(
        "find\"In\\Memory",
        2,
        4,
        1,
        Some(4),
        SiteKind::Swpf,
        0,
    ));
    let text = events_jsonl(&events, None) + &events_jsonl(&events, Some(&sites));
    assert_eq!(text, committed("tests/golden/events.jsonl"));
    assert_eq!(
        text.matches("\"at\": \"find\\\"In\\\\Memory@b4.1\"")
            .count(),
        6
    );

    let serve = report::emit(&serve_summary(HOSTILE[0], HOSTILE[2]));
    assert!(serve.contains("\"chaos\": ["));
    assert_eq!(serve, committed("tests/golden/serve_summary.json"));
}

/// A hostile string.
fn text(r: &mut Rng) -> String {
    r.pick(&HOSTILE).to_string()
}

/// An extreme of the integer type, or anything in between.
macro_rules! int {
    ($r:expr, $ty:ty) => {{
        let any = $r.u64() as $ty;
        *$r.pick(&[<$ty>::MIN, <$ty>::MAX, 0, any])
    }};
}

/// `$row` written, parsed as a document, and read back as a `$ty`.
macro_rules! read_back {
    ($ty:ty, $row:expr) => {{
        let mut text = String::new();
        $row.write(&mut text);
        <$ty>::read(&json::parse(&text).expect(&text)).expect(&text)
    }};
}

#[test]
fn every_record_reads_back_what_it_wrote() {
    cases(256, "record round trip", |r| {
        let row = SummaryRow {
            run: text(r),
            site: int!(r, u32),
            method: text(r),
            block: int!(r, u32),
            index: int!(r, u32),
            loop_header: int!(r, i64),
            kind: text(r),
            generation: int!(r, u32),
            issued: int!(r, u64),
            useful: int!(r, u64),
            too_early: int!(r, u64),
            too_late: int!(r, u64),
            dropped: int!(r, u64),
            guarded_issued: int!(r, u64),
            guarded_tlb_primed: int!(r, u64),
        };
        assert_eq!(read_back!(SummaryRow, row), row);

        let row = DeoptRow {
            run: text(r),
            tag: text(r),
            method: int!(r, u32),
            loop_header: text(r),
            generation: int!(r, u32),
            reason: text(r),
            now: int!(r, u64),
        };
        assert_eq!(read_back!(DeoptRow, row), row);

        let row = CellSummary {
            name: text(r),
            mode: text(r),
            processor: text(r),
            best_cycles: int!(r, u64),
            retired: int!(r, u64),
            recompiles: int!(r, u64),
            loop_deopts: int!(r, u64),
            loop_repatches: int!(r, u64),
            reagreed: int!(r, u64),
            inspection_cycles: int!(r, u64),
            static_sites: int!(r, u64),
            checksum: int!(r, i32),
        };
        assert_eq!(read_back!(CellSummary, row), row);

        let row = ModeReport {
            mode: text(r),
            completed: int!(r, u64),
            p50: int!(r, u64),
            p99: int!(r, u64),
            p999: int!(r, u64),
            max: int!(r, u64),
            mean: int!(r, u64),
            queue_depth_max: int!(r, u32),
            queue_depth_mean_milli: int!(r, u64),
            compiles: int!(r, u64),
            evictions: int!(r, u64),
            recompiles: int!(r, u64),
            loop_deopts: int!(r, u64),
            loop_repatches: int!(r, u64),
            stranded: int!(r, u64),
            checksum: int!(r, i64),
        };
        assert_eq!(read_back!(ModeReport, row), row);

        let row = ChaosRow {
            mode: text(r),
            faults: int!(r, u64),
            shed: int!(r, u64),
            retries: int!(r, u64),
            rearms: int!(r, u64),
            stranded_final: int!(r, u64),
            completed: int!(r, u64),
            p99: int!(r, u64),
            recovery_at: int!(r, u64),
            post_requests: int!(r, u64),
            post_p99_ratio_milli: int!(r, u64),
        };
        assert_eq!(read_back!(ChaosRow, row), row);
    });
}

type Members = Vec<(&'static str, String)>;

/// Reads `members` back with each one left out in turn. A member listed in
/// `optional` must come back as the value written beside it there; leaving
/// out any other must be an error naming its key.
fn leave_each_member_out(
    members: Members,
    optional: &[(&str, &str)],
    read: impl Fn(&json::Value) -> Result<Members, String>,
) {
    for (left_out, _) in &members {
        let rest: Vec<String> = members
            .iter()
            .filter(|(key, _)| key != left_out)
            .map(|(key, value)| format!("\"{key}\": {value}"))
            .collect();
        let text = format!("{{{}}}", rest.join(", "));
        let got = read(&json::parse(&text).expect(&text));
        match optional.iter().find(|(key, _)| key == left_out) {
            Some((_, default)) => {
                let got = got.expect(left_out);
                let (_, value) = got.iter().find(|(key, _)| key == left_out).expect("kept");
                assert_eq!(value, default, "default of {left_out}");
            }
            None => {
                let err = got.expect_err(left_out);
                assert_eq!(err, format!("missing field \"{left_out}\""));
            }
        }
    }
}

#[test]
fn exactly_the_declared_defaults_are_optional() {
    let zero = |keys: &[&'static str]| -> Vec<(&str, &str)> {
        keys.iter().map(|&key| (key, "0")).collect()
    };
    leave_each_member_out(
        summary_rows("r", "m")[0].members(),
        &zero(&["generation"]),
        |v| SummaryRow::read(v).map(|row| row.members()),
    );
    let dash = "\"-\"";
    leave_each_member_out(
        deopt_rows("r", "7")[0].members(),
        &[("run", dash), ("loop", dash), ("reason", dash)],
        |v| DeoptRow::read(v).map(|row| row.members()),
    );
    let cell = &matrix_json::parse(&matrix_text("db", "P4")).expect("matrix")[0];
    let optional = zero(&[
        "recompiles",
        "loop_deopts",
        "loop_repatches",
        "reagreed",
        "inspection_cycles",
        "static_sites",
    ]);
    leave_each_member_out(cell.members(), &optional, |v| {
        CellSummary::read(v).map(|row| row.members())
    });
    let serve = serve_summary("p", "m");
    leave_each_member_out(
        serve.modes[0].members(),
        &zero(&["loop_deopts", "loop_repatches", "stranded"]),
        |v| ModeReport::read(v).map(|row| row.members()),
    );
    leave_each_member_out(serve.chaos[0].members(), &[], |v| {
        ChaosRow::read(v).map(|row| row.members())
    });
}

#[test]
fn a_renamed_key_is_honoured_in_both_directions() {
    let row = &deopt_rows("r", "7")[1];
    assert_eq!(row.loop_header, "7");
    let mut text = String::new();
    row.write(&mut text);
    assert!(text.contains("\"loop\": \"7\"") && !text.contains("loop_header"));
    assert!(row.members().contains(&("loop", "\"7\"".to_string())));
    assert_eq!(read_back!(DeoptRow, row), *row);
    // The field's own name is not a key of the format: it is ignored like
    // any unknown one, and the member takes its default.
    let text = text.replace("\"loop\"", "\"loop_header\"");
    let read = DeoptRow::read(&json::parse(&text).expect("json")).expect("row");
    assert_eq!(read.loop_header, "-");
}

#[test]
fn every_tag_is_unique_and_is_its_variants_name_in_snake_case() {
    let events = every_event();
    let tags: std::collections::BTreeSet<&str> = events.iter().map(TraceEvent::tag).collect();
    assert_eq!(tags.len(), events.len());
    for ev in &events {
        let mut snake = String::new();
        for c in variant_name(ev).chars() {
            if c.is_ascii_uppercase() && !snake.is_empty() {
                snake.push('_');
            }
            snake.push(c.to_ascii_lowercase());
        }
        assert_eq!(ev.tag(), snake);
    }
}
