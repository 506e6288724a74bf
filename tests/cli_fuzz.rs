//! The three flag parsers of `spf_bench::cli` under seeded fuzz, as
//! functions of an argument slice (no subprocess): an argv built from
//! real flags and valid values parses to exactly the values it set; one
//! hostile word in it — a misspelt flag, a number out of range, a surplus
//! positional, a flag cut off from its value — is rejected by name; and
//! no soup of flags, numbers and random words makes a parser panic. The
//! fuzzer learns each binary's flags from its usage line, so a flag added
//! to a grammar is fuzzed (and must be modelled here) from then on.

use stride_prefetch::bench::cli::{self, Figures, Lint, Serve};
use stride_prefetch::workloads::Size;

use spf_testkit::{cases, Rng};

type Parser = fn(&[String]) -> Result<String, String>;

/// Each parser with its result rendered through `Debug`, so one harness
/// drives all three.
const PARSERS: [(&str, Parser); 3] = [
    ("figures", |a| cli::figures(a).map(|x| format!("{x:?}"))),
    ("spf-lint", |a| cli::lint(a).map(|x| format!("{x:?}"))),
    ("spf-serve", |a| cli::serve(a).map(|x| format!("{x:?}"))),
];

fn strings(words: &[&str]) -> Vec<String> {
    words.iter().map(|w| w.to_string()).collect()
}

/// The `(flag, value name)` pairs of a usage line; a switch has no value
/// name. Every error of a parser ends in its usage line.
fn usage_flags(parse: Parser) -> Vec<(String, Option<String>)> {
    let err = parse(&strings(&["--no-such-flag"])).unwrap_err();
    let usage = err.lines().last().unwrap();
    assert!(usage.starts_with("usage: "), "{err}");
    usage
        .split(" [--")
        .skip(1)
        .map(|f| {
            let f = f.strip_suffix(']').unwrap_or_else(|| panic!("{usage}"));
            match f.split_once(' ') {
                Some((name, value)) => (format!("--{name}"), Some(value.to_string())),
                None => (format!("--{f}"), None),
            }
        })
        .collect()
}

/// A value every flag with that value name accepts.
fn valid_value(rng: &mut Rng, name: &str) -> String {
    match name {
        "N" => rng.u64_in(1, u64::from(u32::MAX)).to_string(),
        // Small enough that any `--requests` keeps the arrival clock in
        // range (`spf-serve` rejects `2 * mean * requests > u64::MAX / 2`).
        "CYCLES" => rng.u64_in(1, 1 << 30).to_string(),
        "PATH|-" if rng.bool() => "-".to_string(),
        "PATH|-" | "PATH" => format!("out/{}.json", rng.below(1000)),
        other => panic!("cli_fuzz does not know value name {other:?}"),
    }
}

/// A random valid command line of `parse`: a subset of its flags in
/// random order (`--fault-events-out` only together with `--chaos`), with
/// `positionals` dropped in at random places.
fn valid_argv(rng: &mut Rng, parse: Parser, positionals: &[&str]) -> Vec<String> {
    let mut argv: Vec<Vec<String>> = Vec::new();
    for (flag, value) in usage_flags(parse) {
        if rng.bool() {
            continue;
        }
        let mut group = vec![flag.clone()];
        group.extend(value.map(|v| valid_value(rng, &v)));
        if flag == "--fault-events-out" {
            argv.push(strings(&["--chaos"]));
        }
        let at = rng.index(argv.len() + 1);
        argv.insert(at, group);
    }
    // Positionals keep their relative order.
    let mut at = 0;
    for p in positionals {
        at = rng.usize_in(at, argv.len());
        argv.insert(at, strings(&[p]));
        at += 1;
    }
    argv.concat()
}

/// The value of the last `flag` in `argv`.
fn last<'a>(argv: &'a [String], flag: &str) -> Option<&'a str> {
    let i = argv.iter().rposition(|a| a == flag)?;
    Some(argv[i + 1].as_str())
}

fn path_or_dash(argv: &[String], flag: &str, default: &str) -> Option<String> {
    match last(argv, flag) {
        Some("-") => None,
        Some(p) => Some(p.to_string()),
        None => Some(default.to_string()),
    }
}

fn has(argv: &[String], flag: &str) -> bool {
    argv.iter().any(|a| a == flag)
}

fn num<T: std::str::FromStr>(argv: &[String], flag: &str, default: T) -> T {
    last(argv, flag).map_or(default, |v| v.parse().ok().expect("a valid number"))
}

#[test]
fn accepted_argv_round_trips_the_values_it_set() {
    cases(200, "cli round trip", |rng| {
        let size_word = *rng.pick(&["tiny", "small", "full"]);
        let size: Size = size_word.parse().unwrap();
        let workload = rng.pick(&stride_prefetch::workloads::all()).name;
        let positionals = [size_word, workload];
        let positionals = &positionals[..rng.index(3)];
        let (size, only) = match positionals.len() {
            0 => (None, None),
            1 => (Some(size), None),
            _ => (Some(size), Some(workload.to_string())),
        };

        let argv = valid_argv(rng, PARSERS[0].1, positionals);
        let defaults = cli::figures(&[]).unwrap();
        let want = Figures {
            size: size.unwrap_or(Size::Full),
            only: only.clone(),
            jobs: num(&argv, "--jobs", defaults.jobs),
            verify_serial: has(&argv, "--verify-serial"),
            matrix_out: path_or_dash(&argv, "--matrix-out", "BENCH_matrix.json"),
            trace: has(&argv, "--trace"),
        };
        assert_eq!(cli::figures(&argv), Ok(want), "{argv:?}");

        let argv = valid_argv(rng, PARSERS[1].1, positionals);
        let want = Lint {
            size: size.unwrap_or(Size::Full),
            only,
            agreement_out: path_or_dash(&argv, "--agreement-out", "STRIDE_agreement.jsonl"),
            provenance: has(&argv, "--provenance"),
        };
        assert_eq!(cli::lint(&argv), Ok(want), "{argv:?}");

        let argv = valid_argv(rng, PARSERS[2].1, &positionals[..positionals.len().min(1)]);
        let got: Serve = cli::serve(&argv).unwrap_or_else(|e| panic!("{argv:?}: {e}"));
        let d = cli::serve(&[]).unwrap();
        assert_eq!(got.cfg.size, size.unwrap_or(Size::Tiny), "{argv:?}");
        assert_eq!(got.cfg.tenants, num(&argv, "--tenants", d.cfg.tenants));
        assert_eq!(got.cfg.requests, num(&argv, "--requests", d.cfg.requests));
        let gap = num(&argv, "--mean-interarrival", d.cfg.mean_interarrival);
        assert_eq!(got.cfg.mean_interarrival, gap);
        assert_eq!(got.cfg.seed, num(&argv, "--seed", d.cfg.seed));
        assert_eq!(got.out, path_or_dash(&argv, "--out", "SERVE_summary.json"));
        assert_eq!(got.events_out.as_deref(), last(&argv, "--events-out"));
        let fault_events = last(&argv, "--fault-events-out");
        assert_eq!(got.fault_events_out.as_deref(), fault_events);
        let chaos = has(&argv, "--chaos") || has(&argv, "--chaos-seed");
        assert_eq!(got.chaos.is_some(), chaos, "{argv:?}");
        if let Some(seed) = got.chaos {
            let default_seed = stride_prefetch::serve::faults::DEFAULT_SEED;
            assert_eq!(seed, num(&argv, "--chaos-seed", default_seed));
        }
        // What the command line cannot set stays the default.
        assert_eq!(got.cfg.slot_cycles, d.cfg.slot_cycles);
        assert_eq!(got.cfg.compile_workers, d.cfg.compile_workers);
        assert_eq!(got.cfg.cache_capacity_instrs, d.cfg.cache_capacity_instrs);
    });
}

/// A real flag with one character dropped, doubled or replaced.
fn misspelt(rng: &mut Rng, flag: &str) -> String {
    let mut chars: Vec<char> = flag.chars().collect();
    let i = rng.usize_in(2, chars.len() - 1);
    match rng.index(3) {
        0 => drop(chars.remove(i)),
        1 => chars.insert(i, chars[i]),
        _ => chars[i] = if chars[i] == 'x' { 'y' } else { 'x' },
    }
    chars.into_iter().collect()
}

/// Asserts `parse` rejects `argv`, names `culprit` on the first line of
/// the error and ends with its usage line.
fn assert_rejected(bin: &str, parse: Parser, argv: &[String], culprit: &str) {
    let err = match parse(argv) {
        Err(e) => e,
        Ok(args) => panic!("{bin} {argv:?} was accepted as {args}"),
    };
    let (first, usage) = err.split_once('\n').expect("message, then usage");
    assert!(first.contains(culprit), "{bin} {argv:?}: {err}");
    assert!(usage.starts_with(&format!("usage: {bin} ")), "{err}");
}

#[test]
fn one_hostile_word_is_rejected_by_name() {
    cases(200, "cli hostile word", |rng| {
        for (bin, parse) in PARSERS {
            let flags = usage_flags(parse);
            let mut argv = valid_argv(rng, parse, &[]);
            let at = rng.index(argv.len() + 1);
            // Never split a flag from its value.
            let at = (0..=at)
                .rev()
                .find(|&i| i == 0 || !flags.iter().any(|(f, v)| v.is_some() && *f == argv[i - 1]))
                .unwrap();
            match rng.index(4) {
                // A misspelt flag, alone or in front of what was its value.
                0 => {
                    let (flag, _) = rng.pick(&flags);
                    let typo = misspelt(rng, flag);
                    if flags.iter().any(|(f, _)| *f == typo) {
                        continue; // `--trace` from `--tracee`: a real flag
                    }
                    argv.insert(at, typo.clone());
                    assert_rejected(bin, parse, &argv, &format!("{typo:?}"));
                }
                // A number no flag of that binary accepts.
                1 => {
                    let numeric: Vec<_> = (flags.iter())
                        .filter(|(_, v)| matches!(v.as_deref(), Some("N" | "CYCLES")))
                        .collect();
                    let Some((flag, _)) = numeric.get(rng.index(numeric.len().max(1))) else {
                        continue; // spf-lint takes no number
                    };
                    let bad = *rng.pick(&["-1", "", "18446744073709551616", "1e3", "0x10", "٣"]);
                    argv.splice(at..at, strings(&[flag, bad]));
                    assert_rejected(bin, parse, &argv, &format!("{flag} needs"));
                    assert_rejected(bin, parse, &argv, &format!("{bad:?}"));
                }
                // A surplus positional: two more than any binary takes.
                2 => {
                    let word = format!("extra{}", rng.below(100));
                    argv.splice(at..at, strings(&["tiny", "db", &word]));
                    let culprit = if bin == "spf-serve" { "\"db\"" } else { &word };
                    assert_rejected(bin, parse, &argv, culprit);
                }
                // A value-taking flag at the very end.
                _ => {
                    let valued: Vec<_> = flags.iter().filter(|(_, v)| v.is_some()).collect();
                    let (flag, value) = rng.pick(&valued);
                    argv.push(flag.clone());
                    let culprit = format!("{flag} needs {}", value.as_deref().unwrap());
                    assert_rejected(bin, parse, &argv, &culprit);
                }
            }
        }
    });
}

#[test]
fn a_positive_count_of_zero_or_beyond_its_type_is_rejected() {
    for (bin, parse, flag, bad) in [
        ("figures", PARSERS[0].1, "--jobs", "0"),
        ("spf-serve", PARSERS[2].1, "--tenants", "0"),
        ("spf-serve", PARSERS[2].1, "--requests", "4294967297"),
        (
            "spf-serve",
            PARSERS[2].1,
            "--tenants",
            "18446744073709551616",
        ),
    ] {
        assert_rejected(bin, parse, &strings(&[flag, bad]), &format!("{bad:?}"));
    }
    // u64::MAX is a seed like any other.
    let max = u64::MAX.to_string();
    let args = cli::serve(&strings(&["--seed", &max, "--chaos-seed", &max])).unwrap();
    assert_eq!((args.cfg.seed, args.chaos), (u64::MAX, Some(u64::MAX)));
}

#[test]
fn the_typos_that_used_to_pass_silently_are_errors() {
    let figures = PARSERS[0].1;
    let typo = strings(&["tiny", "db", "--matrix-out", "-", "--trace-outt", "x"]);
    assert_rejected("figures", figures, &typo, "\"--trace-outt\"");
    assert_rejected(
        "figures",
        figures,
        &strings(&["tiny", "db", "extra"]),
        "\"extra\"",
    );
    assert_rejected("figures", figures, &strings(&["tinny"]), "\"tinny\"");
    assert_rejected("figures", figures, &strings(&["tiny", "dbb"]), "\"dbb\"");
    let lint = PARSERS[1].1;
    assert_rejected(
        "spf-lint",
        lint,
        &strings(&["tiny", "--provnance"]),
        "\"--provnance\"",
    );
    let serve = PARSERS[2].1;
    assert_rejected(
        "spf-serve",
        serve,
        &strings(&["--tenats", "3"]),
        "\"--tenats\"",
    );
    let orphan = strings(&["--fault-events-out", "f.jsonl"]);
    assert_rejected(
        "spf-serve",
        serve,
        &orphan,
        "--fault-events-out requires --chaos",
    );
    // The flags deleted with no caller are unknown like any other word.
    for (bin, parse) in PARSERS {
        assert_rejected(bin, parse, &strings(&["--out-dir", "d"]), "\"--out-dir\"");
    }
}

#[test]
fn no_soup_of_words_panics_a_parser() {
    let sizes_and_names = [
        "tiny", "small", "full", "db", "Euler", "jess", "-", "--", "",
    ];
    let numbers = [
        "0",
        "1",
        "7",
        "-1",
        "18446744073709551615",
        "18446744073709551616",
        "1.5",
    ];
    cases(400, "cli soup", |rng| {
        for (bin, parse) in PARSERS {
            let flags = usage_flags(parse);
            let argv = rng.vec(0, 9, |r| match r.index(5) {
                0 => r.pick(&flags).0.clone(),
                1 => {
                    let flag = &r.pick(&flags).0;
                    misspelt(r, flag)
                }
                2 => r.pick(&numbers).to_string(),
                3 => r.pick(&sizes_and_names).to_string(),
                _ => format!("w{}", r.below(50)),
            });
            if let Err(e) = parse(&argv) {
                let (first, usage) = e.split_once('\n').expect("message, then usage");
                assert!(usage.starts_with(&format!("usage: {bin} ")), "{e}");
                let named = argv.iter().any(|a| first.contains(&format!("{a:?}")))
                    || flags.iter().any(|(f, _)| first.starts_with(f.as_str()));
                assert!(named, "{bin} {argv:?}: {first}");
            }
        }
    });
}

#[test]
fn the_readme_documents_every_flag_of_every_usage_line() {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("README.md at the repository root");
    for (bin, parse) in PARSERS {
        let section = readme
            .split_once(&format!("### `{bin}` flags"))
            .unwrap_or_else(|| panic!("README has no `{bin}` flag table"))
            .1;
        let table = section
            .split("\n\n")
            .nth(1)
            .expect("a table after the heading");
        let documented: Vec<&str> = table
            .lines()
            .filter_map(|l| l.strip_prefix("| `--"))
            .map(|l| l.split([' ', '`']).next().unwrap())
            .collect();
        let real: Vec<String> = usage_flags(parse).into_iter().map(|(f, _)| f).collect();
        let real: Vec<&str> = real.iter().map(|f| &f[2..]).collect();
        assert_eq!(
            documented, real,
            "README `{bin}` flag table vs its usage line"
        );
    }
}
