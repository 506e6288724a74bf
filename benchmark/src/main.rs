//! The repo benchmark. `benchmark/run.sh` builds this and forwards its
//! arguments; see `benchmark/README.md`.
//!
//! ```text
//! spf-benchmark run --workload NAME --seed N --seconds S --trace 0|1
//! spf-benchmark suite [--workload NAME] [--seed N] [--traced]
//!                     [--repeat-check [--record]]
//! spf-benchmark manifest
//! ```
//!
//! `run` measures one workload in this process and ends its standard
//! output with the result line the acceptance driver reads. `suite` runs
//! each workload as a child `run`, prints every metric, cross-checks the
//! sets, and writes `benchmark/out/results.json`.

mod json;
mod kernels;
mod manifest;
mod matrix;
mod report;
mod serve;
mod span;
mod stats;
mod timing;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use manifest::{Bound, Kind, Workload, METRICS, WORKLOADS};
use report::{Report, Tally};

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    traffic_seed: u64,
    seconds: f64,
    /// `--trace 0|1`, only under `run`.
    trace: Option<bool>,
    traced: bool,
    repeat_check: bool,
    record: bool,
}

/// Decimal or `0x` hexadecimal.
fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: manifest::DEFAULT_SEED,
        traffic_seed: manifest::TRAFFIC_SEED,
        seconds: manifest::RUN_SECONDS as f64,
        trace: None,
        traced: false,
        repeat_check: false,
        record: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(manifest::workload(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                let v = value()?;
                args.seed = parse_u64(&v).ok_or(format!("--seed: not a number: {v:?}"))?;
            }
            "--traffic-seed" => {
                let v = value()?;
                args.traffic_seed =
                    parse_u64(&v).ok_or(format!("--traffic-seed: not a number: {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0 && *s <= 3600.0)
                    .ok_or(format!("--seconds: not a duration: {v:?}"))?;
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                });
            }
            "--traced" => args.traced = true,
            "--repeat-check" => args.repeat_check = true,
            "--record" => args.record = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.record && !args.repeat_check {
        return Err("--record needs --repeat-check".to_string());
    }
    Ok(args)
}

/// Measures one workload in this process.
fn run(args: &Args) -> Result<bool, String> {
    let w = args.workload.ok_or("run needs --workload")?;
    let traced = args.trace.ok_or("run needs --trace 0|1")?;
    manifest::check_tables()?;
    manifest::check_profile_parity(
        &manifest::read("Cargo.toml")?,
        &manifest::read("benchmark/Cargo.toml")?,
    )?;
    let paper =
        manifest::PaperReference::parse(&manifest::read("benchmark/paper_reference.json")?)?;
    let mut rep = Report::new(w);
    let is_matrix = !w.programs.is_empty();
    let (correct, tally): (bool, Tally) = match (is_matrix, traced) {
        (true, false) => matrix::untraced(w, args.seconds, &paper, &mut rep),
        (true, true) => matrix::traced(w, args.seed, &paper, &mut rep)?,
        (false, false) => serve::untraced(args.seconds, args.traffic_seed, &mut rep),
        (false, true) => serve::traced(args.seed, args.traffic_seed, &mut rep)?,
    };
    if tally.attempted == 0 || (!traced && rep.get("wall_s").is_none()) {
        return Err(format!("{}: nothing could be measured", w.name));
    }
    if !traced {
        rep.put(
            "peak_rss_mb",
            report::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?,
        );
    }
    print!("{}", rep.lines());
    println!("{}", rep.result_line(traced, correct, tally));
    Ok(correct)
}

/// Metric values of one child run, by name.
type Values = BTreeMap<String, f64>;

/// Runs one workload as a child process, echoes its metric lines, and
/// returns them with the child's verdict on its own correctness, which
/// its exit status carries.
fn child(args: &Args, w: &Workload, traced: bool) -> Result<(Values, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find the harness: {e}"))?;
    let out = Command::new(exe)
        .args(["run", "--workload", w.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--traffic-seed", &args.traffic_seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {} run: {e}", w.name))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut values = Values::new();
    // The result line is for the acceptance driver; the suite reads the
    // metric lines, which hold every metric and not only the declared ones.
    for line in text.lines().filter(|l| !l.starts_with('{')) {
        println!("{line}");
        let fields: Vec<&str> = line.split_whitespace().collect();
        if let [workload, name, value, _unit] = fields[..] {
            if workload == w.name {
                let value = value
                    .parse()
                    .map_err(|_| format!("{}: {name} is not a number: {value:?}", w.name))?;
                values.insert(name.to_string(), value);
            }
        }
    }
    if values.is_empty() {
        return Err(format!(
            "the {} run printed no metric ({})",
            w.name, out.status
        ));
    }
    Ok((values, out.status.success()))
}

/// One complete set: per workload, its untraced and its traced values.
type Set = Vec<(&'static Workload, Values, Values)>;

/// Runs every selected workload untraced, then (with `--traced`) traced.
/// Set `nth` shifts `--seed` by `nth`, as the acceptance driver varies it.
fn run_set(args: &Args, nth: u64, ok: &mut bool) -> Result<Set, String> {
    let args = &Args {
        seed: args.seed.wrapping_add(nth),
        ..*args
    };
    let mut set = Vec::new();
    for w in WORKLOADS
        .iter()
        .filter(|w| args.workload.is_none_or(|only| only.name == w.name))
    {
        let (untraced, correct) = child(args, w, false)?;
        *ok &= correct;
        let mut traced = Values::new();
        if args.traced {
            let (values, correct) = child(args, w, true)?;
            *ok &= correct;
            // The traced set re-derives every simulated end-to-end number
            // from its own loop; it must land on the untraced one.
            for m in METRICS.iter().filter(|m| is_exact(m)) {
                if let (Some(a), Some(b)) = (untraced.get(m.name), values.get(m.name)) {
                    if a != b {
                        eprintln!("{}: {} is {a} untraced but {b} traced", w.name, m.name);
                        *ok = false;
                    }
                }
            }
            if let (Some(wall), Some(spanned)) = (
                untraced.get("wall_s"),
                values.get("bench.tracing_overhead_s"),
            ) {
                println!(
                    "# {} tracing overhead {spanned} s on an iteration of {wall} s",
                    w.name
                );
            }
            traced = values;
        }
        set.push((w, untraced, traced));
    }
    Ok(set)
}

fn is_exact(m: &manifest::Metric) -> bool {
    matches!(
        m.kind,
        Kind::EndToEnd {
            bound: Bound::Exact,
            ..
        }
    )
}

/// How far the second set's value lies from the first's, as a share of
/// the first's.
fn observed_spread(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else {
        (b - a).abs() / a.abs()
    }
}

/// Compares two sets of the same build: an exact metric must be equal in
/// both, a host-clock metric must not differ by more than its bound.
/// Returns the observed spread per workload and metric.
fn repeat_check(first: &Set, second: &Set, ok: &mut bool) -> Vec<(String, f64)> {
    let mut spreads = Vec::new();
    for ((w, a, _), (_, b, _)) in first.iter().zip(second) {
        for m in METRICS {
            let Kind::EndToEnd { bound, on } = m.kind else {
                continue;
            };
            if !on.covers(w) {
                continue;
            }
            let (Some(&a), Some(&b)) = (a.get(m.name), b.get(m.name)) else {
                eprintln!("{}: {} missing from a set", w.name, m.name);
                *ok = false;
                continue;
            };
            let spread = observed_spread(a, b);
            let within = match bound {
                Bound::Exact => a == b,
                Bound::Share(share) => spread <= share,
                Bound::Ungated => true,
            };
            println!(
                "# repeat-check {} {}: {a} then {b}, spread {spread:.4} of {bound:?} {}",
                w.name,
                m.name,
                if within { "ok" } else { "FAILED" }
            );
            *ok &= within;
            spreads.push((format!("{}/{}", w.name, m.name), spread));
        }
    }
    spreads
}

/// `values` of one kind as a JSON object, its members indented under
/// `indent`.
fn values_json<'a>(values: impl Iterator<Item = (&'a String, &'a f64)>, indent: &str) -> String {
    let rows: Vec<String> = values
        .map(|(k, v)| format!("{indent}  \"{k}\": {v}"))
        .collect();
    format!("{{\n{}\n{indent}}}", rows.join(",\n"))
}

/// `results.json` / `baseline.json`: the arguments, every set's values,
/// the observed spreads (after a repeat check) and every definition.
fn results_json(args: &Args, sets: &[Set], spreads: &[(String, f64)]) -> String {
    let is_layer = |name: &String| manifest::metric(name).is_some_and(|m| m.kind == Kind::Layer);
    let sets: Vec<String> = sets
        .iter()
        .map(|set| {
            let workloads: Vec<String> = set
                .iter()
                .map(|(w, untraced, traced)| {
                    format!(
                        "      \"{}\": {{\n        \"end_to_end\": {},\n        \"per_layer\": {}\n      }}",
                        w.name,
                        values_json(untraced.iter().filter(|(k, _)| !is_layer(k)), "        "),
                        values_json(traced.iter().filter(|(k, _)| is_layer(k)), "        "),
                    )
                })
                .collect();
            format!("    {{\n{}\n    }}", workloads.join(",\n"))
        })
        .collect();
    let definitions: Vec<String> = METRICS
        .iter()
        .map(|m| {
            format!(
                "    \"{}\": {{\"unit\": \"{}\", \"better\": \"{}\", \"what\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str(),
                json::escape(m.what)
            )
        })
        .collect();
    format!(
        "{{\n  \"seed\": {},\n  \"traffic_seed\": {},\n  \"seconds\": {},\n  \"sets\": [\n{}\n  ],\n  \
         \"observed_spread\": {},\n  \"definitions\": {{\n{}\n  }}\n}}\n",
        args.seed,
        args.traffic_seed,
        args.seconds,
        sets.join(",\n"),
        values_json(spreads.iter().map(|(k, v)| (k, v)), "  "),
        definitions.join(",\n")
    )
}

fn write(path: &str, text: &str) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

fn suite(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    let mut sets = vec![run_set(args, 0, &mut ok)?];
    let mut spreads = Vec::new();
    if args.repeat_check {
        sets.push(run_set(args, 1, &mut ok)?);
        spreads = repeat_check(&sets[0], &sets[1], &mut ok);
    }
    let text = results_json(args, &sets, &spreads);
    write("benchmark/out/results.json", &text)?;
    if args.record && ok {
        write("benchmark/baseline.json", &text)?;
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_default();
    let outcome = match command.as_str() {
        "manifest" => {
            print!("{}", manifest::benchmark_json());
            Ok(true)
        }
        "run" => parse_args(argv).and_then(|a| run(&a)),
        "suite" => parse_args(argv).and_then(|a| suite(&a)),
        other => Err(format!(
            "unknown command {other:?}; expected run, suite or manifest"
        )),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("benchmark: a correctness check failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn driver_arguments_parse() {
        let a = args(&[
            "--workload",
            "matrix-memsim",
            "--seed",
            "12345",
            "--seconds",
            "15",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.unwrap().name, "matrix-memsim");
        assert_eq!((a.seed, a.seconds, a.trace), (12345, 15.0, Some(true)));
        assert_eq!(
            a.traffic_seed,
            manifest::TRAFFIC_SEED,
            "--seed leaves the traffic alone"
        );
        assert_eq!(
            args(&["--seed", "0x5EED5E17"]).unwrap().seed,
            manifest::DEFAULT_SEED
        );
    }

    #[test]
    fn hostile_arguments_are_refused_not_panicked_on() {
        for bad in [
            &["--workload"][..],
            &["--workload", "matrix"],
            &["--seed", "-1"],
            &["--seed", "0xZZ"],
            &["--seconds", "nan"],
            &["--seconds", "-3"],
            &["--seconds", "1e99"],
            &["--trace", "2"],
            &["--record"],
            &["--sets", "10"],
            &["--frobnicate"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn repeat_check_is_exact_on_simulated_metrics_and_bounded_on_host_ones() {
        let w = &WORKLOADS[3];
        let set = |wall: f64, cycles: f64| {
            let mut v = Values::new();
            for m in METRICS {
                if matches!(m.kind, Kind::EndToEnd { on, .. } if on.covers(w)) {
                    v.insert(m.name.to_string(), 1.0);
                }
            }
            v.insert("wall_s".to_string(), wall);
            v.insert("sim_cycles".to_string(), cycles);
            vec![(w, v, Values::new())]
        };
        let mut ok = true;
        let spreads = repeat_check(&set(10.0, 500.0), &set(11.0, 500.0), &mut ok);
        assert!(ok, "10 % on wall_s is inside its bound");
        assert!(spreads.contains(&("serve-fleet/wall_s".to_string(), 0.1)));
        assert!(spreads.contains(&("serve-fleet/sim_cycles".to_string(), 0.0)));
        assert!(
            !spreads.iter().any(|(k, _)| k.ends_with("paper_sign_agree")),
            "matrix only"
        );
        let mut ok = true;
        repeat_check(&set(10.0, 500.0), &set(10.0, 501.0), &mut ok);
        assert!(!ok, "one cycle of drift fails an exact metric");
        let mut ok = true;
        repeat_check(&set(10.0, 500.0), &set(14.0, 500.0), &mut ok);
        assert!(!ok, "40 % slower is outside any bound");
        let mut ok = true;
        repeat_check(&set(14.0, 500.0), &set(10.0, 500.0), &mut ok);
        assert!(!ok, "and so is the first set being the slow one");
        let mut ok = true;
        let mut short = set(10.0, 500.0);
        short[0].1.remove("wall_s");
        repeat_check(&set(10.0, 500.0), &short, &mut ok);
        assert!(!ok, "a metric missing from a set fails the check");
    }

    #[test]
    fn results_json_parses_back() {
        let mut e2e = Values::new();
        e2e.insert("wall_s".to_string(), 5.5);
        let mut layers = Values::new();
        layers.insert("vm.steady_ms".to_string(), 12.0);
        let sets = vec![vec![(&WORKLOADS[0], e2e, layers)]];
        let a = args(&[]).unwrap();
        let doc = json::parse(&results_json(&a, &sets, &[("x/wall_s".to_string(), 0.01)])).unwrap();
        let w = doc.get("sets").and_then(json::Value::as_arr).unwrap()[0]
            .get("matrix-dispatch")
            .unwrap();
        let wall = w.get("end_to_end").and_then(|e| e.get("wall_s"));
        assert_eq!(wall.and_then(json::Value::as_f64), Some(5.5));
        let steady = w.get("per_layer").and_then(|e| e.get("vm.steady_ms"));
        assert_eq!(steady.and_then(json::Value::as_f64), Some(12.0));
        let spread = doc.get("observed_spread").and_then(|o| o.get("x/wall_s"));
        assert_eq!(spread.and_then(json::Value::as_f64), Some(0.01));
    }
}
