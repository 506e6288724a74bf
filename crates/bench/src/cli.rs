//! The command lines of `figures`, `spf-lint` and `spf-serve`.
//!
//! One grammar for all three: positionals (`tiny|small|full`, then a
//! workload name where the binary takes one) anywhere among `--flags`
//! from the binary's own table. The table is the single spelling of a
//! flag — the parser looks arguments up in it and the usage line is
//! rendered from it — so a flag cannot be parsed but undocumented or the
//! reverse. A word the grammar does not know (a misspelt flag, a
//! surplus positional) is an error naming the word, never a silent no-op:
//! a typo in a CI step must not turn a gate into a vacuous pass.
//!
//! Each parser is a function of the argument slice (no `std::env`), so it
//! is fuzzed in `tests/cli_fuzz.rs` without a subprocess.

use std::io::Write as _;
use std::str::FromStr;

use spf_serve::{faults, ServeConfig};
use spf_workloads::Size;

use crate::matrix::default_jobs;

/// Prints a line to stdout without panicking when the pipe closes early
/// (`figures | head`).
pub fn emit(text: &str) {
    let mut out = std::io::stdout().lock();
    let _ = out.write_all(text.as_bytes());
    let _ = out.write_all(b"\n");
}

/// Parses the process's own arguments with `parse`; prints an error and
/// exits 1.
pub fn from_env<T>(parse: fn(&[String]) -> Result<T, String>) -> T {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    parse(&argv).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1)
    })
}

/// One `--flag`: its name, what the usage line calls its value (empty for
/// a switch), and how the value (`""` for a switch) is applied to the
/// arguments `A` being collected.
struct Flag<A>(
    &'static str,
    &'static str,
    fn(&mut A, &str) -> Result<(), String>,
);

/// A binary's whole command line: `[tiny|small|full [WORKLOAD]]` — no
/// workload where `workload` is `None` — anywhere among its `flags`.
struct Grammar<A: 'static> {
    bin: &'static str,
    size: fn(&mut A, Size),
    workload: Option<fn(&mut A, String)>,
    flags: &'static [Flag<A>],
}

impl<A> Grammar<A> {
    fn usage(&self) -> String {
        let workload = if self.workload.is_some() {
            " [WORKLOAD]"
        } else {
            ""
        };
        let mut s = format!("usage: {} [tiny|small|full{workload}]", self.bin);
        for Flag(name, value, _) in self.flags {
            let sep = if value.is_empty() { "" } else { " " };
            s.push_str(&format!(" [{name}{sep}{value}]"));
        }
        s
    }

    /// Applies `argv` to the defaults `args`. An error is a message
    /// naming the offending argument, then the usage line.
    fn parse(&self, mut args: A, argv: &[String]) -> Result<A, String> {
        match self.apply(&mut args, argv) {
            Ok(()) => Ok(args),
            Err(e) => Err(format!("{e}\n{}", self.usage())),
        }
    }

    fn apply(&self, args: &mut A, argv: &[String]) -> Result<(), String> {
        let mut positionals = Vec::new();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            if !a.starts_with("--") {
                positionals.push(a.as_str());
                continue;
            }
            let Some(Flag(_, value, set)) = self.flags.iter().find(|f| f.0 == a) else {
                return Err(format!("unknown flag {a:?}"));
            };
            let v = match *value {
                "" => "",
                value => it.next().ok_or_else(|| format!("{a} needs {value}"))?,
            };
            set(args, v).map_err(|e| format!("{a} {e}"))?;
        }
        let mut positionals = positionals.into_iter();
        if let Some(size) = positionals.next() {
            (self.size)(args, size.parse()?);
        }
        if let Some(set) = self.workload {
            if let Some(w) = positionals.next() {
                let names: Vec<_> = spf_workloads::all().iter().map(|s| s.name).collect();
                if !names.contains(&w) {
                    let known = names.join(", ");
                    return Err(format!("unknown workload {w:?}; known workloads: {known}"));
                }
                set(args, w.to_string());
            }
        }
        match positionals.next() {
            Some(extra) => Err(format!("unexpected argument {extra:?}")),
            None => Ok(()),
        }
    }
}

/// Sets a switch.
fn on(switch: &mut bool) -> Result<(), String> {
    *switch = true;
    Ok(())
}

/// An integer of at least 1.
fn positive<T: FromStr + PartialOrd + From<u8>>(v: &str) -> Result<T, String> {
    match v.parse::<T>() {
        Ok(n) if n >= T::from(1) => Ok(n),
        _ => Err(format!("needs a positive integer, got {v:?}")),
    }
}

/// A non-negative integer.
fn number(v: &str) -> Result<u64, String> {
    v.parse()
        .map_err(|_| format!("needs a non-negative integer, got {v:?}"))
}

/// `PATH`: where to write an artifact.
fn path(v: &str) -> Result<String, String> {
    if v.is_empty() {
        return Err("needs a path, got \"\"".to_string());
    }
    Ok(v.to_string())
}

/// `PATH|-`: a path, or `-` for "do not write this artifact".
fn path_or_dash(v: &str) -> Result<Option<String>, String> {
    Ok(if v == "-" { None } else { Some(path(v)?) })
}

/// What `figures` was asked to do.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Figures {
    /// Problem size (default: full).
    pub size: Size,
    /// Restrict the matrix to this workload.
    pub only: Option<String>,
    /// Worker threads for the sweep.
    pub jobs: usize,
    /// Where `BENCH_matrix.json` goes; `None` disables it.
    pub matrix_out: Option<String>,
    /// Re-run the grid traced and gate on the cell checks.
    pub trace: bool,
}

const FIGURES: Grammar<Figures> = Grammar {
    bin: "figures",
    size: |a, size| a.size = size,
    workload: Some(|a, w| a.only = Some(w)),
    flags: &[
        Flag("--jobs", "N", |a, v| positive(v).map(|n| a.jobs = n)),
        Flag("--matrix-out", "PATH|-", |a, v| {
            path_or_dash(v).map(|p| a.matrix_out = p)
        }),
        Flag("--trace", "", |a, _| on(&mut a.trace)),
    ],
};

/// Parses the arguments of `figures` (program name excluded). An error is
/// a message naming the offending argument, then the usage line.
pub fn figures(argv: &[String]) -> Result<Figures, String> {
    let defaults = Figures {
        size: Size::Full,
        only: None,
        jobs: default_jobs(),
        matrix_out: Some("BENCH_matrix.json".to_string()),
        trace: false,
    };
    FIGURES.parse(defaults, argv)
}

/// What `spf-lint` was asked to do.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Lint {
    /// Problem size (default: full).
    pub size: Size,
    /// Restrict the sweep to this workload.
    pub only: Option<String>,
}

const LINT: Grammar<Lint> = Grammar {
    bin: "spf-lint",
    size: |a, size| a.size = size,
    workload: Some(|a, w| a.only = Some(w)),
    flags: &[],
};

/// Parses the arguments of `spf-lint`, like [`figures`].
pub fn lint(argv: &[String]) -> Result<Lint, String> {
    let defaults = Lint {
        size: Size::Full,
        only: None,
    };
    LINT.parse(defaults, argv)
}

/// What `spf-serve` was asked to do.
#[derive(Clone, Debug)]
pub struct Serve {
    /// The fleet: size, tenants, requests, inter-arrival gap and traffic
    /// seed come from the command line, the rest is the default.
    pub cfg: ServeConfig,
    /// Where `SERVE_summary.json` goes; `None` disables it.
    pub out: Option<String>,
    /// Where to dump every serve-level event of the fault-free runs.
    pub events_out: Option<String>,
    /// The fault-plan seed of the second, chaos run of each mode.
    pub chaos: Option<u64>,
    /// Where to write the chaos runs' fault events.
    pub fault_events_out: Option<String>,
}

const SERVE: Grammar<Serve> = Grammar {
    bin: "spf-serve",
    size: |a, size| a.cfg.size = size,
    workload: None,
    flags: &[
        Flag("--tenants", "N", |a, v| {
            positive(v).map(|n| a.cfg.tenants = n)
        }),
        Flag("--requests", "N", |a, v| {
            positive(v).map(|n| a.cfg.requests = n)
        }),
        Flag("--mean-interarrival", "CYCLES", |a, v| {
            number(v).map(|n| a.cfg.mean_interarrival = n)
        }),
        Flag("--seed", "N", |a, v| number(v).map(|n| a.cfg.seed = n)),
        Flag("--out", "PATH|-", |a, v| path_or_dash(v).map(|p| a.out = p)),
        Flag("--events-out", "PATH", |a, v| {
            path(v).map(|p| a.events_out = Some(p))
        }),
        Flag("--chaos", "", |a, _| {
            a.chaos.get_or_insert(faults::DEFAULT_SEED);
            Ok(())
        }),
        Flag("--chaos-seed", "N", |a, v| {
            number(v).map(|n| a.chaos = Some(n))
        }),
        Flag("--fault-events-out", "PATH", |a, v| {
            path(v).map(|p| a.fault_events_out = Some(p))
        }),
    ],
};

/// Parses the arguments of `spf-serve`, like [`figures`].
pub fn serve(argv: &[String]) -> Result<Serve, String> {
    let defaults = Serve {
        cfg: ServeConfig::default(),
        out: Some("SERVE_summary.json".to_string()),
        events_out: None,
        chaos: None,
        fault_events_out: None,
    };
    let args = SERVE.parse(defaults, argv)?;
    if args.fault_events_out.is_some() && args.chaos.is_none() {
        let usage = SERVE.usage();
        return Err(format!("--fault-events-out requires --chaos\n{usage}"));
    }
    // Arrivals may span up to `2 * mean` cycles per request; that span
    // gets half the clock, and service and queueing the other half.
    let (mean, requests) = (args.cfg.mean_interarrival, args.cfg.requests);
    let span = mean
        .checked_mul(2)
        .and_then(|gap| gap.checked_mul(u64::from(requests)));
    if span.is_none_or(|c| c > u64::MAX / 2) {
        let usage = SERVE.usage();
        return Err(format!(
            "--mean-interarrival {mean} overflows the arrival clock over {requests} request(s)\n{usage}"
        ));
    }
    Ok(args)
}
