//! Command-line settings. Every value is checked where it enters: a
//! zero is either honoured as written (`--seed 0`, `--trace 0`) or
//! refused with an error (`--seconds 0`), never replaced by a default.

use std::path::PathBuf;

/// The three workloads (see `README.md` for why each was chosen).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Cifar10Offline,
    ServeOpen,
    HttpClosed,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::Cifar10Offline, Workload::ServeOpen, Workload::HttpClosed];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Cifar10Offline => "cifar10-offline",
            Workload::ServeOpen => "serve-open",
            Workload::HttpClosed => "http-closed",
        }
    }

    fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL.into_iter().find(|w| w.name() == name).ok_or_else(|| {
            let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!("unknown workload {name:?} (known: {})", known.join(", "))
        })
    }
}

/// One measured run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// Compare mode: two sets of recorded runs and the spec that holds the
/// bounds.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareArgs {
    pub spec: PathBuf,
    pub base: PathBuf,
    pub change: PathBuf,
}

#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    Run(RunArgs),
    Compare(CompareArgs),
    /// One set-up in this process, timed by the parent run.
    Setup(Workload),
}

pub const USAGE: &str = "usage:
  perfbench --workload <cifar10-offline|serve-open|http-closed> --seed <n> --seconds <n> --trace <0|1>
  perfbench compare [--spec BENCHMARK.json] <base-runs.log> <change-runs.log>
  perfbench setup --workload <name>   (one set-up; a run starts these to time set-up)";

pub fn parse(args: &[String]) -> Result<Command, String> {
    if args.first().map(String::as_str) == Some("compare") {
        return parse_compare(&args[1..]).map(Command::Compare);
    }
    if args.first().map(String::as_str) == Some("setup") {
        return match &args[1..] {
            [flag, name] if flag == "--workload" => Workload::parse(name).map(Command::Setup),
            _ => Err("setup takes exactly --workload <name>".into()),
        };
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value()?)?),
            "--seed" => seed = Some(parse_u64(flag, value()?)?),
            "--seconds" => {
                let s = parse_u64(flag, value()?)?;
                if s == 0 {
                    return Err(
                        "--seconds must be at least 1: a run of 0 s measures nothing".into()
                    );
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                });
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Command::Run(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    }))
}

fn parse_compare(args: &[String]) -> Result<CompareArgs, String> {
    let mut spec = PathBuf::from("BENCHMARK.json");
    let mut files = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--spec" {
            spec = it.next().ok_or("--spec needs a path")?.into();
        } else if arg.starts_with("--") {
            return Err(format!("unknown argument {arg:?}"));
        } else {
            files.push(PathBuf::from(arg));
        }
    }
    match <[PathBuf; 2]>::try_from(files) {
        Ok([base, change]) => Ok(CompareArgs { spec, base, change }),
        Err(_) => Err("compare takes exactly two run logs: <base> <change>".into()),
    }
}

fn parse_u64(flag: &str, v: &str) -> Result<u64, String> {
    v.parse().map_err(|_| format!("{flag} takes a whole number, not {v:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_run() {
        let cmd = parse(&args("--workload serve-open --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            cmd,
            Command::Run(RunArgs {
                workload: Workload::ServeOpen,
                seed: 7,
                seconds: 10,
                trace: true
            })
        );
    }

    #[test]
    fn zero_is_honoured_or_refused_never_defaulted() {
        // Seed 0 and trace 0 are values like any other.
        let Command::Run(run) =
            parse(&args("--workload http-closed --seed 0 --seconds 1 --trace 0")).unwrap()
        else {
            panic!("expected a run");
        };
        assert_eq!((run.seed, run.trace), (0, false));
        // A zero-length run is refused, not silently lengthened.
        let err =
            parse(&args("--workload http-closed --seed 1 --seconds 0 --trace 0")).unwrap_err();
        assert!(err.contains("--seconds"), "{err}");
    }

    #[test]
    fn refuses_missing_unknown_and_malformed_settings() {
        for bad in [
            "--workload serve-open --seed 1 --seconds 5",
            "--workload nope --seed 1 --seconds 5 --trace 0",
            "--workload serve-open --seed -1 --seconds 5 --trace 0",
            "--workload serve-open --seed 1 --seconds 5 --trace 2",
            "--workload serve-open --seed 1 --seconds 5 --trace 0 --extra",
            "--workload",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?} must be refused");
        }
    }

    #[test]
    fn parses_compare() {
        let Command::Compare(c) = parse(&args("compare --spec s.json a.log b.log")).unwrap() else {
            panic!("expected compare");
        };
        assert_eq!((c.spec, c.base, c.change), ("s.json".into(), "a.log".into(), "b.log".into()));
        assert!(parse(&args("compare a.log")).is_err());
    }

    #[test]
    fn parses_setup() {
        assert_eq!(
            parse(&args("setup --workload http-closed")).unwrap(),
            Command::Setup(Workload::HttpClosed)
        );
        assert!(parse(&args("setup --workload http-closed --seed 1")).is_err());
        assert!(parse(&args("setup")).is_err());
    }
}
