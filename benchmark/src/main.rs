//! The fastbn benchmark: four workloads, end-to-end metrics from a clean
//! run and per-layer metrics from a traced run. See `README.md`.
//!
//! ```text
//! fastbn-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! fastbn-benchmark all [--seed <n>] [--seconds <s>] [--quick] [--out <file>]
//! fastbn-benchmark compare <a.json> <b.json>
//! ```

mod bench;
mod check;
mod compare;
mod layers;
mod live;
mod machine;
mod model;
mod report;
mod runner;
mod scratch;
mod served;
mod spans;
mod stats;
mod streams;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use fastbn::telemetry::Json;

use bench::Plan;
use machine::Machine;
use model::Workload;

/// Seconds one run measures unless told otherwise; `run_seconds` of
/// `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 25;
/// Seconds one run measures under `--quick`.
const QUICK_SECONDS: f64 = 1.0;

/// Where traces and result files go: `out/` beside this crate's manifest.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

const USAGE: &str = "usage:
  fastbn-benchmark --workload <small-cliques|large-cliques|served-mix|live-edits>
                   [--seed <n>] [--seconds <s>] [--trace <0|1>] [--quick]
  fastbn-benchmark all [--seed <n>] [--seconds <s>] [--quick] [--out <file>]
  fastbn-benchmark compare <a.json> <b.json>";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    quick: bool,
    out: Option<String>,
    positional: Vec<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: None,
        traced: false,
        quick: false,
        out: None,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => out.workload = Some(value("--workload")?),
            "--seed" => {
                out.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                out.seconds = Some(s);
            }
            "--trace" => {
                out.traced = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                };
            }
            "--quick" => out.quick = true,
            "--out" => out.out = Some(value("--out")?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            word => out.positional.push(word.to_string()),
        }
    }
    Ok(out)
}

impl Args {
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.quick {
            QUICK_SECONDS
        } else {
            DEFAULT_SECONDS as f64
        })
    }
}

/// One run of one workload in this process.
fn run_one(args: &Args, name: &str) -> Result<ExitCode, String> {
    let workload = Workload::from_name(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let machine = Machine::detect();
    if machine.threads < 2 {
        return Err(format!(
            "{} logical CPU: there is no parallel configuration to measure",
            machine.nproc
        ));
    }
    let plan = Plan {
        workload,
        seed: args.seed,
        seconds: args.seconds(),
        quick: args.quick,
    };
    let mut report = if args.traced {
        bench::traced_run(&plan, &machine)
    } else {
        bench::clean_run(&plan, &machine)
    };
    if report.correct {
        let missing = report.metrics.missing();
        assert!(missing.is_empty(), "metrics not reported: {missing:?}");
    }
    report.notes.push(format!(
        "1-min load average at exit: {:.2}",
        machine::load_1m()
    ));
    report.print(&machine);
    Ok(if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Every workload, each run in a fresh child process (so set-up time and
/// peak memory are its own): first clean, then traced.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let machine = Machine::detect();
    let mut runs = Vec::new();
    let mut all_correct = true;
    for workload in Workload::ALL {
        for trace in ["0", "1"] {
            let mut child = Command::new(&exe);
            child
                .args(["--workload", workload.name(), "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds().to_string()])
                .stdout(Stdio::piped());
            if args.quick {
                child.arg("--quick");
            }
            let output = child
                .output()
                .map_err(|e| format!("cannot start the {} run: {e}", workload.name()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let mut detail = None;
            for line in stdout.lines() {
                match line.strip_prefix("detail ") {
                    Some(json) => detail = Some(json.to_string()),
                    // The child's last line is the driver's result object.
                    None if line.starts_with('{') => {}
                    None => println!("{line}"),
                }
            }
            let detail = detail
                .and_then(|d| Json::parse(&d).ok())
                .ok_or_else(|| format!("the {} run printed no result", workload.name()))?;
            all_correct &= output.status.success();
            runs.push(detail);
            println!();
        }
    }
    let result = Json::obj()
        .set("seed", args.seed)
        .set("seconds", args.seconds())
        .set("comparable", !args.quick)
        .set("machine", machine.to_json())
        .set("runs", Json::Arr(runs));
    let path = args.out.clone().map_or_else(
        || out_dir().join(format!("result-seed{}.json", args.seed)),
        PathBuf::from,
    );
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, result.to_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# results written to {}", path.display());
    if args.quick {
        println!("# QUICK MODE: a smoke check; these numbers compare with nothing");
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn dispatch(argv: &[String]) -> Result<ExitCode, String> {
    let args = parse(argv)?;
    let words: Vec<&str> = args.positional.iter().map(String::as_str).collect();
    match (&args.workload, words.as_slice()) {
        (Some(name), []) => run_one(&args, name),
        (None, ["all"]) => run_all(&args),
        (None, ["compare", a, b]) => Ok(if compare::run(a, b)? {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }),
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    dispatch(&argv).unwrap_or_else(|message| {
        eprintln!("{message}");
        ExitCode::from(2)
    })
}
