//! `gcbench` — the one benchmark of the GraphCache reproduction: four
//! workloads, named end-to-end metrics, and a traced run that attributes the
//! time to layers. See README.md beside this package for what each number
//! means and how the bounds were derived.
//!
//! ```text
//! gcbench --workload W --seed N --seconds S --trace 0|1   one run; last line is the result
//! gcbench all [--seed N] [--seconds S] [--runs R]         every workload, each in a child process
//! gcbench trace W [--seed N] [--seconds S]                the traced run of one workload
//! gcbench compare DIR_A DIR_B                             one verdict per (metric, workload)
//! gcbench selfcheck [--seed N] [--runs R]                 two sets from one build must agree
//! ```

mod layers;
mod openloop;
mod report;
mod run;
mod spans;
mod stats;
mod streams;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// Dataset size of every full run.
const GRAPHS: usize = 10_000;
/// What `--smoke` shrinks a run to: all four workloads within ten seconds.
const SMOKE: streams::Scale = streams::Scale { graphs: 1_000, seconds: 1 };
const DEFAULT_OUT: &str = "bench_results/gcbench";

struct Args {
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: usize,
    trace: bool,
    smoke: bool,
    corrupt: bool,
    /// Runs per workload of `all` (default 1) and `selfcheck` (default 5).
    runs: Option<usize>,
    /// Set by `all` on its children: which of several runs this one is.
    run_index: Option<usize>,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        positional: Vec::new(),
        workload: None,
        seed: 1,
        seconds: 10,
        trace: false,
        smoke: false,
        corrupt: false,
        runs: None,
        run_index: None,
        out: PathBuf::from(DEFAULT_OUT),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        let number = |name: &str, text: String| {
            text.parse::<u64>().map_err(|_| format!("{name}: {text:?} is not a whole number"))
        };
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => args.seed = number("--seed", value("--seed")?)?,
            "--seconds" => args.seconds = number("--seconds", value("--seconds")?)? as usize,
            "--trace" => args.trace = number("--trace", value("--trace")?)? != 0,
            "--runs" => args.runs = Some(number("--runs", value("--runs")?)? as usize),
            "--run-index" => {
                args.run_index = Some(number("--run-index", value("--run-index")?)? as usize)
            }
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--smoke" => args.smoke = true,
            "--corrupt" => args.corrupt = true,
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => args.positional.push(arg),
        }
    }
    if args.seconds == 0 || args.runs == Some(0) {
        return Err("--seconds and --runs must be at least 1".into());
    }
    Ok(args)
}

fn known_workload(name: &str) -> Result<(), String> {
    if streams::WORKLOADS.contains(&name) {
        Ok(())
    } else {
        Err(format!("unknown workload {name:?}; one of {:?}", streams::WORKLOADS))
    }
}

/// One run in this process. Exit code 0 only when no operation failed.
fn single(args: &Args, workload: &str, trace: bool) -> Result<bool, String> {
    known_workload(workload)?;
    let scale =
        if args.smoke { SMOKE } else { streams::Scale { graphs: GRAPHS, seconds: args.seconds } };
    let cfg = run::Config {
        workload: workload.to_string(),
        seed: args.seed,
        scale,
        trace,
        smoke: args.smoke,
        corrupt: args.corrupt,
        out: args.out.clone(),
    };
    let result = run::run(&cfg)?;
    let path = result.write(&args.out, args.run_index).map_err(|e| format!("write result: {e}"))?;
    result.print_table();
    println!("  wrote {}", path.display());
    println!("{}", result.contract_line());
    Ok(result.failed == 0)
}

/// Every workload, each in a child process of its own so that peak memory
/// and allocator state are per workload. Returns whether all succeeded.
fn all(args: &Args, runs: usize, out: &Path) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut ok = true;
    let mut lines = Vec::new();
    for k in 1..=runs {
        for workload in streams::WORKLOADS {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload, "--trace", "0"])
                .args(["--seed", &args.seed.to_string(), "--seconds", &args.seconds.to_string()])
                .arg("--out")
                .arg(out)
                .stdout(Stdio::piped());
            if runs > 1 {
                cmd.args(["--run-index", &k.to_string()]);
            }
            if args.smoke {
                cmd.arg("--smoke");
            }
            let output = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
            let text = String::from_utf8_lossy(&output.stdout);
            print!("{text}");
            ok &= output.status.success();
            if let Some(last) = text.lines().last() {
                lines
                    .push(format!("{{\"workload\":\"{workload}\",\"run\":{k},\"result\":{last}}}"));
            }
        }
    }
    // This benchmark is an instrument: it claims no gain.
    println!(
        "{{\"benchmark\":\"gcbench\",\"seed\":{},\"runs\":[{}],\"claim\":null}}",
        args.seed,
        lines.join(",")
    );
    Ok(ok)
}

fn dispatch(args: &Args) -> Result<bool, String> {
    let command = args.positional.first().map(String::as_str);
    match (command, &args.workload) {
        (None, Some(workload)) => single(args, workload, args.trace),
        (Some("trace"), _) => {
            let workload = args.positional.get(1).ok_or("trace needs a workload")?;
            single(args, workload, true)
        }
        (Some("all"), _) => all(args, args.runs.unwrap_or(1), &args.out),
        (Some("compare"), _) => {
            let [_, a, b] = args.positional.as_slice() else {
                return Err("compare needs two result directories".into());
            };
            let changed = report::compare(Path::new(a), Path::new(b))?;
            println!("{changed} row(s) not unchanged");
            Ok(true)
        }
        (Some("selfcheck"), _) => {
            let (a, b) = (args.out.join("selfcheck-a"), args.out.join("selfcheck-b"));
            for dir in [&a, &b] {
                let _ = std::fs::remove_dir_all(dir);
                if !all(args, args.runs.unwrap_or(5), dir)? {
                    return Err("a run failed".into());
                }
            }
            let changed = report::compare(&a, &b)?;
            println!("selfcheck: {changed} row(s) not unchanged");
            Ok(changed == 0)
        }
        _ => Err("usage: gcbench --workload W --seed N --seconds S --trace 0|1 | all | trace W | \
                  compare A B | selfcheck"
            .into()),
    }
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| dispatch(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("gcbench: {message}");
            ExitCode::from(2)
        }
    }
}
