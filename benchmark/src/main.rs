//! `pc-benchmark` - the repo's benchmark. See `README.md` beside this
//! package for the workloads, the metric catalogue and how to read a
//! result.
//!
//! ```text
//! pc-benchmark run     [--seed N] [--seconds S] [--smoke] [--dir D] [--conns N] [--out FILE]
//! pc-benchmark trace   --workload W [same flags] [--out trace.jsonl]
//! pc-benchmark compare A.json B.json
//! pc-benchmark --workload W --seed N --seconds S --trace 0|1      (one workload, one JSON line)
//! ```

mod bench;
mod data;
mod json;
mod layers;
mod replay;
mod report;
mod setup;
mod spec;
mod stats;
mod timed;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use bench::{measure, nproc, Options};
use json::Json;
use spec::Workload;

const USAGE: &str = "usage: pc-benchmark run|trace|compare ... (see benchmark/README.md)";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    dir: Option<PathBuf>,
    conns: Option<usize>,
    out: Option<PathBuf>,
    /// Print the full result object as the last line, not the driver's.
    full: bool,
    /// Write `trace.jsonl` (to `--out`, or into the data directory).
    write_trace: bool,
    positional: Vec<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 11,
        seconds: None,
        trace: false,
        smoke: false,
        dir: None,
        conns: None,
        out: None,
        full: false,
        write_trace: false,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag}: {e}");
        match flag.as_str() {
            "--workload" => {
                let name = val()?;
                a.workload =
                    Some(Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => a.seed = val()?.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = Some(val()?.parse().map_err(|e| bad(&e))?),
            "--trace" => a.trace = val()? != "0",
            "--conns" => a.conns = Some(val()?.parse().map_err(|e| bad(&e))?),
            "--dir" => a.dir = Some(PathBuf::from(val()?)),
            "--out" => a.out = Some(PathBuf::from(val()?)),
            "--smoke" => a.smoke = true,
            "--full" => a.full = true,
            other if other.starts_with("--") => {
                return Err(format!("unknown flag {other}\n{USAGE}"))
            }
            other => a.positional.push(other.to_string()),
        }
    }
    Ok(a)
}

/// Data files go beside the executable unless `--dir` says otherwise: that
/// is inside the build directory, so inside the checkout and ignored by
/// git. `/dev/shm` would take the device out of the numbers but lies
/// outside the checkout; pass `--dir /dev/shm/...` to use it by hand.
fn default_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    Ok(exe.parent().ok_or("executable has no directory")?.join("pc-benchmark-data"))
}

fn options(a: &Args, workload: Workload) -> Result<Options, String> {
    let conns = a.conns.unwrap_or_else(|| nproc().min(2));
    if conns == 0 || conns > nproc() {
        return Err(format!(
            "--conns {conns}: the client threads run in this process, so more connections than \
             hardware threads ({}) would measure the scheduler",
            nproc()
        ));
    }
    let dir = match &a.dir {
        Some(d) => d.clone(),
        None => default_dir()?,
    };
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {dir:?}: {e}"))?;
    Ok(Options {
        workload,
        seed: a.seed,
        // By default six 5 s slices after a 5 s warm-up; 1 s ones at smoke size.
        seconds: a.seconds.unwrap_or(if a.smoke { 6.0 } else { 30.0 }),
        trace: a.trace,
        smoke: a.smoke,
        dir,
        conns,
        trace_out: None,
    })
}

/// One workload in this process. The last line of standard output is the
/// result object.
fn one_workload(a: &Args) -> Result<bool, String> {
    let workload = a.workload.ok_or(USAGE)?;
    let mut o = options(a, workload)?;
    if a.trace && (a.write_trace || a.out.is_some()) {
        o.trace_out = Some(a.out.clone().unwrap_or_else(|| o.dir.join("trace.jsonl")));
    }
    let fs = report::fs_type(&o.dir);
    if fs != "tmpfs" {
        eprintln!(
            "[{}] data files on {fs}: fsync and checkpoint times are this device's",
            workload.name()
        );
    }
    let outcome = measure(&o)?;
    if let Some(path) = &o.trace_out {
        eprintln!("[{}] wrote {}", workload.name(), path.display());
    }
    if a.full {
        report::print_outcome(&outcome);
        println!("{}", report::outcome_json(&outcome));
    } else {
        for m in &outcome.messages {
            eprintln!("[{}] ! {m}", workload.name());
        }
        println!("{}", report::driver_json(&outcome, a.trace));
    }
    Ok(outcome.correct)
}

/// All four workloads, each in a child process of its own so that peak
/// memory and caches do not leak from one into the next.
fn run_all(a: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let probe = options(a, Workload::PointWarm)?;
    let out = match &a.out {
        Some(p) => p.clone(),
        None => probe.dir.join("result.json"),
    };
    let mut results = Vec::new();
    let mut all_correct = true;
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name(), "--trace", "1", "--full"])
            .arg("--out")
            .arg(probe.dir.join(format!("trace-{}.jsonl", w.name())))
            .args(["--seed", &a.seed.to_string()])
            .args(["--seconds", &probe.seconds.to_string()])
            .args(["--conns", &probe.conns.to_string()])
            .arg("--dir")
            .arg(&probe.dir)
            .stdout(Stdio::piped());
        if a.smoke {
            cmd.arg("--smoke");
        }
        let output = cmd.output().map_err(|e| format!("start {}: {e}", w.name()))?;
        let text = String::from_utf8_lossy(&output.stdout);
        let (report, last) = text.trim_end().rsplit_once('\n').unwrap_or(("", text.trim_end()));
        println!("{report}\n");
        let result = Json::parse(last).map_err(|e| {
            format!("{} exited with {} and no result: {e}", w.name(), output.status)
        })?;
        all_correct &= output.status.success() && result.get("correct") == Some(&Json::Bool(true));
        results.push(result);
    }
    let doc =
        Json::obj(vec![("header", report::header(&probe)), ("workloads", Json::Arr(results))]);
    std::fs::write(&out, format!("{doc}\n")).map_err(|e| format!("write {out:?}: {e}"))?;
    println!("header: {}", report::header(&probe));
    println!("wrote {}", out.display());
    Ok(all_correct)
}

fn dispatch() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.first().map(String::as_str) {
        Some(c @ ("run" | "trace" | "compare")) => (c, &argv[1..]),
        _ => ("", &argv[..]),
    };
    let mut a = parse(rest)?;
    match command {
        "run" => run_all(&a),
        "trace" => {
            a.trace = true;
            a.full = true;
            a.write_trace = true;
            one_workload(&a)
        }
        "compare" => match a.positional.as_slice() {
            [base, candidate] => {
                Ok(!report::compare(&PathBuf::from(base), &PathBuf::from(candidate))?)
            }
            _ => Err("compare takes two result files".to_string()),
        },
        _ => one_workload(&a),
    }
}

fn main() -> ExitCode {
    match dispatch() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("pc-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
