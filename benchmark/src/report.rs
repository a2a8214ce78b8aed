//! Result files, the printed report, and `compare`.

use std::path::Path;

use crate::bench::{nproc, Options, Outcome};
use crate::json::Json;
use crate::spec::{Better, Sizes, Workload, END_TO_END, PAGE_SIZE, PER_LAYER};

/// Filesystem type of the mount `path` lives on, from `/proc`.
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount).then_some((mount.len(), fs))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs.to_string())
}

/// The commit the benchmark was built from, when the checkout has one.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// What a reader needs to know before comparing two results.
pub fn header(o: &Options) -> Json {
    let nproc = nproc();
    let sizes = if o.smoke { Sizes::SMOKE } else { Sizes::FULL };
    Json::obj(vec![
        ("commit", Json::str(commit())),
        ("nproc", Json::Num(nproc as f64)),
        ("page_size", Json::Num(PAGE_SIZE as f64)),
        ("seed", Json::Num(o.seed as f64)),
        ("seconds", Json::Num(o.seconds)),
        ("dir", Json::str(o.dir.display().to_string())),
        ("dir_fs", Json::str(fs_type(&o.dir))),
        ("conns", Json::Num(o.conns as f64)),
        ("workers", Json::Num(nproc as f64)),
        ("points", Json::Num(sizes.points as f64)),
        ("intervals", Json::Num(sizes.intervals as f64)),
        ("prefix", Json::Num(sizes.prefix as f64)),
        ("smoke", Json::Bool(o.smoke)),
    ])
}

fn num(v: Option<f64>) -> Json {
    v.map_or(Json::Null, Json::Num)
}

/// Everything one workload measured.
pub fn outcome_json(o: &Outcome) -> Json {
    let end_to_end = END_TO_END
        .iter()
        .zip(&o.end_to_end)
        .map(|(m, v)| {
            let fields = vec![
                ("value", num(v.value)),
                ("unit", Json::str(m.unit)),
                ("spread", Json::Num(v.spread)),
                ("slices", Json::Arr(v.slices.iter().map(|&x| Json::Num(x)).collect())),
            ];
            (m.name.to_string(), Json::obj(fields))
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .zip(&o.per_layer)
        .map(|(m, &v)| {
            (m.0.to_string(), Json::obj(vec![("value", Json::Num(v)), ("unit", Json::str(m.1))]))
        })
        .collect();
    Json::obj(vec![
        ("workload", Json::str(o.workload.name())),
        ("correct", Json::Bool(o.correct)),
        ("attempted", Json::Num(o.attempted as f64)),
        ("failed", Json::Num(o.failed as f64)),
        ("end_to_end", Json::Obj(end_to_end)),
        ("per_layer", Json::Obj(per_layer)),
        ("notes", Json::Obj(o.notes.iter().map(|&(k, v)| (k.to_string(), Json::Num(v))).collect())),
        ("messages", Json::Arr(o.messages.iter().map(Json::str).collect())),
    ])
}

/// The one-line result the driver reads: the gated end-to-end metrics
/// without tracing, every per-layer metric with it. The end-to-end
/// metrics the driver does not gate travel with the per-layer ones (0
/// where not applicable).
pub fn driver_json(o: &Outcome, trace: bool) -> Json {
    let metric = |value: f64, unit: &str| {
        Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(unit))])
    };
    let e2e = END_TO_END.iter().zip(&o.end_to_end);
    let metrics: Vec<(String, Json)> = if trace {
        e2e.filter(|(m, _)| !m.gated)
            .map(|(m, v)| (m.name.to_string(), metric(v.value.unwrap_or(0.0), m.unit)))
            .chain(
                PER_LAYER.iter().zip(&o.per_layer).map(|(m, &v)| (m.0.to_string(), metric(v, m.1))),
            )
            .collect()
    } else {
        e2e.filter(|(m, _)| m.gated)
            .map(|(m, v)| (m.name.to_string(), metric(v.value.unwrap_or(0.0), m.unit)))
            .collect()
    };
    Json::obj(vec![
        ("correct", Json::Bool(o.correct)),
        ("attempted", Json::Num(o.attempted as f64)),
        ("failed", Json::Num(o.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// Prints every metric of one workload by name, with its unit.
pub fn print_outcome(o: &Outcome) {
    println!("== {} == {}", o.workload.name(), o.workload.why());
    println!("correct: {}   attempted: {}   failed: {}", o.correct, o.attempted, o.failed);
    for m in &o.messages {
        println!("  ! {m}");
    }
    println!("end-to-end:");
    for (m, v) in END_TO_END.iter().zip(&o.end_to_end) {
        match v.value {
            Some(value) => println!("  {:<40} {:>16.4} {}", m.name, value, m.unit),
            None => println!("  {:<40} {:>16} {}", m.name, "n/a", m.unit),
        }
    }
    if !o.per_layer.is_empty() {
        println!("per layer:");
        for (m, v) in PER_LAYER.iter().zip(&o.per_layer) {
            println!("  {:<40} {:>16.4} {}", m.0, v, m.1);
        }
    }
    println!("notes:");
    for (k, v) in &o.notes {
        println!("  {k:<40} {v:>16.4}");
    }
    if let Some(stacked) = &o.stacked {
        println!("traced pass:\n{stacked}");
    }
}

/// One `(metric, workload)` row of `compare`.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    Pass,
    Regress,
    Unresolved,
}

/// Judges one metric: `a` is the base, `b` the candidate. Counted metrics
/// repeat exactly, so any movement is either a regression (worse beyond
/// the bound) or left for the caller to explain. A timed metric that
/// worsened beyond its bound is a regression unless either run's own
/// slice-to-slice spread is wider than the bound.
pub fn judge(a: f64, b: f64, better: Better, bound: f64, exact: bool, spread: f64) -> Verdict {
    let worse_by = match better {
        Better::Lower => (b - a) / a.abs().max(f64::MIN_POSITIVE),
        Better::Higher => (a - b) / a.abs().max(f64::MIN_POSITIVE),
    };
    if a == b || (!exact && worse_by <= bound) {
        Verdict::Pass
    } else if worse_by > bound {
        if !exact && spread > bound {
            Verdict::Unresolved
        } else {
            Verdict::Regress
        }
    } else {
        Verdict::Unresolved
    }
}

fn workloads_of(doc: &Json) -> Result<Vec<(&str, &Json)>, String> {
    doc.get("workloads")
        .and_then(Json::as_arr)
        .ok_or("no \"workloads\" array")?
        .iter()
        .map(|w| {
            let name = w.get("workload").and_then(Json::as_str).ok_or("workload without a name")?;
            Ok((name, w.get("end_to_end").ok_or("workload without end_to_end")?))
        })
        .collect()
}

/// Prints one row per (end-to-end metric, workload) of two result files
/// and returns whether any row regressed.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let load = |p: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("read {p:?}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("parse {p:?}: {e}"))
    };
    let (a_doc, b_doc) = (load(a_path)?, load(b_path)?);
    let (a, b) = (workloads_of(&a_doc)?, workloads_of(&b_doc)?);
    println!(
        "{:<24} {:<14} {:>14} {:>14} {:>18} {:>7}  verdict",
        "metric", "workload", "A (base)", "B", "B/A", "bound"
    );
    let mut regressed = false;
    for m in &END_TO_END {
        for w in Workload::ALL {
            let field = |side: &[(&str, &Json)], key: &str| {
                side.iter()
                    .find(|(name, _)| *name == w.name())
                    .and_then(|(_, e2e)| e2e.get(m.name)?.get(key)?.as_f64())
            };
            let (Some(va), Some(vb)) = (field(&a, "value"), field(&b, "value")) else {
                if field(&a, "value").is_some() != field(&b, "value").is_some() {
                    return Err(format!("{} on {} is in only one file", m.name, w.name()));
                }
                continue; // n/a on this workload
            };
            let spread = field(&a, "spread").unwrap_or(0.0).max(field(&b, "spread").unwrap_or(0.0));
            let verdict = judge(va, vb, m.better, m.bound, m.exact, spread);
            regressed |= verdict == Verdict::Regress;
            let ratio =
                if va == 0.0 { "-".to_string() } else { format!("{:.4} of {:.4}", vb / va, va) };
            println!(
                "{:<24} {:<14} {:>14.4} {:>14.4} {:>18} {:>6.1}%  {}",
                m.name,
                w.name(),
                va,
                vb,
                ratio,
                m.bound * 100.0,
                match verdict {
                    Verdict::Pass => "pass",
                    Verdict::Regress => "REGRESS",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use Better::{Higher, Lower};

    #[test]
    fn verdicts() {
        // Timed, lower is better, 10% bound.
        assert_eq!(judge(100.0, 109.0, Lower, 0.10, false, 0.0), Verdict::Pass);
        assert_eq!(judge(100.0, 50.0, Lower, 0.10, false, 0.0), Verdict::Pass);
        assert_eq!(judge(100.0, 111.0, Lower, 0.10, false, 0.02), Verdict::Regress);
        assert_eq!(judge(100.0, 111.0, Lower, 0.10, false, 0.2), Verdict::Unresolved);
        // Higher is better.
        assert_eq!(judge(100.0, 95.0, Higher, 0.10, false, 0.0), Verdict::Pass);
        assert_eq!(judge(100.0, 85.0, Higher, 0.10, false, 0.0), Verdict::Regress);
        // Counted: identical passes, any other movement needs explaining.
        assert_eq!(judge(5.25, 5.25, Lower, 0.005, true, 0.0), Verdict::Pass);
        assert_eq!(judge(5.25, 5.26, Lower, 0.005, true, 0.0), Verdict::Unresolved);
        assert_eq!(judge(5.25, 5.20, Lower, 0.005, true, 0.0), Verdict::Unresolved);
        assert_eq!(judge(5.25, 5.40, Lower, 0.005, true, 0.0), Verdict::Regress);
        // fail_ratio: any increase from zero regresses.
        assert_eq!(judge(0.0, 0.0, Lower, 0.0, false, 0.0), Verdict::Pass);
        assert_eq!(judge(0.0, 0.001, Lower, 0.0, false, 0.0), Verdict::Regress);
    }

    #[test]
    fn fs_type_of_proc_is_proc() {
        assert_eq!(fs_type(Path::new("/proc/self")), "proc");
    }
}
