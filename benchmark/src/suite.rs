//! Whole-set modes: every workload in a child process of its own, the
//! results file, and `--check-repeat`.

use crate::spec::{Better, END_TO_END, WORKLOADS};
use crate::{Args, RunResult};
use blas_server::{json, Json};
use std::process::{Command, Stdio};

/// One finished set: `(workload, untraced, traced)`.
type Set = Vec<(&'static str, RunResult, Option<RunResult>)>;

fn parse_result(line: &str) -> Result<RunResult, String> {
    let v = json::parse(line).map_err(|e| format!("result line: {e}"))?;
    let int = |key: &str| {
        v.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("result line lacks {key}"))
    };
    let Some(Json::Obj(fields)) = v.get("metrics") else {
        return Err("result line lacks metrics".into());
    };
    let metrics = fields
        .iter()
        .map(|(name, m)| {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{name} lacks a value"))?;
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{name} lacks a unit"))?;
            Ok((name.clone(), value, unit.to_string()))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(RunResult {
        attempted: int("attempted")?,
        failed: int("failed")?,
        metrics,
    })
}

/// Re-execute this program for one workload and wait for it. The
/// child's report goes to our standard error; its last line is parsed.
fn run_child(workload: &str, args: &Args, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--scale", &args.scale.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    eprint!("{stdout}");
    if !out.status.success() {
        return Err(format!("the {workload} run exited with {}", out.status));
    }
    parse_result(stdout.lines().last().ok_or("the run printed nothing")?)
}

fn run_set(args: &Args) -> Result<Set, String> {
    WORKLOADS
        .iter()
        .map(|w| {
            let untraced = run_child(w.name, args, false)?;
            let traced = args
                .traced
                .then(|| run_child(w.name, args, true))
                .transpose()?;
            Ok((w.name, untraced, traced))
        })
        .collect()
}

/// The commit being measured, when the checkout is a git repository.
fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn header(args: &Args) -> Json {
    Json::Obj(vec![
        ("commit".into(), Json::str(commit())),
        (
            "nproc".into(),
            Json::uint(crate::load::available_parallelism() as u64),
        ),
        ("scale".into(), Json::uint(u64::from(args.scale))),
        ("seed".into(), Json::uint(args.seed)),
        ("seconds".into(), Json::Num(args.seconds)),
        (
            "transport".into(),
            Json::str("loopback TCP, server in the benchmark's own process"),
        ),
    ])
}

fn print_set(set: &Set) {
    print!("{:<16}", "workload");
    for m in END_TO_END {
        print!(" {:>13}", m.name.chars().take(13).collect::<String>());
    }
    println!(" {:>9} {:>6}", "ops", "failed");
    for (name, r, _) in set {
        print!("{name:<16}");
        for m in END_TO_END {
            print!(" {:>13.4}", r.metric(m.name).unwrap_or(f64::NAN));
        }
        println!(" {:>9} {:>6}", r.attempted, r.failed);
    }
    for (name, _, traced) in set {
        let Some(t) = traced else { continue };
        println!(
            "\n{name}: per layer ({} ops, {} failed)",
            t.attempted, t.failed
        );
        for (metric, value, unit) in &t.metrics {
            println!("  {metric:<36} {value:>14.4} {unit}");
        }
    }
}

fn write_results(args: &Args, sets: &[Set]) -> Result<(), String> {
    let runs = sets
        .iter()
        .map(|set| {
            Json::Obj(
                set.iter()
                    .map(|(name, r, traced)| {
                        let mut fields = vec![("end_to_end".to_string(), r.to_json())];
                        fields.extend(
                            traced
                                .iter()
                                .map(|t| ("per_layer".to_string(), t.to_json())),
                        );
                        (name.to_string(), Json::Obj(fields))
                    })
                    .collect(),
            )
        })
        .collect();
    let doc = Json::Obj(vec![
        ("header".into(), header(args)),
        ("sets".into(), Json::Arr(runs)),
    ]);
    let path = crate::setup::out_dir()?.join(format!("results_seed{}.json", args.seed));
    std::fs::write(&path, doc.to_string()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nresults written to {}", path.display());
    Ok(())
}

/// Relative difference of `second` against `first`, signed so that a
/// positive value is *worse* in the metric's own direction.
pub fn worsening(better: Better, first: f64, second: f64) -> f64 {
    match better {
        Better::Higher => (first - second) / first,
        Better::Lower => (second - first) / first,
    }
}

/// Compare two sets of the same build; `Err` lists every end-to-end
/// metric whose values differ by more than its bound.
fn compare(first: &Set, second: &Set) -> Result<(), String> {
    let mut outside = Vec::new();
    println!("\nrepeat check: second set against first, positive = worse");
    for ((name, a, _), (_, b, _)) in first.iter().zip(second) {
        for m in END_TO_END {
            let (x, y) = (
                a.metric(m.name).unwrap_or(f64::NAN),
                b.metric(m.name).unwrap_or(f64::NAN),
            );
            let w = worsening(m.better, x, y);
            // A missing value is NaN and must not pass.
            let inside = w.abs() <= m.bound;
            let verdict = if inside { "ok" } else { "OUTSIDE" };
            println!(
                "  {name:<16} {:<26} {x:>13.4} {y:>13.4} {:>+8.2}% (bound {:.0}%) {verdict}",
                m.name,
                w * 100.0,
                m.bound * 100.0
            );
            if !inside {
                outside.push(format!("{name}.{}", m.name));
            }
        }
        if a.failed + b.failed > 0 {
            outside.push(format!("{name}: {} failed operations", a.failed + b.failed));
        }
    }
    if outside.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "same-build reruns disagree: {}",
            outside.join(", ")
        ))
    }
}

/// The mode without `--workload`: the whole set once, or twice with
/// `--check-repeat`.
pub fn run(args: &Args) -> Result<(), String> {
    println!("header: {}", header(args));
    let first = run_set(args)?;
    print_set(&first);
    if !args.check_repeat {
        return write_results(args, &[first]);
    }
    let second = run_set(args)?;
    print_set(&second);
    let verdict = compare(&first, &second);
    write_results(args, &[first, second])?;
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(qps: f64, p50: f64) -> RunResult {
        RunResult {
            attempted: 100,
            failed: 0,
            metrics: END_TO_END
                .iter()
                .map(|m| {
                    let v = match m.name {
                        "qps" => qps,
                        "p50_us" => p50,
                        _ => 1.0,
                    };
                    (m.name.to_string(), v, m.unit.to_string())
                })
                .collect(),
        }
    }

    #[test]
    fn result_lines_round_trip() {
        let r = result(20_000.5, 91.25);
        assert_eq!(parse_result(&r.to_json().to_string()).unwrap(), r);
        assert!(parse_result("{}").is_err());
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert_eq!(worsening(Better::Higher, 100.0, 90.0), 0.10);
        assert_eq!(worsening(Better::Lower, 100.0, 110.0), 0.10);
        assert!(worsening(Better::Higher, 100.0, 110.0) < 0.0);
    }

    #[test]
    fn a_rerun_outside_a_bound_fails_the_repeat_check() {
        let first: Set = vec![("serve_hot_bin", result(20_000.0, 90.0), None)];
        let near: Set = vec![("serve_hot_bin", result(19_000.0, 93.0), None)];
        let far: Set = vec![("serve_hot_bin", result(10_000.0, 90.0), None)];
        assert!(compare(&first, &near).is_ok());
        let err = compare(&first, &far).unwrap_err();
        assert!(err.contains("serve_hot_bin.qps"), "{err}");
    }
}
