//! The repo's benchmark: served end-to-end workloads with a per-layer
//! latency budget. See `README.md` beside `Cargo.toml` for every
//! workload and metric, and `BENCHMARK.json` at the repo root for the
//! driver's contract.
//!
//! One invocation with `--workload` is one run in this process: build
//! the inputs from `--seed`, set up, measure for `--seconds`, check
//! every answer, print every metric by name, and end standard output
//! with one JSON object. Without `--workload` the whole set runs, each
//! workload in a child process of its own so caches, pools and
//! resident memory do not leak from one into the next.

mod load;
mod oracle;
mod script;
mod setup;
mod spec;
mod stats;
mod suite;
mod trace;

use blas_server::{Json, ServerConfig};
use blas_xml::Document;
use oracle::Oracle;
use script::Script;
use spec::Workload;
use std::process::ExitCode;

const USAGE: &str = "\
usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--scale K]
       benchmark [--seed N] [--seconds S] [--scale K] [--traced]   every workload, one child process each
       benchmark --check-repeat [--seed N] ...                     the whole set twice; fails outside a bound
       benchmark --smoke                                           scale 1, short slices, every workload

workloads: serve_hot_bin serve_hot_json plan_wide scan_heavy mixed_rw";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: u32,
    pub traced: bool,
    pub check_repeat: bool,
    pub smoke: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: spec::DEFAULT_SECONDS,
        trace: false,
        scale: spec::DEFAULT_SCALE,
        traced: false,
        check_repeat: false,
        smoke: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--scale" => args.scale = value()?.parse().map_err(|e| format!("--scale: {e}"))?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--traced" => args.traced = true,
            "--check-repeat" => args.check_repeat = true,
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    if args.scale == 0 {
        return Err("--scale must be at least 1".into());
    }
    if args.smoke {
        args.scale = 1;
        args.seconds = 4.0;
    }
    Ok(args)
}

/// What one run reports: the last line of standard output.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(String, f64, String)>,
}

impl RunResult {
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let m = Json::Obj(vec![
                    ("value".into(), Json::Num(*value)),
                    ("unit".into(), Json::str(unit.as_str())),
                ]);
                (name.clone(), m)
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.failed == 0)),
            ("attempted".into(), Json::uint(self.attempted)),
            ("failed".into(), Json::uint(self.failed)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

/// One run of one workload in this process.
fn run_one(name: &str, args: &Args) -> Result<RunResult, String> {
    let workload =
        spec::workload(name).ok_or_else(|| format!("unknown workload {name:?}\n{USAGE}"))?;
    let available = load::available_parallelism();
    let clients = if args.trace {
        1
    } else {
        load::CLIENTS.min(available)
    };
    load::check_thread_cap(clients, available)?;
    eprintln!(
        "[{name}] seed {} scale {} seconds {} trace {} clients {clients} nproc {available}",
        args.seed, args.scale, args.seconds, args.trace as u8
    );

    // Harness-only work, outside every metric: inputs and oracle.
    let xml = blas_datagen::auction(args.scale, args.seed);
    let doc = Document::parse(&xml).map_err(|e| format!("generated XML: {e}"))?;
    let script = script::build(workload, &doc, args.seed, clients)?;
    let cap = ServerConfig::default().result_cache_cap;
    if name == spec::PLAN_WIDE && script.per_client.iter().any(|ops| ops.len() <= cap) {
        return Err(format!(
            "plan_wide: a client's share of the pool no longer exceeds the result cache ({cap} entries)"
        ));
    }
    let oracle = Oracle::build(&script, &doc)?;
    drop(doc);
    eprintln!(
        "[{name}] {} distinct requests, {} oracle counts, script hash {:016x}",
        script.reads.len(),
        script.oracle_slots.len(),
        script.hash()
    );
    let result = if args.trace {
        run_traced(workload, xml, &script, &oracle, args.seconds)
    } else {
        run_load(workload, xml, &script, &oracle, args.seconds)
    }?;
    for (metric, value, unit) in &result.metrics {
        println!("  {metric:<36} {value:>14.4} {unit}");
    }
    Ok(result)
}

/// The per-layer pass: one set-up, both stores kept, one connection.
fn run_traced(
    workload: &Workload,
    xml: String,
    script: &Script,
    oracle: &Oracle,
    seconds: f64,
) -> Result<RunResult, String> {
    let name = workload.name;
    let dir = setup::out_dir()?;
    let (mut served, spans) = setup::set_up(workload, &xml, script, &dir, true)?;
    drop(xml);
    let outcome = trace::run(workload, &mut served, &spans, script, oracle, seconds, &dir);
    served.teardown();
    let outcome = outcome?;
    for e in &outcome.errors {
        eprintln!("[{name}] FAILED OP: {e}");
    }
    println!(
        "{name}: traced pass, spans in {}",
        outcome.spans_path.display()
    );
    let metrics = spec::PER_LAYER
        .iter()
        .map(|&(metric, unit)| {
            let value = outcome
                .metrics
                .get(metric)
                .ok_or_else(|| format!("no value for {metric}"))?;
            Ok((metric.to_string(), *value, unit.to_string()))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(RunResult {
        attempted: outcome.attempted,
        failed: outcome.failed,
        metrics,
    })
}

/// The end-to-end pass: several whole set-ups (`setup_s` is their
/// median, the last one serves), then the closed-loop load.
fn run_load(
    workload: &Workload,
    xml: String,
    script: &Script,
    oracle: &Oracle,
    seconds: f64,
) -> Result<RunResult, String> {
    let name = workload.name;
    let dir = setup::out_dir()?;
    let mut setups = Vec::with_capacity(spec::SETUP_REPS);
    let mut served: Option<setup::Served> = None;
    for _ in 0..spec::SETUP_REPS {
        if let Some(previous) = served.take() {
            previous.teardown();
        }
        let (s, spans) = setup::set_up(workload, &xml, script, &dir, false)?;
        setups.push(spans.total_s());
        served = Some(s);
    }
    drop(xml);
    let mut served = served.expect("SETUP_REPS is at least 1");
    let outcome = load::run(&mut served, script, oracle, seconds);
    let stored_per_xml = served.stored_bytes as f64 / served.xml_bytes as f64;
    served.teardown();
    let outcome = outcome?;
    for e in &outcome.errors {
        eprintln!("[{name}] FAILED OP: {e}");
    }
    let w = &outcome.window;
    println!(
        "{name}: {} ops in {} slices of {:.2} s",
        w.attempted,
        spec::SLICES,
        seconds / spec::SLICES as f64
    );
    for (i, s) in w.slices.iter().enumerate() {
        println!(
            "  slice {i}: {:>8} ops {:>4} failed  {:>10.1} ops/s  p50 {:>10.1} us  p99 {:>10.1} us",
            s.ops, s.failed, s.qps, s.p50_us, s.p99_us
        );
    }
    let c = &outcome.counters;
    println!(
        "  result cache {}/{} hits, plan cache {}/{} hits, {} overloaded, {} compactions",
        c.result_hits,
        c.result_hits + c.result_misses,
        c.plan_hits,
        c.plan_hits + c.plan_misses,
        c.overloaded,
        c.compactions
    );
    println!("  set-ups (s): {setups:.3?}");
    load::check_validity(workload, c)?;
    if w.slices.iter().any(|s| s.ops == 0) {
        return Err(format!(
            "{name}: a slice completed no operation; lengthen --seconds"
        ));
    }
    let values = [
        w.qps,
        w.p50_us,
        w.p99_us,
        stats::median(&setups),
        outcome.rss_mb,
        stored_per_xml,
    ];
    let metrics = spec::END_TO_END
        .iter()
        .zip(values)
        .map(|(m, value)| (m.name.to_string(), value, m.unit.to_string()))
        .collect();
    Ok(RunResult {
        attempted: w.attempted,
        failed: w.failed,
        metrics,
    })
}

/// Give every thread a malloc arena of its own, by re-executing once
/// with `MALLOC_ARENA_MAX` raised. glibc stops creating arenas at
/// 8 × cores; the server's default pools start more threads than that,
/// so which threads end up *sharing* an arena is decided by a race at
/// start-up and then holds for the life of the process. When the two
/// connection threads of `plan_wide` happened to share one, the same
/// build ran at 3 500 ops/s instead of 5 000 — in about one run in ten.
/// A benchmark has to take the same side of that coin every time; it
/// takes the common one. (An explicit `MALLOC_ARENA_MAX` is respected.)
#[cfg(unix)]
fn pin_allocator_arenas() {
    use std::os::unix::process::CommandExt;
    const VAR: &str = "MALLOC_ARENA_MAX";
    if std::env::var_os(VAR).is_some() {
        return;
    }
    let Ok(exe) = std::env::current_exe() else {
        return;
    };
    let err = std::process::Command::new(exe)
        .args(std::env::args_os().skip(1))
        .env(VAR, "1024")
        .exec();
    eprintln!(
        "benchmark: could not re-execute with {VAR} set ({err}); arena sharing is left to chance"
    );
}

fn main() -> ExitCode {
    #[cfg(unix)]
    pin_allocator_arenas();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &args.workload {
        Some(name) => run_one(name, &args).map(|result| println!("{}", result.to_json())),
        None => suite::run(&args),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_driver_command_line_parses() {
        let a = parse_args(&argv(
            "--workload plan_wide --seed 9 --seconds 15 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("plan_wide"));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.scale),
            (9, 15.0, true, spec::DEFAULT_SCALE)
        );
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--bogus")).is_err());
        let smoke = parse_args(&argv("--smoke")).unwrap();
        assert_eq!((smoke.scale, smoke.seconds), (1, 4.0));
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let r = RunResult {
            attempted: 10,
            failed: 1,
            metrics: vec![("qps".into(), 1234.5678, "1/s".into())],
        };
        assert_eq!(
            r.to_json().to_string(),
            r#"{"correct":false,"attempted":10,"failed":1,"metrics":{"qps":{"value":1234.5678,"unit":"1/s"}}}"#
        );
    }
}
