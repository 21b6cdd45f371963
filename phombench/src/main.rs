//! `phombench`: one workload run of the p-hom serving stack.
//!
//! ```text
//! phombench --workload <sharded-read|live-mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! An untraced run (`--trace 0`) prints the end-to-end metrics, a traced
//! run (`--trace 1`) the per-layer ones. Diagnostic lines come first
//! (`meta`, `graph`, `percentile`, `samples`, `exact`, `unmeasured`,
//! `failed`); the last line
//! of standard output is the result object
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
//! `run.py` beside this crate builds it and forwards the arguments;
//! `DESIGN.md` explains the workloads and metrics.

mod gate;
mod inputs;
mod run;
mod stats;

use std::process::ExitCode;

struct Args {
    workload: &'static run::Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    run::WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or(format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or(format!("--seconds must be 1..=600, got {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A JSON string literal.
fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; a non-finite value is not a measurement and prints 0.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The host's CPU model and its CPU count (the run itself may be pinned
/// to fewer CPUs; `available_parallelism` reports those).
fn cpu_info() -> (String, usize) {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = info
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or_else(|| "unknown".into(), |m| m.trim().to_owned());
    let cpus = info.lines().filter(|l| l.starts_with("processor")).count();
    (model, cpus)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("phombench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run::run(args.workload, args.seed, args.seconds, args.trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("phombench: {}: {e}", args.workload.name);
            return ExitCode::FAILURE;
        }
    };

    let (queries, updates, warmup) = report.op_counts;
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let (cpu_model, nproc) = cpu_info();
    println!(
        "meta {{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\
         \"cpus_used\":{},\"cpu_model\":{},\"rustc\":{},\"profile\":{},\"git_rev\":{},\
         \"queries\":{},\"update_batches\":{},\"warmup_queries\":{}}}",
        quoted(args.workload.name),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        quoted(&cpu_model),
        quoted(&env("PHOMBENCH_RUSTC")),
        quoted(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
        quoted(&env("PHOMBENCH_GIT_REV")),
        queries,
        updates,
        warmup,
    );
    for info in &report.graphs {
        println!("graph {}", info.to_json());
    }
    for (metric, p) in &report.percentiles {
        println!(
            "percentile {{\"metric\":{},\"samples\":{},\"beyond\":{},\"step\":{}}}",
            quoted(metric),
            p.samples,
            p.beyond,
            number(p.step)
        );
    }
    if !report.samples.is_empty() {
        let samples: Vec<String> = report
            .samples
            .iter()
            .map(|(k, n)| format!("{}:{n}", quoted(k)))
            .collect();
        println!("samples {{{}}}", samples.join(","));
    }
    let exact: Vec<String> = report
        .exact
        .iter()
        .map(|(k, v)| format!("{}:{}", quoted(k), number(*v)))
        .collect();
    println!("exact {{{}}}", exact.join(","));
    for (name, why) in &report.unmeasured {
        println!(
            "unmeasured {{\"name\":{},\"why\":{}}}",
            quoted(name),
            quoted(why)
        );
    }
    for f in &report.failures {
        println!("failed {}", quoted(f));
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                quoted(name),
                number(*v),
                quoted(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}
