//! The Janus benchmark: one command per workload, end to end or traced
//! layer by layer, with correctness checks on every output.
//!
//! ```text
//! cargo run --offline --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train_dc_tcp|train_ec_local|serve_zipf_tcp|sim_paper_32gpu> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Detail lines go to stdout prefixed with
//! `#`; the last line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. The exit code is 0 only when every check held.
//! A traced run also writes its spans to
//! `.perfbench_out/<workload>.trace.json` (Chrome trace format).

mod probe;
mod report;
mod serve;
mod sim;
mod stats;
mod train;

use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::{Ctx, Report};

/// Where a traced run writes its Chrome trace, relative to the working
/// directory (the repository root).
const OUT_DIR: &str = ".perfbench_out";

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

/// Runs one workload.
type Workload = fn(&Ctx) -> Report;

/// The workloads, by name.
const WORKLOADS: &[(&str, Workload)] = &[
    ("train_dc_tcp", train::dc_tcp),
    ("train_ec_local", train::ec_local),
    ("serve_zipf_tcp", serve::run),
    ("sim_paper_32gpu", sim::run),
];

fn parse() -> Result<(&'static str, Workload, Ctx), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    let &(name, run) = WORKLOADS
        .iter()
        .find(|(n, _)| *n == workload)
        .ok_or_else(|| format!("unknown workload {workload}"))?;
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], not {seconds}"));
    }
    Ok((
        name,
        run,
        Ctx {
            seed: seed.ok_or("missing --seed")?,
            seconds: Duration::from_secs_f64(seconds),
            trace: trace.ok_or("missing --trace")?,
        },
    ))
}

fn main() -> ExitCode {
    let (name, run, ctx) = match parse() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // One compute thread per rank: with 2 ranks on a 2-core box, busy
    // threads never exceed the cores.
    janus_tensor::pool::set_threads(1);
    let start = Instant::now();
    let mut report = run(&ctx);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut env = vec![
        ("workload", name.to_string()),
        ("seed", ctx.seed.to_string()),
        ("trace", (ctx.trace as u8).to_string()),
        ("nproc", nproc.to_string()),
        ("simd", janus_tensor::simd::detected().to_string()),
        (
            "pool_threads_per_rank",
            janus_tensor::pool::threads().to_string(),
        ),
    ];
    env.append(&mut report.env);
    env.push(("wall_s", format!("{:.3}", start.elapsed().as_secs_f64())));
    for line in &report.notes {
        println!("# {line}");
    }
    let env: Vec<String> = env.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("# env {}", env.join(" "));
    let json = report.result_line(ctx.trace);
    for f in &report.failures {
        println!("# FAILED: {f}");
        eprintln!("FAILED: {f}");
    }
    println!("{json}");
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Write a traced run's spans once, as Chrome trace JSON, and check the
/// file with `janus_obs::validate_chrome_trace`.
fn write_trace(workload: &str, spans: &[probe::Span], report: &mut Report) {
    let json = probe::chrome_trace(spans);
    let path = Path::new(OUT_DIR).join(format!("{workload}.trace.json"));
    let written = std::fs::create_dir_all(OUT_DIR).and_then(|_| std::fs::write(&path, &json));
    report.check(written.is_ok(), || {
        format!("writing {}: {written:?}", path.display())
    });
    match janus_obs::validate_chrome_trace(&json) {
        Ok(events) => {
            report.set("trace.spans", events as f64);
            report.note(format!("trace: {events} spans -> {}", path.display()));
        }
        Err(e) => {
            report.check(false, || {
                format!("trace {} is invalid: {e}", path.display())
            });
        }
    }
}
