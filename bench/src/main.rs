//! The HACK reproduction's benchmark of record.
//!
//! ```text
//! cargo run --release --manifest-path bench/Cargo.toml -- --seed 1 [--trace 1]
//!     every workload, 10 repetitions each, round-robin
//! cargo run --release --manifest-path bench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload, repeated for <s> seconds; the last stdout line is the result
//! cargo run --release --manifest-path bench/Cargo.toml -- --compare BASE.json HEAD.json
//! cargo run --release --manifest-path bench/Cargo.toml -- --bless
//! ```
//!
//! Every repetition runs in a fresh single-threaded child process, one at a
//! time, so each pays cold caches and reports its own peak RSS. Right before
//! each, the parent times a fixed reference job, and the repetition's
//! end-to-end host times are reported at the reference speed, which cancels
//! most of the shared host's drift. See `bench/README.md` for the workloads,
//! metrics and bounds.

mod digest;
mod protocol;
mod reference;
mod spans;
mod stats;
mod workloads;

use digest::Golden;
use protocol::{Runs, Sample, Spec};
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{run_rep, Checks, Workload};

/// Repetitions per workload of a full run.
const FULL_REPS: usize = 10;
/// Seeds `--bless` records in `bench/golden.json`.
const GOLDEN_SEEDS: [u64; 2] = [1, 2];

fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn out_dir(sub: &str) -> Result<PathBuf, String> {
    let dir = bench_dir().join("target").join(sub);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

#[derive(Debug, Default)]
struct Args {
    workload: Option<Workload>,
    child: Option<Workload>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    bless: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

const USAGE: &str = "usage: hack-benchmark --seed <n> [--trace <0|1>]
       hack-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
       hack-benchmark --compare BASE.json HEAD.json
       hack-benchmark --bless";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    let workload = |v: String| Workload::from_name(&v).ok_or(format!("unknown workload `{v}`"));
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(workload(value("a name")?)?),
            "--child" => args.child = Some(workload(value("a name")?)?),
            "--seed" => {
                args.seed = Some(
                    value("a number")?
                        .parse()
                        .map_err(|_| "--seed takes a whole number")?,
                )
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds takes a number")?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--bless" => args.bless = true,
            "--compare" => {
                let base = value("two files")?;
                let head = value("two files")?;
                args.compare = Some((base.into(), head.into()));
            }
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    match parse_args(std::env::args().skip(1)).and_then(run) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: Args) -> Result<ExitCode, String> {
    let spec = Spec::load()?;
    if let Some(workload) = args.child {
        return child(
            workload,
            args.seed.ok_or("--child needs --seed")?,
            args.trace,
        );
    }
    if let Some((base, head)) = &args.compare {
        return compare(&spec, base, head);
    }
    let golden_path = bench_dir().join("golden.json");
    let mut golden = Golden::load(&golden_path)?;
    if args.bless {
        return bless(&mut golden, &golden_path);
    }
    let seed = args.seed.ok_or(format!("--seed is required\n{USAGE}"))?;
    match args.workload {
        Some(workload) => timed(
            &spec,
            &golden,
            workload,
            seed,
            args.seconds.unwrap_or(spec.run_seconds),
            args.trace,
        ),
        None => full(&spec, &golden, seed, args.trace),
    }
}

/// One repetition, reported on stdout; a traced one also writes its spans.
fn child(workload: Workload, seed: u64, traced: bool) -> Result<ExitCode, String> {
    let rep = run_rep(workload, seed, 1.0, traced);
    if traced {
        let dir = out_dir("trace")?;
        let stem = format!("{}-seed-{seed}", workload.name());
        let write = |name: String, text: String| {
            let path = dir.join(name);
            std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
        };
        write(
            format!("{stem}.json"),
            rep.tracer.chrome_json(workload.name()),
        )?;
        write(
            format!("{stem}-layers.txt"),
            rep.tracer.layer_table(workload.name(), rep.wall_s),
        )?;
    }
    println!("{}", Sample::from_rep(&rep, traced).encode());
    Ok(ExitCode::SUCCESS)
}

/// One workload, repeated for `seconds`: the form `BENCHMARK.json`'s command
/// takes. A repetition starts only if it is expected to end in time (after
/// the first few), so the run stays within `seconds`.
/// With tracing, untraced and traced repetitions alternate, so the tracing
/// overhead is measured against neighbours.
fn timed(
    spec: &Spec,
    golden: &Golden,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<ExitCode, String> {
    let mut runs = Runs::new(workload, seed);
    let start = Instant::now();
    let min_reps = if trace { 2 } else { 3 };
    let mut longest = 0.0f64;
    while runs.samples.len() < min_reps || start.elapsed().as_secs_f64() + longest <= seconds {
        let traced = trace && runs.samples.len() % 2 == 1;
        let rep_start = Instant::now();
        runs.samples
            .push(protocol::measure(spec, workload, seed, traced)?);
        longest = longest.max(rep_start.elapsed().as_secs_f64());
    }
    let checks = runs.checks(golden);
    let metrics = if trace {
        runs.per_layer(spec)?
    } else {
        runs.end_to_end(spec)?
    };
    report(&runs, &checks, &metrics);
    save_results(
        &format!("{}-seed-{seed}-trace-{}", workload.name(), u8::from(trace)),
        seed,
        &[&runs],
    )?;
    println!("{}", protocol::result_line(&checks, &metrics));
    Ok(ExitCode::SUCCESS)
}

/// Every workload, [`FULL_REPS`] repetitions each, round-robin so machine
/// drift spreads evenly; with tracing, one traced repetition each at the end.
fn full(spec: &Spec, golden: &Golden, seed: u64, trace: bool) -> Result<ExitCode, String> {
    let mut all: Vec<Runs> = Workload::ALL.iter().map(|w| Runs::new(*w, seed)).collect();
    for round in 0..FULL_REPS {
        for runs in &mut all {
            eprintln!(
                "[{} repetition {}/{FULL_REPS}]",
                runs.workload.name(),
                round + 1
            );
            runs.samples
                .push(protocol::measure(spec, runs.workload, seed, false)?);
        }
    }
    if trace {
        for runs in &mut all {
            eprintln!("[{} traced repetition]", runs.workload.name());
            runs.samples
                .push(protocol::measure(spec, runs.workload, seed, true)?);
        }
    }
    let mut total = Checks::default();
    for runs in &all {
        let checks = runs.checks(golden);
        let mut metrics = runs.end_to_end(spec)?;
        if trace {
            metrics.extend(runs.per_layer(spec)?);
        }
        report(runs, &checks, &metrics);
        total.attempted += checks.attempted;
        total.failed += checks.failed;
    }
    let path = save_results(
        &format!("seed-{seed}"),
        seed,
        &all.iter().collect::<Vec<_>>(),
    )?;
    println!("results: {}", path.display());
    println!(
        "checks: {} attempted, {} failed",
        total.attempted, total.failed
    );
    Ok(if total.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Prints every metric with its unit, the spread of the end-to-end ones, and
/// the failed checks.
fn report(runs: &Runs, checks: &Checks, metrics: &[(String, f64, String)]) {
    let traced = runs.traced().count();
    println!(
        "== {} (seed {}): {} repetitions, {traced} traced",
        runs.workload.name(),
        runs.seed,
        runs.samples.len() - traced
    );
    for (name, value, unit) in metrics {
        let values = runs.values(name);
        match (stats::quartiles(&values), stats::relative_iqr(&values)) {
            (Some([q1, _, q3]), Some(spread)) => println!(
                "  {name:<34} {value:>16.6} {unit:<9} q1 {q1:.6}  q3 {q3:.6}  iqr {:.2}%",
                100.0 * spread
            ),
            _ => println!("  {name:<34} {value:>16.6} {unit}"),
        }
    }
    println!(
        "  checks: {} attempted, {} failed",
        checks.attempted, checks.failed
    );
    for failure in &checks.failures {
        println!("  FAILED: {failure}");
    }
}

fn save_results(stem: &str, seed: u64, runs: &[&Runs]) -> Result<PathBuf, String> {
    let value = Value::Object(vec![
        ("seed".into(), Value::Number(seed as f64)),
        (
            "workloads".into(),
            Value::Object(
                runs.iter()
                    .map(|r| (r.workload.name().to_string(), r.to_value()))
                    .collect(),
            ),
        ),
    ]);
    let path = out_dir("results")?.join(format!("{stem}.json"));
    let text = serde_json::to_string_pretty(&value).map_err(|e| e.to_string())?;
    std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// Rewrites `bench/golden.json` from one repetition per workload and seed.
fn bless(golden: &mut Golden, path: &Path) -> Result<ExitCode, String> {
    for workload in Workload::ALL {
        for seed in GOLDEN_SEEDS {
            eprintln!("[bless {} seed {seed}]", workload.name());
            let sample = protocol::spawn(workload, seed, false)?;
            if sample.checks.failed > 0 {
                return Err(format!(
                    "{} seed {seed} fails its checks: {:?}",
                    workload.name(),
                    sample.checks.failures
                ));
            }
            golden.set(workload.name(), seed, sample.digest);
        }
    }
    golden.save(path)?;
    println!("wrote {}", path.display());
    Ok(ExitCode::SUCCESS)
}

/// Per-repetition values of every end-to-end metric, per workload, from a
/// results file.
fn load_results(path: &Path) -> Result<Vec<(String, Vec<Value>)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let value = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let Value::Object(workloads) = &value["workloads"] else {
        return Err(format!("{}: not a benchmark results file", path.display()));
    };
    Ok(workloads
        .iter()
        .map(|(name, w)| match &w["reps"] {
            Value::Array(reps) => (name.clone(), reps.clone()),
            _ => (name.clone(), Vec::new()),
        })
        .collect())
}

/// The two-commit comparison, per end-to-end metric and workload.
fn compare(spec: &Spec, base: &Path, head: &Path) -> Result<ExitCode, String> {
    let (base, head) = (load_results(base)?, load_results(head)?);
    println!(
        "{:<16} {:<20} {:>13} {:>27} {:>13} {:>27} {:>6}  verdict",
        "workload", "metric", "base median", "base q1..q3", "head median", "head q1..q3", "wins"
    );
    for (workload, base_reps) in &base {
        let Some((_, head_reps)) = head.iter().find(|(w, _)| w == workload) else {
            continue;
        };
        for m in &spec.end_to_end {
            let series = |reps: &[Value]| -> Vec<f64> {
                reps.iter()
                    .filter_map(|r| r[m.name.as_str()].as_f64())
                    .collect()
            };
            let (b, h) = (series(base_reps), series(head_reps));
            let (Some(better), Some(bound)) = (m.better, m.bound) else {
                continue;
            };
            let Some(c) = stats::compare(&b, &h, better, bound) else {
                println!("{workload:<16} {:<20} (fewer than two repetitions)", m.name);
                continue;
            };
            let med = |v: &[f64]| stats::median(v).unwrap_or(f64::NAN);
            println!(
                "{workload:<16} {:<20} {:>13.6} {:>13.6}..{:<13.6} {:>13.6} {:>13.6}..{:<13.6} {:>5.0}%  {} (bound {:.0}%)",
                m.name,
                med(&b),
                c.base_quartiles[0],
                c.base_quartiles[2],
                med(&h),
                c.head_quartiles[0],
                c.head_quartiles[2],
                100.0 * c.pair_wins,
                c.verdict.name(),
                100.0 * bound
            );
        }
    }
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn the_benchmark_command_line_parses() {
        let a = args("--workload kernel-decode --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(a.workload, Some(Workload::KernelDecode));
        assert_eq!((a.seed, a.seconds, a.trace), (Some(7), Some(20.0), true));
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--seed 1 --trace 2").is_err());
        assert!(args("--seconds -1").is_err());
        assert!(args("--frobnicate").is_err());
    }
}
