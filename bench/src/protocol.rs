//! The parent side of a benchmark run: `BENCHMARK.json`, one child process
//! per repetition timed alongside the reference job, the checks that span
//! repetitions, and the aggregated metrics.

use crate::digest::{self, Fields, Golden};
use crate::reference;
use crate::stats::{self, Better};
use crate::workloads::{Checks, Rep, Workload};
use serde::Value;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// One metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// Direction and regression bound (end-to-end metrics only).
    pub better: Option<Better>,
    pub bound: Option<f64>,
}

/// The benchmark's description, compiled in from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    pub fn load() -> Result<Spec, String> {
        Spec::parse(include_str!("../../BENCHMARK.json"))
    }

    pub fn parse(text: &str) -> Result<Spec, String> {
        let root = serde_json::from_str(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| match &root[key] {
            Value::Array(items) => Ok(items.clone()),
            _ => Err(format!("BENCHMARK.json: `{key}` is not a list")),
        };
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m[f].as_str()
                            .map(str::to_string)
                            .ok_or(format!("BENCHMARK.json: {key} entry lacks `{f}`"))
                    };
                    Ok(MetricSpec {
                        name: field("name")?,
                        unit: field("unit")?,
                        better: m["better"].as_str().and_then(Better::from_name),
                        bound: m["bound"].as_f64(),
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: root["run_seconds"]
                .as_f64()
                .ok_or("BENCHMARK.json: no run_seconds")?,
            workloads: list("workloads")?
                .iter()
                .filter_map(|w| w["name"].as_str().map(str::to_string))
                .collect(),
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

/// One repetition as the parent sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub traced: bool,
    pub metrics: BTreeMap<String, (f64, String)>,
    pub checks: Checks,
    pub digest: Fields,
}

impl Sample {
    pub fn from_rep(rep: &Rep, traced: bool) -> Sample {
        Sample {
            traced,
            metrics: rep
                .metrics
                .iter()
                .map(|m| (m.name.clone(), (m.value, m.unit.to_string())))
                .collect(),
            checks: rep.checks.clone(),
            digest: rep.digest.clone(),
        }
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|(v, _)| *v)
    }

    /// Takes the end-to-end host times (unit `s`) and rates (unit `…/s`) to
    /// the reference speed, given the reference job's time right before this
    /// repetition, and records that time and the raw wall time as
    /// `host.reference_s` and `host.raw_wall_s`. Per-layer metrics stay as
    /// measured.
    pub fn at_reference_speed(&mut self, end_to_end: &[MetricSpec], reference_s: f64) {
        let scale = reference::scale(reference_s);
        if let Some(wall) = self.value("wall_s") {
            self.metrics
                .insert("host.raw_wall_s".into(), (wall, "s".into()));
        }
        for m in end_to_end {
            if let Some((value, unit)) = self.metrics.get_mut(&m.name) {
                if unit == "s" {
                    *value *= scale;
                } else if unit.ends_with("/s") {
                    *value /= scale;
                }
            }
        }
        self.metrics
            .insert("host.reference_s".into(), (reference_s, "s".into()));
    }

    /// The one-line JSON a child prints for its parent.
    pub fn encode(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(n, (v, u))| {
                (
                    n.clone(),
                    Value::Array(vec![Value::Number(*v), Value::String(u.clone())]),
                )
            })
            .collect();
        let strings = |v: &[String]| Value::Array(v.iter().cloned().map(Value::String).collect());
        let value = Value::Object(vec![
            ("traced".into(), Value::Bool(self.traced)),
            ("metrics".into(), Value::Object(metrics)),
            (
                "attempted".into(),
                Value::Number(self.checks.attempted as f64),
            ),
            ("failed".into(), Value::Number(self.checks.failed as f64)),
            ("failures".into(), strings(&self.checks.failures)),
            ("digest".into(), digest::fields_to_value(&self.digest)),
        ]);
        serde_json::to_string(&value).expect("in-memory JSON")
    }

    pub fn decode(line: &str) -> Result<Sample, String> {
        let bad = |what: &str| format!("malformed repetition report ({what})");
        let v = serde_json::from_str(line).map_err(|e| bad(&e.to_string()))?;
        let Value::Object(pairs) = &v["metrics"] else {
            return Err(bad("metrics"));
        };
        let mut metrics = BTreeMap::new();
        for (name, m) in pairs {
            let value = m[0].as_f64().ok_or_else(|| bad(name))?;
            let unit = m[1].as_str().ok_or_else(|| bad(name))?;
            metrics.insert(name.clone(), (value, unit.to_string()));
        }
        let failures = match &v["failures"] {
            Value::Array(items) => items
                .iter()
                .filter_map(|f| f.as_str().map(str::to_string))
                .collect(),
            _ => return Err(bad("failures")),
        };
        Ok(Sample {
            traced: v["traced"] == true,
            metrics,
            checks: Checks {
                attempted: v["attempted"].as_f64().ok_or_else(|| bad("attempted"))? as u64,
                failed: v["failed"].as_f64().ok_or_else(|| bad("failed"))? as u64,
                failures,
            },
            digest: digest::fields_from_value(&v["digest"]).ok_or_else(|| bad("digest"))?,
        })
    }
}

/// Times the reference job, then runs one repetition and reports its
/// end-to-end host times at the reference speed.
pub fn measure(spec: &Spec, workload: Workload, seed: u64, traced: bool) -> Result<Sample, String> {
    let reference_s = reference::run();
    let mut sample = spawn(workload, seed, traced)?;
    sample.at_reference_speed(&spec.end_to_end, reference_s);
    Ok(sample)
}

/// Runs one repetition in a fresh child process of this executable and
/// waits for it.
pub fn spawn(workload: Workload, seed: u64, traced: bool) -> Result<Sample, String> {
    let exe = std::env::current_exe()
        .map_err(|e| format!("cannot locate the benchmark executable: {e}"))?;
    let output = Command::new(exe)
        .args([
            "--child",
            workload.name(),
            "--seed",
            &seed.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a repetition: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{} repetition at seed {seed} failed: {}",
            workload.name(),
            output.status
        ));
    }
    let line = stdout.lines().last().ok_or("repetition printed nothing")?;
    Sample::decode(line)
}

/// All repetitions of one workload at one seed.
#[derive(Debug, Clone)]
pub struct Runs {
    pub workload: Workload,
    pub seed: u64,
    pub samples: Vec<Sample>,
}

impl Runs {
    pub fn new(workload: Workload, seed: u64) -> Runs {
        Runs {
            workload,
            seed,
            samples: Vec::new(),
        }
    }

    pub fn untraced(&self) -> impl Iterator<Item = &Sample> {
        self.samples.iter().filter(|s| !s.traced)
    }

    pub fn traced(&self) -> impl Iterator<Item = &Sample> {
        self.samples.iter().filter(|s| s.traced)
    }

    /// Every repetition's own checks, plus: all repetitions (traced or not)
    /// produced the same result, and it matches the golden digest of this
    /// seed when there is one.
    pub fn checks(&self, golden: &Golden) -> Checks {
        let mut checks = Checks::default();
        for s in &self.samples {
            checks.attempted += s.checks.attempted;
            checks.failed += s.checks.failed;
            checks.failures.extend(s.checks.failures.iter().cloned());
        }
        let Some(first) = self.samples.first() else {
            return checks;
        };
        let name = self.workload.name();
        for (i, s) in self.samples.iter().enumerate().skip(1) {
            checks.check(
                digest::combined(&s.digest) == digest::combined(&first.digest),
                || {
                    let field =
                        digest::first_difference(&first.digest, &s.digest).unwrap_or_default();
                    format!("{name}: repetition {i} differs from repetition 0 in `{field}`")
                },
            );
        }
        if let Some(expected) = golden.get(name, self.seed) {
            for (i, s) in self.samples.iter().enumerate() {
                let diff = digest::first_difference(expected, &s.digest);
                checks.check(diff.is_none(), || {
                    format!(
                        "{name}: repetition {i} at seed {} differs from bench/golden.json, first in `{}`",
                        self.seed,
                        diff.clone().unwrap_or_default()
                    )
                });
            }
        }
        checks
    }

    /// Per-repetition values of `name` over the untraced repetitions.
    pub fn values(&self, name: &str) -> Vec<f64> {
        self.untraced().filter_map(|s| s.value(name)).collect()
    }

    /// Medians of the end-to-end metrics over the untraced repetitions.
    pub fn end_to_end(&self, spec: &Spec) -> Result<Vec<(String, f64, String)>, String> {
        select(
            &spec.end_to_end,
            self.untraced().collect(),
            BTreeMap::new(),
            false,
        )
    }

    /// Medians of the per-layer metrics over the traced repetitions, plus
    /// the tracing overhead against the untraced wall time. A layer the
    /// workload never calls reads 0.
    pub fn per_layer(&self, spec: &Spec) -> Result<Vec<(String, f64, String)>, String> {
        let traced: Vec<&Sample> = self.traced().collect();
        let wall = |samples: Vec<f64>| {
            stats::median(&samples).ok_or("tracing overhead needs traced and untraced repetitions")
        };
        let untraced_wall = wall(self.values("wall_s"))?;
        let traced_wall = wall(traced.iter().filter_map(|s| s.value("wall_s")).collect())?;
        let mut extra = BTreeMap::new();
        extra.insert(
            "trace.overhead_pct".to_string(),
            (
                100.0 * (traced_wall - untraced_wall) / untraced_wall,
                "%".to_string(),
            ),
        );
        select(&spec.per_layer, traced, extra, true)
    }

    /// The repetitions' metrics as a JSON value (what `--compare` reads).
    pub fn to_value(&self) -> Value {
        let reps = |traced: bool| {
            Value::Array(
                self.samples
                    .iter()
                    .filter(|s| s.traced == traced)
                    .map(|s| {
                        Value::Object(
                            s.metrics
                                .iter()
                                .map(|(n, (v, _))| (n.clone(), Value::Number(*v)))
                                .collect(),
                        )
                    })
                    .collect(),
            )
        };
        Value::Object(vec![
            ("reps".into(), reps(false)),
            ("traced".into(), reps(true)),
        ])
    }
}

/// Picks every metric of `wanted` out of the samples (their median) or
/// `extra`, insisting on the unit `BENCHMARK.json` gives it. A metric no
/// sample measured is an error, or 0 when `absent_is_zero`.
fn select(
    wanted: &[MetricSpec],
    samples: Vec<&Sample>,
    extra: BTreeMap<String, (f64, String)>,
    absent_is_zero: bool,
) -> Result<Vec<(String, f64, String)>, String> {
    wanted
        .iter()
        .map(|m| {
            let found: Vec<&(f64, String)> = samples
                .iter()
                .filter_map(|s| s.metrics.get(&m.name))
                .collect();
            let (value, unit) = match (extra.get(&m.name), found.first()) {
                (Some((v, u)), _) => (*v, u.clone()),
                (None, Some((_, unit))) => {
                    let values: Vec<f64> = found.iter().map(|(v, _)| *v).collect();
                    (stats::median(&values).expect("non-empty"), unit.clone())
                }
                (None, None) if absent_is_zero => (0.0, m.unit.clone()),
                (None, None) => return Err(format!("metric `{}` was not measured", m.name)),
            };
            if unit != m.unit {
                return Err(format!(
                    "metric `{}` is measured in `{unit}`, BENCHMARK.json says `{}`",
                    m.name, m.unit
                ));
            }
            if !value.is_finite() {
                return Err(format!("metric `{}` is not finite", m.name));
            }
            Ok((m.name.clone(), value, unit))
        })
        .collect()
}

/// The result line: exactly `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(checks: &Checks, metrics: &[(String, f64, String)]) -> String {
    let metrics = metrics
        .iter()
        .map(|(n, v, u)| {
            (
                n.clone(),
                Value::Object(vec![
                    ("value".into(), Value::Number(*v)),
                    ("unit".into(), Value::String(u.clone())),
                ]),
            )
        })
        .collect();
    let value = Value::Object(vec![
        ("correct".into(), Value::Bool(checks.failed == 0)),
        ("attempted".into(), Value::Number(checks.attempted as f64)),
        ("failed".into(), Value::Number(checks.failed as f64)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&value).expect("in-memory JSON")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::run_rep;

    /// Each workload at 1% size, one untraced and one traced repetition
    /// in-process: every metric of BENCHMARK.json comes out with its unit,
    /// every per-layer metric is measured by some workload, and every check
    /// passes.
    #[test]
    fn every_workload_emits_every_listed_metric_and_passes_its_checks() {
        let spec = Spec::load().expect("BENCHMARK.json parses");
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(
            spec.workloads, names,
            "BENCHMARK.json lists the benchmark's workloads"
        );
        let mut measured = std::collections::BTreeSet::new();
        for workload in Workload::ALL {
            let mut runs = Runs::new(workload, 3);
            for traced in [false, true] {
                let mut sample = Sample::from_rep(&run_rep(workload, 3, 0.01, traced), traced);
                // What the parent reads is what the child measured.
                assert_eq!(Sample::decode(&sample.encode()).unwrap(), sample);
                sample.at_reference_speed(&spec.end_to_end, reference::NOMINAL_S);
                measured.extend(sample.metrics.keys().cloned());
                runs.samples.push(sample);
            }
            let checks = runs.checks(&Golden::default());
            assert!(checks.attempted > 0);
            assert_eq!(
                checks.failed,
                0,
                "{}: {:?}",
                workload.name(),
                checks.failures
            );
            let e2e = runs
                .end_to_end(&spec)
                .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
            assert_eq!(e2e.len(), spec.end_to_end.len());
            for (name, value, _) in &e2e {
                assert!(
                    *value > 0.0,
                    "{}: end-to-end `{name}` is {value}",
                    workload.name()
                );
            }
            let layers = runs
                .per_layer(&spec)
                .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
            assert_eq!(layers.len(), spec.per_layer.len());
        }
        for m in &spec.per_layer {
            assert!(
                m.name == "trace.overhead_pct" || measured.contains(&m.name),
                "no workload measures `{}`",
                m.name
            );
        }
    }

    #[test]
    fn the_spec_fixes_a_bound_and_direction_for_every_end_to_end_metric() {
        let spec = Spec::load().unwrap();
        assert!(spec.end_to_end.iter().any(|m| m.name == "setup_s"));
        for m in &spec.end_to_end {
            assert!(m.better.is_some(), "{}", m.name);
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", m.name);
        }
        assert!(spec.per_layer.len() <= 128);
    }

    #[test]
    fn end_to_end_host_times_and_rates_move_to_the_reference_speed() {
        let spec = Spec::load().unwrap();
        let mut sample = Sample {
            traced: true,
            metrics: [
                ("wall_s", 1.0, "s"),
                ("requests_per_s", 100.0, "req/s"),
                ("peak_rss_mb", 50.0, "MiB"),
                ("cluster.run_s", 0.9, "s"),
            ]
            .into_iter()
            .map(|(n, v, u)| (n.to_string(), (v, u.to_string())))
            .collect(),
            checks: Checks::default(),
            digest: Fields::new(),
        };
        // Measured while the reference job ran at half its nominal speed.
        sample.at_reference_speed(&spec.end_to_end, 2.0 * reference::NOMINAL_S);
        assert_eq!(sample.value("wall_s"), Some(0.5));
        assert_eq!(sample.value("requests_per_s"), Some(200.0));
        assert_eq!(sample.value("peak_rss_mb"), Some(50.0));
        assert_eq!(sample.value("cluster.run_s"), Some(0.9), "per-layer");
        assert_eq!(sample.value("host.raw_wall_s"), Some(1.0));
        assert_eq!(
            sample.value("host.reference_s"),
            Some(2.0 * reference::NOMINAL_S)
        );
    }

    #[test]
    fn the_result_line_has_exactly_the_four_keys() {
        let checks = Checks {
            attempted: 3,
            failed: 0,
            failures: Vec::new(),
        };
        let line = result_line(&checks, &[("wall_s".into(), 1.25, "s".into())]);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"wall_s":{"value":1.25,"unit":"s"}}}"#
        );
    }

    #[test]
    fn repetitions_that_disagree_fail_the_digest_check() {
        let sample = |d: u64| Sample {
            traced: false,
            metrics: BTreeMap::new(),
            checks: Checks::default(),
            digest: vec![("records".into(), 1), ("makespan".into(), d)],
        };
        let mut runs = Runs::new(Workload::Imdb300k, 1);
        runs.samples = vec![sample(7), sample(7)];
        assert_eq!(runs.checks(&Golden::default()).failed, 0);
        runs.samples.push(sample(8));
        let checks = runs.checks(&Golden::default());
        assert_eq!(checks.failed, 1);
        assert!(
            checks.failures[0].contains("`makespan`"),
            "{:?}",
            checks.failures
        );
        let mut golden = Golden::default();
        golden.set("imdb-300k", 1, sample(8).digest);
        assert_eq!(
            runs.checks(&golden).failed,
            3,
            "two repetitions miss the golden digest"
        );
    }
}
