//! Result digests and the committed golden file.
//!
//! A repetition's result is digested field by field (FNV-1a over the exact
//! bits of every number), outside the timed section. The parent process
//! checks that every repetition at a seed produced the same digest and, for
//! the seeds in `bench/golden.json`, that it matches the committed one; a
//! mismatch names the first differing field.

use hack_cluster::{RequestRecord, SimulationResult};
use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::path::Path;

/// 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn f32s(&mut self, vs: &[f32]) {
        for v in vs {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }

    pub fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.bytes(&[0]),
            Value::Bool(b) => self.bytes(&[1, u8::from(*b)]),
            Value::Number(n) => {
                self.bytes(&[2]);
                self.f64(*n);
            }
            Value::String(s) => {
                self.bytes(&[3]);
                self.u64(s.len() as u64);
                self.bytes(s.as_bytes());
            }
            Value::Array(items) => {
                self.bytes(&[4]);
                self.u64(items.len() as u64);
                items.iter().for_each(|item| self.value(item));
            }
            Value::Object(pairs) => {
                self.bytes(&[5]);
                self.u64(pairs.len() as u64);
                for (k, item) in pairs {
                    self.value(&Value::String(k.clone()));
                    self.value(item);
                }
            }
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Ordered `(field, digest)` pairs of one repetition's result.
pub type Fields = Vec<(String, u64)>;

fn record(h: &mut Fnv, r: &RequestRecord) {
    let q = &r.request;
    for v in [
        q.id,
        u64::from(q.tenant.0),
        q.input_len as u64,
        q.output_len as u64,
        q.session,
        q.parent.map_or(u64::MAX, |p| p),
        q.shared_prefix_tokens as u64,
        r.prefill_replica as u64,
        r.decode_replica as u64,
    ] {
        h.u64(v);
    }
    let b = &r.breakdown;
    for v in [
        q.arrival,
        r.finish_time,
        b.prefill,
        b.quantization,
        b.communication,
        b.dequant_or_approx,
        b.decode,
        b.queueing,
    ] {
        h.f64(v);
    }
}

/// Field digests of a simulation result: `records` first, then every other
/// serialized field in declaration order, each prefixed with `prefix`.
pub fn result_fields(prefix: &str, result: &mut SimulationResult, out: &mut Fields) {
    let records = std::mem::take(&mut result.records);
    let mut h = Fnv::default();
    records.iter().for_each(|r| record(&mut h, r));
    out.push((format!("{prefix}records"), h.finish()));
    if let Value::Object(pairs) = result.serialize_value() {
        for (key, value) in pairs.into_iter().filter(|(key, _)| key != "records") {
            let mut h = Fnv::default();
            h.value(&value);
            out.push((format!("{prefix}{key}"), h.finish()));
        }
    }
    result.records = records;
}

/// One digest over all fields (what "same result" means across repetitions).
pub fn combined(fields: &Fields) -> u64 {
    let mut h = Fnv::default();
    for (name, d) in fields {
        h.bytes(name.as_bytes());
        h.u64(*d);
    }
    h.finish()
}

/// The first field, in `expected` order, whose digest differs from or is
/// missing in `actual`; then the first field only `actual` has.
pub fn first_difference(expected: &Fields, actual: &Fields) -> Option<String> {
    for (name, d) in expected {
        match actual.iter().find(|(n, _)| n == name) {
            Some((_, a)) if a == d => {}
            Some(_) => return Some(name.clone()),
            None => return Some(format!("{name} (missing)")),
        }
    }
    actual
        .iter()
        .find(|(n, _)| !expected.iter().any(|(e, _)| e == n))
        .map(|(n, _)| format!("{n} (unexpected)"))
}

pub fn fields_to_value(fields: &Fields) -> Value {
    Value::Object(
        fields
            .iter()
            .map(|(n, d)| (n.clone(), Value::String(format!("{d:016x}"))))
            .collect(),
    )
}

pub fn fields_from_value(value: &Value) -> Option<Fields> {
    let Value::Object(pairs) = value else {
        return None;
    };
    pairs
        .iter()
        .map(|(n, v)| Some((n.clone(), u64::from_str_radix(v.as_str()?, 16).ok()?)))
        .collect()
}

/// The committed digests: workload → seed → fields.
#[derive(Debug, Default)]
pub struct Golden(BTreeMap<String, BTreeMap<u64, Fields>>);

impl Golden {
    /// Reads the golden file; a missing file is an empty set.
    pub fn load(path: &Path) -> Result<Golden, String> {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Golden::default()),
            Err(e) => return Err(format!("{}: {e}", path.display())),
        };
        let bad = || format!("{}: malformed golden file", path.display());
        let value = serde_json::from_str(&text).map_err(|_| bad())?;
        let Value::Object(workloads) = value else {
            return Err(bad());
        };
        let mut golden = Golden::default();
        for (workload, seeds) in workloads {
            let Value::Object(seeds) = seeds else {
                return Err(bad());
            };
            for (seed, fields) in seeds {
                let seed = seed.parse().map_err(|_| bad())?;
                golden.set(&workload, seed, fields_from_value(&fields).ok_or_else(bad)?);
            }
        }
        Ok(golden)
    }

    pub fn get(&self, workload: &str, seed: u64) -> Option<&Fields> {
        self.0.get(workload)?.get(&seed)
    }

    pub fn set(&mut self, workload: &str, seed: u64, fields: Fields) {
        self.0
            .entry(workload.to_string())
            .or_default()
            .insert(seed, fields);
    }

    pub fn save(&self, path: &Path) -> Result<(), String> {
        let value = Value::Object(
            self.0
                .iter()
                .map(|(w, seeds)| {
                    let seeds = seeds
                        .iter()
                        .map(|(s, f)| (s.to_string(), fields_to_value(f)))
                        .collect();
                    (w.clone(), Value::Object(seeds))
                })
                .collect(),
        );
        let text = serde_json::to_string_pretty(&value).map_err(|e| format!("{e:?}"))?;
        std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_difference_names_the_first_changed_field() {
        let a: Fields = vec![("records".into(), 1), ("makespan".into(), 2)];
        assert_eq!(first_difference(&a, &a), None);
        let b: Fields = vec![("records".into(), 1), ("makespan".into(), 3)];
        assert_eq!(first_difference(&a, &b).as_deref(), Some("makespan"));
        let c: Fields = vec![("records".into(), 1)];
        assert_eq!(
            first_difference(&a, &c).as_deref(),
            Some("makespan (missing)")
        );
        let mut d = a.clone();
        d.push(("extra".into(), 9));
        assert_eq!(
            first_difference(&a, &d).as_deref(),
            Some("extra (unexpected)")
        );
        assert_ne!(combined(&a), combined(&b));
    }

    #[test]
    fn fields_round_trip_through_json_values() {
        let a: Fields = vec![("x".into(), u64::MAX), ("y".into(), 0)];
        assert_eq!(fields_from_value(&fields_to_value(&a)), Some(a));
        let mut h1 = Fnv::default();
        h1.f64(0.0);
        let mut h2 = Fnv::default();
        h2.f64(-0.0);
        assert_ne!(h1.finish(), h2.finish(), "digests see exact bits");
    }
}
