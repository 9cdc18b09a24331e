//! Saving and loading generated traces.
//!
//! Trace synthesis is deterministic per seed, but exporting the exact
//! warp traces lets an experiment be archived, diffed, or replayed by an
//! external tool. The format is a versioned JSON envelope around the
//! externally-tagged representation of [`WarpTrace`]:
//!
//! ```json
//! {"version":1,"workload":"betw","seed":42,"traces":[
//!   {"ops":[{"Compute":5},
//!           {"Mem":{"base":4096,"kind":"Read","pattern":"Sequential","pc":7}},
//!           {"Mem":{"base":8192,"kind":"Write","pattern":{"Strided":128},"pc":9}}]}
//! ]}
//! ```
//!
//! Loading checks every integer against the width [`WarpOp`] stores it
//! in: `Compute` and `pc` at most 4 294 967 295 (`u32`), `Scatter` at
//! most 255 (`u8`), and `Strided` at most 16 383 B
//! ([`AccessPattern::MAX_STRIDE`]). A larger value is rejected with
//! [`Error::InvalidConfig`] naming the field and the value, never
//! truncated.

use std::fs;
use std::io::{Read as _, Write as _};
use std::path::Path;

use zng_gpu::{AccessPattern, PatternShape, WarpOp, WarpTrace};
use zng_json::Value;
use zng_types::{ids::Pc, AccessKind, Error, Result, VirtAddr};

/// On-disk trace bundle: one application's warp traces plus provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceBundle {
    /// Format version (bumped on breaking changes).
    pub version: u32,
    /// Workload name (Table II).
    pub workload: String,
    /// Seed the traces were generated from.
    pub seed: u64,
    /// One trace per warp.
    pub traces: Vec<WarpTrace>,
}

/// Current bundle format version.
pub const TRACE_FORMAT_VERSION: u32 = 1;

impl TraceBundle {
    /// Wraps freshly generated traces with provenance.
    pub fn new(workload: &str, seed: u64, traces: Vec<WarpTrace>) -> TraceBundle {
        TraceBundle {
            version: TRACE_FORMAT_VERSION,
            workload: workload.to_string(),
            seed,
            traces,
        }
    }

    /// Serialises the bundle as compact JSON.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if serialisation fails (cannot
    /// happen for well-formed traces).
    pub fn to_json(&self) -> Result<String> {
        let traces = self
            .traces
            .iter()
            .map(|t| {
                Value::object(vec![(
                    "ops",
                    Value::Array(t.ops().iter().map(op_to_json).collect()),
                )])
            })
            .collect();
        let doc = Value::object(vec![
            ("version", Value::from(self.version)),
            ("workload", Value::from(self.workload.as_str())),
            ("seed", Value::from(self.seed)),
            ("traces", Value::Array(traces)),
        ]);
        Ok(doc.to_string_compact())
    }

    /// Parses a bundle from JSON, validating the format version.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] on malformed JSON or an
    /// unsupported version.
    pub fn from_json(json: &str) -> Result<TraceBundle> {
        let doc =
            Value::parse(json).map_err(|e| Error::invalid_config("trace bundle", e.to_string()))?;
        let version = field_u64(&doc, "version")?;
        if version != u64::from(TRACE_FORMAT_VERSION) {
            return Err(Error::invalid_config(
                "trace bundle",
                format!("unsupported format version {version} (expected {TRACE_FORMAT_VERSION})"),
            ));
        }
        let workload = doc["workload"]
            .as_str()
            .ok_or_else(|| bad("missing `workload`"))?
            .to_string();
        let seed = field_u64(&doc, "seed")?;
        let traces = doc["traces"]
            .as_array()
            .ok_or_else(|| bad("missing `traces`"))?
            .iter()
            .map(trace_from_json)
            .collect::<Result<Vec<WarpTrace>>>()?;
        Ok(TraceBundle {
            version: TRACE_FORMAT_VERSION,
            workload,
            seed,
            traces,
        })
    }

    /// Writes the bundle to `path` as JSON.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] on I/O failure.
    pub fn save(&self, path: &Path) -> Result<()> {
        let json = self.to_json()?;
        let mut f = fs::File::create(path)
            .map_err(|e| Error::invalid_config("trace file", e.to_string()))?;
        f.write_all(json.as_bytes())
            .map_err(|e| Error::invalid_config("trace file", e.to_string()))
    }

    /// Loads a bundle from `path`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] on I/O or format failure.
    pub fn load(path: &Path) -> Result<TraceBundle> {
        let mut json = String::new();
        fs::File::open(path)
            .and_then(|mut f| f.read_to_string(&mut json))
            .map_err(|e| Error::invalid_config("trace file", e.to_string()))?;
        TraceBundle::from_json(&json)
    }

    /// Total memory operations across all warps.
    pub fn mem_ops(&self) -> usize {
        self.traces.iter().map(WarpTrace::mem_ops).sum()
    }
}

fn op_to_json(op: &WarpOp) -> Value {
    match *op {
        WarpOp::Compute(n) => Value::object(vec![("Compute", Value::from(n))]),
        WarpOp::Mem {
            base,
            kind,
            pattern,
            pc,
        } => {
            let kind = match kind {
                AccessKind::Read => "Read",
                AccessKind::Write => "Write",
            };
            let pattern = match pattern.shape() {
                PatternShape::Sequential => Value::from("Sequential"),
                PatternShape::Strided(s) => Value::object(vec![("Strided", Value::from(s))]),
                PatternShape::Scatter(n) => Value::object(vec![("Scatter", Value::from(n))]),
            };
            Value::object(vec![(
                "Mem",
                Value::object(vec![
                    ("base", Value::from(base.raw())),
                    ("kind", Value::from(kind)),
                    ("pattern", pattern),
                    ("pc", Value::from(pc.raw())),
                ]),
            )])
        }
    }
}

fn bad(why: impl Into<String>) -> Error {
    Error::invalid_config("trace bundle", why)
}

/// The error for an integer `field` whose `value` exceeds `max`.
fn out_of_range(field: &str, value: u64, max: u64) -> Error {
    bad(format!(
        "`{field}` value {value} exceeds its limit of {max}"
    ))
}

fn field_u64(v: &Value, key: &str) -> Result<u64> {
    v[key]
        .as_u64()
        .ok_or_else(|| bad(format!("missing or non-integer `{key}`")))
}

fn trace_from_json(v: &Value) -> Result<WarpTrace> {
    let ops = v["ops"]
        .as_array()
        .ok_or_else(|| bad("trace without `ops`"))?
        .iter()
        .map(op_from_json)
        .collect::<Result<Vec<WarpOp>>>()?;
    Ok(WarpTrace::new(ops))
}

fn op_from_json(v: &Value) -> Result<WarpOp> {
    if let Some(n) = v["Compute"].as_u64() {
        let n = u32::try_from(n).map_err(|_| out_of_range("Compute", n, u32::MAX.into()))?;
        return Ok(WarpOp::Compute(n));
    }
    let mem = &v["Mem"];
    if mem.as_object().is_some() {
        let kind = match mem["kind"].as_str() {
            Some("Read") => AccessKind::Read,
            Some("Write") => AccessKind::Write,
            other => return Err(bad(format!("unknown access kind {other:?}"))),
        };
        let pattern = pattern_from_json(&mem["pattern"])?;
        let pc = field_u64(mem, "pc")?;
        let pc = u32::try_from(pc).map_err(|_| out_of_range("pc", pc, u32::MAX.into()))?;
        return Ok(WarpOp::Mem {
            base: VirtAddr(field_u64(mem, "base")?),
            kind,
            pattern,
            pc: Pc(pc),
        });
    }
    Err(bad("op is neither `Compute` nor `Mem`"))
}

fn pattern_from_json(v: &Value) -> Result<AccessPattern> {
    if v.as_str() == Some("Sequential") {
        return Ok(AccessPattern::sequential());
    }
    if let Some(s) = v["Strided"].as_u64() {
        return u32::try_from(s)
            .ok()
            .and_then(|s| AccessPattern::strided(s).ok())
            .ok_or_else(|| out_of_range("Strided", s, AccessPattern::MAX_STRIDE.into()));
    }
    if let Some(n) = v["Scatter"].as_u64() {
        let n = u8::try_from(n).map_err(|_| out_of_range("Scatter", n, u8::MAX.into()))?;
        return Ok(AccessPattern::scatter(n));
    }
    Err(bad("unknown access pattern"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, TraceParams};
    use crate::table2::by_name;
    use zng_types::ids::AppId;

    fn bundle() -> TraceBundle {
        let spec = by_name("betw").unwrap();
        let params = TraceParams::tiny();
        TraceBundle::new("betw", params.seed, generate(&spec, AppId(0), &params))
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let b = bundle();
        let json = b.to_json().unwrap();
        let back = TraceBundle::from_json(&json).unwrap();
        assert_eq!(b, back);
        assert_eq!(back.workload, "betw");
        assert!(back.mem_ops() > 0);
    }

    #[test]
    fn file_roundtrip() {
        let b = bundle();
        let dir = std::env::temp_dir();
        let path = dir.join("zng_trace_test.json");
        b.save(&path).unwrap();
        let back = TraceBundle::load(&path).unwrap();
        assert_eq!(b, back);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn version_mismatch_rejected() {
        let b = bundle();
        let json = b
            .to_json()
            .unwrap()
            .replace("\"version\":1", "\"version\":99");
        assert!(TraceBundle::from_json(&json).is_err());
        // 2^32 + 1 would read as version 1 if truncated to 32 bits.
        let wrapped = one_op(r#"{"Compute":1}"#).replace("\"version\":1", "\"version\":4294967297");
        assert!(TraceBundle::from_json(&wrapped).is_err());
    }

    /// A one-op bundle whose op is `op` (JSON).
    fn one_op(op: &str) -> String {
        format!(r#"{{"version":1,"workload":"betw","seed":1,"traces":[{{"ops":[{op}]}}]}}"#)
    }

    fn mem_op(pattern: &str, pc: u64) -> String {
        one_op(&format!(
            r#"{{"Mem":{{"base":0,"kind":"Read","pattern":{pattern},"pc":{pc}}}}}"#
        ))
    }

    /// Loading `json` fails with a message naming `field` and `value`.
    fn assert_rejected(json: &str, field: &str, value: &str) {
        let err = TraceBundle::from_json(json).unwrap_err();
        assert!(matches!(err, Error::InvalidConfig { .. }), "{err:?}");
        let msg = err.to_string();
        assert!(
            msg.contains(&format!("`{field}`")) && msg.contains(value),
            "{msg}"
        );
    }

    #[test]
    fn compute_wider_than_u32_rejected() {
        let max = TraceBundle::from_json(&one_op(r#"{"Compute":4294967295}"#)).unwrap();
        assert_eq!(max.traces[0].ops(), &[WarpOp::Compute(u32::MAX)]);
        assert_rejected(
            &one_op(r#"{"Compute":4294967296}"#),
            "Compute",
            "4294967296",
        );
    }

    #[test]
    fn scatter_wider_than_u8_rejected() {
        let max = TraceBundle::from_json(&mem_op(r#"{"Scatter":255}"#, 0)).unwrap();
        assert!(matches!(
            max.traces[0].ops()[0],
            WarpOp::Mem { pattern, .. } if pattern.shape() == PatternShape::Scatter(255)
        ));
        assert_rejected(&mem_op(r#"{"Scatter":256}"#, 0), "Scatter", "256");
    }

    #[test]
    fn stride_above_limit_rejected() {
        let max = TraceBundle::from_json(&mem_op(r#"{"Strided":16383}"#, 0)).unwrap();
        assert!(matches!(
            max.traces[0].ops()[0],
            WarpOp::Mem { pattern, .. } if pattern.shape() == PatternShape::Strided(16_383)
        ));
        assert_rejected(&mem_op(r#"{"Strided":16384}"#, 0), "Strided", "16384");
        assert_rejected(
            &mem_op(r#"{"Strided":4294967424}"#, 0),
            "Strided",
            "4294967424",
        );
    }

    #[test]
    fn pc_wider_than_u32_rejected() {
        let max = TraceBundle::from_json(&mem_op(r#""Sequential""#, u32::MAX.into())).unwrap();
        assert!(matches!(
            max.traces[0].ops()[0],
            WarpOp::Mem { pc, .. } if pc == Pc(u32::MAX)
        ));
        assert_rejected(&mem_op(r#""Sequential""#, 1 << 32), "pc", "4294967296");
    }

    #[test]
    fn malformed_json_rejected() {
        assert!(TraceBundle::from_json("{not json").is_err());
        assert!(TraceBundle::from_json("{\"version\":1}").is_err());
        assert!(TraceBundle::load(Path::new("/nonexistent/zng")).is_err());
    }
}
