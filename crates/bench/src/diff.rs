//! Regression diff over benchmark artifacts (`BENCH_*.json`, `RunSummary`).
//!
//! The simulated `BENCH_*.json` goldens are held byte for byte by the
//! tests of the experiments that render them; comparing two runs'
//! [`RunSummary`](zipf_lm::RunSummary) artifacts, or a bench table
//! against an earlier one, needs more. A byte diff is too
//! brittle once tolerances enter the picture (a deliberate perf win
//! should not trip the gate, and a float-formatting change should not
//! hide a real regression), so this module parses both artifacts into
//! a flat `path -> leaf` map and compares leaf-by-leaf:
//!
//! - **structural drift** (a path present on one side only, or a type
//!   change) always fails — schema changes must update the golden;
//! - **numeric leaves** pass when the *relative* difference
//!   `|candidate - golden| / max(|golden|, 1)` is within the
//!   tolerance for that path (default `0`, i.e. exact). Tolerances are
//!   two-sided: an unexplained improvement is as suspicious as a
//!   regression and also needs a golden refresh;
//! - **string / bool / null leaves** must match exactly.
//!
//! Tolerance rules are `(pattern, tol)` pairs; a rule applies to every
//! path that contains `pattern` as a substring, and the *last* matching
//! rule wins so callers can layer a broad rule then tighten specific
//! paths. The parser is a self-contained recursive-descent JSON reader
//! (no external crates), strict enough for the artifacts we emit:
//! objects, arrays, strings with `\"`-style escapes, numbers, booleans
//! and `null`.

use std::fmt;

/// One leaf value in a flattened artifact.
#[derive(Debug, Clone, PartialEq)]
pub enum Leaf {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
}

impl fmt::Display for Leaf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Leaf::Null => write!(f, "null"),
            Leaf::Bool(b) => write!(f, "{b}"),
            Leaf::Num(n) => write!(f, "{n}"),
            Leaf::Str(s) => write!(f, "{s:?}"),
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Leaf(Leaf),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: &str) -> String {
        format!("json parse error at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Leaf(Leaf::Str(self.string()?))),
            Some(b't') => self.literal("true", Json::Leaf(Leaf::Bool(true))),
            Some(b'f') => self.literal("false", Json::Leaf(Leaf::Bool(false))),
            Some(b'n') => self.literal("null", Json::Leaf(Leaf::Null)),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9') | Some(b'.') | Some(b'e') | Some(b'E') | Some(b'+') | Some(b'-')
        ) {
            self.pos += 1;
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| self.err("bad utf8"))?;
        text.parse::<f64>()
            .map(|n| Json::Leaf(Leaf::Num(n)))
            .map_err(|_| self.err(&format!("bad number '{text}'")))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        _ => return Err(self.err("unsupported escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the full UTF-8 scalar, not just one byte.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("bad utf8"))?;
                    let ch = rest
                        .chars()
                        .next()
                        .ok_or_else(|| self.err("eof in string"))?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
                None => return Err(self.err("eof in string")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }
}

fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser::new(text);
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after JSON value"));
    }
    Ok(v)
}

fn flatten_into(prefix: &str, v: &Json, out: &mut Vec<(String, Leaf)>) {
    match v {
        Json::Leaf(l) => out.push((prefix.to_string(), l.clone())),
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                flatten_into(&format!("{prefix}[{i}]"), item, out);
            }
            // An empty array is itself a structural fact.
            if items.is_empty() {
                out.push((format!("{prefix}[]"), Leaf::Null));
            }
        }
        Json::Obj(fields) => {
            for (k, val) in fields {
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                flatten_into(&path, val, out);
            }
            if fields.is_empty() {
                out.push((format!("{prefix}{{}}"), Leaf::Null));
            }
        }
    }
}

/// Parse a JSON artifact and flatten it to sorted `(path, leaf)` pairs.
pub fn flatten(text: &str) -> Result<Vec<(String, Leaf)>, String> {
    let v = parse(text)?;
    let mut out = Vec::new();
    flatten_into("", &v, &mut out);
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}

/// Tolerance configuration for [`diff`].
#[derive(Debug, Clone, Default)]
pub struct Tolerances {
    /// Relative tolerance applied when no rule matches. `0.0` = exact.
    pub default_tol: f64,
    /// `(substring-pattern, tol)` rules; the last matching rule wins.
    pub rules: Vec<(String, f64)>,
}

impl Tolerances {
    fn for_path(&self, path: &str) -> f64 {
        let mut tol = self.default_tol;
        for (pat, t) in &self.rules {
            if path.contains(pat.as_str()) {
                tol = *t;
            }
        }
        tol
    }
}

/// One failed comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum Finding {
    /// Path exists only in the golden artifact.
    MissingInCandidate { path: String },
    /// Path exists only in the candidate artifact.
    MissingInGolden { path: String },
    /// Leaf kind changed (e.g. number -> string) or a non-numeric leaf
    /// value changed.
    ValueChanged {
        path: String,
        golden: Leaf,
        candidate: Leaf,
    },
    /// Numeric leaf moved outside its relative tolerance.
    OutOfTolerance {
        path: String,
        golden: f64,
        candidate: f64,
        rel: f64,
        tol: f64,
    },
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Finding::MissingInCandidate { path } => {
                write!(f, "drift: `{path}` present in golden, missing in candidate")
            }
            Finding::MissingInGolden { path } => {
                write!(f, "drift: `{path}` present in candidate, missing in golden")
            }
            Finding::ValueChanged {
                path,
                golden,
                candidate,
            } => write!(f, "changed: `{path}` golden={golden} candidate={candidate}"),
            Finding::OutOfTolerance {
                path,
                golden,
                candidate,
                rel,
                tol,
            } => write!(
                f,
                "regression: `{path}` golden={golden} candidate={candidate} \
                 (rel diff {rel:.6} > tol {tol})"
            ),
        }
    }
}

/// Result of comparing two artifacts.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Leaves compared (paths present on both sides).
    pub compared: usize,
    /// All failures, in path order.
    pub findings: Vec<Finding>,
}

impl DiffReport {
    /// True when the candidate is within tolerance of the golden.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Relative difference `|c - g| / max(|g|, 1)`.
///
/// The `max(.., 1)` floor keeps near-zero goldens (e.g. `hidden_ps: 0`
/// in a flat run) from turning any nonzero candidate into an infinite
/// relative error; below 1 unit the comparison degrades to absolute.
fn rel_diff(golden: f64, candidate: f64) -> f64 {
    (candidate - golden).abs() / golden.abs().max(1.0)
}

/// Compare two flattened-JSON artifacts under `tols`.
pub fn diff(
    golden_text: &str,
    candidate_text: &str,
    tols: &Tolerances,
) -> Result<DiffReport, String> {
    let golden = flatten(golden_text).map_err(|e| format!("golden: {e}"))?;
    let candidate = flatten(candidate_text).map_err(|e| format!("candidate: {e}"))?;
    let mut report = DiffReport::default();
    let (mut gi, mut ci) = (0, 0);
    while gi < golden.len() || ci < candidate.len() {
        match (golden.get(gi), candidate.get(ci)) {
            (Some((gp, gv)), Some((cp, cv))) if gp == cp => {
                report.compared += 1;
                match (gv, cv) {
                    (Leaf::Num(g), Leaf::Num(c)) => {
                        let tol = tols.for_path(gp);
                        let rel = rel_diff(*g, *c);
                        if rel > tol {
                            report.findings.push(Finding::OutOfTolerance {
                                path: gp.clone(),
                                golden: *g,
                                candidate: *c,
                                rel,
                                tol,
                            });
                        }
                    }
                    _ if gv == cv => {}
                    _ => report.findings.push(Finding::ValueChanged {
                        path: gp.clone(),
                        golden: gv.clone(),
                        candidate: cv.clone(),
                    }),
                }
                gi += 1;
                ci += 1;
            }
            (Some((gp, _)), Some((cp, _))) if gp < cp => {
                report
                    .findings
                    .push(Finding::MissingInCandidate { path: gp.clone() });
                gi += 1;
            }
            (Some(_), Some((cp, _))) => {
                report
                    .findings
                    .push(Finding::MissingInGolden { path: cp.clone() });
                ci += 1;
            }
            (Some((gp, _)), None) => {
                report
                    .findings
                    .push(Finding::MissingInCandidate { path: gp.clone() });
                gi += 1;
            }
            (None, Some((cp, _))) => {
                report
                    .findings
                    .push(Finding::MissingInGolden { path: cp.clone() });
                ci += 1;
            }
            (None, None) => unreachable!("loop condition"),
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOLDEN: &str = r#"{
  "bench": "overlap",
  "rows": [
    {"gpus": 48, "sim_time_ps": 6280560483, "train_loss": 3.850323581175568},
    {"gpus": 192, "sim_time_ps": 25758019683, "train_loss": 3.8349035708169037}
  ]
}"#;

    #[test]
    fn identical_artifacts_are_clean() {
        let r = diff(GOLDEN, GOLDEN, &Tolerances::default()).unwrap();
        assert!(r.is_clean(), "{:?}", r.findings);
        assert_eq!(r.compared, 7);
    }

    #[test]
    fn perturbed_number_fails_at_zero_tol_and_passes_within_tol() {
        let cand = GOLDEN.replace("6280560483", "6290560483"); // ~0.16% slower
        let strict = diff(GOLDEN, &cand, &Tolerances::default()).unwrap();
        assert_eq!(strict.findings.len(), 1);
        assert!(matches!(
            strict.findings[0],
            Finding::OutOfTolerance { ref path, .. } if path == "rows[0].sim_time_ps"
        ));
        let loose = diff(
            GOLDEN,
            &cand,
            &Tolerances {
                default_tol: 0.01,
                rules: vec![],
            },
        )
        .unwrap();
        assert!(loose.is_clean(), "{:?}", loose.findings);
    }

    #[test]
    fn tolerance_is_two_sided() {
        // An "improvement" outside tolerance also fails: goldens must
        // be refreshed deliberately, not drift silently.
        let cand = GOLDEN.replace("6280560483", "5280560483");
        let r = diff(
            GOLDEN,
            &cand,
            &Tolerances {
                default_tol: 0.05,
                rules: vec![],
            },
        )
        .unwrap();
        assert_eq!(r.findings.len(), 1);
    }

    #[test]
    fn last_matching_rule_wins() {
        let tols = Tolerances {
            default_tol: 0.0,
            rules: vec![("rows".into(), 0.5), ("sim_time_ps".into(), 0.001)],
        };
        assert_eq!(tols.for_path("rows[0].sim_time_ps"), 0.001);
        assert_eq!(tols.for_path("rows[0].train_loss"), 0.5);
        assert_eq!(tols.for_path("bench"), 0.0);
    }

    #[test]
    fn structural_drift_always_fails() {
        let missing = GOLDEN.replace(", \"train_loss\": 3.850323581175568", "");
        let r = diff(GOLDEN, &missing, &Tolerances::default()).unwrap();
        assert!(r.findings.iter().any(
            |f| matches!(f, Finding::MissingInCandidate { path } if path == "rows[0].train_loss")
        ));

        let extra = GOLDEN.replace(
            "\"bench\": \"overlap\"",
            "\"bench\": \"overlap\", \"extra\": 1",
        );
        let r = diff(GOLDEN, &extra, &Tolerances::default()).unwrap();
        assert!(r
            .findings
            .iter()
            .any(|f| matches!(f, Finding::MissingInGolden { path } if path == "extra")));
    }

    #[test]
    fn type_change_is_value_changed() {
        let cand = GOLDEN.replace("\"overlap\"", "42");
        let r = diff(GOLDEN, &cand, &Tolerances::default()).unwrap();
        assert_eq!(r.findings.len(), 1);
        assert!(matches!(r.findings[0], Finding::ValueChanged { .. }));
    }

    #[test]
    fn run_summary_artifact_round_trips_through_the_differ() {
        use zipf_lm::{config_fingerprint, MetricsConfig, TrainConfig};
        let cfg = TrainConfig {
            metrics: MetricsConfig::on(),
            ..TrainConfig::default()
        };
        // Sanity: fingerprint renders and the differ parses a real
        // RunSummary artifact produced by the trainer-side encoder.
        assert_eq!(format!("{:016x}", config_fingerprint(&cfg)).len(), 16);
        let rep = zipf_lm::train(&cfg).expect("train");
        let text = rep.run_summary(&cfg).to_json();
        let r = diff(&text, &text, &Tolerances::default()).unwrap();
        assert!(r.is_clean());
        assert!(
            r.compared >= 20,
            "summary has >= 20 leaves, got {}",
            r.compared
        );
    }

    #[test]
    fn bad_json_is_a_parse_error_not_a_panic() {
        assert!(diff("{", "{}", &Tolerances::default()).is_err());
        assert!(diff("{}", "[1, 2", &Tolerances::default()).is_err());
        assert!(flatten("{\"a\": 01x}").is_err());
        assert!(flatten("{} trailing").is_err());
    }
}
