//! Answer checks: every response is parsed and checked; a failed check
//! counts the op as failed and is reported, never skipped.

use crate::workload::Op;
use serde::Value;

/// The value fields of one `query`/`whatif` answer.
#[derive(Clone, Debug, PartialEq)]
pub struct Answer {
    pub estimate: f64,
    pub lower_bound: f64,
    pub upper_bound: f64,
    pub variance: f64,
    pub exact: bool,
    pub ci: (f64, f64),
    pub routes: Vec<String>,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

impl Answer {
    /// Same answer bit for bit (cache telemetry aside, which legitimately
    /// differs between a cold and a warm ask of one query).
    pub fn same_value(&self, other: &Answer) -> bool {
        let bits = |a: &Answer| {
            [
                a.estimate,
                a.lower_bound,
                a.upper_bound,
                a.variance,
                a.ci.0,
                a.ci.1,
            ]
            .map(f64::to_bits)
        };
        bits(self) == bits(other) && self.exact == other.exact && self.routes == other.routes
    }
}

/// Failure accounting: every check counts as attempted, and one that fails
/// is counted and reported on stderr, never skipped.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count `result`, passing its value on when it is `Ok`.
    pub fn record<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(t) => Some(t),
            Err(e) => {
                self.failed += 1;
                if self.failed <= 20 {
                    eprintln!("perfbench: FAILED CHECK on {what}: {e}");
                }
                None
            }
        }
    }

    /// Count a yes/no check; `why` is only built when it failed.
    pub fn check(&mut self, what: &str, ok: bool, why: impl FnOnce() -> String) {
        self.record(what, if ok { Ok(()) } else { Err(why()) });
    }
}

/// What one mutation slot of a `mutate` response reported.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outcome {
    pub patched: bool,
    pub invalidated_plans: u64,
    pub invalidated_worlds: u64,
}

/// A checked response.
#[derive(Clone, Debug, PartialEq)]
pub enum Checked {
    Answer(Answer),
    Mutated(Vec<Outcome>),
}

fn num(v: &Value, key: &str) -> Result<f64, String> {
    match v.get(key) {
        Some(Value::F64(x)) => Ok(*x),
        Some(Value::U64(n)) => Ok(*n as f64),
        Some(Value::I64(n)) => Ok(*n as f64),
        _ => Err(format!("missing number `{key}`")),
    }
}

fn count(v: &Value, key: &str) -> Result<u64, String> {
    match v.get(key) {
        Some(Value::U64(n)) => Ok(*n),
        _ => Err(format!("missing count `{key}`")),
    }
}

fn flag(v: &Value, key: &str) -> Result<bool, String> {
    match v.get(key) {
        Some(Value::Bool(b)) => Ok(*b),
        _ => Err(format!("missing boolean `{key}`")),
    }
}

/// Parse and check one planned answer object.
fn parse_answer(a: &Value) -> Result<Answer, String> {
    let ci = a.get("ci").ok_or("answer has no `ci`")?;
    let routes = match a.get("routes") {
        Some(Value::Seq(rs)) => rs
            .iter()
            .map(|r| match r {
                Value::Str(s) => Ok(s.clone()),
                _ => Err("`routes` must hold strings".to_string()),
            })
            .collect::<Result<Vec<_>, _>>()?,
        _ => return Err("answer has no `routes`".into()),
    };
    let answer = Answer {
        estimate: num(a, "estimate")?,
        lower_bound: num(a, "lower_bound")?,
        upper_bound: num(a, "upper_bound")?,
        variance: num(a, "variance_estimate")?,
        exact: flag(a, "exact")?,
        ci: (num(ci, "lower")?, num(ci, "upper")?),
        routes,
        cache_hits: count(a, "cache_hits")?,
        cache_misses: count(a, "cache_misses")?,
    };
    let Answer {
        estimate: e,
        lower_bound: lo,
        upper_bound: hi,
        ci: (cl, cu),
        ..
    } = answer;
    if !(lo <= e && e <= hi) {
        return Err(format!("estimate {e} outside proven bounds [{lo}, {hi}]"));
    }
    if !(cl <= e && e <= cu) {
        return Err(format!("ci [{cl}, {cu}] does not contain estimate {e}"));
    }
    Ok(answer)
}

/// Check one response against the op that produced it.
pub fn check_response(op: &Op, response: &str) -> Result<Checked, String> {
    let v: Value = serde_json::from_str(response).map_err(|e| format!("bad JSON: {e}"))?;
    if v.get("ok") != Some(&Value::Bool(true)) {
        let why = match v.get("error") {
            Some(Value::Str(s)) => s.clone(),
            _ => "no error message".into(),
        };
        return Err(format!("ok:false ({why})"));
    }
    if v.get("op") != Some(&Value::Str(op.kind().into())) {
        return Err(format!("response is not a `{}` response", op.kind()));
    }
    match op {
        Op::Query(_) | Op::Whatif(..) => {
            parse_answer(v.get("answer").ok_or("no `answer`")?).map(Checked::Answer)
        }
        Op::Mutate(ms) => {
            let Some(Value::Seq(slots)) = v.get("results") else {
                return Err("no `results`".into());
            };
            if slots.len() != ms.len() {
                return Err(format!(
                    "{} results for {} mutations",
                    slots.len(),
                    ms.len()
                ));
            }
            slots
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    if s.get("ok") != Some(&Value::Bool(true)) {
                        return Err(format!("mutation {i} failed: {s:?}"));
                    }
                    Ok(Outcome {
                        patched: match s.get("index") {
                            Some(Value::Str(k)) if k == "patched" => true,
                            Some(Value::Str(k)) if k == "rebuilt" => false,
                            _ => return Err(format!("mutation {i}: bad `index`")),
                        },
                        invalidated_plans: count(s, "invalidated_plans")?,
                        invalidated_worlds: count(s, "invalidated_worlds")?,
                    })
                })
                .collect::<Result<Vec<_>, _>>()
                .map(Checked::Mutated)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netrel_engine::Mutation;

    const GOOD: &str = r#"{"ok":true,"op":"query","answer":{"estimate":0.5,"lower_bound":0.25,"upper_bound":0.75,"exact":false,"variance_estimate":0.001,"ci":{"lower":0.4,"upper":0.6,"level":0.95},"routes":["bounded"],"cache_hits":0,"cache_misses":1}}"#;

    fn query() -> Op {
        Op::Query(vec![0, 1])
    }

    fn answer(response: &str) -> Answer {
        match check_response(&query(), response).expect("valid") {
            Checked::Answer(a) => a,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn accepts_a_consistent_answer() {
        let a = answer(GOOD);
        assert_eq!(a.estimate, 0.5);
        assert_eq!(a.routes, vec!["bounded".to_string()]);
    }

    #[test]
    fn rejects_non_ok_responses() {
        let err = check_response(&query(), r#"{"ok":false,"error":"unknown graph `g`"}"#);
        assert!(err.unwrap_err().contains("unknown graph"));
        assert!(check_response(&query(), "not json").is_err());
        let wrong_op = GOOD.replace(r#""op":"query""#, r#""op":"whatif""#);
        assert!(check_response(&query(), &wrong_op).is_err());
    }

    #[test]
    fn rejects_out_of_bounds_answers() {
        let below = GOOD.replace(r#""lower_bound":0.25"#, r#""lower_bound":0.55"#);
        assert!(check_response(&query(), &below)
            .unwrap_err()
            .contains("proven bounds"));
        let above = GOOD.replace(r#""upper_bound":0.75"#, r#""upper_bound":0.45"#);
        assert!(check_response(&query(), &above).is_err());
        let ci = GOOD.replace(r#""upper":0.6"#, r#""upper":0.49"#);
        assert!(check_response(&query(), &ci).unwrap_err().contains("ci"));
    }

    #[test]
    fn mismatched_answers_are_not_the_same_value() {
        let a = answer(GOOD);
        let warm = answer(&GOOD.replace(r#""cache_hits":0"#, r#""cache_hits":1"#));
        assert!(
            a.same_value(&warm),
            "cache telemetry is not part of the value"
        );
        let off = answer(&GOOD.replace(r#""estimate":0.5"#, r#""estimate":0.5000000000000001"#));
        assert!(!a.same_value(&off));
        let rerouted = answer(&GOOD.replace(r#"["bounded"]"#, r#"["exact"]"#));
        assert!(!a.same_value(&rerouted));
    }

    #[test]
    fn every_mutation_slot_must_be_ok() {
        let op = Op::Mutate(vec![
            Mutation::UpdateProb { edge: 0, p: 0.5 },
            Mutation::RemoveEdge { edge: 1 },
        ]);
        let slot = r#"{"ok":true,"edge":0,"index":"patched","invalidated_plans":2,"invalidated_worlds":0}"#;
        let both = format!(r#"{{"ok":true,"op":"mutate","results":[{slot},{slot}]}}"#);
        assert!(check_response(&op, &both).is_ok());
        let one_bad = format!(
            r#"{{"ok":true,"op":"mutate","results":[{slot},{{"ok":false,"error":"edge 1 out of range"}}]}}"#
        );
        assert!(check_response(&op, &one_bad).is_err());
        let short = format!(r#"{{"ok":true,"op":"mutate","results":[{slot}]}}"#);
        assert!(check_response(&op, &short).is_err());
    }
}
