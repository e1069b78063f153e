//! The result rows a rank process prints for the benchmark's parent.
//!
//! One row is one line: the tag `stepbench-row`, a kind, then
//! space-separated `key=value` fields. Values are unsigned integers, comma
//! lists of them, or `f64`s carried as their bit patterns in hex, so losses
//! cross the process boundary without rounding and compare bitwise.

use std::collections::BTreeMap;
use std::fmt::Write as _;

const TAG: &str = "stepbench-row";

/// A parsed result row.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Row {
    /// What the row describes (`untraced`, `traced`, `proc`).
    pub kind: String,
    fields: BTreeMap<String, String>,
}

impl Row {
    /// An empty row of `kind`.
    pub fn new(kind: &str) -> Self {
        Row {
            kind: kind.to_string(),
            fields: BTreeMap::new(),
        }
    }

    /// Set an integer field.
    pub fn put_u64(&mut self, key: &str, v: u64) -> &mut Self {
        self.fields.insert(key.to_string(), v.to_string());
        self
    }

    /// Set an integer-list field.
    pub fn put_u64s(&mut self, key: &str, vs: &[u64]) -> &mut Self {
        let s = vs.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
        self.fields.insert(key.to_string(), s);
        self
    }

    /// Set an `f64`-list field, exactly (as bit patterns).
    pub fn put_f64s(&mut self, key: &str, vs: &[f64]) -> &mut Self {
        let s = vs
            .iter()
            .map(|v| format!("{:x}", v.to_bits()))
            .collect::<Vec<_>>()
            .join(",");
        self.fields.insert(key.to_string(), s);
        self
    }

    /// Integer field `key`.
    pub fn u64(&self, key: &str) -> Result<u64, String> {
        let v = self.raw(key)?;
        v.parse()
            .map_err(|_| format!("field {key}={v:?} is not an integer"))
    }

    /// Integer-list field `key` (empty list for an empty value).
    pub fn u64s(&self, key: &str) -> Result<Vec<u64>, String> {
        let v = self.raw(key)?;
        split_list(v)
            .map(|x| {
                x.parse()
                    .map_err(|_| format!("field {key}: {x:?} is not an integer"))
            })
            .collect()
    }

    /// `f64`-list field `key`, decoded from bit patterns.
    pub fn f64s(&self, key: &str) -> Result<Vec<f64>, String> {
        let v = self.raw(key)?;
        split_list(v)
            .map(|x| {
                u64::from_str_radix(x, 16)
                    .map(f64::from_bits)
                    .map_err(|_| format!("field {key}: {x:?} is not an f64 bit pattern"))
            })
            .collect()
    }

    fn raw(&self, key: &str) -> Result<&str, String> {
        self.fields
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("{} row has no field {key}", self.kind))
    }

    /// Parse one output line; `None` for lines that are not result rows.
    pub fn parse(line: &str) -> Option<Result<Row, String>> {
        let mut words = line.split_whitespace();
        if words.next() != Some(TAG) {
            return None;
        }
        let Some(kind) = words.next() else {
            return Some(Err("result row without a kind".to_string()));
        };
        let mut row = Row::new(kind);
        for w in words {
            match w.split_once('=') {
                Some((k, v)) if !k.is_empty() => {
                    row.fields.insert(k.to_string(), v.to_string());
                }
                _ => return Some(Err(format!("malformed field {w:?} in {kind} row"))),
            }
        }
        Some(Ok(row))
    }
}

fn split_list(v: &str) -> impl Iterator<Item = &str> {
    v.split(',').filter(|x| !x.is_empty())
}

impl std::fmt::Display for Row {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = format!("{TAG} {}", self.kind);
        for (k, v) in &self.fields {
            let _ = write!(s, " {k}={v}");
        }
        f.write_str(&s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_round_trip_exactly() {
        let mut r = Row::new("untraced");
        r.put_u64("rank", 1)
            .put_u64s("step_ns", &[5, 17, 3])
            .put_u64s("empty", &[])
            .put_f64s("losses", &[1.25, 0.1 + 0.2, f64::NAN, -0.0]);
        let line = r.to_string();
        let back = Row::parse(&line).expect("tagged").expect("well formed");
        assert_eq!(back, r);
        assert_eq!(back.u64("rank"), Ok(1));
        assert_eq!(back.u64s("step_ns"), Ok(vec![5, 17, 3]));
        assert_eq!(back.u64s("empty"), Ok(vec![]));
        let l = back.f64s("losses").expect("losses");
        assert_eq!(l[1].to_bits(), (0.1f64 + 0.2).to_bits());
        assert!(l[2].is_nan());
        assert_eq!(l[3].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn untagged_lines_are_skipped() {
        assert_eq!(Row::parse("epoch 0 loss=1.0"), None);
        assert_eq!(Row::parse(""), None);
    }

    #[test]
    fn malformed_rows_are_errors() {
        assert!(Row::parse("stepbench-row").expect("tagged").is_err());
        assert!(Row::parse("stepbench-row proc rss")
            .expect("tagged")
            .is_err());
        let r = Row::parse("stepbench-row proc rss=x")
            .expect("tagged")
            .expect("parses");
        assert!(r.u64("rss").is_err());
        assert!(r.u64("missing").is_err());
        let r = Row::parse("stepbench-row proc l=zz")
            .expect("tagged")
            .expect("parses");
        assert!(r.f64s("l").is_err());
    }
}
