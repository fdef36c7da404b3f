//! The result line: named metrics with units, the correctness verdict, and
//! the one-line JSON object the benchmark prints last.

use std::fmt::Write as _;

/// One reported number. `samples` is the count behind a percentile or
/// median, printed next to it in the human-readable listing.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: Option<usize>,
}

/// Whether `name` is a legal metric name: 1 to 64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let bytes = name.as_bytes();
    !bytes.is_empty()
        && bytes.len() <= 64
        && bytes[0].is_ascii_alphanumeric()
        && bytes
            .iter()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// What one run measured and whether every output was right.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Printed in the listing but kept out of the result line.
    pub notes: Vec<Metric>,
    /// Requests (or batch calls) issued.
    pub attempted: u64,
    /// Errors, rejections, timeouts and wrong outputs among them.
    pub failed: u64,
    /// Replies whose bits differed from every accepted reference.
    pub mismatches: u64,
}

impl Report {
    pub fn add(&mut self, name: &str, unit: &'static str, value: f64) {
        self.add_n(name, unit, value, None);
    }

    pub fn add_n(&mut self, name: &str, unit: &'static str, value: f64, samples: Option<usize>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
        });
    }

    pub fn note(&mut self, name: &str, unit: &'static str, value: f64, samples: Option<usize>) {
        self.notes.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
        });
    }

    /// A run is correct when it attempted work, no reply was wrong and
    /// nothing failed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.mismatches == 0
    }

    /// Checks the report is emittable: legal, unique names and finite
    /// values. Returns the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        for (i, m) in self.metrics.iter().enumerate() {
            if !valid_name(&m.name) {
                return Err(format!("illegal metric name {:?}", m.name));
            }
            if self.metrics[..i].iter().any(|o| o.name == m.name) {
                return Err(format!("metric {:?} reported twice", m.name));
            }
            if !m.value.is_finite() {
                return Err(format!("metric {:?} is not finite ({})", m.name, m.value));
            }
        }
        Ok(())
    }

    /// Human-readable listing, one metric per line.
    pub fn listing(&self) -> String {
        let mut out = String::new();
        let lines = self
            .metrics
            .iter()
            .map(|m| (m, ""))
            .chain(self.notes.iter().map(|m| (m, "  [listing only]")));
        for (m, tag) in lines {
            let _ = write!(out, "  {:<36} {:>14.4} {}", m.name, m.value, m.unit);
            if let Some(n) = m.samples {
                let _ = write!(out, "  (n={n})");
            }
            out.push_str(tag);
            out.push('\n');
        }
        out
    }

    /// The final result line. Values are printed with every digit Rust's
    /// shortest round-trip formatting gives, never rounded.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed + self.mismatches
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A strict JSON value parser, enough to prove the result line parses:
    /// returns the index just past the value, or `None` on a syntax error.
    fn value(s: &[u8], i: usize) -> Option<usize> {
        let i = ws(s, i);
        match *s.get(i)? {
            b'{' => {
                let mut i = ws(s, i + 1);
                if s.get(i) == Some(&b'}') {
                    return Some(i + 1);
                }
                loop {
                    i = string(s, ws(s, i))?;
                    i = ws(s, i);
                    if s.get(i) != Some(&b':') {
                        return None;
                    }
                    i = ws(s, value(s, i + 1)?);
                    match s.get(i)? {
                        b',' => i += 1,
                        b'}' => return Some(i + 1),
                        _ => return None,
                    }
                }
            }
            b'"' => string(s, i),
            b't' => s[i..].starts_with(b"true").then_some(i + 4),
            b'f' => s[i..].starts_with(b"false").then_some(i + 5),
            _ => number(s, i),
        }
    }

    fn ws(s: &[u8], mut i: usize) -> usize {
        while s.get(i).is_some_and(|c| c.is_ascii_whitespace()) {
            i += 1;
        }
        i
    }

    fn string(s: &[u8], i: usize) -> Option<usize> {
        if s.get(i) != Some(&b'"') {
            return None;
        }
        let end = s[i + 1..].iter().position(|&c| c == b'"')?;
        let body = &s[i + 1..i + 1 + end];
        (!body.contains(&b'\\')).then_some(i + end + 2)
    }

    fn number(s: &[u8], i: usize) -> Option<usize> {
        let len = s[i..]
            .iter()
            .take_while(|c| c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E'))
            .count();
        let text = std::str::from_utf8(&s[i..i + len]).ok()?;
        let ok = len > 0
            && text.parse::<f64>().is_ok()
            && !text.starts_with('.')
            && !text.ends_with('.')
            && !text.starts_with('+');
        ok.then_some(i + len)
    }

    fn parses(json: &str) -> bool {
        let s = json.as_bytes();
        value(s, 0).is_some_and(|end| ws(s, end) == s.len())
    }

    fn sample_report() -> Report {
        let mut r = Report {
            attempted: 1000,
            ..Report::default()
        };
        r.add_n("latency_p50_ms", "ms", 1.2034, Some(1000));
        r.add("setup_s", "s", 0.000_012_5);
        r.add("throughput_ips", "img/s", 1403.0);
        r.add("trace.overhead_frac", "frac", -0.031);
        r
    }

    #[test]
    fn emitted_json_parses() {
        let r = sample_report();
        r.validate().expect("valid report");
        let json = r.json();
        assert!(parses(&json), "{json}");
        assert!(json.starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0,"));
        assert!(json.contains("\"setup_s\": {\"value\": 0.0000125, \"unit\": \"s\"}"));
        // The checker itself rejects malformed lines.
        assert!(!parses("{\"a\": 1,}"));
        assert!(!parses("{\"a\": NaN}"));
        assert!(!parses("{\"a\": 1} x"));
    }

    #[test]
    fn mismatches_make_the_run_incorrect_and_count_as_failed() {
        let mut r = sample_report();
        r.mismatches = 2;
        assert!(!r.correct());
        assert!(r
            .json()
            .contains("\"correct\": false, \"attempted\": 1000, \"failed\": 2,"));
        assert!(parses(&r.json()));
    }

    #[test]
    fn metric_names_are_checked() {
        for ok in [
            "setup_s",
            "engine.step.conv_us_per_image",
            "fleet.replica_share.r0",
            "a-b",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", ".x", "_x", "a b", "a\"b", "µs", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        let mut r = sample_report();
        r.add("setup_s", "s", 1.0);
        assert!(r.validate().is_err(), "duplicate name");
        let mut r = sample_report();
        r.add("nan_metric", "ms", f64::NAN);
        assert!(r.validate().is_err(), "non-finite value");
    }
}
