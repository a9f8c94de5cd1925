//! Prometheus text exposition (format 0.0.4).
//!
//! [`Exposition`] is a small builder the app uses to render every
//! metric family — counters, gauges, and the log₂ latency/reuse
//! histograms — as `# HELP`/`# TYPE` headers plus samples, with
//! histograms expanded to cumulative `le` buckets, `+Inf`, `_sum`, and
//! `_count` the way Prometheus expects. [`validate_exposition`] is the
//! matching checker (used by tests and the CI smoke via
//! `hl-client promcheck`): each `# TYPE` declared once, every sample
//! belongs to a declared family, bucket counts monotone, last bucket
//! equals `_count`.

use std::collections::HashMap;
use std::fmt::Write as _;

/// Content-Type for the Prometheus text format.
pub const CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Builder for one exposition document. Families render in the order
/// they are added.
#[derive(Debug, Default)]
pub struct Exposition {
    out: String,
}

impl Exposition {
    /// An empty document.
    pub fn new() -> Self {
        Self::default()
    }

    fn header(&mut self, name: &str, help: &str, kind: &str) {
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        let _ = write!(self.out, "{name}");
        if !labels.is_empty() {
            let _ = write!(self.out, "{{");
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    let _ = write!(self.out, ",");
                }
                let escaped: String = v
                    .chars()
                    .flat_map(|c| match c {
                        '\\' => vec!['\\', '\\'],
                        '"' => vec!['\\', '"'],
                        '\n' => vec!['\\', 'n'],
                        c => vec![c],
                    })
                    .collect();
                let _ = write!(self.out, "{k}=\"{escaped}\"");
            }
            let _ = write!(self.out, "}}");
        }
        let _ = writeln!(self.out, " {}", fmt_value(value));
    }

    /// A single-sample counter family.
    pub fn counter(&mut self, name: &str, help: &str, value: f64) {
        self.header(name, help, "counter");
        self.sample(name, &[], value);
    }

    /// A counter family with one sample per `(label value, sample)`
    /// pair under the given label key.
    pub fn counter_vec(&mut self, name: &str, help: &str, label: &str, samples: &[(&str, f64)]) {
        self.header(name, help, "counter");
        for (lv, value) in samples {
            self.sample(name, &[(label, lv)], *value);
        }
    }

    /// A single-sample gauge family.
    pub fn gauge(&mut self, name: &str, help: &str, value: f64) {
        self.header(name, help, "gauge");
        self.sample(name, &[], value);
    }

    /// A histogram family from per-bucket (non-cumulative) counts.
    /// `upper_edges` gives each bucket's inclusive upper bound in the
    /// exported unit; buckets are accumulated here and capped with
    /// `+Inf`, `_sum`, and `_count`. Buckets past the last edge (an
    /// open last bucket) are counted only under `+Inf`.
    #[expect(
        clippy::disallowed_macros,
        reason = "`debug_assert!` expands to `assert!`; it is compiled out of release builds"
    )]
    pub fn histogram(
        &mut self,
        name: &str,
        help: &str,
        upper_edges: &[f64],
        bucket_counts: &[u64],
        sum: f64,
    ) {
        debug_assert!(upper_edges.len() <= bucket_counts.len());
        self.header(name, help, "histogram");
        let bucket = format!("{name}_bucket");
        let mut cum = 0u64;
        for (edge, n) in upper_edges.iter().zip(bucket_counts) {
            cum += n;
            self.sample(&bucket, &[("le", &fmt_value(*edge))], cum as f64);
        }
        let total: u64 = bucket_counts.iter().sum();
        self.sample(&bucket, &[("le", "+Inf")], total as f64);
        self.sample(&format!("{name}_sum"), &[], sum);
        self.sample(&format!("{name}_count"), &[], total as f64);
    }

    /// The finished document.
    pub fn finish(self) -> String {
        self.out
    }
}

fn fmt_value(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Checks an exposition document: every `# TYPE` declared exactly once,
/// every sample attributable to a declared family (directly, or via
/// `_bucket`/`_sum`/`_count` for histograms), histogram buckets
/// monotone nondecreasing with the `+Inf` bucket equal to `_count`.
/// Returns the first violation as an error message.
pub fn validate_exposition(text: &str) -> Result<(), String> {
    let mut families: HashMap<String, String> = HashMap::new();
    // family -> (cumulative buckets in order, +Inf value, _count value)
    let mut hist_buckets: HashMap<String, Vec<f64>> = HashMap::new();
    let mut hist_inf: HashMap<String, f64> = HashMap::new();
    let mut hist_count: HashMap<String, f64> = HashMap::new();

    for (lineno, line) in text.lines().enumerate() {
        let lineno = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts
                .next()
                .ok_or_else(|| format!("line {lineno}: # TYPE missing name"))?;
            let kind = parts
                .next()
                .ok_or_else(|| format!("line {lineno}: # TYPE missing kind"))?;
            if !matches!(
                kind,
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                return Err(format!("line {lineno}: unknown metric type {kind:?}"));
            }
            if families
                .insert(name.to_string(), kind.to_string())
                .is_some()
            {
                return Err(format!("line {lineno}: duplicate # TYPE for {name}"));
            }
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        // Sample line: name[{labels}] value
        let name = line
            .find(['{', ' '])
            .and_then(|end| line.get(..end))
            .ok_or_else(|| format!("line {lineno}: malformed sample: {line:?}"))?;
        let value_str = line
            .rsplit(' ')
            .next()
            .ok_or_else(|| format!("line {lineno}: missing value: {line:?}"))?;
        let value = parse_value(value_str)
            .ok_or_else(|| format!("line {lineno}: bad value {value_str:?}"))?;

        let (family, suffix) = match_family(name, &families)
            .ok_or_else(|| format!("line {lineno}: sample {name} has no # TYPE declaration"))?;

        if families.get(&family).map(String::as_str) == Some("histogram") {
            match suffix {
                "_bucket" => {
                    let le = extract_label(line, "le")
                        .ok_or_else(|| format!("line {lineno}: {name} sample missing le label"))?;
                    if le == "+Inf" {
                        hist_inf.insert(family, value);
                    } else {
                        parse_value(&le)
                            .ok_or_else(|| format!("line {lineno}: bad le value {le:?}"))?;
                        hist_buckets.entry(family).or_default().push(value);
                    }
                }
                "_count" => {
                    hist_count.insert(family, value);
                }
                _ => {}
            }
        }
    }

    for (family, buckets) in &hist_buckets {
        for pair in buckets.windows(2) {
            if let &[prev, next] = pair {
                if next < prev {
                    return Err(format!(
                        "histogram {family}: buckets not monotone ({prev} then {next})"
                    ));
                }
            }
        }
        let inf = *hist_inf
            .get(family)
            .ok_or_else(|| format!("histogram {family}: missing +Inf bucket"))?;
        if let Some(last) = buckets.last() {
            if *last > inf {
                return Err(format!(
                    "histogram {family}: last bucket {last} exceeds +Inf {inf}"
                ));
            }
        }
        let count = *hist_count
            .get(family)
            .ok_or_else(|| format!("histogram {family}: missing _count"))?;
        if inf != count {
            return Err(format!(
                "histogram {family}: +Inf bucket {inf} != _count {count}"
            ));
        }
    }
    Ok(())
}

fn parse_value(s: &str) -> Option<f64> {
    match s {
        "+Inf" => Some(f64::INFINITY),
        "-Inf" => Some(f64::NEG_INFINITY),
        "NaN" => Some(f64::NAN),
        s => s.parse().ok(),
    }
}

/// Maps a sample name to its declared family, allowing the histogram /
/// summary component suffixes. Returns (family, suffix).
fn match_family(name: &str, families: &HashMap<String, String>) -> Option<(String, &'static str)> {
    if families.contains_key(name) {
        return Some((name.to_string(), ""));
    }
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(stem) = name.strip_suffix(suffix) {
            if families.contains_key(stem) {
                return Some((stem.to_string(), suffix));
            }
        }
    }
    None
}

fn extract_label(line: &str, key: &str) -> Option<String> {
    let open = line.find('{')?;
    let close = line.rfind('}')?;
    for part in line.get(open + 1..close)?.split(',') {
        let (k, v) = part.split_once('=')?;
        if k == key {
            return Some(v.trim_matches('"').to_string());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_and_labels_render() {
        let mut e = Exposition::new();
        e.counter("hl_requests_total", "Total requests.", 42.0);
        e.gauge("hl_connections_active", "Open connections.", 3.0);
        e.counter_vec(
            "hl_responses_total",
            "Responses by class.",
            "class",
            &[("2xx", 40.0), ("5xx", 2.0)],
        );
        let text = e.finish();
        assert!(text.contains("# TYPE hl_requests_total counter\n"));
        assert!(text.contains("hl_requests_total 42\n"));
        assert!(text.contains("hl_responses_total{class=\"2xx\"} 40\n"));
        validate_exposition(&text).unwrap();
    }

    #[test]
    fn histogram_renders_cumulative_with_inf_sum_count() {
        let mut e = Exposition::new();
        e.histogram(
            "hl_request_latency_seconds",
            "Request latency.",
            &[0.001, 0.01, 0.1],
            &[5, 3, 0],
            0.0423,
        );
        let text = e.finish();
        assert!(text.contains("hl_request_latency_seconds_bucket{le=\"0.001\"} 5\n"));
        assert!(text.contains("hl_request_latency_seconds_bucket{le=\"0.01\"} 8\n"));
        assert!(text.contains("hl_request_latency_seconds_bucket{le=\"0.1\"} 8\n"));
        assert!(text.contains("hl_request_latency_seconds_bucket{le=\"+Inf\"} 8\n"));
        assert!(text.contains("hl_request_latency_seconds_sum 0.0423\n"));
        assert!(text.contains("hl_request_latency_seconds_count 8\n"));
        validate_exposition(&text).unwrap();
    }

    #[test]
    fn validator_rejects_violations() {
        // Duplicate TYPE.
        let dup = "# TYPE a counter\n# TYPE a counter\na 1\n";
        assert!(validate_exposition(dup).unwrap_err().contains("duplicate"));
        // Undeclared sample.
        let und = "# TYPE a counter\nb 1\n";
        assert!(validate_exposition(und)
            .unwrap_err()
            .contains("no # TYPE declaration"));
        // Non-monotone buckets.
        let mono = "# TYPE h histogram\n\
                    h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\n\
                    h_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n";
        assert!(validate_exposition(mono)
            .unwrap_err()
            .contains("not monotone"));
        // +Inf != _count.
        let inf = "# TYPE h histogram\n\
                   h_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 6\n";
        assert!(validate_exposition(inf).unwrap_err().contains("_count"));
    }

    #[test]
    fn label_values_are_escaped() {
        let mut e = Exposition::new();
        e.counter_vec("a", "h", "k", &[("quo\"te\\x", 1.0)]);
        let text = e.finish();
        assert!(text.contains("a{k=\"quo\\\"te\\\\x\"} 1\n"));
        validate_exposition(&text).unwrap();
    }
}
