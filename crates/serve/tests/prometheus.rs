//! Property tests of the Prometheus text exposition: rendered histogram
//! buckets are cumulative and agree exactly with the raw per-bucket
//! series the JSON view is built from, `_count`/`_sum` match the
//! histogram's own counters, interpolated quantiles stay ordered, and
//! every generated document passes the same validator the CI smoke runs
//! (`hl-client promcheck`).

use std::time::Duration;

use hl_serve::metrics::{LatencyHistogram, LATENCY_BUCKETS};
use hl_serve::prom::{validate_exposition, Exposition};
use proptest::prelude::*;

/// The edges `App::render_prometheus` exports: closed log₂ bucket `i`
/// under the inclusive edge `2^(i+1) − 1` µs, rendered in seconds; the
/// open last bucket only under `+Inf`.
fn edges_seconds() -> Vec<f64> {
    (1..LATENCY_BUCKETS)
        .map(|i| ((1u64 << i) - 1) as f64 / 1e6)
        .collect()
}

/// Strategy over observation batches mixing sub-µs, mid-range, huge
/// (beyond the last bucket edge), and exact power-of-two latencies.
fn observations() -> impl Strategy<Value = Vec<u64>> {
    ObsStrategy
}

struct ObsStrategy;

impl Strategy for ObsStrategy {
    type Value = Vec<u64>;

    fn sample(&self, rng: &mut proptest::TestRng) -> Vec<u64> {
        let len = rng.sample_range(0usize..=64);
        (0..len)
            .map(|_| match rng.sample_range(0u32..4) {
                0 => rng.sample_range(0u64..16),
                1 => rng.sample_range(0u64..100_000),
                2 => rng.sample_range(0u64..1_000_000_000_000),
                _ => 1u64 << rng.sample_range(0u32..40),
            })
            .collect()
    }
}

fn record_all(obs: &[u64]) -> LatencyHistogram {
    let h = LatencyHistogram::new();
    for &us in obs {
        h.record(Duration::from_micros(us));
    }
    h
}

fn render(h: &LatencyHistogram) -> String {
    let mut e = Exposition::new();
    e.histogram(
        "hl_request_latency_seconds",
        "Request handling latency.",
        &edges_seconds(),
        &h.bucket_counts(),
        h.sum_us() as f64 / 1e6,
    );
    e.finish()
}

/// Pulls `(le, value)` bucket samples (`+Inf` as `f64::INFINITY`) plus
/// the `_sum` and `_count` samples out of a rendered exposition.
fn parse_histogram(text: &str, family: &str) -> (Vec<(f64, f64)>, f64, f64) {
    let mut buckets = Vec::new();
    let (mut sum, mut count) = (f64::NAN, f64::NAN);
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let (name_labels, value) = line.rsplit_once(' ').expect("sample line");
        let value: f64 = match value {
            "+Inf" => f64::INFINITY,
            v => v.parse().expect("sample value"),
        };
        if let Some(rest) = name_labels.strip_prefix(&format!("{family}_bucket{{le=\"")) {
            let le = rest.trim_end_matches("\"}");
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().expect("le value")
            };
            buckets.push((le, value));
        } else if name_labels == format!("{family}_sum") {
            sum = value;
        } else if name_labels == format!("{family}_count") {
            count = value;
        }
    }
    (buckets, sum, count)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Rendered buckets are the exact cumulative sums of the raw
    /// per-bucket series, each counting exactly the observations at
    /// most its `le`, capped by `+Inf`, with `_count`/`_sum` matching
    /// the histogram's own counters — and the document passes the
    /// promcheck validator.
    #[test]
    fn buckets_are_cumulative_and_count_sum_agree(obs in observations()) {
        let h = record_all(&obs);
        let text = render(&h);
        prop_assert!(validate_exposition(&text).is_ok(), "{text}");

        let (buckets, sum, count) = parse_histogram(&text, "hl_request_latency_seconds");
        prop_assert_eq!(buckets.len(), LATENCY_BUCKETS);
        let raw = h.bucket_counts();
        let mut cum = 0u64;
        for (i, &(le, value)) in buckets.iter().take(LATENCY_BUCKETS - 1).enumerate() {
            cum += raw[i];
            prop_assert_eq!(le, ((1u64 << (i + 1)) - 1) as f64 / 1e6);
            prop_assert_eq!(value, cum as f64);
            let at_most_le = obs.iter().filter(|&&us| us as f64 / 1e6 <= le).count();
            prop_assert_eq!(value, at_most_le as f64);
        }
        let (inf_le, inf_value) = buckets[LATENCY_BUCKETS - 1];
        prop_assert_eq!(inf_le, f64::INFINITY);
        prop_assert_eq!(inf_value, obs.len() as f64);
        prop_assert_eq!(count, obs.len() as f64);
        prop_assert_eq!(count, h.count() as f64);
        // The value format is shortest-roundtrip, so parsing it back
        // recovers the exact f64 that was rendered.
        prop_assert_eq!(sum, h.sum_us() as f64 / 1e6);
    }

    /// The interpolated quantile never exceeds the historical
    /// upper-edge estimate (the JSON view's byte-compatible series),
    /// stays inside the winning bucket, and is monotone in `q`.
    #[test]
    fn interpolated_quantiles_are_bounded_and_monotone(
        obs in observations(),
        q1 in 0u32..=1000,
        q2 in 0u32..=1000,
    ) {
        let h = record_all(&obs);
        let (lo, hi) = (q1.min(q2) as f64 / 1000.0, q1.max(q2) as f64 / 1000.0);
        for q in [lo, hi] {
            let interp = h.quantile_ms(q);
            let edge = h.quantile_ms_upper_edge(q);
            prop_assert!(interp <= edge, "q={q}: interpolated {interp} > edge {edge}");
            // The edge estimate is the upper bound of the winning
            // bucket, whose width is a factor of two.
            if !obs.is_empty() {
                prop_assert!(interp >= edge / 2.0 || edge <= 2.0 / 1000.0,
                    "q={q}: {interp} below bucket floor {}", edge / 2.0);
            }
        }
        prop_assert!(h.quantile_ms(lo) <= h.quantile_ms(hi),
            "quantile not monotone between {lo} and {hi}");
    }
}

/// The full server exposition (every family, both histograms) validates
/// and its latency `_count` matches the metrics' own counter.
#[test]
fn full_app_exposition_validates() {
    use hl_serve::api::App;
    use hl_serve::http::Request;

    let app = App::new();
    let mk = |path: &str| Request {
        method: "GET".into(),
        path: path.into(),
        query: String::new(),
        headers: Vec::new(),
        body: Vec::new(),
    };
    for _ in 0..3 {
        let _ = app.handle(&mk("/v1/healthz"));
    }
    let _ = app.handle(&mk("/nope"));

    let text = app.render_prometheus();
    validate_exposition(&text).expect("full exposition validates");
    let (_, _, count) = parse_histogram(&text, "hl_request_latency_seconds");
    assert_eq!(count, app.metrics().latency().count() as f64);
}
