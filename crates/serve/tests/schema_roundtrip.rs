//! Property tests of the typed wire schema: for every request type,
//! `to_json` → `from_json` is the identity, so the canonical encoding
//! and the parser can never drift apart. Same for the pruning-spec
//! grammar and the structured error body.

use hl_models::accuracy::PruningConfig;
use hl_serve::json::Json;
use hl_serve::schema::{
    pruning_spec, pruning_spec_json, ErrorBody, EvaluateModelRequest, EvaluateRequest,
    SearchRequest, SweepRequest, MAX_BUDGET, MAX_DEGREE,
};
use hl_sparsity::{Gh, HssPattern};
use hl_tensor::GemmShape;
use proptest::prelude::*;

fn gen_name(rng: &mut proptest::TestRng) -> String {
    const ALPHABET: [char; 12] = ['a', 'Z', '0', '-', '_', '.', ' ', '"', '\\', 'é', '☃', '😀'];
    let len = rng.sample_range(1usize..=10);
    (0..len)
        .map(|_| ALPHABET[rng.sample_range(0usize..ALPHABET.len())])
        .collect()
}

/// Dimensions small enough that any m×k×n stays under the MAC cap.
fn gen_shape(rng: &mut proptest::TestRng) -> GemmShape {
    GemmShape::new(
        rng.sample_range(1usize..=4096),
        rng.sample_range(1usize..=4096),
        rng.sample_range(1usize..=4096),
    )
}

fn gen_degree(rng: &mut proptest::TestRng) -> f64 {
    match rng.sample_range(0u32..4) {
        0 => 0.0,
        1 => MAX_DEGREE,
        _ => rng.sample_range(0.0..=MAX_DEGREE),
    }
}

/// An HSS pattern within the wire grammar: 1–3 ranks, `1 ≤ g ≤ h`, and
/// a group size (product of H values) within the schema cap.
fn gen_hss(rng: &mut proptest::TestRng) -> HssPattern {
    let ranks = rng.sample_range(1usize..=3);
    HssPattern::new(
        (0..ranks)
            .map(|_| {
                let h = [2, 4][rng.sample_range(0usize..2)];
                let g = rng.sample_range(1u32..=h);
                Gh::new(g, h)
            })
            .collect(),
    )
}

fn gen_deadline(rng: &mut proptest::TestRng) -> Option<u64> {
    match rng.sample_range(0u32..3) {
        0 => None,
        1 => Some(0),
        _ => Some(rng.sample_range(1u64..=3_600_000)),
    }
}

fn gen_pruning(rng: &mut proptest::TestRng) -> PruningConfig {
    match rng.sample_range(0u32..3) {
        0 => PruningConfig::Dense,
        1 => PruningConfig::Unstructured {
            sparsity: rng.sample_range(0.0..=1.0),
        },
        _ => PruningConfig::Hss(gen_hss(rng)),
    }
}

macro_rules! strategy {
    ($name:ident, $ty:ty, $gen:expr) => {
        struct $name;
        impl Strategy for $name {
            type Value = $ty;
            fn sample(&self, rng: &mut proptest::TestRng) -> $ty {
                let gen: fn(&mut proptest::TestRng) -> $ty = $gen;
                gen(rng)
            }
        }
    };
}

strategy!(EvaluateStrategy, EvaluateRequest, |rng| EvaluateRequest {
    design: gen_name(rng),
    shape: gen_shape(rng),
    a_sparsity: gen_degree(rng),
    b_sparsity: gen_degree(rng),
    deadline_ms: gen_deadline(rng),
});

strategy!(ModelStrategy, EvaluateModelRequest, |rng| {
    EvaluateModelRequest {
        design: gen_name(rng),
        model: gen_name(rng),
        pruning: gen_pruning(rng),
        deadline_ms: gen_deadline(rng),
    }
});

strategy!(SearchStrategy, SearchRequest, |rng| SearchRequest {
    design: gen_name(rng),
    model: gen_name(rng),
    budget: rng.sample_range(0.0..=MAX_BUDGET),
    deadline_ms: gen_deadline(rng),
});

strategy!(SweepStrategy, SweepRequest, |rng| {
    let opt_vec = |rng: &mut proptest::TestRng, f: fn(&mut proptest::TestRng) -> f64| {
        if rng.sample_range(0u32..2) == 0 {
            None
        } else {
            let n = rng.sample_range(1usize..=4);
            Some((0..n).map(|_| f(rng)).collect::<Vec<_>>())
        }
    };
    SweepRequest {
        designs: if rng.sample_range(0u32..2) == 0 {
            None
        } else {
            let n = rng.sample_range(1usize..=3);
            Some((0..n).map(|_| gen_name(rng)).collect())
        },
        a_degrees: opt_vec(rng, gen_degree),
        b_degrees: opt_vec(rng, gen_degree),
        shape: gen_shape(rng),
        limit: if rng.sample_range(0u32..2) == 0 {
            None
        } else {
            Some(rng.sample_range(1usize..=256))
        },
        deadline_ms: gen_deadline(rng),
    }
});

strategy!(PruningStrategy, PruningConfig, gen_pruning);

strategy!(ErrorStrategy, ErrorBody, |rng| {
    const STATUSES: [u16; 12] = [400, 404, 405, 408, 411, 413, 422, 431, 500, 503, 505, 599];
    ErrorBody::new(
        STATUSES[rng.sample_range(0usize..STATUSES.len())],
        gen_name(rng),
    )
});

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `/v1/evaluate`: encode → parse is the identity, through the
    /// actual wire bytes.
    #[test]
    fn evaluate_round_trips(req in EvaluateStrategy) {
        let encoded = req.to_json().encode();
        prop_assert_eq!(EvaluateRequest::from_body(encoded.as_bytes()), Ok(req));
    }

    /// `/v1/evaluate_model`: encode → parse is the identity.
    #[test]
    fn evaluate_model_round_trips(req in ModelStrategy) {
        let encoded = req.to_json().encode();
        prop_assert_eq!(EvaluateModelRequest::from_body(encoded.as_bytes()), Ok(req));
    }

    /// `/v1/search`: encode → parse is the identity.
    #[test]
    fn search_round_trips(req in SearchStrategy) {
        let encoded = req.to_json().encode();
        prop_assert_eq!(SearchRequest::from_body(encoded.as_bytes()), Ok(req));
    }

    /// `/v1/sweep`: encode → parse is the identity, and absent optional
    /// fields stay absent through the round trip.
    #[test]
    fn sweep_round_trips(req in SweepStrategy) {
        let encoded = req.to_json().encode();
        prop_assert_eq!(SweepRequest::from_body(encoded.as_bytes()), Ok(req));
    }

    /// The pruning-spec grammar and its canonical encoding are inverses.
    #[test]
    fn pruning_specs_round_trip(config in PruningStrategy) {
        let encoded = Json::parse(&pruning_spec_json(&config).encode()).unwrap();
        prop_assert_eq!(pruning_spec(Some(&encoded)), Ok(config));
    }

    /// Structured error bodies round-trip, and the code stays stable.
    #[test]
    fn error_bodies_round_trip(body in ErrorStrategy) {
        let encoded = Json::parse(&body.to_json().encode()).unwrap();
        let parsed = ErrorBody::from_json(&encoded).unwrap();
        prop_assert_eq!(parsed, body);
    }
}

/// Unknown fields are rejected for every request type — the wire schema
/// is closed, so typos fail loudly instead of silently evaluating
/// something else.
#[test]
fn unknown_fields_are_rejected_everywhere() {
    let with_extra = |base: &str| {
        let mut v = Json::parse(base).unwrap();
        if let Json::Obj(members) = &mut v {
            members.push(("extra_field".into(), Json::Num(1.0)));
        }
        v.encode()
    };
    let evaluate = with_extra(r#"{"design":"TC"}"#);
    assert!(EvaluateRequest::from_body(evaluate.as_bytes()).is_err());
    let model = with_extra(r#"{"design":"TC","model":"ResNet-50"}"#);
    assert!(EvaluateModelRequest::from_body(model.as_bytes()).is_err());
    let search = with_extra(r#"{"design":"TC","model":"ResNet-50","budget":0.5}"#);
    assert!(SearchRequest::from_body(search.as_bytes()).is_err());
    let sweep = with_extra(r#"{"m":64,"k":64,"n":64}"#);
    assert!(SweepRequest::from_body(sweep.as_bytes()).is_err());
}
