//! End-to-end fixtures: for every rule in the catalog, a seeded
//! violation must surface as an *active* finding at the exact
//! `file:line`, and the same fixture with an inline
//! `// hl-lint: allow(rule, reason)` must move it to *suppressed* —
//! exercising the whole engine (lex → rule → suppression partition),
//! not the rule in isolation.

use hl_analysis::engine::{self, Outcome};
use hl_analysis::walk;

/// Lints a virtual workspace of `(path, text)` pairs, no baseline.
fn lint(files: &[(&str, &str)]) -> Outcome {
    let mut pre = Vec::new();
    let ws = engine::load_workspace(
        files
            .iter()
            .map(|(p, t)| (p.to_string(), t.to_string()))
            .collect(),
        &mut pre,
    );
    assert!(pre.is_empty(), "fixture failed to lex: {pre:?}");
    engine::run(&ws, None, pre)
}

/// Asserts `out` has exactly one active finding of `rule` at
/// `file:line` and nothing else active.
fn assert_one_active(out: &Outcome, rule: &str, file: &str, line: u32) {
    assert_eq!(
        out.active.len(),
        1,
        "expected exactly one active finding, got {:?}",
        out.active
    );
    let f = &out.active[0];
    assert_eq!(f.rule, rule);
    assert_eq!(f.file, file);
    assert_eq!(f.line, line);
}

/// Asserts `out` has no active findings and exactly one suppressed one
/// of `rule`, carrying `reason`.
fn assert_one_suppressed(out: &Outcome, rule: &str, reason: &str) {
    assert!(out.active.is_empty(), "still active: {:?}", out.active);
    assert_eq!(out.suppressed.len(), 1);
    assert_eq!(out.suppressed[0].0.rule, rule);
    assert_eq!(out.suppressed[0].1, reason);
}

#[test]
fn partial_cmp_unwrap_fixture() {
    const RULE: &str = "no-float-partial-cmp-unwrap";
    let bad = "fn f(v: &mut [f64]) {\n    v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}\n";
    let out = lint(&[("crates/sim/src/stats.rs", bad)]);
    assert_one_active(&out, RULE, "crates/sim/src/stats.rs", 2);

    let waived = "fn f(v: &mut [f64]) {\n    \
        // hl-lint: allow(no-float-partial-cmp-unwrap, inputs are clamped, NaN impossible)\n    \
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}\n";
    let out = lint(&[("crates/sim/src/stats.rs", waived)]);
    assert_one_suppressed(&out, RULE, "inputs are clamped, NaN impossible");

    // `total_cmp` is the sanctioned spelling and stays silent.
    let good = "fn f(v: &mut [f64]) {\n    v.sort_by(|a, b| a.total_cmp(b));\n}\n";
    let out = lint(&[("crates/sim/src/stats.rs", good)]);
    assert!(out.active.is_empty());
}

#[test]
fn panic_in_request_path_fixture() {
    const RULE: &str = "no-panic-in-request-path";
    let bad = "fn handle(q: Option<u32>) -> u32 {\n    q.unwrap()\n}\n";
    let out = lint(&[("crates/serve/src/http.rs", bad)]);
    assert_one_active(&out, RULE, "crates/serve/src/http.rs", 2);

    let waived = "fn handle(q: Option<u32>) -> u32 {\n    \
        // hl-lint: allow(no-panic-in-request-path, checked non-empty two lines up)\n    \
        q.unwrap()\n}\n";
    let out = lint(&[("crates/serve/src/http.rs", waived)]);
    assert_one_suppressed(&out, RULE, "checked non-empty two lines up");

    // A char argument can only be the JSON parser's own `Result`-returning
    // `expect`; `Option::expect`/`Result::expect` take a `&str`, literal
    // or not.
    let parser =
        "fn object(&mut self) -> Result<(), E> {\n    self.expect(b'{')?;\n    Ok(())\n}\n";
    let out = lint(&[("crates/json/src/json.rs", parser)]);
    assert!(out.active.is_empty(), "{:?}", out.active);
    let literal = "fn f(q: Option<u32>) -> u32 {\n    q.expect(\"m\")\n}\n";
    let out = lint(&[("crates/json/src/json.rs", literal)]);
    assert_one_active(&out, RULE, "crates/json/src/json.rs", 2);
    let named = "fn f(q: Option<u32>, msg: &str) -> u32 {\n    q.expect(msg)\n}\n";
    let out = lint(&[("crates/json/src/json.rs", named)]);
    assert_one_active(&out, RULE, "crates/json/src/json.rs", 2);

    // The JSON codec parses every request body, so it is in scope too.
    let index = "fn f(b: &[u8], i: usize) -> u8 {\n    b[i]\n}\n";
    let out = lint(&[("crates/json/src/json.rs", index)]);
    assert_one_active(&out, RULE, "crates/json/src/json.rs", 2);
    let out = lint(&[("crates/json/src/lib.rs", bad)]);
    assert_one_active(&out, RULE, "crates/json/src/lib.rs", 2);

    // Out of scope: bins, non-serve crates, and #[cfg(test)] modules.
    let out = lint(&[
        ("crates/serve/src/bin/hl_client.rs", bad),
        ("crates/sim/src/engine.rs", bad),
        (
            "crates/serve/src/api.rs",
            "#[cfg(test)]\nmod tests {\n    fn t(q: Option<u32>) { q.unwrap(); }\n}\n",
        ),
    ]);
    assert!(out.active.is_empty(), "{:?}", out.active);
}

#[test]
fn safety_comment_fixture() {
    const RULE: &str = "safety-comment-on-unsafe";
    let bad = "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
    let out = lint(&[("crates/serve/src/epoll.rs", bad)]);
    assert_one_active(&out, RULE, "crates/serve/src/epoll.rs", 2);

    // A `// SAFETY:` comment above satisfies the rule — no waiver needed.
    let good = "fn f(p: *const u8) -> u8 {\n    \
        // SAFETY: caller guarantees `p` is valid for reads\n    \
        unsafe { *p }\n}\n";
    let out = lint(&[("crates/serve/src/epoll.rs", good)]);
    assert!(out.active.is_empty(), "{:?}", out.active);

    let waived = "fn f(p: *const u8) -> u8 {\n    \
        // hl-lint: allow(safety-comment-on-unsafe, documented on the caller instead)\n    \
        unsafe { *p }\n}\n";
    let out = lint(&[("crates/serve/src/epoll.rs", waived)]);
    assert_one_suppressed(&out, RULE, "documented on the caller instead");
}

#[test]
fn eprintln_in_serve_fixture() {
    const RULE: &str = "no-raw-eprintln-in-serve";
    let bad = "fn warn(m: &str) {\n    eprintln!(\"warn: {m}\");\n}\n";
    let out = lint(&[("crates/serve/src/worker.rs", bad)]);
    assert_one_active(&out, RULE, "crates/serve/src/worker.rs", 2);

    let waived =
        "// hl-lint: allow-file(no-raw-eprintln-in-serve, fixture CLI, stderr is the UI)\n\
        fn warn(m: &str) {\n    eprintln!(\"warn: {m}\");\n}\n";
    let out = lint(&[("crates/serve/src/worker.rs", waived)]);
    assert_one_suppressed(&out, RULE, "fixture CLI, stderr is the UI");

    // println! (stdout) and non-serve crates are out of scope.
    let out = lint(&[
        (
            "crates/serve/src/worker.rs",
            "fn ok(m: &str) { println!(\"{m}\"); }\n",
        ),
        ("crates/bench/src/report.rs", bad),
    ]);
    assert!(out.active.is_empty(), "{:?}", out.active);
}

#[test]
fn wallclock_fixture() {
    const RULE: &str = "no-wallclock-in-deterministic-crates";
    let bad = "use std::time::Instant;\nfn f() {\n    let _t = Instant::now();\n}\n";
    let out = lint(&[("crates/sim/src/mapper.rs", bad)]);
    // Both the import and the use fire; the first is the import line.
    assert!(!out.active.is_empty());
    assert!(out.active.iter().all(|f| f.rule == RULE));
    assert_eq!(out.active[0].file, "crates/sim/src/mapper.rs");
    assert_eq!(out.active[0].line, 1);

    let waived = "fn f() {\n    \
        // hl-lint: allow(no-wallclock-in-deterministic-crates, coarse progress display only)\n    \
        let _t = std::time::Instant::now();\n}\n";
    let out = lint(&[("crates/sim/src/mapper.rs", waived)]);
    assert_one_suppressed(&out, RULE, "coarse progress display only");

    // The evaluation layer (sweep context, co-design search) is covered.
    let out = lint(&[("crates/eval/src/search.rs", bad)]);
    assert!(!out.active.is_empty());
    assert_eq!(out.active[0].file, "crates/eval/src/search.rs");
    assert_eq!(out.active[0].line, 1);

    // The serving stack legitimately reads clocks.
    let out = lint(&[("crates/serve/src/server.rs", bad)]);
    assert!(out.active.is_empty(), "{:?}", out.active);
}

/// The committed tree itself must lint clean against its committed
/// baseline — the same gate CI applies with `--deny`, enforced here so
/// a plain `cargo test` catches regressions too.
#[test]
fn real_workspace_is_clean_under_committed_baseline() {
    let root = walk::find_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above the analysis crate");
    let sources = walk::workspace_sources(&root).expect("workspace sources readable");
    let mut pre = Vec::new();
    let ws = engine::load_workspace(sources, &mut pre);
    let baseline_text =
        std::fs::read_to_string(root.join("lint-baseline.txt")).expect("committed baseline");
    let baseline = hl_analysis::baseline::Baseline::parse(&baseline_text).expect("baseline parses");
    let out = engine::run(&ws, Some(baseline), pre);
    assert!(
        out.active.is_empty(),
        "the tree has active lint findings:\n{}",
        out.active
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Every inline suppression in the tree carries a reason.
    assert!(out.suppressed.iter().all(|(_, reason)| !reason.is_empty()));
}
