//! `no-wallclock-in-deterministic-crates`: the evaluation stack must be
//! a pure function of its inputs.
//!
//! The byte-identity suites (engine vs serial sweeps, snapshot replay,
//! codesign search across thread counts) only hold because nothing in
//! `tensor`/`sparsity`/`sim`/`fibertree`/`models`/`eval` reads a clock. Timing
//! belongs in `bench`/`serve`. The rule bans even *importing*
//! `Instant`/`SystemTime` in those crates' library code — an unused
//! import is one refactor away from a nondeterministic eval path.
//! `#[cfg(test)]` modules are exempt (tests may time themselves).

use super::{finding_at, under_dir, Rule};
use crate::findings::Finding;
use crate::source::SourceFile;

/// See module docs.
pub struct NoWallclockInDeterministicCrates;

/// The stable rule name.
pub const NAME: &str = "no-wallclock-in-deterministic-crates";

/// Crates whose outputs back byte-identity tests.
const DETERMINISTIC_CRATES: &[&str] = &[
    "crates/tensor/src",
    "crates/sparsity/src",
    "crates/sim/src",
    "crates/fibertree/src",
    "crates/models/src",
    "crates/eval/src",
];

/// Banned wall-clock type names.
const BANNED: &[&str] = &["Instant", "SystemTime"];

impl Rule for NoWallclockInDeterministicCrates {
    fn name(&self) -> &'static str {
        NAME
    }

    fn description(&self) -> &'static str {
        "no `Instant`/`SystemTime` in tensor/sparsity/sim/fibertree/models/eval eval paths"
    }

    fn check_file(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        if !DETERMINISTIC_CRATES
            .iter()
            .any(|dir| under_dir(&file.path, dir))
        {
            return;
        }
        for i in 0..file.sig_len() {
            let tok = *file.sig_token(i);
            if file.in_test_code(tok.start) {
                continue;
            }
            let text = tok.text(&file.text);
            if BANNED.contains(&text) {
                out.push(finding_at(
                    file,
                    &tok,
                    NAME,
                    format!(
                        "`{text}` in a deterministic crate: these eval paths back the \
                         byte-identity tests; move timing to `bench`/`serve`"
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_at(path: &str, src: &str) -> Vec<Finding> {
        let f = SourceFile::parse(path, src).unwrap();
        let mut out = Vec::new();
        NoWallclockInDeterministicCrates.check_file(&f, &mut out);
        out
    }

    #[test]
    fn imports_and_calls_fire_in_deterministic_crates() {
        let src = "use std::time::Instant;\nfn f() { let t = SystemTime::now(); }\n";
        let out = run_at("crates/sim/src/engine.rs", src);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].line, 1);
        assert_eq!(out[1].line, 2);
    }

    #[test]
    fn serve_bench_and_test_modules_are_exempt() {
        let src = "use std::time::Instant;\n";
        assert!(run_at("crates/serve/src/server.rs", src).is_empty());
        assert!(run_at("crates/bench/src/lib.rs", src).is_empty());
        assert!(run_at("crates/sim/tests/network.rs", src).is_empty());
        let with_tests = "fn f() {}\n#[cfg(test)]\nmod tests {\n    use std::time::Instant;\n}\n";
        assert!(run_at("crates/sim/src/engine.rs", with_tests).is_empty());
        // Mentions in comments/strings don't count.
        let prose = "// Instant::now() would break determinism\nfn f() {}\n";
        assert!(run_at("crates/sim/src/engine.rs", prose).is_empty());
    }
}
