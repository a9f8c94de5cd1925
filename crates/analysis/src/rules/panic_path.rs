//! `no-panic-in-request-path`: panics reachable from `Server::run`.
//!
//! The PR 7 audit hand-removed `unwrap`/`expect`/`unreachable!` from
//! every request-reachable site in the serving core (a worker panic
//! kills a thread; an event-loop panic kills the server). This rule
//! keeps that audit mechanical: inside the serve library's request
//! path — everything under `crates/serve/src/` except the CLI binaries
//! and the client half, plus the JSON codec under `crates/json/src/`,
//! which parses every request body — it flags
//!
//! - `.unwrap()` / `.expect(..)` method calls — except `.expect` with a
//!   char argument (`self.expect(b'{')?`): `Option::expect` and
//!   `Result::expect` take a `&str`, so that can only be the JSON
//!   parser's own `Result`-returning method,
//! - `panic!` / `unreachable!` / `todo!` / `unimplemented!` /
//!   `assert*!` macro invocations,
//! - index/slice expressions (`buf[i]`, `&q[..n]`), which panic out of
//!   bounds.
//!
//! `#[cfg(test)]` modules are exempt (test panics are assertions).
//! Pre-existing sites are grandfathered in the committed baseline; new
//! ones need a fix or an inline `allow` with a reason.

use super::{finding_at, under_dir, Rule};
use crate::findings::Finding;
use crate::lexer::TokenKind;
use crate::source::SourceFile;

/// See module docs.
pub struct NoPanicInRequestPath;

/// The stable rule name.
pub const NAME: &str = "no-panic-in-request-path";

/// Panicking macros (followed by `!`).
const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Keywords that can directly precede `[` without forming an index
/// expression (`let [a, b] = …`, `return [x]`, `in [..]`, …).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "mut", "in", "return", "if", "else", "match", "while", "move", "ref", "as", "break",
    "continue", "where", "unsafe", "const", "static", "box", "yield", "dyn", "impl", "for",
];

/// True for files on the request path: the serve library's event loop,
/// parsing, dispatch and rendering — not the CLI binaries (their panics
/// end one offline process) and not the client half — and the JSON
/// codec every request body goes through.
fn on_request_path(path: &str) -> bool {
    (under_dir(path, "crates/serve/src")
        && !under_dir(path, "crates/serve/src/bin")
        && !path.ends_with("/client.rs"))
        || under_dir(path, "crates/json/src")
}

impl Rule for NoPanicInRequestPath {
    fn name(&self) -> &'static str {
        NAME
    }

    fn description(&self) -> &'static str {
        "no unwrap/expect/panic-family macros/indexing in serve or JSON-codec code reachable from Server::run"
    }

    fn check_file(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        if !on_request_path(&file.path) {
            return;
        }
        let n = file.sig_len();
        for i in 0..n {
            let tok = *file.sig_token(i);
            if file.in_test_code(tok.start) {
                continue;
            }
            let text = tok.text(&file.text);
            match tok.kind {
                // `.unwrap(` — a method call, not a path segment
                // (`Option::unwrap` as a fn pointer is rare enough to
                // flag too, but requires the preceding dot here).
                TokenKind::Ident
                    if (text == "unwrap" || text == "expect")
                        && i > 0
                        && file.sig_is_punct(i - 1, '.')
                        && i + 1 < n
                        && file.sig_is_punct(i + 1, '(')
                        && !(text == "expect"
                            && i + 2 < n
                            && file.sig_token(i + 2).kind == TokenKind::Char) =>
                {
                    out.push(finding_at(
                        file,
                        &tok,
                        NAME,
                        format!(
                            "`.{text}(..)` can panic on a request path reachable from \
                             `Server::run`; propagate the error or handle the `None`"
                        ),
                    ));
                }
                TokenKind::Ident
                    if PANIC_MACROS.contains(&text)
                        && i + 1 < n
                        && file.sig_is_punct(i + 1, '!') =>
                {
                    // `debug_assert*!` compiles out of release servers and
                    // is the sanctioned way to state invariants; `assert*!`
                    // and friends abort the request thread for real.
                    out.push(finding_at(
                        file,
                        &tok,
                        NAME,
                        format!(
                            "`{text}!` panics on a request path reachable from `Server::run`; \
                             return a structured error (or demote to `debug_assert!`)"
                        ),
                    ));
                }
                TokenKind::Punct if text == "[" && i > 0 => {
                    let prev = *file.sig_token(i - 1);
                    let prev_text = prev.text(&file.text);
                    // An index expression: `expr[..]` where expr ends in
                    // an identifier, `)`, or `]`. Attributes (`#[..]`),
                    // macro brackets (`vec![..]`), array literals/types
                    // and patterns all have other preceding tokens.
                    let indexes = match prev.kind {
                        TokenKind::Ident => !NON_INDEX_KEYWORDS.contains(&prev_text),
                        TokenKind::Punct => prev_text == ")" || prev_text == "]",
                        _ => false,
                    };
                    if indexes {
                        out.push(finding_at(
                            file,
                            &tok,
                            NAME,
                            format!(
                                "indexing `{prev_text}[..]` can panic out of bounds on a request \
                                 path reachable from `Server::run`; use `.get(..)` or a checked \
                                 slice"
                            ),
                        ));
                    }
                }
                _ => {}
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
        NoPanicInRequestPath.check_file(&f, &mut out);
        out
    }

    fn run(src: &str) -> Vec<Finding> {
        run_at("crates/serve/src/server.rs", src)
    }

    #[test]
    fn unwrap_expect_macros_and_indexing_fire() {
        let out = run("fn f(v: &[u8]) {\n\
             \x20   let a = x.unwrap();\n\
             \x20   let b = y.expect(\"y\");\n\
             \x20   panic!(\"boom\");\n\
             \x20   unreachable!();\n\
             \x20   assert_eq!(a, b);\n\
             \x20   let c = v[0];\n\
             }\n");
        let lines: Vec<u32> = out.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![2, 3, 4, 5, 6, 7]);
        assert!(out.iter().all(|f| f.rule == NAME));
    }

    #[test]
    fn non_panicking_forms_do_not_fire() {
        let out = run("fn f(v: &[u8]) {\n\
             \x20   let a = x.unwrap_or(0);\n\
             \x20   let b = v.get(0);\n\
             \x20   let c = [1, 2, 3];\n\
             \x20   let [d, e] = pair;\n\
             \x20   let f = vec![1];\n\
             \x20   #[allow(dead_code)]\n\
             \x20   debug_assert!(a > 0);\n\
             \x20   // x.unwrap() in prose\n\
             \x20   let s = \"x.unwrap()\";\n\
             }\n");
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn scope_covers_lib_not_bins_client_or_tests() {
        let src = "fn f() { x.unwrap(); }\n";
        assert_eq!(run_at("crates/serve/src/api.rs", src).len(), 1);
        assert!(run_at("crates/serve/src/bin/hl_serve.rs", src).is_empty());
        assert!(run_at("crates/serve/src/client.rs", src).is_empty());
        assert!(run_at("crates/sim/src/eval.rs", src).is_empty());
        let with_tests =
            "fn f() { g(); }\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n";
        assert!(run_at("crates/serve/src/api.rs", with_tests).is_empty());
    }
}
