//! The two project invariants clippy has no lint for, checked over every
//! first-party source file (`crates/`, `src/`, `tests/`, `examples/`;
//! not the `shims/` stand-ins for crates.io packages). The other
//! invariants are clippy lints; the README's "Project invariants" table
//! lists them all.
//!
//! - A hand-declared FFI block (`extern "C" {`) has a `// SAFETY:`
//!   comment in the comment block directly above it: a wrong prototype
//!   is undefined behaviour at every call site.
//! - No code uses `partial_cmp` except to define it. On floats it returns
//!   `None` for NaN, so a caller must unwrap or pick an order for it;
//!   `total_cmp` orders NaN and cannot panic.

use std::fs;
use std::path::Path;

/// Built with `concat!` so this file's own code lines do not match.
const EXTERN_BLOCK: &str = concat!("extern \"C\"", " {");
const PARTIAL_CMP: &str = concat!("partial", "_cmp");
const PARTIAL_CMP_DEF: &str = concat!("fn partial", "_cmp(");

/// Appends every `.rs` file under `dir` to `out` as (path, text).
fn collect(dir: &Path, out: &mut Vec<(String, String)>) {
    for entry in fs::read_dir(dir).expect("source directory is readable") {
        let path = entry.expect("directory entry is readable").path();
        if path.is_dir() {
            collect(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            let text = fs::read_to_string(&path).expect("source file is UTF-8");
            out.push((path.display().to_string(), text));
        }
    }
}

/// Each violation in one file, as `path:line: message`.
fn violations(path: &str, text: &str) -> Vec<String> {
    let lines: Vec<&str> = text.lines().map(str::trim_start).collect();
    let mut found = Vec::new();
    for (i, code) in lines.iter().enumerate() {
        if code.starts_with("//") {
            continue;
        }
        let is_extern_block = code
            .strip_prefix("unsafe ")
            .unwrap_or(code)
            .starts_with(EXTERN_BLOCK);
        let documented = || {
            lines[..i]
                .iter()
                .rev()
                .take_while(|line| line.starts_with("//"))
                .any(|line| line.contains("SAFETY:"))
        };
        if is_extern_block && !documented() {
            found.push(format!(
                "{path}:{}: extern block without a `// SAFETY:` comment directly above",
                i + 1
            ));
        }
        if code.contains(PARTIAL_CMP) && !code.contains(PARTIAL_CMP_DEF) {
            found.push(format!(
                "{path}:{}: `{PARTIAL_CMP}` is `None` on NaN; use `total_cmp`",
                i + 1
            ));
        }
    }
    found
}

#[test]
fn first_party_sources_keep_the_invariants() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        collect(&root.join(top), &mut files);
    }
    assert!(files.len() > 100, "only {} source files found", files.len());
    let found: Vec<String> = files
        .iter()
        .flat_map(|(path, text)| violations(path, text))
        .collect();
    assert!(found.is_empty(), "{}", found.join("\n"));
}

#[test]
fn seeded_violations_are_found() {
    let undocumented = format!("// SAFETY: about f.\nfn f() {{}}\n\n{EXTERN_BLOCK}\n}}\n");
    assert_eq!(
        violations("a.rs", &undocumented),
        ["a.rs:4: extern block without a `// SAFETY:` comment directly above"]
    );
    let unsafe_undocumented = format!("// The libc prototypes.\nunsafe {EXTERN_BLOCK}\n}}\n");
    assert_eq!(violations("a.rs", &unsafe_undocumented).len(), 1);
    let documented =
        format!("    // SAFETY: matches close(2).\n    // More.\n    {EXTERN_BLOCK}\n    }}\n");
    assert!(violations("a.rs", &documented).is_empty());

    let chained = format!("v.sort_by(|a, b| {{\n    a.{PARTIAL_CMP}(b)\n        .unwrap()\n}});\n");
    assert_eq!(
        violations("b.rs", &chained),
        [format!(
            "b.rs:2: `{PARTIAL_CMP}` is `None` on NaN; use `total_cmp`"
        )]
    );
    let by_path = format!("v.sort_by(f64::{PARTIAL_CMP});\n");
    assert_eq!(violations("b.rs", &by_path).len(), 1);
    let definition = format!("    {PARTIAL_CMP_DEF}&self, other: &Self) -> Option<Ordering> {{\n");
    let commented = format!("/// `{PARTIAL_CMP}` is banned; use `total_cmp`.\n");
    assert!(violations("b.rs", &definition).is_empty());
    assert!(violations("b.rs", &commented).is_empty());
}
