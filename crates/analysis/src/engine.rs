//! The lint driver: lex every file, run the rule catalog, then apply
//! inline suppressions and the committed baseline to partition raw
//! findings into *active* (fail `--deny`), *suppressed* (waived inline,
//! with a reason), and *baselined* (grandfathered).

use crate::baseline::Baseline;
use crate::findings::Finding;
use crate::rules::{all_rules, rule_names, Workspace};
use crate::source::SourceFile;
use crate::suppress;

/// The meta-rule name for files the lexer could not tokenize.
pub const LEX_ERROR: &str = "lex-error";

/// The partitioned outcome of a lint run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Findings that count against `--deny`, sorted by location.
    pub active: Vec<Finding>,
    /// Findings waived inline, with the waiver's reason.
    pub suppressed: Vec<(Finding, String)>,
    /// Findings absorbed by the committed baseline.
    pub baselined: Vec<Finding>,
}

/// Builds a [`Workspace`] from `(path, text)` pairs, converting lexer
/// failures into `lex-error` findings instead of aborting the run.
pub fn load_workspace(sources: Vec<(String, String)>, errors: &mut Vec<Finding>) -> Workspace {
    let mut ws = Workspace::default();
    for (path, text) in sources {
        match SourceFile::parse(path.clone(), text) {
            Ok(f) => ws.files.push(f),
            Err(e) => {
                errors.push(Finding {
                    rule: LEX_ERROR,
                    file: path,
                    line: 1,
                    col: 1,
                    message: format!("cannot lex file (byte {}): {}", e.offset, e.message),
                    snippet: String::new(),
                });
            }
        }
    }
    ws
}

/// Runs the full catalog over `ws` and partitions the results.
///
/// `extra` carries findings produced before rules ran (lex errors).
/// `baseline` (if any) absorbs grandfathered findings; meta-findings
/// (`bad-suppression`, `unused-suppression`, `lex-error`) are never
/// baselined or suppressed — they must be fixed at the source.
pub fn run(ws: &Workspace, mut baseline: Option<Baseline>, extra: Vec<Finding>) -> Outcome {
    let rules = all_rules();
    let known = rule_names();
    let mut raw: Vec<Finding> = Vec::new();
    for rule in &rules {
        for file in &ws.files {
            rule.check_file(file, &mut raw);
        }
    }

    let mut outcome = Outcome::default();
    let mut meta: Vec<Finding> = extra;

    // Per-file suppression pass.
    let mut all_sups: Vec<(usize, Vec<suppress::Suppression>)> = ws
        .files
        .iter()
        .enumerate()
        .map(|(i, f)| (i, suppress::collect(f, &known, &mut meta)))
        .collect();

    for finding in raw {
        let sup = all_sups
            .iter_mut()
            .find(|(i, _)| ws.files[*i].path == finding.file)
            .and_then(|(_, sups)| {
                sups.iter_mut()
                    .find(|s| suppress::covers(s, finding.rule, finding.line))
            });
        if let Some(s) = sup {
            s.used = true;
            let reason = s.reason.clone();
            outcome.suppressed.push((finding, reason));
        } else if baseline.as_mut().is_some_and(|b| b.absorb(&finding)) {
            outcome.baselined.push(finding);
        } else {
            outcome.active.push(finding);
        }
    }

    for (i, sups) in &all_sups {
        suppress::report_unused(&ws.files[*i].path, sups, &mut meta);
    }
    outcome.active.extend(meta);
    outcome
        .active
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        let mut errors = Vec::new();
        let ws = load_workspace(
            files
                .iter()
                .map(|(p, t)| (p.to_string(), t.to_string()))
                .collect(),
            &mut errors,
        );
        assert!(errors.is_empty());
        ws
    }

    #[test]
    fn suppression_waives_exactly_its_rule_and_site() {
        let src = "\
fn f() {
    // hl-lint: allow(no-panic-in-request-path, startup-only path, never per-request)
    let a = x.unwrap();
    let b = y.unwrap();
}
";
        let out = run(&ws(&[("crates/serve/src/api.rs", src)]), None, Vec::new());
        assert_eq!(out.suppressed.len(), 1);
        assert_eq!(out.suppressed[0].0.line, 3);
        assert_eq!(out.suppressed[0].1, "startup-only path, never per-request");
        assert_eq!(out.active.len(), 1);
        assert_eq!(out.active[0].line, 4);
    }

    #[test]
    fn unused_suppressions_and_lex_errors_surface_as_active() {
        let src =
            "// hl-lint: allow(no-panic-in-request-path, nothing here to waive)\nfn ok() {}\n";
        let out = run(&ws(&[("crates/serve/src/api.rs", src)]), None, Vec::new());
        assert_eq!(out.active.len(), 1);
        assert_eq!(out.active[0].rule, suppress::UNUSED_SUPPRESSION);

        let mut errors = Vec::new();
        let bad = load_workspace(
            vec![(
                "crates/x/src/lib.rs".to_string(),
                "let s = \"open".to_string(),
            )],
            &mut errors,
        );
        assert!(bad.files.is_empty());
        let out = run(&bad, None, errors);
        assert_eq!(out.active.len(), 1);
        assert_eq!(out.active[0].rule, LEX_ERROR);
    }

    #[test]
    fn baseline_absorbs_then_overflow_is_active() {
        let src = "fn f() { a.unwrap(); }\nfn g() { a.unwrap(); }\n";
        let w = ws(&[("crates/serve/src/api.rs", src)]);
        let baseline = Baseline::parse(
            "no-panic-in-request-path\tcrates/serve/src/api.rs\t1\tfn f() { a.unwrap(); }\n",
        )
        .unwrap();
        let out = run(&w, Some(baseline), Vec::new());
        assert_eq!(out.baselined.len(), 1);
        assert_eq!(out.active.len(), 1, "{:?}", out.active);
        assert_eq!(out.active[0].line, 2);
    }
}
