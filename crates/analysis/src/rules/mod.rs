//! The rule catalog.
//!
//! Each rule is a named project invariant with a precise diagnostic;
//! the set mirrors the bug classes past PRs fixed by hand-audit so they
//! cannot regress silently. Each rule implements [`Rule::check_file`].

mod eprintln_serve;
mod panic_path;
mod partial_cmp;
mod safety;
mod wallclock;

use crate::findings::Finding;
use crate::lexer::Token;
use crate::source::SourceFile;

pub use eprintln_serve::NoRawEprintlnInServe;
pub use panic_path::NoPanicInRequestPath;
pub use partial_cmp::NoFloatPartialCmpUnwrap;
pub use safety::SafetyCommentOnUnsafe;
pub use wallclock::NoWallclockInDeterministicCrates;

/// All files under analysis.
#[derive(Debug, Default)]
pub struct Workspace {
    /// The lexed files, in walk order.
    pub files: Vec<SourceFile>,
}

/// One project invariant.
pub trait Rule: Sync {
    /// Stable kebab-case name (suppression and baseline key).
    fn name(&self) -> &'static str;
    /// One-line description for `--list-rules` and the README catalog.
    fn description(&self) -> &'static str;
    /// Checks one file.
    fn check_file(&self, file: &SourceFile, out: &mut Vec<Finding>);
}

/// The full rule set, in catalog order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(NoFloatPartialCmpUnwrap),
        Box::new(NoPanicInRequestPath),
        Box::new(SafetyCommentOnUnsafe),
        Box::new(NoRawEprintlnInServe),
        Box::new(NoWallclockInDeterministicCrates),
    ]
}

/// The names of every rule (plus meta-rules handled by the engine).
pub fn rule_names() -> Vec<&'static str> {
    let mut names: Vec<&'static str> = all_rules().iter().map(|r| r.name()).collect();
    names.push(crate::suppress::BAD_SUPPRESSION);
    names.push(crate::suppress::UNUSED_SUPPRESSION);
    names.push(crate::engine::LEX_ERROR);
    names
}

/// Builds a finding anchored at `token` in `file`.
pub(crate) fn finding_at(
    file: &SourceFile,
    token: &Token,
    rule: &'static str,
    message: String,
) -> Finding {
    let (line, col) = file.line_col(token.start);
    Finding {
        rule,
        file: file.path.clone(),
        line,
        col,
        message,
        snippet: file.line_text(line).trim().to_string(),
    }
}

/// True for path `p` (always `/`-separated) under directory `dir`.
pub(crate) fn under_dir(p: &str, dir: &str) -> bool {
    p.starts_with(dir) && p[dir.len()..].starts_with('/')
}
