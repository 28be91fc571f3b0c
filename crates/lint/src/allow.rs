//! The `// exea-lint: allow(<rule>) -- <justification>` escape hatch.
//!
//! An allow directive lives in a line comment, names one or more rules
//! (comma-separated), and **must** carry a justification after `--`; an
//! unjustified or unknown-rule directive is itself a diagnostic
//! (`malformed-allow`). A directive suppresses matching diagnostics on its
//! own line (trailing form) or on the line directly below (preceding form).
//! Directives that suppress nothing are reported as `unused-allow`, so stale
//! escapes cannot accumulate.

use crate::diag::Diagnostic;
use crate::lexer::Comment;
use crate::rules;

/// One parsed allow directive.
#[derive(Debug)]
pub struct AllowDirective {
    line: u32,
    rules: Vec<String>,
    used: bool,
}

/// All directives of one file plus the diagnostics produced while parsing
/// them.
#[derive(Debug, Default)]
pub struct Allows {
    directives: Vec<AllowDirective>,
    /// `malformed-allow` findings (missing justification, unknown rule, …).
    pub parse_diags: Vec<Diagnostic>,
}

/// The marker an allow comment starts with (after comment trivia).
const MARKER: &str = "exea-lint:";

/// Parses every `exea-lint:` directive out of a file's line comments.
pub fn parse(comments: &[Comment], path: &str) -> Allows {
    fn bad(out: &mut Allows, path: &str, c: &Comment, msg: String) {
        out.parse_diags.push(Diagnostic {
            rule: "malformed-allow",
            path: path.to_string(),
            line: c.line,
            col: c.col,
            message: msg,
        });
    }

    let mut out = Allows::default();
    for c in comments {
        // Strip doc-comment markers (`///` and `//!` arrive as a leading
        // `/` or `!` in the captured text) and whitespace.
        let body = c.text.trim_start_matches(['/', '!']).trim();
        let Some(rest) = body.strip_prefix(MARKER) else {
            continue;
        };
        let rest = rest.trim();
        let Some(rest) = rest.strip_prefix("allow(") else {
            bad(
                &mut out,
                path,
                c,
                format!("expected `allow(<rule>) -- <justification>` after `{MARKER}`"),
            );
            continue;
        };
        let Some(close) = rest.find(')') else {
            bad(&mut out, path, c, "unclosed `allow(` directive".to_string());
            continue;
        };
        let mut names = Vec::new();
        let mut all_known = true;
        for name in rest[..close].split(',') {
            let name = name.trim();
            if rules::is_known_rule(name) {
                names.push(name.to_string());
            } else {
                all_known = false;
                bad(
                    &mut out,
                    path,
                    c,
                    format!(
                        "unknown rule `{name}` in allow directive (known rules: {})",
                        rules::RULES.join(", ")
                    ),
                );
            }
        }
        let tail = rest[close + 1..].trim();
        let justification = tail.strip_prefix("--").map(str::trim);
        match justification {
            Some(j) if !j.is_empty() => {}
            _ => {
                bad(
                    &mut out,
                    path,
                    c,
                    "allow directive requires a justification: `-- <why this is sound>`"
                        .to_string(),
                );
                continue;
            }
        }
        if all_known && !names.is_empty() {
            out.directives.push(AllowDirective {
                line: c.line,
                rules: names,
                used: false,
            });
        }
    }
    out
}

impl Allows {
    /// True (and marks the directive used) if a diagnostic of `rule` at
    /// `line` is covered by a directive on the same line or the line above.
    pub fn suppresses(&mut self, rule: &str, line: u32) -> bool {
        let mut hit = false;
        for d in &mut self.directives {
            if (d.line == line || d.line + 1 == line) && d.rules.iter().any(|r| r == rule) {
                d.used = true;
                hit = true;
            }
        }
        hit
    }

    /// Diagnostics for directives that never suppressed anything.
    pub fn unused(&self, path: &str) -> Vec<Diagnostic> {
        self.directives
            .iter()
            .filter(|d| !d.used)
            .map(|d| Diagnostic {
                rule: "unused-allow",
                path: path.to_string(),
                line: d.line,
                col: 1,
                message: format!(
                    "allow({}) suppresses nothing on this or the next line; remove it",
                    d.rules.join(", ")
                ),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comment(line: u32, text: &str) -> Comment {
        Comment {
            line,
            col: 5,
            text: text.to_string(),
        }
    }

    #[test]
    fn parses_and_suppresses_same_and_next_line() {
        let mut a = parse(
            &[comment(
                4,
                " exea-lint: allow(unsafe-boundary) -- vetted audited call",
            )],
            "f.rs",
        );
        assert!(a.parse_diags.is_empty());
        assert!(a.suppresses("unsafe-boundary", 4));
        assert!(a.suppresses("unsafe-boundary", 5));
        assert!(!a.suppresses("unsafe-boundary", 6));
        assert!(!a.suppresses("nan-unsafe-order", 5));
        assert!(a.unused("f.rs").is_empty());
    }

    #[test]
    fn justification_is_required() {
        let a = parse(&[comment(1, " exea-lint: allow(nan-unsafe-order)")], "f.rs");
        assert_eq!(a.parse_diags.len(), 1);
        assert!(a.parse_diags[0].message.contains("justification"));
        let b = parse(
            &[comment(1, " exea-lint: allow(nan-unsafe-order) -- ")],
            "f.rs",
        );
        assert_eq!(b.parse_diags.len(), 1);
    }

    #[test]
    fn unknown_rules_are_reported() {
        let a = parse(
            &[comment(1, " exea-lint: allow(no-such-rule) -- x")],
            "f.rs",
        );
        assert_eq!(a.parse_diags.len(), 1);
        assert!(a.parse_diags[0].message.contains("unknown rule"));
    }

    #[test]
    fn unused_directives_are_reported() {
        let a = parse(
            &[comment(9, " exea-lint: allow(unsafe-boundary) -- stale")],
            "f.rs",
        );
        let unused = a.unused("f.rs");
        assert_eq!(unused.len(), 1);
        assert_eq!(unused[0].line, 9);
    }
}
