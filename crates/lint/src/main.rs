#![forbid(unsafe_code)]
//! `exea-lint` — the workspace invariant checker.
//!
//! Statically enforces the three invariants every PR in this repository
//! defends (see `ARCHITECTURE.md`): bit-identical returned scores, NaN-safe
//! total orders, and deterministic parallel merges — plus the unsafe-code
//! boundary and the no-wall-clock-in-hot-path rule that keep candidate
//! generation replayable. The property suites can only catch violations on
//! the inputs they generate; this pass rejects the violating *patterns*
//! before they land.
//!
//! ```text
//! exea-lint --workspace [--root DIR] [--format=text|compact|json]
//! exea-lint [--format=..] PATH [PATH..]
//! ```
//!
//! Exit status: `0` clean, `1` diagnostics reported, `2` usage/IO error.
//! Suppress a finding with an inline justification:
//!
//! ```text
//! // exea-lint: allow(unsafe-boundary) -- vetted: audited bounds-checked read
//! ```

mod allow;
mod diag;
mod lexer;
mod rules;

use diag::{Diagnostic, Format};
use rules::FileCtx;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(0) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("exea-lint: error: {e}");
            ExitCode::from(2)
        }
    }
}

struct Options {
    workspace: bool,
    root: PathBuf,
    format: Format,
    paths: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workspace: false,
        root: PathBuf::from("."),
        format: Format::Text,
        paths: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workspace" => opts.workspace = true,
            "--help" | "-h" => {
                return Err("usage: exea-lint [--workspace] [--root DIR] \
                            [--format=text|compact|json] [PATH..]"
                    .to_string())
            }
            _ if a.starts_with("--format=") => {
                opts.format = match &a["--format=".len()..] {
                    "text" => Format::Text,
                    "compact" => Format::Compact,
                    "json" => Format::Json,
                    other => return Err(format!("unknown format `{other}`")),
                };
            }
            "--root" => {
                let dir = it.next().ok_or("--root requires a directory")?;
                opts.root = PathBuf::from(dir);
            }
            _ if a.starts_with("--root=") => {
                opts.root = PathBuf::from(&a["--root=".len()..]);
            }
            _ if a.starts_with("--") => return Err(format!("unknown flag `{a}`")),
            path => opts.paths.push(path.to_string()),
        }
    }
    if !opts.workspace && opts.paths.is_empty() {
        return Err("nothing to lint: pass --workspace or explicit paths".to_string());
    }
    Ok(opts)
}

fn run(args: &[String]) -> Result<usize, String> {
    let opts = parse_args(args)?;
    let mut files: Vec<(PathBuf, String)> = Vec::new();

    if opts.workspace {
        let mut found = Vec::new();
        walk(&opts.root, &mut found).map_err(|e| format!("walking {:?}: {e}", opts.root))?;
        for f in found {
            let display = display_path(&f, &opts.root);
            files.push((f, display));
        }
    }
    for p in &opts.paths {
        let path = PathBuf::from(p);
        if path.is_dir() {
            let mut found = Vec::new();
            walk(&path, &mut found).map_err(|e| format!("walking {p}: {e}"))?;
            for f in found {
                let display = display_path(&f, Path::new("."));
                files.push((f, display));
            }
        } else {
            files.push((path, p.replace('\\', "/")));
        }
    }

    let mut all: Vec<Diagnostic> = Vec::new();
    for (fs_path, display) in &files {
        let src = fs::read_to_string(fs_path).map_err(|e| format!("reading {display}: {e}"))?;
        let lexed = lexer::lex(&src);
        let mut allows = allow::parse(&lexed.comments, display);
        let ctx = file_ctx(fs_path, display);
        let mut diags = rules::check(&lexed.tokens, &ctx);
        diags.retain(|d| !allows.suppresses(d.rule, d.line));
        all.append(&mut diags);
        all.append(&mut allows.parse_diags);
        all.extend(allows.unused(display));
    }

    all.sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));
    print!("{}", diag::render(&all, opts.format, files.len()));
    eprintln!(
        "exea-lint: {} file(s) scanned, {} diagnostic(s)",
        files.len(),
        all.len()
    );
    Ok(all.len())
}

/// First-party source discovery: every `.rs` file below the root except the
/// vendored shims, build artifacts, VCS metadata and the lint's own golden
/// fixtures (which contain deliberate violations).
fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", "fixtures"];
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn display_path(path: &Path, root: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Path-derived rule scoping. Substring matching (rather than exact roots)
/// keeps the golden fixtures honest: a fixture under
/// `tests/fixtures/wall-clock-in-hot-path/ea-embed/src/` exercises the same
/// scoping logic the real tree does.
fn file_ctx(fs_path: &Path, display: &str) -> FileCtx {
    let file_name = fs_path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    let crate_root = if file_name == "lib.rs" {
        true
    } else {
        file_name == "main.rs"
            && fs_path
                .parent()
                .is_some_and(|p| p.file_name().is_some_and(|n| n == "src"))
            && !fs_path.with_file_name("lib.rs").exists()
    };
    FileCtx {
        path: display.to_string(),
        is_order_module: display.ends_with("ea-embed/src/order.rs"),
        hot_scope: display.contains("ea-embed/src/")
            || display.contains("core/src/")
            || display.starts_with("src/"),
        crate_root,
        serve_library: display.contains("serve/src/"),
    }
}
