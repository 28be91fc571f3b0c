//! The seven invariant rules, implemented over the flat token stream.
//!
//! Each rule has a stable kebab-case name (used in diagnostics and in
//! `allow(..)` directives) and guards one of the workspace invariants
//! documented in `ARCHITECTURE.md`:
//!
//! | rule | invariant |
//! |---|---|
//! | `nan-unsafe-order` | NaN-safe total orders |
//! | `open-coded-float-sort` | NaN-safe total orders |
//! | `unordered-float-fold` | deterministic merges (hash iteration order) |
//! | `nondeterministic-par-idiom` | deterministic parallel merges |
//! | `unsafe-boundary` | no unsafe code anywhere in the workspace |
//! | `wall-clock-in-hot-path` | bit-identical, replayable hot paths |
//! | `panic-in-library-path` | the daemon answers typed errors, never dies |
//!
//! The rules are deliberately token-level heuristics (no type information):
//! they match the concrete idioms this workspace bans, they are tuned so the
//! blessed idioms (`ea_embed::order` comparators, `topk::rank_cmp`,
//! `par_iter().map(..).collect()`, BTreeMap iteration) never trip them, and
//! every behaviour is pinned by the golden fixtures under `tests/fixtures/`.

use crate::diag::Diagnostic;
use crate::lexer::{TokKind, Token};
use std::collections::HashSet;

/// Rule (1): `.partial_cmp(..).unwrap*()` / `.expect()` rankings and raw
/// `.total_cmp(..)` outside `ea_embed::order`.
pub const NAN_UNSAFE_ORDER: &str = "nan-unsafe-order";
/// Rule (2): sort/selection closures that compare floats without delegating
/// to a blessed comparator.
pub const OPEN_CODED_FLOAT_SORT: &str = "open-coded-float-sort";
/// Rule (3): float accumulation driven by `HashMap`/`HashSet` iteration
/// order.
pub const UNORDERED_FLOAT_FOLD: &str = "unordered-float-fold";
/// Rule (4): order-discarding parallel idioms (`for_each`, `par_bridge`,
/// float `reduce`).
pub const NONDETERMINISTIC_PAR_IDIOM: &str = "nondeterministic-par-idiom";
/// Rule (5): any `unsafe` token, plus the `#![forbid(unsafe_code)]` header
/// check on crate roots.
pub const UNSAFE_BOUNDARY: &str = "unsafe-boundary";
/// Rule (6): wall-clock / ambient-entropy calls inside hot-path library
/// code, including timed waits (`sleep`, `recv_timeout`) that turn into
/// time-driven maintenance scheduling.
pub const WALL_CLOCK_IN_HOT_PATH: &str = "wall-clock-in-hot-path";
/// Rule (7): `unwrap()`/`expect()`/`panic!`-family calls in the serving
/// daemon's library code, where an unwind kills a serving thread instead of
/// producing a typed protocol response.
pub const PANIC_IN_LIBRARY_PATH: &str = "panic-in-library-path";

/// All rule names, in diagnostic-priority order.
pub const RULES: &[&str] = &[
    NAN_UNSAFE_ORDER,
    OPEN_CODED_FLOAT_SORT,
    UNORDERED_FLOAT_FOLD,
    NONDETERMINISTIC_PAR_IDIOM,
    UNSAFE_BOUNDARY,
    WALL_CLOCK_IN_HOT_PATH,
    PANIC_IN_LIBRARY_PATH,
];

/// True for names that can appear in an `allow(..)` directive.
pub fn is_known_rule(name: &str) -> bool {
    RULES.contains(&name)
}

/// Per-file context the path-sensitive rules need.
pub struct FileCtx {
    /// Display path (workspace-relative, `/`-separated).
    pub path: String,
    /// True for `ea_embed::order` itself — exempt from rule (1), it is the
    /// one place allowed to build comparators out of `partial_cmp`.
    pub is_order_module: bool,
    /// True for hot-path library code (`crates/ea-embed/src`,
    /// `crates/core/src`, the umbrella `src/`) — scope of rule (6).
    pub hot_scope: bool,
    /// True for crate roots (`lib.rs`, or a `src/main.rs` with no sibling
    /// `lib.rs`) — scope of rule (5)'s header check.
    pub crate_root: bool,
    /// True for the serving daemon's library code (`crates/serve/src`) —
    /// scope of rule (7): a panic there kills a serving thread, so every
    /// failure must surface as a typed protocol response instead.
    pub serve_library: bool,
}

/// Runs every rule over one file's token stream.
pub fn check(tokens: &[Token], ctx: &FileCtx) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let masked = test_mask(tokens);
    nan_unsafe_order(tokens, ctx, &mut diags);
    open_coded_float_sort(tokens, ctx, &mut diags);
    unordered_float_fold(tokens, ctx, &mut diags);
    nondeterministic_par_idiom(tokens, ctx, &mut diags);
    unsafe_boundary(tokens, ctx, &mut diags);
    wall_clock_in_hot_path(tokens, ctx, &masked, &mut diags);
    panic_in_library_path(tokens, ctx, &masked, &mut diags);
    diags
}

// ---------------------------------------------------------------------------
// token-stream helpers

fn ident_at(t: &[Token], i: usize) -> Option<&str> {
    match t.get(i) {
        Some(tok) if tok.kind == TokKind::Ident => Some(&tok.text),
        _ => None,
    }
}

fn is_punct(t: &[Token], i: usize, s: &str) -> bool {
    matches!(t.get(i), Some(tok) if tok.kind == TokKind::Punct && tok.text == s)
}

/// Index of the delimiter matching the opener at `open` (`(`, `[` or `{`);
/// `t.len()` if unbalanced.
fn matching_close(t: &[Token], open: usize) -> usize {
    let (o, c) = match t[open].text.as_str() {
        "(" => ("(", ")"),
        "[" => ("[", "]"),
        "{" => ("{", "}"),
        _ => return open,
    };
    let mut depth = 0usize;
    for (i, tok) in t.iter().enumerate().skip(open) {
        if tok.kind == TokKind::Punct {
            if tok.text == o {
                depth += 1;
            } else if tok.text == c {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
        }
    }
    t.len()
}

/// With `t[open] == "<"`: index just past the matching `>`, `>>`-aware.
fn skip_angles(t: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < t.len() {
        if t[i].kind == TokKind::Punct {
            match t[i].text.as_str() {
                "<" => depth += 1,
                "<<" => depth += 2,
                ">" => depth -= 1,
                ">>" => depth -= 2,
                _ => {}
            }
        }
        i += 1;
        if depth <= 0 {
            return i;
        }
    }
    t.len()
}

/// One `.method::<..>(..)` segment of a call chain.
#[derive(Clone, Copy)]
struct Seg {
    /// Index of the method-name ident.
    name: usize,
    /// Half-open span of the turbofish interior (empty if absent).
    tf: (usize, usize),
    /// Half-open span of the argument tokens (empty if absent).
    args: (usize, usize),
}

/// Walks `.a(..).b::<..>(..)…` starting just past a call's closing paren.
fn method_chain(t: &[Token], mut j: usize) -> Vec<Seg> {
    let mut segs = Vec::new();
    loop {
        if is_punct(t, j, "?") {
            j += 1;
        }
        if !is_punct(t, j, ".") {
            break;
        }
        let name = j + 1;
        if ident_at(t, name).is_none() {
            break;
        }
        let mut k = name + 1;
        let mut tf = (k, k);
        if is_punct(t, k, "::") && is_punct(t, k + 1, "<") {
            let end = skip_angles(t, k + 1);
            tf = (k + 2, end.saturating_sub(1));
            k = end;
        }
        let mut args = (k, k);
        if is_punct(t, k, "(") {
            let close = matching_close(t, k);
            args = (k + 1, close);
            k = (close + 1).min(t.len());
        }
        segs.push(Seg { name, tf, args });
        j = k;
    }
    segs
}

/// Float evidence inside a half-open span: a float literal or an `f32`/`f64`
/// ident.
fn float_evidence(t: &[Token], span: (usize, usize)) -> bool {
    let hi = span.1.min(t.len());
    t[span.0.min(hi)..hi].iter().any(|tok| {
        tok.kind == TokKind::Float
            || (tok.kind == TokKind::Ident && (tok.text == "f32" || tok.text == "f64"))
    })
}

/// Rough statement bounds around `i`: back to the previous `;`/`{`/`}`,
/// forward to the next `;` (or closing brace) at bracket depth 0.
fn statement_span(t: &[Token], i: usize) -> (usize, usize) {
    let mut lo = i;
    while lo > 0 {
        let p = &t[lo - 1];
        if p.kind == TokKind::Punct && matches!(p.text.as_str(), ";" | "{" | "}") {
            break;
        }
        lo -= 1;
    }
    let mut hi = i;
    let mut depth = 0i32;
    while hi < t.len() {
        if t[hi].kind == TokKind::Punct {
            match t[hi].text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                ";" if depth == 0 => break,
                _ => {}
            }
        }
        hi += 1;
    }
    (lo, hi)
}

fn push(
    diags: &mut Vec<Diagnostic>,
    ctx: &FileCtx,
    rule: &'static str,
    at: &Token,
    message: String,
) {
    diags.push(Diagnostic {
        rule,
        path: ctx.path.clone(),
        line: at.line,
        col: at.col,
        message,
    });
}

/// Marks tokens inside `#[test]` / `#[cfg(test)]`-gated items, so rule (6)
/// can allowlist in-file test modules.
fn test_mask(t: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; t.len()];
    let mut i = 0usize;
    while i < t.len() {
        if !(is_punct(t, i, "#") && is_punct(t, i + 1, "[")) {
            i += 1;
            continue;
        }
        let close = matching_close(t, i + 1);
        let gated = t[i + 2..close.min(t.len())]
            .iter()
            .any(|tok| tok.kind == TokKind::Ident && tok.text == "test");
        if !gated {
            i = close + 1;
            continue;
        }
        // Skip any further attributes, then mask the gated item: up to the
        // matching brace of its body, or the terminating `;`.
        let mut j = close + 1;
        while is_punct(t, j, "#") && is_punct(t, j + 1, "[") {
            j = matching_close(t, j + 1) + 1;
        }
        let mut depth = 0i32;
        while j < t.len() {
            if t[j].kind == TokKind::Punct {
                match t[j].text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if depth == 0 => {
                        let body_close = matching_close(t, j);
                        for m in mask.iter_mut().take(body_close.min(t.len())).skip(i) {
                            *m = true;
                        }
                        j = body_close;
                        break;
                    }
                    "{" => depth += 1,
                    "}" => depth -= 1,
                    ";" if depth == 0 => {
                        for m in mask.iter_mut().take(j).skip(i) {
                            *m = true;
                        }
                        break;
                    }
                    _ => {}
                }
            }
            j += 1;
        }
        i = j + 1;
    }
    mask
}

// ---------------------------------------------------------------------------
// rule (1): nan-unsafe-order

const UNWRAPPERS: &[&str] = &[
    "unwrap",
    "expect",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
];

fn nan_unsafe_order(t: &[Token], ctx: &FileCtx, diags: &mut Vec<Diagnostic>) {
    if ctx.is_order_module {
        return;
    }
    for i in 1..t.len() {
        let Some(name) = ident_at(t, i) else { continue };
        if !is_punct(t, i - 1, ".") {
            continue;
        }
        if name == "total_cmp" {
            push(
                diags,
                ctx,
                NAN_UNSAFE_ORDER,
                &t[i],
                "raw `.total_cmp(..)` splits ±0.0 ties (breaking bit-compat with the \
                 dense reference order); rank through `ea_embed::order` instead"
                    .to_string(),
            );
            continue;
        }
        if name != "partial_cmp" || !is_punct(t, i + 1, "(") {
            continue;
        }
        let close = matching_close(t, i + 1);
        if !is_punct(t, close + 1, ".") {
            continue;
        }
        if let Some(m) = ident_at(t, close + 2) {
            if UNWRAPPERS.contains(&m) {
                push(
                    diags,
                    ctx,
                    NAN_UNSAFE_ORDER,
                    &t[i],
                    format!(
                        "`.partial_cmp(..).{m}(..)` is not a total order once a NaN appears \
                         (panics or breaks sort transitivity); use the NaN-safe comparators \
                         in `ea_embed::order`"
                    ),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// rule (2): open-coded-float-sort

const SORT_FNS: &[&str] = &[
    "sort_by",
    "sort_unstable_by",
    "max_by",
    "min_by",
    "select_nth_unstable_by",
];

/// Idents whose presence in a comparator closure marks it as delegating to a
/// blessed NaN-safe total order.
const BLESSED: &[&str] = &["asc_f32", "desc_f32", "asc_f64", "desc_f64", "rank_cmp"];

fn open_coded_float_sort(t: &[Token], ctx: &FileCtx, diags: &mut Vec<Diagnostic>) {
    for i in 1..t.len() {
        let Some(name) = ident_at(t, i) else { continue };
        if !SORT_FNS.contains(&name) || !is_punct(t, i - 1, ".") || !is_punct(t, i + 1, "(") {
            continue;
        }
        let close = matching_close(t, i + 1);
        let (lo, hi) = (i + 2, close);
        // A bare named comparator (no closure) is linted where it is
        // defined, not at the call site.
        if !t[lo..hi.min(t.len())]
            .iter()
            .any(|tok| tok.kind == TokKind::Punct && tok.text == "|")
        {
            continue;
        }
        let blessed = (lo..hi).any(|k| {
            matches!(ident_at(t, k), Some(n) if BLESSED.contains(&n))
                || (ident_at(t, k) == Some("order") && is_punct(t, k + 1, "::"))
        });
        if blessed {
            continue;
        }
        let signal = (lo..hi).any(|k| {
            matches!(
                ident_at(t, k),
                Some("partial_cmp")
                    | Some("total_cmp")
                    | Some("is_nan")
                    | Some("f32")
                    | Some("f64")
            ) || (ident_at(t, k) == Some("Ordering")
                && is_punct(t, k + 1, "::")
                && matches!(ident_at(t, k + 2), Some("Less") | Some("Greater")))
        }) || float_evidence(t, (lo, hi));
        if signal {
            push(
                diags,
                ctx,
                OPEN_CODED_FLOAT_SORT,
                &t[i],
                format!(
                    "`{name}` closure compares floats without delegating to a named \
                     `ea_embed::order`/`topk::rank_cmp` comparator; open-coded float \
                     orders drift out of sync with the canonical ranking"
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// rule (3): unordered-float-fold

const HASH_ITERS: &[&str] = &[
    "values",
    "keys",
    "iter",
    "iter_mut",
    "into_iter",
    "into_values",
    "into_keys",
    "drain",
    "values_mut",
];

fn classify_vars(t: &[Token]) -> (HashSet<String>, HashSet<String>) {
    let mut hash = HashSet::new();
    let mut float = HashSet::new();
    for i in 0..t.len() {
        if ident_at(t, i) == Some("let") {
            let mut j = i + 1;
            if ident_at(t, j) == Some("mut") {
                j += 1;
            }
            let Some(name) = ident_at(t, j) else { continue };
            let (_, hi) = statement_span(t, j + 1);
            let span = (j + 1, hi);
            if t[span.0.min(hi)..hi].iter().any(|tok| {
                tok.kind == TokKind::Ident && (tok.text == "HashMap" || tok.text == "HashSet")
            }) {
                hash.insert(name.to_string());
            }
            if float_evidence(t, span) {
                float.insert(name.to_string());
            }
        }
        // `name: &mut HashMap<..>` parameters and fields.
        if matches!(ident_at(t, i), Some("HashMap") | Some("HashSet")) {
            let mut k = i;
            while k > 0 && (is_punct(t, k - 1, "&") || ident_at(t, k - 1) == Some("mut")) {
                k -= 1;
            }
            if k >= 2 && is_punct(t, k - 1, ":") {
                if let Some(n) = ident_at(t, k - 2) {
                    hash.insert(n.to_string());
                }
            }
        }
    }
    (hash, float)
}

fn unordered_float_fold(t: &[Token], ctx: &FileCtx, diags: &mut Vec<Diagnostic>) {
    let (hash_vars, float_vars) = classify_vars(t);
    if hash_vars.is_empty() {
        return;
    }
    let fix = "iterate a deterministically ordered view (BTreeMap, or keys sorted first) \
               or accumulate in ascending key order";
    for i in 0..t.len() {
        // Chain form: `m.values().sum::<f32>()`, `m.iter().fold(0.0, ..)`.
        if let Some(v) = ident_at(t, i) {
            if hash_vars.contains(v)
                && is_punct(t, i + 1, ".")
                && matches!(ident_at(t, i + 2), Some(f) if HASH_ITERS.contains(&f))
                && is_punct(t, i + 3, "(")
            {
                let close = matching_close(t, i + 3);
                for seg in method_chain(t, close + 1) {
                    let name = ident_at(t, seg.name).unwrap_or("");
                    let flagged = match name {
                        "sum" | "product" => {
                            if seg.tf.1 > seg.tf.0 {
                                float_evidence(t, seg.tf)
                            } else {
                                float_evidence(t, statement_span(t, i))
                            }
                        }
                        "fold" | "reduce" => {
                            float_evidence(t, seg.args) || float_evidence(t, statement_span(t, i))
                        }
                        _ => false,
                    };
                    if flagged {
                        push(
                            diags,
                            ctx,
                            UNORDERED_FLOAT_FOLD,
                            &t[seg.name],
                            format!(
                                "float `{name}` driven by `{v}`'s hash iteration order \
                                 accumulates in a nondeterministic sequence; {fix}"
                            ),
                        );
                    }
                }
            }
        }
        // Loop form: `for v in m.values() { acc += v; }`.
        if ident_at(t, i) == Some("for") {
            hash_for_loop(t, i, &hash_vars, &float_vars, ctx, diags, fix);
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn hash_for_loop(
    t: &[Token],
    i: usize,
    hash_vars: &HashSet<String>,
    float_vars: &HashSet<String>,
    ctx: &FileCtx,
    diags: &mut Vec<Diagnostic>,
    fix: &str,
) {
    // Locate `in` at bracket depth 0 before the loop body.
    let mut j = i + 1;
    let mut depth = 0i32;
    let mut in_idx = None;
    while j < t.len() {
        if t[j].kind == TokKind::Punct {
            match t[j].text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => break,
                _ => {}
            }
        } else if depth == 0 && ident_at(t, j) == Some("in") {
            in_idx = Some(j);
            break;
        }
        j += 1;
    }
    let Some(in_idx) = in_idx else { return };
    let mut k = in_idx + 1;
    while is_punct(t, k, "&") {
        k += 1;
    }
    let Some(v) = ident_at(t, k) else { return };
    if !hash_vars.contains(v)
        || !is_punct(t, k + 1, ".")
        || !matches!(ident_at(t, k + 2), Some(f) if HASH_ITERS.contains(&f))
    {
        return;
    }
    let mut b = k;
    while b < t.len() && !is_punct(t, b, "{") {
        b += 1;
    }
    if b >= t.len() {
        return;
    }
    let body_close = matching_close(t, b);
    for m in b..body_close.min(t.len()) {
        if t[m].kind == TokKind::Punct && matches!(t[m].text.as_str(), "+=" | "-=" | "*=" | "/=") {
            let lhs_float = matches!(ident_at(t, m - 1), Some(n) if float_vars.contains(n));
            if lhs_float || float_evidence(t, (b, body_close)) {
                push(
                    diags,
                    ctx,
                    UNORDERED_FLOAT_FOLD,
                    &t[m],
                    format!(
                        "float accumulation inside a loop over `{v}`'s hash iteration \
                         order is nondeterministic; {fix}"
                    ),
                );
                return;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// rule (4): nondeterministic-par-idiom

const PAR_SOURCES: &[&str] = &[
    "par_iter",
    "into_par_iter",
    "par_iter_mut",
    "par_chunks",
    "par_chunks_mut",
    "par_windows",
    "par_drain",
];

fn nondeterministic_par_idiom(t: &[Token], ctx: &FileCtx, diags: &mut Vec<Diagnostic>) {
    for i in 1..t.len() {
        let Some(name) = ident_at(t, i) else { continue };
        if !is_punct(t, i - 1, ".") {
            continue;
        }
        if name == "par_bridge" {
            push(
                diags,
                ctx,
                NONDETERMINISTIC_PAR_IDIOM,
                &t[i],
                "`par_bridge` yields items in a nondeterministic order; restructure \
                 around an indexed `par_iter()` so merges stay order-preserving"
                    .to_string(),
            );
            continue;
        }
        if !PAR_SOURCES.contains(&name) || !is_punct(t, i + 1, "(") {
            continue;
        }
        let close = matching_close(t, i + 1);
        for seg in method_chain(t, close + 1) {
            match ident_at(t, seg.name).unwrap_or("") {
                "for_each" | "for_each_with" | "for_each_init" => push(
                    diags,
                    ctx,
                    NONDETERMINISTIC_PAR_IDIOM,
                    &t[seg.name],
                    "order-discarding parallel `for_each`; use the blessed \
                     order-preserving `par_iter().map(..).collect()` shape"
                        .to_string(),
                ),
                f @ ("reduce" | "reduce_with" | "fold" | "sum" | "product") => {
                    let ev = if seg.tf.1 > seg.tf.0 {
                        float_evidence(t, seg.tf)
                    } else {
                        float_evidence(t, seg.args) || float_evidence(t, statement_span(t, i))
                    };
                    if ev {
                        push(
                            diags,
                            ctx,
                            NONDETERMINISTIC_PAR_IDIOM,
                            &t[seg.name],
                            format!(
                                "parallel float `{f}`'s combining order depends on work \
                                 splitting; collect per-block results in input order and \
                                 reduce sequentially"
                            ),
                        );
                    }
                }
                _ => {}
            }
        }
    }
}

// ---------------------------------------------------------------------------
// rule (5): unsafe-boundary

fn unsafe_boundary(t: &[Token], ctx: &FileCtx, diags: &mut Vec<Diagnostic>) {
    for (i, tok) in t.iter().enumerate() {
        if tok.kind == TokKind::Ident && tok.text == "unsafe" {
            push(
                diags,
                ctx,
                UNSAFE_BOUNDARY,
                &t[i],
                "`unsafe` in first-party code; the workspace has no unsafe surface \
                 and every first-party crate keeps `#![forbid(unsafe_code)]`"
                    .to_string(),
            );
        }
    }
    if ctx.crate_root && !has_forbid_unsafe(t) {
        diags.push(Diagnostic {
            rule: UNSAFE_BOUNDARY,
            path: ctx.path.clone(),
            line: 1,
            col: 1,
            message: "crate root is missing `#![forbid(unsafe_code)]`; every first-party \
                      crate must forbid unsafe at the root"
                .to_string(),
        });
    }
}

fn has_forbid_unsafe(t: &[Token]) -> bool {
    for i in 0..t.len() {
        if is_punct(t, i, "#") && is_punct(t, i + 1, "!") && is_punct(t, i + 2, "[") {
            let close = matching_close(t, i + 2);
            let span = &t[(i + 3).min(t.len())..close.min(t.len())];
            let has = |n: &str| span.iter().any(|k| k.kind == TokKind::Ident && k.text == n);
            if has("forbid") && has("unsafe_code") {
                return true;
            }
        }
    }
    false
}

// ---------------------------------------------------------------------------
// rule (6): wall-clock-in-hot-path

const ENTROPY_FNS: &[&str] = &["thread_rng", "from_entropy", "OsRng", "getrandom"];

/// Timed-wait primitives that smuggle the wall clock in as *scheduling*
/// rather than as a timestamp: a `sleep`/`recv_timeout` loop is how a
/// background compactor or seal timer gets written, and the LSM contract
/// (`ea_embed::lsm`) is that maintenance is caller-driven — `compact()` is a
/// synchronous operation, never a timer.
const TIMED_WAIT_FNS: &[&str] = &["sleep", "sleep_ms", "park_timeout", "recv_timeout"];

fn wall_clock_in_hot_path(
    t: &[Token],
    ctx: &FileCtx,
    masked: &[bool],
    diags: &mut Vec<Diagnostic>,
) {
    if !ctx.hot_scope {
        return;
    }
    for i in 0..t.len() {
        if masked[i] {
            continue;
        }
        let Some(name) = ident_at(t, i) else { continue };
        if name == "Instant" && is_punct(t, i + 1, "::") && ident_at(t, i + 2) == Some("now") {
            push(
                diags,
                ctx,
                WALL_CLOCK_IN_HOT_PATH,
                &t[i],
                "`Instant::now()` in hot-path library code; timing belongs in \
                 `ea-metrics` (or the bench crate), not in kernels or engines"
                    .to_string(),
            );
        } else if name == "SystemTime" {
            push(
                diags,
                ctx,
                WALL_CLOCK_IN_HOT_PATH,
                &t[i],
                "`SystemTime` in hot-path library code makes results depend on the \
                 wall clock; thread timestamps in from the caller"
                    .to_string(),
            );
        } else if ENTROPY_FNS.contains(&name) {
            push(
                diags,
                ctx,
                WALL_CLOCK_IN_HOT_PATH,
                &t[i],
                format!(
                    "`{name}` draws ambient entropy, breaking run-to-run determinism; \
                     use a seeded ChaCha8 RNG threaded through the config"
                ),
            );
        } else if TIMED_WAIT_FNS.contains(&name) && is_punct(t, i + 1, "(") {
            push(
                diags,
                ctx,
                WALL_CLOCK_IN_HOT_PATH,
                &t[i],
                format!(
                    "`{name}` schedules work off the wall clock; index maintenance \
                     (seal/compact) must be caller-driven — expose a synchronous \
                     operation and let the caller decide when"
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// rule (7): panic-in-library-path

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

fn panic_in_library_path(t: &[Token], ctx: &FileCtx, masked: &[bool], diags: &mut Vec<Diagnostic>) {
    if !ctx.serve_library {
        return;
    }
    for i in 0..t.len() {
        if masked[i] {
            continue;
        }
        let Some(name) = ident_at(t, i) else { continue };
        if (name == "unwrap" || name == "expect")
            && i > 0
            && is_punct(t, i - 1, ".")
            && is_punct(t, i + 1, "(")
        {
            push(
                diags,
                ctx,
                PANIC_IN_LIBRARY_PATH,
                &t[i],
                format!(
                    "`.{name}(..)` in daemon library code can unwind a serving thread; \
                     handle the failure arm and surface a typed protocol response instead"
                ),
            );
        } else if PANIC_MACROS.contains(&name) && is_punct(t, i + 1, "!") {
            push(
                diags,
                ctx,
                PANIC_IN_LIBRARY_PATH,
                &t[i],
                format!(
                    "`{name}!` in daemon library code kills the serving path; the daemon \
                     must answer a typed error, never die on a request"
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn ctx() -> FileCtx {
        FileCtx {
            path: "crates/x/src/lib.rs".to_string(),
            is_order_module: false,
            hot_scope: false,
            crate_root: false,
            serve_library: false,
        }
    }

    fn run(src: &str) -> Vec<Diagnostic> {
        check(&lex(src).tokens, &ctx())
    }

    fn rules_of(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn partial_cmp_unwrap_and_total_cmp_fire() {
        let d = run("fn f(a: f32, b: f32) { let _ = a.partial_cmp(&b).unwrap(); }");
        assert_eq!(rules_of(&d), vec![NAN_UNSAFE_ORDER]);
        let d = run("fn f(a: f32, b: f32) { let _ = a.total_cmp(&b); }");
        assert_eq!(rules_of(&d), vec![NAN_UNSAFE_ORDER]);
        // A handled partial_cmp (no unwrap) is the order-module idiom, not a
        // violation at large.
        let d = run("fn f(a: f32, b: f32) -> bool { a.partial_cmp(&b).is_some() }");
        assert!(d.is_empty());
    }

    #[test]
    fn order_module_is_exempt_from_rule_1() {
        let mut c = ctx();
        c.is_order_module = true;
        let d = check(
            &lex("fn f(a: f32, b: f32) { let _ = a.partial_cmp(&b).unwrap(); }").tokens,
            &c,
        );
        assert!(d.is_empty());
    }

    #[test]
    fn open_coded_sort_fires_and_blessed_sort_does_not() {
        let bad = "fn f(v: &mut [f32]) { v.sort_by(|a, b| b.partial_cmp(a).unwrap_or(Ordering::Equal)); }";
        assert!(rules_of(&run(bad)).contains(&OPEN_CODED_FLOAT_SORT));
        let blessed = "fn f(v: &mut [f32]) { v.sort_by(|a, b| order::desc_f32(*a, *b)); }";
        assert!(run(blessed).is_empty());
        let named = "fn f(v: &mut [Item]) { v.sort_by(item_order); }";
        assert!(run(named).is_empty());
        let ints = "fn f(v: &mut [u32]) { v.sort_by(|a, b| a.cmp(b)); }";
        assert!(run(ints).is_empty());
    }

    #[test]
    fn hash_float_folds_fire_btree_does_not() {
        let bad = "fn f() { let m: HashMap<u32, f32> = HashMap::new(); \
                   let _t = m.values().sum::<f32>(); }";
        assert_eq!(rules_of(&run(bad)), vec![UNORDERED_FLOAT_FOLD]);
        let bad_loop = "fn f(m: &HashMap<u32, f32>) { let mut acc = 0.0f32; \
                        for v in m.values() { acc += *v; } }";
        assert_eq!(rules_of(&run(bad_loop)), vec![UNORDERED_FLOAT_FOLD]);
        let btree = "fn f() { let m: BTreeMap<u32, f32> = BTreeMap::new(); \
                     let _t = m.values().sum::<f32>(); }";
        assert!(run(btree).is_empty());
        let int_sum = "fn f(m: &HashMap<u32, u64>) -> u64 { m.values().sum::<u64>() }";
        assert!(run(int_sum).is_empty());
    }

    #[test]
    fn par_idioms_fire_blessed_shape_does_not() {
        let bad = "fn f(v: &[f32]) { v.par_iter().for_each(|x| sink(x)); }";
        assert_eq!(rules_of(&run(bad)), vec![NONDETERMINISTIC_PAR_IDIOM]);
        let bridge = "fn f(it: I) { it.par_bridge().count(); }";
        assert_eq!(rules_of(&run(bridge)), vec![NONDETERMINISTIC_PAR_IDIOM]);
        let reduce =
            "fn f(v: &[f32]) -> f32 { v.par_iter().cloned().reduce(|| 0.0f32, |a, b| a + b) }";
        assert_eq!(rules_of(&run(reduce)), vec![NONDETERMINISTIC_PAR_IDIOM]);
        let blessed = "fn f(v: &[f32]) -> Vec<f32> { v.par_iter().map(|x| x * 2.0).collect() }";
        assert!(run(blessed).is_empty());
        let int_reduce =
            "fn f(v: &[u64]) -> u64 { v.par_iter().cloned().reduce(|| 0, |a, b| a + b) }";
        assert!(run(int_reduce).is_empty());
    }

    #[test]
    fn unsafe_token_and_missing_forbid_fire() {
        let d = run("fn f(p: *const u8) -> u8 { unsafe { *p } }");
        assert_eq!(rules_of(&d), vec![UNSAFE_BOUNDARY]);
        let mut c = ctx();
        c.crate_root = true;
        let d = check(&lex("//! A crate.\npub fn f() {}").tokens, &c);
        assert_eq!(rules_of(&d), vec![UNSAFE_BOUNDARY]);
        let d = check(
            &lex("//! A crate.\n#![forbid(unsafe_code)]\npub fn f() {}").tokens,
            &c,
        );
        assert!(d.is_empty());
    }

    #[test]
    fn wall_clock_fires_only_in_hot_scope_and_not_in_tests() {
        let src = "fn f() { let _t = Instant::now(); }";
        assert!(run(src).is_empty()); // not hot scope
        let mut c = ctx();
        c.hot_scope = true;
        assert_eq!(
            rules_of(&check(&lex(src).tokens, &c)),
            vec![WALL_CLOCK_IN_HOT_PATH]
        );
        let gated = "#[cfg(test)]\nmod tests { fn f() { let _t = Instant::now(); } }";
        assert!(check(&lex(gated).tokens, &c).is_empty());
        let rng = "fn f() { let r = thread_rng(); }";
        assert_eq!(
            rules_of(&check(&lex(rng).tokens, &c)),
            vec![WALL_CLOCK_IN_HOT_PATH]
        );
        // Timed waits are wall-clock *scheduling*: a sleep loop is how a
        // background compactor gets written, and LSM maintenance must stay
        // caller-driven.
        let timer = "fn f() { loop { thread::sleep(TICK); idx.compact(); } }";
        assert_eq!(
            rules_of(&check(&lex(timer).tokens, &c)),
            vec![WALL_CLOCK_IN_HOT_PATH]
        );
        // A field or variable merely *named* sleep does not trip the rule —
        // only the call form does.
        let named = "fn f(s: &Config) -> u64 { s.sleep }";
        assert!(check(&lex(named).tokens, &c).is_empty());
    }

    #[test]
    fn panics_fire_only_in_serve_library_scope() {
        let unwrap = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        let expect = "fn f(x: Option<u32>) -> u32 { x.expect(\"present\") }";
        let bang = "fn f() { panic!(\"boom\"); }";
        let unreach = "fn f() { unreachable!(); }";
        // Outside the serve library nothing fires.
        for src in [unwrap, expect, bang, unreach] {
            assert!(run(src).is_empty(), "fired outside serve scope: {src}");
        }
        let mut c = ctx();
        c.serve_library = true;
        for src in [unwrap, expect, bang, unreach] {
            assert_eq!(
                rules_of(&check(&lex(src).tokens, &c)),
                vec![PANIC_IN_LIBRARY_PATH],
                "did not fire in serve scope: {src}"
            );
        }
        // The recovery idioms the daemon does use stay legal: they are
        // different identifiers, not `unwrap`/`expect`.
        for src in [
            "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }",
            "fn f(x: Option<u32>) -> u32 { x.unwrap_or_default() }",
            "fn f(l: &M) -> G { l.lock().unwrap_or_else(PoisonError::into_inner) }",
        ] {
            assert!(
                check(&lex(src).tokens, &c).is_empty(),
                "recovery idiom flagged: {src}"
            );
        }
        // Test code inside the crate is exempt.
        let gated = "#[cfg(test)]\nmod tests { fn f(x: Option<u32>) -> u32 { x.unwrap() } }";
        assert!(check(&lex(gated).tokens, &c).is_empty());
    }
}
