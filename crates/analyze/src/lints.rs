//! The lint catalog and the per-file lint passes.
//!
//! Four lints enforce the workspace's hand-audited invariants:
//!
//! | id    | name              | invariant |
//! |-------|-------------------|-----------|
//! | FB-L1 | `safety-comment`  | every `unsafe` site carries a `// SAFETY:` justification; every `pub unsafe fn` documents a `# Safety` section |
//! | FB-L2 | `ordering-policy` | staged `_seq` counters are `SeqCst`; `Relaxed` is free (throughput counters); every other ordering carries an `// ORDERING:` note |
//! | FB-L3 | `hot-alloc`       | modules marked `//! fastbn: deny-hot-alloc` contain no allocation idioms outside `#[cfg(test)]` |
//! | FB-L4 | `slab-discipline` | raw-pointer primitives live only in modules marked `//! fastbn: audited-raw-ptr` |
//!
//! Suppression: a comment `fastbn: allow(<name>)` (or `allow(FB-Lk)`) on
//! the offending line or in the comment block directly above it silences
//! one site; for `hot-alloc`, the same comment above a `fn` signature
//! silences the whole function (how cold-path constructors document
//! their deliberate allocations).

use std::fmt;

use crate::lexer::{ScannedFile, Tok};

/// The lint catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lint {
    /// FB-L1: `unsafe` without a `// SAFETY:` justification.
    SafetyComment,
    /// FB-L2: atomic `Ordering` outside the workspace policy.
    OrderingPolicy,
    /// FB-L3: allocation idiom in a `deny-hot-alloc` module.
    HotAlloc,
    /// FB-L4: raw-pointer primitive outside an audited module.
    SlabDiscipline,
}

impl Lint {
    /// All lints, in id order.
    pub const ALL: [Lint; 4] = [
        Lint::SafetyComment,
        Lint::OrderingPolicy,
        Lint::HotAlloc,
        Lint::SlabDiscipline,
    ];

    /// Stable id (`FB-L1` …).
    pub fn id(self) -> &'static str {
        match self {
            Lint::SafetyComment => "FB-L1",
            Lint::OrderingPolicy => "FB-L2",
            Lint::HotAlloc => "FB-L3",
            Lint::SlabDiscipline => "FB-L4",
        }
    }

    /// Human name, also the `allow(...)` key.
    pub fn name(self) -> &'static str {
        match self {
            Lint::SafetyComment => "safety-comment",
            Lint::OrderingPolicy => "ordering-policy",
            Lint::HotAlloc => "hot-alloc",
            Lint::SlabDiscipline => "slab-discipline",
        }
    }

    /// One-line description for `--list-lints`.
    pub fn describe(self) -> &'static str {
        match self {
            Lint::SafetyComment => {
                "every `unsafe` block/impl/fn needs a `// SAFETY:` comment; every pub unsafe fn a `# Safety` doc section"
            }
            Lint::OrderingPolicy => {
                "`_seq` fns use SeqCst only; Relaxed is free; other orderings need an `// ORDERING:` note"
            }
            Lint::HotAlloc => {
                "no Vec::new/vec!/to_vec/Box::new/collect::<Vec/.clone() in `//! fastbn: deny-hot-alloc` modules outside tests"
            }
            Lint::SlabDiscipline => {
                "from_raw_parts(_mut)/from_raw/into_raw/transmute/as_mut_ptr only in `//! fastbn: audited-raw-ptr` modules"
            }
        }
    }
}

/// One diagnostic, anchored to a 1-based source line.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Path as handed to the linter (workspace-relative in `--check`).
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Which lint fired.
    pub lint: Lint,
    /// What was found and how to fix it.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {} ({}): {}",
            self.path,
            self.line,
            self.lint.id(),
            self.lint.name(),
            self.message
        )
    }
}

/// Per-file lint context derived from the file's path.
#[derive(Debug, Clone, Default)]
pub struct FileContext {
    /// Path label used in findings.
    pub path: String,
    /// True under a `tests/`, `benches/` or `examples/` directory:
    /// FB-L3/FB-L4 do not apply (test scaffolding legitimately allocates
    /// and, for the counting allocator, implements raw traits).
    pub test_context: bool,
}

/// Module-level markers read from `//!` comments.
const MARKER_DENY_HOT_ALLOC: &str = "fastbn: deny-hot-alloc";
const MARKER_AUDITED_RAW_PTR: &str = "fastbn: audited-raw-ptr";

/// Runs every lint over one scanned file.
pub fn lint_scanned(scan: &ScannedFile, ctx: &FileContext) -> Vec<Finding> {
    let mut findings = Vec::new();
    lint_safety(scan, ctx, &mut findings);
    lint_ordering(scan, ctx, &mut findings);
    if !ctx.test_context {
        if has_marker(scan, MARKER_DENY_HOT_ALLOC) {
            lint_hot_alloc(scan, ctx, &mut findings);
        }
        if !has_marker(scan, MARKER_AUDITED_RAW_PTR) {
            lint_slab_discipline(scan, ctx, &mut findings);
        }
    }
    findings.sort_by_key(|f| f.line);
    findings
}

/// Whether any module doc comment *is* `marker` (exact line match, so
/// prose that merely quotes a marker — this file's own docs, say — does
/// not opt a module in).
fn has_marker(scan: &ScannedFile, marker: &str) -> bool {
    scan.lines
        .iter()
        .filter(|l| l.comment.starts_with("//!"))
        .any(|l| l.comment.trim_start_matches("//!").trim() == marker)
}

/// Lines whose comments justify the code line directly below them: pure
/// comments, attributes, and (for grouped `unsafe impl` pairs) other
/// `unsafe impl` lines are transparent; anything else stops the walk.
fn comment_block_above(scan: &ScannedFile, line: usize) -> Vec<&str> {
    let mut comments = Vec::new();
    let mut i = line;
    for _ in 0..15 {
        if i == 0 {
            break;
        }
        i -= 1;
        let l = &scan.lines[i];
        if !l.comment.is_empty() {
            comments.push(l.comment.as_str());
        }
        let toks = &scan.tokens[i];
        let transparent = toks.is_empty()
            || toks[0].text == "#"
            || (toks[0].text == "unsafe" && toks.get(1).map(|t| t.text.as_str()) == Some("impl"));
        if !transparent {
            break;
        }
        if toks.is_empty() && l.comment.is_empty() {
            // Blank line: the justification must be adjacent.
            break;
        }
    }
    comments
}

/// Whether the site at `line` (0-based) carries `needle` in its own
/// comment or the comment block above.
fn annotated(scan: &ScannedFile, line: usize, needle: &str) -> bool {
    if scan.lines[line].comment.contains(needle) {
        return true;
    }
    comment_block_above(scan, line)
        .iter()
        .any(|c| c.contains(needle))
}

/// Whether the site at `line` is suppressed for `lint` via
/// `fastbn: allow(...)`.
fn suppressed(scan: &ScannedFile, line: usize, lint: Lint) -> bool {
    let by_name = format!("fastbn: allow({})", lint.name());
    let by_id = format!("fastbn: allow({})", lint.id());
    annotated(scan, line, &by_name) || annotated(scan, line, &by_id)
}

/// Whether `line` sits inside a fn whose signature carries a
/// `fastbn: allow(...)` for `lint` (fn-scoped suppression, FB-L3 only).
fn fn_suppressed(scan: &ScannedFile, line: usize, lint: Lint) -> bool {
    match scan.enclosing_fn(line) {
        Some(f) => suppressed(scan, f.sig_line, lint),
        None => false,
    }
}

/// Doc block above `line` contains a `# Safety` section.
fn doc_safety_above(scan: &ScannedFile, line: usize) -> bool {
    let mut i = line;
    for _ in 0..40 {
        if i == 0 {
            return false;
        }
        i -= 1;
        let l = &scan.lines[i];
        if l.has_doc_comment() {
            if l.comment.contains("# Safety") {
                return true;
            }
            continue;
        }
        let toks = &scan.tokens[i];
        // Attributes and pure (non-doc) comment lines are transparent.
        let transparent =
            (!toks.is_empty() && toks[0].text == "#") || (toks.is_empty() && !l.comment.is_empty());
        if !transparent {
            return false;
        }
    }
    false
}

/// FB-L1: `unsafe` sites need `// SAFETY:`; `pub unsafe fn` needs
/// `# Safety` docs.
fn lint_safety(scan: &ScannedFile, ctx: &FileContext, out: &mut Vec<Finding>) {
    for (lno, toks) in scan.tokens.iter().enumerate() {
        let Some(pos) = toks.iter().position(|t| t.text == "unsafe") else {
            continue;
        };
        if suppressed(scan, lno, Lint::SafetyComment) {
            continue;
        }
        let next = toks.get(pos + 1).map(|t| t.text.as_str());
        let is_fn = toks.iter().skip(pos).take(3).any(|t| t.text == "fn");
        let is_pub = toks.first().map(|t| t.text.as_str()) == Some("pub");
        let has_safety = annotated(scan, lno, "SAFETY:");
        if is_fn {
            if is_pub {
                if !doc_safety_above(scan, lno) {
                    out.push(Finding {
                        path: ctx.path.clone(),
                        line: lno + 1,
                        lint: Lint::SafetyComment,
                        message: "`pub unsafe fn` without a `# Safety` rustdoc section \
                                  stating the caller's obligations"
                            .into(),
                    });
                }
            } else if !has_safety && !doc_safety_above(scan, lno) {
                out.push(Finding {
                    path: ctx.path.clone(),
                    line: lno + 1,
                    lint: Lint::SafetyComment,
                    message: "`unsafe fn` without a `// SAFETY:` comment or `# Safety` \
                              doc section"
                        .into(),
                });
            }
        } else if !has_safety {
            let what = if next == Some("impl") {
                "`unsafe impl`"
            } else {
                "`unsafe` block"
            };
            out.push(Finding {
                path: ctx.path.clone(),
                line: lno + 1,
                lint: Lint::SafetyComment,
                message: format!(
                    "{what} without a `// SAFETY:` comment justifying the invariant \
                     (same line or the comment block directly above)"
                ),
            });
        }
    }
}

/// Atomic ordering variants (cmp::Ordering's Less/Equal/Greater never
/// match, so no path analysis is needed to tell the two enums apart).
const ATOMIC_ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// FB-L2: the ordering policy.
fn lint_ordering(scan: &ScannedFile, ctx: &FileContext, out: &mut Vec<Finding>) {
    for (lno, toks) in scan.tokens.iter().enumerate() {
        for (i, t) in toks.iter().enumerate() {
            if t.text != "Ordering" {
                continue;
            }
            let path_sep = toks.get(i + 1).map(|x| x.text.as_str()) == Some(":")
                && toks.get(i + 2).map(|x| x.text.as_str()) == Some(":");
            if !path_sep {
                continue;
            }
            let Some(variant) = toks.get(i + 3).map(|x| x.text.as_str()) else {
                continue;
            };
            if !ATOMIC_ORDERINGS.contains(&variant) {
                continue;
            }
            if suppressed(scan, lno, Lint::OrderingPolicy) {
                continue;
            }
            let in_seq_fn = scan
                .enclosing_fn(lno)
                .map(|f| f.name.ends_with("_seq"))
                .unwrap_or(false);
            if in_seq_fn {
                if variant != "SeqCst" {
                    out.push(Finding {
                        path: ctx.path.clone(),
                        line: lno + 1,
                        lint: Lint::OrderingPolicy,
                        message: format!(
                            "`Ordering::{variant}` inside a `_seq` function: staged \
                             pipeline counters must use `SeqCst` (the serving stack's \
                             cross-counter snapshot invariants depend on it)"
                        ),
                    });
                }
                continue;
            }
            if variant == "Relaxed" {
                continue; // throughput counters: always fine
            }
            if !annotated(scan, lno, "ORDERING:") {
                out.push(Finding {
                    path: ctx.path.clone(),
                    line: lno + 1,
                    lint: Lint::OrderingPolicy,
                    message: format!(
                        "`Ordering::{variant}` without an `// ORDERING:` note explaining \
                         what it synchronizes with (policy: SeqCst only in `_seq` \
                         staging fns, Relaxed for throughput counters, everything else \
                         annotated)"
                    ),
                });
            }
        }
    }
}

/// The allocation idioms FB-L3 rejects, as token subsequences.
const ALLOC_PATTERNS: [(&[&str], &str); 6] = [
    (&["Vec", ":", ":", "new"], "Vec::new"),
    (&["vec", "!"], "vec!"),
    (&[".", "to_vec"], ".to_vec()"),
    (&["Box", ":", ":", "new"], "Box::new"),
    (&["collect", ":", ":", "<", "Vec"], "collect::<Vec<_>>"),
    (&[".", "clone", "(", ")"], ".clone()"),
];

/// FB-L3: allocation idioms in opted-in hot-path modules.
fn lint_hot_alloc(scan: &ScannedFile, ctx: &FileContext, out: &mut Vec<Finding>) {
    for (lno, toks) in scan.tokens.iter().enumerate() {
        if scan.in_test[lno] || toks.is_empty() {
            continue;
        }
        for (pattern, label) in ALLOC_PATTERNS {
            if !contains_token_seq(toks, pattern) {
                continue;
            }
            if suppressed(scan, lno, Lint::HotAlloc) || fn_suppressed(scan, lno, Lint::HotAlloc) {
                continue;
            }
            out.push(Finding {
                path: ctx.path.clone(),
                line: lno + 1,
                lint: Lint::HotAlloc,
                message: format!(
                    "`{label}` in a `deny-hot-alloc` module: hot paths must stay \
                     allocation-free (move the allocation out, or mark the enclosing \
                     cold fn with `// fastbn: allow(hot-alloc): <why>`)"
                ),
            });
        }
    }
}

/// Raw-pointer primitives FB-L4 confines to audited modules.
const RAW_PTR_TOKENS: [&str; 6] = [
    "from_raw_parts",
    "from_raw_parts_mut",
    "from_raw",
    "into_raw",
    "transmute",
    "as_mut_ptr",
];

/// FB-L4: raw-pointer primitives outside audited modules.
fn lint_slab_discipline(scan: &ScannedFile, ctx: &FileContext, out: &mut Vec<Finding>) {
    for (lno, toks) in scan.tokens.iter().enumerate() {
        if scan.in_test[lno] {
            continue;
        }
        for t in toks {
            if !RAW_PTR_TOKENS.contains(&t.text.as_str()) {
                continue;
            }
            if suppressed(scan, lno, Lint::SlabDiscipline) {
                continue;
            }
            out.push(Finding {
                path: ctx.path.clone(),
                line: lno + 1,
                lint: Lint::SlabDiscipline,
                message: format!(
                    "raw-pointer primitive `{}` outside an audited module: slab/raw \
                     memory tricks belong in the `//! fastbn: audited-raw-ptr` helpers \
                     (state.rs, ops_par.rs, pool.rs, region.rs); engine code \
                     (engines/driver.rs) takes slab regions from state.rs's `SlabRaw`",
                    t.text
                ),
            });
            break; // one finding per line is enough
        }
    }
}

/// Whether `needle` occurs as a contiguous token subsequence.
fn contains_token_seq(toks: &[Tok], needle: &[&str]) -> bool {
    if needle.is_empty() || toks.len() < needle.len() {
        return false;
    }
    toks.windows(needle.len())
        .any(|w| w.iter().zip(needle).all(|(t, n)| t.text == *n))
}
