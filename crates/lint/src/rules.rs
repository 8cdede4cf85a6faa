//! Findings, waivers, and the file-local lexical rules.
//!
//! Nine rules guard the simulator's load-bearing assumptions (see
//! docs/CORRECTNESS.md for the full catalogue). Five are file-local and
//! live here:
//!
//! - `hash-collections` — no `HashMap` / `HashSet` in rank-deterministic
//!   crates (mpi, horovod, cluster, faults). Their iteration order
//!   is randomized per process; `BTreeMap` / `BTreeSet` / `Vec` are the
//!   deterministic replacements.
//! - `undocumented-unsafe` — every `unsafe` token needs a `// SAFETY:`
//!   comment immediately above it (or trailing on the same line).
//! - `hot-markers` — in `crates/tensor/src`, functions following the hot
//!   kernel naming convention (`microkernel_*`, `pack_*`) must carry
//!   `#[cfg_attr(any(), dlsr::hot)]`, so the `hot-alloc` rule actually
//!   covers them.
//! - `unknown-marker` — every attribute naming a `dlsr::` path must be one
//!   of the three markers in their one spelling (see [`MARKERS`]). The
//!   compiler never expands a marker, so it cannot catch a misspelled one;
//!   this rule does.
//! - `thread-spawn` — in the rank-execution crates (mpi, cluster), no
//!   `thread::spawn` / `thread::scope` / `JoinHandle` outside the
//!   sanctioned executor module (`crates/mpi/src/executor/`).
//!
//! The other four are interprocedural and live in [`flow`](crate::flow):
//! `wall-clock` (transitive; the `wall` marker bounds the wall domain),
//! `hot-alloc` (allocation reachable from a `hot`-marked fn through the
//! call graph), `determinism-taint` (nondeterminism sources reachable from
//! rank-deterministic roots) and `collective-order` (statically
//! rank-divergent collective sequences).
//!
//! Waivers: a comment `dlsr-lint: allow(<rule>[, <rule>...]) -- <reason>`
//! suppresses the named rules on the next source line (or its own line
//! when trailing). The reason is mandatory. A waiver that suppresses
//! nothing is itself reported (stale-waiver detection), so waivers cannot
//! rot as code moves.

use crate::lexer::{Comment, Lexed, Tok, TokKind};
use crate::parser::render_attr;

/// One lint violation.
#[derive(Debug, Clone)]
pub struct Finding {
    pub path: String,
    pub line: usize,
    pub rule: &'static str,
    pub msg: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.msg
        )
    }
}

pub const RULE_WALL_CLOCK: &str = "wall-clock";
pub const RULE_HASH: &str = "hash-collections";
pub const RULE_HOT_ALLOC: &str = "hot-alloc";
pub const RULE_UNSAFE: &str = "undocumented-unsafe";
pub const RULE_HOT_MARKERS: &str = "hot-markers";
pub const RULE_THREAD: &str = "thread-spawn";
pub const RULE_TAINT: &str = "determinism-taint";
pub const RULE_ORDER: &str = "collective-order";
pub const RULE_MARKER: &str = "unknown-marker";
pub const RULE_WAIVER: &str = "waiver";

pub const ALL_RULES: [&str; 9] = [
    RULE_WALL_CLOCK,
    RULE_HASH,
    RULE_HOT_ALLOC,
    RULE_UNSAFE,
    RULE_HOT_MARKERS,
    RULE_THREAD,
    RULE_TAINT,
    RULE_ORDER,
    RULE_MARKER,
];

/// Crates whose code runs identically on every rank; hash-order
/// nondeterminism there can diverge schedules.
pub const RANK_DETERMINISTIC_CRATES: [&str; 4] = ["mpi", "horovod", "cluster", "faults"];

/// The lint markers. Each is written `#[cfg_attr(any(), dlsr::<marker>)]`:
/// `any()` is always false, so the compiler drops the attribute without
/// resolving its path, and the lint reads it from the source.
///
/// - `hot`: steady-state hot code; no allocating call may be reachable
///   from its body (`hot-alloc`). Scratch comes in from the caller.
/// - `wall`: a wall-clock domain boundary; `Instant`/`SystemTime` reads
///   are legitimate inside it and below it (`wall-clock`).
/// - `deterministic`: a rank-determinism root; no nondeterminism source
///   may be reachable from it (`determinism-taint`) and its collective
///   sequence is checked for rank divergence (`collective-order`).
pub const MARKERS: [&str; 3] = ["hot", "wall", "deterministic"];

/// The marker named by a rendered (whitespace-free) attribute in the one
/// accepted spelling, `cfg_attr(any(),dlsr::<marker>)`, known or not.
pub fn marker_of(attr: &str) -> Option<&str> {
    attr.strip_prefix("cfg_attr(any(),dlsr::")?
        .strip_suffix(')')
}

/// Every attribute (`#[...]` or `#![...]`) in a token stream: the line
/// of its `#`, its rendering (see [`render_attr`]) and the index just
/// past its `]`.
fn attrs(toks: &[Tok]) -> impl Iterator<Item = (usize, String, usize)> + '_ {
    let text = |p: usize| toks.get(p).map_or("", |t| t.text.as_str());
    (0..toks.len())
        .filter(move |&i| {
            text(i) == "#" && (text(i + 1) == "[" || text(i + 1) == "!" && text(i + 2) == "[")
        })
        .map(|i| {
            let (attr, end) = render_attr(toks, i);
            (toks[i].line, attr, end)
        })
}

/// Identifiers banned inside (and transitively below) `hot`-marked
/// bodies regardless of receiver.
pub const HOT_BANNED_IDENTS: [&str; 6] = [
    "to_vec",
    "to_owned",
    "to_string",
    "collect",
    "clone",
    "with_capacity",
];

/// `Type :: new`-style paths banned inside hot bodies.
pub const HOT_BANNED_PATHS: [(&str, &str); 2] = [("Vec", "new"), ("Box", "new")];

/// Macros banned inside hot bodies.
pub const HOT_BANNED_MACROS: [&str; 2] = ["vec", "format"];

/// Path prefix where the hot-kernel naming convention is enforced, and the
/// fn-name prefixes that convention covers.
pub const HOT_MARKER_PATH: &str = "crates/tensor/src/";
pub const HOT_MARKER_FN_PREFIXES: [&str; 2] = ["microkernel_", "pack_"];

/// Crates where rank execution is the executor's exclusive business.
pub const THREAD_CRATES: [&str; 2] = ["mpi", "cluster"];

/// The one module allowed to create rank threads.
pub const THREAD_ALLOWLIST: [&str; 1] = ["crates/mpi/src/executor/"];

/// A waiver parsed from a `dlsr-lint: allow(<rules>) -- <reason>` comment.
#[derive(Debug)]
pub struct Waiver {
    /// Rules the waiver names (comma-separated in the comment).
    pub rules: Vec<String>,
    /// Source line the waiver applies to.
    pub target_line: usize,
    /// Line of the waiver comment itself (for stale-waiver findings).
    pub comment_line: usize,
    /// Per-rule usage flags, parallel to `rules`; a listed rule that never
    /// suppresses a finding makes the waiver stale.
    pub used: Vec<bool>,
}

/// Waivers for every analyzed file, with usage tracking. Rules consult it
/// through [`WaiverTable::check`], which both answers "is this finding
/// waived?" and records the use for stale detection.
#[derive(Debug, Default)]
pub struct WaiverTable {
    files: Vec<FileWaivers>,
}

/// One file's waivers.
#[derive(Debug)]
pub struct FileWaivers {
    pub path: String,
    pub waivers: Vec<Waiver>,
}

impl WaiverTable {
    pub fn new(files: Vec<FileWaivers>) -> WaiverTable {
        WaiverTable { files }
    }

    /// Is `rule` waived on `line` of file `file`? Marks the waiver used.
    pub fn check(&mut self, file: usize, rule: &str, line: usize) -> bool {
        let Some(fw) = self.files.get_mut(file) else {
            return false;
        };
        let mut hit = false;
        for w in &mut fw.waivers {
            if w.target_line != line {
                continue;
            }
            for (i, r) in w.rules.iter().enumerate() {
                if r == rule {
                    w.used[i] = true;
                    hit = true;
                }
            }
        }
        hit
    }

    /// Findings for every waiver rule that suppressed nothing.
    pub fn stale_findings(&self) -> Vec<Finding> {
        let mut out = Vec::new();
        for fw in &self.files {
            for w in &fw.waivers {
                for (i, r) in w.rules.iter().enumerate() {
                    if !w.used[i] {
                        out.push(Finding {
                            path: fw.path.clone(),
                            line: w.comment_line,
                            rule: RULE_WAIVER,
                            msg: format!(
                                "stale waiver: `allow({r})` suppresses nothing on line {}",
                                w.target_line
                            ),
                        });
                    }
                }
            }
        }
        out
    }
}

/// Parse waiver comments from one file. A waiver with no `-- reason` text
/// is reported as a violation of the `waiver` rule; so is one naming an
/// unknown rule, so a typo cannot silently disable nothing.
pub fn collect_waivers(
    path: &str,
    lexed: &Lexed,
    token_lines: &[usize],
) -> (Vec<Waiver>, Vec<Finding>) {
    let mut waivers = Vec::new();
    let mut findings = Vec::new();
    for c in &lexed.comments {
        // A waiver must be the comment's first content (after the `//`,
        // `//!`, `/*` markers) — prose that merely mentions the syntax,
        // like this crate's own docs, is not a waiver.
        let content = c.text.trim_start_matches(['/', '*', '!']).trim_start();
        let Some(rest) = content.strip_prefix("dlsr-lint: allow(") else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            findings.push(Finding {
                path: path.to_string(),
                line: c.line,
                rule: RULE_WAIVER,
                msg: String::from("malformed waiver: missing `)`"),
            });
            continue;
        };
        let rules: Vec<String> = rest[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        let unknown: Vec<&String> = rules
            .iter()
            .filter(|r| !ALL_RULES.contains(&r.as_str()))
            .collect();
        if rules.is_empty() || !unknown.is_empty() {
            findings.push(Finding {
                path: path.to_string(),
                line: c.line,
                rule: RULE_WAIVER,
                msg: format!("waiver names unknown rule(s) {unknown:?}"),
            });
            continue;
        }
        let after = &rest[close + 1..];
        let reason = after
            .trim_start()
            .strip_prefix("--")
            .map(str::trim)
            .unwrap_or("");
        if reason.is_empty() {
            findings.push(Finding {
                path: path.to_string(),
                line: c.line,
                rule: RULE_WAIVER,
                msg: format!("waiver for {rules:?} has no `-- <reason>`"),
            });
            continue;
        }
        let target_line = if c.trailing {
            c.line
        } else {
            token_lines
                .iter()
                .copied()
                .find(|&l| l > c.end_line)
                .unwrap_or(c.end_line + 1)
        };
        let used = vec![false; rules.len()];
        waivers.push(Waiver {
            rules,
            target_line,
            comment_line: c.line,
            used,
        });
    }
    (waivers, findings)
}

/// Run the file-local rules over one lexed file. `waived` is consulted
/// (and usage recorded) per candidate finding.
pub fn local_rules(
    path: &str,
    crate_name: &str,
    lexed: &Lexed,
    token_lines: &[usize],
    waived: &mut dyn FnMut(&str, usize) -> bool,
    findings: &mut Vec<Finding>,
) {
    rule_hash_collections(path, crate_name, lexed, waived, findings);
    rule_undocumented_unsafe(path, lexed, token_lines, waived, findings);
    rule_hot_markers(path, lexed, waived, findings);
    rule_thread_spawn(path, crate_name, lexed, waived, findings);
    rule_unknown_marker(path, lexed, waived, findings);
}

fn rule_hash_collections(
    path: &str,
    crate_name: &str,
    lexed: &Lexed,
    waived: &mut dyn FnMut(&str, usize) -> bool,
    findings: &mut Vec<Finding>,
) {
    if !RANK_DETERMINISTIC_CRATES.contains(&crate_name) {
        return;
    }
    for t in &lexed.toks {
        if t.kind == TokKind::Ident
            && (t.text == "HashMap" || t.text == "HashSet")
            && !waived(RULE_HASH, t.line)
        {
            findings.push(Finding {
                path: path.to_string(),
                line: t.line,
                rule: RULE_HASH,
                msg: format!(
                    "`{}` in rank-deterministic crate `{}`; iteration order is \
                     process-random — use BTreeMap/BTreeSet/Vec",
                    t.text, crate_name
                ),
            });
        }
    }
}

/// `hot-markers`: inside `crates/tensor/src`, any fn whose name follows
/// the kernel naming convention must carry the `hot` marker — otherwise
/// the `hot-alloc` scan never sees its body.
fn rule_hot_markers(
    path: &str,
    lexed: &Lexed,
    waived: &mut dyn FnMut(&str, usize) -> bool,
    findings: &mut Vec<Finding>,
) {
    if !path.starts_with(HOT_MARKER_PATH) {
        return;
    }
    let toks = &lexed.toks;
    // Indices of `fn` keywords reached by walking forward from a `hot`
    // marker (skipping any further attributes and qualifier keywords in
    // between).
    let mut hot_fns = Vec::new();
    for (_, attr, mut j) in attrs(toks) {
        if marker_of(&attr) != Some("hot") {
            continue;
        }
        while j < toks.len() && toks[j].text != "fn" {
            if toks[j].text == ";" || toks[j].text == "}" {
                break;
            }
            j += 1;
        }
        if j < toks.len() && toks[j].text == "fn" {
            hot_fns.push(j);
        }
    }
    for (j, t) in toks.iter().enumerate() {
        if t.text != "fn" {
            continue;
        }
        let Some(name) = toks.get(j + 1).filter(|n| n.kind == TokKind::Ident) else {
            continue;
        };
        if !HOT_MARKER_FN_PREFIXES
            .iter()
            .any(|p| name.text.starts_with(p))
        {
            continue;
        }
        if hot_fns.contains(&j) || waived(RULE_HOT_MARKERS, name.line) {
            continue;
        }
        findings.push(Finding {
            path: path.to_string(),
            line: name.line,
            rule: RULE_HOT_MARKERS,
            msg: format!(
                "kernel-convention fn `{}` lacks `#[cfg_attr(any(), dlsr::hot)]`; \
                 unmarked kernels escape the hot-alloc scan",
                name.text
            ),
        });
    }
}

/// `unknown-marker`: an attribute naming a `dlsr::` path must be one of
/// [`MARKERS`] in the `cfg_attr(any(), …)` spelling. A misspelled marker
/// compiles (the compiler never expands it) but no rule would see it, and
/// the bare `#[dlsr::…]` form needs a proc-macro crate the workspace no
/// longer has.
fn rule_unknown_marker(
    path: &str,
    lexed: &Lexed,
    waived: &mut dyn FnMut(&str, usize) -> bool,
    findings: &mut Vec<Finding>,
) {
    for (line, attr, _) in attrs(&lexed.toks) {
        let msg = match marker_of(&attr) {
            _ if attr.starts_with("dlsr::") => format!(
                "`#[{attr}]` is the retired proc-macro spelling; write \
                 `#[cfg_attr(any(), {attr})]`"
            ),
            Some(m) if MARKERS.contains(&m) => continue,
            _ if !attr.contains("dlsr::") => continue,
            _ => format!(
                "`#[{attr}]` is not a lint marker; the markers are \
                 `#[cfg_attr(any(), dlsr::{{hot,wall,deterministic}})]`"
            ),
        };
        if !waived(RULE_MARKER, line) {
            findings.push(Finding {
                path: path.to_string(),
                line,
                rule: RULE_MARKER,
                msg,
            });
        }
    }
}

/// `thread-spawn`: in the rank-execution crates, OS threads may only be
/// created by the sanctioned executor module. `thread::spawn`,
/// `thread::scope` and `JoinHandle` anywhere else are violations — a rank
/// path that quietly spawns its own thread breaks the driven core's
/// zero-thread guarantee and reintroduces scheduling nondeterminism the
/// execution cores exist to contain.
fn rule_thread_spawn(
    path: &str,
    crate_name: &str,
    lexed: &Lexed,
    waived: &mut dyn FnMut(&str, usize) -> bool,
    findings: &mut Vec<Finding>,
) {
    if !THREAD_CRATES.contains(&crate_name) {
        return;
    }
    if THREAD_ALLOWLIST.iter().any(|p| path.starts_with(p)) {
        return;
    }
    let toks = &lexed.toks;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let what = if t.text == "JoinHandle" {
            Some("JoinHandle")
        } else if (t.text == "spawn" || t.text == "scope")
            && i >= 3
            && toks[i - 1].text == ":"
            && toks[i - 2].text == ":"
            && toks[i - 3].text == "thread"
        {
            Some(if t.text == "spawn" {
                "thread::spawn"
            } else {
                "thread::scope"
            })
        } else {
            None
        };
        if let Some(what) = what {
            if waived(RULE_THREAD, t.line) {
                continue;
            }
            findings.push(Finding {
                path: path.to_string(),
                line: t.line,
                rule: RULE_THREAD,
                msg: format!(
                    "`{what}` outside the sanctioned executor module; rank \
                     parallelism belongs to crates/mpi/src/executor/ only"
                ),
            });
        }
    }
}

fn rule_undocumented_unsafe(
    path: &str,
    lexed: &Lexed,
    token_lines: &[usize],
    waived: &mut dyn FnMut(&str, usize) -> bool,
    findings: &mut Vec<Finding>,
) {
    for t in &lexed.toks {
        if t.kind != TokKind::Ident || t.text != "unsafe" {
            continue;
        }
        if has_safety_comment(lexed, token_lines, t.line) || waived(RULE_UNSAFE, t.line) {
            continue;
        }
        findings.push(Finding {
            path: path.to_string(),
            line: t.line,
            rule: RULE_UNSAFE,
            msg: String::from("`unsafe` without a `// SAFETY:` comment directly above"),
        });
    }
}

/// A `SAFETY:` comment counts when it trails the same line, or ends on a
/// line whose next token line is exactly the `unsafe` line (i.e. nothing
/// but blank/comment lines in between).
fn has_safety_comment(lexed: &Lexed, token_lines: &[usize], line: usize) -> bool {
    let covers = |c: &Comment| {
        if !c.text.contains("SAFETY:") {
            return false;
        }
        if c.trailing && c.line == line {
            return true;
        }
        c.end_line < line
            && token_lines
                .iter()
                .copied()
                .find(|&l| l > c.end_line)
                .is_some_and(|next| next == line)
    };
    lexed.comments.iter().any(covers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    /// Run waiver collection + the local rules over one pseudo-file, the
    /// way `analyze_files` does, including stale-waiver detection.
    fn run(path: &str, crate_name: &str, src: &str) -> Vec<Finding> {
        let lexed = lex(src);
        let token_lines = lexed.token_lines();
        let (waivers, mut findings) = collect_waivers(path, &lexed, &token_lines);
        let mut table = WaiverTable::new(vec![FileWaivers {
            path: path.to_string(),
            waivers,
        }]);
        let mut waived = |rule: &str, line: usize| table.check(0, rule, line);
        local_rules(
            path,
            crate_name,
            &lexed,
            &token_lines,
            &mut waived,
            &mut findings,
        );
        findings.extend(table.stale_findings());
        findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
        findings
    }

    #[test]
    fn hash_rule_only_in_rank_deterministic_crates() {
        let src = "use std::collections::HashMap;";
        assert_eq!(run("crates/horovod/src/x.rs", "horovod", src).len(), 1);
        assert!(run("crates/nn/src/x.rs", "nn", src).is_empty());
    }

    #[test]
    fn hash_waiver_needs_reason_and_is_tracked() {
        let waived = "// dlsr-lint: allow(hash-collections) -- fixed deterministic hasher\n\
                      use std::collections::HashMap;";
        assert!(run("crates/mpi/src/x.rs", "mpi", waived).is_empty());

        let bare = "// dlsr-lint: allow(hash-collections)\nuse std::collections::HashMap;";
        let f = run("crates/mpi/src/x.rs", "mpi", bare);
        assert!(f.iter().any(|f| f.rule == RULE_WAIVER));
        assert!(f.iter().any(|f| f.rule == RULE_HASH));
    }

    #[test]
    fn trailing_waiver_applies_to_its_own_line() {
        let src = "use std::collections::HashSet; // dlsr-lint: allow(hash-collections) -- scratch";
        assert!(run("crates/mpi/src/x.rs", "mpi", src).is_empty());
    }

    #[test]
    fn unknown_rule_waiver_is_flagged() {
        let src = "// dlsr-lint: allow(wallclock) -- typo\nlet x = 1;";
        let f = run("crates/mpi/src/x.rs", "mpi", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RULE_WAIVER);
    }

    #[test]
    fn stale_waiver_is_flagged() {
        let src = "// dlsr-lint: allow(hash-collections) -- nothing here anymore\nlet x = 1;";
        let f = run("crates/mpi/src/x.rs", "mpi", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, RULE_WAIVER);
        assert!(f[0].msg.contains("stale"), "{}", f[0].msg);
    }

    #[test]
    fn multi_rule_waiver_partial_use_is_stale() {
        // hash-collections fires and is waived; thread-spawn never fires,
        // so its half of the waiver is stale.
        let src = "// dlsr-lint: allow(hash-collections, thread-spawn) -- both claimed\n\
                   use std::collections::HashMap;";
        let f = run("crates/mpi/src/x.rs", "mpi", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, RULE_WAIVER);
        assert!(f[0].msg.contains("thread-spawn"), "{}", f[0].msg);
    }

    #[test]
    fn hot_markers_enforced_in_tensor_only() {
        let src = "fn pack_b_block(dst: &mut [f32]) {}";
        let f = run("crates/tensor/src/x.rs", "tensor", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, RULE_HOT_MARKERS);
        // outside crates/tensor/src the convention is not enforced
        assert!(run("crates/core/src/x.rs", "core", src).is_empty());

        let marked = "#[cfg_attr(any(), dlsr::hot)]\nfn microkernel_scalar(acc: &mut [f32]) {}";
        assert!(run("crates/tensor/src/x.rs", "tensor", marked).is_empty());

        // other attributes between the marker and the fn are tolerated
        let stacked = "#[cfg_attr(any(), dlsr::hot)]\n#[inline]\nfn pack_a(dst: &mut [f32]) {}";
        assert!(run("crates/tensor/src/x.rs", "tensor", stacked).is_empty());

        let waivered = "// dlsr-lint: allow(hot-markers) -- setup-only packer\n\
                        fn pack_setup_table(dst: &mut [f32]) {}";
        assert!(run("crates/tensor/src/x.rs", "tensor", waivered).is_empty());
    }

    #[test]
    fn markers_have_one_spelling() {
        for good in [
            "#[cfg_attr(any(), dlsr::hot)]\nfn f() {}",
            "#[cfg_attr(any(), dlsr::wall)]\nfn f() {}",
            "#[cfg_attr(any(), dlsr::deterministic)]\nfn f() {}",
            "#[cfg_attr(test, derive(Debug))]\nstruct S;",
            "#![allow(unsafe_code)]",
        ] {
            assert!(
                run("crates/core/src/x.rs", "core", good).is_empty(),
                "{good}"
            );
        }
        for bad in [
            "#[cfg_attr(any(), dlsr::hto)]\nfn f() {}",
            "#[cfg_attr(test, dlsr::hot)]\nfn f() {}",
            "#[dlsr::hot]\nfn f() {}",
            "#[dlsr::wall]\nfn f() {}",
        ] {
            let f = run("crates/core/src/x.rs", "core", bad);
            assert_eq!(f.len(), 1, "{bad}: {f:?}");
            assert_eq!(f[0].rule, RULE_MARKER);
        }
        assert!(
            run("crates/core/src/x.rs", "core", "#[dlsr::hot]\nfn f() {}")[0]
                .msg
                .contains("retired")
        );
        // a marker mentioned in a comment or string is not an attribute
        let prose = "// write #[dlsr::hot] here\nconst S: &str = \"#[dlsr::hto]\";";
        assert!(run("crates/core/src/x.rs", "core", prose).is_empty());
    }

    #[test]
    fn thread_spawn_scoped_to_executor_module() {
        let spawn = "let h = std::thread::spawn(|| {});";
        let handle = "fn park(h: std::thread::JoinHandle<()>) {}";
        let scope = "std::thread::scope(|s| {});";
        for src in [spawn, handle, scope] {
            let f = run("crates/mpi/src/comm.rs", "mpi", src);
            assert_eq!(f.len(), 1, "{src}: {f:?}");
            assert_eq!(f[0].rule, RULE_THREAD);
            // the executor module owns rank parallelism
            assert!(
                run("crates/mpi/src/executor/context.rs", "mpi", src).is_empty(),
                "{src}"
            );
        }
        // only rank-execution crates are in scope
        assert!(run("crates/core/src/x.rs", "core", spawn).is_empty());
        // thread::sleep and similar non-spawning calls are fine
        assert!(run("crates/mpi/src/x.rs", "mpi", "std::thread::sleep(d);").is_empty());
        // waivers work like everywhere else
        let waived = "// dlsr-lint: allow(thread-spawn) -- test-only stress harness\n\
                      let h = std::thread::spawn(|| {});";
        assert!(run("crates/mpi/src/x.rs", "mpi", waived).is_empty());
    }

    #[test]
    fn unsafe_requires_safety_comment() {
        let bad = "fn f() { unsafe { core::hint::unreachable_unchecked() } }";
        assert_eq!(run("crates/tensor/src/x.rs", "tensor", bad).len(), 1);

        let good = "fn f() {\n    // SAFETY: the caller proved the index is in bounds.\n    unsafe { core::hint::unreachable_unchecked() }\n}";
        assert!(run("crates/tensor/src/x.rs", "tensor", good).is_empty());

        let trailing = "fn f() { unsafe { x() } } // SAFETY: trivially in bounds";
        assert!(run("crates/tensor/src/x.rs", "tensor", trailing).is_empty());
    }

    #[test]
    fn unsafe_in_string_is_not_flagged() {
        let src = "fn f() { let s = \"unsafe\"; }";
        assert!(run("crates/tensor/src/x.rs", "tensor", src).is_empty());
    }
}
