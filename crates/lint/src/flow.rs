//! The interprocedural dataflow rules over the call graph.
//!
//! Four rules, each a reachability problem on [`Graph`]:
//!
//! - **`wall-clock`** (transitive): a wall-clock read (`Instant`,
//!   `SystemTime`) may only happen in code that is unreachable from
//!   non-wall entry points. The `wall` marker makes a fn a wall-domain
//!   boundary (trace epoch, the `tune_gemm` timing loop): reads
//!   inside it are fine, and traversal never crosses into it. This
//!   replaces PR 4's path allowlist — the allowlist is now an annotation
//!   the call graph understands, so a helper called only from a wall-domain `main`
//!   is covered automatically and a helper that leaks into rank code is
//!   not.
//! - **`hot-alloc`** (transitive): the allocation scan runs over every fn
//!   reachable from a `hot`-marked fn, not just the annotated body —
//!   `gemm -> helper -> Vec::new` no longer passes silently.
//! - **`determinism-taint`**: nondeterminism sources (`HashMap`/`HashSet`,
//!   `thread::current`, `thread_rng`, rayon's `par_bridge`) reachable
//!   from rank-deterministic roots: everything in
//!   `crates/mpi/src/executor/` and `crates/mpi/src/collectives/`, every
//!   `RankProgram`/`EventTask` impl, and every `deterministic`-marked
//!   fn (the `DistributedOptimizer` launch path, the fusion/readiness
//!   schedule, and the comm tuner's `tune_begin`/`tune_end` carry the
//!   marker — the tuner's measurements must stay virtual-clock
//!   Max-allreduce agreements, so a wall-clock read or hashed iteration
//!   sneaking into its observe path is exactly what this rule exists to
//!   catch; see `docs/WIRE.md`). `wall`-marked fns are trusted
//!   boundaries and are not entered. Waivable per call edge or per source
//!   line.
//! - **`collective-order`**: for every fn whose call closure contains a
//!   collective call, extract the sequence of collective call sites as a
//!   protocol skeleton and reject statically rank-divergent shapes: a
//!   rank-dependent branch whose arms run different collective sequences,
//!   or a rank-dependent loop around a collective. This is the static
//!   complement of the runtime collective-matching verifier — it fires
//!   before any rank runs.
//!
//! All traversal is index-ordered (no hashing), so reports are
//! bitwise-stable.

use crate::callgraph::{FnDef, Graph};
use crate::lexer::{Lexed, Tok, TokKind};
use crate::parser::{Block, Call, Stmt};
use crate::rules::{
    Finding, WaiverTable, HOT_BANNED_IDENTS, HOT_BANNED_MACROS, HOT_BANNED_PATHS, RULE_HOT_ALLOC,
    RULE_ORDER, RULE_TAINT, RULE_WALL_CLOCK,
};

/// Workspace collective entry points: callable names, or `Type::name` for
/// the allreduce request builder, whose `Allreduce::new(buf)` starts one
/// collective whether the buffer is real or costs-only. A call to any of
/// these is a protocol event for the `collective-order` rule.
pub const COLLECTIVE_FNS: &[&str] = &[
    "Allreduce::new",
    "barrier",
    "bcast",
    "broadcast_parameters",
    "negotiate",
    "negotiate_with_cost",
];

/// The entry point call `c` makes, if it is one: matched by name, and by
/// the path's last two segments for a `Type::name` entry.
fn collective(c: &Call) -> Option<&'static str> {
    COLLECTIVE_FNS
        .iter()
        .copied()
        .find(|f| match f.split_once("::") {
            Some((ty, name)) => c.qualifier.as_deref() == Some(ty) && c.name == name,
            None => c.name == *f,
        })
}

/// One rendered per-rank collective protocol, for `--json` output.
#[derive(Debug, Clone)]
pub struct Protocol {
    /// Display name of the root fn (`Prog::next`).
    pub root: String,
    /// File the root lives in.
    pub path: String,
    /// Line of the root fn.
    pub line: usize,
    /// Rendered skeleton, e.g. `[negotiate, loop{Allreduce::new}]`.
    pub skeleton: String,
}

/// Run all four interprocedural rules. Returns the protocol skeletons of
/// the rank-program roots (for reporting).
pub fn run_flow_rules(
    graph: &Graph,
    lexed: &[Lexed],
    waivers: &mut WaiverTable,
    findings: &mut Vec<Finding>,
) -> Vec<Protocol> {
    rule_wall_clock(graph, lexed, waivers, findings);
    rule_hot_alloc(graph, lexed, waivers, findings);
    rule_determinism_taint(graph, lexed, waivers, findings);
    rule_collective_order(graph, waivers, findings)
}

/// Reachability with parent tracking. Expands from `roots` in index
/// order; `enter(def)` gates whether a def may be entered at all;
/// `prune(caller, edge)` drops individual edges (waivers). Returns
/// `(reached, parent)` where `parent[d] = Some((caller, call_line))`.
#[allow(clippy::type_complexity)]
fn reach(
    graph: &Graph,
    roots: &[usize],
    enter: &mut dyn FnMut(&FnDef) -> bool,
    prune: &mut dyn FnMut(usize, usize, usize) -> bool, // (caller, callee, line)
) -> (Vec<bool>, Vec<Option<(usize, usize)>>) {
    let n = graph.defs.len();
    let mut reached = vec![false; n];
    let mut parent: Vec<Option<(usize, usize)>> = vec![None; n];
    let mut queue: Vec<usize> = Vec::new();
    for &r in roots {
        if !reached[r] {
            reached[r] = true;
            queue.push(r);
        }
    }
    let mut at = 0usize;
    while at < queue.len() {
        let d = queue[at];
        at += 1;
        for e in &graph.edges[d] {
            if reached[e.callee] {
                continue;
            }
            if !enter(&graph.defs[e.callee]) {
                continue;
            }
            if prune(d, e.callee, e.line) {
                continue;
            }
            reached[e.callee] = true;
            parent[e.callee] = Some((d, e.line));
            queue.push(e.callee);
        }
    }
    (reached, parent)
}

/// Render the call chain from a root down to `d` as `a -> b -> c`.
fn chain(graph: &Graph, parent: &[Option<(usize, usize)>], d: usize) -> String {
    let mut names = vec![graph.defs[d].display_name()];
    let mut cur = d;
    let mut hops = 0;
    while let Some((p, _)) = parent[cur] {
        names.push(graph.defs[p].display_name());
        cur = p;
        hops += 1;
        if hops > 64 {
            break;
        }
    }
    names.reverse();
    names.join(" -> ")
}

fn rule_wall_clock(
    graph: &Graph,
    lexed: &[Lexed],
    waivers: &mut WaiverTable,
    findings: &mut Vec<Finding>,
) {
    // Entries: fns with no in-graph callers that are neither test code nor
    // wall-domain boundaries. Everything reachable from them without
    // crossing a `wall`-marked fn is "unprotected": it may run on a
    // rank, so it must not read wall clocks.
    let roots: Vec<usize> = graph
        .defs
        .iter()
        .enumerate()
        .filter(|(i, d)| graph.callers[*i].is_empty() && !d.is_test && !d.has_marker("wall"))
        .map(|(i, _)| i)
        .collect();
    let (unprotected, parent) = reach(
        graph,
        &roots,
        &mut |d| !d.is_test && !d.has_marker("wall"),
        &mut |caller, _callee, line| {
            let file = graph.defs[caller].file;
            waivers.check(file, RULE_WALL_CLOCK, line)
        },
    );
    for (i, d) in graph.defs.iter().enumerate() {
        if !unprotected[i] {
            continue;
        }
        for (line, what) in wall_reads(&lexed[d.file].toks, d.body_span) {
            if waivers.check(d.file, RULE_WALL_CLOCK, line) {
                continue;
            }
            findings.push(Finding {
                path: d.path.clone(),
                line,
                rule: RULE_WALL_CLOCK,
                msg: format!(
                    "`{what}` read in `{}` outside the wall domain (reachable via {}); \
                     virtual time must come from the simulator clock, or mark the fn \
                     `#[cfg_attr(any(), dlsr::wall)]`",
                    d.display_name(),
                    chain(graph, &parent, i)
                ),
            });
        }
    }
}

fn rule_hot_alloc(
    graph: &Graph,
    lexed: &[Lexed],
    waivers: &mut WaiverTable,
    findings: &mut Vec<Finding>,
) {
    let roots: Vec<usize> = graph
        .defs
        .iter()
        .enumerate()
        .filter(|(_, d)| d.has_marker("hot") && !d.is_test)
        .map(|(i, _)| i)
        .collect();
    if roots.is_empty() {
        return;
    }
    let (reached, parent) = reach(
        graph,
        &roots,
        &mut |d| !d.is_test,
        &mut |caller, _callee, line| {
            let file = graph.defs[caller].file;
            waivers.check(file, RULE_HOT_ALLOC, line)
        },
    );
    for (i, d) in graph.defs.iter().enumerate() {
        if !reached[i] {
            continue;
        }
        for (line, what) in hot_alloc_sites(&lexed[d.file].toks, d.body_span) {
            if waivers.check(d.file, RULE_HOT_ALLOC, line) {
                continue;
            }
            let msg = if parent[i].is_none() {
                format!(
                    "allocating call `{what}` inside `hot`-marked fn `{}`; \
                     hot paths must take scratch from the caller",
                    d.display_name()
                )
            } else {
                format!(
                    "allocating call `{what}` in `{}`, reachable from a \
                     `hot`-marked fn via {}; hot paths must take scratch \
                     from the caller",
                    d.display_name(),
                    chain(graph, &parent, i)
                )
            };
            findings.push(Finding {
                path: d.path.clone(),
                line,
                rule: RULE_HOT_ALLOC,
                msg,
            });
        }
    }
}

/// Is this def a determinism root — code whose behaviour must be bitwise
/// identical on every rank?
fn is_taint_root(d: &FnDef) -> bool {
    if d.is_test {
        return false;
    }
    d.path.starts_with("crates/mpi/src/executor/")
        || d.path.starts_with("crates/mpi/src/collectives/")
        || matches!(
            d.trait_name.as_deref(),
            Some("RankProgram") | Some("EventTask")
        )
        || d.has_marker("deterministic")
}

fn rule_determinism_taint(
    graph: &Graph,
    lexed: &[Lexed],
    waivers: &mut WaiverTable,
    findings: &mut Vec<Finding>,
) {
    let roots: Vec<usize> = graph
        .defs
        .iter()
        .enumerate()
        .filter(|(_, d)| is_taint_root(d))
        .map(|(i, _)| i)
        .collect();
    if roots.is_empty() {
        return;
    }
    let (reached, parent) = reach(
        graph,
        &roots,
        // `wall`-marked fns are trusted boundaries: the wall-clock rule
        // owns what happens inside them.
        &mut |d| !d.is_test && !d.has_marker("wall"),
        &mut |caller, _callee, line| {
            let file = graph.defs[caller].file;
            waivers.check(file, RULE_TAINT, line)
        },
    );
    for (i, d) in graph.defs.iter().enumerate() {
        if !reached[i] {
            continue;
        }
        for (line, what) in taint_sources(&lexed[d.file].toks, d.body_span) {
            if waivers.check(d.file, RULE_TAINT, line) {
                continue;
            }
            findings.push(Finding {
                path: d.path.clone(),
                line,
                rule: RULE_TAINT,
                msg: format!(
                    "{what} in `{}`, reachable from rank-deterministic root via {}; \
                     rank-visible state must not depend on it",
                    d.display_name(),
                    chain(graph, &parent, i)
                ),
            });
        }
    }
}

/// A protocol skeleton node: the per-rank sequence of collective events a
/// fn performs, with control flow preserved where it matters.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Skel {
    /// A collective call site.
    Coll(String),
    /// A call into a workspace fn whose closure performs collectives.
    Call(usize),
    /// Control flow selecting between alternative sequences.
    Branch(Vec<Vec<Skel>>),
    /// A repeated sequence.
    Loop(Vec<Skel>),
}

fn render_seq(graph: &Graph, skels: &[Skel]) -> String {
    let parts: Vec<String> = skels
        .iter()
        .map(|s| match s {
            Skel::Coll(n) => n.clone(),
            Skel::Call(d) => format!("{}()", graph.defs[*d].display_name()),
            Skel::Branch(arms) => {
                let rendered: Vec<String> = arms.iter().map(|a| render_skels(graph, a)).collect();
                format!("if{{{}}}", rendered.join(" | "))
            }
            Skel::Loop(body) => format!("loop{{{}}}", render_seq(graph, body)),
        })
        .collect();
    parts.join(", ")
}

fn render_skels(graph: &Graph, skels: &[Skel]) -> String {
    format!("[{}]", render_seq(graph, skels))
}

fn rule_collective_order(
    graph: &Graph,
    waivers: &mut WaiverTable,
    findings: &mut Vec<Finding>,
) -> Vec<Protocol> {
    let n = graph.defs.len();
    // Fixpoint: does the def's call closure contain a collective call?
    let mut has_coll = vec![false; n];
    for (i, d) in graph.defs.iter().enumerate() {
        if let Some(body) = &d.body {
            crate::parser::walk_stmts(body, &mut |s| {
                if let Stmt::Call(c) = s {
                    if collective(c).is_some() {
                        has_coll[i] = true;
                    }
                }
            });
        }
    }
    loop {
        let mut changed = false;
        for i in 0..n {
            if has_coll[i] {
                continue;
            }
            if graph.edges[i].iter().any(|e| has_coll[e.callee]) {
                has_coll[i] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let mut protocols = Vec::new();
    for (i, d) in graph.defs.iter().enumerate() {
        if d.is_test || !has_coll[i] {
            continue;
        }
        let Some(body) = &d.body else { continue };
        let skels = build_skels(graph, &has_coll, i, d, body, waivers, findings);
        let is_program_root = matches!(
            d.trait_name.as_deref(),
            Some("RankProgram") | Some("EventTask")
        ) || d.has_marker("deterministic");
        if is_program_root && !skels.is_empty() {
            protocols.push(Protocol {
                root: d.display_name(),
                path: d.path.clone(),
                line: d.line,
                skeleton: render_skels(graph, &skels),
            });
        }
    }
    protocols.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    protocols
}

/// Build the skeleton of one block, emitting findings for statically
/// rank-divergent shapes as they are found.
#[allow(clippy::too_many_arguments)]
fn build_skels(
    graph: &Graph,
    has_coll: &[bool],
    def_idx: usize,
    d: &FnDef,
    block: &Block,
    waivers: &mut WaiverTable,
    findings: &mut Vec<Finding>,
) -> Vec<Skel> {
    let mut out = Vec::new();
    for s in &block.stmts {
        match s {
            Stmt::Call(c) => {
                if let Some(name) = collective(c) {
                    out.push(Skel::Coll(name.to_string()));
                } else {
                    // Match the stmt back to its resolved edge(s) by line
                    // AND callee name — two different calls can share a
                    // source line.
                    for e in &graph.edges[def_idx] {
                        if e.line == c.line
                            && graph.defs[e.callee].name == c.name
                            && has_coll[e.callee]
                        {
                            let node = Skel::Call(e.callee);
                            if out.last() != Some(&node) {
                                out.push(node);
                            }
                        }
                    }
                }
            }
            Stmt::Branch {
                rank_dep,
                arms,
                line,
            } => {
                let arm_skels: Vec<Vec<Skel>> = arms
                    .iter()
                    .map(|a| build_skels(graph, has_coll, def_idx, d, a, waivers, findings))
                    .collect();
                if arm_skels.iter().all(|a| a.is_empty()) {
                    continue;
                }
                if *rank_dep
                    && arm_skels.windows(2).any(|w| w[0] != w[1])
                    && !waivers.check(d.file, RULE_ORDER, *line)
                {
                    let rendered: Vec<String> =
                        arm_skels.iter().map(|a| render_skels(graph, a)).collect();
                    findings.push(Finding {
                        path: d.path.clone(),
                        line: *line,
                        rule: RULE_ORDER,
                        msg: format!(
                            "rank-divergent collective sequence in `{}`: branch arms \
                             run {}; every rank must issue the same collectives in \
                             the same order",
                            d.display_name(),
                            rendered.join(" vs ")
                        ),
                    });
                }
                out.push(Skel::Branch(arm_skels));
            }
            Stmt::Loop {
                rank_dep,
                body,
                line,
            } => {
                let body_skels = build_skels(graph, has_coll, def_idx, d, body, waivers, findings);
                if body_skels.is_empty() {
                    continue;
                }
                if *rank_dep && !waivers.check(d.file, RULE_ORDER, *line) {
                    findings.push(Finding {
                        path: d.path.clone(),
                        line: *line,
                        rule: RULE_ORDER,
                        msg: format!(
                            "collective sequence {} inside a rank-dependent loop in `{}`; \
                             a rank-dependent trip count desynchronizes the protocol",
                            render_skels(graph, &body_skels),
                            d.display_name()
                        ),
                    });
                }
                out.push(Skel::Loop(body_skels));
            }
            Stmt::Unsafe { body, .. } => {
                out.extend(build_skels(
                    graph, has_coll, def_idx, d, body, waivers, findings,
                ));
            }
            Stmt::Item(_) => {}
        }
    }
    out
}

/// Lexical scan: wall-clock type reads inside a body span.
fn wall_reads(toks: &[Tok], span: (usize, usize)) -> Vec<(usize, &'static str)> {
    let mut out = Vec::new();
    for t in toks.iter().take(span.1).skip(span.0) {
        if t.kind != TokKind::Ident {
            continue;
        }
        match t.text.as_str() {
            "Instant" => out.push((t.line, "Instant")),
            "SystemTime" => out.push((t.line, "SystemTime")),
            _ => {}
        }
    }
    out.dedup();
    out
}

/// Lexical scan: banned allocating calls inside a body span (same token
/// shapes as PR 4's in-body rule).
fn hot_alloc_sites(toks: &[Tok], span: (usize, usize)) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for j in span.0..span.1.min(toks.len()) {
        let t = &toks[j];
        if t.kind != TokKind::Ident {
            continue;
        }
        if HOT_BANNED_IDENTS.contains(&t.text.as_str()) {
            out.push((t.line, t.text.clone()));
        } else if HOT_BANNED_MACROS.contains(&t.text.as_str())
            && toks.get(j + 1).is_some_and(|n| n.text == "!")
        {
            out.push((t.line, format!("{}!", t.text)));
        } else if HOT_BANNED_PATHS.iter().any(|(ty, m)| {
            t.text == *ty
                && toks.get(j + 1).is_some_and(|a| a.text == ":")
                && toks.get(j + 2).is_some_and(|b| b.text == ":")
                && toks.get(j + 3).is_some_and(|c| c.text == *m)
        }) {
            out.push((t.line, format!("{}::new", t.text)));
        }
    }
    out
}

/// Lexical scan: nondeterminism sources inside a body span.
fn taint_sources(toks: &[Tok], span: (usize, usize)) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for j in span.0..span.1.min(toks.len()) {
        let t = &toks[j];
        if t.kind != TokKind::Ident {
            continue;
        }
        match t.text.as_str() {
            "HashMap" | "HashSet" => out.push((
                t.line,
                format!("`{}` (process-random iteration order)", t.text),
            )),
            "par_bridge" => out.push((
                t.line,
                String::from("`par_bridge` (unordered rayon combinator)"),
            )),
            "thread_rng" => out.push((t.line, String::from("`thread_rng` (OS-entropy RNG)"))),
            "current"
                if j >= 3
                    && toks[j - 1].text == ":"
                    && toks[j - 2].text == ":"
                    && toks[j - 3].text == "thread" =>
            {
                out.push((t.line, String::from("`thread::current`")));
            }
            _ => {}
        }
    }
    // One finding per (line, source kind) is enough: `HashMap::<K,V>::new()`
    // mentions the type twice on the same line.
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::Graph;
    use crate::lexer::lex;
    use crate::parser;
    use crate::rules::{collect_waivers, FileWaivers};

    /// Mini-harness: lex/parse/graph the given files and run the flow
    /// rules, returning (findings incl. stale waivers, protocols).
    fn run(files: &[(&str, &str, &str)]) -> (Vec<Finding>, Vec<Protocol>) {
        let lexed: Vec<Lexed> = files.iter().map(|(_, _, src)| lex(src)).collect();
        let mut fws = Vec::new();
        let mut findings = Vec::new();
        for ((path, _, _), lx) in files.iter().zip(&lexed) {
            let token_lines = lx.token_lines();
            let (waivers, mut bad) = collect_waivers(path, lx, &token_lines);
            findings.append(&mut bad);
            fws.push(FileWaivers {
                path: path.to_string(),
                waivers,
            });
        }
        let mut table = WaiverTable::new(fws);
        let graph = Graph::build(
            files
                .iter()
                .zip(&lexed)
                .map(|((p, c, _), lx)| (p.to_string(), c.to_string(), parser::parse(lx)))
                .collect(),
        );
        let protocols = run_flow_rules(&graph, &lexed, &mut table, &mut findings);
        findings.extend(table.stale_findings());
        (findings, protocols)
    }

    fn rules_of(f: &[Finding]) -> Vec<&'static str> {
        f.iter().map(|x| x.rule).collect()
    }

    #[test]
    fn collective_list_is_sorted() {
        let mut sorted = COLLECTIVE_FNS.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, COLLECTIVE_FNS);
    }

    #[test]
    fn transitive_wall_clock_trips_through_helpers() {
        let (f, _) = run(&[(
            "crates/cluster/src/x.rs",
            "cluster",
            "
            pub fn entry() { helper(); }
            fn helper() { let t = std::time::Instant::now(); }
            ",
        )]);
        assert_eq!(rules_of(&f), vec![RULE_WALL_CLOCK], "{f:?}");
        assert!(f[0].msg.contains("entry -> helper"), "{}", f[0].msg);
    }

    #[test]
    fn wall_marker_protects_reads_and_callees() {
        let (f, _) = run(&[(
            "crates/tensor/src/bin/b.rs",
            "tensor",
            "
            #[cfg_attr(any(), dlsr::wall)]
            fn main() { let t0 = std::time::Instant::now(); timed(); }
            fn timed() { let t1 = std::time::Instant::now(); }
            ",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unannotated_entry_into_wall_helper_still_trips() {
        let (f, _) = run(&[(
            "crates/tensor/src/bin/b.rs",
            "tensor",
            "
            #[cfg_attr(any(), dlsr::wall)]
            fn main() { timed(); }
            fn timed() { let t1 = std::time::Instant::now(); }
            pub fn leaked_into_rank_code() { timed(); }
            ",
        )]);
        assert_eq!(rules_of(&f), vec![RULE_WALL_CLOCK], "{f:?}");
        assert!(f[0].msg.contains("leaked_into_rank_code"), "{}", f[0].msg);
    }

    #[test]
    fn transitive_hot_alloc_trips_one_call_deep() {
        let (f, _) = run(&[(
            "crates/tensor/src/x.rs",
            "tensor",
            "
            #[cfg_attr(any(), dlsr::hot)]
            fn microkernel_x(dst: &mut [f32]) { helper(dst); }
            fn helper(dst: &mut [f32]) { let v: Vec<f32> = Vec::new(); }
            fn cold() -> Vec<f32> { Vec::new() }
            ",
        )]);
        assert_eq!(rules_of(&f), vec![RULE_HOT_ALLOC], "{f:?}");
        assert!(f[0].msg.contains("microkernel_x -> helper"), "{}", f[0].msg);
    }

    #[test]
    fn hot_alloc_edge_waiver_prunes_the_path() {
        let (f, _) = run(&[(
            "crates/tensor/src/x.rs",
            "tensor",
            "
            #[cfg_attr(any(), dlsr::hot)]
            fn microkernel_x(dst: &mut [f32]) {
                // dlsr-lint: allow(hot-alloc) -- setup-only call, runs once per shape
                helper(dst);
            }
            fn helper(dst: &mut [f32]) { let v: Vec<f32> = Vec::new(); }
            ",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn taint_reaches_other_crates_from_rank_roots() {
        let (f, _) = run(&[
            (
                "crates/mpi/src/executor/driven.rs",
                "mpi",
                "pub fn run_world() { dlsr_gpu::registry_new(); }",
            ),
            (
                "crates/gpu/src/ipc.rs",
                "gpu",
                "
                use std::collections::HashMap;
                pub fn registry_new() { let m: HashMap<u64, u64> = HashMap::new(); }
                ",
            ),
        ]);
        // Two HashMap tokens (use + body), but only the body one is inside
        // a fn span.
        assert_eq!(rules_of(&f), vec![RULE_TAINT], "{f:?}");
        assert!(
            f[0].msg.contains("run_world -> registry_new"),
            "{}",
            f[0].msg
        );
    }

    #[test]
    fn taint_roots_include_rank_program_impls() {
        let (f, _) = run(&[(
            "crates/horovod/src/prog.rs",
            "horovod",
            "
            struct P;
            impl RankProgram for P {
                fn next(&mut self) { self.pick(); }
            }
            impl P { fn pick(&self) { let _ = rand::thread_rng(); } }
            ",
        )]);
        assert_eq!(rules_of(&f), vec![RULE_TAINT], "{f:?}");
    }

    #[test]
    fn rank_divergent_branch_is_rejected() {
        let (f, protocols) = run(&[(
            "crates/mpi/src/executor/prog.rs",
            "mpi",
            "
            struct P;
            impl RankProgram for P {
                fn next(&mut self, rank: usize) {
                    if rank % 2 == 0 { Allreduce::new(); } else { barrier(); }
                }
            }
            fn barrier() {}
            ",
        )]);
        assert!(rules_of(&f).contains(&RULE_ORDER), "{f:?}");
        assert!(
            f[0].msg.contains("[Allreduce::new] vs [barrier]"),
            "{}",
            f[0].msg
        );
        assert_eq!(protocols.len(), 1);
        assert!(
            protocols[0].skeleton.contains("Allreduce::new"),
            "{protocols:?}"
        );
    }

    #[test]
    fn rank_uniform_sequences_pass_and_render() {
        let (f, protocols) = run(&[(
            "crates/mpi/src/executor/prog.rs",
            "mpi",
            "
            struct P;
            impl RankProgram for P {
                fn next(&mut self, rank: usize) {
                    negotiate();
                    for step in 0..4 { Allreduce::new(); }
                    if rank == 0 { log_local(); } else { log_local(); }
                }
            }
            fn negotiate() {}
            fn log_local() {}
            ",
        )]);
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(protocols.len(), 1);
        assert_eq!(protocols[0].skeleton, "[negotiate, loop{Allreduce::new}]");
    }

    #[test]
    fn rank_dependent_loop_around_collective_is_rejected() {
        let (f, _) = run(&[(
            "crates/mpi/src/executor/prog.rs",
            "mpi",
            "
            pub fn drive(rank: usize) {
                for i in 0..rank { barrier(); }
            }
            fn barrier() {}
            ",
        )]);
        assert!(rules_of(&f).contains(&RULE_ORDER), "{f:?}");
    }

    #[test]
    fn divergence_through_a_callee_is_seen() {
        // The branch itself calls helpers; divergence shows because the
        // two helpers' closures run different collectives.
        let (f, _) = run(&[(
            "crates/mpi/src/executor/prog.rs",
            "mpi",
            "
            pub fn drive(rank: usize) {
                if rank == 0 { path_a(); } else { path_b(); }
            }
            fn path_a() { Allreduce::new(); }
            fn path_b() { barrier(); }
            fn barrier() {}
            ",
        )]);
        assert!(rules_of(&f).contains(&RULE_ORDER), "{f:?}");
    }

    #[test]
    fn collective_order_waiver_suppresses() {
        let (f, _) = run(&[(
            "crates/mpi/src/executor/prog.rs",
            "mpi",
            "
            pub fn drive(rank: usize) {
                // dlsr-lint: allow(collective-order) -- root-only bcast, peers recv inside
                if rank == 0 { bcast(); } else { recv_side(); }
            }
            fn bcast() {}
            fn recv_side() {}
            ",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }
}
