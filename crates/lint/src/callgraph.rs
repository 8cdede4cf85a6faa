//! Workspace-wide call graph over the parsed ASTs.
//!
//! Name-based resolution, not type-based: the analyzer has no type
//! information, so a call resolves to the set of workspace definitions its
//! syntax can plausibly denote (path qualifiers matched against impl
//! types, traits, modules and crates; bare calls against free fns; method
//! calls against workspace methods of the same name). Two deliberate
//! asymmetries keep the graph useful:
//!
//! - Unresolvable calls (std, vendored deps) produce **no** edge — the
//!   dataflow rules have their own lexical scans for the std sinks they
//!   care about (`Instant`, `HashMap`, `Vec::new`, ...).
//! - Bare method calls whose name is in [`AMBIENT_METHODS`] produce no
//!   edge either: `.len()` / `.iter()` / `.next()` would otherwise
//!   resolve to every same-named workspace method and flood the graph
//!   with false paths. Path-qualified calls always resolve.
//!
//! Traversal and output ordering are index-based and sorted — no hashing
//! anywhere, so reports are bitwise-stable across runs.

use std::collections::BTreeMap;

use crate::parser::{self, Ast, Block, Item, ItemKind, Stmt};

/// Method names too generic to resolve by name alone: calls to these via
/// `.name(...)` syntax are dropped from the graph (path-qualified calls
/// still resolve). Sorted; `is_ambient_method` binary-searches it.
pub const AMBIENT_METHODS: &[&str] = &[
    "abs",
    "add",
    "all",
    "any",
    "as_mut",
    "as_mut_ptr",
    "as_ptr",
    "as_ref",
    "as_slice",
    "as_str",
    "binary_search",
    "borrow",
    "borrow_mut",
    "bytes",
    "ceil",
    "chars",
    "checked_sub",
    "chunks",
    "chunks_exact",
    "chunks_mut",
    "clamp",
    "clear",
    "clone",
    "cloned",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "copied",
    "copy_from_slice",
    "count",
    "dedup",
    "drain",
    "entry",
    "enumerate",
    "eq",
    "err",
    "exp",
    "expect",
    "extend",
    "fill",
    "filter",
    "filter_map",
    "find",
    "find_map",
    "first",
    "flat_map",
    "flatten",
    "floor",
    "flush",
    "fmt",
    "fold",
    "get",
    "get_mut",
    "get_or_insert_with",
    "hash",
    "insert",
    "into",
    "into_iter",
    "is_empty",
    "is_err",
    "is_finite",
    "is_nan",
    "is_none",
    "is_ok",
    "is_some",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "ln",
    "lock",
    "map",
    "map_err",
    "max",
    "max_by",
    "max_by_key",
    "min",
    "min_by",
    "min_by_key",
    "mul_add",
    "ne",
    "next",
    "offset",
    "ok",
    "ok_or",
    "ok_or_else",
    "or_default",
    "or_insert",
    "or_insert_with",
    "parse",
    "partial_cmp",
    "pop",
    "position",
    "powf",
    "powi",
    "product",
    "push",
    "push_str",
    "read",
    "recip",
    "rem_euclid",
    "remove",
    "repeat",
    "replace",
    "resize",
    "retain",
    "rev",
    "round",
    "saturating_add",
    "saturating_sub",
    "skip",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "split",
    "split_at",
    "split_at_mut",
    "split_whitespace",
    "sqrt",
    "starts_with",
    "step_by",
    "strip_prefix",
    "strip_suffix",
    "sub",
    "sum",
    "swap",
    "take",
    "tanh",
    "to_le_bytes",
    "to_owned",
    "to_string",
    "to_vec",
    "trim",
    "trim_end",
    "trim_start",
    "unwrap",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "values",
    "values_mut",
    "windows",
    "wrapping_add",
    "write",
    "write_all",
    "zip",
];

/// Is `name` in the ambient-method exclusion list?
pub fn is_ambient_method(name: &str) -> bool {
    AMBIENT_METHODS.binary_search(&name).is_ok()
}

/// One function definition found anywhere in the workspace.
#[derive(Debug)]
pub struct FnDef {
    /// Index of the source file in the analysis file list.
    pub file: usize,
    /// Repo-relative path of that file (duplicated for messages).
    pub path: String,
    /// `crates/<name>` directory name the file belongs to.
    pub crate_name: String,
    /// Function name.
    pub name: String,
    /// Enclosing `impl`/`trait` type head, when the fn is a method.
    pub impl_type: Option<String>,
    /// Enclosing `impl Trait for ...` trait head.
    pub trait_name: Option<String>,
    /// Module path inside the crate (file-derived plus inline `mod`s).
    pub module: Vec<String>,
    /// Line of the `fn` keyword.
    pub line: usize,
    /// Own attributes (rendered, whitespace-free).
    pub attrs: Vec<String>,
    /// True under `#[cfg(test)]` / `#[test]` (own or inherited).
    pub is_test: bool,
    /// True when defined inside an `impl` or `trait` container.
    pub is_method: bool,
    /// Token index range of the body inside its braces (for lexical
    /// sub-scans over the file's token stream).
    pub body_span: (usize, usize),
    /// Parsed body, `None` for bodyless signatures.
    pub body: Option<Block>,
}

impl FnDef {
    /// Does the def carry `#[cfg_attr(any(), dlsr::<marker>)]`?
    pub fn has_marker(&self, marker: &str) -> bool {
        self.attrs
            .iter()
            .any(|a| crate::rules::marker_of(a) == Some(marker))
    }

    /// Human-readable name for findings: `Type::name` or `name`.
    pub fn display_name(&self) -> String {
        match &self.impl_type {
            Some(t) if !t.is_empty() => format!("{t}::{}", self.name),
            _ => self.name.clone(),
        }
    }
}

/// One resolved call edge.
#[derive(Debug, Clone)]
pub struct Edge {
    /// Callee def index.
    pub callee: usize,
    /// Source line of the call site.
    pub line: usize,
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct Graph {
    /// Every function definition, in file order then source order.
    pub defs: Vec<FnDef>,
    /// Outgoing edges per def, deduplicated and sorted.
    pub edges: Vec<Vec<Edge>>,
    /// Incoming edge sources per def (deduplicated, sorted).
    pub callers: Vec<Vec<usize>>,
}

impl Graph {
    /// Build the graph from parsed files. `files` items are
    /// `(repo-relative path, crate name, ast)`; the index of each entry is
    /// the `FnDef::file` value.
    pub fn build(files: Vec<(String, String, Ast)>) -> Graph {
        let mut defs = Vec::new();
        for (file_idx, (path, crate_name, ast)) in files.into_iter().enumerate() {
            let module = module_path(&path);
            let mut ctx = Collect {
                file: file_idx,
                path: &path,
                crate_name: &crate_name,
                defs: &mut defs,
            };
            ctx.items(ast.items, &module, None, None, false);
        }

        // Name indexes (BTreeMap: deterministic iteration, no hashing).
        let mut free_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut methods_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut by_type_method: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        let mut by_trait_method: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        for (i, d) in defs.iter().enumerate() {
            if d.is_method {
                methods_by_name.entry(&d.name).or_default().push(i);
                if let Some(t) = &d.impl_type {
                    by_type_method.entry((t, &d.name)).or_default().push(i);
                }
                if let Some(t) = &d.trait_name {
                    by_trait_method.entry((t, &d.name)).or_default().push(i);
                }
            } else {
                free_by_name.entry(&d.name).or_default().push(i);
            }
        }

        let mut edges: Vec<Vec<Edge>> = vec![Vec::new(); defs.len()];
        for (i, d) in defs.iter().enumerate() {
            let Some(body) = &d.body else { continue };
            let mut out: Vec<Edge> = Vec::new();
            parser::walk_stmts(body, &mut |s| {
                let Stmt::Call(c) = s else { return };
                let mut targets: Vec<usize> = Vec::new();
                if c.method {
                    if is_ambient_method(&c.name) {
                        return;
                    }
                    if c.recv_self {
                        if let Some(t) = &d.impl_type {
                            if let Some(v) = by_type_method.get(&(t.as_str(), c.name.as_str())) {
                                targets.extend_from_slice(v);
                            }
                        }
                    }
                    if targets.is_empty() {
                        if let Some(v) = methods_by_name.get(c.name.as_str()) {
                            targets.extend_from_slice(v);
                        }
                    }
                } else {
                    match &c.qualifier {
                        Some(q) => {
                            let q = q.as_str();
                            let qn = if q == "Self" {
                                d.impl_type.as_deref().unwrap_or(q)
                            } else {
                                q
                            };
                            if let Some(v) = by_type_method.get(&(qn, c.name.as_str())) {
                                targets.extend_from_slice(v);
                            }
                            if let Some(v) = by_trait_method.get(&(qn, c.name.as_str())) {
                                targets.extend_from_slice(v);
                            }
                            if targets.is_empty() {
                                // Module- or crate-qualified free fn.
                                let crate_q = qn.strip_prefix("dlsr_").unwrap_or(match qn {
                                    "dlsr" => "core",
                                    other => other,
                                });
                                if let Some(v) = free_by_name.get(c.name.as_str()) {
                                    for &cand in v {
                                        let cd = &defs[cand];
                                        if cd.module.iter().any(|m| m == qn)
                                            || cd.crate_name == crate_q
                                            || qn == "crate" && cd.crate_name == d.crate_name
                                        {
                                            targets.push(cand);
                                        }
                                    }
                                }
                            }
                        }
                        None => {
                            if let Some(v) = free_by_name.get(c.name.as_str()) {
                                let same_crate: Vec<usize> = v
                                    .iter()
                                    .copied()
                                    .filter(|&cand| defs[cand].crate_name == d.crate_name)
                                    .collect();
                                if same_crate.is_empty() {
                                    targets.extend_from_slice(v);
                                } else {
                                    targets.extend_from_slice(&same_crate);
                                }
                            }
                        }
                    }
                }
                for t in targets {
                    if t != i {
                        out.push(Edge {
                            callee: t,
                            line: c.line,
                        });
                    }
                }
            });
            out.sort_by_key(|e| (e.callee, e.line));
            out.dedup_by_key(|e| (e.callee, e.line));
            edges[i] = out;
        }

        let mut callers: Vec<Vec<usize>> = vec![Vec::new(); defs.len()];
        for (i, es) in edges.iter().enumerate() {
            for e in es {
                callers[e.callee].push(i);
            }
        }
        for c in &mut callers {
            c.sort_unstable();
            c.dedup();
        }

        Graph {
            defs,
            edges,
            callers,
        }
    }
}

/// File-derived module path: path components after `src/`, minus the file
/// name for `lib.rs`/`main.rs`/`mod.rs`, with the stem otherwise.
fn module_path(path: &str) -> Vec<String> {
    let parts: Vec<&str> = path.split('/').collect();
    let Some(src_at) = parts.iter().position(|p| *p == "src") else {
        // examples/: the file stem names the target.
        return match parts.last() {
            Some(f) => vec![f.trim_end_matches(".rs").to_string()],
            None => Vec::new(),
        };
    };
    let mut module: Vec<String> = parts[src_at + 1..parts.len().saturating_sub(1)]
        .iter()
        .map(|s| s.to_string())
        .collect();
    if let Some(f) = parts.last() {
        let stem = f.trim_end_matches(".rs");
        if stem != "lib" && stem != "main" && stem != "mod" {
            module.push(stem.to_string());
        }
    }
    module
}

struct Collect<'a> {
    file: usize,
    path: &'a str,
    crate_name: &'a str,
    defs: &'a mut Vec<FnDef>,
}

impl Collect<'_> {
    fn items(
        &mut self,
        items: Vec<Item>,
        module: &[String],
        impl_type: Option<&str>,
        trait_name: Option<&str>,
        in_test: bool,
    ) {
        for item in items {
            let item_test = in_test || attrs_mark_test(&item.attrs);
            match item.kind {
                ItemKind::Fn(f) => {
                    let body = f.body;
                    self.defs.push(FnDef {
                        file: self.file,
                        path: self.path.to_string(),
                        crate_name: self.crate_name.to_string(),
                        name: f.name,
                        impl_type: impl_type.map(str::to_string),
                        trait_name: trait_name.map(str::to_string),
                        module: module.to_vec(),
                        line: f.line,
                        attrs: item.attrs,
                        is_test: item_test,
                        is_method: impl_type.is_some(),
                        body_span: f.body_span,
                        body,
                    });
                    // Nested fns inside the body were already captured as
                    // Stmt::Item by the parser; hoist them too.
                    let idx = self.defs.len() - 1;
                    let nested = take_nested_items(self.defs[idx].body.as_mut());
                    if !nested.is_empty() {
                        self.items(nested, module, None, None, item_test);
                    }
                }
                ItemKind::Container {
                    kw,
                    name,
                    trait_name: tn,
                    items,
                } => match kw {
                    "mod" => {
                        let mut m = module.to_vec();
                        m.push(name);
                        self.items(items, &m, None, None, item_test);
                    }
                    "trait" => {
                        let t = name.clone();
                        self.items(items, module, Some(&t), Some(&t), item_test);
                    }
                    _ => {
                        // impl
                        self.items(items, module, Some(&name), tn.as_deref(), item_test);
                    }
                },
                ItemKind::Plain { .. } => {}
            }
        }
    }
}

/// Pull nested `Stmt::Item`s out of a body (they become defs of their
/// own); the statement list keeps everything else.
fn take_nested_items(body: Option<&mut Block>) -> Vec<Item> {
    let mut out = Vec::new();
    fn rec(b: &mut Block, out: &mut Vec<Item>) {
        for s in &mut b.stmts {
            match s {
                Stmt::Item(item)
                    if matches!(item.kind, ItemKind::Fn(_) | ItemKind::Container { .. }) =>
                {
                    let taken = std::mem::replace(
                        item,
                        Item {
                            kind: ItemKind::Plain { kw: "hoisted" },
                            attrs: Vec::new(),
                            span: (0, 0),
                            line: 0,
                        },
                    );
                    out.push(taken);
                }
                Stmt::Branch { arms, .. } => {
                    for a in arms {
                        rec(a, out);
                    }
                }
                Stmt::Loop { body, .. } => rec(body, out),
                Stmt::Unsafe { body, .. } => rec(body, out),
                _ => {}
            }
        }
    }
    if let Some(b) = body {
        rec(b, &mut out);
    }
    out
}

/// `#[test]`, `#[cfg(test)]` and cfg combinations naming `test`.
fn attrs_mark_test(attrs: &[String]) -> bool {
    attrs.iter().any(|a| {
        a == "test"
            || (a.starts_with("cfg(")
                && (a.contains("(test)") || a.contains("(test,") || a.contains(",test")))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn graph_of(files: &[(&str, &str, &str)]) -> Graph {
        Graph::build(
            files
                .iter()
                .map(|(p, c, src)| (p.to_string(), c.to_string(), parser::parse(&lex(src))))
                .collect(),
        )
    }

    fn def(g: &Graph, name: &str) -> usize {
        g.defs.iter().position(|d| d.name == name).unwrap()
    }

    fn callees(g: &Graph, name: &str) -> Vec<String> {
        g.edges[def(g, name)]
            .iter()
            .map(|e| g.defs[e.callee].name.clone())
            .collect()
    }

    #[test]
    fn ambient_list_is_sorted() {
        let mut sorted = AMBIENT_METHODS.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, AMBIENT_METHODS);
    }

    #[test]
    fn bare_and_qualified_calls_resolve() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "a",
            "
            fn top() { helper(); util::deep(); }
            fn helper() {}
            mod util { pub fn deep() { super::helper(); } }
            ",
        )]);
        assert_eq!(callees(&g, "top"), vec!["helper", "deep"]);
        assert_eq!(callees(&g, "deep"), vec!["helper"]);
        assert_eq!(g.callers[def(&g, "helper")].len(), 2);
    }

    #[test]
    fn cross_crate_qualified_calls_resolve() {
        let g = graph_of(&[
            (
                "crates/mpi/src/lib.rs",
                "mpi",
                "fn drive() { dlsr_trace::span_now(); }",
            ),
            ("crates/trace/src/lib.rs", "trace", "pub fn span_now() {}"),
        ]);
        assert_eq!(callees(&g, "drive"), vec!["span_now"]);
    }

    #[test]
    fn self_methods_prefer_same_impl() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "a",
            "
            struct A; struct B;
            impl A { fn run(&self) { self.step(); } fn step(&self) {} }
            impl B { fn step(&self) {} }
            ",
        )]);
        let run = def(&g, "run");
        let targets: Vec<&str> = g.edges[run]
            .iter()
            .map(|e| g.defs[e.callee].impl_type.as_deref().unwrap())
            .collect();
        assert_eq!(targets, vec!["A"]);
    }

    #[test]
    fn ambient_methods_produce_no_edges() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "a",
            "
            struct A;
            impl A { fn next(&self) {} }
            fn top(xs: &[u32]) { let _ = xs.iter().next(); }
            ",
        )]);
        assert!(callees(&g, "top").is_empty());
    }

    #[test]
    fn non_ambient_method_calls_resolve_by_name() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "a",
            "
            struct Opt;
            impl Opt { fn negotiate_plan(&self) {} }
            fn top(o: &Opt) { o.negotiate_plan(); }
            ",
        )]);
        assert_eq!(callees(&g, "top"), vec!["negotiate_plan"]);
    }

    #[test]
    fn cfg_test_marks_defs() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "a",
            "
            fn real() {}
            #[cfg(test)]
            mod tests { #[test] fn t() { super::real(); } }
            ",
        )]);
        assert!(!g.defs[def(&g, "real")].is_test);
        assert!(g.defs[def(&g, "t")].is_test);
    }

    #[test]
    fn nested_fns_are_hoisted_with_edges() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "a",
            "
            fn outer() { fn inner() { leaf(); } inner(); }
            fn leaf() {}
            ",
        )]);
        assert_eq!(callees(&g, "outer"), vec!["inner"]);
        assert_eq!(callees(&g, "inner"), vec!["leaf"]);
    }

    #[test]
    fn markers_are_detected() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "a",
            "#[cfg_attr(any(), dlsr::hot)]\nfn k() {}\n#[cfg_attr(any(), dlsr::wall)]\nfn w() {}",
        )]);
        assert!(g.defs[def(&g, "k")].has_marker("hot"));
        assert!(g.defs[def(&g, "w")].has_marker("wall"));
        assert!(!g.defs[def(&g, "k")].has_marker("wall"));
    }
}
