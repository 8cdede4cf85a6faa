//! `dlsr-lint` — the workspace static analyzer.
//!
//! A two-stage pipeline, zero dependencies, fully deterministic:
//!
//! 1. **Per file**: lex ([`lexer`]), collect waivers, run the file-local
//!    lexical rules ([`rules`]), and parse an item/expression-level AST
//!    ([`parser`]).
//! 2. **Workspace-wide**: build the call graph ([`callgraph`]) and run the
//!    interprocedural dataflow rules ([`flow`]): transitive `wall-clock`,
//!    transitive `hot-alloc`, `determinism-taint`, and static
//!    `collective-order` protocol checking.
//!
//! The scan set is every `crates/*/{src,examples}` tree plus the
//! workspace-root `examples/` (which `crates/core/Cargo.toml` declares as
//! its own targets). Findings flow through one waiver table, so a waiver
//! that suppresses nothing is itself reported (stale-waiver detection).
//!
//! Run as `dlsr lint` (the crate has no binary); `--json` / `--sarif`
//! emit machine-readable reports ([`report`]); `--self-test` checks the
//! true-positive fixtures under `crates/lint/fixtures/`. Exit codes:
//! 0 clean, 1 findings, 2 analyzer failure.

#![forbid(unsafe_code)]

pub mod callgraph;
pub mod flow;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use flow::Protocol;
pub use rules::Finding;

/// One source file queued for analysis.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Repo-relative path with `/` separators.
    pub path: String,
    /// Crate the file belongs to (`mpi`, `tensor`, ...).
    pub crate_name: String,
    pub text: String,
}

/// Corpus-size counters, for the report header.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stats {
    pub files: usize,
    pub fns: usize,
    pub edges: usize,
}

/// The full result of one analyzer run.
#[derive(Debug, Default)]
pub struct Analysis {
    /// All findings, sorted by `(path, line, rule)` and deduplicated.
    pub findings: Vec<Finding>,
    /// Collective protocol skeletons of the rank-program roots.
    pub protocols: Vec<Protocol>,
    pub stats: Stats,
}

/// Run the whole pipeline over an in-memory corpus. This is the one entry
/// point both the workspace scan and the fixture self-test go through, so
/// fixtures exercise exactly the production path.
pub fn analyze_files(files: &[SourceFile]) -> Analysis {
    let lexed: Vec<lexer::Lexed> = files.iter().map(|f| lexer::lex(&f.text)).collect();
    let token_lines: Vec<Vec<usize>> = lexed.iter().map(lexer::Lexed::token_lines).collect();

    let mut findings = Vec::new();
    let mut per_file = Vec::with_capacity(files.len());
    for (i, f) in files.iter().enumerate() {
        let (waivers, mut bad) = rules::collect_waivers(&f.path, &lexed[i], &token_lines[i]);
        findings.append(&mut bad);
        per_file.push(rules::FileWaivers {
            path: f.path.clone(),
            waivers,
        });
    }
    let mut table = rules::WaiverTable::new(per_file);

    for (i, f) in files.iter().enumerate() {
        let mut waived = |rule: &str, line: usize| table.check(i, rule, line);
        rules::local_rules(
            &f.path,
            &f.crate_name,
            &lexed[i],
            &token_lines[i],
            &mut waived,
            &mut findings,
        );
    }

    let graph = callgraph::Graph::build(
        files
            .iter()
            .zip(&lexed)
            .map(|(f, lx)| (f.path.clone(), f.crate_name.clone(), parser::parse(lx)))
            .collect(),
    );
    let stats = Stats {
        files: files.len(),
        fns: graph.defs.len(),
        edges: graph.edges.iter().map(Vec::len).sum(),
    };

    let protocols = flow::run_flow_rules(&graph, &lexed, &mut table, &mut findings);
    findings.extend(table.stale_findings());

    findings
        .sort_by(|a, b| (&a.path, a.line, a.rule, &a.msg).cmp(&(&b.path, b.line, b.rule, &b.msg)));
    // Nested fns are scanned both as their own def and as part of the
    // enclosing body span; keep one finding per site.
    findings.dedup_by(|a, b| a.path == b.path && a.line == b.line && a.rule == b.rule);

    Analysis {
        findings,
        protocols,
        stats,
    }
}

/// Recursively collect `.rs` files under `dir`, sorted for deterministic
/// output.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            rs_files(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Collect the workspace scan set under `root`: every
/// `crates/*/{src,examples}` tree, plus the workspace-root
/// `examples/` attributed to crate `core` (whose Cargo.toml declares those
/// files as example/test targets).
pub fn collect_workspace(root: &Path) -> io::Result<Vec<SourceFile>> {
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();

    let mut out = Vec::new();
    for crate_dir in crate_dirs {
        let crate_name = crate_dir
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("")
            .to_string();
        for sub in ["src", "examples"] {
            let dir = crate_dir.join(sub);
            if !dir.is_dir() {
                continue;
            }
            let mut files = Vec::new();
            rs_files(&dir, &mut files)?;
            for file in files {
                out.push(SourceFile {
                    path: rel_path(root, &file),
                    crate_name: crate_name.clone(),
                    text: fs::read_to_string(&file)?,
                });
            }
        }
    }
    let root_examples = root.join("examples");
    if root_examples.is_dir() {
        let mut files = Vec::new();
        rs_files(&root_examples, &mut files)?;
        for file in files {
            out.push(SourceFile {
                path: rel_path(root, &file),
                crate_name: String::from("core"),
                text: fs::read_to_string(&file)?,
            });
        }
    }
    Ok(out)
}

/// Scan the whole workspace under `root`.
pub fn scan_workspace(root: &Path) -> io::Result<Analysis> {
    Ok(analyze_files(&collect_workspace(root)?))
}

/// Repo-relative path with `/` separators (for stable report output and
/// path-prefix matching on every platform).
fn rel_path(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Outcome of checking one fixture.
#[derive(Debug)]
pub struct FixtureResult {
    pub file: String,
    pub expected: String,
    pub findings: Vec<Finding>,
    pub ok: bool,
    pub detail: String,
}

/// Run the true-positive self-test over `crates/lint/fixtures/*.rs`.
///
/// Each fixture declares, in `//~` directives, the crate it pretends to
/// live in and the single rule it must trip:
///
/// ```text
/// //~ crate: mpi
/// //~ expect: hash-collections
/// ```
///
/// `//~ expect: none` asserts a clean scan. A fixture passes when it
/// produces at least one finding, all of the expected rule (or zero
/// findings for `none`). Fixtures run through [`analyze_files`] one at a
/// time, so the interprocedural rules see each fixture as a tiny
/// self-contained workspace.
pub fn self_test(root: &Path) -> io::Result<Vec<FixtureResult>> {
    let fixtures_dir = root.join("crates/lint/fixtures");
    let mut files = Vec::new();
    rs_files(&fixtures_dir, &mut files)?;
    let mut results = Vec::new();
    for file in files {
        let text = fs::read_to_string(&file)?;
        let name = file
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("fixture.rs")
            .to_string();
        let mut crate_name = String::from("fixturecrate");
        let mut expected = String::new();
        for line in text.lines() {
            if let Some(v) = line.strip_prefix("//~ crate:") {
                crate_name = v.trim().to_string();
            } else if let Some(v) = line.strip_prefix("//~ expect:") {
                expected = v.trim().to_string();
            }
        }
        if expected.is_empty() {
            results.push(FixtureResult {
                file: name.clone(),
                expected,
                findings: Vec::new(),
                ok: false,
                detail: String::from("fixture is missing an `//~ expect:` directive"),
            });
            continue;
        }
        // Analyze under a pseudo-path inside the declared crate so
        // path-scoped rules behave exactly as they would in the real tree.
        let pseudo = format!("crates/{crate_name}/src/{name}");
        let analysis = analyze_files(&[SourceFile {
            path: pseudo,
            crate_name,
            text,
        }]);
        let findings = analysis.findings;
        let (ok, detail) = if expected == "none" {
            if findings.is_empty() {
                (true, String::from("clean, as expected"))
            } else {
                (
                    false,
                    format!("expected clean, got {} findings", findings.len()),
                )
            }
        } else if findings.is_empty() {
            (false, format!("expected `{expected}` to trip, got nothing"))
        } else if findings.iter().all(|f| f.rule == expected) {
            (true, format!("tripped {} × `{expected}`", findings.len()))
        } else {
            let stray: Vec<&str> = findings
                .iter()
                .map(|f| f.rule)
                .filter(|r| *r != expected)
                .collect();
            (false, format!("unexpected rules fired: {stray:?}"))
        };
        results.push(FixtureResult {
            file: name,
            expected,
            findings,
            ok,
            detail,
        });
    }
    Ok(results)
}

/// Locate the workspace root: walk up from `start` to the first directory
/// containing both `Cargo.toml` and `crates/`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        if d.join("Cargo.toml").is_file() && d.join("crates").is_dir() {
            return Some(d);
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root() -> PathBuf {
        find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root")
    }

    /// Every seeded fixture must trip exactly its rule (true-positive
    /// self-test), and the clean fixture must stay clean.
    #[test]
    fn fixtures_trip_their_rules() {
        let results = self_test(&root()).expect("fixtures readable");
        assert!(
            results.len() >= 12,
            "expected at least one fixture per rule plus transitive and \
             clean variants, got {}",
            results.len()
        );
        for r in &results {
            assert!(r.ok, "{}: {}", r.file, r.detail);
        }
        for rule in rules::ALL_RULES {
            assert!(
                results.iter().any(|r| r.expected == rule),
                "no fixture covers rule `{rule}`"
            );
        }
        // stale-waiver detection has its own fixture too
        assert!(
            results.iter().any(|r| r.expected == rules::RULE_WAIVER),
            "no fixture covers stale-waiver detection"
        );
    }

    /// The workspace itself must pass every rule. This is the tier-1
    /// enforcement point: a wall-clock leak, a hot-path allocation, a
    /// nondeterminism source reachable from rank code, or a rank-divergent
    /// collective sequence anywhere in the scan set fails `cargo test`.
    #[test]
    fn workspace_is_clean() {
        let analysis = scan_workspace(&root()).expect("workspace readable");
        let report: Vec<String> = analysis.findings.iter().map(|f| f.to_string()).collect();
        assert!(
            analysis.findings.is_empty(),
            "workspace lint violations:\n{}",
            report.join("\n")
        );
    }

    /// The widened scan set actually contains the `dlsr figures` harnesses,
    /// the `src/bin` targets and the root examples, and the call graph is
    /// non-trivial.
    #[test]
    fn scan_set_is_widened() {
        let files = collect_workspace(&root()).expect("workspace readable");
        let has = |prefix: &str| files.iter().any(|f| f.path.starts_with(prefix));
        assert!(
            has("crates/core/src/figures/ablation_wire.rs"),
            "figure harnesses missing from scan set"
        );
        assert!(
            has("crates/tensor/src/bin/tune_gemm.rs"),
            "the wall-domain tuner binary is missing from scan set"
        );
        assert!(has("examples/"), "root examples missing");
        assert!(
            files
                .iter()
                .filter(|f| f.path.starts_with("examples/"))
                .all(|f| f.crate_name == "core"),
            "root examples must be attributed to crate core"
        );
        let analysis = analyze_files(&files);
        assert!(analysis.stats.fns > 500, "stats: {:?}", analysis.stats);
        assert!(analysis.stats.edges > 500, "stats: {:?}", analysis.stats);
    }

    /// Rank-program protocol skeletons are extracted from the real tree:
    /// the driven executor's collective programs must surface at least one
    /// protocol, and report rendering must be deterministic.
    #[test]
    fn workspace_protocols_are_extracted() {
        let a1 = scan_workspace(&root()).expect("workspace readable");
        let a2 = scan_workspace(&root()).expect("workspace readable");
        let render = |a: &Analysis| {
            a.protocols
                .iter()
                .map(|p| format!("{}:{} {} {}", p.path, p.line, p.root, p.skeleton))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            render(&a1),
            render(&a2),
            "protocol extraction must be stable"
        );
    }
}
