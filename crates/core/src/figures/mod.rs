//! `dlsr figures` — every committed virtual-clock file under `results/`,
//! regenerated (or checked) by one process.
//!
//! [`ROWS`] is the registry: one [`Row`] per harness, naming the files it
//! owns and the function that produces them. A row prints its terminal
//! figure to the writer it is handed and returns `(file name, bytes)`
//! pairs; [`produce`] runs rows, [`write()`] writes what they produced and
//! [`stale`] compares it with the committed copies instead. The paper's evaluation is a handful of runs
//! drawn several ways (Figs 10, 12 and 13 are one experiment, Fig 14 and
//! Table I one profile), so rows take their costs-only training runs from
//! one [`Sweeps`] cache and each distinct run happens once per process.
//!
//! Every number here is on the simulated clock and byte-identical on any
//! machine. Wall-clock numbers are the `benchmark/` package's.

mod ablation_allreduce_algos;
mod ablation_faults;
mod ablation_fusion_tuning;
mod ablation_overlap;
mod ablation_unpinned;
mod ablation_wire;
mod export_timeline;
mod extra_strong_scaling;
mod extra_text_config_scaling;
mod fig01_single_node;
mod fig09_batch_size;
mod fig10_default_scaling;
mod fig11_regcache;
mod fig12_optimized_scaling;
mod fig13_efficiency;
mod fig14_hvprof;
mod simscale;
mod table1_allreduce;

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::io::{self, Write};
use std::path::Path;
use std::rc::Rc;

use dlsr_cluster::{edsr_measured_workload, edsr_text_workload, run_training, Scenario, TrainRun};
use dlsr_gpu::WorkloadProfile;
use dlsr_horovod::TensorSpec;
use dlsr_net::ClusterTopology;
use dlsr_trace::report::StepReport;

/// What a row produces: `(file name under results/, bytes)` pairs.
pub type Outputs = Vec<(String, Vec<u8>)>;

/// A harness body: prints its terminal figure to the writer and returns
/// the files it owns.
pub type RowFn = fn(&Sweeps, &mut dyn Write) -> io::Result<Outputs>;

/// One harness of the registry.
pub struct Row {
    /// What `--only` takes.
    pub name: &'static str,
    /// The files under `results/` this row owns, in the order it returns
    /// them.
    pub outputs: &'static [&'static str],
    pub run: RowFn,
}

/// Every harness, in the order `dlsr figures` runs them.
pub const ROWS: &[Row] = &[
    Row {
        name: "fig01",
        outputs: &["fig01_results.json"],
        run: fig01_single_node::run,
    },
    Row {
        name: "fig09",
        outputs: &["fig09_results.json"],
        run: fig09_batch_size::run,
    },
    Row {
        name: "fig10",
        outputs: &["fig10_results.json"],
        run: fig10_default_scaling::run,
    },
    Row {
        name: "fig11",
        outputs: &["fig11_results.json"],
        run: fig11_regcache::run,
    },
    Row {
        name: "fig12",
        outputs: &["fig12_results.json"],
        run: fig12_optimized_scaling::run,
    },
    Row {
        name: "fig13",
        outputs: &["fig13_results.json"],
        run: fig13_efficiency::run,
    },
    Row {
        name: "fig14",
        outputs: &["fig14_results.json"],
        run: fig14_hvprof::run,
    },
    Row {
        name: "table1",
        outputs: &["table1_results.json"],
        run: table1_allreduce::run,
    },
    Row {
        name: "ablation_allreduce_algos",
        outputs: &["ablation_allreduce_algos.json"],
        run: ablation_allreduce_algos::run,
    },
    Row {
        name: "ablation_fusion_tuning",
        outputs: &["ablation_fusion_tuning.json"],
        run: ablation_fusion_tuning::run,
    },
    Row {
        name: "ablation_unpinned",
        outputs: &["ablation_unpinned.json"],
        run: ablation_unpinned::run,
    },
    Row {
        name: "ablation_overlap",
        outputs: &["BENCH_overlap.json"],
        run: ablation_overlap::run,
    },
    Row {
        name: "ablation_wire",
        outputs: &["BENCH_wire.json"],
        run: ablation_wire::run,
    },
    Row {
        name: "ablation_faults",
        outputs: &["BENCH_faults.json"],
        run: ablation_faults::run,
    },
    Row {
        name: "extra_strong_scaling",
        outputs: &["extra_strong_scaling.json"],
        run: extra_strong_scaling::run,
    },
    Row {
        name: "extra_text_config",
        outputs: &["extra_text_config.json"],
        run: extra_text_config_scaling::run,
    },
    Row {
        name: "export_timeline",
        outputs: &["timeline_mpi_4gpus.json", "timeline_mpi_opt_4gpus.json"],
        run: export_timeline::run,
    },
    Row {
        name: "simscale",
        outputs: &["BENCH_simscale.json"],
        run: simscale::run,
    },
];

/// Node counts of the paper's scaling sweeps: 1 → 128 Lassen nodes
/// (4 → 512 GPUs).
pub const NODES: [usize; 8] = [1, 2, 4, 8, 16, 32, 64, 128];
/// Per-GPU batch of the paper's sweeps (§IV-C).
pub const BATCH: usize = 4;
/// Warmup steps per scaling point.
pub const WARMUP: usize = 2;
/// Measured steps per scaling point.
pub const STEPS: usize = 6;
/// The fixed seed used by every figure harness (results are deterministic).
pub const SEED: u64 = 2021;

/// The two costs-only workloads the harnesses train.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// EDSR as the paper measured it (F=256; Table I's 16–64 MB bins).
    EdsrMeasured,
    /// EDSR as §IV-C's text states it (F=64, ~10 MB of gradients).
    EdsrText,
}

impl Workload {
    pub fn load(self) -> (WorkloadProfile, Vec<TensorSpec>) {
        match self {
            Workload::EdsrMeasured => edsr_measured_workload(),
            Workload::EdsrText => edsr_text_workload(),
        }
    }
}

/// `run_training`'s full argument tuple, nodes standing for the Lassen
/// topology of that size.
type SweepKey = (Workload, Scenario, usize, usize, usize, usize, u64);

/// The costs-only training runs of one `dlsr figures` process, each
/// distinct argument tuple run once. The only way a row reaches
/// `run_training`.
pub struct Sweeps {
    nodes: Vec<usize>,
    cache: RefCell<HashMap<SweepKey, Rc<TrainRun>>>,
    runs: Cell<usize>,
    hits: Cell<usize>,
}

impl Default for Sweeps {
    fn default() -> Self {
        Self::with_nodes(&NODES)
    }
}

impl Sweeps {
    /// A cache whose scaling sweeps cover `nodes` instead of the paper's
    /// [`NODES`]. For tests: the committed files are the default's.
    pub fn with_nodes(nodes: &[usize]) -> Self {
        Sweeps {
            nodes: nodes.to_vec(),
            cache: RefCell::default(),
            runs: Cell::new(0),
            hits: Cell::new(0),
        }
    }

    /// Node counts of the scaling sweeps.
    pub fn nodes(&self) -> &[usize] {
        &self.nodes
    }

    /// `run_training` calls made so far.
    pub fn runs(&self) -> usize {
        self.runs.get()
    }

    /// Requests answered from the cache so far.
    pub fn hits(&self) -> usize {
        self.hits.get()
    }

    /// `run_training` on `nodes` Lassen nodes, memoised.
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &self,
        workload: Workload,
        scenario: Scenario,
        nodes: usize,
        batch: usize,
        warmup: usize,
        steps: usize,
        seed: u64,
    ) -> Rc<TrainRun> {
        let key = (workload, scenario, nodes, batch, warmup, steps, seed);
        if let Some(run) = self.cache.borrow().get(&key) {
            self.hits.set(self.hits.get() + 1);
            return Rc::clone(run);
        }
        let (w, tensors) = workload.load();
        let topo = ClusterTopology::lassen(nodes);
        self.runs.set(self.runs.get() + 1);
        let run = Rc::new(run_training(
            &topo, scenario, &w, &tensors, batch, warmup, steps, seed,
        ));
        self.cache.borrow_mut().insert(key, Rc::clone(&run));
        run
    }

    /// One point of the paper's scaling sweeps: [`Sweeps::run`] at the
    /// paper's batch, window and seed.
    pub fn point(&self, workload: Workload, scenario: Scenario, nodes: usize) -> Rc<TrainRun> {
        self.run(workload, scenario, nodes, BATCH, WARMUP, STEPS, SEED)
    }

    /// One column of Figs 10–13: the measured EDSR across [`Sweeps::nodes`].
    pub fn sweep(&self, scenario: Scenario) -> Vec<Rc<TrainRun>> {
        let point = |&n| self.point(Workload::EdsrMeasured, scenario, n);
        self.nodes.iter().map(point).collect()
    }

    /// One measured-EDSR run with the cross-layer trace collector on, and
    /// the step-time breakdown built from its spans and counters. Never
    /// cached: a traced run carries its spans, an untraced one must not.
    pub fn traced(
        &self,
        nodes: usize,
        scenario: Scenario,
        batch: usize,
        warmup: usize,
        steps: usize,
        seed: u64,
    ) -> (TrainRun, StepReport) {
        let (w, tensors) = Workload::EdsrMeasured.load();
        let topo = ClusterTopology::lassen(nodes);
        self.runs.set(self.runs.get() + 1);
        let (run, counters) = dlsr_cluster::analysis::traced(|| {
            run_training(&topo, scenario, &w, &tensors, batch, warmup, steps, seed)
        });
        let mut report = StepReport::build(&run.trace, &counters).with_context(
            scenario.label(),
            run.gpus,
            steps,
            run.step_time,
        );
        report.set_regcache(
            run.regcache.hits,
            run.regcache.misses,
            run.regcache.evictions,
        );
        report.attach_critical_path(dlsr_trace::analyze::critical_path(&run.trace, steps));
        (run, report)
    }
}

/// Render a simple ASCII bar for terminal figures.
fn bar(value: f64, max: f64, width: usize) -> String {
    let n = if max > 0.0 {
        ((value / max) * width as f64).round() as usize
    } else {
        0
    };
    "█".repeat(n.min(width))
}

/// A JSON results file, so EXPERIMENTS.md numbers are machine-checkable.
fn json(name: &str, value: &serde_json::Value) -> (String, Vec<u8>) {
    let text = serde_json::to_string_pretty(value).expect("serialize");
    (name.to_string(), text.into_bytes())
}

/// Run `rows` in table order and return every file they produce,
/// reporting what each row cost the cache.
pub fn produce(rows: &[&Row], sweeps: &Sweeps, out: &mut dyn Write) -> io::Result<Outputs> {
    let mut produced = Vec::new();
    for row in rows {
        let (runs, hits) = (sweeps.runs(), sweeps.hits());
        let files = (row.run)(sweeps, out)?;
        assert!(
            files
                .iter()
                .map(|(name, _)| name.as_str())
                .eq(row.outputs.iter().copied()),
            "row `{}` must produce exactly the files it declares",
            row.name
        );
        produced.extend(files);
        let (runs, hits) = (sweeps.runs() - runs, sweeps.hits() - hits);
        if runs + hits > 0 {
            writeln!(
                out,
                "[{}: {runs} training runs, {hits} from cache]",
                row.name
            )?;
        }
        writeln!(out)?;
    }
    writeln!(
        out,
        "[sweeps: {} training runs, {} requests served from cache]",
        sweeps.runs(),
        sweeps.hits()
    )?;
    Ok(produced)
}

/// Write produced files into `dir` (what `dlsr figures` does with them).
pub fn write(files: &Outputs, dir: &Path) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    files
        .iter()
        .try_for_each(|(name, bytes)| std::fs::write(dir.join(name), bytes))
}

/// Compare produced files with their copies in `dir` (what `--check` does
/// with them): one `(file name, why)` per file that is missing or differs,
/// with its first differing line. Empty means `dir` holds exactly what the
/// code writes.
pub fn stale(files: &Outputs, dir: &Path) -> io::Result<Vec<(String, String)>> {
    let mut stale = Vec::new();
    for (name, bytes) in files {
        let why = match std::fs::read(dir.join(name)) {
            Ok(committed) if committed == *bytes => continue,
            Ok(committed) => first_difference(&committed, bytes),
            Err(e) if e.kind() == io::ErrorKind::NotFound => "missing".to_string(),
            Err(e) => return Err(e),
        };
        stale.push((name.clone(), why));
    }
    Ok(stale)
}

/// Where two files part ways, as `line N: committed … vs produced …`.
fn first_difference(committed: &[u8], produced: &[u8]) -> String {
    let (want, got) = (
        String::from_utf8_lossy(committed),
        String::from_utf8_lossy(produced),
    );
    let show = |line: Option<&str>| match line {
        Some(l) => format!("`{}`", l.chars().take(100).collect::<String>()),
        None => "end of file".to_string(),
    };
    let (mut want, mut got) = (want.lines(), got.lines());
    let mut n = 1;
    loop {
        match (want.next(), got.next()) {
            (None, None) => return "differs only in line endings".to_string(),
            (a, b) if a == b => n += 1,
            (a, b) => return format!("line {n}: committed {} vs produced {}", show(a), show(b)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_scales() {
        assert_eq!(bar(5.0, 10.0, 10).chars().count(), 5);
        assert_eq!(bar(10.0, 10.0, 10).chars().count(), 10);
        assert_eq!(bar(0.0, 10.0, 10), "");
        assert_eq!(bar(1.0, 0.0, 10), "");
    }

    #[test]
    fn first_difference_names_the_line() {
        assert_eq!(
            first_difference(b"a\nb\nc", b"a\nx\nc"),
            "line 2: committed `b` vs produced `x`"
        );
        assert_eq!(
            first_difference(b"a\nb", b"a"),
            "line 2: committed `b` vs produced end of file"
        );
        assert_eq!(
            first_difference(b"a\n", b"a"),
            "differs only in line endings"
        );
    }
}
