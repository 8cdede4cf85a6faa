//! The `dlsr` command-line interface.
//!
//! ```text
//! dlsr train    [--nodes N] [--gpus G] [--steps S] [--batch B] [--scenario NAME]
//!               [--augment] [--warmup W] [--eval-every E] [--digest] [--sequential]
//!               [--allreduce ALGO] [--wire FMT] [--hier] [--tune-comm]
//! dlsr simulate [--nodes N] [--steps S] [--batch B] [--scenario NAME]
//! dlsr figures  [--only NAME] [--check]
//! dlsr profile  [--nodes N] [--steps S] [--scenario NAME] [--sequential] [--check]
//! dlsr analyze  [--nodes N] [--steps S] [--baseline FILE] [--gate PCT]
//! dlsr chaos    [--fault NAME] [--nodes N] [--gpus G] [--steps S] [--seed X]
//! dlsr lint     [--json | --sarif] [--root DIR] [--self-test]
//! dlsr info
//! ```

#![forbid(unsafe_code)]
use std::collections::HashMap;

use dlsr::horovod::tuner;
use dlsr::prelude::*;
use dlsr::tensor::{resize, tune};

/// `--name value` / `--boolean` pairs of one invocation.
type Flags = HashMap<String, String>;

fn parse_flags(args: &[String]) -> (Flags, Vec<String>) {
    let mut flags = HashMap::new();
    let mut positional = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(name) = a.strip_prefix("--") {
            // boolean flags take no value; valued flags consume the next arg
            let boolean = matches!(
                name,
                "augment"
                    | "help"
                    | "check"
                    | "sequential"
                    | "digest"
                    | "no-validate"
                    | "no-sim-check"
                    | "json"
                    | "sarif"
                    | "self-test"
                    | "hier"
                    | "tune-comm"
            );
            if boolean {
                flags.insert(name.to_string(), "true".to_string());
            } else {
                let v = args
                    .get(i + 1)
                    .unwrap_or_else(|| die(&format!("--{name} needs a value")));
                flags.insert(name.to_string(), v.clone());
                i += 1;
            }
        } else {
            positional.push(a.clone());
        }
        i += 1;
    }
    (flags, positional)
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("run `dlsr help` for usage");
    std::process::exit(2);
}

fn get<T: std::str::FromStr>(flags: &Flags, name: &str, default: T) -> T {
    match flags.get(name) {
        None => default,
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| die(&format!("bad value for --{name}: {v}"))),
    }
}

/// Apply the wire-efficiency knobs to an MPI configuration:
/// `--allreduce` pins the default algorithm, `--wire` selects a gradient
/// wire format *and* drops the size floor to zero so every bin uses it,
/// `--hier` promotes large inter-node reductions to the two-level
/// hierarchical path. Parse errors surface the enums' own messages (the
/// same labels `FromStr` documents and the reports print).
fn with_comm(cfg: MpiConfig, flags: &Flags) -> MpiConfig {
    let mut b = cfg.to_builder();
    if let Some(v) = flags.get("allreduce") {
        let algo: AllreduceAlgorithm = v.parse().unwrap_or_else(|e: String| die(&e));
        b = b.allreduce(algo);
    }
    if let Some(v) = flags.get("wire") {
        let wf: WireFormat = v.parse().unwrap_or_else(|e: String| die(&e));
        b = b.wire(wf).wire_threshold(0);
    }
    if flags.contains_key("hier") {
        b = b.hierarchical(true);
    }
    b.build()
}

fn scenario(flags: &Flags) -> Scenario {
    // `Scenario`'s FromStr parses the same case-insensitive labels the
    // reports print, so every subcommand accepts the same names. Keep the
    // historical lowercase short form `mpi` for the default scenario.
    let s = flags
        .get("scenario")
        .map(String::as_str)
        .unwrap_or("mpi-opt");
    s.parse().unwrap_or_else(|e: String| die(&e))
}

/// A subcommand: its name, the flags it reads (space-separated), its body.
type Command = (&'static str, &'static str, fn(&Flags));

/// Every subcommand. `main` rejects a flag the chosen one does not list, so
/// a typo (`figures --ony fig12`, `train --step 4`) is an error instead of
/// a silently ignored key. Keep each list in step with the usage text
/// below.
const COMMANDS: &[Command] = &[
    (
        "train",
        "nodes gpus steps batch scenario augment warmup eval-every digest sequential \
         allreduce wire hier tune-comm",
        cmd_train,
    ),
    ("simulate", "nodes steps batch scenario", cmd_simulate),
    ("figures", "only check", cmd_figures),
    (
        "profile",
        "nodes steps scenario sequential check checkpoint-every trace-sample \
         allreduce wire hier tune-comm",
        cmd_profile,
    ),
    (
        "analyze",
        "nodes steps scenario check checkpoint-every no-validate no-sim-check slowdown \
         out baseline gate",
        cmd_analyze,
    ),
    ("verify", "nodes gpus steps scenario", cmd_verify),
    (
        "chaos",
        "fault nodes gpus steps seed scenario checkpoint-every",
        cmd_chaos,
    ),
    ("lint", "json sarif root self-test", cmd_lint),
    ("info", "", |_| cmd_info()),
    ("help", "", |_| usage()),
];

fn usage() {
    println!(
        "dlsr — distributed super-resolution training on a simulated HPC cluster

USAGE:
  dlsr train    [--nodes N] [--gpus G] [--steps S] [--batch B] [--scenario NAME]
                [--augment] [--warmup W] [--eval-every E] [--digest]
                [--sequential]
                [--allreduce ALGO] [--wire FMT] [--hier] [--tune-comm]
                real EDSR training (tiny model, real math) on a simulated
                cluster. --digest prints an FNV-1a digest of the exact loss
                and parameter bits — two builds that print the same digest
                ran bitwise-identical training.
                --sequential disables backward/allreduce overlap.
                --allreduce pins the default algorithm (ring | rd |
                two-level | pipelined-ring); --wire selects a gradient wire
                format (f32 | bf16 | fp16 | topk[:permille]) for every size
                bin; --hier promotes large inter-node reductions to the
                two-level hierarchical path; --tune-comm turns on the
                online comm tuner (see docs/WIRE.md)
  dlsr simulate [--nodes N] [--steps S] [--batch B] [--scenario NAME]
                at-scale costs-only run of the paper-scale EDSR workload
  dlsr figures  [--only NAME] [--check]
                regenerate every committed virtual-clock file under
                results/ — the paper's figures and tables, the ablations and
                extras, the two timelines and the 64-4096 rank simulator
                sweep — in one process that runs each distinct training
                sweep once (run from the repo root; README §Reproducing the
                paper maps names to figures and files). Every number is on
                the simulated clock, so the files are identical on every
                machine. --only runs one harness. --check writes nothing:
                it compares what the code produces with the committed files
                and exits 1 naming each file that is missing or differs,
                with its first differing line (the CI step). An unknown NAME
                lists the harnesses
  dlsr profile  [--nodes N] [--steps S] [--scenario NAME] [--sequential] [--check]
                [--checkpoint-every K] [--trace-sample N]
                [--allreduce ALGO] [--wire FMT] [--hier] [--tune-comm]
                cross-layer trace of a real EDSR training run: chrome-trace
                + step-report JSON under results/, breakdown table on stdout.
                Default mode overlaps backward with allreduce (see the
                Overlap column); --sequential runs the classic
                backward-then-allreduce path for comparison. --check
                validates that every instrumented layer (including the
                checkpoint/fault layer) emitted spans and, in overlap mode,
                that allreduce launches interleave with backward in the
                wall-clock timeline; exits non-zero otherwise.
                --trace-sample caps the chrome export at the first N spans
                per (rank, category) to keep the artifact reviewable
                (default 24, at least one full step of every layer;
                0 exports everything)
  dlsr analyze  [--nodes N] [--steps S] [--scenario NAME] [--check]
                [--checkpoint-every K] [--no-validate] [--slowdown F]
                [--out FILE] [--baseline FILE] [--gate PCT]
                cross-rank critical-path attribution and scaling projection
                (see docs/OBSERVABILITY.md): walks the happens-before DAG of
                a traced run to attribute every critical-path microsecond to
                compute / exposed comm / straggler wait / fault / checkpoint,
                fits a cost model at 2 ranks, validates it against 4- and
                8-rank runs, projects efficiency at 64-512 ranks, and writes
                results/BENCH_analysis.json (virtual-clock only, so the file
                is identical on every machine). --baseline compares against a
                committed analysis and exits non-zero on any regression
                beyond --gate percent (default 10). --check verifies the
                attribution sums to the measured step time within 1% and
                agrees with the step report's exposed-comm accounting.
                --slowdown F stretches the measured trace by F (gate
                liveness testing). Unless --no-sim-check, the projection is
                also cross-validated against full event-driven simulations
                at 64-512 ranks and the agreement recorded in the report
                (gated against the baseline in efficiency points)
  dlsr verify   [--nodes N] [--gpus G] [--steps S] [--scenario NAME]
                run real training, then the costs-only world of the same
                topology, under the collective-matching verifier: every
                collective's per-rank signature is compared with the other
                ranks' on arrival and fusion launch order is audited against
                the analytic schedule. Prints the violation and exits 1 on
                a mismatch. Every world runs under the verifier; this
                command drives it end to end
  dlsr chaos    [--fault NAME] [--nodes N] [--gpus G] [--steps S] [--seed X]
                [--scenario NAME] [--checkpoint-every K]
                run the injected-fault suite (see docs/ROBUSTNESS.md): each
                fault class against a clean baseline, reporting retries,
                backoff, degraded time, checkpoint/restore cost and the
                timeline overhead — and verifying the training math stayed
                bitwise identical.
                Faults: degraded-link | lossy | straggler | rank-failure
                (default: all four)
  dlsr lint     [--json | --sarif] [--root DIR] [--self-test]
                static determinism & hot-path analysis of the workspace
                sources: parses every file, builds the cross-crate call
                graph, and checks wall-clock reads, hot-path allocation,
                determinism taint and collective-protocol divergence
                (see docs/CORRECTNESS.md). Exit 1 = findings, 2 = the
                analyzer itself failed. --self-test runs the seeded
                fixtures instead of the workspace
  dlsr info     calibration anchors and workload facts
  dlsr help     this text

Scenarios: mpi (broken default) | mpi-reg | mpi-opt (the paper's fix) | nccl"
    );
}

fn cmd_train(flags: &Flags) {
    let nodes: usize = get(flags, "nodes", 1);
    let gpus: usize = get(flags, "gpus", 4);
    let topo = ClusterTopology {
        name: format!("cli-{nodes}x{gpus}"),
        nodes,
        gpus_per_node: gpus,
    };
    let world = topo.total_gpus();
    let cfg = RealTrainConfig::builder()
        .steps(get(flags, "steps", 30))
        .global_batch(get(flags, "batch", world.max(4)))
        .augment(flags.contains_key("augment"))
        .warmup_steps(get(flags, "warmup", 0))
        .overlap(!flags.contains_key("sequential"))
        .tune_comm(flags.contains_key("tune-comm"))
        .eval_every(
            flags
                .get("eval-every")
                .map(|v| v.parse().unwrap_or_else(|_| die("bad --eval-every"))),
        )
        .build();
    let sc = scenario(flags);
    println!(
        "training EDSR(tiny) on {world} simulated GPUs ({}) for {} steps...",
        sc.label(),
        cfg.steps
    );
    let res = train_real(&topo, with_comm(sc.mpi_config(), flags), &cfg);
    println!(
        "loss: {:.4} -> {:.4}",
        res.losses.first().unwrap(),
        res.losses.last().unwrap()
    );
    for (step, p) in &res.psnr_curve {
        println!("  step {step:>4}: held-out PSNR {p:.2} dB");
    }
    println!(
        "held-out PSNR: EDSR {:.2} dB vs bicubic {:.2} dB",
        res.model_psnr, res.bicubic_psnr
    );
    println!("virtual makespan: {:.1} ms", res.makespan * 1e3);
    if flags.contains_key("digest") {
        println!("digest: {:016x}", train_digest(&res));
    }
}

/// FNV-1a over the exact bit patterns of the per-step losses and final
/// parameters: any single-ULP drift in the training math changes it.
fn train_digest(res: &RealTrainResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bits: u32| {
        for b in bits.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for l in &res.losses {
        eat(l.to_bits());
    }
    for p in &res.final_params {
        eat(p.to_bits());
    }
    h
}

fn cmd_simulate(flags: &Flags) {
    let nodes: usize = get(flags, "nodes", 8);
    let steps: usize = get(flags, "steps", 6);
    let batch: usize = get(flags, "batch", 4);
    let sc = scenario(flags);
    let (w, tensors) = edsr_measured_workload();
    let topo = ClusterTopology::lassen(nodes);
    println!(
        "simulating {} steps of {} on {} GPUs under {}...",
        steps,
        w.name,
        topo.total_gpus(),
        sc.label()
    );
    let run = run_training(&topo, sc, &w, &tensors, batch, 2, steps, 2021);
    println!("throughput : {:>10.1} img/s", run.images_per_sec);
    println!("efficiency : {:>9.1} %", run.efficiency * 100.0);
    println!("step time  : {:>9.1} ms", run.step_time * 1e3);
    if run.regcache_hit_rate > 0.0 {
        println!("reg cache  : {:>9.1} % hits", run.regcache_hit_rate * 100.0);
    }
    print!("{}", run.profile.render(Collective::Allreduce));
}

/// `dlsr figures`: regenerate (or, with `--check`, verify) the committed
/// virtual-clock files under `results/`.
fn cmd_figures(flags: &Flags) {
    use dlsr::figures::{self, Row, Sweeps};

    let rows: Vec<&Row> = match flags.get("only") {
        None => figures::ROWS.iter().collect(),
        Some(name) => match figures::ROWS.iter().find(|r| r.name == name) {
            Some(row) => vec![row],
            None => {
                let names: Vec<&str> = figures::ROWS.iter().map(|r| r.name).collect();
                die(&format!(
                    "unknown harness `{name}` for --only; known: {}",
                    names.join(" ")
                ))
            }
        },
    };
    let dir = std::path::Path::new("results");
    let failed = |e: std::io::Error| -> ! { die(&format!("figures: {e}")) };
    let files = figures::produce(&rows, &Sweeps::default(), &mut std::io::stdout().lock())
        .unwrap_or_else(|e| failed(e));
    if !flags.contains_key("check") {
        figures::write(&files, dir).unwrap_or_else(|e| failed(e));
        return println!("[{} files written under results/]", files.len());
    }
    let stale = figures::stale(&files, dir).unwrap_or_else(|e| failed(e));
    if stale.is_empty() {
        return println!("[results/ holds what the code writes]");
    }
    for (file, why) in &stale {
        eprintln!("check FAILED: results/{file}: {why}");
    }
    eprintln!("regenerate with `dlsr figures` and commit the result");
    std::process::exit(1);
}

fn cmd_profile(flags: &Flags) {
    let nodes: usize = get(flags, "nodes", 2);
    let steps: usize = get(flags, "steps", 4);
    let sc = scenario(flags);
    let topo = ClusterTopology::lassen(nodes);
    let world = topo.total_gpus();
    let overlap = !flags.contains_key("sequential");
    // Checkpoint by default so the profile exercises the fault/checkpoint
    // layer too — `--check` requires its spans like any other layer.
    let cfg = RealTrainConfig::builder()
        .steps(steps)
        .global_batch(world)
        .overlap(overlap)
        .tune_comm(flags.contains_key("tune-comm"))
        .checkpoint_every(get(flags, "checkpoint-every", 2))
        .build();
    println!(
        "tracing {steps} real EDSR(tiny) training steps on {world} simulated GPUs ({}, {})...",
        sc.label(),
        if overlap { "overlapped" } else { "sequential" }
    );
    let (res, counters) = dlsr::cluster::analysis::traced(|| {
        train_real(&topo, with_comm(sc.mpi_config(), flags), &cfg)
    });
    let mut report = dlsr::trace::report::StepReport::build(&res.trace, &counters).with_context(
        sc.label(),
        world,
        steps,
        res.makespan / steps as f64,
    );
    report.set_regcache(
        res.regcache.hits,
        res.regcache.misses,
        res.regcache.evictions,
    );
    report.attach_critical_path(dlsr::trace::analyze::critical_path(&res.trace, steps));
    std::fs::create_dir_all("results").expect("create results/");
    let sampled = sample_trace(&res.trace, get(flags, "trace-sample", 24));
    let chrome = dlsr::trace::to_timeline(&sampled).to_chrome_trace();
    std::fs::write("results/profile_trace.json", &chrome).expect("write chrome trace");
    std::fs::write("results/profile_report.json", report.to_json()).expect("write step report");
    print!("{}", report.render());
    println!("\nchrome trace : results/profile_trace.json (chrome://tracing or Perfetto)");
    println!("step report  : results/profile_report.json");
    if flags.contains_key("check") {
        check_profile(&res.trace, &report);
        check_overlap_markers(&res.trace, report.world, overlap);
    }
}

/// Keep only the first `n` spans of every `(rank, category)` pair, in
/// recording order — a representative, reviewable chrome export instead of
/// a megabyte-per-step dump. `n == 0` keeps everything. Checks always run
/// on the full in-memory trace; sampling affects only the exported file.
fn sample_trace(events: &[dlsr::trace::TraceEvent], n: usize) -> Vec<dlsr::trace::TraceEvent> {
    if n == 0 {
        return events.to_vec();
    }
    let mut seen: HashMap<(usize, &str), usize> = HashMap::new();
    events
        .iter()
        .filter(|e| {
            let k = seen.entry((e.rank, &*e.cat)).or_insert(0);
            *k += 1;
            *k <= n
        })
        .cloned()
        .collect()
}

/// `--check`, overlap part: in overlap mode every rank's wall-clock
/// timeline must show allreduce launches *interleaved* with backward —
/// some `nn.backward` span ends before a launch starts and another starts
/// after it ends. The sequential path must record no launch markers.
fn check_overlap_markers(events: &[dlsr::trace::TraceEvent], world: usize, overlap: bool) {
    use dlsr::trace::cat;
    let launches: Vec<_> = events.iter().filter(|e| e.cat == cat::AR_LAUNCH).collect();
    if !overlap {
        if !launches.is_empty() {
            eprintln!(
                "check FAILED: sequential run recorded {} allreduce.launch markers",
                launches.len()
            );
            std::process::exit(1);
        }
        println!("check: sequential run recorded no launch markers (as expected)");
        return;
    }
    let mut failed = false;
    for rank in 0..world {
        let bwd: Vec<_> = events
            .iter()
            .filter(|e| e.rank == rank && e.cat == cat::NN_BWD)
            .collect();
        let interleaved = launches.iter().any(|l| {
            l.rank == rank
                && bwd.iter().any(|b| b.end_s <= l.start_s)
                && bwd.iter().any(|b| b.start_s >= l.end_s)
        });
        if !interleaved {
            eprintln!(
                "check FAILED: rank {rank} has no allreduce launch interleaved with backward"
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("check: allreduce launches interleave with backward on all {world} ranks");
}

/// `--check`: every instrumented layer must have produced at least one
/// span, and the report must carry the headline counters (CI smoke).
fn check_profile(events: &[dlsr::trace::TraceEvent], report: &dlsr::trace::report::StepReport) {
    use dlsr::trace::cat;
    let mut failed = false;
    for c in [
        cat::GEMM,
        cat::IM2COL,
        cat::NN_FWD,
        cat::NN_BWD,
        cat::NEGOTIATE,
        cat::FUSION,
        cat::ALLREDUCE,
        cat::MPI,
        cat::NET,
        cat::FAULT,
    ] {
        let n = events.iter().filter(|e| e.cat == c).count();
        if n == 0 {
            eprintln!("check FAILED: no `{c}` spans recorded");
            failed = true;
        } else {
            println!("check: {n:>6} `{c}` spans");
        }
    }
    if report.regcache.hits + report.regcache.misses == 0 {
        eprintln!("check FAILED: no registration-cache activity in the report");
        failed = true;
    }
    if report.fusion.groups == 0 {
        eprintln!("check FAILED: no fusion groups counted");
        failed = true;
    }
    if report.faults.checkpoints == 0 {
        eprintln!("check FAILED: no checkpoints counted (checkpoint layer not exercised)");
        failed = true;
    }
    if report.ranks.len() != report.world {
        eprintln!(
            "check FAILED: report covers {} ranks, expected {}",
            report.ranks.len(),
            report.world
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("check: all instrumented layers reported spans");
}

/// `dlsr analyze`: cross-rank critical-path attribution, scaling-efficiency
/// projection and the bench regression gate. See docs/OBSERVABILITY.md.
fn cmd_analyze(flags: &Flags) {
    use dlsr::cluster::analysis;

    let nodes: usize = get(flags, "nodes", 2);
    let steps: usize = get(flags, "steps", 4);
    let ckpt: usize = get(flags, "checkpoint-every", 2);
    let slowdown: f64 = get(flags, "slowdown", 1.0);
    let sc = scenario(flags);
    let out = flags
        .get("out")
        .cloned()
        .unwrap_or_else(|| "results/BENCH_analysis.json".to_string());

    // Headline trace: the same 2-node weak-scaling run `dlsr profile`
    // records, walked backward along its happens-before DAG.
    let topo = ClusterTopology::lassen(nodes);
    let world = topo.total_gpus();
    println!(
        "analyzing {steps} traced EDSR(tiny) steps on {world} simulated GPUs ({})...",
        sc.label()
    );
    let mut run = analysis::traced_real_run(
        &topo,
        sc.mpi_config(),
        &analysis::weak_scaling_config(world, steps, ckpt),
    );
    if slowdown != 1.0 {
        // Stretch the measured timeline — a synthetic regression to prove
        // the gate trips (used by the CI liveness test).
        for e in &mut run.trace {
            e.start_s *= slowdown;
            e.end_s *= slowdown;
        }
        run.makespan *= slowdown;
    }
    let cp = dlsr::trace::analyze::critical_path(&run.trace, steps);
    print!("{}", cp.render());

    let s = steps.max(1) as f64;
    let attribution_per_step = dlsr::trace::analyze::Attribution {
        compute_s: cp.total.compute_s / s,
        exposed_comm_s: cp.total.exposed_comm_s / s,
        straggler_wait_s: cp.total.straggler_wait_s / s,
        fault_s: cp.total.fault_s / s,
        checkpoint_s: cp.total.checkpoint_s / s,
    };

    // Fit the cost model on a checkpoint-free 2-rank run (checkpoints are
    // a policy cost, not a scaling term), then validate the projection
    // against actual 4- and 8-rank runs before trusting it at 512.
    let fit_topo = ClusterTopology {
        name: "fit-1x2".to_string(),
        nodes: 1,
        gpus_per_node: 2,
    };
    let fit_run = analysis::traced_real_run(
        &fit_topo,
        sc.mpi_config(),
        &analysis::weak_scaling_config(2, steps, 0),
    );
    let (model, _) = analysis::fit_model(&fit_run, sc);
    println!(
        "\ncost model (fit at {} ranks): base {:.3} ms, negotiate {:.1} us, \
         comm {:.1} us/step ({:.1} us hidden by overlap)",
        model.fit_world,
        model.base_s * 1e3,
        model.negotiate_s * 1e6,
        model.comm_total_s * 1e6,
        model.hidden_s * 1e6,
    );
    let validation = if flags.contains_key("no-validate") {
        Vec::new()
    } else {
        analysis::validate(&model, sc, steps, &[4, 8])
    };
    for v in &validation {
        println!(
            "validate @ {:>3} ranks: predicted {:.3} ms, actual {:.3} ms ({:+.1}% error)",
            v.world,
            v.predicted_step_s * 1e3,
            v.actual_step_s * 1e3,
            (v.predicted_step_s / v.actual_step_s - 1.0) * 100.0,
        );
    }
    let projection = analysis::project(&model, &[64, 128, 256, 512]);
    println!("projection (weak scaling, {}):", sc.label());
    for p in &projection {
        println!(
            "  {:>3} ranks: step {:.3} ms, {:>9.1} img/s, efficiency {:>5.1} %",
            p.world,
            p.step_s * 1e3,
            p.images_per_sec,
            p.efficiency * 100.0,
        );
    }

    // Cross-validate the projection machinery against the event-driven
    // simulator at the worlds real training cannot reach: fit the same
    // model from a *simulated* 16-rank trace and hold its extrapolation
    // against actual driven-engine runs at 64-512 ranks.
    let sim = if flags.contains_key("no-sim-check") {
        None
    } else {
        let chk = analysis::sim_check(sc, 4, 1, steps, 4, &[64, 128, 256, 512], 2021);
        println!(
            "projection vs simulation (model fit on a {}-rank simulated trace):",
            chk.fit_world
        );
        for p in &chk.points {
            println!(
                "  {:>3} ranks: predicted {:>8.1} ms vs simulated {:>8.1} ms \
                 ({:+.1}% step error, efficiency {:>5.1}% vs {:>5.1}%, d {:.1} pts)",
                p.world,
                p.predicted_step_s * 1e3,
                p.simulated_step_s * 1e3,
                (p.predicted_step_s / p.simulated_step_s - 1.0) * 100.0,
                p.predicted_eff * 100.0,
                p.simulated_eff * 100.0,
                p.eff_abs_err * 100.0,
            );
        }
        Some(chk)
    };

    let wire_counter = |key: &str| run.counters.get(key).copied().unwrap_or(0.0);
    let areport = analysis::AnalysisReport {
        scenario: sc.label().to_string(),
        world,
        steps,
        measured_step_s: run.makespan / s,
        attribution_per_step,
        model,
        validation,
        projection,
        sim_check: sim,
        wire_bytes: wire_counter(dlsr::trace::report::keys::WIRE_BYTES),
        wire_dense_bytes: wire_counter(dlsr::trace::report::keys::WIRE_DENSE_BYTES),
    };
    if let Some(dir) = std::path::Path::new(&out).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    std::fs::write(&out, areport.to_json()).expect("write analysis JSON");
    println!("analysis     : {out}");

    if flags.contains_key("check") {
        check_analysis(&cp, &run, &areport);
    }
    if let Some(basefile) = flags.get("baseline") {
        let tol: f64 = get(flags, "gate", 10.0);
        let text = std::fs::read_to_string(basefile)
            .unwrap_or_else(|e| die(&format!("cannot read --baseline {basefile}: {e}")));
        let base = analysis::AnalysisReport::from_json(&text).unwrap_or_else(|e| die(&e));
        let violations = analysis::gate(&areport, &base, tol);
        if !violations.is_empty() {
            for v in &violations {
                eprintln!("gate FAILED: {v}");
            }
            std::process::exit(1);
        }
        println!("gate: within {tol}% of {basefile}");
    }
}

/// `analyze --check`: the attribution must account for the measured step
/// time (1% criterion), agree with the step report's independent
/// exposed-comm accounting, and the projection must have survived its
/// small-world validation.
fn check_analysis(
    cp: &dlsr::trace::analyze::CritPath,
    run: &dlsr::cluster::analysis::TracedRun,
    areport: &dlsr::cluster::analysis::AnalysisReport,
) {
    let mut failed = false;
    let sum = cp.total.total();
    if (sum - cp.makespan_s).abs() > 0.01 * cp.makespan_s {
        eprintln!(
            "check FAILED: attribution sums to {:.3} ms but the makespan is {:.3} ms",
            sum * 1e3,
            cp.makespan_s * 1e3
        );
        failed = true;
    } else {
        println!(
            "check: categories sum to the measured step time ({:.3} ms/step)",
            cp.step_time_s() * 1e3
        );
    }
    // Independent cross-check: the step report computes per-rank exposed
    // comm from span overlap, never from the DAG. The critical path's
    // exposed comm must land inside the per-rank envelope (the path can
    // only follow actual ranks; margin covers wait/comm boundary
    // reclassification at sync points).
    let report = dlsr::trace::report::StepReport::build(&run.trace, &run.counters);
    let (lo, hi) = (
        report.skew.exposed_comm.min * 0.5,
        report.skew.exposed_comm.max * 1.5 + 1e-6,
    );
    let exposed = cp.total.exposed_comm_s;
    if exposed < lo || exposed > hi {
        eprintln!(
            "check FAILED: critical-path exposed comm {:.3} ms outside the step report's \
             per-rank envelope [{:.3}, {:.3}] ms",
            exposed * 1e3,
            lo * 1e3,
            hi * 1e3
        );
        failed = true;
    } else {
        println!(
            "check: exposed comm agrees with the step report ({:.3} ms on the path, \
             per-rank mean {:.3} ms)",
            exposed * 1e3,
            report.skew.exposed_comm.mean * 1e3
        );
    }
    for v in &areport.validation {
        if v.rel_err > 0.10 {
            eprintln!(
                "check FAILED: projection off by {:.1}% at {} ranks (>10%)",
                v.rel_err * 100.0,
                v.world
            );
            failed = true;
        }
    }
    if !areport.validation.is_empty() && !failed {
        println!(
            "check: projection validated within 10% at {} world sizes",
            areport.validation.len()
        );
    }
    // Projection-vs-simulation: the analytic model must track the
    // event-driven simulator within 10% up to 256 ranks (512 is recorded
    // but unenforced — the extrapolation frontier).
    if let Some(chk) = &areport.sim_check {
        let mut ok = 0;
        for p in chk.points.iter().filter(|p| p.world <= 256) {
            if p.step_rel_err > 0.10 {
                eprintln!(
                    "check FAILED: projection off the simulation by {:.1}% at {} ranks (>10%)",
                    p.step_rel_err * 100.0,
                    p.world
                );
                failed = true;
            } else {
                ok += 1;
            }
        }
        if !failed {
            println!("check: projection tracks the simulator within 10% at {ok} world sizes");
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// `dlsr lint` — the workspace static analyzer's one entry point:
/// exit 0 clean, 1 findings, 2 analyzer failure.
fn cmd_lint(flags: &Flags) {
    let root = match flags.get("root") {
        Some(p) => std::path::PathBuf::from(p),
        None => std::env::current_dir()
            .ok()
            .and_then(|d| dlsr_lint::find_root(&d))
            .unwrap_or_else(|| die("could not locate the workspace root (pass --root)")),
    };

    if flags.contains_key("self-test") {
        let results = dlsr_lint::self_test(&root)
            .unwrap_or_else(|e| die(&format!("self-test failed to read fixtures: {e}")));
        let mut failed = false;
        for r in &results {
            let mark = if r.ok { "ok " } else { "FAIL" };
            println!(
                "{mark}  {:<28} expect {:<20} {}",
                r.file, r.expected, r.detail
            );
            failed |= !r.ok;
        }
        if failed {
            eprintln!("lint self-test: a seeded fixture did not trip its rule");
            std::process::exit(1);
        }
        println!("lint self-test: {} fixtures, all rules trip", results.len());
        return;
    }

    // An internal analyzer bug (parser panic on some file) must exit 2, not
    // look like a clean run or a finding.
    let analysis = match std::panic::catch_unwind(|| dlsr_lint::scan_workspace(&root)) {
        Ok(Ok(a)) => a,
        Ok(Err(e)) => die(&format!("lint scan failed: {e}")),
        Err(_) => die("internal analyzer panic"),
    };

    if flags.contains_key("json") {
        print!("{}", dlsr_lint::report::to_json(&analysis));
    } else if flags.contains_key("sarif") {
        print!("{}", dlsr_lint::report::to_sarif(&analysis));
    } else {
        for f in &analysis.findings {
            println!("{f}");
        }
        if analysis.findings.is_empty() {
            println!(
                "dlsr lint: workspace clean ({} files, {} fns, {} call edges, {} rules)",
                analysis.stats.files,
                analysis.stats.fns,
                analysis.stats.edges,
                dlsr_lint::rules::ALL_RULES.len()
            );
        } else {
            eprintln!("dlsr lint: {} violation(s)", analysis.findings.len());
        }
    }
    if !analysis.findings.is_empty() {
        std::process::exit(1);
    }
}

fn cmd_info() {
    let model = KernelCostModel::new(GpuSpec::v100());
    let (edsr, tensors) = edsr_measured_workload();
    let resnet = resnet50_workload();
    println!("device        : {}", model.spec().name);
    println!("EDSR workload : {}", edsr.name);
    println!(
        "  parameters  : {} ({} MB of gradients)",
        edsr.params,
        edsr.grad_bytes() >> 20
    );
    println!("  tensors     : {}", tensors.len());
    println!(
        "  throughput  : {:.1} img/s at batch 4 (paper: 10.3)",
        model.throughput(&edsr, 4, 1).unwrap()
    );
    println!(
        "ResNet-50     : {:.1} img/s at batch 64 (paper: ~360)",
        model.throughput(&resnet, 64, 1).unwrap()
    );
    // show the degradation pipeline works end to end
    let spec = SyntheticImageSpec {
        height: 32,
        width: 32,
        ..Default::default()
    };
    let hr = spec.generate(1, 0);
    let lr = resize::bicubic_downsample(&hr, 2).unwrap();
    println!(
        "data pipeline : HR {:?} -> LR {:?} (bicubic x2)",
        hr.shape().dims(),
        lr.shape().dims()
    );
}

fn cmd_verify(flags: &Flags) {
    let nodes: usize = get(flags, "nodes", 1);
    let gpus: usize = get(flags, "gpus", 2);
    let topo = ClusterTopology {
        name: format!("verify-{nodes}x{gpus}"),
        nodes,
        gpus_per_node: gpus,
    };
    let world = topo.total_gpus();
    let cfg = RealTrainConfig::builder()
        .steps(get(flags, "steps", 6))
        .global_batch(world.max(4))
        .build();
    let sc = scenario(flags);
    println!(
        "verifying EDSR(tiny) training on {world} simulated GPUs ({}) for {} steps...",
        sc.label(),
        cfg.steps
    );
    // A violation unwinds its world with the `Violation` as the payload
    // (already printed once by the launcher); the peers' "world torn down"
    // panics behind it are not news, so the hook stays quiet meanwhile.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let verified = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let real = train_real(&topo, sc.mpi_config(), &cfg);
        // the same topology costs-only, through the driven engine and its
        // ring waves: the code behind every committed scaling number
        let (w, tensors) = edsr_measured_workload();
        let trainer = SimTrainer::new(w, tensors, 4, sc, &topo, 2021)
            .unwrap_or_else(|e| die(&format!("verify: {e}")));
        let sim = dlsr::cluster::experiment::run_world(&topo, sc.mpi_config(), &trainer, 1, 3);
        (real, sim.verify)
    }));
    std::panic::set_hook(hook);
    let (real, sim) = verified.unwrap_or_else(|payload| {
        if !payload.is::<dlsr_mpi::verify::Violation>() {
            let msg = payload.downcast_ref::<String>().map(String::as_str);
            eprintln!(
                "dlsr verify: a rank panicked: {}",
                msg.or(payload.downcast_ref::<&str>().copied())
                    .unwrap_or("(no message)")
            );
        }
        std::process::exit(1)
    });
    let summary = real.verify;
    println!(
        "ok: {} collectives and {} fusion launches cross-checked over {} ranks \
         (final loss {:.4})",
        summary.collectives_checked,
        summary.launches_checked,
        summary.ranks,
        real.losses.last().copied().unwrap_or(f32::NAN),
    );
    println!(
        "ok: {} collectives cross-checked over {} ranks of the costs-only world \
         (driven engine, 1 + 3 steps)",
        sim.collectives_checked, summary.ranks,
    );
}

/// The injected-fault suite: run each chaos scenario against a clean
/// baseline and report what the fault cost — while proving it cost only
/// virtual time, never accuracy.
fn cmd_chaos(flags: &Flags) {
    use std::sync::Arc;

    use dlsr::faults::ChaosScenario;

    let nodes: usize = get(flags, "nodes", 2);
    let gpus: usize = get(flags, "gpus", 2);
    let steps: usize = get(flags, "steps", 10);
    let seed: u64 = get(flags, "seed", 42);
    let topo = ClusterTopology {
        name: format!("chaos-{nodes}x{gpus}"),
        nodes,
        gpus_per_node: gpus,
    };
    let world = topo.total_gpus();
    let sc = scenario(flags);
    let faults: Vec<ChaosScenario> = match flags.get("fault") {
        None => ChaosScenario::ALL.to_vec(),
        Some(name) => vec![name.parse().unwrap_or_else(|e: String| die(&e))],
    };
    let cfg = RealTrainConfig::builder()
        .steps(steps)
        .global_batch(world.max(4))
        .checkpoint_every(get(flags, "checkpoint-every", 3))
        .build();
    println!(
        "chaos suite: EDSR(tiny), {world} simulated GPUs ({}), {steps} steps, \
         checkpoint every {} steps, plan seed {seed}\n",
        sc.label(),
        cfg.checkpoint_every
    );
    let clean = train_real(&topo, sc.mpi_config(), &cfg);
    println!(
        "{:>15} {:>12} {:>10} {:>9} {:>12} {:>12} {:>6}",
        "fault", "makespan", "overhead", "retries", "backoff", "degraded", "math"
    );
    println!(
        "{:>15} {:>12} {:>10} {:>9} {:>12} {:>12} {:>6}",
        "(baseline)",
        format!("{:.1} ms", clean.makespan * 1e3),
        "-",
        clean.comm_stats.retries,
        "-",
        "-",
        "-"
    );
    let mut failed = false;
    for f in faults {
        let plan = f.plan(seed, world, steps);
        let mpi = sc
            .mpi_config()
            .to_builder()
            .fault_plan(Some(Arc::new(plan)))
            .build();
        let res = train_real(&topo, mpi, &cfg);
        let same_math = res.losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>()
            == clean.losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>()
            && res
                .final_params
                .iter()
                .map(|p| p.to_bits())
                .collect::<Vec<_>>()
                == clean
                    .final_params
                    .iter()
                    .map(|p| p.to_bits())
                    .collect::<Vec<_>>();
        println!(
            "{:>15} {:>12} {:>9.1}% {:>9} {:>12} {:>12} {:>6}",
            f.label(),
            format!("{:.1} ms", res.makespan * 1e3),
            (res.makespan / clean.makespan - 1.0) * 100.0,
            res.comm_stats.retries,
            format!("{:.2} ms", res.comm_stats.backoff_seconds * 1e3),
            format!("{:.2} ms", res.comm_stats.degraded_seconds * 1e3),
            if same_math { "exact" } else { "DRIFT" }
        );
        failed |= !same_math;
    }
    if failed {
        eprintln!("\nchaos FAILED: an injected fault changed the training math");
        std::process::exit(1);
    }
    println!("\nok: every fault class cost only virtual time; the math is bitwise intact");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (flags, positional) = parse_flags(&args);
    if flags.contains_key("help") {
        return usage();
    }
    let cmd = positional.first().map_or("help", String::as_str);
    let Some((_, known, run)) = COMMANDS.iter().find(|(name, ..)| *name == cmd) else {
        die(&format!("unknown command `{cmd}`"));
    };
    if let Some(extra) = positional.get(1) {
        die(&format!("unexpected argument `{extra}` for `dlsr {cmd}`"));
    }
    // min(): the map's order is random, the message should not be
    let known = || known.split_whitespace();
    if let Some(bad) = flags.keys().filter(|k| known().all(|f| f != *k)).min() {
        let known: Vec<String> = known().map(|f| format!("--{f}")).collect();
        die(&format!(
            "unknown flag --{bad} for `dlsr {cmd}`; known: {}",
            if known.is_empty() {
                "none".into()
            } else {
                known.join(" ")
            }
        ));
    }
    // A malformed tune cache stops every command before it runs.
    if let Err(e) = tune::TABLE.load().and_then(|()| tuner::TABLE.load()) {
        die(&e.to_string());
    }
    run(&flags);
}
