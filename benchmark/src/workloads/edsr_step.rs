//! `edsr_step_1rank`: one real training step of EDSR(B=4, F=64, ×2) on a
//! batch of four 48×48 LR patches — forward, L1 loss, backward, Adam.
//! The plain single-worker baseline: `tensor`/`nn`/`models` do all the
//! work and the comm layers none, so a GEMM or im2col gain shows here and
//! nowhere else.

use std::time::Instant;

use crate::adapter::{
    conv, l1_loss, matmul, scratch, Adam, DataLoader, Div2kSynthetic, Edsr, EdsrConfig, Module,
    Optimizer, ResBlock, ShardSpec, SyntheticImageSpec, Tensor, EDSR_SHAPES,
};
use crate::harness::{median, time_median, Metrics, OpResult, Workload, MIN_OPS, MIN_PAIRS};
use crate::spans::Recorder;
use crate::workloads::uniform;

const BATCH: usize = 4;
const LR_PATCH: usize = 48;
const FEATS: usize = 64;
const BLOCKS: usize = 4;
const SCALE: usize = 2;
const N_IMAGES: usize = 8;
const WARMUP_STEPS: usize = 5;
const SMOKE_WARMUP_STEPS: usize = 2;
/// `final_loss` is the loss of this step (0-based, warm-up included: the
/// 17th), so it is the same number however long a run measures, plain or
/// traced. Only a `--smoke` run stops short of it and reports its last step.
const FINAL_LOSS_STEP: usize = 16;
const _: () = assert!(WARMUP_STEPS + MIN_OPS > FINAL_LOSS_STEP);
const _: () = assert!(WARMUP_STEPS + 2 * MIN_PAIRS > FINAL_LOSS_STEP);
const PROBE_REPS: usize = 9;
const SMOKE_PROBE_REPS: usize = 3;

fn config() -> EdsrConfig {
    EdsrConfig {
        n_resblocks: BLOCKS,
        n_feats: FEATS,
        scale: SCALE,
        ..EdsrConfig::paper()
    }
}

fn loader(seed: u64) -> DataLoader {
    let spec = SyntheticImageSpec {
        height: LR_PATCH * SCALE * 2,
        width: LR_PATCH * SCALE * 2,
        ..Default::default()
    };
    let dataset = Div2kSynthetic::new(spec, N_IMAGES, SCALE, seed);
    DataLoader::new(dataset, LR_PATCH, BATCH, ShardSpec::single())
}

/// Forward FLOPs of one image, closed form from the configuration: 3×3
/// convolutions at LR resolution (head, 2B+1 body convs, the ×2 upsampler
/// F→4F) and the output conv at HR resolution.
fn forward_flops_per_image() -> f64 {
    let (f, c, px) = (FEATS as f64, 3.0, (LR_PATCH * LR_PATCH) as f64);
    let conv = |cout: f64, cin: f64, pixels: f64| 2.0 * cout * cin * 9.0 * pixels;
    conv(f, c, px)
        + (2 * BLOCKS + 1) as f64 * conv(f, f, px)
        + conv(4.0 * f, f, px)
        + conv(c, f, px * (SCALE * SCALE) as f64)
}

pub struct EdsrStep {
    seed: u64,
    smoke: bool,
    model: Edsr,
    opt: Adam,
    loader: DataLoader,
    losses: Vec<f32>,
    /// Scratch-pool allocations seen when warm-up ended.
    allocs_after_warmup: u64,
}

impl EdsrStep {
    pub fn new(seed: u64, smoke: bool) -> Self {
        EdsrStep {
            seed,
            smoke,
            model: Edsr::new(config(), seed),
            opt: Adam::new(1e-3),
            loader: loader(seed),
            losses: Vec::new(),
            allocs_after_warmup: 0,
        }
    }

    fn check(&mut self, loss: f32) -> OpResult {
        self.losses.push(loss);
        if loss.is_finite() {
            Ok(())
        } else {
            Err(format!("step {} loss is {loss}", self.losses.len() - 1))
        }
    }
}

impl Workload for EdsrStep {
    fn warm_up(&mut self) {
        let steps = if self.smoke {
            SMOKE_WARMUP_STEPS
        } else {
            WARMUP_STEPS
        };
        for _ in 0..steps {
            self.op().expect("warm-up step");
        }
        self.allocs_after_warmup = scratch::alloc_events();
    }

    fn op(&mut self) -> OpResult {
        self.traced_op(&mut Recorder::off())
    }

    fn throughput(&self) -> (&'static str, f64) {
        ("images_per_s", BATCH as f64)
    }

    fn outputs(&self, out: &mut Metrics) {
        let step = FINAL_LOSS_STEP.min(self.losses.len() - 1);
        out.set("final_loss", f64::from(self.losses[step]));
    }

    fn final_check(&mut self) -> OpResult {
        let (first, last) = (self.losses[0], *self.losses.last().expect("ran"));
        if last < first {
            Ok(())
        } else {
            Err(format!("loss did not fall: {first} -> {last}"))
        }
    }

    /// The step itself; `op` runs it with recording off.
    fn traced_op(&mut self, rec: &mut Recorder) -> OpResult {
        let step = self.losses.len() as u64;
        let loss = rec.span("op", "bench", |rec| -> Result<f32, String> {
            let (lr, hr) = rec.span("loader.batch", "data", |_| self.loader.batch(0, step));
            let pred = rec
                .span("model.forward", "models", |_| self.model.forward(&lr))
                .map_err(|e| e.to_string())?;
            let (loss, grad) = rec
                .span("l1_loss", "nn", |_| l1_loss(&pred, &hr))
                .map_err(|e| e.to_string())?;
            rec.span("model.backward", "models", |_| self.model.backward(&grad))
                .map_err(|e| e.to_string())?;
            rec.span("adam.step", "nn", |_| self.opt.step(&mut self.model));
            Ok(loss)
        })?;
        self.check(loss)
    }

    fn layer_metrics(&mut self, rec: &Recorder, out: &mut Metrics) {
        // before any probe: the probes' first calls at new sizes allocate
        let allocs = scratch::alloc_events() - self.allocs_after_warmup;
        out.set("tensor.scratch_alloc_events", allocs as f64);

        let span_ms = |name| median(&rec.per_op_ms(name));
        let (fwd, bwd) = (span_ms("model.forward"), span_ms("model.backward"));
        out.set("models.forward_ms", fwd);
        out.set("models.backward_ms", bwd);
        out.set("nn.adam_step_ms", span_ms("adam.step"));
        out.set("nn.l1_loss_ms", span_ms("l1_loss"));
        out.set("data.batch_ms", span_ms("loader.batch"));
        let step_gflop = 3.0 * forward_flops_per_image() * BATCH as f64 / 1e9;
        let achieved = step_gflop / ((fwd + bwd) / 1e3);
        out.set("models.achieved_gflops", achieved);

        let t = Instant::now();
        let mut fresh = loader(self.seed);
        std::hint::black_box(fresh.batch(0, 0));
        out.set("data.dataset_build_ms", t.elapsed().as_secs_f64() * 1e3);

        let reps = if self.smoke {
            SMOKE_PROBE_REPS
        } else {
            PROBE_REPS
        };
        // GEMM at the EDSR training shapes (`tune::EDSR_SHAPES` rows)
        let gemm_gflops = |(m, k, n): (usize, usize, usize)| {
            let (a, b) = (uniform(m * k, 1), uniform(k * n, 2));
            let mut c = vec![0.0f32; m * n];
            matmul::matmul_into(&a, &b, &mut c, m, k, n); // first call sizes scratch
            let s = time_median(reps, || {
                matmul::matmul_into(&a, &b, &mut c, m, k, n);
                std::hint::black_box(&mut c);
            });
            2.0 * (m * k * n) as f64 / s / 1e9
        };
        let body = gemm_gflops(EDSR_SHAPES[1]);
        out.set("tensor.gemm_body_gflops", body);
        out.set("tensor.gemm_rgb_gflops", gemm_gflops(EDSR_SHAPES[2]));
        out.set("tensor.gemm_up_gflops", gemm_gflops(EDSR_SHAPES[3]));
        out.set("tensor.gemm_wgrad_gflops", gemm_gflops(EDSR_SHAPES[4]));
        out.set("tensor.gemm_dgrad_gflops", gemm_gflops(EDSR_SHAPES[7]));
        out.set("models.peak_ratio_pct", achieved / body * 100.0);

        // one body convolution, [4,64,48,48] → same, 3×3
        let act = [BATCH, FEATS, LR_PATCH, LR_PATCH];
        let tensor = |shape: [usize; 4], seed| {
            Tensor::from_vec(shape, uniform(shape.iter().product(), seed)).expect("shape fits")
        };
        let (x, g) = (tensor(act, 3), tensor(act, 4));
        let w = tensor([FEATS, FEATS, 3, 3], 5);
        let bias = vec![0.1f32; FEATS];
        let p = conv::Conv2dParams::same(3);
        let conv_fwd = time_median(reps, || {
            std::hint::black_box(conv::conv2d(&x, &w, Some(&bias), p).expect("conv"));
        });
        let conv_bwd = time_median(reps, || {
            std::hint::black_box(conv::conv2d_backward(&x, &w, &g, p).expect("conv bwd"));
        });
        out.set("tensor.conv_fwd_ms", conv_fwd * 1e3);
        out.set("tensor.conv_bwd_ms", conv_bwd * 1e3);
        let (m, k, n) = EDSR_SHAPES[1];
        let conv_gflops = BATCH as f64 * 2.0 * (m * k * n) as f64 / conv_fwd / 1e9;
        out.set("tensor.conv_fwd_gemm_ratio_pct", conv_gflops / body * 100.0);

        // one residual block at the same activation shape
        let mut block = ResBlock::new("probe", FEATS, 0.1, self.seed);
        // backward consumes the caches forward leaves, so they alternate
        let (mut fwd_s, mut bwd_s) = (Vec::new(), Vec::new());
        for _ in 0..reps {
            let t = Instant::now();
            std::hint::black_box(block.forward(&x).expect("resblock fwd"));
            fwd_s.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            std::hint::black_box(block.backward(&g).expect("resblock bwd"));
            bwd_s.push(t.elapsed().as_secs_f64());
        }
        let (rb_fwd, rb_bwd) = (median(&fwd_s), median(&bwd_s));
        out.set("nn.resblock_fwd_ms", rb_fwd * 1e3);
        out.set("nn.resblock_bwd_ms", rb_bwd * 1e3);
        // what the block spends outside its two convolutions: cache
        // clones, ReLU mask, residual add
        let glue = 1.0 - 2.0 * (conv_fwd + conv_bwd) / (rb_fwd + rb_bwd);
        out.set("nn.glue_share_pct", glue * 100.0);
    }
}
