//! `tiny_train_4rank`: one `train_real` call — EDSR tiny, patch 12, global
//! batch 4, overlap on — over one simulated 4-GPU node. Real gradients
//! (23 KB) go `data` → `horovod` negotiate/fusion/overlap → `mpi` on four
//! rank contexts: control plane and hand-offs dominate, compute is small.
//! The op includes world spawn and dataset build, which every `dlsr train`
//! user pays.

use std::time::Instant;

use crate::adapter::{
    broadcast_parameters, l1_loss, psnr, train_real, Adam, ClusterTopology, DataLoader,
    DistributedOptimizer, Div2kSynthetic, Edsr, HorovodConfig, Hvprof, Module, ModuleExt,
    MpiConfig, MpiWorld, RealTrainConfig, RealTrainResult, ShardSpec, SyntheticImageSpec, Tensor,
};
use crate::harness::{median, time_median, Metrics, OpResult, Workload};
use crate::spans::Recorder;
use crate::workloads::uniform;

/// Steps per op, sized so 40 ops fit the benchmark's run length.
const STEPS: usize = 60;
const SMOKE_STEPS: usize = 10;
const WARMUP_OPS: usize = 2;

// `train_real`'s virtual compute charge per multiply-accumulate. The
// replay passes the same charge so its overlapped launches are paced the
// same way; the math does not depend on it.
const FWD_SECONDS_PER_MAC: f64 = 2.5e-9;
const BWD_SECONDS_PER_MAC: f64 = 5.0e-9;

/// What every op must reproduce bit for bit.
#[derive(Clone, PartialEq)]
struct Fingerprint {
    loss_bits: Vec<u32>,
    makespan_bits: u64,
}

pub struct TinyTrain {
    topo: ClusterTopology,
    cfg: RealTrainConfig,
    first: Option<Fingerprint>,
    last: Option<RealTrainResult>,
    fusion_groups: usize,
}

impl TinyTrain {
    pub fn new(seed: u64, smoke: bool) -> Self {
        let steps = if smoke { SMOKE_STEPS } else { STEPS };
        TinyTrain {
            topo: ClusterTopology::lassen(1),
            cfg: RealTrainConfig::builder().steps(steps).seed(seed).build(),
            first: None,
            last: None,
            fusion_groups: 0,
        }
    }

    fn image_spec(&self) -> SyntheticImageSpec {
        let extent = (self.cfg.lr_patch * self.cfg.model.scale * 2).max(32);
        SyntheticImageSpec {
            height: extent,
            width: extent,
            ..Default::default()
        }
    }
}

fn loss_bits(losses: &[f32]) -> Vec<u32> {
    losses.iter().map(|l| l.to_bits()).collect()
}

impl Workload for TinyTrain {
    fn warm_up(&mut self) {
        for _ in 0..WARMUP_OPS {
            self.op().expect("warm-up op");
        }
    }

    fn op(&mut self) -> OpResult {
        let res = train_real(&self.topo, MpiConfig::mpi_opt(), &self.cfg);
        let print = Fingerprint {
            loss_bits: loss_bits(&res.losses),
            makespan_bits: res.makespan.to_bits(),
        };
        let same = *self.first.get_or_insert_with(|| print.clone()) == print;
        let finite = res.losses.iter().all(|l| l.is_finite());
        self.last = Some(res);
        match (same, finite) {
            (true, true) => Ok(()),
            (false, _) => Err("losses or makespan differ from the first op".into()),
            (_, false) => Err("non-finite loss".into()),
        }
    }

    fn throughput(&self) -> (&'static str, f64) {
        (
            "images_per_s",
            (self.cfg.steps * self.cfg.global_batch) as f64,
        )
    }

    fn outputs(&self, out: &mut Metrics) {
        let res = self.last.as_ref().expect("an op ran");
        let steps = self.cfg.steps as f64;
        out.set("virtual_step_ms", res.makespan / steps * 1e3);
        out.set(
            "final_loss",
            f64::from(*res.losses.last().expect("steps ≥ 1")),
        );
    }

    /// Decomposed replay of `train_real`: the same public calls in the
    /// same order inside `MpiWorld::run`, a span around each. Its losses
    /// must equal `train_real`'s bit for bit.
    fn traced_op(&mut self, rec: &mut Recorder) -> OpResult {
        let cfg = &self.cfg;
        let spec = self.image_spec();
        let world = self.topo.total_gpus();
        let (losses, groups) = rec.span("op", "bench", |rec| {
            rec.span("MpiWorld::run", "mpi", |rec| {
                let shared = &*rec; // read by the rank threads
                let res = MpiWorld::run(&self.topo, MpiConfig::mpi_opt(), |comm| {
                    let mut r = shared.for_rank(comm.rank() as u32);
                    let out = r.span("rank", "bench", |r| {
                        let scale = cfg.model.scale;
                        let mut model = r.span("Edsr::new", "models", |_| {
                            Edsr::new(cfg.model, cfg.seed + comm.rank() as u64)
                        });
                        r.span("broadcast_parameters", "horovod", |_| {
                            broadcast_parameters(&mut model, comm, 0, &mut Hvprof::new())
                        });
                        let (mut loader, lr_eval, hr_eval) =
                            r.span("dataset.build", "data", |_| {
                                let ds = Div2kSynthetic::new(spec, cfg.n_images, scale, cfg.seed);
                                let shard = ShardSpec {
                                    rank: comm.rank(),
                                    world,
                                };
                                let loader =
                                    DataLoader::new(ds, cfg.lr_patch, cfg.global_batch, shard);
                                let mut eval =
                                    Div2kSynthetic::new(spec, 1, scale, cfg.seed ^ 0xEEEE);
                                let (hr, lr) = eval.image(0);
                                (loader, lr.clone(), hr.clone())
                            });
                        let mut opt = r.span("DistributedOptimizer::new", "horovod", |_| {
                            DistributedOptimizer::new(
                                Adam::new(cfg.lr / world as f32),
                                &mut model,
                                HorovodConfig::builder()
                                    .fusion_threshold(cfg.fusion_threshold)
                                    .cycle_time(cfg.cycle_time)
                                    .build(),
                                world,
                            )
                        });
                        let local_batch = cfg.global_batch / world;
                        let macs = model.num_params() as f64
                            * (cfg.lr_patch * cfg.lr_patch) as f64
                            * local_batch as f64;
                        let mut losses = Vec::with_capacity(cfg.steps);
                        for step in 0..cfg.steps {
                            let (lr, hr) =
                                r.span("loader.batch", "data", |_| loader.batch(0, step as u64));
                            let pred = r
                                .span("model.forward", "models", |_| model.forward(&lr))
                                .expect("forward");
                            comm.advance(macs * FWD_SECONDS_PER_MAC);
                            let (loss, grad) = r
                                .span("l1_loss", "nn", |_| l1_loss(&pred, &hr))
                                .expect("loss");
                            r.span("backward_and_step", "horovod", |_| {
                                opt.backward_and_step(
                                    &mut model,
                                    &grad,
                                    comm,
                                    macs * BWD_SECONDS_PER_MAC,
                                )
                            })
                            .expect("backward");
                            losses.push(loss);
                        }
                        r.span("eval", "models", |_| {
                            let sr = model.predict(&lr_eval).expect("predict");
                            std::hint::black_box(psnr(&sr, &hr_eval, 1.0).expect("psnr"));
                        });
                        (losses, opt.fusion_groups().len())
                    });
                    (out, r)
                });
                // while the world's span is open, so the rank bodies hang
                // under it and its self time is spawn + join only
                let mut rank0 = None;
                for (out, r) in res.ranks {
                    rec.absorb(r);
                    rank0.get_or_insert(out);
                }
                rank0.expect("rank 0")
            })
        });
        self.fusion_groups = groups;
        let reference = self.first.as_ref().expect("op ran before traced_op");
        if loss_bits(&losses) == reference.loss_bits {
            Ok(())
        } else {
            Err("decomposed replay's losses differ from train_real's".into())
        }
    }

    fn layer_metrics(&mut self, rec: &Recorder, out: &mut Metrics) {
        let steps = self.cfg.steps as f64;
        let per_step_ms = |name| median(&rec.per_op_ms(name)) / steps;
        let per_op_ms = |name| median(&rec.per_op_ms(name));
        out.set("horovod.broadcast_ms", per_op_ms("broadcast_parameters"));
        let sync = per_step_ms("backward_and_step");
        out.set("horovod.backward_and_step_ms", sync);
        out.set("horovod.fusion_groups", self.fusion_groups as f64);
        out.set("data.batch_ms", per_step_ms("loader.batch"));
        out.set("data.dataset_build_ms", per_op_ms("dataset.build"));

        let res = self.last.as_ref().expect("an op ran");
        let s = &res.comm_stats;
        out.set("mpi.sends_per_step", s.sends as f64 / steps);
        let bytes = s.nvlink_bytes + s.staged_bytes + s.ib_bytes;
        out.set("mpi.bytes_per_step", bytes as f64 / steps);

        // the same backward on one rank with no synchronization: what is
        // left of `backward_and_step` is horovod + mpi + hand-offs
        let local_batch = self.cfg.global_batch / self.topo.total_gpus();
        let mut model = Edsr::new(self.cfg.model, self.cfg.seed);
        let p = self.cfg.lr_patch;
        let input = |c: usize, e: usize, seed| {
            Tensor::from_vec(
                [local_batch, c, e, e],
                uniform(local_batch * c * e * e, seed),
            )
            .expect("shape fits")
        };
        let (x, g) = (input(3, p, 1), input(3, p * self.cfg.model.scale, 2));
        let mut backward_s = Vec::new();
        for _ in 0..50 {
            model.forward(&x).expect("forward");
            let t = Instant::now();
            std::hint::black_box(model.backward(&g).expect("backward"));
            backward_s.push(t.elapsed().as_secs_f64());
        }
        out.set("horovod.sync_self_ms", sync - median(&backward_s) * 1e3);

        let spawn = time_median(15, || {
            MpiWorld::run(&self.topo, MpiConfig::mpi_opt(), |_| ());
        });
        out.set("mpi.world_spawn_ms_w4", spawn * 1e3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_bodies_hang_under_the_world_span() {
        let mut w = TinyTrain::new(1, true);
        w.op().expect("plain op");
        let mut rec = Recorder::new(Instant::now(), 0);
        w.traced_op(&mut rec).expect("replay matches train_real");
        let spans = rec.spans();
        let world = spans
            .iter()
            .position(|s| s.name == "MpiWorld::run")
            .expect("world span");
        let ranks: Vec<_> = spans.iter().filter(|s| s.name == "rank").collect();
        assert_eq!(ranks.len(), 4);
        assert!(ranks.iter().all(|s| s.parent == Some(world)));
        // so the world's self time is what the bodies leave of it (spawn
        // and join), and the mpi layer is not charged the ranks' work
        assert!(rec.self_ns()[world] < spans[world].dur_ns() / 2);
    }
}
