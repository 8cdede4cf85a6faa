//! The five workloads. Each file builds its inputs from the seed, runs one
//! op the way a user of the repo would, checks the outputs, and — in the
//! traced run — repeats the op with spans and adds its layers' probes.

mod allreduce_ladder;
mod edsr_step;
mod sim_probes;
mod sim_sweep;
mod sim_world;
mod tiny_train;

use crate::harness::Workload;
use crate::metrics;

/// Build a workload's inputs (model, dataset, buffers, plans) from `seed`.
/// `smoke` shrinks steps per op, never shapes.
pub fn build(name: &str, seed: u64, smoke: bool) -> Box<dyn Workload> {
    match name {
        metrics::EDSR => Box::new(edsr_step::EdsrStep::new(seed, smoke)),
        metrics::TINY => Box::new(tiny_train::TinyTrain::new(seed, smoke)),
        metrics::LADDER => Box::new(allreduce_ladder::Ladder::new(seed, smoke)),
        metrics::W512 => Box::new(sim_world::SimWorld512::new(seed, smoke)),
        metrics::SWEEP => Box::new(sim_sweep::SimSweep::new(seed, smoke)),
        other => panic!("unknown workload `{other}`"),
    }
}

/// splitmix64: the benchmark's own input generator, so generated inputs
/// do not change when the repo's RNG plumbing does.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `len` floats uniform in [-1, 1).
pub fn uniform(len: usize, seed: u64) -> Vec<f32> {
    let mut s = seed;
    (0..len)
        .map(|_| (splitmix(&mut s) >> 40) as f32 / (1u64 << 23) as f32 - 1.0)
        .collect()
}
