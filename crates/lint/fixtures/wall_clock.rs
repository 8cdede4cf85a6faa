//~ crate: cluster
//~ expect: wall-clock
//! Seeded fixture: wall-clock reads in a fn that is not under any
//! `#[cfg_attr(any(), dlsr::wall)]` boundary must trip `wall-clock`. Pretends to live in
//! dlsr-cluster, which is strictly virtual-time.

use std::time::{Instant, SystemTime};

pub fn step_duration() -> f64 {
    let t0 = Instant::now();
    busy();
    t0.elapsed().as_secs_f64()
}

pub fn epoch_stamp() -> u64 {
    SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

fn busy() {}
