//~ crate: tensor
//~ expect: hot-alloc
//! Seeded fixture: the allocation hides one call below the `#[cfg_attr(any(), dlsr::hot)]`
//! kernel — `kernel -> stage -> scratch_vec -> Vec::new`. The transitive
//! rule scans every fn reachable from a hot root, so laundering an
//! allocation through a helper no longer passes.

#[cfg_attr(any(), dlsr::hot)]
pub fn microkernel_entry(dst: &mut [f32]) {
    stage(dst);
}

fn stage(dst: &mut [f32]) {
    let v = scratch_vec(dst.len());
    dst.copy_from_slice(&v);
}

fn scratch_vec(n: usize) -> Vec<f32> {
    let mut v = Vec::new();
    v.resize(n, 0.0);
    v
}
