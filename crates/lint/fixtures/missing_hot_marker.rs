//~ crate: tensor
//~ expect: hot-markers
// A kernel-convention function in crates/tensor/src without `#[cfg_attr(any(), dlsr::hot)]`:
// the hot-alloc rule would never scan its body, so the naming rule trips.

fn pack_block_rows(dst: &mut [f32]) {
    dst.fill(0.0);
}

fn microkernel_avx2_4x16(acc: &mut [f32]) {
    acc.fill(0.0);
}
