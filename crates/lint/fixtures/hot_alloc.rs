//~ crate: tensor
//~ expect: hot-alloc
//! Seeded fixture: allocating calls inside a `#[cfg_attr(any(), dlsr::hot)]` function must
//! trip `hot-alloc`. The identical calls in the unannotated neighbour are
//! fine — the rule scopes to annotated bodies only.

#[cfg_attr(any(), dlsr::hot)]
pub fn microkernel_like(dst: &mut [f32], a: &[f32], b: &[f32]) {
    let mut acc = Vec::new();
    acc.extend(vec![0.0f32; 4]);
    let copied = a.to_vec();
    let owned = b.clone();
    let doubled: Vec<f32> = copied.iter().map(|x| x * 2.0).collect();
    let label = format!("{}x{}", dst.len(), doubled.len());
    let _ = (acc, owned, label);
}

pub fn cold_setup(a: &[f32]) -> Vec<f32> {
    // Not annotated: setup code may allocate freely.
    a.to_vec()
}
