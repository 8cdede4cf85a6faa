//~ crate: tensor
//~ expect: unknown-marker
//! Seeded fixture: markers are never expanded by the compiler, so a
//! misspelled one compiles silently and its kernel would escape
//! `hot-alloc`. Both a misspelled marker and the retired proc-macro
//! spelling must trip `unknown-marker`. The names do not follow the
//! kernel convention, so `hot-markers` stays silent.

#[cfg_attr(any(), dlsr::hto)]
pub fn axpy(dst: &mut [f32], x: &[f32], alpha: f32) {
    for (d, &v) in dst.iter_mut().zip(x.iter()) {
        *d += alpha * v;
    }
}

#[dlsr::hot]
pub fn scale(dst: &mut [f32], alpha: f32) {
    for d in dst.iter_mut() {
        *d *= alpha;
    }
}
