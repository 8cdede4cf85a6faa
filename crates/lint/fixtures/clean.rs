//~ crate: mpi
//~ expect: none
//! Seeded fixture: idiomatic simulator code must pass every rule clean —
//! deterministic collections, virtual time only, documented unsafe,
//! allocation-free hot body, and the strings/comments below must not
//! confuse the lexer into false positives.

// The words Instant, SystemTime, HashMap and HashSet in this comment are
// not code. Neither are the ones in the strings below.

use std::collections::BTreeMap;

pub fn deterministic_order(grads: &BTreeMap<String, f64>) -> Vec<f64> {
    grads.values().copied().collect()
}

pub fn describe() -> &'static str {
    "prefer BTreeMap over HashMap; never call Instant::now in rank code"
}

#[cfg_attr(any(), dlsr::hot)]
pub fn axpy(dst: &mut [f32], x: &[f32], alpha: f32) {
    for (d, &v) in dst.iter_mut().zip(x.iter()) {
        *d += alpha * v;
    }
}

pub fn documented(xs: &[f32]) -> f32 {
    // SAFETY: `xs` is checked non-empty by the caller, so index 0 is in
    // bounds and the pointer read is valid.
    unsafe { *xs.as_ptr() }
}
