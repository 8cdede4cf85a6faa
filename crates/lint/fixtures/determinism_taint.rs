//~ crate: nn
//~ expect: determinism-taint
//! Seeded fixture: a `#[cfg_attr(any(), dlsr::deterministic)]` root reaches a helper that
//! builds a `HashMap`. dlsr-nn is not a rank-deterministic crate, so the
//! file-local `hash-collections` rule stays silent — only the
//! interprocedural taint rule can see that rank-visible state one call
//! away now depends on process-random iteration order.

use std::collections::HashMap;

#[cfg_attr(any(), dlsr::deterministic)]
pub fn apply_updates(names: &[String]) -> Vec<String> {
    let reg = registry(names);
    order_of(&reg)
}

fn registry(names: &[String]) -> HashMap<String, usize> {
    let mut m = HashMap::new();
    for (i, n) in names.iter().enumerate() {
        m.insert(n.clone(), i);
    }
    m
}

fn order_of(m: &HashMap<String, usize>) -> Vec<String> {
    m.keys().cloned().collect()
}
