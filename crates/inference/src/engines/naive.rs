//! The `Reference` configuration's table operations — the
//! UnBBayes-substitute cost model.
//!
//! The paper's sequential comparison target is UnBBayes, a
//! Java junction-tree implementation whose per-entry cost is dominated by
//! object/dictionary overhead rather than asymptotics. These routines
//! reproduce that cost model faithfully in safe Rust:
//!
//! * every table entry is processed via a **full mixed-radix decode into a
//!   freshly allocated assignment vector** (no odometers, no stride
//!   fusion, no precompiled plans);
//! * variable positions are found by **linear scans** of the scope (like
//!   attribute-list lookups);
//! * every message allocates **fresh separator tables** instead of reusing
//!   the slab's scratch regions.
//!
//! Results are bit-identical to the optimized kernels (same accumulation
//! order); only the constant factor differs — which is exactly what the
//! Table-1 "sequential speedup" column measures.
//!
//! fastbn: deny-hot-alloc

use fastbn_bayesnet::VarId;
use fastbn_potential::Domain;

/// Decodes `idx` into a freshly allocated assignment vector (the "object
/// per configuration" cost model).
// fastbn: allow(hot-alloc): deliberate — this configuration reproduces
// UnBBayes' allocation-per-entry cost model.
pub(super) fn decode_fresh(domain: &Domain, idx: usize) -> Vec<usize> {
    let mut states = vec![0usize; domain.num_vars()];
    domain.decode(idx, &mut states);
    states
}

/// Linear-scan position lookup (no binary search).
pub(super) fn position_linear(domain: &Domain, var: VarId) -> usize {
    domain
        .vars()
        .iter()
        .position(|&v| v == var)
        .expect("variable in domain")
}

/// Index of the sub-assignment of `states` (over `src`) in `target`.
fn project_index(src: &Domain, states: &[usize], target: &Domain) -> usize {
    let mut idx = 0;
    for (pos, &v) in target.vars().iter().enumerate() {
        let src_pos = position_linear(src, v);
        idx += states[src_pos] * target.strides()[pos];
    }
    idx
}

// fastbn: allow(hot-alloc): deliberate — see `decode_fresh`.
pub(super) fn marginalize(src: &[f64], src_dom: &Domain, target: &Domain) -> Vec<f64> {
    let mut out = vec![0.0; target.size()];
    for (i, &v) in src.iter().enumerate() {
        let states = decode_fresh(src_dom, i);
        out[project_index(src_dom, &states, target)] += v;
    }
    out
}

pub(super) fn divide(num: &[f64], den: &[f64]) -> Vec<f64> {
    num.iter()
        .zip(den)
        .map(|(&n, &d)| if d == 0.0 { 0.0 } else { n / d })
        .collect()
}

pub(super) fn extend_multiply(table: &mut [f64], dom: &Domain, msg: &[f64], msg_dom: &Domain) {
    for (i, v) in table.iter_mut().enumerate() {
        let states = decode_fresh(dom, i);
        *v *= msg[project_index(dom, &states, msg_dom)];
    }
}

pub(super) fn reduce(table: &mut [f64], dom: &Domain, var: VarId, state: usize) {
    for (i, v) in table.iter_mut().enumerate() {
        let states = decode_fresh(dom, i);
        if states[position_linear(dom, var)] != state {
            *v = 0.0;
        }
    }
}
