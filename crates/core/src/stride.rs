//! Stride pattern detection over inspection traces (paper §3.2).
//!
//! A load has an **inter-iteration** stride pattern when the differences
//! between the addresses of its successive executions are dominated by one
//! constant; an adjacent pair `(Ly, Lz)` of the load dependence graph has an
//! **intra-iteration** stride pattern when, pairing their executions within
//! each iteration, the address differences `A(Lz) − A(Ly)` are dominated by
//! one constant. "Dominated" means at least [`MAJORITY`] (75%, the paper's
//! figure) of the collected strides are identical.

use std::collections::HashMap;

use spf_heap::Addr;
use spf_ir::InstrRef;

use crate::ldg::Ldg;
use crate::options::MAJORITY;
use crate::pipeline::MIN_SAMPLES;

/// Returns the dominant value of `samples` if it reaches the [`MAJORITY`]
/// fraction and there are at least [`MIN_SAMPLES`] samples.
pub fn dominant_stride(samples: &[i64]) -> Option<i64> {
    if samples.len() < MIN_SAMPLES {
        return None;
    }
    let mut counts: HashMap<i64, usize> = HashMap::new();
    for &s in samples {
        *counts.entry(s).or_insert(0) += 1;
    }
    let (&best, &n) = counts.iter().max_by_key(|(_, &n)| n)?;
    if n as f64 >= MAJORITY * samples.len() as f64 {
        Some(best)
    } else {
        None
    }
}

/// Strides between successive executions of one load.
pub fn inter_iteration_samples(trace: &[(u32, Addr)]) -> Vec<i64> {
    trace
        .windows(2)
        .map(|w| w[1].1 as i64 - w[0].1 as i64)
        .collect()
}

/// Strides between paired executions of two loads within each iteration:
/// the k-th execution of `from` is paired with the k-th execution of `to`
/// in the same iteration.
pub fn intra_iteration_samples(from: &[(u32, Addr)], to: &[(u32, Addr)]) -> Vec<i64> {
    let mut out = Vec::new();
    let mut fi = 0usize;
    let mut ti = 0usize;
    while fi < from.len() && ti < to.len() {
        let (iter_f, _) = from[fi];
        let (iter_t, _) = to[ti];
        match iter_f.cmp(&iter_t) {
            std::cmp::Ordering::Less => fi += 1,
            std::cmp::Ordering::Greater => ti += 1,
            std::cmp::Ordering::Equal => {
                // Pair the runs of this iteration positionally.
                let fstart = fi;
                let tstart = ti;
                while fi < from.len() && from[fi].0 == iter_f {
                    fi += 1;
                }
                while ti < to.len() && to[ti].0 == iter_t {
                    ti += 1;
                }
                for k in 0..(fi - fstart).min(ti - tstart) {
                    out.push(to[tstart + k].1 as i64 - from[fstart + k].1 as i64);
                }
            }
        }
    }
    out
}

/// Annotates `ldg` with inter-iteration strides on nodes and
/// intra-iteration strides on edges, from the `traces` of one inspection.
pub fn annotate_ldg(ldg: &mut Ldg, traces: &HashMap<InstrRef, Vec<(u32, Addr)>>) {
    for id in ldg.node_ids().collect::<Vec<_>>() {
        let site = ldg.node(id).site;
        if let Some(trace) = traces.get(&site) {
            let samples = inter_iteration_samples(trace);
            let node = ldg.node_mut(id);
            node.samples = trace.len();
            node.inter_stride = dominant_stride(&samples);
        }
    }
    let sites: Vec<(InstrRef, InstrRef)> = ldg
        .edges()
        .iter()
        .map(|e| (ldg.node(e.from).site, ldg.node(e.to).site))
        .collect();
    for (edge, (from_site, to_site)) in (0..sites.len()).zip(sites) {
        let (Some(from), Some(to)) = (traces.get(&from_site), traces.get(&to_site)) else {
            continue;
        };
        let samples = intra_iteration_samples(from, to);
        ldg.edges_mut()[edge].intra_stride = dominant_stride(&samples);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominant_requires_majority() {
        assert_eq!(dominant_stride(&[8, 8, 8, 8]), Some(8));
        assert_eq!(dominant_stride(&[8, 8, 8, 4]), Some(8));
        assert_eq!(dominant_stride(&[8, 8, 4, 4]), None);
        assert_eq!(dominant_stride(&[8, 8, 8]), None, "too few");
        assert_eq!(dominant_stride(&[]), None);
    }

    #[test]
    fn inter_samples_are_differences() {
        let trace = vec![(0, 100), (1, 108), (2, 116), (3, 108)];
        assert_eq!(inter_iteration_samples(&trace), vec![8, 8, -8]);
    }

    #[test]
    fn intra_pairs_by_iteration_and_position() {
        // from executes once per iteration, to twice.
        let from = vec![(0, 1000), (1, 2000)];
        let to = vec![(0, 1040), (0, 1080), (1, 2040), (1, 2080)];
        assert_eq!(intra_iteration_samples(&from, &to), vec![40, 40]);
    }

    #[test]
    fn intra_skips_missing_iterations() {
        let from = vec![(0, 1000), (2, 3000)];
        let to = vec![(1, 9999), (2, 3016)];
        assert_eq!(intra_iteration_samples(&from, &to), vec![16]);
    }

    #[test]
    fn wu_weak_patterns_are_rejected() {
        // A phased multi-stride sequence (Wu et al.'s "phased
        // multiple-stride") is rejected by the single-stride detector, as
        // the paper's design intends ("we focus on discovering single
        // stride patterns", §5).
        let samples = vec![8, 8, 8, 32, 32, 32, 8, 8, 32, 32];
        assert_eq!(dominant_stride(&samples), None);
    }
}
