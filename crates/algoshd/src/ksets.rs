//! k-set enumeration (the combinatorial engine of MDRRR).
//!
//! A *k-set* is a size-`k` subset realizable as the top-k `Φk(u, D)` of
//! some direction `u` in the non-negative orthant. The direction space
//! decomposes into cells (one per k-set); neighbouring cells differ by
//! swapping one tuple in/out, and the cell graph is connected, so BFS from
//! any realized k-set with an LP feasibility check per candidate neighbour
//! enumerates them all. This matches the paper's
//! `O(|W|·k·n·LP(d,n))` bound for MDRRR — and its warning that `|W|`'s
//! super-linear growth (`n^{d-1}·e^{Ω(√log n)}` lower bound) makes the
//! approach impractical beyond a few hundred tuples.

use std::collections::{HashSet, VecDeque};

use rrm_core::{rank, utility, Dataset, ExecPolicy, RrmError};
use rrm_lp::cone::strict_feasibility_margin;

/// Margin below which a k-set region is treated as empty (boundary-only).
const STRICT_TOL: f64 = 1e-7;

/// Resource limits for the enumeration.
#[derive(Debug, Clone, Copy)]
pub struct KsetLimits {
    /// Stop after this many k-sets (`complete = false`).
    pub max_ksets: usize,
    /// Stop after this many LP feasibility checks.
    pub max_lp_calls: usize,
    /// Data-parallelism for the per-node LP feasibility batch (the
    /// enumeration's dominant cost). The BFS order, the enumerated family
    /// and the `complete` flag are identical at any thread count.
    pub exec: ExecPolicy,
}

impl Default for KsetLimits {
    fn default() -> Self {
        Self { max_ksets: 50_000, max_lp_calls: 2_000_000, exec: ExecPolicy::default() }
    }
}

/// Result of the enumeration.
#[derive(Debug, Clone)]
pub struct KsetEnumeration {
    /// Each k-set as a sorted tuple-index list.
    pub ksets: Vec<Vec<u32>>,
    /// Whether the BFS exhausted the region graph within the limits.
    pub complete: bool,
    /// Number of LP feasibility checks performed.
    pub lp_calls: usize,
    /// Why the walk stopped short of a proved family other than a limit:
    /// attribute differences that overflow `f64`, or a region LP that
    /// round-off left undecided. Such an LP neither admits nor rejects its
    /// candidate, so `complete` is then `false` and the family proves
    /// nothing.
    pub error: Option<RrmError>,
}

/// Enumerate the k-sets of `data` over the cone `{u ≥ 0, cone_rows·u ≥ 0}`.
///
/// The seed k-set is the top-k of an interior direction of the cone; BFS
/// then explores single-swap neighbours, validating each candidate region
/// with an exact LP (`u` on the simplex slice, every member beating every
/// non-member by a positive margin). The region LP of a k-set has
/// `k·(n−k)` homogeneous rows and starts its simplex with one artificial
/// column.
pub fn enumerate_ksets(
    data: &Dataset,
    k: usize,
    cone_rows: &[Vec<f64>],
    limits: KsetLimits,
) -> KsetEnumeration {
    let n = data.n();
    let d = data.dim();
    assert!(k >= 1 && k <= n);
    if k == n {
        return KsetEnumeration {
            ksets: vec![(0..n as u32).collect()],
            complete: true,
            lp_calls: 0,
            error: None,
        };
    }
    let failed = |error| KsetEnumeration {
        ksets: Vec::new(),
        complete: false,
        lp_calls: 0,
        error: Some(error),
    };
    if let Err(error) = check_differences(data) {
        return failed(error);
    }

    // Interior seed direction: the all-ones direction nudged into the cone
    // when restricted (weak rankings etc. all contain it; fall back to an
    // LP witness otherwise).
    let seed_dir = match interior_direction(d, cone_rows) {
        Ok(u) => u,
        Err(error) => return failed(error),
    };
    let scores = utility::utilities(data, &seed_dir);
    let mut seed: Vec<u32> = rank::top_k(&scores, k).indices;
    seed.sort_unstable();

    let mut visited: HashSet<Vec<u32>> = HashSet::new();
    let mut queue: VecDeque<Vec<u32>> = VecDeque::new();
    let mut out: Vec<Vec<u32>> = Vec::new();
    visited.insert(seed.clone());
    queue.push_back(seed.clone());
    out.push(seed);
    let mut lp_calls = 0usize;
    let mut complete = true;
    let mut error = None;
    let pol = limits.exec.parallelism;

    'bfs: while let Some(t_set) = queue.pop_front() {
        let in_set = {
            let mut m = vec![false; n];
            for &t in &t_set {
                m[t as usize] = true;
            }
            m
        };
        // All unvisited single-swap neighbours of this node, in the
        // deterministic (leave, enter) order the sequential walk used.
        // Distinct pairs always yield distinct candidates, so collecting
        // before the visited-set updates preserves the sequential
        // semantics exactly.
        let mut cands: Vec<Vec<u32>> = Vec::new();
        for &leave in &t_set {
            for enter in 0..n as u32 {
                if in_set[enter as usize] {
                    continue;
                }
                let mut cand: Vec<u32> = t_set.iter().copied().filter(|&t| t != leave).collect();
                cand.push(enter);
                cand.sort_unstable();
                if !visited.contains(&cand) {
                    cands.push(cand);
                }
            }
        }
        // LP feasibility in parallel waves. Each wave is bounded by BOTH
        // remaining budgets — LP calls and k-set headroom — so a wave
        // never runs an LP the capped sequential walk would have skipped
        // (feasible picks per wave fit the headroom by construction, and
        // infeasible candidates never consume headroom). Wave composition
        // depends only on the budgets, never on the thread count, and
        // results are applied in candidate order, so the enumeration is
        // bit-identical at any parallelism.
        let mut idx = 0usize;
        while idx < cands.len() {
            if lp_calls >= limits.max_lp_calls || out.len() >= limits.max_ksets {
                complete = false;
                break 'bfs;
            }
            let wave = (limits.max_lp_calls - lp_calls).min(limits.max_ksets - out.len());
            let batch_end = (idx + wave).min(cands.len());
            let batch = &cands[idx..batch_end];
            lp_calls += batch.len();
            let feasible =
                rrm_par::par_map(batch, pol, |cand| region_nonempty(data, cand, cone_rows));
            for (cand, ok) in batch.iter().zip(feasible) {
                let ok = match ok {
                    Ok(ok) => ok,
                    Err(e) => {
                        error = Some(e);
                        complete = false;
                        break 'bfs;
                    }
                };
                if ok {
                    visited.insert(cand.clone());
                    queue.push_back(cand.clone());
                    out.push(cand.clone());
                } else {
                    visited.insert(cand.clone());
                }
            }
            idx = batch_end;
        }
    }
    KsetEnumeration { ksets: out, complete, lp_calls, error }
}

/// The region LPs' rows are attribute differences; where one overflows to
/// ±∞ no LP over them means anything. A difference overflows exactly when
/// its attribute's range does.
fn check_differences(data: &Dataset) -> Result<(), RrmError> {
    for j in 0..data.dim() {
        let (lo, hi) = data.rows().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), row| {
            (lo.min(row[j]), hi.max(row[j]))
        });
        if !(hi - lo).is_finite() {
            return Err(RrmError::Numerical(format!(
                "attribute {j} spans [{lo:e}, {hi:e}], so k-set region rows overflow f64"
            )));
        }
    }
    Ok(())
}

/// Is there a direction in the cone for which every member of `t_set`
/// strictly outscores every non-member? A region LP that round-off left
/// undecided is an error, never a "no": a dropped k-set would void the
/// enumeration's certificate. One whose margin round-off lost after phase
/// one proved the closed region non-empty (an infinite margin) is a "yes":
/// `t_set` is then a top-k set under ties, and a surplus set only asks the
/// hitting set for more.
fn region_nonempty(
    data: &Dataset,
    t_set: &[u32],
    cone_rows: &[Vec<f64>],
) -> Result<bool, RrmError> {
    let n = data.n();
    let d = data.dim();
    let mut member = vec![false; n];
    for &t in t_set {
        member[t as usize] = true;
    }
    let mut strict_rows = Vec::with_capacity(t_set.len() * (n - t_set.len()));
    for &a in t_set {
        let ra = data.row(a as usize);
        for (b, &is_member) in member.iter().enumerate() {
            if is_member {
                continue;
            }
            let rb = data.row(b);
            let row: Vec<f64> = (0..d).map(|j| ra[j] - rb[j]).collect();
            strict_rows.push(row);
        }
    }
    match strict_feasibility_margin(d, &strict_rows, cone_rows) {
        Ok(margin) => Ok(matches!(margin, Some(z) if z > STRICT_TOL)),
        Err(e) => Err(RrmError::Numerical(format!("k-set region LP of {t_set:?}: {e}"))),
    }
}

/// An interior direction of the cone (uniform direction when it fits,
/// otherwise an LP witness pushed off every facet).
fn interior_direction(d: usize, cone_rows: &[Vec<f64>]) -> Result<Vec<f64>, RrmError> {
    let uniform = vec![1.0 / (d as f64).sqrt(); d];
    if cone_rows.iter().all(|row| utility::dot(row, &uniform) >= 0.0) {
        return Ok(uniform);
    }
    rrm_lp::cone::strict_feasibility_witness(d, cone_rows, &[], 1e-9)
        .ok_or_else(|| RrmError::InvalidSpace("the cone has no interior direction".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rrm_core::sampling::orthant_direction;
    use rrm_core::{FullSpace, UtilitySpace, WeakRankingSpace};
    use rrm_data::synthetic::independent;

    /// Brute-force reference: distinct top-k sets over many sampled
    /// directions (a subset of the true k-set family).
    fn sampled_ksets(
        data: &Dataset,
        k: usize,
        space: &dyn UtilitySpace,
        samples: usize,
        seed: u64,
    ) -> HashSet<Vec<u32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut found = HashSet::new();
        for _ in 0..samples {
            let u = space.sample_direction(&mut rng);
            let scores = utility::utilities(data, &u);
            let mut t = rank::top_k(&scores, k).indices;
            t.sort_unstable();
            found.insert(t);
        }
        found
    }

    #[test]
    fn finds_all_sampled_ksets_full_space() {
        let data = independent(25, 3, 31);
        for k in [1usize, 2, 4] {
            let enumerated = enumerate_ksets(&data, k, &[], KsetLimits::default());
            assert!(enumerated.complete);
            let set: HashSet<Vec<u32>> = enumerated.ksets.iter().cloned().collect();
            let sampled = sampled_ksets(&data, k, &FullSpace::new(3), 5000, 32);
            for s in &sampled {
                assert!(set.contains(s), "k={k}: sampled k-set {s:?} not enumerated");
            }
            // The enumeration may contain more (sampling missed some) but
            // never fewer.
            assert!(set.len() >= sampled.len());
        }
    }

    #[test]
    fn every_enumerated_kset_is_realizable() {
        // Soundness: every returned k-set must actually be a top-k set of
        // some direction (the LP said so; cross-check geometrically).
        let data = independent(15, 2, 33);
        let e = enumerate_ksets(&data, 3, &[], KsetLimits::default());
        assert!(e.complete);
        for t_set in &e.ksets {
            assert_eq!(
                region_nonempty(&data, t_set, &[]),
                Ok(true),
                "{t_set:?} should have a non-empty region"
            );
        }
    }

    #[test]
    fn restricted_cone_enumerates_fewer() {
        let data = independent(20, 3, 34);
        let full = enumerate_ksets(&data, 3, &[], KsetLimits::default());
        let rows = WeakRankingSpace::new(3, 2).cone_rows().unwrap();
        let restricted = enumerate_ksets(&data, 3, &rows, KsetLimits::default());
        assert!(restricted.complete);
        assert!(
            restricted.ksets.len() <= full.ksets.len(),
            "restricted {} vs full {}",
            restricted.ksets.len(),
            full.ksets.len()
        );
        // All sampled restricted k-sets are found.
        let sampled = sampled_ksets(&data, 3, &WeakRankingSpace::new(3, 2), 3000, 35);
        let set: HashSet<Vec<u32>> = restricted.ksets.iter().cloned().collect();
        for s in &sampled {
            assert!(set.contains(s));
        }
    }

    #[test]
    fn k_equals_n_is_trivial() {
        let data = independent(8, 2, 36);
        let e = enumerate_ksets(&data, 8, &[], KsetLimits::default());
        assert_eq!(e.ksets.len(), 1);
        assert_eq!(e.ksets[0].len(), 8);
    }

    #[test]
    fn limits_truncate_gracefully() {
        let data = independent(40, 3, 37);
        let e = enumerate_ksets(
            &data,
            5,
            &[],
            KsetLimits { max_ksets: 3, max_lp_calls: 1_000_000, ..Default::default() },
        );
        assert!(!e.complete);
        assert!(e.ksets.len() <= 3 + 1); // seed + up to limit
    }

    #[test]
    fn kset_enumeration_work_grows_with_n() {
        // The scalability wall: enumeration *work* (LP feasibility checks)
        // grows quickly with n. The raw k-set count is not monotone at
        // small n (a few strong tuples can dominate the top-k almost
        // everywhere), so the work is the robust signal.
        let small = enumerate_ksets(&independent(10, 3, 38), 3, &[], KsetLimits::default());
        let large = enumerate_ksets(&independent(20, 3, 38), 3, &[], KsetLimits::default());
        assert!(small.complete && large.complete);
        assert!(!small.ksets.is_empty() && !large.ksets.is_empty());
        assert!(
            large.lp_calls > 2 * small.lp_calls,
            "n = 20 took {} LP calls vs {} at n = 10",
            large.lp_calls,
            small.lp_calls
        );
    }

    #[test]
    fn interior_direction_respects_cone() {
        let rows = WeakRankingSpace::new(4, 2).cone_rows().unwrap();
        let u = interior_direction(4, &rows).unwrap();
        for row in &rows {
            assert!(utility::dot(row, &u) >= 0.0);
        }
        let _ = orthant_direction(3, &mut StdRng::seed_from_u64(0)); // silence unused import on some cfgs
    }

    /// The k = 2 enumerations of fixed inputs, family in BFS order: any
    /// change to the LP or the walk that adds, drops or reorders a k-set,
    /// or spends a different number of LP calls, fails here.
    #[test]
    fn pinned_enumerations() {
        let full: [(u64, usize, &[[u32; 2]]); 3] = [
            (1, 110, &[[9, 17], [3, 17], [3, 9], [4, 9], [9, 21], [4, 21], [16, 21]]),
            (2, 125, &[[3, 4], [2, 4], [4, 10], [4, 14], [4, 20], [1, 3]]),
            (3, 125, &[[8, 20], [2, 20], [11, 20], [6, 8], [8, 9], [8, 11], [3, 11]]),
        ];
        let weak = WeakRankingSpace::new(3, 2).cone_rows().unwrap();
        let cases = full
            .iter()
            .map(|&(seed, calls, family)| (seed, &[][..], calls, family))
            .chain([(4, &weak[..], 94, &[[12, 14], [1, 12], [9, 12], [12, 17], [1, 9]][..])]);
        for (seed, cone, calls, family) in cases {
            let e = enumerate_ksets(&independent(22, 3, seed), 2, cone, KsetLimits::default());
            let family: Vec<Vec<u32>> = family.iter().map(|s| s.to_vec()).collect();
            assert_eq!(e.ksets, family, "seed {seed}");
            assert_eq!(e.lp_calls, calls, "seed {seed}");
            assert!(e.complete, "seed {seed}");
        }
    }
}
