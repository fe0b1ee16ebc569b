//! **ASMS** — the approximate solver for the MS problem (Algorithm 2).
//!
//! Given a threshold `k`, find a small superset `Q ⊇ B` whose rank-regret
//! over the discretized vector set `D` is at most `k`. Lemma 2 reduces
//! this to set cover: the universe is `Dk` (the vectors whose top-k
//! contains no boundary tuple), and tuple `t` covers the vectors whose
//! top-k contains `t`. Chvátal's greedy yields the `1 + ln|Dk|` size
//! factor of Theorem 9.

use rrm_core::rank::batch_top_k;
use rrm_core::{Dataset, Parallelism};
use rrm_setcover::greedy_set_cover_capped;

/// Run ASMS for threshold `k`. Returns `B ∪ (greedy cover)`, sorted.
///
/// `basis` must be sorted; `dirs` is the discretized vector set `D`.
/// `candidate_mask`, when given, restricts which tuples may be *chosen* by
/// the cover (e.g. to skyline members — sound by Theorem 3); coverage
/// accounting is unaffected. The top-k scoring pass is chunked over
/// `pol`'s threads; the greedy cover itself is sequential (each pick
/// depends on the previous), so the output is identical at any count.
pub fn asms(
    data: &Dataset,
    k: usize,
    basis: &[u32],
    dirs: &[Vec<f64>],
    candidate_mask: Option<&[bool]>,
    pol: Parallelism,
) -> Vec<u32> {
    let topk = batch_top_k(data, dirs, k, pol);
    asms_with_topk(data.n(), k, basis, &topk, candidate_mask)
}

/// ASMS on precomputed top-k lists (each list's *prefix of length `k`* is
/// used, so one `top-K` computation serves every `k ≤ K` during HDRRM's
/// binary-search phase).
pub fn asms_with_topk(
    n: usize,
    k: usize,
    basis: &[u32],
    topk: &[Vec<u32>],
    candidate_mask: Option<&[bool]>,
) -> Vec<u32> {
    asms_with_topk_capped(n, k, basis, topk, candidate_mask, usize::MAX).q
}

/// One ASMS feasibility probe: the result set, whether the greedy cover
/// ran to completion, and how many cover picks it expanded.
pub struct AsmsProbe {
    /// `B ∪ (greedy picks)`, sorted and deduplicated. When `complete`,
    /// exactly the uncapped [`asms_with_topk`] output; when aborted, a
    /// strict prefix of it that already exceeds the cap.
    pub q: Vec<u32>,
    /// Whether the cover ran to completion (`false` = aborted past the
    /// pick cap, proving the full output is larger than `basis + cap`).
    pub complete: bool,
    /// Greedy cover picks expanded (search nodes).
    pub picks: u64,
}

/// ASMS with the greedy cover capped at `max_picks` choices — the
/// bound-and-prune feasibility probe used by the anytime HDRRM search.
///
/// Greedy picks are monotone and deterministic, so aborting once the
/// cover cannot fit the caller's size budget is decision-equivalent to
/// running it out: `complete == false` proves the uncapped output has
/// more than `basis.len() + max_picks` tuples, and a complete run returns
/// the identical set the uncapped call would. Chosen tuples never overlap
/// the basis (their directions' top-`k` misses it by construction), so
/// `q.len() == basis.len() + picks` whenever the run completes.
pub fn asms_with_topk_capped(
    n: usize,
    k: usize,
    basis: &[u32],
    topk: &[Vec<u32>],
    candidate_mask: Option<&[bool]>,
    max_picks: usize,
) -> AsmsProbe {
    debug_assert!(basis.windows(2).all(|w| w[0] < w[1]), "basis must be sorted");
    let mut in_basis = vec![false; n];
    for &b in basis {
        in_basis[b as usize] = true;
    }

    // Universe: directions whose top-k misses the basis (the set `Dk`).
    // Inverted lists: tuple -> universe element ids it covers.
    let mut lists: Vec<Vec<u32>> = Vec::new();
    let mut list_of_tuple: Vec<u32> = vec![u32::MAX; n];
    let mut tuple_of_list: Vec<u32> = Vec::new();
    let mut universe = 0u32;
    for list in topk {
        let prefix = &list[..k.min(list.len())];
        if prefix.iter().any(|&t| in_basis[t as usize]) {
            continue; // covered by B; not part of Dk
        }
        let push = |t: u32,
                    lists: &mut Vec<Vec<u32>>,
                    list_of_tuple: &mut Vec<u32>,
                    tuple_of_list: &mut Vec<u32>| {
            let li = list_of_tuple[t as usize];
            if li == u32::MAX {
                list_of_tuple[t as usize] = lists.len() as u32;
                tuple_of_list.push(t);
                lists.push(vec![universe]);
            } else {
                lists[li as usize].push(universe);
            }
        };
        let mut pushed_any = false;
        for &t in prefix {
            if let Some(mask) = candidate_mask {
                if !mask[t as usize] {
                    continue;
                }
            }
            push(t, &mut lists, &mut list_of_tuple, &mut tuple_of_list);
            pushed_any = true;
        }
        if !pushed_any {
            // Score ties can put only non-candidate tuples in a top-k
            // prefix (e.g. duplicated attribute maxima under axis-aligned
            // directions); keep this direction coverable by admitting its
            // own tuples regardless of the mask.
            for &t in prefix {
                push(t, &mut lists, &mut list_of_tuple, &mut tuple_of_list);
            }
        }
        universe += 1;
    }

    let (chosen, complete) = greedy_set_cover_capped(universe as usize, &lists, max_picks);
    let picks = chosen.len() as u64;
    let mut out: Vec<u32> = basis.to_vec();
    out.extend(chosen.into_iter().map(|li| tuple_of_list[li]));
    out.sort_unstable();
    out.dedup();
    AsmsProbe { q: out, complete, picks }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrm_core::{basis_indices, FullSpace};
    use rrm_data::synthetic::independent;

    use crate::discretize::build_vector_set;

    /// Rank-regret of `set` over exactly the given directions (the
    /// quantity ASMS certifies: `∇D(Q) ≤ k`).
    fn regret_over_dirs(data: &Dataset, set: &[u32], dirs: &[Vec<f64>]) -> usize {
        dirs.iter().map(|u| rrm_core::rank::rank_regret_of_set(data, u, set)).max().unwrap()
    }

    #[test]
    fn output_contains_basis_and_meets_threshold() {
        let data = independent(400, 3, 11);
        let basis = basis_indices(&data);
        let disc = build_vector_set(3, &FullSpace::new(3), 300, 4, 1);
        for k in [1usize, 3, 10, 50] {
            let q = asms(&data, k, &basis, &disc.dirs, None, Parallelism::Auto);
            for b in &basis {
                assert!(q.contains(b), "k={k}: basis tuple {b} missing");
            }
            let reg = regret_over_dirs(&data, &q, &disc.dirs);
            assert!(reg <= k, "k={k}: ∇D(Q) = {reg}");
        }
    }

    #[test]
    fn size_shrinks_as_k_grows() {
        let data = independent(500, 4, 12);
        let basis = basis_indices(&data);
        let disc = build_vector_set(4, &FullSpace::new(4), 400, 4, 2);
        let small_k = asms(&data, 2, &basis, &disc.dirs, None, Parallelism::Auto).len();
        let large_k = asms(&data, 60, &basis, &disc.dirs, None, Parallelism::Auto).len();
        assert!(
            large_k <= small_k,
            "larger thresholds need no more tuples: k=2 -> {small_k}, k=60 -> {large_k}"
        );
    }

    #[test]
    fn prefix_reuse_equals_direct_computation() {
        let data = independent(300, 3, 13);
        let basis = basis_indices(&data);
        let disc = build_vector_set(3, &FullSpace::new(3), 200, 3, 3);
        let top10 = batch_top_k(&data, &disc.dirs, 10, Parallelism::Auto);
        for k in [1usize, 4, 7, 10] {
            let via_prefix = asms_with_topk(data.n(), k, &basis, &top10, None);
            let direct = asms(&data, k, &basis, &disc.dirs, None, Parallelism::Auto);
            assert_eq!(via_prefix, direct, "k={k}");
        }
    }

    #[test]
    fn skyline_candidate_mask_still_covers() {
        let data = independent(400, 3, 14);
        let basis = basis_indices(&data);
        let disc = build_vector_set(3, &FullSpace::new(3), 300, 3, 4);
        let sky = rrm_skyline::skyline(&data);
        let mut mask = vec![false; data.n()];
        for &s in &sky {
            mask[s as usize] = true;
        }
        let q = asms(&data, 3, &basis, &disc.dirs, Some(&mask), Parallelism::Auto);
        assert!(regret_over_dirs(&data, &q, &disc.dirs) <= 3);
        // Chosen non-basis tuples are all skyline members.
        for &t in &q {
            assert!(mask[t as usize] || basis.contains(&t));
        }
    }

    #[test]
    fn capped_probe_is_decision_equivalent() {
        let data = independent(400, 3, 17);
        let basis = basis_indices(&data);
        let disc = build_vector_set(3, &FullSpace::new(3), 300, 4, 6);
        let topk = batch_top_k(&data, &disc.dirs, 10, Parallelism::Auto);
        for k in [1usize, 3, 10] {
            let full = asms_with_topk(data.n(), k, &basis, &topk, None);
            let uncapped_picks = full.len() - basis.len();
            for r in [basis.len(), basis.len() + 1, full.len().saturating_sub(1), full.len()] {
                let cap = r - basis.len();
                let probe = asms_with_topk_capped(data.n(), k, &basis, &topk, None, cap);
                // The "fits in r" decision matches the uncapped run.
                assert_eq!(probe.complete && probe.q.len() <= r, full.len() <= r, "k={k} r={r}");
                if probe.complete {
                    assert_eq!(probe.q, full, "k={k} r={r}");
                }
                assert!(probe.picks <= uncapped_picks as u64 + 1, "k={k} r={r}");
            }
        }
    }

    #[test]
    fn k_equals_n_returns_just_basis() {
        let data = independent(50, 3, 15);
        let basis = basis_indices(&data);
        let disc = build_vector_set(3, &FullSpace::new(3), 100, 3, 5);
        let q = asms(&data, 50, &basis, &disc.dirs, None, Parallelism::Auto);
        assert_eq!(q, basis, "at k = n the universe Dk is empty");
    }

    #[test]
    fn empty_dirs_gives_basis() {
        let data = independent(20, 2, 16);
        let basis = basis_indices(&data);
        let q = asms(&data, 1, &basis, &[], None, Parallelism::Auto);
        assert_eq!(q, basis);
    }
}
