//! Greedy set cover (Chvátal 1979) with lazy evaluation.
//!
//! The universe is `0..universe_size`; each candidate set is a list of
//! element ids. The greedy algorithm repeatedly takes the set covering the
//! most still-uncovered elements, achieving a `1 + ln(universe)` size
//! approximation — the bound Theorem 9 inherits.
//!
//! The lazy variant keeps stale coverage counts in a max-heap and
//! recomputes a count only when a set reaches the top. Because coverage
//! counts only decrease as elements get covered, the first entry whose
//! recomputed count equals its stale key is the true maximum. This is the
//! standard submodular-maximization trick and cuts the `O(|U|·|V|)` naive
//! cost down to roughly the total size of the inputs for typical instances.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Greedy set cover with lazy evaluation.
///
/// Returns the indices of chosen sets, in pick order.
///
/// # Panics
/// Panics when some universe element is covered by no set (the instances
/// built by ASMS always cover: every vector is covered by its own top-1
/// tuple).
pub fn greedy_set_cover(universe_size: usize, sets: &[Vec<u32>]) -> Vec<usize> {
    greedy_set_cover_capped(universe_size, sets, usize::MAX).0
}

/// Greedy set cover that aborts once more than `cap` sets have been chosen.
///
/// Greedy picks are monotone and deterministic, so the first `cap + 1` picks
/// of the capped run are exactly the first `cap + 1` picks of the uncapped
/// run. Callers that only need to decide "does the greedy cover fit in `cap`
/// sets?" can therefore abort early without changing the decision — the
/// prune used by the anytime feasibility probes.
///
/// Returns `(chosen, complete)`: `complete` is `false` iff the run aborted
/// because `chosen.len()` exceeded `cap` (the returned prefix then has
/// `cap + 1` picks, proving the full cover is larger than `cap`).
///
/// A wrapper over [`greedy_set_cover_csr`], which callers that build their
/// sets in one flat buffer use directly.
///
/// # Panics
/// Panics when some uncovered universe element is covered by no set before
/// the cap is hit (the instances built by ASMS always cover: every vector is
/// covered by its own top-1 tuple).
pub fn greedy_set_cover_capped(
    universe_size: usize,
    sets: &[Vec<u32>],
    cap: usize,
) -> (Vec<usize>, bool) {
    let mut offsets = Vec::with_capacity(sets.len() + 1);
    offsets.push(0);
    let mut elems = Vec::with_capacity(sets.iter().map(Vec::len).sum());
    for set in sets {
        elems.extend_from_slice(set);
        offsets.push(elems.len());
    }
    greedy_set_cover_csr(universe_size, &offsets, &elems, cap)
}

/// [`greedy_set_cover_capped`] over sets in compressed rows: set `i` holds
/// `elems[offsets[i]..offsets[i + 1]]`, so `offsets` has one entry more
/// than there are sets, starts at 0 and ends at `elems.len()`.
///
/// The picks are those [`greedy_set_cover_capped`] makes on the same sets
/// as `Vec`s: the set covering the most uncovered elements, ties to the
/// smallest set index.
///
/// # Panics
/// As [`greedy_set_cover_capped`].
pub fn greedy_set_cover_csr(
    universe_size: usize,
    offsets: &[usize],
    elems: &[u32],
    cap: usize,
) -> (Vec<usize>, bool) {
    if universe_size == 0 {
        return (Vec::new(), true);
    }
    let set = |i: usize| &elems[offsets[i]..offsets[i + 1]];
    let mut covered = vec![false; universe_size];
    let mut remaining = universe_size;
    // Heap of (stale_count, Reverse(set_index)): ties on count prefer the
    // smallest index, making the pick sequence identical to the naive
    // reference implementation.
    let mut heap: BinaryHeap<(usize, Reverse<usize>)> = offsets
        .windows(2)
        .enumerate()
        .filter(|(_, w)| w[1] > w[0])
        .map(|(i, w)| (w[1] - w[0], Reverse(i)))
        .collect();
    let mut chosen = Vec::new();

    while remaining > 0 {
        if chosen.len() > cap {
            return (chosen, false);
        }
        let Some((stale, Reverse(i))) = heap.pop() else {
            panic!("set-cover instance is infeasible: {remaining} elements uncoverable");
        };
        // Recompute the true residual coverage of set i.
        let fresh = set(i).iter().filter(|&&e| !covered[e as usize]).count();
        if fresh == 0 {
            continue;
        }
        if fresh < stale {
            // Another set may now be better; push back with the true count.
            heap.push((fresh, Reverse(i)));
            continue;
        }
        // fresh == stale: counts only decrease, so i is the true maximum.
        chosen.push(i);
        for &e in set(i) {
            if !covered[e as usize] {
                covered[e as usize] = true;
                remaining -= 1;
            }
        }
    }
    (chosen, true)
}

/// Textbook greedy without lazy evaluation — `O(rounds · Σ|set|)`. Kept as
/// the reference implementation the tests check the lazy variant against.
pub fn naive_greedy_set_cover(universe_size: usize, sets: &[Vec<u32>]) -> Vec<usize> {
    if universe_size == 0 {
        return Vec::new();
    }
    let mut covered = vec![false; universe_size];
    let mut remaining = universe_size;
    let mut chosen = Vec::new();
    while remaining > 0 {
        let mut best = usize::MAX;
        let mut best_count = 0;
        for (i, s) in sets.iter().enumerate() {
            let c = s.iter().filter(|&&e| !covered[e as usize]).count();
            if c > best_count {
                best_count = c;
                best = i;
            }
        }
        assert!(best != usize::MAX, "set-cover instance is infeasible");
        chosen.push(best);
        for &e in &sets[best] {
            if !covered[e as usize] {
                covered[e as usize] = true;
                remaining -= 1;
            }
        }
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn covers(universe: usize, sets: &[Vec<u32>], chosen: &[usize]) -> bool {
        let mut covered = vec![false; universe];
        for &i in chosen {
            for &e in &sets[i] {
                covered[e as usize] = true;
            }
        }
        covered.into_iter().all(|c| c)
    }

    #[test]
    fn simple_instance() {
        let sets = vec![vec![0, 1, 2], vec![2, 3], vec![3, 4], vec![0, 4]];
        let c = greedy_set_cover(5, &sets);
        assert!(covers(5, &sets, &c));
        assert!(c.len() <= 3);
    }

    #[test]
    fn greedy_picks_biggest_first() {
        let sets = vec![vec![0], vec![0, 1, 2, 3], vec![4]];
        let c = greedy_set_cover(5, &sets);
        assert_eq!(c[0], 1);
        assert!(covers(5, &sets, &c));
    }

    #[test]
    fn empty_universe() {
        assert!(greedy_set_cover(0, &[vec![0]]).is_empty());
        assert!(naive_greedy_set_cover(0, &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "infeasible")]
    fn infeasible_instance_panics() {
        greedy_set_cover(3, &[vec![0, 1]]);
    }

    #[test]
    fn duplicate_elements_in_a_set() {
        let sets = vec![vec![0, 0, 1], vec![1, 2]];
        let c = greedy_set_cover(3, &sets);
        assert!(covers(3, &sets, &c));
    }

    #[test]
    fn lazy_matches_naive_cover_size_on_random_instances() {
        // The two variants may pick different (tie-broken) sets, but both
        // must produce valid covers; on tie-free instances the sizes agree.
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..50 {
            let universe = rng.random_range(1..80);
            let nsets = rng.random_range(1..40);
            let mut sets: Vec<Vec<u32>> = (0..nsets)
                .map(|_| {
                    let len = rng.random_range(1..=universe);
                    (0..len).map(|_| rng.random_range(0..universe as u32)).collect()
                })
                .collect();
            // Guarantee feasibility.
            sets.push((0..universe as u32).collect());
            let lazy = greedy_set_cover(universe, &sets);
            let naive = naive_greedy_set_cover(universe, &sets);
            assert!(covers(universe, &sets, &lazy), "trial {trial}");
            assert!(covers(universe, &sets, &naive), "trial {trial}");
            // Identical tie-breaking (smallest index among maxima) makes
            // the two executions pick the exact same sequence.
            assert_eq!(lazy, naive, "trial {trial}");
        }
    }

    #[test]
    fn capped_run_is_a_prefix_of_the_uncapped_run() {
        let mut rng = StdRng::seed_from_u64(11);
        for trial in 0..30 {
            let universe = rng.random_range(1..80);
            let nsets = rng.random_range(1..40);
            let mut sets: Vec<Vec<u32>> = (0..nsets)
                .map(|_| {
                    let len = rng.random_range(1..=universe);
                    (0..len).map(|_| rng.random_range(0..universe as u32)).collect()
                })
                .collect();
            sets.push((0..universe as u32).collect());
            let (full, complete) = greedy_set_cover_capped(universe, &sets, usize::MAX);
            assert!(complete, "trial {trial}");
            for cap in 0..=full.len() {
                let (capped, ok) = greedy_set_cover_capped(universe, &sets, cap);
                if ok {
                    // A complete run always reproduces the uncapped cover,
                    // even when its last pick lands past the cap.
                    assert_eq!(capped, full, "trial {trial} cap {cap}");
                } else {
                    assert_eq!(capped.len(), cap + 1, "trial {trial} cap {cap}");
                    assert_eq!(capped, full[..cap + 1], "trial {trial} cap {cap}");
                }
                // The feasibility decision "cover fits in cap sets" is
                // unchanged by the abort.
                assert_eq!(capped.len() <= cap, full.len() <= cap, "trial {trial} cap {cap}");
            }
        }
    }

    #[test]
    fn approximation_ratio_on_known_optimum() {
        // Universe 0..8, optimum is 2 disjoint sets; greedy must stay
        // within 1 + ln(8) ≈ 3.08 of it.
        let sets = vec![
            vec![0, 1, 2, 3],
            vec![4, 5, 6, 7],
            vec![0, 4],
            vec![1, 5],
            vec![2, 6],
            vec![3, 7],
        ];
        let c = greedy_set_cover(8, &sets);
        assert!(covers(8, &sets, &c));
        assert!(c.len() <= 6); // (1 + ln 8) * 2 ≈ 6.2
    }
}
