//! The anytime bound-and-prune core shared by the hard HD solvers.
//!
//! [`threshold_search`] is the doubling-then-binary threshold search that
//! HDRRM, MDRRR and MDRRRr all run, restructured around an
//! [`AnytimeSearch`]: before every probe the driver checks the budget's
//! limits, and on an early stop it reports the certified lower bound
//! reached so the caller can return its incumbent with sound [`Bounds`]
//! instead of failing. Probe closures stay in charge of domain work —
//! computing the candidate set, accounting expanded nodes, offering
//! incumbents — so each solver's probe sequence is exactly what it was
//! before the refactor: without limits the driver performs the same
//! probes in the same order and returns the same best threshold, bit for
//! bit.

use rrm_core::rank::rank_regret_of_set;
use rrm_core::{AnytimeSearch, Bounds, Dataset, Parallelism, RrmError, TerminatedBy};

/// Outcome of an anytime threshold search.
pub(crate) struct ThresholdOutcome<T> {
    /// Smallest feasible threshold reached and its payload (the probe's
    /// candidate set), when one was found before a limit stopped it.
    pub best: Option<(usize, T)>,
    /// Certified lower bound: every threshold below this was proven
    /// infeasible.
    pub lower: usize,
    /// Why the search returned.
    pub terminated: TerminatedBy,
}

/// The doubling + binary threshold search with in-loop limit checks.
///
/// `probe(k, lower, search)` answers one threshold: `Ok(Some(payload))`
/// when feasible, `Ok(None)` when infeasible (possibly proven by an
/// aborted, pruned cover). `lower` is the certified lower bound at probe
/// time, for incumbent curve stamping. The driver consumes one probe of
/// the deterministic budget per call and counts it as a search node;
/// the closure accounts any further nodes it expands.
///
/// Infeasibility at `k = n` ends the search with `best: None` — reachable
/// only for enumeration-truncated probes (MDRRR); the geometric solvers'
/// probes are always feasible at `k = n`.
pub(crate) fn threshold_search<T>(
    n: usize,
    search: &mut AnytimeSearch,
    mut probe: impl FnMut(usize, usize, &mut AnytimeSearch) -> Result<Option<T>, RrmError>,
) -> Result<ThresholdOutcome<T>, RrmError> {
    let mut prev_k = 0usize;
    let mut k = 1usize;
    let best: (usize, T);
    // Doubling phase: find some feasible threshold.
    loop {
        let lower = prev_k + 1;
        let upper = search.incumbent.upper().unwrap_or(n.max(1));
        if let Some(t) = search.should_stop(Bounds { lower, upper }) {
            return Ok(ThresholdOutcome { best: None, lower, terminated: t });
        }
        let _ = search.take_probe();
        search.note_node();
        match probe(k, lower, search)? {
            Some(payload) => {
                best = (k, payload);
                break;
            }
            None => {
                if k >= n {
                    return Ok(ThresholdOutcome {
                        best: None,
                        lower: n,
                        terminated: TerminatedBy::Completed,
                    });
                }
                prev_k = k;
                k = (k * 2).min(n);
            }
        }
    }
    // Binary phase over the last doubling gap (prev_k, k].
    let (mut best_k, mut best_payload) = best;
    let mut lo = prev_k + 1;
    let mut hi = best_k;
    while lo < hi {
        let upper = search.incumbent.upper().unwrap_or(best_k);
        if let Some(t) = search.should_stop(Bounds { lower: lo, upper }) {
            return Ok(ThresholdOutcome {
                best: Some((best_k, best_payload)),
                lower: lo,
                terminated: t,
            });
        }
        let _ = search.take_probe();
        let mid = lo + (hi - lo) / 2;
        search.note_node();
        match probe(mid, lo, search)? {
            Some(payload) => {
                best_k = mid;
                best_payload = payload;
                hi = mid;
            }
            None => lo = mid + 1,
        }
    }
    Ok(ThresholdOutcome {
        best: Some((best_k, best_payload)),
        lower: lo,
        terminated: TerminatedBy::Completed,
    })
}

/// Maximum rank-regret of `set` over `dirs`, chunked over `pol`'s worker
/// threads (`max` commutes, so the result is identical at any thread
/// count). This *measures* a sound frame-relative upper bound for an
/// incumbent candidate in one scoring pass.
pub(crate) fn regret_over_dirs(
    data: &Dataset,
    set: &[u32],
    dirs: &[Vec<f64>],
    pol: Parallelism,
) -> usize {
    if dirs.is_empty() {
        return 0;
    }
    let chunk = rrm_par::adaptive_chunk(dirs.len(), data.n() * data.dim());
    let per_chunk = rrm_par::par_chunks(dirs, chunk, pol, |_, dirs_chunk| {
        dirs_chunk.iter().map(|u| rank_regret_of_set(data, u, set)).max().unwrap_or(0)
    });
    per_chunk.into_iter().max().unwrap_or(0)
}

/// A deterministic fallback representative: `seed` tuples (a basis, or
/// nothing) topped up to `r` with the best scorers under the uniform
/// direction. Offered as the first incumbent when the search is limited,
/// so every early stop has *something* sound to return.
pub(crate) fn uniform_top_set(data: &Dataset, seed: &[u32], r: usize) -> Vec<u32> {
    let n = data.n();
    let u = vec![1.0; data.dim()];
    let scores = rrm_core::utility::utilities(data, &u);
    let order = rrm_core::rank::argsort_desc(&scores);
    let mut set: Vec<u32> = seed.to_vec();
    let mut in_set = vec![false; n];
    for &s in seed {
        in_set[s as usize] = true;
    }
    for &t in &order {
        if set.len() >= r.min(n).max(1) {
            break;
        }
        if !in_set[t as usize] {
            in_set[t as usize] = true;
            set.push(t);
        }
    }
    set.sort_unstable();
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrm_core::Budget;
    use rrm_data::synthetic::independent;

    /// Feasibility oracle "k >= target" — the driver must find `target`.
    fn run(n: usize, target: usize, search: &mut AnytimeSearch) -> ThresholdOutcome<usize> {
        threshold_search(n, search, |k, _lower, s| {
            if k >= target {
                s.offer(vec![0], k, 1);
                Ok(Some(k))
            } else {
                Ok(None)
            }
        })
        .unwrap()
    }

    #[test]
    fn finds_the_smallest_feasible_threshold() {
        for target in [1usize, 2, 3, 7, 40, 100] {
            let mut s = AnytimeSearch::unlimited();
            let out = run(100, target, &mut s);
            assert_eq!(out.terminated, TerminatedBy::Completed);
            assert_eq!(out.best.unwrap().0, target, "target {target}");
            assert_eq!(out.lower, target);
        }
    }

    #[test]
    fn counter_budget_stops_with_sound_lower_bound() {
        for budget in 0..12 {
            let limits = Budget { max_enumerations: Some(budget), ..Budget::UNLIMITED };
            let mut s = AnytimeSearch::new(&limits, Some(budget));
            let out = run(100, 70, &mut s);
            if out.terminated == TerminatedBy::Completed {
                assert_eq!(out.best.as_ref().unwrap().0, 70);
            } else {
                assert_eq!(out.terminated, TerminatedBy::Counter);
                assert!(out.lower <= 70, "budget {budget}: lower {} unsound", out.lower);
                if let Some((k, _)) = out.best {
                    assert!(k >= 70);
                }
            }
        }
    }

    #[test]
    fn infeasible_at_n_ends_with_no_best() {
        let mut s = AnytimeSearch::unlimited();
        let out = threshold_search::<()>(16, &mut s, |_, _, _| Ok(None)).unwrap();
        assert!(out.best.is_none());
        assert_eq!(out.lower, 16);
        assert_eq!(out.terminated, TerminatedBy::Completed);
    }

    #[test]
    fn probes_counted_as_nodes() {
        let mut s = AnytimeSearch::unlimited();
        run(100, 7, &mut s);
        // Doubling 1,2,4,8 then binary over (4,8]: two more probes.
        assert_eq!(s.report.nodes, 6);
    }

    #[test]
    fn uniform_top_set_is_deterministic_and_sized() {
        let data = independent(50, 3, 5);
        let a = uniform_top_set(&data, &[3, 9], 8);
        let b = uniform_top_set(&data, &[3, 9], 8);
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
        assert!(a.contains(&3) && a.contains(&9));
        let solo = uniform_top_set(&data, &[], 1);
        assert_eq!(solo.len(), 1);
    }

    #[test]
    fn regret_over_dirs_matches_serial_max() {
        let data = independent(80, 3, 6);
        let dirs: Vec<Vec<f64>> =
            vec![vec![1.0, 0.0, 0.0], vec![0.2, 0.5, 0.3], vec![0.0, 0.0, 1.0]];
        let set = vec![0u32, 5, 11];
        let want = dirs.iter().map(|u| rank_regret_of_set(&data, u, &set)).max().unwrap();
        for pol in [Parallelism::Sequential, Parallelism::Fixed(3)] {
            assert_eq!(regret_over_dirs(&data, &set, &dirs, pol), want);
        }
        assert_eq!(regret_over_dirs(&data, &set, &[], Parallelism::Auto), 0);
    }
}
