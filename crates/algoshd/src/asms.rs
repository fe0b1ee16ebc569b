//! **ASMS** — the approximate solver for the MS problem (Algorithm 2).
//!
//! Given a threshold `k`, find a small superset `Q ⊇ B` whose rank-regret
//! over the discretized vector set `D` is at most `k`. Lemma 2 reduces
//! this to set cover: the universe is `Dk` (the vectors whose top-k
//! contains no boundary tuple), and tuple `t` covers the vectors whose
//! top-k contains `t`. Chvátal's greedy yields the `1 + ln|Dk|` size
//! factor of Theorem 9.
//!
//! The same cover is the hitting set of the k-set baselines: MDRRR and
//! MDRRRr pass a k-set family as the lists, with an empty basis and no
//! candidate mask, so every k-set is a universe element and the greedy
//! hits them all.
//!
//! [`CoverIndex`] is the one cover builder. It indexes a list set once
//! (each list's first basis position, first candidate position and
//! candidate bitmap, extended lazily to the deepest threshold probed) and
//! fills each probe's sets as compressed rows for the lazy greedy of
//! [`rrm_setcover`]. HDRRM's threshold search keeps one index per list
//! set across its probes; [`asms_with_topk_capped`] is one probe of a
//! fresh index.

use rrm_core::rank::batch_top_k;
use rrm_core::{Dataset, Parallelism};
use rrm_setcover::greedy_set_cover_csr;

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
///
/// One probe of a fresh [`CoverIndex`]; a search that probes one list set
/// at several thresholds keeps the index instead.
pub fn asms_with_topk_capped(
    n: usize,
    k: usize,
    basis: &[u32],
    topk: &[Vec<u32>],
    candidate_mask: Option<&[bool]>,
    max_picks: usize,
) -> AsmsProbe {
    CoverIndex::new(n, basis, candidate_mask, topk).probe(topk, k, max_picks)
}

/// No such entry in the indexed prefix, or no set yet.
const NONE: u32 = u32::MAX;

/// ASMS's cover instance over one list set, probed at any threshold: the
/// one cover builder behind [`asms_with_topk_capped`].
///
/// Per list it records the position of its first basis tuple, the
/// position of its first candidate (a tuple of the mask) and a bitmap of
/// its candidate entries. A probe at `k` skips a direction whose first
/// basis tuple lies in its top-`k` prefix in O(1), walks only the
/// candidate entries of a prefix that holds a candidate (every entry of
/// one that holds none), and fills one set per tuple in compressed rows
/// for [`greedy_set_cover_csr`]: sets in order of each tuple's first
/// appearance, each listing its directions in order, which is the instance
/// and tie order of one `Vec` per tuple. The index extends lazily: a probe
/// scans entries only past the deepest prefix probed before, and never
/// past a list's first basis tuple, since no threshold reads a direction
/// beyond it. Probes may come in any order, and every probe of `lists`
/// must pass the same list set.
pub struct CoverIndex<'a> {
    basis: &'a [u32],
    mask: Option<&'a [bool]>,
    in_basis: Vec<bool>,
    /// Every list is indexed up to this depth, or up to its first basis
    /// tuple.
    indexed: usize,
    /// Per list: the position of its first basis tuple, or [`NONE`].
    basis_at: Vec<u32>,
    /// Per list: the position of its first candidate, or [`NONE`]. Empty
    /// without a mask.
    cand_at: Vec<u32>,
    /// Per list: where its candidate bitmap starts in `bits`, one bit per
    /// entry. Empty without a mask.
    words_at: Vec<usize>,
    bits: Vec<u64>,
    // Scratch of one probe: the set of each tuple (`NONE` between
    // probes), the tuple of each set, the set of each walked entry, the
    // end of each direction's entries, the compressed rows, and a cursor
    // per set.
    set_of: Vec<u32>,
    tuples: Vec<u32>,
    walked: Vec<u32>,
    ends: Vec<usize>,
    offsets: Vec<usize>,
    elems: Vec<u32>,
    cursor: Vec<usize>,
}

impl<'a> CoverIndex<'a> {
    /// An empty index over `lists` (nothing is scanned until a probe) for
    /// `n` tuples, the sorted `basis` forced into every answer, and the
    /// tuples `candidate_mask` lets the cover choose (any, when `None`).
    pub fn new(
        n: usize,
        basis: &'a [u32],
        candidate_mask: Option<&'a [bool]>,
        lists: &[Vec<u32>],
    ) -> Self {
        debug_assert!(basis.windows(2).all(|w| w[0] < w[1]), "basis must be sorted");
        let mut in_basis = vec![false; n];
        for &b in basis {
            in_basis[b as usize] = true;
        }
        let (mut cand_at, mut words_at, mut words) = (Vec::new(), Vec::new(), 0);
        if candidate_mask.is_some() {
            cand_at = vec![NONE; lists.len()];
            words_at = lists
                .iter()
                .map(|list| {
                    let at = words;
                    words += list.len().div_ceil(64);
                    at
                })
                .collect();
        }
        Self {
            basis,
            mask: candidate_mask,
            in_basis,
            indexed: 0,
            basis_at: vec![NONE; lists.len()],
            cand_at,
            words_at,
            bits: vec![0; words],
            set_of: vec![NONE; n],
            tuples: Vec::new(),
            walked: Vec::new(),
            ends: Vec::new(),
            offsets: Vec::new(),
            elems: Vec::new(),
            cursor: Vec::new(),
        }
    }

    /// Index every list's entries up to depth `k`, or up to its first
    /// basis tuple.
    fn extend(&mut self, lists: &[Vec<u32>], k: usize) {
        if k <= self.indexed {
            return;
        }
        for (i, list) in lists.iter().enumerate() {
            if self.basis_at[i] != NONE {
                continue;
            }
            let end = k.min(list.len());
            for (j, &t) in list.iter().enumerate().take(end).skip(self.indexed) {
                if self.in_basis[t as usize] {
                    self.basis_at[i] = j as u32;
                    break;
                }
                if self.mask.is_some_and(|mask| mask[t as usize]) {
                    self.bits[self.words_at[i] + j / 64] |= 1 << (j % 64);
                    if self.cand_at[i] == NONE {
                        self.cand_at[i] = j as u32;
                    }
                }
            }
        }
        self.indexed = k;
    }

    /// Add tuple `t` to the current direction's entries.
    #[inline]
    fn walk(&mut self, t: u32) {
        let mut set = self.set_of[t as usize];
        if set == NONE {
            set = self.tuples.len() as u32;
            self.set_of[t as usize] = set;
            self.tuples.push(t);
            self.cursor.push(0);
        }
        self.cursor[set as usize] += 1;
        self.walked.push(set);
    }

    /// ASMS at threshold `k` over `lists`, the list set the index was
    /// built for, its greedy cover capped at `max_picks` picks: what
    /// [`asms_with_topk_capped`] returns.
    pub fn probe(&mut self, lists: &[Vec<u32>], k: usize, max_picks: usize) -> AsmsProbe {
        assert_eq!(lists.len(), self.basis_at.len(), "a cover index probes its own list set");
        self.extend(lists, k);
        self.tuples.clear();
        self.walked.clear();
        self.ends.clear();
        self.cursor.clear();
        // Universe: directions whose top-k misses the basis (the set `Dk`).
        for (i, list) in lists.iter().enumerate() {
            let len = k.min(list.len());
            if (self.basis_at[i] as usize) < len {
                continue; // covered by B; not part of Dk
            }
            // Score ties can put only non-candidate tuples in a top-k
            // prefix (e.g. duplicated attribute maxima under axis-aligned
            // directions); keep this direction coverable by admitting its
            // own tuples regardless of the mask.
            if self.mask.is_some() && (self.cand_at[i] as usize) < len {
                let at = self.words_at[i];
                for w in 0..len.div_ceil(64) {
                    let mut word = self.bits[at + w];
                    if (w + 1) * 64 > len {
                        word &= (1 << (len % 64)) - 1;
                    }
                    while word != 0 {
                        let j = w * 64 + word.trailing_zeros() as usize;
                        word &= word - 1;
                        self.walk(list[j]);
                    }
                }
            } else {
                for &t in &list[..len] {
                    self.walk(t);
                }
            }
            self.ends.push(self.walked.len());
        }
        // Compressed rows: the cursors hold each set's count, turned in
        // place into its start, then advanced as its directions fill it.
        self.offsets.clear();
        self.offsets.push(0);
        for count in &mut self.cursor {
            let start = *self.offsets.last().expect("offsets start at 0");
            self.offsets.push(start + *count);
            *count = start;
        }
        self.elems.resize(self.walked.len(), 0);
        let mut from = 0;
        for (element, &end) in self.ends.iter().enumerate() {
            for &set in &self.walked[from..end] {
                let slot = &mut self.cursor[set as usize];
                self.elems[*slot] = element as u32;
                *slot += 1;
            }
            from = end;
        }
        let (chosen, complete) =
            greedy_set_cover_csr(self.ends.len(), &self.offsets, &self.elems, max_picks);
        for &t in &self.tuples {
            self.set_of[t as usize] = NONE;
        }
        let picks = chosen.len() as u64;
        let mut out: Vec<u32> = self.basis.to_vec();
        out.extend(chosen.into_iter().map(|set| self.tuples[set]));
        out.sort_unstable();
        out.dedup();
        AsmsProbe { q: out, complete, picks }
    }
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

    /// The per-probe builder [`CoverIndex`] replaced, kept as its
    /// reference: one `Vec` per tuple, rebuilt at every threshold.
    fn reference_probe(
        n: usize,
        k: usize,
        basis: &[u32],
        topk: &[Vec<u32>],
        candidate_mask: Option<&[bool]>,
        max_picks: usize,
    ) -> AsmsProbe {
        let mut in_basis = vec![false; n];
        for &b in basis {
            in_basis[b as usize] = true;
        }
        let mut lists: Vec<Vec<u32>> = Vec::new();
        let mut list_of_tuple: Vec<u32> = vec![u32::MAX; n];
        let mut tuple_of_list: Vec<u32> = Vec::new();
        let mut universe = 0u32;
        for list in topk {
            let prefix = &list[..k.min(list.len())];
            if prefix.iter().any(|&t| in_basis[t as usize]) {
                continue;
            }
            let mask = candidate_mask.filter(|mask| prefix.iter().any(|&t| mask[t as usize]));
            for &t in prefix.iter().filter(|&&t| mask.is_none_or(|mask| mask[t as usize])) {
                let li = &mut list_of_tuple[t as usize];
                if *li == u32::MAX {
                    *li = lists.len() as u32;
                    tuple_of_list.push(t);
                    lists.push(Vec::new());
                }
                lists[*li as usize].push(universe);
            }
            universe += 1;
        }
        let (chosen, complete) =
            rrm_setcover::greedy_set_cover_capped(universe as usize, &lists, max_picks);
        let picks = chosen.len() as u64;
        let mut out: Vec<u32> = basis.to_vec();
        out.extend(chosen.into_iter().map(|li| tuple_of_list[li]));
        out.sort_unstable();
        out.dedup();
        AsmsProbe { q: out, complete, picks }
    }

    fn outcome(probe: AsmsProbe) -> (Vec<u32>, bool, u64) {
        (probe.q, probe.complete, probe.picks)
    }

    /// One index per probe order (thresholds `1..=depth` ascending,
    /// descending and shuffled), probed at every threshold with every cap,
    /// must give the reference's `(q, complete, picks)`.
    fn assert_index_matches_reference(
        n: usize,
        basis: &[u32],
        lists: &[Vec<u32>],
        mask: Option<&[bool]>,
        depth: usize,
        caps: &[usize],
        ctx: &str,
    ) {
        let want: Vec<Vec<(Vec<u32>, bool, u64)>> = (1..=depth)
            .map(|k| {
                let probe = |&cap: &usize| reference_probe(n, k, basis, lists, mask, cap);
                caps.iter().map(probe).map(outcome).collect()
            })
            .collect();
        let ascending: Vec<usize> = (1..=depth).collect();
        let descending: Vec<usize> = ascending.iter().rev().copied().collect();
        let shuffled: Vec<usize> = (0..depth).map(|i| i * 37 % depth + 1).collect();
        let mut seen = shuffled.clone();
        seen.sort_unstable();
        assert_eq!(seen, ascending, "{ctx}: 37 must be prime to the depth");
        for order in [ascending, descending, shuffled] {
            let mut index = CoverIndex::new(n, basis, mask, lists);
            for &k in &order {
                for (&cap, want) in caps.iter().zip(&want[k - 1]) {
                    let got = outcome(index.probe(lists, k, cap));
                    assert_eq!(&got, want, "{ctx} k={k} cap={cap} order from {}", order[0]);
                }
            }
        }
    }

    fn skyline_mask(data: &Dataset) -> Vec<bool> {
        let mut mask = vec![false; data.n()];
        for s in rrm_skyline::skyline(data) {
            mask[s as usize] = true;
        }
        mask
    }

    /// `data` with copies of every other skyline row put in front: each
    /// copy outranks its original on a tie, and the mask admits only the
    /// originals, so a direction whose best row was copied has a top-1
    /// that holds no candidate.
    fn with_copies_in_front(data: &Dataset) -> (Dataset, Vec<bool>) {
        let sky = rrm_skyline::skyline(data);
        let copies: Vec<u32> = sky.iter().step_by(2).copied().collect();
        let rows: Vec<Vec<f64>> = copies
            .iter()
            .map(|&t| data.row(t as usize).to_vec())
            .chain(data.rows().map(<[f64]>::to_vec))
            .collect();
        let doubled = Dataset::from_rows(&rows).unwrap();
        let mut mask = vec![false; doubled.n()];
        for s in sky {
            mask[copies.len() + s as usize] = true;
        }
        (doubled, mask)
    }

    #[test]
    fn lists_stopped_at_the_basis_cover_alike() {
        use rrm_core::rank::batch_top_k_until;
        let anti = rrm_data::synthetic::anticorrelated(400, 4, 19);
        let (copied, copied_mask) = with_copies_in_front(&anti);
        let cases = [(independent(400, 3, 18), None), (anti, None), (copied, Some(copied_mask))];
        for (case, (data, mask)) in cases.into_iter().enumerate() {
            let d = data.dim();
            let mask = mask.unwrap_or_else(|| skyline_mask(&data));
            let basis = basis_indices(&data);
            let disc = build_vector_set(d, &FullSpace::new(d), 300, 4, 7);
            let depth = 120;
            let full = batch_top_k(&data, &disc.dirs, depth, Parallelism::Auto);
            let stopped = batch_top_k_until(&data, &disc.dirs, depth, &basis, Parallelism::Auto);
            assert!(
                stopped.iter().zip(&full).any(|(s, f)| s.len() < f.len()),
                "case {case}: no list stopped"
            );
            if case == 2 {
                let bare = full.iter().filter(|l| !basis.contains(&l[0]) && !mask[l[0] as usize]);
                assert!(bare.count() > 0, "no top-1 without a candidate");
            }
            for k in 1..=depth {
                for m in [None, Some(mask.as_slice())] {
                    let want = reference_probe(data.n(), k, &basis, &full, m, 3);
                    let got = asms_with_topk_capped(data.n(), k, &basis, &stopped, m, 3);
                    assert_eq!(outcome(got), outcome(want), "case {case} k={k}");
                    assert_eq!(
                        asms_with_topk(data.n(), k, &basis, &stopped, m),
                        asms_with_topk(data.n(), k, &basis, &full, m),
                        "case {case} k={k}"
                    );
                }
            }
            for (lists, kind) in [(&full, "full"), (&stopped, "stopped")] {
                for m in [None, Some(mask.as_slice())] {
                    let ctx = format!("case {case} {kind} lists, mask {}", m.is_some());
                    assert_index_matches_reference(
                        data.n(),
                        &basis,
                        lists,
                        m,
                        depth,
                        &[3, usize::MAX],
                        &ctx,
                    );
                }
            }
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
        let mut caps = Vec::new();
        for k in [1usize, 3, 10] {
            let full = asms_with_topk(data.n(), k, &basis, &topk, None);
            let uncapped_picks = full.len() - basis.len();
            for r in [basis.len(), basis.len() + 1, full.len().saturating_sub(1), full.len()] {
                let cap = r - basis.len();
                caps.push(cap);
                let probe = asms_with_topk_capped(data.n(), k, &basis, &topk, None, cap);
                // The "fits in r" decision matches the uncapped run.
                assert_eq!(probe.complete && probe.q.len() <= r, full.len() <= r, "k={k} r={r}");
                if probe.complete {
                    assert_eq!(probe.q, full, "k={k} r={r}");
                }
                assert!(probe.picks <= uncapped_picks as u64 + 1, "k={k} r={r}");
            }
        }
        // One index probed at every threshold and cap, in any order, makes
        // the reference's decisions, with and without the mask.
        caps.sort_unstable();
        caps.dedup();
        let mask = skyline_mask(&data);
        for m in [None, Some(mask.as_slice())] {
            let ctx = format!("mask {}", m.is_some());
            assert_index_matches_reference(data.n(), &basis, &topk, m, 10, &caps, &ctx);
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
