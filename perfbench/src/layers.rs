//! Layer-by-layer replays of the queries the workloads run.
//!
//! A replay re-runs one query's work by calling each layer's public
//! functions in the order the solver does, with the query's own inputs,
//! inside a span per call (see [`crate::trace`]). Where a solver's step is
//! private (a threshold search, the list building in front of a greedy
//! cover, 2DRRR's rank windows, the sampled tier's cover) the replay
//! mirrors it here. Every replay ends by comparing its answer with the
//! solver's; a replay that drifted from the solver fails the run, so its
//! per-layer figures are never taken as the program's.

use std::collections::HashMap;
use std::time::Instant;

use rank_regret::rrm_core::approx::{reduce, sample_directions, DEFAULT_SEED};
use rank_regret::rrm_core::kernel::{for_each_scores, ScoreScratch};
use rank_regret::rrm_core::rank::{max_rank_regret, top_k_into};
use rank_regret::rrm_core::{basis_indices, Budget};
use rank_regret::rrm_geom::dual::DualLine;
use rank_regret::rrm_geom::events::{crossings_with_tracked_capped_par, initial_ranks, Crossing};
use rank_regret::rrm_hd::asms::asms_with_topk_capped;
use rank_regret::rrm_hd::discretize::build_vector_set_exec;
use rank_regret::rrm_hd::{enumerate_ksets, HdrrmOptions, KsetLimits, MdrrrROptions};
use rank_regret::rrm_setcover::{cover_segment, greedy_set_cover_capped, Interval};
use rank_regret::rrm_skyline::restricted::u_skyline_2d;
use rank_regret::{
    Algorithm, Dataset, ExecPolicy, Fidelity, FullSpace, Parallelism, Request, Session, Solution,
    TaskKind,
};

use crate::hd_cold::reload;
use crate::trace::Tracer;

const SEQ: Parallelism = Parallelism::Sequential;
/// Per-direction coreset depth of the engine's minimize path on the
/// `approx::reduce` route (`Engine::REDUCE_DEPTH`).
const REDUCE_DEPTH: usize = 64;
/// Coarse-pass prefix fraction and floor of the anytime HD searches.
const COARSE_FRACTION: usize = 16;
const COARSE_MIN_DIRS: usize = 16;
/// 2DRRR's interval-cover tolerance and 2DRRM's crossing budget.
const COVER_TOL: f64 = 1e-9;
const EVENT_CHUNK: usize = 4 << 20;

/// Bind a fresh session on `data` and prepare `algo`: the engine's
/// prepare layer, timed as `engine.prepare_s`.
pub fn prepare(tr: &Tracer, data: &Dataset, algo: Algorithm) {
    tr.span("engine.prepare_s", || {
        let session = Session::new(data.clone()).exec(ExecPolicy::sequential());
        session.warm(&[algo]);
    });
}

/// Replay `request` on `data` twice: untraced, its time added to the
/// counter `_replay.plain_s`, and inside a `replay` span of `tr`. Callers
/// alternate `plain_first` from query to query, so neither pass always
/// runs on a cold cache. Each pass gets freshly loaded rows, so neither
/// reuses the other's scoring layout. Returns the first divergence from
/// `solution`.
pub fn replay_traced(
    tr: &Tracer,
    data: &Dataset,
    request: &Request,
    solution: &Solution,
    plain_first: bool,
) -> Result<(), String> {
    let plain = || {
        let rows = reload(data);
        let t = Instant::now();
        let result = replay(&Tracer::off(), &rows, request, solution);
        tr.count("_replay.plain_s", t.elapsed().as_secs_f64());
        result
    };
    let traced = || {
        let rows = reload(data);
        tr.span("replay", || replay(tr, &rows, request, solution))
    };
    if plain_first {
        plain().and(traced())
    } else {
        traced().and(plain())
    }
}

/// Replay `request` on `data` and compare with `solution`.
fn replay(
    tr: &Tracer,
    data: &Dataset,
    request: &Request,
    solution: &Solution,
) -> Result<(), String> {
    let d = data.dim();
    let param = request.param();
    let samples = request.budget.samples;
    let pinned = || samples.ok_or_else(|| "replay needs pinned samples".to_string());
    let (indices, bound) = match (request.resolved_algorithm(d), request.fidelity, request.kind()) {
        (Algorithm::Hdrrm, Fidelity::Exact, TaskKind::Minimize) => {
            hdrrm_minimize(tr, data, param, pinned()?)
        }
        (Algorithm::Hdrrm, Fidelity::Exact, TaskKind::Represent) => {
            hdrrm_represent(tr, data, param, pinned()?)
        }
        (Algorithm::Hdrrm, Fidelity::Approx { eps, delta }, TaskKind::Minimize) => {
            let m = samples.unwrap_or_else(|| rank_regret::ApproxSpec { eps, delta }.directions());
            reduced_hdrrm(tr, data, param, m)
        }
        (Algorithm::Sampled, Fidelity::Approx { eps, delta }, TaskKind::Minimize) => {
            let m = samples.unwrap_or_else(|| rank_regret::ApproxSpec { eps, delta }.directions());
            sampled_minimize(tr, data, param, m)
        }
        (Algorithm::MdrrrR, Fidelity::Exact, TaskKind::Minimize) => {
            mdrrr_r_minimize(tr, data, param, pinned()?)
        }
        (Algorithm::Mdrrr, Fidelity::Exact, TaskKind::Minimize) => {
            mdrrr_minimize(tr, data, param, &request.budget)
        }
        (Algorithm::Mdrrr, Fidelity::Exact, TaskKind::Represent) => {
            mdrrr_represent(tr, data, param, &request.budget)
        }
        (Algorithm::TwoDRrr, Fidelity::Exact, TaskKind::Minimize) => {
            rrr2d_minimize(tr, data, param)
        }
        (Algorithm::TwoDRrr, Fidelity::Exact, TaskKind::Represent) => {
            rrr2d_represent(tr, data, param)
        }
        (Algorithm::TwoDRrm, Fidelity::Exact, _) => {
            // The dynamic program over the crossing stream is private: the
            // replay stops after the candidate and event layers.
            two_d_sweep(tr, data, EVENT_CHUNK);
            return Ok(());
        }
        other => return Err(format!("no replay for {other:?}")),
    };
    let mut want = indices;
    want.sort_unstable();
    let mut got = solution.indices.clone();
    got.sort_unstable();
    // Answers without a certificate or bounds (a truncated enumeration)
    // are compared by their tuples alone.
    let got_bound = solution.certified_regret.or(solution.bounds.map(|b| b.upper));
    if want != got || got_bound.is_some_and(|b| b != bound) {
        return Err(format!(
            "replay answered {want:?} at {bound}, solver {got:?} at {got_bound:?}"
        ));
    }
    Ok(())
}

/// One top-k pass, `Φk` for every direction: scoring through the blocked
/// kernel, selection timed apart inside the kernel's consumer.
fn topk(tr: &Tracer, data: &Dataset, dirs: &[Vec<f64>], k: usize) -> Vec<Vec<u32>> {
    let lists = tr.span("algoshd.common.topk_s", || {
        tr.span("core.kernel.score_s", || {
            let mut scratch = ScoreScratch::new();
            let (mut sel, mut out) = (Vec::new(), Vec::new());
            let mut lists = vec![Vec::new(); dirs.len()];
            let mut select_s = 0.0;
            for_each_scores(data.soa(), dirs, &mut scratch, |di, scores| {
                if tr.is_on() {
                    let t = Instant::now();
                    top_k_into(scores, k, &mut sel, &mut out);
                    select_s += t.elapsed().as_secs_f64();
                } else {
                    top_k_into(scores, k, &mut sel, &mut out);
                }
                lists[di] = out.clone();
            });
            tr.record("core.rank.select_s", select_s);
            lists
        })
    });
    tr.count("core.kernel.scores", (data.n() * dirs.len()) as f64);
    tr.count("core.rank.selections", dirs.len() as f64);
    tr.count("algoshd.common.topk_passes", 1.0);
    tr.count("algoshd.common.topk_entries", lists.iter().map(Vec::len).sum::<usize>() as f64);
    lists
}

/// The doubling-then-binary threshold search the HD solvers share:
/// `probe(k)` answers one threshold; returns the smallest feasible one.
fn threshold_search(
    n: usize,
    mut probe: impl FnMut(usize) -> Option<Vec<u32>>,
) -> Option<(usize, Vec<u32>)> {
    let (mut prev, mut k) = (0usize, 1usize);
    let (mut best_k, mut best) = loop {
        if let Some(q) = probe(k) {
            break (k, q);
        }
        if k >= n {
            return None;
        }
        prev = k;
        k = (k * 2).min(n);
    };
    let (mut lo, mut hi) = (prev + 1, best_k);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match probe(mid) {
            Some(q) => {
                best_k = mid;
                best = q;
                hi = mid;
            }
            None => lo = mid + 1,
        }
    }
    Some((best_k, best))
}

/// Maximum rank-regret of `set` over `dirs` (incumbent measurement).
fn regret(tr: &Tracer, data: &Dataset, dirs: &[Vec<f64>], set: &[u32]) -> usize {
    tr.count("core.kernel.scores", (data.n() * dirs.len()) as f64);
    tr.span("core.rank.regret_s", || max_rank_regret(data, dirs, set, SEQ).unwrap_or(0))
}

/// HDRRM's candidate mask: skyline members.
fn skyline_mask(tr: &Tracer, data: &Dataset) -> Vec<bool> {
    let sky = tr.span("skyline.s", || rank_regret::rrm_skyline::skyline(data));
    tr.count("_skyline.rows", data.n() as f64);
    tr.count("_skyline.candidates", sky.len() as f64);
    let mut mask = vec![false; data.n()];
    for &s in &sky {
        mask[s as usize] = true;
    }
    mask
}

fn discretize(tr: &Tracer, data: &Dataset, m: usize) -> Vec<Vec<f64>> {
    let options = HdrrmOptions::default();
    let space = FullSpace::new(data.dim());
    let disc = tr.span("algoshd.discretize.s", || {
        build_vector_set_exec(
            data.dim(),
            &space,
            m,
            options.gamma,
            options.seed,
            ExecPolicy::sequential(),
        )
    });
    tr.count("algoshd.discretize.dirs", disc.dirs.len() as f64);
    disc.dirs
}

/// One capped ASMS feasibility probe.
fn asms_probe(
    tr: &Tracer,
    n: usize,
    k: usize,
    r: usize,
    basis: &[u32],
    lists: &[Vec<u32>],
    mask: &[bool],
) -> Option<Vec<u32>> {
    let probe = tr.span("algoshd.asms.s", || {
        asms_with_topk_capped(n, k, basis, lists, Some(mask), r - basis.len())
    });
    tr.count("algoshd.asms.picks", probe.picks as f64);
    tr.count("_asms.probes", 1.0);
    if !probe.complete {
        tr.count("_asms.pruned", 1.0);
        return None;
    }
    (probe.q.len() <= r).then_some(probe.q)
}

/// HDRRM minimize (paper defaults, `m` pinned samples, no cutoff).
fn hdrrm_minimize(tr: &Tracer, data: &Dataset, r: usize, m: usize) -> (Vec<u32>, usize) {
    let n = data.n();
    let basis = tr.span("core.basis_s", || basis_indices(data));
    let dirs = discretize(tr, data, m);
    let mask = skyline_mask(tr, data);
    // Coarse first incumbent over the prefix dirs[..|D|/16].
    let mc = dirs.len() / COARSE_FRACTION;
    if mc >= COARSE_MIN_DIRS {
        let coarse = &dirs[..mc];
        let mut cache: Option<(usize, Vec<Vec<u32>>)> = None;
        let best = threshold_search(n, |k| {
            if cache.as_ref().is_none_or(|(ck, _)| *ck < k) {
                cache = Some((k, topk(tr, data, coarse, k)));
            }
            let (_, lists) = cache.as_ref().expect("coarse cache just filled");
            asms_probe(tr, n, k, r, &basis, lists, &mask)
        });
        if let Some((_, q)) = best {
            regret(tr, data, &dirs, &q);
        }
    }
    let mut cache: Option<(usize, Vec<Vec<u32>>)> = None;
    let (k, q) = threshold_search(n, |k| {
        if cache.as_ref().is_none_or(|(ck, _)| *ck < k) {
            cache = Some((k, topk(tr, data, &dirs, k)));
        }
        let (_, lists) = cache.as_ref().expect("top-k cache just filled");
        asms_probe(tr, n, k, r, &basis, lists, &mask)
    })
    .expect("ASMS at k = n returns the basis");
    (q, k)
}

/// HDRRM represent: one ASMS cover at threshold `k`.
fn hdrrm_represent(tr: &Tracer, data: &Dataset, k: usize, m: usize) -> (Vec<u32>, usize) {
    let n = data.n();
    let k = k.min(n);
    let basis = tr.span("core.basis_s", || basis_indices(data));
    let dirs = discretize(tr, data, m);
    let mask = skyline_mask(tr, data);
    let lists = topk(tr, data, &dirs, k);
    let q =
        asms_probe(tr, n, k, usize::MAX, &basis, &lists, &mask).expect("uncapped ASMS completes");
    (q, k)
}

/// HDRRM on an `approx::reduce` coreset, re-certified over the sample.
fn reduced_hdrrm(tr: &Tracer, data: &Dataset, r: usize, m: usize) -> (Vec<u32>, usize) {
    let space = FullSpace::new(data.dim());
    let depth = REDUCE_DEPTH.min(data.n());
    let reduced = tr.span("core.approx.reduce_s", || {
        reduce(data, &space, depth, m, DEFAULT_SEED, ExecPolicy::sequential())
            .expect("valid coreset request")
    });
    tr.count("core.kernel.scores", (data.n() * m) as f64);
    tr.count("_approx.rows", data.n() as f64);
    tr.count("_approx.kept", reduced.kept.len() as f64);
    let (q, _) = hdrrm_minimize(tr, &reduced.data, r, m);
    let q = reduced.original_indices(&q);
    let dirs = tr.span("core.approx.sample_s", || sample_directions(&space, m, DEFAULT_SEED));
    let k_hat = regret(tr, data, &dirs, &q);
    (q, k_hat)
}

/// The sampled tier's greedy cover: most still-uncovered lists first,
/// ties to the smallest tuple index (mirrors `rrm_core::approx`).
fn sampled_cover(tops: &[&[u32]], cap: usize) -> (Vec<u32>, bool) {
    let mut covered = vec![false; tops.len()];
    let mut remaining = tops.len();
    let mut count: HashMap<u32, usize> = HashMap::new();
    let mut dirs_of: HashMap<u32, Vec<u32>> = HashMap::new();
    for (dj, top) in tops.iter().enumerate() {
        for &i in *top {
            *count.entry(i).or_insert(0) += 1;
            dirs_of.entry(i).or_default().push(dj as u32);
        }
    }
    let mut picks = Vec::new();
    while remaining > 0 {
        if picks.len() >= cap {
            return (picks, false);
        }
        let (&best, _) = count
            .iter()
            .filter(|&(_, &c)| c > 0)
            .max_by(|(ia, ca), (ib, cb)| ca.cmp(cb).then(ib.cmp(ia)))
            .expect("an uncovered direction has an unpicked top tuple");
        picks.push(best);
        for dj in dirs_of.remove(&best).unwrap_or_default() {
            let dj = dj as usize;
            if !covered[dj] {
                covered[dj] = true;
                remaining -= 1;
                for t in tops[dj] {
                    if let Some(c) = count.get_mut(t) {
                        *c = c.saturating_sub(1);
                    }
                }
            }
        }
        count.remove(&best);
    }
    (picks, true)
}

/// The sampled approximate tier's minimize path over `m` directions.
fn sampled_minimize(tr: &Tracer, data: &Dataset, r: usize, m: usize) -> (Vec<u32>, usize) {
    let space = FullSpace::new(data.dim());
    let dirs = tr.span("core.approx.sample_s", || sample_directions(&space, m, DEFAULT_SEED));
    let cover = |tops: &[Vec<u32>], k: usize| {
        let slices: Vec<&[u32]> = tops.iter().map(|t| &t[..k.min(t.len())]).collect();
        tr.span("core.approx.cover_s", || sampled_cover(&slices, r))
    };
    let (mut k, mut prev) = (1usize, 0usize);
    let (tops, k_feasible, picks) = loop {
        let tops = topk(tr, data, &dirs, k);
        let (picks, full) = cover(&tops, k);
        if full {
            break (tops, k, picks);
        }
        prev = k;
        k = (k * 2).min(data.n());
    };
    let (mut lo, mut hi, mut best) = (prev + 1, k_feasible, picks);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match cover(&tops, mid) {
            (picks, true) => {
                hi = mid;
                best = picks;
            }
            _ => lo = mid + 1,
        }
    }
    let k_hat = regret(tr, data, &dirs, &best);
    (best, k_hat)
}

/// Distinct sorted top-k sets over `dirs` (MDRRRr's k-set family).
fn ksets_from_dirs(tr: &Tracer, data: &Dataset, k: usize, dirs: &[Vec<f64>]) -> Vec<Vec<u32>> {
    let mut ksets = topk(tr, data, dirs, k);
    for l in &mut ksets {
        l.sort_unstable();
    }
    ksets.sort_unstable();
    ksets.dedup();
    ksets
}

/// Hitting set over a k-set family by capped greedy set cover (the list
/// building mirrors `rrm_hd`'s MDRRR helper; the cover is the layer).
fn hit_ksets(tr: &Tracer, n: usize, ksets: &[Vec<u32>], cap: usize) -> (Vec<u32>, bool) {
    let mut lists: Vec<Vec<u32>> = Vec::new();
    let mut list_of_tuple = vec![u32::MAX; n];
    let mut tuple_of_list: Vec<u32> = Vec::new();
    for (ki, set) in ksets.iter().enumerate() {
        for &t in set {
            let li = list_of_tuple[t as usize];
            if li == u32::MAX {
                list_of_tuple[t as usize] = lists.len() as u32;
                tuple_of_list.push(t);
                lists.push(vec![ki as u32]);
            } else {
                lists[li as usize].push(ki as u32);
            }
        }
    }
    let (chosen, complete) =
        tr.span("setcover.s", || greedy_set_cover_capped(ksets.len(), &lists, cap));
    let mut ids: Vec<u32> = chosen.into_iter().map(|li| tuple_of_list[li]).collect();
    ids.sort_unstable();
    (ids, complete)
}

/// MDRRRr minimize over `m` sampled directions (pruned probes, coarse pass).
fn mdrrr_r_minimize(tr: &Tracer, data: &Dataset, r: usize, m: usize) -> (Vec<u32>, usize) {
    let n = data.n();
    let space = FullSpace::new(data.dim());
    let dirs = tr.span("core.approx.sample_s", || {
        sample_directions(&space, m, MdrrrROptions::default().seed)
    });
    let probe = |ksets: &[Vec<u32>]| {
        let (ids, complete) = hit_ksets(tr, n, ksets, r);
        (complete && ids.len() <= r).then_some(ids)
    };
    let mc = dirs.len() / COARSE_FRACTION;
    if mc >= COARSE_MIN_DIRS {
        let coarse = &dirs[..mc];
        if let Some((_, ids)) =
            threshold_search(n, |k| probe(&ksets_from_dirs(tr, data, k, coarse)))
        {
            regret(tr, data, &dirs, &ids);
        }
    }
    let mut family: HashMap<usize, Vec<Vec<u32>>> = HashMap::new();
    let (k, ids) = threshold_search(n, |k| {
        let ksets = family.entry(k).or_insert_with(|| ksets_from_dirs(tr, data, k, &dirs));
        probe(ksets)
    })
    .expect("hitting at k = n is a single tuple");
    (ids, k)
}

/// MDRRR's k-set limits under a request budget's caps.
fn kset_limits(budget: &Budget) -> KsetLimits {
    let mut limits = KsetLimits { exec: ExecPolicy::sequential(), ..KsetLimits::default() };
    if let Some(cap) = budget.max_enumerations {
        limits.max_ksets = limits.max_ksets.min(cap);
    }
    if let Some(cap) = budget.max_lp_calls {
        limits.max_lp_calls = limits.max_lp_calls.min(cap);
    }
    limits
}

/// One MDRRR threshold: enumerate the k-sets, then hit them all. Returns
/// the hitting set and whether the enumeration completed.
fn mdrrr_probe(tr: &Tracer, data: &Dataset, k: usize, limits: KsetLimits) -> (Vec<u32>, bool) {
    let e = tr.span("algoshd.ksets.s", || enumerate_ksets(data, k.min(data.n()), &[], limits));
    tr.count("algoshd.ksets.lp_calls", e.lp_calls as f64);
    tr.count("_ksets.ksets", e.ksets.len() as f64);
    (hit_ksets(tr, data.n(), &e.ksets, usize::MAX).0, e.complete)
}

/// MDRRR represent: one threshold.
fn mdrrr_represent(tr: &Tracer, data: &Dataset, k: usize, budget: &Budget) -> (Vec<u32>, usize) {
    let (ids, _) = mdrrr_probe(tr, data, k, kset_limits(budget));
    (ids, k.min(data.n()))
}

/// MDRRR minimize: k-set enumeration plus a hitting set per threshold.
fn mdrrr_minimize(tr: &Tracer, data: &Dataset, r: usize, budget: &Budget) -> (Vec<u32>, usize) {
    let n = data.n();
    let limits = kset_limits(budget);
    let mut complete: HashMap<usize, bool> = HashMap::new();
    let (k, ids) = threshold_search(n, |k| {
        let (ids, done) = mdrrr_probe(tr, data, k, limits);
        complete.insert(k, done);
        (ids.len() <= r).then_some(ids)
    })
    .expect("the enumeration caps leave a feasible threshold");
    // An uncertified answer carries the trivial upper bound n.
    (ids, if complete[&k] { k } else { n })
}

/// The 2D candidate and event layers: restricted skyline over the full
/// weight range, then the crossings involving a candidate's dual line.
fn two_d_sweep(
    tr: &Tracer,
    data: &Dataset,
    cap: usize,
) -> (Vec<u32>, Vec<DualLine>, Option<Vec<Crossing>>) {
    let sky = tr.span("skyline.s", || u_skyline_2d(data, 0.0, 1.0));
    tr.count("_skyline.rows", data.n() as f64);
    tr.count("_skyline.candidates", sky.len() as f64);
    let lines = DualLine::from_dataset(data);
    let events = tr.span("geom.events.s", || {
        crossings_with_tracked_capped_par(&lines, &sky, 0.0, 1.0, cap, SEQ)
    });
    tr.count("geom.events.crossings", events.as_ref().map_or(0, Vec::len) as f64);
    (sky, lines, events)
}

/// A dataset's candidate layers as a fresh prepare builds them: the
/// skyline, and for planar rows the crossing events over it too.
pub fn candidates(tr: &Tracer, data: &Dataset) {
    if data.dim() == 2 {
        two_d_sweep(tr, data, EVENT_CHUNK);
    } else {
        skyline_mask(tr, data);
    }
}

/// 2DRRR's sweep state: candidates, their crossings, initial ranks.
struct RankWindows {
    sky: Vec<u32>,
    events: Vec<Crossing>,
    init_rank: Vec<usize>,
}

impl RankWindows {
    fn build(tr: &Tracer, data: &Dataset) -> Self {
        let (sky, lines, events) = two_d_sweep(tr, data, usize::MAX);
        let init_rank = initial_ranks(&lines, 0.0);
        RankWindows { sky, events: events.expect("uncapped enumeration materializes"), init_rank }
    }

    /// Minimum window cover for threshold `k`: each candidate's rank ≤ k
    /// window (mirrors 2DRRR's sweep), then the interval-cover layer.
    fn cover(&self, tr: &Tracer, k: usize) -> Option<Vec<u32>> {
        let mut lo = vec![f64::NAN; self.sky.len()];
        let mut hi = vec![f64::NAN; self.sky.len()];
        let row_of: HashMap<u32, usize> =
            self.sky.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        let mut rank = self.init_rank.clone();
        for (i, &id) in self.sky.iter().enumerate() {
            if rank[id as usize] <= k {
                lo[i] = 0.0;
                hi[i] = 0.0;
            }
        }
        for ev in &self.events {
            rank[ev.down as usize] += 1;
            rank[ev.up as usize] -= 1;
            if let Some(&i) = row_of.get(&ev.up) {
                if rank[ev.up as usize] <= k {
                    if lo[i].is_nan() {
                        lo[i] = ev.x;
                    }
                    hi[i] = ev.x;
                }
            }
            if let Some(&i) = row_of.get(&ev.down) {
                if rank[ev.down as usize] == k + 1 && !lo[i].is_nan() {
                    hi[i] = ev.x;
                }
            }
        }
        for (i, &id) in self.sky.iter().enumerate() {
            if rank[id as usize] <= k && !lo[i].is_nan() {
                hi[i] = 1.0;
            }
        }
        let windows: Vec<Interval> = self
            .sky
            .iter()
            .enumerate()
            .filter(|(i, _)| !lo[*i].is_nan())
            .map(|(i, &id)| Interval::new(lo[i], hi[i], id))
            .collect();
        tr.span("setcover.s", || cover_segment(&windows, 0.0, 1.0, COVER_TOL))
            .map(|ivs| ivs.into_iter().map(|iv| iv.id).collect())
    }
}

fn rrr2d_represent(tr: &Tracer, data: &Dataset, k: usize) -> (Vec<u32>, usize) {
    let w = RankWindows::build(tr, data);
    let ids = w.cover(tr, k).expect("rank-k windows cover the range");
    (ids, (2 * k).saturating_sub(1))
}

fn rrr2d_minimize(tr: &Tracer, data: &Dataset, r: usize) -> (Vec<u32>, usize) {
    let n = data.n();
    let w = RankWindows::build(tr, data);
    let mut memo: HashMap<usize, Option<Vec<u32>>> = HashMap::new();
    let mut cover = |k: usize| memo.entry(k).or_insert_with(|| w.cover(tr, k)).clone();
    let mut k = 1usize;
    let mut feasible = None;
    while k <= n {
        if let Some(ids) = cover(k) {
            if ids.len() <= r {
                feasible = Some((k, ids));
                break;
            }
        }
        k *= 2;
    }
    let (found_k, mut best_ids) = feasible.unwrap_or_else(|| (n, cover(n).expect("k = n covers")));
    let (mut lo, mut hi, mut best_k) = (found_k / 2 + 1, found_k, found_k);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match cover(mid) {
            Some(ids) if ids.len() <= r => {
                best_ids = ids;
                best_k = mid;
                hi = mid;
            }
            _ => lo = mid + 1,
        }
    }
    best_ids.truncate(r);
    (best_ids, (2 * best_k).saturating_sub(1))
}
