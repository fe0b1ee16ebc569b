//! Independent checks of every answer's certificate.
//!
//! * 2D answers are re-evaluated exactly with `exact_rank_regret_2d`.
//! * HDRRM answers are re-measured over the query's own discretization.
//! * Sampled answers (the approximate tier, and exact solvers run on an
//!   `approx::reduce` coreset) are probed over directions drawn apart from
//!   the solver's: the share whose rank exceeds the certificate must stay
//!   within the certificate's ε, plus the probe's own sampling slack.
//! * MDRRRr answers are re-measured over their sampled direction pool,
//!   where their rank-regret must not exceed the reported upper bound.
//! * MDRRR certificates are probed with 20,000 sampled directions: a
//!   sampled rank above the certificate disproves it.

use rank_regret::rrm_core::approx::sample_directions;
use rank_regret::rrm_core::rank::{batch_rank_regret, max_rank_regret};
use rank_regret::rrm_hd::discretize::build_vector_set_exec;
use rank_regret::rrm_hd::{HdrrmOptions, MdrrrROptions};
use rank_regret::{
    Algorithm, Dataset, ExecPolicy, FullSpace, Parallelism, Request, Solution, TaskKind,
    TerminatedBy,
};

/// Directions of the sampled-answer probe, their seed (apart from every
/// solver's), and the probability that a sound certificate still fails it.
const PROBE_DIRS: usize = 2_000;
const PROBE_SEED: u64 = 0x9B0B_E5EE;
const PROBE_DELTA: f64 = 1e-6;

/// Check `solution` as the answer to `request` over `data`.
pub fn check(data: &Dataset, request: &Request, solution: &Solution) -> Result<(), String> {
    let n = data.n();
    let mut seen = vec![false; n];
    for &i in &solution.indices {
        let i = i as usize;
        if i >= n || seen[i] {
            return Err(format!("index {i} out of range or repeated (n = {n})"));
        }
        seen[i] = true;
    }
    if solution.indices.is_empty() {
        return Err("empty answer".into());
    }
    if request.kind() == TaskKind::Minimize && solution.indices.len() > request.param() {
        return Err(format!("{} tuples for r = {}", solution.indices.len(), request.param()));
    }
    let space = FullSpace::new(data.dim());
    let seq = Parallelism::Sequential;
    if let TerminatedBy::Sampled { eps, .. } = solution.terminated_by {
        // The certificate: with confidence 1 - δ, the rank exceeds it on at
        // most an ε share of directions. Hoeffding bounds how far the
        // probe's observed share can sit above the true one.
        let c = solution.certified_regret.ok_or("sampled answer without a certificate")?;
        let probe = sample_directions(&space, PROBE_DIRS, PROBE_SEED);
        let ranks = batch_rank_regret(data, &probe, &solution.indices, seq);
        let over = ranks.iter().filter(|&&rank| rank > c).count() as f64 / PROBE_DIRS as f64;
        let slack = ((1.0 / PROBE_DELTA).ln() / (2.0 * PROBE_DIRS as f64)).sqrt();
        return if over <= eps + slack {
            Ok(())
        } else {
            Err(format!("sampled certificate {c} at eps {eps}: exceeded on {over} of the probe"))
        };
    }
    let certified = solution.certified_regret;
    match solution.algorithm {
        Algorithm::TwoDRrm | Algorithm::TwoDRrr => {
            let c = certified.ok_or("2D answer without a certificate")?;
            let (exact, _) =
                rank_regret::rrm_eval::exact_rank_regret_2d(data, &solution.indices, 0.0, 1.0);
            // 2DRRM certifies the exact optimum's regret; 2DRRR bounds it by 2k - 1.
            let ok = if solution.algorithm == Algorithm::TwoDRrm { exact == c } else { exact <= c };
            if ok {
                Ok(())
            } else {
                Err(format!("{} certified {c}, exact evaluation {exact}", solution.algorithm))
            }
        }
        Algorithm::Hdrrm => {
            let c = certified.ok_or("HDRRM answer without a certificate")?;
            let m = request.budget.samples.ok_or("HDRRM query without pinned samples")?;
            let options = HdrrmOptions::default();
            let disc = build_vector_set_exec(
                data.dim(),
                &space,
                m,
                options.gamma,
                options.seed,
                ExecPolicy::sequential(),
            );
            let measured = max_rank_regret(data, &disc.dirs, &solution.indices, seq).unwrap_or(0);
            if measured <= c {
                Ok(())
            } else {
                Err(format!("HDRRM certified {c}, measured {measured} over its discretization"))
            }
        }
        Algorithm::Mdrrr => match certified {
            None => Ok(()),
            Some(c) => {
                let est = rank_regret::rrm_eval::estimate_rank_regret_seq(
                    data,
                    &solution.indices,
                    &space,
                    20_000,
                    0xC4EC,
                );
                if est.max_rank <= c {
                    Ok(())
                } else {
                    Err(format!("MDRRR certified {c}, sampled rank {}", est.max_rank))
                }
            }
        },
        // MDRRRr certifies nothing; its bounds hold over its sampled pool.
        Algorithm::MdrrrR => {
            let upper = solution.bounds.ok_or("MDRRRr answer without bounds")?.upper;
            let defaults = MdrrrROptions::default();
            let m = request.budget.samples.unwrap_or(defaults.samples);
            let pool = sample_directions(&space, m, defaults.seed);
            let measured = max_rank_regret(data, &pool, &solution.indices, seq).unwrap_or(0);
            if measured <= upper {
                Ok(())
            } else {
                Err(format!("MDRRRr upper bound {upper}, measured {measured} over its pool"))
            }
        }
        other => Err(format!("no check for {other} answer {solution:?}")),
    }
}
