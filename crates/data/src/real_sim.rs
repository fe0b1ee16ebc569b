//! Simulated stand-ins for the paper's real datasets.
//!
//! The originals (Island \[24\]\[31\], NBA \[25\], Weather \[24\]) are not
//! redistributable inside this repository, so each simulator reproduces
//! the statistical structure the corresponding experiment depends on:
//!
//! * **Island** (63 383 × 2, geographic positions): 2D point clouds with a
//!   pronounced trade-off frontier of clustered points — the experiments
//!   use it as a 2D workload whose skyline is moderately large and whose
//!   rank-regrets are non-trivial (Fig. 11).
//! * **NBA** (21 961 × 5, player/season stats): positively correlated,
//!   heavily skewed — a few star seasons dominate nearly everything, which
//!   is why the paper observes rank-regrets staying at 1 in 2D (Fig. 12)
//!   and small values in 5D (Fig. 27).
//! * **Weather** (178 080 × 4): clustered (seasonal) data with locally
//!   anti-correlated blocks; MDRC's space partitioning collapses on it
//!   (rank-regret 1610 vs HDRRM's 9 at n = 120K in Fig. 28).
//!
//! The sizes above are the paper's; the generators take any size. All
//! values are normalized to `[0, 1]`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rrm_core::sampling::gauss;
use rrm_core::Dataset;

/// Island-like 2D data: clusters strung along a concave trade-off arc plus
/// background noise (the paper's `n` is 63 383).
pub fn island_sim(n: usize, seed: u64) -> Dataset {
    assert!(n >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    const CLUSTERS: usize = 12;
    let mut values = Vec::with_capacity(n * 2);
    for _ in 0..n {
        if rng.random::<f64>() < 0.85 {
            // Clustered on the arc: pick a cluster center angle, jitter it.
            let c = rng.random_range(0..CLUSTERS);
            let theta = std::f64::consts::FRAC_PI_2 * (c as f64 + 0.5) / CLUSTERS as f64;
            let radius = 0.9 + 0.06 * gauss(&mut rng);
            let x = (radius * theta.cos() + 0.03 * gauss(&mut rng)).clamp(0.0, 1.0);
            let y = (radius * theta.sin() + 0.03 * gauss(&mut rng)).clamp(0.0, 1.0);
            values.push(x);
            values.push(y);
        } else {
            // Interior background points (dominated mass).
            values.push(rng.random::<f64>() * 0.8);
            values.push(rng.random::<f64>() * 0.8);
        }
    }
    Dataset::from_flat(2, values).expect("generator output is valid")
}

/// NBA-like data: `d` positively correlated skill attributes driven by a
/// skewed latent ability, so a handful of tuples dominate. Use `d = 5` for
/// the paper's configuration.
pub fn nba_sim(n: usize, d: usize, seed: u64) -> Dataset {
    assert!(n >= 1 && d >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut values = Vec::with_capacity(n * d);
    for _ in 0..n {
        // Skewed latent ability: most players mediocre, few stars.
        let ability = rng.random::<f64>().powf(2.5);
        for j in 0..d {
            // Per-attribute loading keeps stats correlated but not equal.
            let loading = 0.75 + 0.05 * j as f64;
            let v = ability * loading + 0.08 * gauss(&mut rng).abs() + 0.05 * rng.random::<f64>();
            values.push(v.clamp(0.0, 1.0));
        }
    }
    Dataset::from_flat(d, values).expect("generator output is valid")
}

/// Weather-like data: seasonal clusters whose attributes are locally
/// anti-correlated in alternating pairs (e.g. warm/dry vs cold/wet), with
/// heavy within-cluster concentration. Use `d = 4` for the paper's
/// configuration.
pub fn weather_sim(n: usize, d: usize, seed: u64) -> Dataset {
    assert!(n >= 1 && d >= 2);
    let mut rng = StdRng::seed_from_u64(seed);
    const SEASONS: usize = 8;
    // Random cluster centers, spread over [0.15, 0.85]^d.
    let centers: Vec<Vec<f64>> =
        (0..SEASONS).map(|_| (0..d).map(|_| 0.15 + 0.7 * rng.random::<f64>()).collect()).collect();
    let mut values = Vec::with_capacity(n * d);
    for _ in 0..n {
        let c = &centers[rng.random_range(0..SEASONS)];
        // Anti-correlated pair noise: attribute 2j gains what 2j+1 loses.
        let mut row: Vec<f64> = c.clone();
        for j in (0..d).step_by(2) {
            let swing = 0.18 * gauss(&mut rng);
            row[j] += swing;
            if j + 1 < d {
                row[j + 1] -= swing;
            }
        }
        for v in &mut row {
            *v = (*v + 0.04 * gauss(&mut rng)).clamp(0.0, 1.0);
            values.push(*v);
        }
    }
    Dataset::from_flat(d, values).expect("generator output is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrm_skyline::skyline;

    #[test]
    fn shapes_match_paper_defaults() {
        let i = island_sim(1000, 1);
        assert_eq!((i.n(), i.dim()), (1000, 2));
        let n = nba_sim(1000, 5, 1);
        assert_eq!((n.n(), n.dim()), (1000, 5));
        let w = weather_sim(1000, 4, 1);
        assert_eq!((w.n(), w.dim()), (1000, 4));
    }

    #[test]
    fn values_in_unit_range() {
        for data in [island_sim(2000, 2), nba_sim(2000, 5, 2), weather_sim(2000, 4, 2)] {
            assert!(data.flat().iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn determinism() {
        assert_eq!(island_sim(500, 3), island_sim(500, 3));
        assert_eq!(nba_sim(500, 5, 3), nba_sim(500, 5, 3));
        assert_eq!(weather_sim(500, 4, 3), weather_sim(500, 4, 3));
    }

    #[test]
    fn nba_is_dominated_by_few_stars() {
        // The property Fig. 12 relies on: tiny skyline relative to n.
        let d = nba_sim(5000, 5, 4);
        let s = skyline(&d).len();
        assert!(s < 200, "NBA-like skyline too big: {s}");
        // And in 2D projection, even smaller.
        let d2 = d.project(&[0, 1]).unwrap();
        let s2 = skyline(&d2).len();
        assert!(s2 <= 20, "2D NBA-like skyline too big: {s2}");
    }

    #[test]
    fn island_has_substantial_frontier() {
        let d = island_sim(5000, 5);
        let s = skyline(&d).len();
        assert!(s >= 10, "island frontier too small: {s}");
    }

    #[test]
    fn weather_cluster_structure() {
        // Weather-like data should have a skyline that is neither trivial
        // nor the whole dataset.
        let d = weather_sim(5000, 4, 6);
        let s = skyline(&d).len();
        assert!(s > 20 && s < 2500, "weather skyline {s}");
    }
}
