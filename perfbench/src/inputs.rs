//! Seeded inputs held to a fixed difficulty.
//!
//! The solvers' cost grows with the size of the data's skyline (the
//! candidate set; in 2D, also the crossing-event count), and that size
//! varies from draw to draw. Drawing rows until the skyline has a fixed
//! size keeps a workload equally hard on every seed while the rows still
//! change with it.

/// Seed of input `stream` of a run seeded with `seed` (splitmix64). Nearby
/// run seeds get unrelated inputs; `seed ^ stream` would hand runs 204
/// and 205 the same datasets in another order.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The first seed of a sequence derived from `seed` whose rows have a
/// skyline of `target` ± `tol` points, as `skyline_of` measures it; else
/// the closest of 64 draws.
pub fn seed_with_skyline(
    seed: u64,
    target: usize,
    tol: usize,
    skyline_of: impl Fn(u64) -> usize,
) -> u64 {
    let mut closest = (usize::MAX, seed);
    for i in 0..64u64 {
        let draw = seed ^ (i << 40);
        let gap = skyline_of(draw).abs_diff(target);
        if gap <= tol {
            return draw;
        }
        closest = closest.min((gap, draw));
    }
    closest.1
}

/// Seed of anti-correlated d=2 rows (`n` of them) with a `target` ± 1
/// point skyline.
pub fn plane_seed(n: usize, target: usize, seed: u64) -> u64 {
    seed_with_skyline(seed, target, 1, |s| {
        let rows = rank_regret::rrm_data::synthetic::anticorrelated(n, 2, s);
        rank_regret::rrm_skyline::restricted::u_skyline_2d(&rows, 0.0, 1.0).len()
    })
}
