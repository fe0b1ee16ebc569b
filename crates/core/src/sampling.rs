//! Random sampling primitives shared by spaces, generators and estimators.
//!
//! `rand_distr` is outside the allowed dependency set, so the Gaussian
//! sampler is a hand-rolled Box–Muller transform.

use rand::Rng;
use rand::RngCore;

/// One standard normal variate (Box–Muller).
pub fn gauss(rng: &mut dyn RngCore) -> f64 {
    // Avoid ln(0) by sampling u1 from the half-open interval (0, 1].
    let u1: f64 = 1.0 - rng.random::<f64>();
    let u2: f64 = rng.random::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Uniform direction on the unit sphere intersected with the non-negative
/// orthant (the sphere surface `S` of Section V-A): absolute values of i.i.d.
/// Gaussians, L2-normalized.
pub fn orthant_direction(d: usize, rng: &mut dyn RngCore) -> Vec<f64> {
    loop {
        let v: Vec<f64> = (0..d).map(|_| gauss(rng).abs()).collect();
        let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm > 1e-12 {
            return v.iter().map(|x| x / norm).collect();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gauss_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 200_000;
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        for _ in 0..n {
            let g = gauss(&mut rng);
            sum += g;
            sum2 += g * g;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn orthant_direction_is_unit_and_nonnegative() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let u = orthant_direction(4, &mut rng);
            assert_eq!(u.len(), 4);
            assert!(u.iter().all(|&x| x >= 0.0));
            let norm: f64 = u.iter().map(|x| x * x).sum::<f64>().sqrt();
            assert!((norm - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn orthant_direction_covers_all_axes() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut max_per_axis = [0.0f64; 3];
        for _ in 0..1000 {
            let u = orthant_direction(3, &mut rng);
            for (m, &v) in max_per_axis.iter_mut().zip(&u) {
                *m = m.max(v);
            }
        }
        // Every axis should get close to 1 somewhere in 1000 draws.
        assert!(max_per_axis.iter().all(|&m| m > 0.9), "{max_per_axis:?}");
    }
}
