//! Incrementally maintained skyline: insert/delete without recomputing
//! from scratch.
//!
//! The structure keeps, besides the skyline itself, a *dominated-by-one*
//! buffer: for every non-skyline tuple, the index of **one** tuple that
//! dominates it (any dominator will do — dominance is transitive, so the
//! recorded dominator existing is proof the tuple is off the skyline).
//! That buffer is what makes deletes cheap and exact:
//!
//! * **Insert** — compare the new tuple against current skyline members
//!   only (a dominator of any tuple is always a skyline member or itself
//!   dominated by one). If it survives, members it dominates are demoted
//!   and record the new tuple as their dominator.
//! * **Delete** — the only tuples that can be *promoted* are those whose
//!   recorded dominator was deleted (anything else still has a live
//!   dominator on record). Those candidates are re-checked in descending
//!   attribute-sum order against the surviving skyline plus already
//!   promoted candidates, which is sound and complete for the same reason
//!   the SFS scan is: a dominator always has a strictly larger sum.
//!
//! Because every non-skyline tuple always carries a live dominator, the
//! buffer never "runs out" — promotion is exact with no regional
//! recompute needed. The maintained skyline is the same *set* the batch
//! operators compute, and [`IncrementalSkyline::skyline`] keeps it
//! ascending, so it is bit-identical to [`crate::skyline`] over the same
//! rows (`tests` below enforce this against recomputation). HDRRM's
//! prepared handle keeps one to maintain its skyline candidate mask.

use rrm_core::{AppliedUpdate, Dataset};

use crate::dominance::dominates;
use crate::skyhd::{sfs, NO_DOM};

/// A skyline kept current under insert/delete batches.
///
/// The structure does not own the dataset: [`IncrementalSkyline::build`]
/// reads the rows its indices refer to, and
/// [`IncrementalSkyline::apply_update`] the post-update rows an
/// [`AppliedUpdate`] carries.
#[derive(Debug, Clone)]
pub struct IncrementalSkyline {
    /// Skyline member indices, ascending.
    sky: Vec<u32>,
    /// Per-tuple membership flag (`mask[i]` ⟺ `sky.contains(&i)`).
    mask: Vec<bool>,
    /// For non-members, one index that dominates them; `NO_DOM` for
    /// members.
    dom_of: Vec<u32>,
}

impl IncrementalSkyline {
    /// Build from scratch with one SFS pass ([`crate::skyhd`]'s, which
    /// [`crate::skyline`] runs too), recording the first rejecting member
    /// as each pruned tuple's dominator.
    pub fn build(data: &Dataset) -> Self {
        let (mut sky, dom_of) = sfs(data);
        sky.sort_unstable();
        let mut mask = vec![false; data.n()];
        for &s in &sky {
            mask[s as usize] = true;
        }
        Self { sky, mask, dom_of }
    }

    /// Skyline member indices, ascending — bit-identical to what
    /// [`crate::skyline`] returns on the same rows.
    pub fn skyline(&self) -> &[u32] {
        &self.sky
    }

    /// Per-tuple membership mask.
    pub fn mask(&self) -> &[bool] {
        &self.mask
    }

    /// Apply one update batch: afterwards the structure's indices refer to
    /// `upd.new`, old indices map through `upd.remap` (`None` = deleted)
    /// and `upd.inserted` lists the new indices of appended rows.
    pub fn apply_update(&mut self, upd: &AppliedUpdate) {
        let (new_data, remap) = (&upd.new, &upd.remap);
        let n_old = self.dom_of.len();
        assert_eq!(remap.len(), n_old, "remap arity must match the maintained dataset");
        let n_new = new_data.n();

        // 1. Remap survivors; collect promotion candidates — old non-sky
        //    survivors whose recorded dominator was deleted.
        let mut dom_of = vec![NO_DOM; n_new];
        let mut work_sky: Vec<u32> = Vec::with_capacity(self.sky.len());
        let mut candidates: Vec<u32> = Vec::new(); // new indices
        for old in 0..n_old {
            let Some(new) = remap[old] else { continue };
            let d = self.dom_of[old];
            if d == NO_DOM {
                // Surviving members stay members: deletion never shrinks a
                // survivor's dominator-free status.
                work_sky.push(new);
            } else {
                match remap[d as usize] {
                    Some(nd) => dom_of[new as usize] = nd,
                    None => candidates.push(new),
                }
            }
        }

        // 2. Promote deletion candidates in descending-sum order (a
        //    dominator always has a strictly larger sum, so checking
        //    against survivors + already-promoted candidates is complete).
        candidates.sort_unstable_by(|&a, &b| {
            let (sa, sb): (f64, f64) =
                (new_data.row(a as usize).iter().sum(), new_data.row(b as usize).iter().sum());
            sb.partial_cmp(&sa).expect("finite").then(a.cmp(&b))
        });
        for &c in &candidates {
            let row = new_data.row(c as usize);
            match work_sky.iter().find(|&&s| dominates(new_data.row(s as usize), row)) {
                Some(&s) => dom_of[c as usize] = s,
                None => work_sky.push(c),
            }
        }

        // 3. Inserts, one at a time: dominance check against current
        //    members; survivors demote the members they dominate.
        for &j in &upd.inserted {
            let row = new_data.row(j as usize);
            match work_sky.iter().find(|&&s| dominates(new_data.row(s as usize), row)) {
                Some(&s) => dom_of[j as usize] = s,
                None => {
                    work_sky.retain(|&s| {
                        if dominates(row, new_data.row(s as usize)) {
                            dom_of[s as usize] = j;
                            false
                        } else {
                            true
                        }
                    });
                    work_sky.push(j);
                }
            }
        }

        work_sky.sort_unstable();
        let mut mask = vec![false; n_new];
        for &s in &work_sky {
            mask[s as usize] = true;
        }
        self.sky = work_sky;
        self.mask = mask;
        self.dom_of = dom_of;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skyline;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rrm_core::{apply_updates, UpdateOp};

    fn random_rows(rng: &mut StdRng, n: usize, d: usize) -> Vec<Vec<f64>> {
        // Quantized values make ties and duplicates common.
        (0..n).map(|_| (0..d).map(|_| (rng.random_range(0..8) as f64) / 8.0).collect()).collect()
    }

    #[test]
    fn build_matches_batch_skyline() {
        let mut rng = StdRng::seed_from_u64(7);
        for d in [2usize, 3, 4] {
            let rows = random_rows(&mut rng, 40, d);
            let data = Dataset::from_rows(&rows).unwrap();
            let inc = IncrementalSkyline::build(&data);
            assert_eq!(inc.skyline(), skyline(&data).as_slice(), "d={d}");
            for i in 0..data.n() {
                assert_eq!(inc.mask()[i], skyline(&data).contains(&(i as u32)));
            }
        }
    }

    #[test]
    fn build_keeps_no_dominated_row_of_equal_sum() {
        // Row 1 dominates row 0 though their sums round alike (to 1, and
        // to +inf); in the second set it dominates row 2 as well.
        for (rows, want) in [
            ([[1.0, 0.0, 0.0], [1.0, 1e-20, 0.0], [0.2, 0.2, 0.2]], &[1, 2][..]),
            ([[1.7e308, 1.7e308, 0.0], [1.7e308, 1.7e308, 1.0], [0.5, 0.5, 0.5]], &[1]),
        ] {
            let inc = IncrementalSkyline::build(&Dataset::from_rows(&rows).unwrap());
            assert_eq!(inc.skyline(), want);
            assert_eq!(inc.dom_of[0], 1);
        }
    }

    #[test]
    fn dominator_buffer_is_live() {
        let mut rng = StdRng::seed_from_u64(11);
        let rows = random_rows(&mut rng, 50, 3);
        let data = Dataset::from_rows(&rows).unwrap();
        let inc = IncrementalSkyline::build(&data);
        for i in 0..data.n() {
            if !inc.mask()[i] {
                let d = inc.dom_of[i];
                assert_ne!(d, NO_DOM);
                assert!(dominates(data.row(d as usize), data.row(i)), "tuple {i}");
            }
        }
    }

    #[test]
    fn random_update_batches_match_recompute() {
        let mut rng = StdRng::seed_from_u64(23);
        for trial in 0..30 {
            let d_attrs = [2usize, 3, 4][trial % 3];
            let n0 = rng.random_range(3..40);
            let rows = random_rows(&mut rng, n0, d_attrs);
            let mut data = Dataset::from_rows(&rows).unwrap();
            let mut inc = IncrementalSkyline::build(&data);
            for batch in 0..5 {
                let mut ops: Vec<UpdateOp> = Vec::new();
                let deletes = rng.random_range(0..data.n().min(4));
                let mut picked: Vec<usize> = Vec::new();
                while picked.len() < deletes {
                    let i = rng.random_range(0..data.n());
                    if !picked.contains(&i) {
                        picked.push(i);
                        ops.push(UpdateOp::Delete(i));
                    }
                }
                for _ in 0..rng.random_range(1..4) {
                    ops.push(UpdateOp::Insert(
                        (0..d_attrs).map(|_| (rng.random_range(0..8) as f64) / 8.0).collect(),
                    ));
                }
                let upd = apply_updates(&data, &ops).unwrap();
                inc.apply_update(&upd);
                assert_eq!(
                    inc.skyline(),
                    skyline(&upd.new).as_slice(),
                    "trial {trial} batch {batch}"
                );
                data = upd.new;
            }
        }
    }

    #[test]
    fn delete_promotes_from_the_buffer() {
        // 3 dominates 1 and 2; deleting 3 must promote both.
        let data = Dataset::from_rows(&[[0.9, 0.1], [0.4, 0.5], [0.5, 0.4], [0.6, 0.6]]).unwrap();
        let mut inc = IncrementalSkyline::build(&data);
        assert_eq!(inc.skyline(), &[0, 3]);
        let upd = apply_updates(&data, &[UpdateOp::Delete(3)]).unwrap();
        inc.apply_update(&upd);
        assert_eq!(inc.skyline(), skyline(&upd.new).as_slice());
        assert_eq!(inc.skyline(), &[0, 1, 2]);
    }

    #[test]
    fn insert_demotes_dominated_members() {
        let data = Dataset::from_rows(&[[0.4, 0.5], [0.5, 0.4], [0.1, 0.1]]).unwrap();
        let mut inc = IncrementalSkyline::build(&data);
        assert_eq!(inc.skyline(), &[0, 1]);
        let upd = apply_updates(&data, &[UpdateOp::Insert(vec![0.6, 0.6])]).unwrap();
        inc.apply_update(&upd);
        assert_eq!(inc.skyline(), &[3]);
        assert_eq!(inc.skyline(), skyline(&upd.new).as_slice());
    }
}
