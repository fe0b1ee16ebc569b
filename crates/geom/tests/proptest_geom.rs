//! Property-based tests for the geometry substrate.

use proptest::prelude::*;
use rrm_geom::dual::{order_at, DualLine};
use rrm_geom::envelope::upper_envelope;
use rrm_geom::events::{crossings_with_tracked, initial_ranks, stream_crossings};
use rrm_geom::polar::{angles_to_direction, direction_to_angles};
use rrm_geom::sweep::arrangement_sweep;

fn lines_strategy() -> impl Strategy<Value = Vec<DualLine>> {
    proptest::collection::vec((0u32..1000, 0u32..1000), 1..25).prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(a, b)| DualLine::from_tuple(&[a as f64 / 1000.0, b as f64 / 1000.0]))
            .collect()
    })
}

/// Up to 300 lines on a 50-step grid: equal heights and slopes are common,
/// and most sets are past `order_at`'s bucketing threshold.
fn grid_lines_strategy() -> impl Strategy<Value = Vec<DualLine>> {
    proptest::collection::vec((0u32..50, 0u32..50), 1..300).prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(a, b)| DualLine::from_tuple(&[a as f64 / 49.0, b as f64 / 49.0]))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `order_at` is height descending, then slope descending, then id.
    #[test]
    fn order_at_matches_a_comparison_sort(lines in grid_lines_strategy(), x_step in 0u32..=8) {
        let x = x_step as f64 / 8.0;
        let mut got: Vec<u32> = (0..lines.len() as u32).collect();
        let mut want = got.clone();
        order_at(&lines, &mut got, x);
        want.sort_by(|&a, &b| {
            let (la, lb) = (&lines[a as usize], &lines[b as usize]);
            let by = |f: fn(&DualLine, f64) -> f64| f(lb, x).partial_cmp(&f(la, x)).unwrap();
            by(|l, x| l.eval(x)).then(by(|l, _| l.slope)).then(a.cmp(&b))
        });
        prop_assert_eq!(got, want);
    }

    /// The sweep and the event list report identical rank trajectories.
    #[test]
    fn sweep_equals_event_list(lines in lines_strategy()) {
        let tracked: Vec<u32> = (0..lines.len() as u32).collect();
        let mut rank_a = initial_ranks(&lines, 0.0);
        for c in crossings_with_tracked(&lines, &tracked, 0.0, 1.0) {
            rank_a[c.down as usize] += 1;
            rank_a[c.up as usize] -= 1;
        }
        let mut rank_b = initial_ranks(&lines, 0.0);
        arrangement_sweep(&lines, 0.0, 1.0, |_, down, up, _| {
            rank_b[down as usize] += 1;
            rank_b[up as usize] -= 1;
        });
        prop_assert_eq!(rank_a, rank_b);
    }

    /// Streaming with any chunk size reproduces the materialized order.
    #[test]
    fn stream_order_invariant(lines in lines_strategy(), chunk in 1usize..50) {
        let tracked: Vec<u32> = (0..lines.len() as u32).step_by(2).collect();
        if tracked.is_empty() {
            return Ok(());
        }
        let all = crossings_with_tracked(&lines, &tracked, 0.0, 1.0);
        let mut streamed = Vec::new();
        stream_crossings(&lines, &tracked, 0.0, 1.0, chunk, |c| streamed.push(*c));
        prop_assert_eq!(streamed, all);
    }

    /// Replayed ranks equal brute-force ranks at random probes.
    #[test]
    fn ranks_match_brute_force(lines in lines_strategy(), probe_ppm in 0u32..1_000_000) {
        let probe = probe_ppm as f64 / 1_000_000.0;
        let tracked: Vec<u32> = (0..lines.len() as u32).collect();
        let mut rank = initial_ranks(&lines, 0.0);
        for c in crossings_with_tracked(&lines, &tracked, 0.0, probe) {
            rank[c.down as usize] += 1;
            rank[c.up as usize] -= 1;
        }
        // Brute force with the same tie-break (height, then slope, then id).
        for i in 0..lines.len() {
            let above = (0..lines.len())
                .filter(|&j| j != i)
                .filter(|&j| {
                    let (a, b) = (lines[j].eval(probe), lines[i].eval(probe));
                    a > b
                        || (a == b
                            && (lines[j].slope > lines[i].slope
                                || (lines[j].slope == lines[i].slope && j < i)))
                })
                .count();
            prop_assert_eq!(rank[i], above + 1, "line {} at {}", i, probe);
        }
    }

    /// The envelope is exactly the per-x argmax.
    #[test]
    fn envelope_matches_argmax(lines in lines_strategy(), probe_ppm in 1u32..999_999) {
        let probe = probe_ppm as f64 / 1_000_000.0;
        let segs = upper_envelope(&lines, 0.0, 1.0);
        let seg = segs.iter().find(|s| s.from_x <= probe && probe <= s.to_x);
        prop_assume!(seg.is_some()); // probe can fall exactly on a breakpoint
        let seg = seg.unwrap();
        let best = (0..lines.len())
            .map(|i| lines[i].eval(probe))
            .fold(f64::NEG_INFINITY, f64::max);
        prop_assert!((lines[seg.line as usize].eval(probe) - best).abs() < 1e-12);
    }

    /// Polar round trip is the identity on the orthant sphere.
    #[test]
    fn polar_roundtrip(raw in proptest::collection::vec(1u32..1000, 2..6)) {
        let norm = (raw.iter().map(|&v| (v as f64) * (v as f64)).sum::<f64>()).sqrt();
        let u: Vec<f64> = raw.iter().map(|&v| v as f64 / norm).collect();
        let angles = direction_to_angles(&u);
        prop_assert!(angles
            .iter()
            .all(|&a| (0.0..=std::f64::consts::FRAC_PI_2 + 1e-12).contains(&a)));
        let v = angles_to_direction(&angles);
        for (a, b) in u.iter().zip(&v) {
            prop_assert!((a - b).abs() < 1e-9, "{:?} vs {:?}", u, v);
        }
    }
}
