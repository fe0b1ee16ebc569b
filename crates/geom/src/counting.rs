//! Counting sort on a float key: the sort of the 2D sweep.
//!
//! The sweep orders two things: lines by height at a weight
//! ([`crate::dual::order_at`]) and tracked crossings by `x`
//! ([`crate::events`]). Each exact key starts with an f64. A [`Histogram`]
//! counts the items per equal-width bucket of that f64 in one pass; a
//! second pass writes each item straight into its slot of one exact-size
//! buffer ([`Slots`]); then each bucket is sorted by the exact key. A
//! bucket never decreases as its value grows, so the buckets in turn,
//! each in exact-key order, are the exact-key order. With a few items per
//! bucket each sort is a few compares, where one comparison sort of `n`
//! items makes `n log n`.

use std::ops::Range;

/// Equal-width buckets over a value range. Values outside the range land
/// in its first or last bucket.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Buckets {
    lo: f64,
    /// Buckets per unit of value; 0 for a single bucket.
    scale: f64,
    last: usize,
}

impl Buckets {
    /// `len` buckets over `[lo, hi]`, or a single one when `len < 2` or
    /// the span is zero, not finite or too narrow to divide.
    pub(crate) fn new(lo: f64, hi: f64, len: usize) -> Self {
        let scale = len as f64 / (hi - lo);
        if len > 1 && scale.is_finite() && scale > 0.0 {
            Self { lo, scale, last: len - 1 }
        } else {
            Self { lo: 0.0, scale: 0.0, last: 0 }
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.last + 1
    }

    /// The bucket of `v`. It never decreases as `v` grows in
    /// [`f64::total_cmp`] order (a NaN is below `-inf` when its sign is set
    /// and above `inf` when not), and `-0.0` and `0.0` share one.
    #[inline]
    pub(crate) fn of(&self, v: f64) -> usize {
        if v.is_nan() {
            return if v.is_sign_negative() { 0 } else { self.last };
        }
        (((v - self.lo) * self.scale) as usize).min(self.last)
    }
}

/// Items counted per bucket: the first pass of a counting sort.
pub(crate) struct Histogram {
    buckets: Buckets,
    counts: Vec<usize>,
}

impl Histogram {
    pub(crate) fn new(buckets: Buckets) -> Self {
        Self { buckets, counts: vec![0; buckets.len()] }
    }

    /// Count one item of value `v`.
    #[inline]
    pub(crate) fn add(&mut self, v: f64) {
        self.counts[self.buckets.of(v)] += 1;
    }

    pub(crate) fn total(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Every bucket.
    pub(crate) fn all(&self) -> Range<usize> {
        0..self.counts.len()
    }

    /// The buckets cut into runs of consecutive ones holding at most
    /// `target` items each; a bucket over `target` is a run of its own.
    pub(crate) fn strips(&self, target: usize) -> Vec<Range<usize>> {
        let mut strips = Vec::new();
        let (mut start, mut held) = (0, 0);
        for (b, &count) in self.counts.iter().enumerate() {
            if held > 0 && held + count > target {
                strips.push(start..b);
                (start, held) = (b, 0);
            }
            held += count;
        }
        strips.push(start..self.counts.len());
        strips
    }

    /// Slots for the items of buckets `range`: `buf` (its allocation
    /// reused) holding exactly their count of `fill`, each bucket's run of
    /// slots in bucket order. The range's counts become the slots' cursors
    /// in place, so each range is slotted once.
    pub(crate) fn slots<T>(&mut self, range: Range<usize>, mut buf: Vec<T>, fill: T) -> Slots<'_, T>
    where
        T: Copy,
    {
        let first = range.start;
        let cursors = &mut self.counts[range];
        let mut end = 0;
        for cursor in cursors.iter_mut() {
            (*cursor, end) = (end, end + *cursor);
        }
        buf.clear();
        buf.resize(end, fill);
        Slots { buckets: self.buckets, first, cursors, items: buf }
    }
}

/// Buckets up to this size are sorted comparing keys as they go; larger
/// ones compute each item's key once.
const CACHE_KEYS_FROM: usize = 16;

/// The second pass of a counting sort over a run of buckets: each item
/// written into the next free slot of its bucket.
pub(crate) struct Slots<'h, T> {
    buckets: Buckets,
    /// The run's first bucket.
    first: usize,
    /// Per bucket of the run, its next free slot: its end once every item
    /// is placed.
    cursors: &'h mut [usize],
    items: Vec<T>,
}

impl<T: Copy> Slots<'_, T> {
    /// Place an item of value `v`; one outside the run's buckets is
    /// skipped. Every item the histogram counted in the run must be
    /// placed once.
    #[inline]
    pub(crate) fn put(&mut self, v: f64, item: T) {
        let b = self.buckets.of(v).wrapping_sub(self.first);
        if let Some(cursor) = self.cursors.get_mut(b) {
            self.items[*cursor] = item;
            *cursor += 1;
        }
    }

    /// The placed items with each bucket sorted by `key`: ascending `key`
    /// order whenever `key` never puts a larger value before a smaller
    /// one, as [`Buckets::of`] orders them.
    pub(crate) fn sorted_by_key<K: Ord>(mut self, key: impl Fn(&T) -> K) -> Vec<T> {
        let mut start = 0;
        for &end in self.cursors.iter() {
            let bucket = &mut self.items[start..end];
            if bucket.len() > CACHE_KEYS_FROM {
                bucket.sort_by_cached_key(&key);
            } else if bucket.len() > 1 {
                bucket.sort_unstable_by_key(&key);
            }
            start = end;
        }
        debug_assert_eq!(start, self.items.len(), "the run got other than its counted items");
        self.items
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_never_decrease_along_total_order() {
        let buckets = Buckets::new(-1.0, 3.0, 16);
        let mut values = vec![
            -f64::NAN,
            f64::NEG_INFINITY,
            -1e300,
            -1.0,
            -0.0,
            0.0,
            1e-300,
            0.5,
            2.999,
            3.0,
            1e300,
            f64::INFINITY,
            f64::NAN,
        ];
        values.sort_by(f64::total_cmp);
        let of: Vec<usize> = values.iter().map(|&v| buckets.of(v)).collect();
        assert!(of.windows(2).all(|w| w[0] <= w[1]), "{of:?}");
        assert_eq!((of[0], of[of.len() - 1]), (0, 15));
        assert_eq!(buckets.of(-0.0), buckets.of(0.0));
    }

    #[test]
    fn degenerate_ranges_are_one_bucket() {
        for (lo, hi) in
            [(1.0, 1.0), (2.0, 1.0), (-1.7e308, 1.7e308), (0.0, f64::NAN), (0.0, 5e-324)]
        {
            let buckets = Buckets::new(lo, hi, 64);
            assert_eq!(buckets.len(), 1, "[{lo:e}, {hi:e}]");
            assert_eq!(buckets.of(f64::NAN), 0);
        }
        assert_eq!(Buckets::new(0.0, 1.0, 1).len(), 1);
    }

    #[test]
    fn counting_sort_orders_by_key() {
        // 97 distinct values in 40 buckets: runs of equal values, and
        // buckets past `CACHE_KEYS_FROM`.
        let values: Vec<f64> = (0..500u32).map(|i| ((i * 7919) % 97) as f64 / 8.0).collect();
        let key = |&(v, i): &(f64, u32)| (v.to_bits(), i);
        let mut want: Vec<(f64, u32)> = (0..).zip(values.iter()).map(|(i, &v)| (v, i)).collect();
        want.sort_unstable_by_key(key);
        // Strip by strip, reusing one buffer; one strip at the largest
        // target.
        for target in [1, 7, 100, usize::MAX] {
            let mut hist = Histogram::new(Buckets::new(0.0, 12.0, 40));
            values.iter().for_each(|&v| hist.add(v));
            assert_eq!(hist.total(), values.len());
            let (mut buf, mut got) = (Vec::new(), Vec::new());
            for strip in hist.strips(target) {
                let one_bucket = strip.len() == 1;
                let mut slots = hist.slots(strip, buf, (0.0, 0));
                for (i, &v) in values.iter().enumerate() {
                    slots.put(v, (v, i as u32));
                }
                buf = slots.sorted_by_key(key);
                assert!(buf.len() <= target || one_bucket, "target {target}");
                got.extend_from_slice(&buf);
            }
            assert_eq!(got, want, "target {target}");
        }
    }
}
