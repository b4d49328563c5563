//! The bucket layout of the registry's histograms.

/// Log-bucketed layout over the non-negative integers: bucket 0 holds
/// the value 0, then each power-of-two octave is split into
/// `subs_per_octave` linear sub-buckets (HDR-histogram style, constant
/// relative error). This is pure index/edge arithmetic: a [`Histo`]
/// records into atomically incremented buckets laid out by this struct,
/// so its exposition and quantile math stay in one tested place.
///
/// [`Histo`]: crate::Histo
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LogBuckets {
    subs: u64,
}

impl LogBuckets {
    /// A layout with `subs_per_octave` linear sub-buckets per power of
    /// two. More sub-buckets trade memory for quantile resolution; 4
    /// bounds the relative error of a bucket midpoint by ~12.5 %.
    ///
    /// # Panics
    /// Panics if `subs_per_octave == 0`.
    pub fn new(subs_per_octave: u32) -> Self {
        assert!(subs_per_octave > 0, "need at least one sub-bucket");
        Self {
            subs: u64::from(subs_per_octave),
        }
    }

    /// Total number of buckets (the zero bucket plus 64 octaves).
    #[allow(clippy::len_without_is_empty)] // a layout is never empty
    pub fn len(&self) -> usize {
        1 + 64 * self.subs as usize
    }

    /// Bucket index of `value`. Total, monotone, and branch-light: the
    /// hot path of every telemetry histogram record.
    pub fn index(&self, value: u64) -> usize {
        if value == 0 {
            return 0;
        }
        let octave = u64::from(value.ilog2());
        let base = 1u64 << octave;
        // Offset within the octave in sub-bucket units. Octaves narrower
        // than `subs` use unit-wide sub-buckets; their trailing
        // sub-buckets simply stay unused.
        let within = (value - base) / (base / self.subs).max(1);
        (1 + octave * self.subs + within.min(self.subs - 1)) as usize
    }

    /// Inclusive lower edge of bucket `idx` (0 for the zero bucket).
    /// Edges are monotone non-decreasing; sub-buckets that [`Self::index`]
    /// can never produce (in octaves narrower than `subs`) collapse onto
    /// the next octave's base.
    pub fn lower_edge(&self, idx: usize) -> u64 {
        if idx == 0 {
            return 0;
        }
        let octave = (idx as u64 - 1) / self.subs;
        let within = (idx as u64 - 1) % self.subs;
        if octave >= 63 {
            // The top octave cannot spell 2 * base; saturate carefully.
            let base = 1u64 << 63;
            return base.saturating_add(within.saturating_mul(base / self.subs));
        }
        let base = 1u64 << octave;
        (base + within * (base / self.subs).max(1)).min(2 * base)
    }

    /// Exclusive upper edge of bucket `idx` (`u64::MAX` for the last).
    pub fn upper_edge(&self, idx: usize) -> u64 {
        if idx + 1 >= self.len() {
            return u64::MAX;
        }
        // Skip degenerate same-edge buckets in the narrow octaves so the
        // interval is never empty.
        let lo = self.lower_edge(idx);
        let mut next = idx + 1;
        while next + 1 < self.len() && self.lower_edge(next) <= lo {
            next += 1;
        }
        self.lower_edge(next).max(lo + 1)
    }

    /// Representative value of bucket `idx` (midpoint of its interval),
    /// used for approximate quantiles over recorded bucket counts.
    pub fn midpoint(&self, idx: usize) -> f64 {
        let lo = self.lower_edge(idx);
        if idx + 1 >= self.len() {
            return lo as f64;
        }
        let hi = self.upper_edge(idx);
        (lo as f64 + hi as f64) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_buckets_zero_and_ones() {
        let lb = LogBuckets::new(4);
        assert_eq!(lb.index(0), 0);
        assert_eq!(lb.lower_edge(0), 0);
        assert_eq!(lb.index(1), 1);
        assert_eq!(lb.lower_edge(1), 1);
        assert_eq!(lb.len(), 1 + 64 * 4);
    }

    #[test]
    fn log_buckets_index_is_monotone_and_consistent_with_edges() {
        let lb = LogBuckets::new(4);
        let mut prev_idx = 0;
        for v in (0u64..2048).chain([1 << 20, (1 << 20) + 3, u64::MAX / 2, u64::MAX]) {
            let idx = lb.index(v);
            assert!(idx >= prev_idx, "index not monotone at {v}");
            prev_idx = idx;
            assert!(idx < lb.len());
            // The value lies inside its bucket's interval.
            assert!(lb.lower_edge(idx) <= v, "lower edge above {v}");
            assert!(v < lb.upper_edge(idx) || lb.upper_edge(idx) == u64::MAX);
        }
        // Edges never decrease.
        for idx in 1..lb.len() {
            assert!(
                lb.lower_edge(idx) >= lb.lower_edge(idx - 1),
                "edge dropped at {idx}"
            );
        }
    }

    #[test]
    fn log_buckets_relative_error_is_bounded() {
        let lb = LogBuckets::new(4);
        // Midpoint error bounded by half a sub-bucket: 12.5 % of value
        // for subs_per_octave = 4 (checked loosely at 20 %).
        for v in [16u64, 100, 1000, 65_536, 1_000_000] {
            let mid = lb.midpoint(lb.index(v));
            let rel = (mid - v as f64).abs() / v as f64;
            assert!(rel < 0.2, "relative error {rel} at {v}");
        }
    }
}
