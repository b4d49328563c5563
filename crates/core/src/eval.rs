//! Incremental evaluation of `F_G` under pairwise swaps.
//!
//! The tabu search applies, every iteration, the best of all cross-cluster
//! swaps — `O(N²)` candidates. Recomputing Eq. 2 per candidate costs
//! `O(N²)` each, which the search cannot afford. [`SwapEvaluator`] caches,
//! for every switch `v` and cluster `c`, the partial sum
//! `S(v, c) = Σ_{u ∈ c} T²(v, u)`, so that
//!
//! * the `F_G` change of a candidate swap is `O(1)`
//!   ([`SwapEvaluator::delta_fg`], the definition),
//! * applying a swap updates the cache in `O(N)` — it writes columns
//!   `c(a)` and `c(b)` of `S` and nothing else, which is what lets a caller
//!   keep the bests of every other cluster pair,
//! * the best swaps of one cluster pair come from one block scan
//!   ([`SwapEvaluator::best_swaps_between`]): the same numerators, bit for
//!   bit, at a few loads and flops each — per pair `w_p + w_q` is a
//!   constant, per row `w_q · S(u, q)` is, the products `w_c · S(v, c)` are
//!   cached, the members of a cluster are a list, and the division by the
//!   norm is paid only by a candidate within rounding reach of the best
//!   allowed one so far. Ties go to the lowest `(delta_fg, a, b)` — what a
//!   scan in `(a, b)` order with a strict `<` keeps — so the answer does
//!   not depend on the order candidates are visited in,
//! * and most rows are never scored: with `far_sq[x] = max_y T²(x, y)`,
//!   one pass over each cluster ([`SwapEvaluator::block_bounds`]) bounds
//!   every row's numerators from below; the lowest-bound row goes first,
//!   and a row bounded above the cutoff holds only candidates it drops
//!   (Kernighan–Lin's exit, made exact). The pair's lowest row bound is a
//!   bound on the whole pair: a caller that already knows an allowed swap
//!   from other pairs skips a pair whose floor lies above that swap's
//!   cutoff ([`PairBounds::excludes`], [`SwapEvaluator::cutoff_of`]) and
//!   scans the rest with the bounds it has
//!   ([`SwapEvaluator::best_swaps_between_with`]).
//!
//! `far_sq` is a property of the table alone, and only the bound pass and
//! the scan read it: [`far_squares`] computes it once, and a caller that
//! scans passes it in (the tabu search computes one per search and its
//! restarts share it). Evaluators that only call `delta_fg` and
//! `apply_swap` never pay for it.
//!
//! Since swaps never change cluster *sizes*, the normalization of Eq. 2
//! (intracluster pair count × quadratic average distance) is constant and
//! cached once.

use crate::partition::Partition;
use commsched_distance::DistanceTable;
use commsched_topology::SwitchId;
use std::hint::select_unpredictable;

/// A scored candidate swap `(delta_fg, a, b)`, `a < b`.
type ScoredSwap = (f64, SwitchId, SwitchId);

/// The best swaps of a set of candidates, as
/// [`SwapEvaluator::best_swaps_between`] finds them for one cluster pair;
/// a swap is `(delta_fg, a, b)` with `a < b`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockBest {
    /// The lowest `(delta_fg, a, b)` of all.
    pub any: (f64, SwitchId, SwitchId),
    /// The lowest among the swaps not tabu; `None` if all were.
    pub allowed: Option<(f64, SwitchId, SwitchId)>,
}

/// The tie rule: whether `x` beats `y` — the lower `(delta_fg, a, b)`.
fn beats(x: ScoredSwap, y: ScoredSwap) -> bool {
    x.0 < y.0 || (x.0 == y.0 && (x.1, x.2) < (y.1, y.2))
}

impl BlockBest {
    /// The bests of two disjoint candidate sets as those of their union.
    #[must_use]
    pub fn merged(self, other: BlockBest) -> BlockBest {
        let winner = |x: ScoredSwap, y: ScoredSwap| if beats(y, x) { y } else { x };
        BlockBest {
            any: winner(self.any, other.any),
            allowed: match (self.allowed, other.allowed) {
                (Some(x), Some(y)) => Some(winner(x, y)),
                (x, y) => x.or(y),
            },
        }
    }
}

/// `far_sq[v] = max_{u ≠ v} T²(v, u)` of `table`, each `T²` the `d * d` a
/// block scan computes: what [`SwapEvaluator::block_bounds`] and the
/// scans take.
pub fn far_squares(table: &DistanceTable) -> Vec<f64> {
    (0..table.n())
        .map(|v| {
            let mut far = 0.0;
            for (u, &d) in table.row(v).iter().enumerate() {
                // CORRECTNESS: a plain select is `f64::max` here: the table
                // is finite (its decoder rejects non-finite entries) and a
                // square is never -0.0.
                if u != v && d * d > far {
                    far = d * d;
                }
            }
            far
        })
        .collect()
}

/// One bound pass over a cluster pair `(p, q)`
/// ([`SwapEvaluator::block_bounds`]): a lower bound on every numerator of
/// its swaps, valid until a swap changes column `p` or `q` of `S`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairBounds {
    p: usize,
    q: usize,
    /// Over `q`: the lowest `B_v = col_p[v] − col_q[v]` ...
    low_b: f64,
    /// ... and the lowest `B_v − w · far_sq[v]`.
    low_b_far: f64,
    /// The largest of the five terms a numerator is made of, over both.
    scale: f64,
    /// The row of `p` with the lowest floor, and that floor.
    lowest: SwitchId,
    floor: f64,
}

impl PairBounds {
    /// The lowest numerator row `u` of `p` can hold, from its `col_p[u]`,
    /// `col_q[u]` and `w · far_sq[u]`; `A_u = col_q[u] − col_p[u]`.
    #[inline]
    fn row_floor(&self, own: f64, gain: f64, far: f64) -> f64 {
        let near = self.low_b - far;
        let reach = if near > self.low_b_far {
            near
        } else {
            self.low_b_far
        };
        gain - own + reach
    }

    /// The cluster pair `(p, q)` the bounds were taken over.
    pub fn pair(&self) -> (usize, usize) {
        (self.p, self.q)
    }

    /// The lowest numerator a swap of the pair can hold, up to rounding.
    pub fn floor(&self) -> f64 {
        self.floor
    }

    /// Whether a numerator bounded below by `floor` lies above `cutoff`
    /// for certain.
    ///
    /// CORRECTNESS: the columns are non-negative (weights > 0, sums of
    /// squares), so the five terms of a numerator, and a floor's, sum to
    /// ≤ `2 · scale`: a 1e-9 slack of it is far more than their rounding
    /// (a few 2⁻⁵³).
    fn above(&self, floor: f64, cutoff: f64) -> bool {
        floor - 1e-9 * self.scale > cutoff
    }

    /// Whether every numerator of the pair lies above `cutoff`: a pair
    /// that holds no candidate a scan against that cutoff would keep.
    pub fn excludes(&self, cutoff: f64) -> bool {
        self.above(self.floor, cutoff)
    }
}

/// Incremental `F_G` evaluator over a working partition, with one traffic
/// weight per cluster: the value is [`crate::weighted_similarity_fg`],
/// which at unit weights ([`SwapEvaluator::new`]) is the paper's
/// [`crate::similarity_fg`] — and the unit-weight arithmetic is exact
/// (`1.0 · x`), so that case pays nothing for the general one.
#[derive(Debug, Clone)]
pub struct SwapEvaluator<'t> {
    table: &'t DistanceTable,
    partition: Partition,
    /// Traffic weight of each cluster.
    weights: Vec<f64>,
    /// `sums[c * N + v] = S(v, c)`: one contiguous column per cluster.
    sums: Vec<f64>,
    /// `weighted[c * N + v] = w_c · S(v, c)`, the products every numerator
    /// is made of.
    weighted: Vec<f64>,
    /// The switches grouped by cluster, in no particular order: cluster
    /// `c` is `members[first[c]..first[c + 1]]`, and `members[slot[v]] == v`.
    members: Vec<SwitchId>,
    first: Vec<usize>,
    slot: Vec<usize>,
    /// Current numerator `Σ_c w_c · F_{A_c}` of Eq. 2.
    intra_sum: f64,
    /// Constant denominator: `Σ_c w_c · pairs_c × mean_square`.
    norm: f64,
}

impl<'t> SwapEvaluator<'t> {
    /// Build the paper's (unit-weight) evaluator for `partition` over
    /// `table`.
    ///
    /// # Panics
    /// Panics if the partition and table sizes disagree.
    pub fn new(partition: Partition, table: &'t DistanceTable) -> Self {
        let weights = vec![1.0; partition.num_clusters()];
        Self::with_weights(partition, table, weights)
    }

    /// Build the evaluator with one traffic weight per cluster (the
    /// paper's future-work setting of unequal communication requirements).
    ///
    /// # Panics
    /// Panics on size mismatches or non-positive weights.
    pub fn with_weights(partition: Partition, table: &'t DistanceTable, weights: Vec<f64>) -> Self {
        assert_eq!(
            partition.num_switches(),
            table.n(),
            "partition/table size mismatch"
        );
        assert_eq!(
            weights.len(),
            partition.num_clusters(),
            "one weight per cluster"
        );
        assert!(weights.iter().all(|&w| w > 0.0), "weights must be positive");
        let n = partition.num_switches();
        let m = partition.num_clusters();
        let sizes = partition.sizes();
        let mut first = vec![0; m + 1];
        for c in 0..m {
            first[c + 1] = first[c] + sizes[c];
        }
        let (mut members, mut slot, mut next) = (vec![0; n], vec![0; n], first.clone());
        for v in 0..n {
            slot[v] = next[partition.cluster_of(v)];
            members[slot[v]] = v;
            next[partition.cluster_of(v)] += 1;
        }
        let (mut sums, mut weighted) = (vec![0.0; n * m], vec![0.0; n * m]);
        let mut intra_sum = 0.0;
        for v in 0..n {
            let (row, own) = (table.row(v), partition.cluster_of(v));
            for c in 0..m {
                // CORRECTNESS: the members were filled in ascending switch
                // order, so each `S(v, c)` adds its `T²` in ascending `u`,
                // from 0.0, as a scatter into `sums` in `(v, u)` order did.
                let mut s = 0.0;
                for &u in &members[first[c]..first[c + 1]] {
                    if u != v {
                        s += row[u] * row[u];
                    }
                }
                (sums[c * n + v], weighted[c * n + v]) = (s, weights[c] * s);
            }
            // CORRECTNESS: the members were filled in ascending switch
            // order, so these are the `j > v` of `v`'s cluster ascending:
            // `intra_square_sum`'s (i < j) order, which unit weights
            // reproduce bit for bit.
            for &j in &members[slot[v] + 1..first[own + 1]] {
                intra_sum += weights[own] * (row[j] * row[j]);
            }
        }
        let weighted_pairs = sizes.iter().zip(&weights);
        let pairs: f64 = weighted_pairs
            .map(|(&size, &w)| w * (size * (size - 1) / 2) as f64)
            .sum();
        Self {
            table,
            partition,
            weights,
            sums,
            weighted,
            members,
            first,
            slot,
            intra_sum,
            norm: pairs * table.mean_square(),
        }
    }

    /// The working partition.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Consume the evaluator, returning the working partition.
    pub fn into_partition(self) -> Partition {
        self.partition
    }

    /// Current (weighted) `F_G` value (Eq. 2).
    pub fn fg(&self) -> f64 {
        self.normalized(self.intra_sum)
    }

    /// `w_c · S(·, c)` of `cluster`, indexed by switch.
    #[inline]
    fn column(&self, cluster: usize) -> &[f64] {
        let n = self.partition.num_switches();
        &self.weighted[cluster * n..(cluster + 1) * n]
    }

    /// Change in the Eq.-2 numerator if switches `a` and `b` (in different
    /// clusters) swapped assignments. Negative is an improvement.
    pub fn delta_intra(&self, a: SwitchId, b: SwitchId) -> f64 {
        let ca = self.partition.cluster_of(a);
        let cb = self.partition.cluster_of(b);
        debug_assert_ne!(ca, cb, "swap within a cluster");
        let (own_a, own_b) = (self.column(ca), self.column(cb));
        own_b[a] + own_a[b]
            - own_a[a]
            - own_b[b]
            - (self.weights[ca] + self.weights[cb]) * self.table.get_sq(a, b)
    }

    /// Change in `F_G` if `a` and `b` swapped (O(1)).
    ///
    /// `#[inline]`: the tabu scan calls this for every cross-cluster pair
    /// of every iteration from another crate; with the weights it is past
    /// the size rustc inlines across crates unasked.
    #[inline]
    pub fn delta_fg(&self, a: SwitchId, b: SwitchId) -> f64 {
        self.normalized(self.delta_intra(a, b))
    }

    /// An Eq.-2 numerator, or a change of it, over the constant norm.
    #[inline]
    fn normalized(&self, intra: f64) -> f64 {
        if self.norm == 0.0 {
            0.0
        } else {
            intra / self.norm
        }
    }

    /// The switches of `cluster`.
    fn members(&self, cluster: usize) -> &[SwitchId] {
        &self.members[self.first[cluster]..self.first[cluster + 1]]
    }

    /// The cutoff a block scan holds its candidates to once `swap` is its
    /// allowed best: no numerator above it can end at or below `swap`'s
    /// delta in the current partition, whose `(a, b)` must sit in two
    /// clusters. Infinite when the norm is 0 (every delta is 0, all tie).
    pub fn cutoff_of(&self, swap: (f64, SwitchId, SwitchId)) -> f64 {
        // CORRECTNESS: `delta_intra` is the numerator a scan divides, bit
        // for bit (the note at the scan's numerator), so a swap a scan
        // kept gets the cutoff that scan held its candidates to.
        self.cutoff_above(self.delta_intra(swap.1, swap.2))
    }

    /// See [`SwapEvaluator::cutoff_of`]; `num` is the allowed best's
    /// numerator.
    #[inline]
    fn cutoff_above(&self, num: f64) -> f64 {
        // CORRECTNESS: a skipped swap cannot tie after the division. Its
        // quotient is more than 1e-12 · (|allowed's| + 1) greater before
        // rounding, and the two roundings move them by at most 2⁻⁵³ of
        // their sizes (2⁻¹⁰⁷⁵ if subnormal): it stays strictly greater and
        // loses whatever its `(a, b)`. With `norm == 0` every delta is 0,
        // all tie, none is skipped.
        if self.norm > 0.0 {
            num + 1e-12 * (num.abs() + self.norm)
        } else {
            f64::INFINITY
        }
    }

    /// The bound pass of cluster pair `(p, q)`: a lower bound on every
    /// numerator of each row of `p`, the row with the lowest, and the
    /// scale of the terms, for [`SwapEvaluator::best_swaps_between_with`]
    /// and [`PairBounds::excludes`]. Two passes over the members, no
    /// candidate scored. `far_sq` is [`far_squares`] of the evaluator's
    /// table.
    ///
    /// # Panics
    /// Panics if `p == q`, either is not a cluster, or `far_sq` is not one
    /// entry per switch.
    pub fn block_bounds(&self, p: usize, q: usize, far_sq: &[f64]) -> PairBounds {
        assert_ne!(p, q, "swap within a cluster");
        assert_eq!(far_sq.len(), self.table.n(), "far_sq/table size mismatch");
        let w_both = self.weights[p] + self.weights[q];
        let (col_p, col_q) = (self.column(p), self.column(q));
        // A numerator is `A_u + B_v − w·T²(u, v)`. Over `q`: the lowest `B_v =
        // col_p[v] − col_q[v]` and `B_v − w·far_sq[v]`; over both, the scale.
        // CORRECTNESS: plain selects stand for `f64::min` / `max`: the table
        // is finite (its decoder rejects non-finite entries), so no NaN
        // can appear, and a bound is only ever compared, so the sign of a
        // zero does not matter.
        let (mut low_b, mut low_b_far, mut scale) = (f64::INFINITY, f64::INFINITY, 0.0);
        for &v in self.members(q) {
            let (b, far) = (col_p[v] - col_q[v], w_both * far_sq[v]);
            let (reach, both) = (b - far, col_p[v] + col_q[v] + far);
            if b < low_b {
                low_b = b;
            }
            if reach < low_b_far {
                low_b_far = reach;
            }
            if both > scale {
                scale = both;
            }
        }
        let in_p = self.members(p);
        let mut bounds = PairBounds {
            p,
            q,
            low_b,
            low_b_far,
            scale,
            lowest: in_p[0],
            floor: f64::INFINITY,
        };
        for &u in in_p {
            let far = w_both * far_sq[u];
            let floor = bounds.row_floor(col_p[u], col_q[u], far);
            if floor < bounds.floor {
                (bounds.lowest, bounds.floor) = (u, floor);
            }
            let both = col_p[u] + col_q[u] + far;
            if both > bounds.scale {
                bounds.scale = both;
            }
        }
        bounds
    }

    /// The best swaps between clusters `p` and `q`: over every candidate
    /// `(a, b)`, `a < b`, one switch in each, the lowest
    /// `(delta_fg(a, b), a, b)` of all and of those `is_tabu(a, b)` does
    /// not refuse — what a scan in ascending `(a, b)` order with a strict
    /// `<` keeps, whatever order this one visits them in. `is_tabu` is
    /// asked only of a swap that would otherwise be the allowed best.
    /// Also returns the candidates scored: the row of `p` with the lowest
    /// bound goes first, and a row whose bound cannot hold a best is skipped.
    /// `far_sq` is [`far_squares`] of the evaluator's table.
    ///
    /// # Panics
    /// Panics if `p == q`, either is not a cluster, or `far_sq` is not one
    /// entry per switch.
    pub fn best_swaps_between(
        &self,
        p: usize,
        q: usize,
        far_sq: &[f64],
        is_tabu: impl FnMut(SwitchId, SwitchId) -> bool,
    ) -> (BlockBest, usize) {
        self.best_swaps_between_with(&self.block_bounds(p, q, far_sq), far_sq, is_tabu)
    }

    /// [`SwapEvaluator::best_swaps_between`] of the pair `bounds` was taken
    /// over, reusing that bound pass: `bounds` must come from
    /// [`SwapEvaluator::block_bounds`], over the same `far_sq`, with no
    /// swap applied since that changed column `p` or `q` of `S`.
    ///
    /// # Panics
    /// Panics if `far_sq` is not one entry per switch.
    pub fn best_swaps_between_with(
        &self,
        bounds: &PairBounds,
        far_sq: &[f64],
        mut is_tabu: impl FnMut(SwitchId, SwitchId) -> bool,
    ) -> (BlockBest, usize) {
        assert_eq!(far_sq.len(), self.table.n(), "far_sq/table size mismatch");
        let (p, q) = bounds.pair();
        let w_both = self.weights[p] + self.weights[q];
        let (col_p, col_q, in_q) = (self.column(p), self.column(q), self.members(q));
        let (mut any, mut allowed): (Option<ScoredSwap>, Option<ScoredSwap>) = (None, None);
        // No numerator above this can end at or below `allowed`'s delta.
        let (mut cutoff, mut scored) = (f64::INFINITY, 0);
        let (in_p, lowest) = (self.members(p), bounds.lowest);
        let rest = in_p.iter().copied().filter(|&u| u != lowest);
        for u in std::iter::once(lowest).chain(rest) {
            // CORRECTNESS: the `num > cutoff` skip below would drop every
            // candidate of a skipped row here, so neither the skip nor the
            // visit order moves a best. `T²(u, v) ≤ far_sq[u], far_sq[v]`
            // (symmetric table), each the same `d * d`; `above` holds the
            // slack for rounding.
            let floor = bounds.row_floor(col_p[u], col_q[u], w_both * far_sq[u]);
            if bounds.above(floor, cutoff) {
                continue;
            }
            scored += in_q.len();
            // One length for the three slices: one bounds check a candidate.
            let row = &self.table.row(u)[..col_p.len()];
            let (gain_u, own_u) = (col_q[u], col_p[u]);
            for &v in in_q {
                // CORRECTNESS: bit for bit what `delta_intra` computes — `+`
                // commutes exactly, the table is symmetric (every
                // constructor mirrors its upper half), and the lower
                // switch's own term is subtracted first, as there. Which
                // one that is is a coin toss: select, do not branch.
                let (ou, ov) = (own_u.to_bits(), col_q[v].to_bits());
                let first = f64::from_bits(select_unpredictable(v < u, ov, ou));
                let second = f64::from_bits(select_unpredictable(v < u, ou, ov));
                let num = gain_u + col_p[v] - first - second - w_both * (row[v] * row[v]);
                if num > cutoff {
                    continue;
                }
                let cand = (self.normalized(num), u.min(v), u.max(v));
                if any.is_none_or(|best| beats(cand, best)) {
                    any = Some(cand);
                }
                if allowed.is_none_or(|best| beats(cand, best)) && !is_tabu(cand.1, cand.2) {
                    allowed = Some(cand);
                    cutoff = self.cutoff_above(num);
                }
            }
        }
        let any = any.expect("a cluster has at least one switch");
        (BlockBest { any, allowed }, scored)
    }

    /// Apply the swap of `a` and `b`, updating the cache in O(N).
    pub fn apply_swap(&mut self, a: SwitchId, b: SwitchId) {
        let ca = self.partition.cluster_of(a);
        let cb = self.partition.cluster_of(b);
        debug_assert_ne!(ca, cb, "swap within a cluster");
        self.intra_sum += self.delta_intra(a, b);
        let n = self.partition.num_switches();
        for v in 0..n {
            let ta = self.table.get_sq(v, a);
            let tb = self.table.get_sq(v, b);
            // Cluster ca loses a, gains b; cluster cb loses b, gains a.
            self.sums[ca * n + v] += tb - ta;
            self.sums[cb * n + v] += ta - tb;
            self.weighted[ca * n + v] = self.weights[ca] * self.sums[ca * n + v];
            self.weighted[cb * n + v] = self.weights[cb] * self.sums[cb * n + v];
        }
        self.partition.swap(a, b);
        self.members.swap(self.slot[a], self.slot[b]);
        self.slot.swap(a, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::{intra_square_sum, similarity_fg};
    use commsched_distance::equivalent_distance_table;
    use commsched_routing::UpDownRouting;
    use commsched_topology::designed;
    use rand::rngs::StdRng;
    use rand::Rng;
    use rand::SeedableRng;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} != {b}");
    }

    fn setup() -> (DistanceTable, Partition) {
        let t = designed::paper_24_switch();
        let r = UpDownRouting::new(&t, 0).unwrap();
        let table = equivalent_distance_table(&t, &r).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let p = Partition::random_balanced(24, 4, &mut rng).unwrap();
        (table, p)
    }

    #[test]
    fn initial_fg_matches_direct() {
        let (table, p) = setup();
        let eval = SwapEvaluator::new(p.clone(), &table);
        assert_close(eval.fg(), similarity_fg(&p, &table));
    }

    #[test]
    fn delta_matches_recompute_for_all_swaps() {
        let (table, p) = setup();
        let eval = SwapEvaluator::new(p.clone(), &table);
        let base = similarity_fg(&p, &table);
        for a in 0..24 {
            for b in (a + 1)..24 {
                if p.cluster_of(a) == p.cluster_of(b) {
                    continue;
                }
                let mut q = p.clone();
                q.swap(a, b);
                let direct = similarity_fg(&q, &table) - base;
                assert_close(eval.delta_fg(a, b), direct);
            }
        }
    }

    #[test]
    fn apply_swap_keeps_cache_consistent() {
        let (table, p) = setup();
        let mut eval = SwapEvaluator::new(p, &table);
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..200 {
            let a = rng.gen_range(0..24);
            let b = rng.gen_range(0..24);
            if eval.partition().cluster_of(a) == eval.partition().cluster_of(b) {
                continue;
            }
            eval.apply_swap(a, b);
            let fresh = SwapEvaluator::new(eval.partition().clone(), &table);
            assert_close(eval.fg(), fresh.fg());
        }
    }

    /// A pair of switches in different clusters (a legal swap), independent
    /// of the RNG stream that produced the partition.
    fn cross_cluster_pair(p: &Partition) -> (usize, usize) {
        (1..24)
            .map(|b| (0, b))
            .find(|&(a, b)| p.cluster_of(a) != p.cluster_of(b))
            .expect("a balanced 4-way partition has cross-cluster pairs")
    }

    #[test]
    fn swap_and_inverse_cancel() {
        let (table, p) = setup();
        let (a, b) = cross_cluster_pair(&p);
        let mut eval = SwapEvaluator::new(p.clone(), &table);
        let before = eval.fg();
        eval.apply_swap(a, b);
        eval.apply_swap(a, b);
        assert_close(eval.fg(), before);
        assert_eq!(eval.partition(), &p);
    }

    #[test]
    fn into_partition_returns_current_state() {
        let (table, p) = setup();
        let (a, b) = cross_cluster_pair(&p);
        let mut eval = SwapEvaluator::new(p.clone(), &table);
        eval.apply_swap(a, b);
        let out = eval.into_partition();
        assert_ne!(out, p);
        assert_eq!(out.sizes(), p.sizes());
    }

    /// The swaps between clusters `p < q`, in `(a, b)` order.
    fn swaps_between(eval: &SwapEvaluator<'_>, (p, q): (usize, usize)) -> Vec<(usize, usize)> {
        let cluster = |v| eval.partition().cluster_of(v);
        let n = eval.partition().num_switches();
        (0..n)
            .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
            .filter(|&(a, b)| (cluster(a).min(cluster(b)), cluster(a).max(cluster(b))) == (p, q))
            .collect()
    }

    /// What the block scan stands for: every swap in `(a, b)` order through
    /// `delta_fg`, strict `<`.
    fn ordered_scan(
        eval: &SwapEvaluator<'_>,
        swaps: &[(usize, usize)],
        is_tabu: &dyn Fn(usize, usize) -> bool,
    ) -> BlockBest {
        let (mut any, mut allowed): (Option<ScoredSwap>, Option<ScoredSwap>) = (None, None);
        for &(a, b) in swaps {
            let delta = eval.delta_fg(a, b);
            if any.is_none_or(|(d, _, _)| delta < d) {
                any = Some((delta, a, b));
            }
            if !is_tabu(a, b) && allowed.is_none_or(|(d, _, _)| delta < d) {
                allowed = Some((delta, a, b));
            }
        }
        BlockBest {
            any: any.expect("a cluster pair has a swap"),
            allowed,
        }
    }

    /// What `rounds` rounds of block scans came to.
    #[derive(Debug, Default)]
    struct Rounds {
        /// Cluster pairs whose best was tied.
        tied_bests: usize,
        /// Rounds in which some scan skipped a row.
        skipping: usize,
    }

    /// Over `rounds` steps of a small tabu walk (the best allowed swap
    /// of all pairs, the last four swaps tabu), assert that every block
    /// scan, in both orientations and under three tabu rules, is the
    /// ordered scan bit for bit and scores at most its block.
    fn check_block_scans(mut eval: SwapEvaluator<'_>, rounds: usize) -> Rounds {
        let m = eval.partition().num_clusters();
        let sizes = eval.partition().sizes();
        let tabu_rules: [&dyn Fn(usize, usize) -> bool; 3] =
            [&|_, _| false, &|a, b| (a + b) % 3 == 1, &|_, _| true];
        let far_sq = far_squares(eval.table);
        let mut recent: Vec<(usize, usize)> = Vec::new();
        let mut seen = Rounds::default();
        for round in 0..rounds {
            let mut skipped = false;
            let mut step: Option<BlockBest> = None;
            for p in 0..m {
                for q in (p + 1)..m {
                    let swaps = swaps_between(&eval, (p, q));
                    for is_tabu in tabu_rules {
                        let want = ordered_scan(&eval, &swaps, is_tabu);
                        // Either orientation of the pair is the same set of swaps.
                        for (r, s) in [(p, q), (q, p)] {
                            let (found, scored) = eval.best_swaps_between(r, s, &far_sq, is_tabu);
                            assert_eq!(found, want, "round {round}, pair {r}/{s}");
                            assert!(scored <= sizes[r] * sizes[s]);
                            skipped |= scored < sizes[r] * sizes[s];
                        }
                    }
                    let best = ordered_scan(&eval, &swaps, &|_, _| false).any.0;
                    let at_best = swaps.iter().filter(|&&(a, b)| eval.delta_fg(a, b) == best);
                    seen.tied_bests += usize::from(at_best.count() > 1);
                    let is_tabu = |a, b| recent.contains(&(a, b));
                    let (found, _) = eval.best_swaps_between(p, q, &far_sq, is_tabu);
                    step = Some(step.map_or(found, |s| s.merged(found)));
                }
            }
            seen.skipping += usize::from(skipped);
            let (_, a, b) = step
                .and_then(|s| s.allowed)
                .expect("four swaps cannot block all");
            eval.apply_swap(a, b);
            recent.push((a, b));
            if recent.len() > 4 {
                recent.remove(0);
            }
        }
        seen
    }

    #[test]
    fn block_scan_is_the_ordered_scan_bit_for_bit() {
        // The designed network is symmetric: exact ties abound, and the
        // lowest (a, b) must win each. Unequal sizes and weights make both
        // operand orders of the numerator matter.
        let (table, _) = setup();
        let mut rng = StdRng::seed_from_u64(8);
        let p = Partition::random(24, &[4, 8, 12], &mut rng).unwrap();
        let eval = SwapEvaluator::with_weights(p, &table, vec![20.0, 0.5, 3.0]);
        let seen = check_block_scans(eval, 60);
        assert!(
            seen.tied_bests > 0,
            "no tied best in 180 scans: the tie rule went untested"
        );
    }

    #[test]
    fn a_block_scan_that_skips_rows_is_the_ordered_scan_bit_for_bit() {
        // Large unequal clusters under unequal weights, on a random net:
        // most rows of a scan cannot hold its best, and `w · far_sq`
        // bounds them under four different pair weights.
        use commsched_topology::{random_regular, RandomTopologyConfig};
        let mut rng = StdRng::seed_from_u64(9_096);
        let topo = random_regular(RandomTopologyConfig::paper(96), &mut rng).unwrap();
        let routing = UpDownRouting::new(&topo, 0).unwrap();
        let table = equivalent_distance_table(&topo, &routing).unwrap();
        let p = Partition::random(96, &[8, 24, 40, 24], &mut rng).unwrap();
        let eval = SwapEvaluator::with_weights(p, &table, vec![20.0, 1.0, 0.5, 3.0]);
        let rounds = 40;
        let seen = check_block_scans(eval, rounds);
        assert!(
            seen.skipping * 4 >= rounds * 3,
            "rows skipped in {} of {rounds} rounds: the skip went untested",
            seen.skipping
        );
    }

    #[test]
    fn a_pair_bound_holds_every_numerator_and_excludes_only_losers() {
        // Unequal clusters under unequal weights on a random net, over
        // random partitions: the shape where bounds are tight and rows
        // and pairs are skipped.
        use commsched_topology::{random_regular, RandomTopologyConfig};
        let mut rng = StdRng::seed_from_u64(9_096);
        let topo = random_regular(RandomTopologyConfig::paper(96), &mut rng).unwrap();
        let routing = UpDownRouting::new(&topo, 0).unwrap();
        let table = equivalent_distance_table(&topo, &routing).unwrap();
        let far_sq = far_squares(&table);
        let tabu_rules: [&dyn Fn(usize, usize) -> bool; 2] =
            [&|_, _| false, &|a, b| (a + b) % 3 == 1];
        let mut excluded = 0;
        for draw in 0..6 {
            let p = Partition::random(96, &[8, 24, 40, 24], &mut rng).unwrap();
            let weights = vec![20.0, 1.0, 0.5, 3.0];
            let eval = SwapEvaluator::with_weights(p, &table, weights);
            let m = eval.partition().num_clusters();
            let pairs: Vec<(usize, usize)> = (0..m)
                .flat_map(|r| (0..m).filter(move |&s| s != r).map(move |s| (r, s)))
                .collect();
            for &(r, s) in &pairs {
                let bounds = eval.block_bounds(r, s, &far_sq);
                assert_eq!(bounds.pair(), (r, s));
                let swaps = swaps_between(&eval, (r.min(s), r.max(s)));
                for &(a, b) in &swaps {
                    let num = eval.delta_intra(a, b);
                    assert!(bounds.floor() <= num, "draw {draw}, {r}/{s}: ({a}, {b})");
                    assert!(!bounds.excludes(num), "draw {draw}, {r}/{s}: ({a}, {b})");
                }
                for is_tabu in tabu_rules {
                    let given = eval.best_swaps_between_with(&bounds, &far_sq, is_tabu);
                    assert_eq!(given, eval.best_swaps_between(r, s, &far_sq, is_tabu));
                }
                // Against the allowed best of every other pair: a pair the
                // bounds exclude holds only swaps that lose to it.
                for &(x, y) in pairs
                    .iter()
                    .filter(|&&(x, y)| x < y && (x, y) != (r.min(s), r.max(s)))
                {
                    let other = ordered_scan(&eval, &swaps_between(&eval, (x, y)), &|_, _| false);
                    let allowed = other.allowed.expect("nothing is tabu");
                    if bounds.excludes(eval.cutoff_of(allowed)) {
                        excluded += 1;
                        let all = ordered_scan(&eval, &swaps, &|_, _| false);
                        assert!(
                            all.any.0 > allowed.0,
                            "draw {draw}, {r}/{s} against {x}/{y}"
                        );
                    }
                }
            }
        }
        assert!(
            excluded > 0,
            "no pair excluded: the pair skip went untested"
        );
    }

    /// The constructor's definition, and `far_squares`': `S(v, c)` and
    /// `far_sq` by a scatter over every `(v, u)`, `intra_sum` over every
    /// `(i < j)` of a cluster.
    fn defined_sums(
        p: &Partition,
        table: &DistanceTable,
        weights: &[f64],
    ) -> (Vec<f64>, Vec<f64>, f64) {
        let (n, m) = (p.num_switches(), p.num_clusters());
        let (mut sums, mut far_sq) = (vec![0.0; n * m], vec![0.0f64; n]);
        for v in 0..n {
            for u in 0..n {
                if u != v {
                    let t = table.get_sq(v, u);
                    sums[p.cluster_of(u) * n + v] += t;
                    far_sq[v] = far_sq[v].max(t);
                }
            }
        }
        let mut intra_sum = 0.0;
        for i in 0..n {
            let ci = p.cluster_of(i);
            for j in (i + 1)..n {
                if p.cluster_of(j) == ci {
                    intra_sum += weights[ci] * table.get_sq(i, j);
                }
            }
        }
        (sums, far_sq, intra_sum)
    }

    #[test]
    fn the_one_pass_constructor_is_its_definition_bit_for_bit() {
        use commsched_topology::{random_regular, RandomTopologyConfig};
        let (paper24, _) = setup();
        let mut rng = StdRng::seed_from_u64(9_096);
        let topo = random_regular(RandomTopologyConfig::paper(96), &mut rng).unwrap();
        let random96 =
            equivalent_distance_table(&topo, &UpDownRouting::new(&topo, 0).unwrap()).unwrap();
        let cases: [(&DistanceTable, &[usize], &[f64]); 2] = [
            (&paper24, &[4, 8, 12], &[20.0, 0.5, 3.0]),
            (&random96, &[8, 24, 40, 24], &[20.0, 1.0, 0.5, 3.0]),
        ];
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (table, sizes, weights) in cases {
            for draw in 0..8 {
                let p = Partition::random(table.n(), sizes, &mut rng).unwrap();
                let eval = SwapEvaluator::with_weights(p.clone(), table, weights.to_vec());
                let (sums, far_sq, intra_sum) = defined_sums(&p, table, weights);
                let at = format!("{sizes:?}, draw {draw}");
                assert_eq!(bits(&eval.sums), bits(&sums), "sums, {at}");
                assert_eq!(bits(&far_squares(table)), bits(&far_sq), "far_sq, {at}");
                assert_eq!(
                    eval.intra_sum.to_bits(),
                    intra_sum.to_bits(),
                    "intra_sum, {at}"
                );
                let weighted: Vec<f64> = (0..sums.len())
                    .map(|i| weights[i / p.num_switches()] * sums[i])
                    .collect();
                assert_eq!(bits(&eval.weighted), bits(&weighted), "weighted, {at}");
                let pairs: f64 = sizes
                    .iter()
                    .zip(weights)
                    .map(|(&s, &w)| w * (s * (s - 1) / 2) as f64)
                    .sum();
                assert_eq!(
                    eval.norm.to_bits(),
                    (pairs * table.mean_square()).to_bits(),
                    "norm, {at}"
                );
            }
        }
        // Unit weights: the numerator is `intra_square_sum`, bit for bit.
        let p = Partition::random(96, &[12; 8], &mut rng).unwrap();
        let unit = SwapEvaluator::new(p.clone(), &random96).intra_sum;
        assert_eq!(unit.to_bits(), intra_square_sum(&p, &random96).to_bits());
    }

    #[test]
    fn merged_bests_are_the_bests_of_the_union() {
        let x = BlockBest {
            any: (-1.0, 2, 9),
            allowed: None,
        };
        let y = BlockBest {
            any: (-1.0, 2, 7),
            allowed: Some((0.5, 3, 4)),
        };
        let both = BlockBest {
            any: (-1.0, 2, 7),
            allowed: Some((0.5, 3, 4)),
        };
        assert_eq!(x.merged(y), both);
        assert_eq!(y.merged(x), both);
        let z = BlockBest {
            any: (-2.0, 5, 6),
            allowed: Some((0.5, 1, 8)),
        };
        assert_eq!(y.merged(z).any, (-2.0, 5, 6));
        assert_eq!(y.merged(z).allowed, Some((0.5, 1, 8)));
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn size_mismatch_panics() {
        let (table, _) = setup();
        let p = Partition::new(vec![0, 1], 2).unwrap();
        let _ = SwapEvaluator::new(p, &table);
    }
}
