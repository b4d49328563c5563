//! Classical agglomerative clustering as a mapping baseline.
//!
//! §3 of the paper notes that because the table of equivalent distances is
//! not a metric, "we cannot use classical clustering methods based on
//! Euclidean metric distances". This module implements the closest
//! classical analogue anyway — size-constrained average-linkage
//! agglomerative clustering on the (squared) table entries — so the claim
//! can be tested empirically rather than taken on faith: the ablation
//! harness compares it against the tabu search.
//!
//! The algorithm: start from singletons; repeatedly merge the pair of
//! clusters with the smallest average squared distance whose combined size
//! still fits under the largest requested cluster size; stop at the
//! requested cluster count; then repair sizes by greedily moving the
//! cheapest switches from oversized to undersized clusters.

use commsched_core::{similarity_fg, Partition};
use commsched_distance::DistanceTable;
use commsched_search::{check_sizes, Mapper, SearchResult};
use commsched_topology::SwitchId;
use rand::RngCore;

/// Size-constrained average-linkage agglomerative clustering.
#[derive(Debug, Clone, Copy, Default)]
pub struct AgglomerativeClustering;

/// Average squared distance between two clusters.
fn avg_link(a: &[SwitchId], b: &[SwitchId], table: &DistanceTable) -> f64 {
    let mut acc = 0.0;
    for &x in a {
        for &y in b {
            acc += table.get_sq(x, y);
        }
    }
    acc / (a.len() * b.len()) as f64
}

impl Mapper for AgglomerativeClustering {
    fn name(&self) -> &'static str {
        "agglomerative"
    }

    fn search(
        &self,
        table: &DistanceTable,
        sizes: &[usize],
        _rng: &mut dyn RngCore,
    ) -> SearchResult {
        assert!(check_sizes(table.n(), sizes), "invalid cluster sizes");
        let n = table.n();
        let m = sizes.len();
        let max_size = *sizes.iter().max().expect("non-empty sizes");
        let mut clusters: Vec<Vec<SwitchId>> = (0..n).map(|s| vec![s]).collect();
        let mut evaluations = 0u64;

        // Agglomerate down to m clusters.
        while clusters.len() > m {
            let mut best: Option<(f64, usize, usize)> = None;
            for i in 0..clusters.len() {
                for j in (i + 1)..clusters.len() {
                    if clusters[i].len() + clusters[j].len() > max_size {
                        continue;
                    }
                    let d = avg_link(&clusters[i], &clusters[j], table);
                    evaluations += 1;
                    if best.is_none_or(|(bd, _, _)| d < bd) {
                        best = Some((d, i, j));
                    }
                }
            }
            let Some((_, i, j)) = best else {
                // No merge fits under max_size: force-merge the two
                // smallest clusters (repair fixes sizes later).
                let mut order: Vec<usize> = (0..clusters.len()).collect();
                order.sort_by_key(|&c| clusters[c].len());
                let (i, j) = (order[0].min(order[1]), order[0].max(order[1]));
                let merged = clusters.remove(j);
                clusters[i].extend(merged);
                continue;
            };
            let merged = clusters.remove(j);
            clusters[i].extend(merged);
        }

        // Assign cluster labels so that sizes match the request as closely
        // as possible: sort both by size, pair them up.
        let mut want: Vec<(usize, usize)> = sizes.iter().copied().enumerate().collect();
        want.sort_by_key(|&(_, s)| std::cmp::Reverse(s));
        let mut have: Vec<usize> = (0..clusters.len()).collect();
        have.sort_by_key(|&c| std::cmp::Reverse(clusters[c].len()));
        let mut final_clusters: Vec<Vec<SwitchId>> = vec![Vec::new(); m];
        for (&(label, _), &c) in want.iter().zip(&have) {
            final_clusters[label] = clusters[c].clone();
        }

        // Size repair: move the cheapest-to-move switch from an oversized
        // cluster to the undersized cluster where it attaches best.
        loop {
            let over = (0..m).find(|&c| final_clusters[c].len() > sizes[c]);
            let Some(over) = over else { break };
            let under = (0..m)
                .find(|&c| final_clusters[c].len() < sizes[c])
                .expect("totals match");
            // Pick the member of `over` with the cheapest attachment to
            // `under` (ties toward the lowest id for determinism).
            let (pos, _) = final_clusters[over]
                .iter()
                .enumerate()
                .map(|(pos, &s)| {
                    let attach: f64 = final_clusters[under]
                        .iter()
                        .map(|&u| table.get_sq(s, u))
                        .sum();
                    evaluations += 1;
                    (pos, attach)
                })
                .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
                .expect("oversized cluster non-empty");
            let s = final_clusters[over].remove(pos);
            final_clusters[under].push(s);
        }

        let partition = Partition::from_clusters(&final_clusters)
            .expect("repair produces a full valid partition");
        let fg = similarity_fg(&partition, table);
        SearchResult {
            partition,
            fg,
            evaluations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comparators::testutil::{dumbbell_table, dumbbell_truth, rings_table};
    use commsched_search::{TabuParams, TabuSearch};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn clusters_the_obvious_dumbbell() {
        let table = dumbbell_table();
        let mut rng = StdRng::seed_from_u64(0);
        let res = AgglomerativeClustering.search(&table, &[4, 4], &mut rng);
        assert!(res.partition.same_grouping(&dumbbell_truth()));
    }

    #[test]
    fn sizes_always_respected() {
        let table = rings_table();
        let mut rng = StdRng::seed_from_u64(0);
        for sizes in [vec![6usize, 6, 6, 6], vec![12, 6, 6], vec![20, 2, 2]] {
            let res = AgglomerativeClustering.search(&table, &sizes, &mut rng);
            assert_eq!(res.partition.sizes(), sizes);
            let direct = similarity_fg(&res.partition, &table);
            assert!((res.fg - direct).abs() < 1e-9);
        }
    }

    #[test]
    fn never_beats_tabu_on_the_paper_networks() {
        // The §3 claim, tested: classical clustering on the non-metric
        // table is at best as good as the tabu search, typically worse.
        let table = rings_table();
        let mut rng = StdRng::seed_from_u64(0);
        let agg = AgglomerativeClustering.search(&table, &[6, 6, 6, 6], &mut rng);
        let mut rng = StdRng::seed_from_u64(0);
        let tabu = TabuSearch::new(TabuParams::scaled(24)).search(&table, &[6, 6, 6, 6], &mut rng);
        assert!(
            agg.fg >= tabu.fg - 1e-9,
            "agglomerative {} vs tabu {}",
            agg.fg,
            tabu.fg
        );
    }

    #[test]
    fn deterministic() {
        let table = dumbbell_table();
        let mut rng = StdRng::seed_from_u64(0);
        let a = AgglomerativeClustering.search(&table, &[4, 4], &mut rng);
        let b = AgglomerativeClustering.search(&table, &[4, 4], &mut rng);
        assert_eq!(a.partition, b.partition);
    }
}
