//! GEIST — graph-guided semi-supervised sample selection (paper §7.3,
//! after Thiagarajan et al., ICS '18).
//!
//! GEIST builds a *parameter graph* over candidate configurations and uses
//! semi-supervised label propagation to estimate which unmeasured
//! configurations are likely to be "optimal" (defined as the top 5 % of
//! performance). Each iteration measures the configurations with the
//! highest propagated probability of being optimal, mixed with a small
//! exploration fraction.
//!
//! In the original, nodes are the full discretized space; our spaces are
//! ~10¹⁰, so — like the other tuners — GEIST operates on the sampled pool,
//! connected as a k-nearest-neighbor graph in normalized parameter space.

use super::{fit_surrogate, measure_indices, random_unmeasured, score_pool, Autotuner, TunerRun};
use crate::features::FeatureMap;
use crate::metrics::top_n;
use crate::oracle::{MeasureError, Oracle};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::ops::Range;

/// The GEIST tuner.
#[derive(Debug, Clone, Copy)]
pub struct Geist {
    /// Number of measurement batches.
    pub iterations: usize,
    /// Neighbors per node in the parameter graph.
    pub k_neighbors: usize,
    /// Fraction of measured configurations labeled "optimal" (top 5 % in
    /// the original).
    pub optimal_fraction: f64,
    /// Fraction of each batch spent on random exploration.
    pub explore_fraction: f64,
    /// Label-propagation sweeps per iteration.
    pub propagation_sweeps: usize,
}

impl Default for Geist {
    fn default() -> Self {
        Self {
            iterations: 5,
            k_neighbors: 8,
            optimal_fraction: 0.05,
            explore_fraction: 0.2,
            propagation_sweeps: 20,
        }
    }
}

/// Rows per parallel chunk of [`knn_graph`]; each chunk reuses one
/// distance buffer across its rows.
const GRAPH_BLOCK_ROWS: usize = 64;

/// Builds the k-NN adjacency lists over pool configurations: for each node,
/// its `k` nearest other nodes by squared Euclidean distance in encoded
/// space, nearest first, equal distances in index order.
fn knn_graph(fm: &FeatureMap, pool: &[Vec<i64>], k: usize) -> Vec<Vec<u32>> {
    let n = pool.len();
    // Column-major encoding: feature `f` of configuration `j` at `f * n + j`.
    let mut cols = vec![0.0; fm.n_features() * n];
    for (j, config) in pool.iter().enumerate() {
        for (f, v) in fm.encode(config).into_iter().enumerate() {
            cols[f * n + j] = v;
        }
    }
    let blocks: Vec<(usize, usize)> = (0..n)
        .step_by(GRAPH_BLOCK_ROWS)
        .map(|s| (s, (s + GRAPH_BLOCK_ROWS).min(n)))
        .collect();
    ceal_par::parallel_map(&blocks, |&(s, e)| knn_rows(&cols, n, s..e, k)).concat()
}

/// Adjacency lists of `rows`. Each row's distances to all `n` nodes build
/// up feature by feature in one buffer, so the inner loop runs across
/// nodes (and vectorizes) while every distance still sums its features in
/// order. A bounded sorted top-k then keeps what a stable sort by distance
/// would: a candidate must beat the current worst strictly, and inserts
/// after its equals, so ties go to the lower index.
fn knn_rows(cols: &[f64], n: usize, rows: Range<usize>, k: usize) -> Vec<Vec<u32>> {
    let mut dist = vec![0.0; n];
    let mut best: Vec<(f64, u32)> = Vec::with_capacity(k.min(n));
    rows.map(|i| {
        dist.fill(0.0);
        for col in cols.chunks_exact(n) {
            let xi = col[i];
            for (d, &xj) in dist.iter_mut().zip(col) {
                *d += (xj - xi) * (xj - xi);
            }
        }
        best.clear();
        for (j, &d) in dist.iter().enumerate() {
            if j == i {
                continue;
            }
            if best.len() == k {
                match best.last() {
                    Some(&(worst, _)) if d.total_cmp(&worst).is_lt() => best.pop(),
                    _ => continue,
                };
            }
            let at = best.partition_point(|&(b, _)| b.total_cmp(&d).is_le());
            best.insert(at, (d, j as u32));
        }
        best.iter().map(|&(_, j)| j).collect()
    })
    .collect()
}

impl Geist {
    /// Propagates optimality labels from measured nodes across the graph,
    /// returning a goodness score per pool node in [0, 1].
    fn propagate(
        &self,
        graph: &[Vec<u32>],
        labels: &[Option<f64>], // Some(1.0) optimal, Some(0.0) not, None unmeasured
    ) -> Vec<f64> {
        let n = graph.len();
        let mut score: Vec<f64> = labels.iter().map(|l| l.unwrap_or(0.5)).collect();
        for _ in 0..self.propagation_sweeps {
            let prev = score.clone();
            for i in 0..n {
                if let Some(fixed) = labels[i] {
                    score[i] = fixed;
                } else if !graph[i].is_empty() {
                    let s: f64 = graph[i].iter().map(|&j| prev[j as usize]).sum();
                    score[i] = s / graph[i].len() as f64;
                }
            }
        }
        score
    }
}

impl Autotuner for Geist {
    fn name(&self) -> &'static str {
        "GEIST"
    }

    fn try_run(
        &self,
        oracle: &dyn Oracle,
        pool: &[Vec<i64>],
        budget: usize,
        seed: u64,
    ) -> Result<TunerRun, MeasureError> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let fm = FeatureMap::for_workflow(oracle.spec());
        let graph = knn_graph(&fm, pool, self.k_neighbors);
        let iters = self.iterations.clamp(1, budget.max(1));
        let batch = (budget / iters).max(1);
        let mut measured_idx = vec![false; pool.len()];
        let mut measured = Vec::with_capacity(budget);
        let mut pool_pos: Vec<usize> = Vec::with_capacity(budget); // pool index per measurement

        // Initial random batch.
        let first = random_unmeasured(&measured_idx, batch.min(budget), &mut rng);
        pool_pos.extend(&first);
        measure_indices(oracle, pool, &first, &mut measured_idx, &mut measured)?;

        while measured.len() < budget {
            // Label measured nodes: top `optimal_fraction` of observed
            // values are "optimal".
            let values: Vec<f64> = measured.iter().map(|m| m.value).collect();
            let n_opt = ((values.len() as f64 * self.optimal_fraction).ceil() as usize)
                .clamp(1, values.len());
            let best = top_n(&values, n_opt);
            let mut labels: Vec<Option<f64>> = vec![None; pool.len()];
            for (mi, &pi) in pool_pos.iter().enumerate() {
                labels[pi] = Some(if best.contains(&mi) { 1.0 } else { 0.0 });
            }
            let goodness = self.propagate(&graph, &labels);

            let take = batch.min(budget - measured.len());
            let n_explore = ((take as f64) * self.explore_fraction).round() as usize;
            let n_exploit = take - n_explore;

            // Exploit: highest propagated goodness first.
            let mut cand: Vec<usize> = (0..pool.len()).filter(|&i| !measured_idx[i]).collect();
            cand.sort_by(|&a, &b| goodness[b].total_cmp(&goodness[a]).then(a.cmp(&b)));
            let mut picks: Vec<usize> = cand.into_iter().take(n_exploit).collect();
            for i in &picks {
                measured_idx[*i] = true; // reserve before drawing randoms
            }
            let explore = random_unmeasured(&measured_idx, n_explore, &mut rng);
            for i in &picks {
                measured_idx[*i] = false; // measure_indices re-marks
            }
            picks.extend(explore);
            if picks.is_empty() {
                break;
            }
            pool_pos.extend(&picks);
            measure_indices(oracle, pool, &picks, &mut measured_idx, &mut measured)?;
        }

        // Final surrogate for searching/reporting: the standard boosted
        // trees trained on GEIST's sample selection.
        let model = fit_surrogate(&fm, &measured, seed);
        let scores = score_pool(&fm, model.as_ref(), pool);
        Ok(TunerRun::from_scores(pool, scores, measured, Vec::new()))
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::lv_exec_fixture;
    use super::*;

    #[test]
    fn consumes_budget() {
        let fix = lv_exec_fixture();
        let run = Geist::default().run(&fix.oracle, &fix.pool, 25, 1);
        assert_eq!(run.runs_used(), 25);
        assert_eq!(run.pool_scores.len(), fix.pool.len());
    }

    #[test]
    fn deterministic_per_seed() {
        let fix = lv_exec_fixture();
        let a = Geist::default().run(&fix.oracle, &fix.pool, 20, 5);
        let b = Geist::default().run(&fix.oracle, &fix.pool, 20, 5);
        assert_eq!(a.best_predicted, b.best_predicted);
    }

    /// The sort-based builder `knn_graph` replaced: all distances per row,
    /// stably sorted, truncated to `k`.
    fn knn_graph_sorted(fm: &FeatureMap, pool: &[Vec<i64>], k: usize) -> Vec<Vec<u32>> {
        let encoded: Vec<Vec<f64>> = pool.iter().map(|c| fm.encode(c)).collect();
        (0..pool.len())
            .map(|i| {
                let mut dists: Vec<(u32, f64)> = encoded
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != i)
                    .map(|(j, row)| {
                        let d: f64 = row
                            .iter()
                            .zip(&encoded[i])
                            .map(|(a, b)| (a - b) * (a - b))
                            .sum();
                        (j as u32, d)
                    })
                    .collect();
                dists.sort_by(|a, b| a.1.total_cmp(&b.1));
                dists.truncate(k);
                dists.into_iter().map(|(j, _)| j).collect()
            })
            .collect()
    }

    fn assert_same_graph(fm: &FeatureMap, pool: &[Vec<i64>], k: usize) {
        let want = knn_graph_sorted(fm, pool, k);
        assert_eq!(knn_graph(fm, pool, k), want, "n = {}, k = {k}", pool.len());
    }

    #[test]
    fn knn_graph_matches_sorted_builder() {
        let fix = lv_exec_fixture();
        let fm = FeatureMap::for_workflow(fix.oracle.spec());
        assert_same_graph(&fm, &fix.pool, 8);
    }

    #[test]
    fn knn_graph_ties_go_to_the_lower_index() {
        let fix = lv_exec_fixture();
        let fm = FeatureMap::for_workflow(fix.oracle.spec());
        let base = &fix.pool[0];
        let mut pool: Vec<Vec<i64>> = fix.pool[..40].to_vec();
        // Duplicates: ties at distance 0, some before and some after the
        // original in index order.
        pool.extend(fix.pool[..10].iter().cloned());
        pool.insert(5, base.clone());
        // Equidistant neighbours of `base`: one step up and one step down
        // in each parameter.
        for p in 0..base.len() {
            for step in [1, -1] {
                let mut c = base.clone();
                c[p] += step;
                pool.push(c);
            }
        }
        pool.push(base.clone());
        for k in [1, 3, 8, 20] {
            assert_same_graph(&fm, &pool, k);
        }
    }

    #[test]
    fn knn_graph_edge_cases() {
        let fix = lv_exec_fixture();
        let fm = FeatureMap::for_workflow(fix.oracle.spec());
        let pool = &fix.pool[..12];
        assert_same_graph(&fm, pool, 0);
        assert!(knn_graph(&fm, pool, 0).iter().all(Vec::is_empty));
        assert_same_graph(&fm, pool, 11);
        assert_same_graph(&fm, pool, 50);
        assert_same_graph(&fm, &fix.pool[..1], 8);
        assert_eq!(knn_graph(&fm, &fix.pool[..1], 8), vec![Vec::<u32>::new()]);
        assert!(knn_graph(&fm, &[], 8).is_empty());
    }

    #[test]
    fn knn_graph_shape() {
        let fix = lv_exec_fixture();
        let fm = FeatureMap::for_workflow(fix.oracle.spec());
        let g = knn_graph(&fm, &fix.pool[..50], 4);
        assert_eq!(g.len(), 50);
        for (i, nbrs) in g.iter().enumerate() {
            assert_eq!(nbrs.len(), 4);
            assert!(!nbrs.contains(&(i as u32)), "self-loop at {i}");
        }
    }

    #[test]
    fn propagation_keeps_fixed_labels_and_bounds() {
        let geist = Geist::default();
        // Path graph 0-1-2-3 with ends labeled.
        let graph = vec![vec![1], vec![0, 2], vec![1, 3], vec![2]];
        let labels = vec![Some(1.0), None, None, Some(0.0)];
        let s = geist.propagate(&graph, &labels);
        assert_eq!(s[0], 1.0);
        assert_eq!(s[3], 0.0);
        assert!(s[1] > s[2], "closer to optimal end should score higher");
        for &v in &s {
            assert!((0.0..=1.0).contains(&v));
        }
    }
}
