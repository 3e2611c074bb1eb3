//! k-nearest-neighbours classifier.
//!
//! Brute-force Euclidean search over the (standardized, downsampled)
//! training set. At the paper's training sizes — a few thousand rows after
//! 1:1 downsampling (Section 5.1) — brute force with a bounded max-heap is
//! faster in practice than tree indexes in ~20 dimensions.
//!
//! The training set is stored column-major. A query's distances to every
//! training point are computed feature-outer, point-inner into one buffer,
//! so the inner loop streams a contiguous column and vectorizes. Each
//! pair's sum still starts at `0.0` and adds `delta * delta` in feature
//! order, so every distance has the bits of the row-major per-pair sum.
//! The candidates then enter the bounded heap in ascending training index
//! under the push/pop rule of an early-exit row-major scan: a pruned
//! partial sum is never larger than the full sum, so the kept neighbours,
//! and the heap order the vote sums over, are the same. Batch prediction
//! runs in parallel on the in-tree worker pool (`ssd_parallel`) with one
//! query and distance buffer per worker.

use crate::classifier::{Classifier, Trainer};
use crate::dataset::{Dataset, Scaler};
use ssd_parallel::prelude::*;
use ssd_types::cast::f64_from_usize;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Hyperparameters for k-NN.
#[derive(Debug, Clone, PartialEq)]
pub struct KnnConfig {
    /// Number of neighbours.
    pub k: usize,
    /// Weight votes by inverse distance instead of uniformly.
    pub distance_weighted: bool,
}

impl Default for KnnConfig {
    fn default() -> Self {
        KnnConfig {
            k: 15,
            distance_weighted: true,
        }
    }
}

/// A fitted k-NN model (stores the standardized training set).
pub struct Knn {
    config: KnnConfig,
    scaler: Scaler,
    /// Standardized training features, column-major:
    /// `columns[f * labels.len() + i]` is feature `f` of point `i`.
    columns: Vec<f32>,
    labels: Vec<bool>,
}

/// Max-heap entry ordered by distance (largest on top, for eviction).
struct HeapItem {
    dist: f32,
    label: bool,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.dist == other.dist
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        self.dist.total_cmp(&other.dist)
    }
}

impl Knn {
    /// Fits (memorizes) the training set. If the training set is smaller
    /// than `k`, `k` is clamped to its size — tiny cross-validation folds
    /// on heavily downsampled data would otherwise be unusable.
    pub fn fit(config: &KnnConfig, data: &Dataset) -> Self {
        assert!(config.k >= 1);
        assert!(data.n_rows() >= 1, "empty training set");
        let mut config = config.clone();
        config.k = config.k.min(data.n_rows());
        let scaler = Scaler::fit(data);
        let n = data.n_rows();
        let mut columns = vec![0.0f32; n * data.n_features()];
        let mut scaled = Vec::with_capacity(data.n_features());
        for i in 0..n {
            scaler.transform_row(data.row(i), &mut scaled);
            for (f, &v) in scaled.iter().enumerate() {
                columns[f * n + i] = v;
            }
        }
        Knn {
            config,
            scaler,
            columns,
            labels: data.labels().to_vec(),
        }
    }

    /// Squared Euclidean distances from the standardized `query` to every
    /// training point, feature-outer so each pass streams one column.
    fn distances(&self, query: &[f32], dist: &mut Vec<f32>) {
        let n = self.labels.len();
        dist.clear();
        dist.resize(n, 0.0);
        for (column, &q) in self.columns.chunks_exact(n).zip(query) {
            for (acc, &a) in dist.iter_mut().zip(column) {
                let delta = a - q;
                *acc += delta * delta;
            }
        }
    }

    /// The `k` nearest training points, offered to the heap in ascending
    /// training index: a point enters while the heap is short or if it is
    /// strictly closer than the current worst, which it then evicts.
    fn k_nearest(&self, dist: &[f32]) -> BinaryHeap<HeapItem> {
        let k = self.config.k;
        let mut heap: BinaryHeap<HeapItem> = BinaryHeap::with_capacity(k + 1);
        let mut bound = f32::INFINITY;
        for (&dist, &label) in dist.iter().zip(&self.labels) {
            if dist < bound || heap.len() < k {
                heap.push(HeapItem { dist, label });
                if heap.len() > k {
                    heap.pop();
                }
                if heap.len() == k {
                    bound = heap.peek().map_or(f32::INFINITY, |h| h.dist);
                }
            }
        }
        heap
    }

    /// The score of a neighbour set: the (optionally inverse-distance
    /// weighted) positive vote share, summed in the heap's order.
    fn vote(&self, neighbours: &BinaryHeap<HeapItem>) -> f64 {
        if self.config.distance_weighted {
            let mut pos = 0.0f64;
            let mut total = 0.0f64;
            for item in neighbours.iter() {
                let w = 1.0 / (f64::from(item.dist).sqrt() + 1e-6);
                total += w;
                if item.label {
                    pos += w;
                }
            }
            // lint:allow(float-determinism) -- division-by-zero guard; weights are strictly positive whenever any neighbour exists
            if total == 0.0 {
                0.5
            } else {
                pos / total
            }
        } else {
            let k = neighbours.len().max(1);
            let pos = neighbours.iter().filter(|i| i.label).count();
            f64_from_usize(pos) / f64_from_usize(k)
        }
    }

    /// Scores one raw row with caller-owned query and distance buffers.
    fn score(&self, row: &[f32], query: &mut Vec<f32>, dist: &mut Vec<f32>) -> f64 {
        self.scaler.transform_row(row, query);
        self.distances(query, dist);
        self.vote(&self.k_nearest(dist))
    }
}

impl Classifier for Knn {
    fn predict_proba(&self, row: &[f32]) -> f64 {
        self.score(row, &mut Vec::with_capacity(row.len()), &mut Vec::new())
    }

    /// Parallel over rows, with one query and distance buffer per worker.
    fn predict_batch(&self, data: &Dataset) -> Vec<f64> {
        (0..data.n_rows())
            .into_par_iter()
            .map_init(
                || (Vec::new(), Vec::new()),
                |(query, dist), i| self.score(data.row(i), query, dist),
            )
            .collect()
    }

    fn name(&self) -> &'static str {
        "k-NN"
    }
}

impl Trainer for KnnConfig {
    fn fit(&self, data: &Dataset, _seed: u64) -> Box<dyn Classifier> {
        Box::new(Knn::fit(self, data))
    }

    fn name(&self) -> String {
        "k-NN".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::roc_auc;
    use ssd_stats::SplitMix64;
    use ssd_testkit::for_each_case;

    /// The row-major search `Knn` ran before its training set went
    /// column-major, kept as the reference the kernel is held to: each
    /// pair's distance sum stops as soon as it exceeds the current worst
    /// kept neighbour.
    fn reference_k_nearest(
        points: &[f32],
        labels: &[bool],
        d: usize,
        k: usize,
        query: &[f32],
    ) -> BinaryHeap<HeapItem> {
        let mut heap: BinaryHeap<HeapItem> = BinaryHeap::with_capacity(k + 1);
        for (i, &label) in labels.iter().enumerate() {
            let row = &points[i * d..(i + 1) * d];
            let bound = if heap.len() == k {
                heap.peek().map_or(f32::INFINITY, |h| h.dist)
            } else {
                f32::INFINITY
            };
            let mut dist = 0.0f32;
            for (a, b) in row.iter().zip(query) {
                let delta = a - b;
                dist += delta * delta;
                if dist > bound {
                    break;
                }
            }
            if dist < bound || heap.len() < k {
                heap.push(HeapItem { dist, label });
                if heap.len() > k {
                    heap.pop();
                }
            }
        }
        heap
    }

    /// `model`'s score for `row` through [`reference_k_nearest`] over a
    /// row-major standardized copy of `train`.
    fn reference_proba(model: &Knn, train: &Dataset, row: &[f32]) -> f64 {
        let mut points = train.clone();
        model.scaler.transform(&mut points);
        let mut query = Vec::new();
        model.scaler.transform_row(row, &mut query);
        let heap = reference_k_nearest(
            points.raw_features(),
            train.labels(),
            train.n_features(),
            model.config.k,
            &query,
        );
        model.vote(&heap)
    }

    #[test]
    fn column_major_kernel_matches_row_major_reference_on_ties() {
        // Small integer levels and repeated rows give many exactly equal
        // distances; k ranges past the number of distinct distances and
        // past the training size (where it is clamped).
        for_each_case("column_major_kernel_matches_row_major_reference_on_ties", 96, |g| {
            let n = g.usize_in(1, 48);
            let d = g.usize_in(1, 5);
            let levels = g.usize_in(1, 4);
            let mut train = Dataset::with_dims(d);
            let mut row = vec![0f32; d];
            for i in 0..n {
                if i == 0 || !g.ratio(0.3) {
                    for v in &mut row {
                        *v = g.usize_in(0, levels + 1) as f32;
                    }
                }
                train.push_row(&row, g.bool(), i as u32);
            }
            let config = KnnConfig {
                k: g.usize_in(1, n + 8),
                distance_weighted: g.bool(),
            };
            let model = Knn::fit(&config, &train);
            assert_eq!(model.config.k, config.k.min(n));

            let mut probes = train.clone();
            for i in 0..8 {
                for v in &mut row {
                    *v = g.usize_in(0, 2 * levels + 2) as f32 / 2.0;
                }
                probes.push_row(&row, false, (n + i) as u32);
            }
            let batch = model.predict_batch(&probes);
            for (i, &got) in batch.iter().enumerate() {
                let want = reference_proba(&model, &train, probes.row(i));
                let single = model.predict_proba(probes.row(i));
                assert_eq!(got.to_bits(), want.to_bits(), "batch row {i}: {got} vs {want}");
                assert_eq!(single.to_bits(), want.to_bits(), "row {i}: {single} vs {want}");
            }
        });
    }

    fn clustered(n: usize, seed: u64) -> Dataset {
        // Two Gaussian-ish blobs at (±1, ±1).
        let mut rng = SplitMix64::new(seed);
        let mut d = Dataset::with_dims(2);
        for i in 0..n {
            let pos = i % 2 == 0;
            let c = if pos { 1.0 } else { -1.0 };
            let x = c + (rng.next_f64() - 0.5);
            let y = c + (rng.next_f64() - 0.5);
            d.push_row(&[x as f32, y as f32], pos, i as u32);
        }
        d
    }

    #[test]
    fn classifies_separated_blobs() {
        let train = clustered(300, 1);
        let test = clustered(100, 2);
        let m = Knn::fit(&KnnConfig::default(), &train);
        let scores = m.predict_batch(&test);
        assert!(roc_auc(&scores, test.labels()) > 0.98);
    }

    #[test]
    fn k_one_memorizes_training_points() {
        let train = clustered(50, 3);
        let m = Knn::fit(
            &KnnConfig {
                k: 1,
                distance_weighted: false,
            },
            &train,
        );
        for i in 0..train.n_rows() {
            let p = m.predict_proba(train.row(i));
            assert_eq!(p >= 0.5, train.label(i), "row {i}");
        }
    }

    #[test]
    fn uniform_proba_is_vote_fraction() {
        // 3 neighbours, one positive among them → exactly 1/3.
        let mut train = Dataset::with_dims(1);
        train.push_row(&[0.0], true, 0);
        train.push_row(&[0.1], false, 1);
        train.push_row(&[0.2], false, 2);
        train.push_row(&[10.0], true, 3);
        let m = Knn::fit(
            &KnnConfig {
                k: 3,
                distance_weighted: false,
            },
            &train,
        );
        let p = m.predict_proba(&[0.05]);
        assert!((p - 1.0 / 3.0).abs() < 1e-9, "{p}");
    }

    #[test]
    fn distance_weighting_prefers_closer_neighbours() {
        let mut train = Dataset::with_dims(1);
        train.push_row(&[0.0], true, 0); // very close to query
        train.push_row(&[5.0], false, 1);
        train.push_row(&[6.0], false, 2);
        let m = Knn::fit(
            &KnnConfig {
                k: 3,
                distance_weighted: true,
            },
            &train,
        );
        // Uniform voting would give 1/3; weighting must exceed 1/2.
        assert!(m.predict_proba(&[0.01]) > 0.5);
    }

    #[test]
    fn k_is_clamped_to_training_size() {
        let mut train = Dataset::with_dims(1);
        train.push_row(&[0.0], true, 0);
        let m = Knn::fit(&KnnConfig::default(), &train); // k = 15 > 1 row
        // The single (positive) neighbour decides every prediction.
        assert!(m.predict_proba(&[5.0]) > 0.5);
    }
}
