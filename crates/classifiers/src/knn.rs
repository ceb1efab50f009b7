//! k-nearest-neighbours classifier (kNN, Cover & Hart 1967).
//!
//! Mirrors `sklearn.neighbors.KNeighborsClassifier` defaults: `k = 5`,
//! uniform weights, Euclidean distance, brute-force search (our datasets are
//! small enough that tree indices don't pay off).

use crate::common::{majority_label, Classifier};
use gb_dataset::index::{BruteIndex, NeighborIndex};
use gb_dataset::Dataset;

/// kNN hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct KnnConfig {
    /// Number of neighbours consulted per prediction.
    pub k: usize,
}

impl Default for KnnConfig {
    fn default() -> Self {
        Self { k: 5 }
    }
}

/// A fitted (memorized) kNN model.
#[derive(Debug, Clone)]
pub struct KnnClassifier {
    /// Brute-force index over the training rows.
    index: BruteIndex,
    labels: Vec<u32>,
    n_classes: usize,
    k: usize,
}

impl KnnClassifier {
    /// "Fits" by indexing the training set.
    ///
    /// # Panics
    /// Panics if `k == 0` or the training set is empty.
    #[must_use]
    pub fn fit(train: &Dataset, config: KnnConfig) -> Self {
        assert!(config.k > 0, "k must be positive");
        assert!(train.n_samples() > 0, "empty training set");
        Self {
            index: BruteIndex::build(train),
            labels: train.labels().to_vec(),
            n_classes: train.n_classes(),
            k: config.k,
        }
    }

    /// The effective neighbourhood size (min of `k` and train size).
    #[must_use]
    pub fn effective_k(&self) -> usize {
        self.k.min(self.labels.len())
    }
}

impl Classifier for KnnClassifier {
    fn predict_row(&self, row: &[f64]) -> u32 {
        let hood = self.index.k_nearest_sq(row, self.effective_k(), None);
        majority_label(hood.iter().map(|h| self.labels[h.row]), self.n_classes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_dataset::catalog::DatasetId;
    use gb_dataset::split::stratified_holdout;

    #[test]
    fn classifies_clean_clusters_perfectly() {
        let mut feats = Vec::new();
        let mut labels = Vec::new();
        for i in 0..10 {
            feats.extend_from_slice(&[i as f64 * 0.01, 0.0]);
            labels.push(0);
            feats.extend_from_slice(&[10.0 + i as f64 * 0.01, 0.0]);
            labels.push(1);
        }
        let d = Dataset::from_parts(feats, labels, 2, 2);
        let model = KnnClassifier::fit(&d, KnnConfig::default());
        assert_eq!(model.predict_row(&[0.05, 0.0]), 0);
        assert_eq!(model.predict_row(&[10.05, 0.0]), 1);
    }

    #[test]
    fn respects_k() {
        // 1 nearest is class 1, but 3-NN majority is class 0
        let d = Dataset::from_parts(vec![0.0, 1.1, 1.2, 5.0], vec![1, 0, 0, 0], 1, 2);
        let k1 = KnnClassifier::fit(&d, KnnConfig { k: 1 });
        let k3 = KnnClassifier::fit(&d, KnnConfig { k: 3 });
        assert_eq!(k1.predict_row(&[0.1]), 1);
        assert_eq!(k3.predict_row(&[0.1]), 0);
    }

    #[test]
    fn k_larger_than_train_is_clamped() {
        let d = Dataset::from_parts(vec![0.0, 1.0], vec![0, 1], 1, 2);
        let m = KnnClassifier::fit(&d, KnnConfig { k: 50 });
        assert_eq!(m.effective_k(), 2);
        let _ = m.predict_row(&[0.4]); // must not panic
    }

    #[test]
    fn decent_accuracy_on_banana() {
        let d = DatasetId::S5.generate(0.1, 3);
        let (tr, te) = stratified_holdout(&d, 0.3, 1);
        let train = d.select(&tr);
        let test = d.select(&te);
        let model = KnnClassifier::fit(&train, KnnConfig::default());
        let preds = model.predict(&test);
        let acc = preds
            .iter()
            .zip(test.labels())
            .filter(|(p, t)| p == t)
            .count() as f64
            / test.n_samples() as f64;
        assert!(acc > 0.9, "kNN banana accuracy {acc}");
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_rejected() {
        let d = Dataset::from_parts(vec![0.0], vec![0], 1, 1);
        let _ = KnnClassifier::fit(&d, KnnConfig { k: 0 });
    }
}
