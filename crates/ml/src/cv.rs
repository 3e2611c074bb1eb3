//! Grouped k-fold cross-validation with train-side downsampling —
//! the paper's exact evaluation protocol (Section 5.1):
//!
//! 1. split drive IDs into k groups (no drive straddles train/test);
//! 2. downsample the majority class *of the training fold only* to 1:1;
//! 3. train, score the untouched (imbalanced) test fold, compute ROC AUC;
//! 4. report the mean ± standard deviation across folds.

use crate::classifier::Trainer;
use crate::dataset::Dataset;
use crate::metrics::roc_auc;
use crate::split::{balanced, complement, grouped_kfold};
use ssd_types::cast::{f64_from_usize, u64_from_usize};

/// Result of a cross-validation run.
#[derive(Debug, Clone, PartialEq)]
pub struct CvResult {
    /// Per-fold ROC AUC values.
    pub fold_aucs: Vec<f64>,
}

impl CvResult {
    /// Mean AUC across folds.
    pub fn mean(&self) -> f64 {
        self.fold_aucs.iter().sum::<f64>() / f64_from_usize(self.fold_aucs.len())
    }

    /// Sample standard deviation across folds (0 for a single fold).
    pub fn std_dev(&self) -> f64 {
        let n = self.fold_aucs.len();
        if n < 2 {
            return 0.0;
        }
        let m = self.mean();
        (self
            .fold_aucs
            .iter()
            .map(|a| (a - m) * (a - m))
            .sum::<f64>()
            / f64_from_usize(n - 1))
            .sqrt()
    }

    /// Formats as `mean ± std`, the presentation of Table 6.
    pub fn display(&self) -> String {
        format!("{:.3} ± {:.3}", self.mean(), self.std_dev())
    }
}

/// Options for [`cross_validate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CvOptions {
    /// Number of folds (the paper uses 5).
    pub k: usize,
    /// Negatives-per-positive ratio after training-fold downsampling
    /// (the paper uses 1.0).
    pub downsample_ratio: f64,
    /// Seed for fold assignment, downsampling, and model training.
    pub seed: u64,
}

impl Default for CvOptions {
    fn default() -> Self {
        CvOptions {
            k: 5,
            downsample_ratio: 1.0,
            seed: 0,
        }
    }
}

/// Runs grouped k-fold cross-validation of `trainer` on `data`.
///
/// Folds whose test split lacks one of the two classes are skipped (this
/// can happen on tiny datasets); at least one fold must be evaluable.
pub fn cross_validate(trainer: &dyn Trainer, data: &Dataset, opts: &CvOptions) -> CvResult {
    let folds = grouped_kfold(data, opts.k, opts.seed);
    let mut fold_aucs = Vec::with_capacity(opts.k);
    for (fi, fold) in folds.iter().enumerate() {
        let test = data.select(fold);
        let (pos, neg) = test.class_counts();
        if pos == 0 || neg == 0 {
            continue;
        }
        let train = balanced(
            data,
            &complement(data, fold),
            opts.downsample_ratio,
            opts.seed ^ u64_from_usize(fi).wrapping_mul(0x9E37_79B9),
        );
        let (tpos, tneg) = train.class_counts();
        if tpos == 0 || tneg == 0 {
            continue;
        }
        let model = trainer.fit(&train, opts.seed.wrapping_add(u64_from_usize(fi)));
        let scores = model.predict_batch(&test);
        fold_aucs.push(roc_auc(&scores, test.labels()));
    }
    assert!(
        !fold_aucs.is_empty(),
        "no fold had both classes in train and test"
    );
    CvResult { fold_aucs }
}

/// Trains on one dataset and evaluates AUC on another (the cross-model
/// transfer protocol of Table 7). The training set is downsampled to
/// `ratio`; the test set is left imbalanced.
pub fn train_test_auc(
    trainer: &dyn Trainer,
    train: &Dataset,
    test: &Dataset,
    ratio: f64,
    seed: u64,
) -> f64 {
    let all: Vec<usize> = (0..train.n_rows()).collect();
    let model = trainer.fit(&balanced(train, &all, ratio, seed), seed);
    roc_auc(&model.predict_batch(test), test.labels())
}

/// Fits `trainer` on the balanced complement of `test_rows` (one `seed`
/// for sampling and fitting) and scores the untouched test rows — one
/// held-out fold of the protocol. Returns the test rows and their scores.
pub fn held_out_scores(
    trainer: &dyn Trainer,
    data: &Dataset,
    test_rows: &[usize],
    ratio: f64,
    seed: u64,
) -> (Dataset, Vec<f64>) {
    let model = trainer.fit(
        &balanced(data, &complement(data, test_rows), ratio, seed),
        seed,
    );
    let test = data.select(test_rows);
    let scores = model.predict_batch(&test);
    (test, scores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LogisticRegressionConfig;
    use ssd_stats::SplitMix64;

    /// Imbalanced separable data: ~5% positives, label = x0 > 1.6.
    fn imbalanced(n: usize, seed: u64) -> Dataset {
        let mut rng = SplitMix64::new(seed);
        let mut d = Dataset::with_dims(2);
        for i in 0..n {
            let x = rng.next_f64() * 2.0;
            let noise = rng.next_f64() as f32;
            d.push_row(&[x as f32, noise], x > 1.9, (i / 4) as u32);
        }
        d
    }

    #[test]
    fn cv_produces_k_good_folds() {
        let data = imbalanced(2000, 1);
        let r = cross_validate(
            &LogisticRegressionConfig::default(),
            &data,
            &CvOptions::default(),
        );
        assert_eq!(r.fold_aucs.len(), 5);
        assert!(r.mean() > 0.95, "mean AUC {}", r.mean());
        assert!(r.std_dev() < 0.1);
    }

    #[test]
    fn cv_is_deterministic() {
        let data = imbalanced(800, 2);
        let o = CvOptions::default();
        let a = cross_validate(&LogisticRegressionConfig::default(), &data, &o);
        let b = cross_validate(&LogisticRegressionConfig::default(), &data, &o);
        assert_eq!(a, b);
    }

    #[test]
    fn display_format() {
        let r = CvResult {
            fold_aucs: vec![0.9, 0.8],
        };
        assert!((r.mean() - 0.85).abs() < 1e-12);
        let s = r.display();
        assert!(s.starts_with("0.850 ±"), "{s}");
    }

    #[test]
    fn transfer_auc_works() {
        let train = imbalanced(1500, 3);
        let test = imbalanced(800, 4);
        let auc = train_test_auc(
            &LogisticRegressionConfig::default(),
            &train,
            &test,
            1.0,
            0,
        );
        assert!(auc > 0.95, "{auc}");
    }

    #[test]
    fn held_out_scores_fit_on_the_balanced_complement() {
        let data = imbalanced(800, 5);
        let folds = grouped_kfold(&data, 5, 1);
        let trainer = LogisticRegressionConfig::default();
        let (test, scores) = held_out_scores(&trainer, &data, &folds[2], 1.0, 3);
        let train = balanced(&data, &complement(&data, &folds[2]), 1.0, 3);
        let expected = trainer
            .fit(&train, 3)
            .predict_batch(&data.select(&folds[2]));
        assert_eq!(scores, expected);
        assert_eq!(test.groups(), data.select(&folds[2]).groups());
        assert!(roc_auc(&scores, test.labels()) > 0.9);
    }

    #[test]
    fn single_fold_std_is_zero() {
        let r = CvResult {
            fold_aucs: vec![0.77],
        };
        assert_eq!(r.std_dev(), 0.0);
    }

    #[test]
    fn folds_without_positives_are_skipped() {
        // 10 groups; only groups 0 and 1 carry positives. With k = 5 some
        // test folds have no positive rows and must be skipped, not crash.
        let mut d = Dataset::with_dims(1);
        let mut rng = SplitMix64::new(9);
        for g in 0..10u32 {
            for r in 0..40 {
                let x = rng.next_f64() as f32;
                let label = g < 2 && r % 4 == 0 && x > 0.5;
                d.push_row(&[x + f32::from(u8::from(label))], label, g);
            }
        }
        let r = cross_validate(
            &LogisticRegressionConfig::default(),
            &d,
            &CvOptions {
                k: 5,
                downsample_ratio: 1.0,
                seed: 3,
            },
        );
        assert!(r.fold_aucs.len() < 5, "some folds must be skipped");
        assert!(!r.fold_aucs.is_empty());
    }

    #[test]
    fn downsample_ratio_changes_training_balance_not_test() {
        let data = imbalanced(1500, 9);
        let a = cross_validate(
            &LogisticRegressionConfig::default(),
            &data,
            &CvOptions {
                downsample_ratio: 1.0,
                ..Default::default()
            },
        );
        let b = cross_validate(
            &LogisticRegressionConfig::default(),
            &data,
            &CvOptions {
                downsample_ratio: 10.0,
                ..Default::default()
            },
        );
        // Both protocols must evaluate on the same (imbalanced) folds and
        // reach comparable AUC on separable data.
        assert_eq!(a.fold_aucs.len(), b.fold_aucs.len());
        assert!((a.mean() - b.mean()).abs() < 0.05);
    }
}
