//! Figures 14–15: age-dependent predictive performance (Section 5.3).
//!
//! The paper discovers that infant failures are fundamentally more
//! predictable: TPR at conservative thresholds is far higher for drives
//! under three months old (Figure 14), young-vs-old ROC curves separate
//! (Figure 15), and training separate young/old models yields
//! 0.970 vs 0.890 AUC.

use super::{roc_series, PredictConfig};
use crate::features::{build_dataset, AgeFilter, ExtractOptions};
use crate::report::Series;
use ssd_ml::{cross_validate, grouped_kfold, held_out_scores, RocCurve};
use ssd_types::{FleetTrace, DAYS_PER_MONTH};

/// Held-out scores from one grouped train/test split.
struct HeldOut {
    scores: Vec<f64>,
    labels: Vec<bool>,
    ages_days: Vec<f32>,
}

/// Fits the forest on the balanced complement of fold 0 and scores fold 0.
fn held_out_fold0(data: &ssd_ml::Dataset, config: &PredictConfig) -> HeldOut {
    let folds = grouped_kfold(data, config.cv.k, config.cv.seed);
    let (test, scores) = held_out_scores(
        &config.forest,
        data,
        &folds[0],
        config.cv.downsample_ratio,
        config.seed,
    );
    let age_col = data
        .feature_names()
        .iter()
        .position(|n| n == "drive age")
        // lint:allow(panic-freedom) -- the feature set is built in this crate and always includes "drive age"
        .expect("drive age feature");
    HeldOut {
        labels: test.labels().to_vec(),
        ages_days: (0..test.n_rows()).map(|i| test.row(i)[age_col]).collect(),
        scores,
    }
}

/// Figure 14: true positive rate per age month at several probability
/// thresholds.
#[derive(Debug, Clone)]
pub struct TprByAge {
    /// One series per threshold: (age month, TPR among positives of that
    /// age).
    pub series: Vec<Series>,
}

/// Runs Figure 14 (thresholds as in the paper's figure legend).
pub fn tpr_by_age(
    trace: &FleetTrace,
    config: &PredictConfig,
    thresholds: &[f64],
) -> TprByAge {
    let data = config.dataset(trace, 1);
    let held = held_out_fold0(&data, config);
    let n_months = 30usize; // the figure spans 0..30 months
    let series = thresholds
        .iter()
        .map(|&thr| {
            let mut tp = vec![0u32; n_months];
            let mut pos = vec![0u32; n_months];
            for ((&s, &l), &age) in held
                .scores
                .iter()
                .zip(&held.labels)
                .zip(&held.ages_days)
            {
                if !l {
                    continue;
                }
                let m = (age / DAYS_PER_MONTH as f32) as usize;
                if m >= n_months {
                    continue;
                }
                pos[m] += 1;
                if s >= thr {
                    tp[m] += 1;
                }
            }
            let pts: Vec<(f64, f64)> = (0..n_months)
                .filter(|&m| pos[m] > 0)
                .map(|m| (m as f64, f64::from(tp[m]) / f64::from(pos[m])))
                .collect();
            Series::new(format!("threshold {thr:.2}"), pts)
        })
        .collect();
    TprByAge { series }
}

/// Figure 15 plus the separately-trained AUCs of Section 5.3.
#[derive(Debug, Clone)]
pub struct YoungOldRoc {
    /// ROC over young-drive rows of a jointly trained model.
    pub young_curve: Series,
    /// ROC over old-drive rows of a jointly trained model.
    pub old_curve: Series,
    /// AUC over young rows (joint model).
    pub young_auc: f64,
    /// AUC over old rows (joint model).
    pub old_auc: f64,
    /// Cross-validated AUC of a model trained *only* on young rows
    /// (paper: 0.970 ± 0.005).
    pub young_trained_auc: (f64, f64),
    /// Cross-validated AUC of a model trained *only* on old rows
    /// (paper: 0.890 ± 0.005).
    pub old_trained_auc: (f64, f64),
}

/// Runs Figure 15 and the partitioned-training comparison.
pub fn young_old_roc(trace: &FleetTrace, config: &PredictConfig) -> YoungOldRoc {
    let data = config.dataset(trace, 1);
    let held = held_out_fold0(&data, config);
    let boundary = 90.0f32;
    let mut split: [(Vec<f64>, Vec<bool>); 2] =
        [(Vec::new(), Vec::new()), (Vec::new(), Vec::new())];
    for ((&s, &l), &age) in held.scores.iter().zip(&held.labels).zip(&held.ages_days) {
        let slot = usize::from(age > boundary);
        split[slot].0.push(s);
        split[slot].1.push(l);
    }
    let young = RocCurve::compute(&split[0].0, &split[0].1);
    let old = RocCurve::compute(&split[1].0, &split[1].1);
    let (young_auc, old_auc) = (young.auc(), old.auc());

    // Separately trained models on age-partitioned datasets.
    let trained_on = |age_filter: AgeFilter| {
        let data = build_dataset(
            trace,
            &ExtractOptions {
                age_filter,
                ..config.extract_opts(1)
            },
        );
        cross_validate(&config.forest, &data, &config.cv)
    };
    let yr = trained_on(AgeFilter::Young);
    let or = trained_on(AgeFilter::Old);
    YoungOldRoc {
        young_curve: roc_series("Young", young_auc, &young),
        old_curve: roc_series("Old", old_auc, &old),
        young_auc,
        old_auc,
        young_trained_auc: (yr.mean(), yr.std_dev()),
        old_trained_auc: (or.mean(), or.std_dev()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predict::test_support::shared_trace;

    #[test]
    fn young_failures_are_more_predictable() {
        let trace = shared_trace();
        let cfg = PredictConfig::fast(11);
        let r = young_old_roc(trace, &cfg);
        // Section 5.3: young-trained 0.970 vs old-trained 0.890. Assert the
        // ordering with a margin for small-fleet noise.
        assert!(
            r.young_trained_auc.0 > r.old_trained_auc.0 - 0.05,
            "young {} vs old {}",
            r.young_trained_auc.0,
            r.old_trained_auc.0
        );
        assert!(r.young_trained_auc.0 > 0.8, "young {}", r.young_trained_auc.0);
        assert!(r.old_trained_auc.0 > 0.7, "old {}", r.old_trained_auc.0);
        assert!(!r.young_curve.points.is_empty());
        assert!(!r.old_curve.points.is_empty());
    }

    #[test]
    fn tpr_series_exist_and_decline_with_threshold() {
        let trace = shared_trace();
        let cfg = PredictConfig::fast(12);
        let t = tpr_by_age(trace, &cfg, &[0.85, 0.95]);
        assert_eq!(t.series.len(), 2);
        // A stricter threshold can only lower each month's TPR.
        for (lo, hi) in t.series[0].points.iter().zip(&t.series[1].points) {
            if lo.0 == hi.0 {
                assert!(hi.1 <= lo.1 + 1e-12, "month {}: {} > {}", lo.0, hi.1, lo.1);
            }
        }
    }
}

ssd_types::impl_json_struct!(TprByAge { series });

ssd_types::impl_json_struct!(YoungOldRoc { young_curve, old_curve, young_auc, old_auc, young_trained_auc, old_trained_auc });
