//! Per-shard resident state and the single-pass answer plan.
//!
//! Each worker shard owns a disjoint subset of the fleet's drives plus an
//! [`OnlineFleet`] feature tracker for them. A batch of co-arriving
//! requests is compiled into one [`PassPlan`] — the union of everything
//! the batch needs — and [`ShardState::execute`] answers the whole plan
//! in **one loop over the shard's drives** (plus at most one batch
//! scoring call), producing a [`ShardPartial`] the service merges across
//! shards in shard order.
//!
//! # Why merging is exact, not approximate
//!
//! Every partial is either additive or order-insensitive, so the merged
//! answer is byte-identical to a single-shard pass over the whole fleet:
//!
//! - **Summary** — [`SummaryAccumulator`] is an order-independent fold
//!   with an additive [`merge`](SummaryAccumulator::merge); its ECDFs
//!   sort at `finish()`.
//! - **Survival** — shards contribute raw [`Duration`]s;
//!   `KaplanMeier::fit` sorts and aggregates per distinct time, so the
//!   concatenation order across shards cannot affect the curve.
//! - **Hazard** — [`BinnedRate`] holds integer event/exposure counts per
//!   bin; addition commutes.
//! - **Top-K** — per-drive scores depend only on that drive's telemetry
//!   (pinned by PR 6's equivalence battery), and the global top-k under
//!   the total order (score desc, id asc) is a subset of the union of
//!   per-shard top-k lists, so truncating each shard to `k` loses
//!   nothing.
//!
//! [`Duration`]: ssd_stats::Duration

use super::protocol::Request;
use crate::failure::{failure_records, period_durations};
use crate::predict::online::OnlineFleet;
use crate::streaming::SummaryAccumulator;
use ssd_ml::BatchScorer;
use ssd_stats::{BinnedRate, Duration};
use ssd_types::{DriveId, DriveLog, DriveModel};
use std::sync::Arc;

/// Everything one worker shard keeps resident.
pub struct ShardState {
    /// The shard's disjoint subset of the fleet's drives.
    drives: Vec<DriveLog>,
    /// Incremental feature state for exactly those drives.
    online: OnlineFleet,
    /// Shared flattened scorer, if the service trained one.
    scorer: Option<Arc<dyn BatchScorer>>,
    /// Trace horizon (fleet-wide, same on every shard).
    horizon_days: u32,
    /// Total daily reports across this shard's drives.
    drive_days: u64,
}

impl ShardState {
    /// An empty shard for a trace with the given horizon.
    pub fn new(horizon_days: u32, scorer: Option<Arc<dyn BatchScorer>>) -> Self {
        ShardState {
            drives: Vec::new(),
            online: OnlineFleet::new(),
            scorer,
            horizon_days,
            drive_days: 0,
        }
    }

    /// Takes ownership of one drive: stores its log and replays its
    /// telemetry through the online feature state.
    pub fn push_drive(&mut self, drive: DriveLog) {
        self.drive_days += drive.reports.len() as u64;
        self.online.observe_drive(&drive);
        self.drives.push(drive);
    }

    /// Number of drives resident on this shard.
    pub fn n_drives(&self) -> usize {
        self.drives.len()
    }

    /// Total daily reports resident on this shard.
    pub fn drive_days(&self) -> u64 {
        self.drive_days
    }

    /// Answers a whole plan in one pass over the shard's drives.
    pub fn execute(&self, plan: &PassPlan) -> ShardPartial {
        let mut partial = ShardPartial {
            summary: plan.summary.then(SummaryAccumulator::new),
            durations: Vec::new(),
            hazards: plan
                .hazard_bins
                .iter()
                .map(|&w| BinnedRate::new(n_bins(self.horizon_days, w)))
                .collect(),
            top: Vec::new(),
        };
        let touch_drives = plan.summary || plan.survival || !plan.hazard_bins.is_empty();
        if touch_drives {
            for d in &self.drives {
                if let Some(acc) = &mut partial.summary {
                    acc.observe(d);
                }
                if plan.survival {
                    // The same durations `lifecycle::time_to_failure_km`
                    // fits on.
                    partial.durations.extend(period_durations(d));
                }
                if !plan.hazard_bins.is_empty() {
                    let fail_days: Vec<u32> =
                        failure_records(d).iter().map(|f| f.fail_day).collect();
                    for (rate, &w) in partial.hazards.iter_mut().zip(&plan.hazard_bins) {
                        let last = rate.n_bins().saturating_sub(1);
                        for r in &d.reports {
                            rate.add_exposure(bin_of(r.age_days, w, last), 1);
                        }
                        for &fd in &fail_days {
                            rate.add_events(bin_of(fd, w, last), 1);
                        }
                    }
                }
            }
        }
        if let (Some(k), Some(scorer)) = (plan.top_k, &self.scorer) {
            let mut scored = self.online.predict_fleet_day(scorer.as_ref());
            // Highest risk first, ties toward the lower drive id — the
            // same total order the merge step re-applies globally.
            scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0 .0.cmp(&b.0 .0)));
            scored.truncate(k);
            partial.top = scored
                .into_iter()
                .map(|(id, p)| {
                    let model = self.online.model_of(id).unwrap_or(DriveModel::from_index(0));
                    (id, model, p)
                })
                .collect();
        }
        partial
    }
}

/// Number of `bin_days`-wide age bins covering a horizon (at least 1, so
/// the clamp onto the last bin always has a landing spot).
pub fn n_bins(horizon_days: u32, bin_days: u32) -> usize {
    (horizon_days.div_ceil(bin_days.max(1)).max(1)) as usize
}

/// Bin index of an age, clamped into range (a swap recorded past the
/// nominal horizon lands in the last bin instead of out of bounds).
fn bin_of(age_days: u32, bin_days: u32, last: usize) -> usize {
    ((age_days / bin_days.max(1)) as usize).min(last)
}

/// The union of work a batch of requests needs from each shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassPlan {
    /// Any request in the batch wants the fleet summary.
    pub summary: bool,
    /// Any request wants the Kaplan–Meier time-to-failure curve.
    pub survival: bool,
    /// Distinct hazard bin widths requested, sorted ascending.
    pub hazard_bins: Vec<u32>,
    /// Largest `k` requested, if any top-K request is present.
    pub top_k: Option<usize>,
}

impl PassPlan {
    /// Compiles a request batch into the union plan. `Info` requests need
    /// no shard work and contribute nothing.
    pub fn for_requests(requests: &[Request]) -> PassPlan {
        let mut plan = PassPlan {
            summary: false,
            survival: false,
            hazard_bins: Vec::new(),
            top_k: None,
        };
        for r in requests {
            match *r {
                Request::Info => {}
                Request::Summary => plan.summary = true,
                Request::Survival => plan.survival = true,
                Request::Hazard { bin_days } => {
                    if !plan.hazard_bins.contains(&bin_days) {
                        plan.hazard_bins.push(bin_days);
                    }
                }
                Request::TopK { k } => {
                    plan.top_k = Some(plan.top_k.map_or(k, |cur| cur.max(k)));
                }
            }
        }
        plan.hazard_bins.sort_unstable();
        plan
    }

    /// Whether the plan requires broadcasting to the shards at all.
    pub fn is_empty(&self) -> bool {
        !self.summary && !self.survival && self.hazard_bins.is_empty() && self.top_k.is_none()
    }
}

/// One shard's contribution to a plan's answers.
pub struct ShardPartial {
    /// Summary fold over the shard's drives, if the plan asked.
    pub summary: Option<SummaryAccumulator>,
    /// Raw survival durations (events + censored) from the shard.
    pub durations: Vec<Duration>,
    /// One accumulator per entry of [`PassPlan::hazard_bins`].
    pub hazards: Vec<BinnedRate>,
    /// The shard's top-k `(id, model, score)` rows, highest risk first.
    pub top: Vec<(DriveId, DriveModel, f64)>,
}

impl ShardPartial {
    /// Folds another shard's partial into this one. Shard order does not
    /// affect any finished answer (see the module docs), but the service
    /// still merges in shard order for good measure.
    pub fn absorb(&mut self, other: ShardPartial) {
        let ShardPartial {
            summary,
            durations,
            hazards,
            top,
        } = other;
        match (&mut self.summary, summary) {
            (Some(a), Some(b)) => a.merge(&b),
            (slot @ None, Some(b)) => *slot = Some(b),
            _ => {}
        }
        self.durations.extend(durations);
        if self.hazards.is_empty() {
            self.hazards = hazards;
        } else {
            for (a, b) in self.hazards.iter_mut().zip(&hazards) {
                a.merge(b);
            }
        }
        self.top.extend(top);
    }

    /// Re-applies the global total order to the merged top rows and
    /// truncates to `k`.
    pub fn finish_top(&mut self, k: usize) {
        self.top
            .sort_by(|a, b| b.2.total_cmp(&a.2).then(a.0 .0.cmp(&b.0 .0)));
        self.top.truncate(k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_unions_and_dedupes() {
        let plan = PassPlan::for_requests(&[
            Request::Info,
            Request::TopK { k: 5 },
            Request::Hazard { bin_days: 90 },
            Request::Summary,
            Request::Hazard { bin_days: 30 },
            Request::TopK { k: 12 },
            Request::Hazard { bin_days: 30 },
        ]);
        assert!(plan.summary);
        assert!(!plan.survival);
        assert_eq!(plan.hazard_bins, vec![30, 90]);
        assert_eq!(plan.top_k, Some(12));
        assert!(!plan.is_empty());
        assert!(PassPlan::for_requests(&[Request::Info]).is_empty());
    }

    #[test]
    fn bin_math_covers_the_horizon() {
        assert_eq!(n_bins(2190, 30), 73);
        assert_eq!(n_bins(2190, 3650), 1);
        assert_eq!(n_bins(0, 30), 1);
        assert_eq!(bin_of(0, 30, 72), 0);
        assert_eq!(bin_of(2189, 30, 72), 72);
        // Ages past the nominal horizon clamp into the last bin.
        assert_eq!(bin_of(9999, 30, 72), 72);
    }
}
