//! The failure-point definition of Section 3.
//!
//! The trace records *swaps*, not failures. The paper pins each failure to
//! "the drive's last day of operational activity prior to a swap": after
//! that day the drive may keep reporting without serving reads/writes
//! (soft removal), stop reporting entirely, or both — and is then
//! physically swapped. This module recovers failure points, operational
//! periods (as survival durations), and the young/old split from a
//! [`DriveLog`].

use ssd_stats::Duration;
use ssd_types::{DriveLog, SwapEvent, INFANCY_DAYS};

/// A failure event recovered from the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailureRecord {
    /// Drive age (days) of the last operational-activity report before the
    /// swap — the paper's failure point.
    pub fail_day: u32,
    /// The swap this failure precedes.
    pub swap: SwapEvent,
    /// Index (into `DriveLog::reports`) of the failure-day report, if the
    /// drive has any report at or before the failure point.
    pub report_idx: Option<usize>,
}

impl FailureRecord {
    /// Length of the non-operational period preceding the swap (Figure 4).
    pub fn non_operational_days(&self) -> u32 {
        self.swap.swap_day.saturating_sub(self.fail_day)
    }

    /// Whether this is a *young* (infant) failure: age at failure within
    /// the 90-day infancy window (Section 4.1).
    pub fn is_young(&self) -> bool {
        self.fail_day <= INFANCY_DAYS
    }
}

/// Recovers the failure point for each swap in a drive's log.
///
/// For a swap at day `s`, the failure day is the age of the last report
/// with operational activity (reads or writes) strictly before `s`,
/// scanning backward past inactive (zero-activity) reports. A drive with
/// no active report before the swap yields a failure at the last report of
/// any kind, or at day 0 if the drive never reported (dead on arrival).
pub fn failure_records(log: &DriveLog) -> Vec<FailureRecord> {
    let mut out = Vec::with_capacity(log.swaps.len());
    for (si, swap) in log.swaps.iter().enumerate() {
        // The operational period for this swap starts at the previous
        // swap's re-entry (or 0); constrain the scan to it.
        let period_start = log.swaps[..si]
            .iter()
            .rev()
            .find_map(|prev| prev.reentry_day)
            .unwrap_or(0);
        let mut fail_day = None;
        let mut report_idx = None;
        let mut last_any: Option<(u32, usize)> = None;
        for (ri, r) in log.reports.iter().enumerate() {
            if r.age_days >= swap.swap_day {
                break;
            }
            if r.age_days < period_start {
                continue;
            }
            last_any = Some((r.age_days, ri));
            if r.is_active() {
                fail_day = Some(r.age_days);
                report_idx = Some(ri);
            }
        }
        match (fail_day, last_any) {
            (Some(day), _) => out.push(FailureRecord {
                fail_day: day,
                swap: *swap,
                report_idx,
            }),
            (None, Some((day, ri))) => out.push(FailureRecord {
                fail_day: day,
                swap: *swap,
                report_idx: Some(ri),
            }),
            (None, None) => out.push(FailureRecord {
                fail_day: period_start,
                swap: *swap,
                report_idx: None,
            }),
        }
    }
    out
}

/// One operational period: from deployment (or repair re-entry) to either
/// a failure or the (censored) end of observation — the unit of Figure 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OperationalPeriod {
    /// Drive age at the period's start.
    start_day: u32,
    /// Days of operation until failure, or `None` if never observed to end
    /// (the "∞" mass in Figure 3).
    length_to_failure: Option<u32>,
}

/// Extracts every operational period of a drive. Ages are drive-relative,
/// so the observation horizon only shows as reports stopping.
fn operational_periods(log: &DriveLog) -> Vec<OperationalPeriod> {
    let failures = failure_records(log);
    let mut periods = Vec::with_capacity(failures.len() + 1);
    let mut start = 0u32;
    for f in &failures {
        periods.push(OperationalPeriod {
            start_day: start,
            length_to_failure: Some(f.fail_day.saturating_sub(start)),
        });
        match f.swap.reentry_day {
            Some(re) => start = re,
            None => return periods, // never returns: no further period
        }
    }
    // Trailing period that never ends in an observed failure.
    periods.push(OperationalPeriod {
        start_day: start,
        length_to_failure: None,
    });
    periods
}

/// Every operational period of a drive as a survival [`Duration`]: an
/// event at the period's length to failure, or a censored observation at
/// the span from the period's start to the drive's last report. The
/// Figure 3 ECDF, the Kaplan–Meier time-to-failure fit and the fleet
/// service's survival answer all read periods through this one function.
pub fn period_durations(log: &DriveLog) -> impl Iterator<Item = Duration> {
    let last_age = log.max_age_days();
    operational_periods(log)
        .into_iter()
        .map(move |p| match p.length_to_failure {
            Some(l) => Duration {
                time: f64::from(l),
                event: true,
            },
            None => Duration {
                time: f64::from(last_age.saturating_sub(p.start_day)),
                event: false,
            },
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssd_types::{DailyReport, DriveId, DriveModel};

    fn active_report(age: u32) -> DailyReport {
        let mut r = DailyReport::empty(age);
        r.read_ops = 100;
        r.write_ops = 50;
        r
    }

    fn log_with(reports: Vec<DailyReport>, swaps: Vec<SwapEvent>) -> DriveLog {
        let mut log = DriveLog::new(DriveId(0), DriveModel::MlcA);
        log.reports = reports;
        log.swaps = swaps;
        log
    }

    #[test]
    fn failure_is_last_active_day_before_swap() {
        // Active through day 10, inactive reports 11-12, silent, swap at 20.
        let mut reports: Vec<DailyReport> = (0..=10).map(active_report).collect();
        reports.push(DailyReport::empty(11));
        reports.push(DailyReport::empty(12));
        let log = log_with(
            reports,
            vec![SwapEvent {
                swap_day: 20,
                reentry_day: None,
            }],
        );
        let f = failure_records(&log);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].fail_day, 10);
        assert_eq!(f[0].non_operational_days(), 10);
        assert!(f[0].is_young());
    }

    #[test]
    fn never_reported_drive_fails_at_period_start() {
        let log = log_with(
            vec![],
            vec![SwapEvent {
                swap_day: 5,
                reentry_day: None,
            }],
        );
        let f = failure_records(&log);
        assert_eq!(f[0].fail_day, 0);
        assert_eq!(f[0].report_idx, None);
    }

    #[test]
    fn second_failure_scans_only_after_reentry() {
        let mut reports: Vec<DailyReport> = (0..=10).map(active_report).collect();
        // Re-enters at 50, active 50..=60, swap at 70.
        reports.extend((50..=60).map(active_report));
        let log = log_with(
            reports,
            vec![
                SwapEvent {
                    swap_day: 15,
                    reentry_day: Some(50),
                },
                SwapEvent {
                    swap_day: 70,
                    reentry_day: None,
                },
            ],
        );
        let f = failure_records(&log);
        assert_eq!(f.len(), 2);
        assert_eq!(f[0].fail_day, 10);
        assert_eq!(f[1].fail_day, 60);
    }

    #[test]
    fn young_old_boundary_is_90_days() {
        let swap = SwapEvent {
            swap_day: 200,
            reentry_day: None,
        };
        let f_young = FailureRecord {
            fail_day: 90,
            swap,
            report_idx: None,
        };
        let f_old = FailureRecord {
            fail_day: 91,
            swap,
            report_idx: None,
        };
        assert!(f_young.is_young());
        assert!(!f_old.is_young());
    }

    #[test]
    fn operational_periods_cover_failures_and_tail() {
        let mut reports: Vec<DailyReport> = (0..=10).map(active_report).collect();
        reports.extend((50..=60).map(active_report));
        reports.extend((100..=200).map(active_report));
        let log = log_with(
            reports,
            vec![
                SwapEvent {
                    swap_day: 15,
                    reentry_day: Some(50),
                },
                SwapEvent {
                    swap_day: 70,
                    reentry_day: Some(100),
                },
            ],
        );
        let p = operational_periods(&log);
        assert_eq!(p.len(), 3);
        assert_eq!(p[0].length_to_failure, Some(10));
        assert_eq!(p[1].start_day, 50);
        assert_eq!(p[1].length_to_failure, Some(10));
        assert_eq!(p[2].start_day, 100);
        assert_eq!(p[2].length_to_failure, None); // censored tail

        // The censored tail spans from re-entry to the last report.
        let d: Vec<(f64, bool)> = period_durations(&log).map(|d| (d.time, d.event)).collect();
        assert_eq!(d, vec![(10.0, true), (10.0, true), (100.0, false)]);
    }

    #[test]
    fn unreturned_swap_ends_the_period_list() {
        let reports: Vec<DailyReport> = (0..=10).map(active_report).collect();
        let log = log_with(
            reports,
            vec![SwapEvent {
                swap_day: 15,
                reentry_day: None,
            }],
        );
        let p = operational_periods(&log);
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].length_to_failure, Some(10));
    }
}
