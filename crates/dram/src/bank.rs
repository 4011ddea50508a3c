//! Per-bank and per-rank DDR4 timing state.

use std::collections::VecDeque;

/// Timing state of one DRAM bank.
#[derive(Debug, Clone, Default)]
pub(crate) struct Bank {
    /// Currently open row, if any.
    pub open_row: Option<u32>,
    /// Earliest cycle an ACT may issue (tRP / tRFC).
    pub next_act: u64,
    /// Earliest cycle a READ may issue (tRCD after ACT).
    pub next_read: u64,
    /// Earliest cycle a WRITE may issue.
    pub next_write: u64,
    /// Earliest cycle a PRE may issue (tRAS / tRTP / tWR).
    pub next_pre: u64,
}

/// Timing registers shared by the banks of one rank's bank group. Each
/// is the running max of its rank-wide (`_S`) and same-group (`_L`)
/// constraints: every component only ratchets upward, so one value per
/// group answers both checks exactly.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct GroupTiming {
    /// Earliest column command (tCCD_S, tCCD_L).
    pub next_col: u64,
    /// Earliest READ (tWTR_S, tWTR_L after a write).
    pub next_read: u64,
    /// Earliest ACT (tRRD_S, tRRD_L, and the rank's tFAW window).
    pub next_act: u64,
}

/// Refresh and four-activate-window state of one rank.
#[derive(Debug, Clone)]
pub(crate) struct Rank {
    /// Issue times of the most recent ACTs (tFAW window, max 4 retained).
    pub act_window: VecDeque<u64>,
    /// Cycle at which the next refresh becomes due.
    pub refresh_due: u64,
    /// Whether a refresh is pending (blocks new row activity).
    pub refresh_pending: bool,
}

impl Rank {
    pub fn new(t_refi: u64) -> Self {
        Self {
            act_window: VecDeque::with_capacity(4),
            refresh_due: t_refi,
            refresh_pending: false,
        }
    }

    /// Earliest ACT permitted by the four-activate window.
    pub fn faw_ready(&self, t_faw: u64) -> u64 {
        if self.act_window.len() < 4 {
            0
        } else {
            self.act_window[0] + t_faw
        }
    }

    /// Records an ACT at `cycle` in the tFAW window.
    pub fn record_act(&mut self, cycle: u64) {
        if self.act_window.len() == 4 {
            self.act_window.pop_front();
        }
        self.act_window.push_back(cycle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faw_window_tracks_last_four() {
        let mut r = Rank::new(1000);
        assert_eq!(r.faw_ready(34), 0);
        for t in [10, 20, 30, 40] {
            r.record_act(t);
        }
        assert_eq!(r.faw_ready(34), 10 + 34);
        r.record_act(50);
        assert_eq!(r.faw_ready(34), 20 + 34);
        assert_eq!(r.act_window.len(), 4);
    }

    #[test]
    fn bank_default_is_closed_and_ready() {
        let b = Bank::default();
        assert!(b.open_row.is_none());
        assert_eq!(b.next_act, 0);
    }
}
