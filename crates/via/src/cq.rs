//! Completion queues.
//!
//! A CQ merges the completion notifications of the work queues associated
//! with it: instead of polling N VIs, an application polls (or blocks on)
//! one CQ and learns *which* VI and queue completed, then collects the
//! descriptor from that queue (`VipCQDone` → `VipRecvDone`, as in the
//! spec). §3.2.3 of the paper measures exactly the overhead this
//! indirection adds.

use std::collections::VecDeque;

use simkit::{ProcessCtx, WaitMode, WaitToken};

use crate::provider::Provider;
use crate::types::{CqId, QueueKind, ViId};

/// Internal CQ state.
pub(crate) struct CqState {
    pub depth: usize,
    pub entries: VecDeque<(ViId, QueueKind)>,
    pub waiters: VecDeque<(WaitToken, WaitMode)>,
    /// Number of VI work queues associated with this CQ (destroy guard).
    pub refs: usize,
    pub overflows: u64,
}

impl CqState {
    pub(crate) fn new(depth: usize) -> Self {
        CqState {
            depth,
            entries: VecDeque::new(),
            waiters: VecDeque::new(),
            refs: 0,
            overflows: 0,
        }
    }
}

/// Public handle to a completion queue.
#[derive(Clone)]
pub struct Cq {
    pub(crate) provider: Provider,
    pub(crate) id: CqId,
}

impl Cq {
    /// This CQ's id.
    pub fn id(&self) -> CqId {
        self.id
    }

    /// Poll for a completion notification (`VipCQDone`): which VI and which
    /// of its queues has a completion ready.
    pub fn done(&self, ctx: &mut ProcessCtx) -> Option<(ViId, QueueKind)> {
        self.provider.cq_done(ctx, self.id)
    }

    /// Wait for a completion notification (`VipCQWait`).
    pub fn wait(&self, ctx: &mut ProcessCtx, mode: WaitMode) -> (ViId, QueueKind) {
        self.provider.cq_wait(ctx, self.id, mode)
    }

    /// Number of notifications lost to queue overflow (depth exceeded).
    pub fn overflows(&self) -> u64 {
        self.provider.cq_overflows(self.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cqstate_starts_empty() {
        let cq = CqState::new(16);
        assert_eq!(cq.entries.len(), 0);
        assert_eq!(cq.refs, 0);
        assert_eq!(cq.depth, 16);
    }
}
