//! Outcome records produced by an engine run.

use crate::schedule::ScheduleMarker;

/// Protocol-specific metrics attached to a node's outcome (e.g. the helper
/// phase `(iˆ, jˆ)` recorded by `MultiCastAdv` nodes).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NodeExtra {
    /// Key/value pairs; keys are static strings defined by the protocol.
    pub items: Vec<(&'static str, f64)>,
}

impl NodeExtra {
    /// Look up a metric by key.
    pub fn get(&self, key: &str) -> Option<f64> {
        self.items.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }

    /// Add a metric.
    pub fn push(&mut self, key: &'static str, value: f64) {
        self.items.push((key, value));
    }
}

/// Per-node result of a run.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeOutcome {
    /// Node id (0 = source).
    pub id: u32,
    /// Slot at the end of which the node first knew the message (`Some(0)`
    /// means "knew it from the start", i.e. the source).
    pub informed_at: Option<u64>,
    /// Slot at the end of which the node halted, if it did.
    pub halted_at: Option<u64>,
    /// Slots spent listening (one energy unit each).
    pub listen_cost: u64,
    /// Slots spent broadcasting (one energy unit each).
    pub broadcast_cost: u64,
    /// Whether the node knew the message at the moment it halted. A `false`
    /// here with `halted_at.is_some()` is a **safety violation** of the
    /// broadcast problem (Lemma 4.2 / 5.2 events).
    pub halted_informed: bool,
    /// Protocol-specific extras.
    pub extra: NodeExtra,
}

impl NodeOutcome {
    /// Total energy spent by the node.
    #[inline]
    pub fn cost(&self) -> u64 {
        self.listen_cost + self.broadcast_cost
    }
}

/// Aggregate counts of what listeners heard during a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SlotStats {
    pub broadcasts: u64,
    pub listens: u64,
    pub heard_silence: u64,
    pub heard_message: u64,
    pub heard_noise: u64,
    /// Channel-slots jammed by Eve (her actual spend).
    pub jammed: u64,
}

/// Per-message result of a run — the multi-message broadcast tracking of
/// [`crate::Protocol::num_messages`]. Single-message runs carry exactly one
/// entry, tracked like any other.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MessageOutcome {
    /// Message id `j` (bit `j` of a node's informed mask).
    pub msg: u32,
    /// Nodes that knew this message when the run ended.
    pub informed_count: u32,
    /// Slot at the end of which every *reachable* node knew this message,
    /// if that happened.
    pub all_informed_at: Option<u64>,
    /// Nodes that halted while knowing this message.
    pub halted_knowing: u32,
}

/// Result of one engine run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunOutcome {
    /// Physical slots executed.
    pub slots: u64,
    /// True if every node halted before the engine's slot cap.
    pub all_halted: bool,
    /// True if every node knew the message when the run ended.
    pub all_informed: bool,
    /// Slot at the end of which the last node became informed, if all did.
    pub all_informed_at: Option<u64>,
    /// Number of nodes reachable from the source — the denominator of
    /// `all_informed`. Equals `n` for single-hop runs and for connected
    /// topologies; smaller when the connectivity graph is disconnected.
    pub reachable: u32,
    /// Eve's actual expenditure (≤ her budget).
    pub eve_spent: u64,
    /// Aggregate listener statistics.
    pub totals: SlotStats,
    /// Per-message tracking, indexed by message id (length =
    /// `Protocol::num_messages()`; a single entry for the paper's
    /// single-message protocols).
    pub messages: Vec<MessageOutcome>,
    /// Per-node outcomes, indexed by node id.
    pub nodes: Vec<NodeOutcome>,
    /// Applied [`crate::WorldSchedule`] events in application order. Empty
    /// for unscheduled runs and for events the run never reached.
    pub timeline: Vec<ScheduleMarker>,
    /// Nodes still crashed when the run ended.
    pub crashed: u32,
    /// Reachable nodes that were not crashed at the end of the run — the
    /// denominator of the survivor-relative verdict. Equals `reachable`
    /// for unscheduled runs.
    pub survivors: u32,
    /// Survivors that knew the message when the run ended.
    pub survivors_informed: u32,
    /// True if every surviving reachable node knew the message — the
    /// graceful-degradation analogue of `all_informed`. Identical to
    /// `all_informed` when no node was crashed at the end.
    pub survivors_all_informed: bool,
    /// True if every non-crashed node halted. Identical to `all_halted`
    /// when no node was crashed at the end.
    pub survivors_all_halted: bool,
}

impl RunOutcome {
    /// Maximum energy spent by any node — the quantity bounded by the
    /// resource-competitiveness definition (Definition 3.1).
    pub fn max_cost(&self) -> u64 {
        self.nodes.iter().map(NodeOutcome::cost).max().unwrap_or(0)
    }

    /// Mean per-node energy.
    pub fn mean_cost(&self) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        self.nodes.iter().map(|n| n.cost() as f64).sum::<f64>() / self.nodes.len() as f64
    }

    /// Slot by which every node had halted (None if some never did).
    pub fn last_halt(&self) -> Option<u64> {
        self.nodes
            .iter()
            .map(|n| n.halted_at)
            .collect::<Option<Vec<_>>>()?
            .into_iter()
            .max()
    }

    /// Number of nodes that halted while uninformed — must be 0 for a safe
    /// execution.
    pub fn safety_violations(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.halted_at.is_some() && !n.halted_informed)
            .count()
    }

    /// Number of informed nodes at the end of the run.
    pub fn informed_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.informed_at.is_some())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(id: u32, cost: (u64, u64), halted: Option<u64>, informed: Option<u64>) -> NodeOutcome {
        NodeOutcome {
            id,
            informed_at: informed,
            halted_at: halted,
            listen_cost: cost.0,
            broadcast_cost: cost.1,
            halted_informed: informed.is_some(),
            extra: NodeExtra::default(),
        }
    }

    fn outcome(nodes: Vec<NodeOutcome>) -> RunOutcome {
        RunOutcome {
            slots: 100,
            all_halted: true,
            all_informed: true,
            all_informed_at: Some(50),
            reachable: 2,
            eve_spent: 10,
            totals: SlotStats::default(),
            messages: Vec::new(),
            nodes,
            timeline: Vec::new(),
            crashed: 0,
            survivors: 2,
            survivors_informed: 2,
            survivors_all_informed: true,
            survivors_all_halted: true,
        }
    }

    #[test]
    fn max_and_mean_cost() {
        let o = outcome(vec![
            node(0, (3, 7), Some(90), Some(0)),
            node(1, (5, 0), Some(80), Some(40)),
        ]);
        assert_eq!(o.max_cost(), 10);
        assert_eq!(o.mean_cost(), 7.5);
    }

    #[test]
    fn last_halt_requires_all() {
        let o = outcome(vec![
            node(0, (0, 0), Some(90), Some(0)),
            node(1, (0, 0), None, Some(40)),
        ]);
        assert_eq!(o.last_halt(), None);
        let o2 = outcome(vec![
            node(0, (0, 0), Some(90), Some(0)),
            node(1, (0, 0), Some(95), Some(40)),
        ]);
        assert_eq!(o2.last_halt(), Some(95));
    }

    #[test]
    fn safety_violation_counted() {
        let mut bad = node(1, (0, 0), Some(10), None);
        bad.halted_informed = false;
        let o = outcome(vec![node(0, (0, 0), Some(9), Some(0)), bad]);
        assert_eq!(o.safety_violations(), 1);
    }

    #[test]
    fn extra_lookup() {
        let mut e = NodeExtra::default();
        e.push("helper_epoch", 7.0);
        assert_eq!(e.get("helper_epoch"), Some(7.0));
        assert_eq!(e.get("missing"), None);
    }
}
