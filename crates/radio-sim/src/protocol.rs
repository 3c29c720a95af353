//! The protocol and adversary trait contract between `rcb-sim` and the
//! algorithm implementations in `rcb-core`.
//!
//! # Population-uniform action probabilities
//!
//! All five protocols of the paper share one structural property the engine
//! relies on: **within any slot, every active node draws the same coin**
//! (`coin ← rnd(1, 1/p)` in the pseudocode), and only the *interpretation* of
//! the coin depends on the node's private status (informed nodes broadcast
//! where uninformed nodes listen or idle, etc.). A protocol therefore
//! describes each *segment* (iteration, or phase-step) by a [`SlotProfile`]
//! carrying the two class probabilities, and each node maps a drawn
//! [`Coin`] to a concrete [`Action`] in [`ProtocolNode::on_selected`].
//!
//! # Segments and boundaries
//!
//! Protocol schedules are deterministic functions of the slot index
//! (iterations of `MultiCast`, phase-steps of `MultiCastAdv`, …). The engine
//! asks the protocol for the profile of the segment starting at a given slot,
//! runs `seg_len` slots under that profile, then fires
//! [`ProtocolNode::on_boundary`] on every active node — this is where the
//! paper's end-of-iteration checks (halting on few noisy slots, helper
//! promotion, …) happen.

use crate::channel::{Feedback, Payload};
use crate::jamset::JamSet;
use crate::rng::Xoshiro256;

/// Index of a node; node `0` is always the source.
pub type NodeId = u32;

/// Static description of one schedule segment (an iteration of
/// `MultiCastCore`/`MultiCast`, or one step of an `(i, j)`-phase of
/// `MultiCastAdv`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SlotProfile {
    /// Probability that a node draws coin class 1 this slot (exclusive with
    /// class 2). In the pseudocode this is `Pr[coin == 1]`.
    pub p1: f64,
    /// Probability of coin class 2 (`Pr[coin == 2]`); `p1 + p2 ≤ 1`.
    pub p2: f64,
    /// Number of *physical* channels in use this segment. Eve jams within
    /// `[0, channels)`.
    pub channels: u64,
    /// Number of *virtual* channels nodes pick from. Equal to `channels`
    /// except in round-simulated protocols (`MultiCast(C)`), where a node
    /// picks a virtual channel in `[0, virt_channels)` that the engine maps
    /// to (sub-slot `ch / channels`, physical channel `ch % channels`).
    pub virt_channels: u64,
    /// Physical slots per round. `1` for ordinary protocols; `n/(2C)` for
    /// `MultiCast(C)`, which uses one round of `n/(2C)` slots to simulate one
    /// virtual slot. Actor sampling happens once per round.
    pub round_len: u32,
    /// Length of this segment in *physical* slots; must be a multiple of
    /// `round_len`.
    pub seg_len: u64,
    /// Protocol-defined major index (iteration `i`, or epoch `i`).
    pub seg_major: u32,
    /// Protocol-defined minor index (phase `j` for `MultiCastAdv`, else 0).
    pub seg_minor: u32,
    /// Protocol-defined sub-step (0 or 1 for `MultiCastAdv` steps, else 0).
    pub step: u8,
}

impl SlotProfile {
    /// Number of virtual slots (rounds) in this segment.
    #[inline]
    pub fn rounds(&self) -> u64 {
        self.seg_len / self.round_len as u64
    }

    /// The per-round action probability `p` of the paper (equals `p1`).
    #[inline]
    pub fn p(&self) -> f64 {
        self.p1
    }
}

/// Which exclusive coin class a selected node drew.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Coin {
    /// `coin == 1` in the pseudocode.
    One,
    /// `coin == 2` in the pseudocode.
    Two,
}

/// A node's concrete action for one (virtual) slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// Do nothing; costs nothing.
    Idle,
    /// Listen on (virtual) channel `ch`; costs one energy unit.
    Listen { ch: u64 },
    /// Broadcast `payload` on (virtual) channel `ch`; costs one energy unit.
    Broadcast { ch: u64, payload: Payload },
}

/// Decision returned from a boundary check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BoundaryDecision {
    /// Stay active into the next segment.
    Continue,
    /// Terminate (the paper's `halt`): the node leaves the protocol and
    /// spends no further energy.
    Halt,
}

/// A broadcast protocol: schedule plus per-node behaviour.
pub trait Protocol {
    type Node: ProtocolNode;

    /// Number of nodes `n` in the network.
    fn num_nodes(&self) -> u32;

    /// Profile of the segment starting at `start_slot`. The engine calls this
    /// exactly once per segment, with strictly increasing `start_slot`
    /// (starting at 0), so implementations may keep a cursor.
    fn segment(&mut self, start_slot: u64) -> SlotProfile;

    /// Construct the state of node `id`. `is_source` is true for node 0,
    /// which starts informed (it knows the message `m` — all `k` of them
    /// for a multi-message protocol).
    fn make_node(&self, id: NodeId, is_source: bool) -> Self::Node;

    /// Number of concurrent broadcast payloads `k` this protocol carries
    /// (the multi-message broadcast model of Ahmadi & Kuhn,
    /// arXiv:1610.02931). Single-message protocols — everything in the
    /// paper — keep the default of 1. Must lie in `1..=64` (message
    /// identities fit one bitmask word). Multi-message protocols multiplex
    /// payloads via [`Payload::Msg`] and report per-node knowledge through
    /// [`ProtocolNode::informed_mask`]; the engine then fills
    /// [`crate::RunOutcome::messages`] with per-message tracking.
    fn num_messages(&self) -> u32 {
        1
    }
}

/// Per-node protocol state.
pub trait ProtocolNode {
    /// The node drew `coin` in the current (virtual) slot; choose an action.
    /// `rng` is the node's private stream. Returning [`Action::Idle`] is
    /// allowed (e.g. an uninformed node drawing the broadcast coin in
    /// `MultiCast` stays idle).
    fn on_selected(&mut self, profile: &SlotProfile, coin: Coin, rng: &mut Xoshiro256) -> Action;

    /// Deliver channel feedback for a slot in which this node listened.
    fn on_feedback(&mut self, profile: &SlotProfile, fb: Feedback);

    /// A segment ended; run the protocol's end-of-iteration / end-of-step
    /// checks. `profile` is the profile of the segment that just finished.
    fn on_boundary(&mut self, profile: &SlotProfile) -> BoundaryDecision;

    /// Does this node currently know the message `m`? For multi-message
    /// protocols: does it know **all** `k` messages?
    fn is_informed(&self) -> bool;

    /// Bitmask of the messages this node currently knows (bit `j` set =
    /// message `j` known). The engine reads it for the per-message tracking
    /// of every run ([`crate::RunOutcome::messages`]). The default — bit 0
    /// mirrors [`is_informed`](ProtocolNode::is_informed) — is always
    /// right for single-message protocols.
    fn informed_mask(&self) -> u64 {
        self.is_informed() as u64
    }

    /// Protocol-specific metrics for experiment reports (e.g. the `(iˆ, jˆ)`
    /// helper phase of `MultiCastAdv`).
    fn extra(&self) -> crate::metrics::NodeExtra {
        crate::metrics::NodeExtra::default()
    }

    /// Short human-readable status label for traces and examples.
    fn status_label(&self) -> &'static str {
        if self.is_informed() {
            "informed"
        } else {
            "uninformed"
        }
    }
}

/// Aggregate result of charging a jam span ([`Adversary::jam_span`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanCharge {
    /// Total energy Eve spends across the span: exactly the sum, over the
    /// span's slots, of `min(jam(slot).count(channels), remaining budget)`,
    /// with the remaining budget decreasing as she spends.
    pub spent: u64,
}

/// An oblivious jamming adversary.
///
/// Obliviousness is enforced structurally: the only inputs a strategy ever
/// receives are the slot index and the number of channels the algorithm uses
/// in that slot (public knowledge, since Eve knows the algorithm). Strategies
/// may use their own private randomness. The engine charges one unit per
/// jammed in-range channel per slot and truncates requests that exceed the
/// remaining budget (lowest-indexed channels are kept).
pub trait Adversary {
    /// The set of channels to jam in `slot`, out of `[0, channels)`.
    fn jam(&mut self, slot: u64, channels: u64) -> JamSet;

    /// Eve's total energy budget `T`.
    fn budget(&self) -> u64;

    /// Batched counterpart of [`jam`](Adversary::jam) for a span of `len`
    /// consecutive slots starting at `start` in which **no node listens** —
    /// the engine's idle-round fast-forward asks for the whole span's energy
    /// charge in one call instead of materializing a jam set per slot.
    /// `budget` is Eve's remaining energy when the span begins.
    ///
    /// # Contract
    ///
    /// The call must return the same total charge, and leave the strategy in
    /// the same externally observable state (future `jam` results), as the
    /// engine's per-slot rule applied over the span: charge
    /// `min(jam(slot).count(channels), remaining)` per slot and stop calling
    /// `jam` once `remaining` hits zero. The default implementation is
    /// exactly that loop, so every adversary is span-correct out of the box;
    /// structured strategies override it with closed forms (see
    /// `rcb-adversary`). Strategies whose override is equivalent only *in
    /// distribution* (not per-seed) must say so in their docs — the engine's
    /// fast path then changes per-seed outcomes but not statistics.
    ///
    /// ```
    /// use rcb_sim::{Adversary, JamSet, SpanCharge};
    ///
    /// /// Jams a 3-channel prefix on even slots.
    /// struct EvenSlots;
    /// impl Adversary for EvenSlots {
    ///     fn jam(&mut self, slot: u64, _channels: u64) -> JamSet {
    ///         if slot % 2 == 0 { JamSet::Prefix(3) } else { JamSet::Empty }
    ///     }
    ///     fn budget(&self) -> u64 { 10 }
    /// }
    ///
    /// // The default implementation replays the engine's per-slot budget
    /// // rule: the even slots of [0, 8) want 3 channels each (12 total),
    /// // but the remaining budget truncates the last request to 1.
    /// let mut eve = EvenSlots;
    /// assert_eq!(eve.jam_span(0, 8, 8, 10), SpanCharge { spent: 10 });
    /// // With budget to spare, the span charges exactly the per-slot sum.
    /// assert_eq!(eve.jam_span(1, 2, 8, 100), SpanCharge { spent: 3 });
    /// ```
    fn jam_span(&mut self, start: u64, len: u64, channels: u64, budget: u64) -> SpanCharge {
        let mut remaining = budget;
        let mut spent = 0u64;
        for slot in start..start.saturating_add(len) {
            if remaining == 0 {
                break;
            }
            let take = self.jam(slot, channels).count(channels).min(remaining);
            remaining -= take;
            spent += take;
        }
        SpanCharge { spent }
    }

    /// Human-readable strategy name for reports.
    fn name(&self) -> &'static str {
        "adversary"
    }
}

/// The trivial adversary with zero budget; useful as a default and in tests.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoAdversary;

impl Adversary for NoAdversary {
    fn jam(&mut self, _slot: u64, _channels: u64) -> JamSet {
        JamSet::Empty
    }

    fn budget(&self) -> u64 {
        0
    }

    fn jam_span(&mut self, _start: u64, _len: u64, _channels: u64, _budget: u64) -> SpanCharge {
        SpanCharge::default()
    }

    fn name(&self) -> &'static str {
        "none"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_round_arithmetic() {
        let p = SlotProfile {
            p1: 0.25,
            p2: 0.25,
            channels: 4,
            virt_channels: 16,
            round_len: 4,
            seg_len: 40,
            seg_major: 1,
            seg_minor: 0,
            step: 0,
        };
        assert_eq!(p.rounds(), 10);
        assert_eq!(p.p(), 0.25);
    }

    #[test]
    fn no_adversary_never_jams() {
        let mut adv = NoAdversary;
        assert_eq!(adv.jam(0, 16), JamSet::Empty);
        assert_eq!(adv.budget(), 0);
        assert_eq!(adv.jam_span(0, 1000, 16, 0), SpanCharge { spent: 0 });
    }

    /// The default `jam_span` must mirror the engine's per-slot budget rule,
    /// including bankruptcy mid-span.
    #[test]
    fn default_jam_span_mirrors_per_slot_budget_rule() {
        struct TwoEveryOther;
        impl Adversary for TwoEveryOther {
            fn jam(&mut self, slot: u64, _channels: u64) -> JamSet {
                if slot.is_multiple_of(2) {
                    JamSet::Prefix(2)
                } else {
                    JamSet::Empty
                }
            }
            fn budget(&self) -> u64 {
                7
            }
        }
        let mut eve = TwoEveryOther;
        // Slots 0..10 want 2 on even slots (5 × 2 = 10) but only 7 remain:
        // charges 2, 2, 2, then 1 at the bankruptcy slot.
        assert_eq!(eve.jam_span(0, 10, 8, 7), SpanCharge { spent: 7 });
        assert_eq!(eve.jam_span(0, 10, 8, 100), SpanCharge { spent: 10 });
        assert_eq!(eve.jam_span(1, 1, 8, 100), SpanCharge { spent: 0 });
        assert_eq!(eve.jam_span(0, 0, 8, 100), SpanCharge { spent: 0 });
    }
}
