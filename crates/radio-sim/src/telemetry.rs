//! Engine telemetry: plain counters and optional per-phase wall-clock.
//!
//! Every run of the engine's slot loop (see [`crate::engine`]) fills an
//! [`EngineTelemetry`] alongside its [`RunOutcome`](crate::RunOutcome). The
//! counters answer the "where do slots go" questions the performance
//! trajectory needs — how many slots were actually executed vs.
//! fast-forwarded, how fragmented the idle spans were, how much randomness
//! each stream class consumed, and how Eve's budget split between per-slot
//! charges and span-batched charges.
//!
//! Two invariants tie the counters to the outcome (enforced by the
//! `telemetry` integration test matrix):
//!
//! * `slots_stepped + slots_fast_forwarded == outcome.slots`
//! * `jam_spent_stepped + jam_spent_spans == outcome.eve_spent`
//!
//! # Determinism
//!
//! All counters are pure functions of `(protocol, eve, topology, config,
//! master_seed)` — collecting them never draws randomness and never branches
//! on wall-clock, so runs stay byte-identical whether or not anyone reads
//! the telemetry. The only host-dependent fields are the [`PhaseNanos`]
//! wall-clock phases, and those are populated only when
//! [`EngineConfig::time_phases`](crate::EngineConfig::time_phases) is set
//! (they are all-zero otherwise); even then the clock is read strictly
//! outside the RNG/decision path, at phase granularity.

/// Number of log₂ buckets in the idle-span length histogram. Spans are at
/// most `max_slots` long, so 32 buckets (spans up to 2³² − 1 slots) cover
/// every representable span; longer ones would clamp into the last bucket.
pub const SPAN_HIST_BUCKETS: usize = 32;

/// Per-phase wall-clock of one engine run, in nanoseconds. All-zero unless
/// [`EngineConfig::time_phases`](crate::EngineConfig::time_phases) was set.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseNanos {
    /// Topology realization, RNG stream derivation, node construction.
    pub setup: u64,
    /// The slot loop minus the fast-forward spans: sampling, jamming,
    /// channel resolution, feedback, boundaries.
    pub slot_loop: u64,
    /// Time spent inside taken fast-forward spans (span charge + skip).
    pub fast_forward: u64,
    /// Outcome assembly after the loop exits.
    pub finalize: u64,
}

impl PhaseNanos {
    /// Sum of all phases.
    pub fn total(&self) -> u64 {
        self.setup + self.slot_loop + self.fast_forward + self.finalize
    }

    fn merge(&mut self, other: &Self) {
        self.setup += other.setup;
        self.slot_loop += other.slot_loop;
        self.fast_forward += other.fast_forward;
        self.finalize += other.finalize;
    }
}

/// Counters filled by the engine during one run (or, after
/// [`merge`](Self::merge), an aggregate over many runs).
///
/// ```
/// # use rcb_sim::{
/// #     Action, BoundaryDecision, Coin, EngineConfig, Feedback, Payload, Protocol,
/// #     ProtocolNode, Simulation, SlotProfile, Xoshiro256,
/// # };
/// # struct Relay { n: u32 }
/// # struct Node { informed: bool }
/// # impl Protocol for Relay {
/// #     type Node = Node;
/// #     fn num_nodes(&self) -> u32 { self.n }
/// #     fn segment(&mut self, _start: u64) -> SlotProfile {
/// #         SlotProfile { p1: 0.02, p2: 0.02, channels: 2, virt_channels: 2,
/// #                       round_len: 1, seg_len: 1 << 40, seg_major: 0, seg_minor: 0, step: 0 }
/// #     }
/// #     fn make_node(&self, _id: u32, is_source: bool) -> Node { Node { informed: is_source } }
/// # }
/// # impl ProtocolNode for Node {
/// #     fn on_selected(&mut self, p: &SlotProfile, coin: Coin, rng: &mut Xoshiro256) -> Action {
/// #         let ch = rng.gen_range(p.virt_channels);
/// #         match coin {
/// #             Coin::One if !self.informed => Action::Listen { ch },
/// #             Coin::Two if self.informed =>
/// #                 Action::Broadcast { ch, payload: Payload::Data },
/// #             _ => Action::Idle,
/// #         }
/// #     }
/// #     fn on_feedback(&mut self, _p: &SlotProfile, fb: Feedback) {
/// #         if fb == Feedback::Message(Payload::Data) { self.informed = true; }
/// #     }
/// #     fn on_boundary(&mut self, _p: &SlotProfile) -> BoundaryDecision {
/// #         BoundaryDecision::Continue
/// #     }
/// #     fn is_informed(&self) -> bool { self.informed }
/// # }
/// let cfg = EngineConfig { stop_when_all_informed: true, ..EngineConfig::capped(1_000_000) };
/// let (out, tel) = Simulation::new(&mut Relay { n: 8 })
///     .config(cfg)
///     .run_with_telemetry(7);
/// assert_eq!(tel.slots_stepped + tel.slots_fast_forwarded, out.slots);
/// assert_eq!(tel.jam_spent_stepped + tel.jam_spent_spans, out.eve_spent);
/// assert!(tel.ff_skip_ratio() > 0.0); // most of a sparse run is skipped
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EngineTelemetry {
    /// Slots executed one by one through the full per-slot path.
    pub slots_stepped: u64,
    /// Slots covered by fast-forwarded idle spans (never executed).
    pub slots_fast_forwarded: u64,
    /// Fast-forward spans taken.
    pub spans: u64,
    /// Histogram of taken span lengths: bucket `b` counts spans whose
    /// length `l` has `⌊log₂ l⌋ == b` (so bucket 0 is length 1, bucket 3
    /// lengths 8..=15, …). `Σ buckets == spans`.
    pub span_len_hist: [u64; SPAN_HIST_BUCKETS],
    /// `next_u64` draws from the engine's actor-sampling stream.
    pub rng_engine_draws: u64,
    /// `next_u64` draws summed over all per-node streams.
    pub rng_node_draws: u64,
    /// Eve's energy charged through the per-slot `jam` path.
    pub jam_spent_stepped: u64,
    /// Eve's energy charged through span-batched `jam_span` calls.
    pub jam_spent_spans: u64,
    /// Observer callbacks fired (`on_informed` + `on_halted` +
    /// `on_boundary` + `on_slot` + `on_idle_span`), whether or not an
    /// observer was mounted.
    pub observer_events: u64,
    /// [`WorldSchedule`](crate::WorldSchedule) events applied during the
    /// run (0 for unscheduled runs and for events the run never reached).
    pub schedule_events: u64,
    /// Segments where fast-forward was requested but the heuristic gate
    /// declined it (idle rounds too unlikely, or the run too short, for the
    /// span bookkeeping to pay for itself). Gated segments run the plain
    /// per-slot loop; the outcome is unchanged either way.
    pub ff_gated_segments: u64,
    /// Crashed-node slot integral: Σ over slots of the number of nodes
    /// crashed during that slot. 0 for unscheduled runs.
    pub crashed_node_slots: u64,
    /// Optional per-phase wall-clock (see [`PhaseNanos`]).
    pub phases: PhaseNanos,
}

impl EngineTelemetry {
    /// Record one taken fast-forward span of `len` slots on which Eve spent
    /// `spent` energy.
    #[inline]
    pub(crate) fn record_span(&mut self, len: u64, spent: u64) {
        self.spans += 1;
        self.slots_fast_forwarded += len;
        self.jam_spent_spans += spent;
        let bucket = (63 - len.max(1).leading_zeros()) as usize;
        self.span_len_hist[bucket.min(SPAN_HIST_BUCKETS - 1)] += 1;
    }

    /// Total slots the run covered: executed plus fast-forwarded. Equal to
    /// `RunOutcome::slots` of the same run.
    pub fn slots_total(&self) -> u64 {
        self.slots_stepped + self.slots_fast_forwarded
    }

    /// Fraction of covered slots that were fast-forwarded rather than
    /// executed, in `[0, 1]` (0 for an empty run).
    pub fn ff_skip_ratio(&self) -> f64 {
        let total = self.slots_total();
        if total == 0 {
            0.0
        } else {
            self.slots_fast_forwarded as f64 / total as f64
        }
    }

    /// Mean length of a taken span (0 if none were taken).
    pub fn mean_span_len(&self) -> f64 {
        if self.spans == 0 {
            0.0
        } else {
            self.slots_fast_forwarded as f64 / self.spans as f64
        }
    }

    /// Fold another run's telemetry into this aggregate (all counters and
    /// phase clocks sum).
    pub fn merge(&mut self, other: &Self) {
        self.slots_stepped += other.slots_stepped;
        self.slots_fast_forwarded += other.slots_fast_forwarded;
        self.spans += other.spans;
        for (a, b) in self.span_len_hist.iter_mut().zip(&other.span_len_hist) {
            *a += b;
        }
        self.rng_engine_draws += other.rng_engine_draws;
        self.rng_node_draws += other.rng_node_draws;
        self.jam_spent_stepped += other.jam_spent_stepped;
        self.jam_spent_spans += other.jam_spent_spans;
        self.observer_events += other.observer_events;
        self.schedule_events += other.schedule_events;
        self.ff_gated_segments += other.ff_gated_segments;
        self.crashed_node_slots += other.crashed_node_slots;
        self.phases.merge(&other.phases);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_histogram_buckets_by_log2() {
        let mut tel = EngineTelemetry::default();
        tel.record_span(1, 0); // bucket 0
        tel.record_span(2, 0); // bucket 1
        tel.record_span(3, 0); // bucket 1
        tel.record_span(8, 5); // bucket 3
        tel.record_span(15, 0); // bucket 3
        assert_eq!(tel.spans, 5);
        assert_eq!(tel.slots_fast_forwarded, 1 + 2 + 3 + 8 + 15);
        assert_eq!(tel.jam_spent_spans, 5);
        assert_eq!(tel.span_len_hist[0], 1);
        assert_eq!(tel.span_len_hist[1], 2);
        assert_eq!(tel.span_len_hist[3], 2);
        assert_eq!(tel.span_len_hist.iter().sum::<u64>(), tel.spans);
    }

    #[test]
    fn ratios_handle_empty_runs() {
        let tel = EngineTelemetry::default();
        assert_eq!(tel.ff_skip_ratio(), 0.0);
        assert_eq!(tel.mean_span_len(), 0.0);
        assert_eq!(tel.slots_total(), 0);
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = EngineTelemetry {
            slots_stepped: 10,
            rng_engine_draws: 3,
            observer_events: 2,
            phases: PhaseNanos {
                setup: 5,
                slot_loop: 7,
                fast_forward: 1,
                finalize: 2,
            },
            ..EngineTelemetry::default()
        };
        a.record_span(4, 9);
        let mut b = EngineTelemetry {
            slots_stepped: 1,
            jam_spent_stepped: 6,
            rng_node_draws: 8,
            schedule_events: 4,
            crashed_node_slots: 12,
            ff_gated_segments: 3,
            ..EngineTelemetry::default()
        };
        b.record_span(4, 1);
        a.merge(&b);
        assert_eq!(a.slots_stepped, 11);
        assert_eq!(a.slots_fast_forwarded, 8);
        assert_eq!(a.spans, 2);
        assert_eq!(a.span_len_hist[2], 2);
        assert_eq!(a.jam_spent_stepped, 6);
        assert_eq!(a.jam_spent_spans, 10);
        assert_eq!(a.rng_engine_draws, 3);
        assert_eq!(a.rng_node_draws, 8);
        assert_eq!(a.observer_events, 2);
        assert_eq!(a.schedule_events, 4);
        assert_eq!(a.crashed_node_slots, 12);
        assert_eq!(a.ff_gated_segments, 3);
        assert_eq!(a.phases.total(), 15);
        assert_eq!(a.slots_total(), 19);
    }
}
