//! Soundness gates for the nemesis layer (`WorldSchedule`):
//!
//! 1. **Empty-schedule byte-identity** — mounting `.schedule(&empty)` on
//!    the `Simulation` builder changes *nothing*: outcome, full event
//!    trace (including idle spans), and engine telemetry (RNG draw counts
//!    included) are byte-identical to the unscheduled engine, across a
//!    5-protocol × {oblivious, adaptive} matrix.
//! 2. **Events land on span boundaries** — every applied event's
//!    `applied_at` is at or after its `scheduled_at` and never strictly
//!    inside a fast-forwarded idle span, so a scheduled run is still a
//!    sound span-batched execution (see `docs/NEMESIS.md`).
//! 3. **No-op events are outcome-inert** — a `Heal` with no partition and
//!    a `Recover` with no crash may only add timeline markers; every other
//!    `RunOutcome` field matches the unscheduled run even though the
//!    schedule forces span clipping and the per-listener delivery path.
//!
//! Gate 2 also pins `RunOutcome::messages` of these single-message runs
//! (crashes included) to the record recomputed from their per-node
//! outcomes, which the golden hashes elsewhere do not cover.
//!
//! Runs as a CI gate in the bench-smoke job alongside `fast_forward.rs`
//! and `simulation_api_equivalence.rs`.

use rcb::adversary::{ReactiveJammer, UniformFraction};
use rcb::core::{McParams, MultiCast, MultiCastAdv, MultiCastC, MultiCastCore, MultiHopCast};
use rcb::sim::{
    derive_seed, EngineConfig, EngineTelemetry, Eve, MessageOutcome, Observer, Protocol,
    RunOutcome, Simulation, SlotProfile, SlotStats, Topology, WorldEvent, WorldSchedule,
};

const PROTOCOLS: [&str; 5] = ["core", "multicast", "multicast-c", "adv", "multihop"];
const EVES: [&str; 2] = ["oblivious", "adaptive"];

/// Records the complete observable surface of a run: a running FNV-1a hash
/// of every event (informed / halted / boundary / per-slot stats) plus the
/// idle-span list, which test 2 inspects directly. `RecordingObserver`
/// does not capture idle spans, and byte-identity must cover them.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Probe {
    hash: u64,
    spans: Vec<(u64, u64)>,
}

impl Probe {
    fn new() -> Self {
        Self {
            hash: 0xcbf2_9ce4_8422_2325,
            spans: Vec::new(),
        }
    }

    fn eat(&mut self, s: &str) {
        for &b in s.as_bytes() {
            self.hash ^= b as u64;
            self.hash = self.hash.wrapping_mul(0x100_0000_01b3);
        }
    }
}

impl Observer for Probe {
    fn on_informed(&mut self, node: u32, slot: u64) {
        self.eat(&format!("i{node},{slot};"));
    }
    fn on_halted(&mut self, node: u32, slot: u64) {
        self.eat(&format!("h{node},{slot};"));
    }
    fn on_boundary(&mut self, slot: u64, profile: &SlotProfile, active: u32, informed: u32) {
        self.eat(&format!(
            "b{slot},{},{},{},{active},{informed};",
            profile.seg_major, profile.seg_minor, profile.step
        ));
    }
    fn on_slot(&mut self, slot: u64, stats: &SlotStats) {
        self.eat(&format!("s{slot},{stats:?};"));
    }
    fn on_idle_span(&mut self, slot: u64, len: u64, jammed: u64) {
        self.eat(&format!("f{slot},{len},{jammed};"));
        self.spans.push((slot, len));
    }
}

/// One matrix cell through the `Simulation` builder. `schedule: None`
/// means the builder method is not called at all (the unscheduled engine).
fn run_cell(
    proto_name: &str,
    eve_name: &str,
    schedule: Option<&WorldSchedule>,
    seed: u64,
) -> (RunOutcome, EngineTelemetry, Probe) {
    let cfg = EngineConfig {
        stop_when_all_informed: proto_name == "multihop",
        ..EngineConfig::capped(300_000)
    };
    let adv_seed = derive_seed(seed, 1_000_003);
    let mut uniform;
    let mut reactive;
    let eve = match eve_name {
        "oblivious" => {
            uniform = UniformFraction::new(6_000, 0.5, adv_seed);
            Eve::Oblivious(&mut uniform)
        }
        "adaptive" => {
            reactive = ReactiveJammer::with_params(6_000, 4, 2, 1);
            Eve::Adaptive(&mut reactive)
        }
        other => panic!("unknown adversary model {other}"),
    };
    // Multi-hop runs over a line so partitions and link loss bite; the
    // single-hop protocols run on the default complete connectivity.
    let topo = (proto_name == "multihop").then_some(&Topology::Line);

    fn go<'a, P: Protocol>(
        p: &'a mut P,
        eve: Eve<'a>,
        topo: Option<&'a Topology>,
        schedule: Option<&'a WorldSchedule>,
        cfg: EngineConfig,
        probe: &'a mut Probe,
        seed: u64,
    ) -> (RunOutcome, EngineTelemetry) {
        let mut sim = Simulation::new(p).eve(eve).topology(topo).config(cfg);
        if let Some(sched) = schedule {
            sim = sim.schedule(sched);
        }
        sim.observer(probe).run_with_telemetry(seed)
    }

    let mut probe = Probe::new();
    let (out, tel) = match proto_name {
        "core" => go(
            &mut MultiCastCore::new(16, 6_000),
            eve,
            topo,
            schedule,
            cfg,
            &mut probe,
            seed,
        ),
        "multicast" => go(
            &mut MultiCast::with_params(16, McParams::default()),
            eve,
            topo,
            schedule,
            cfg,
            &mut probe,
            seed,
        ),
        "multicast-c" => go(
            &mut MultiCastC::new(16, 4),
            eve,
            topo,
            schedule,
            cfg,
            &mut probe,
            seed,
        ),
        "adv" => go(
            &mut MultiCastAdv::new(16),
            eve,
            topo,
            schedule,
            cfg,
            &mut probe,
            seed,
        ),
        "multihop" => go(
            &mut MultiHopCast::with_config(16, 4, 0.25),
            eve,
            topo,
            schedule,
            cfg,
            &mut probe,
            seed,
        ),
        other => panic!("unknown protocol {other}"),
    };
    (out, tel, probe)
}

/// Gate 1: `.schedule(&WorldSchedule::new())` is byte-identical to not
/// mounting a schedule — outcome, trace, idle spans, telemetry — for every
/// protocol × adversary-model × seed cell.
#[test]
fn empty_schedule_is_byte_identical_to_unscheduled_engine() {
    let empty = WorldSchedule::new();
    for proto in PROTOCOLS {
        for eve in EVES {
            for seed in 1..=3u64 {
                let bare = run_cell(proto, eve, None, seed);
                let scheduled = run_cell(proto, eve, Some(&empty), seed);
                assert_eq!(
                    bare, scheduled,
                    "empty schedule perturbed the run: {proto} / {eve} / seed {seed}"
                );
            }
        }
    }
}

/// A schedule exercising the crash / partition / heal / recover /
/// link-loss families at small slots, so even fast-completing protocols
/// reach several events.
fn nemesis_schedule() -> WorldSchedule {
    WorldSchedule::new()
        .at(
            64,
            WorldEvent::CrashNodes {
                nodes: vec![12, 13],
            },
        )
        .at(
            128,
            WorldEvent::Partition {
                groups: vec![(0..8).collect()],
            },
        )
        .at(256, WorldEvent::Heal)
        .at(
            512,
            WorldEvent::RecoverNodes {
                nodes: vec![12, 13],
            },
        )
        .at(1_024, WorldEvent::SetLinkLoss { p: 0.1 })
        .at(2_048, WorldEvent::SetLinkLoss { p: 0.0 })
}

/// The one-message record a `k = 1` run must report, recomputed from its
/// per-node outcomes: who knows the message, when the last reachable node
/// learned it, and who halted knowing it.
fn single_message_record(out: &RunOutcome) -> MessageOutcome {
    let informed = out.nodes.iter().filter(|n| n.informed_at.is_some()).count() as u32;
    let last = out.nodes.iter().filter_map(|n| n.informed_at).max();
    MessageOutcome {
        msg: 0,
        informed_count: informed,
        all_informed_at: last.filter(|_| informed >= out.reachable),
        halted_knowing: out.nodes.iter().filter(|n| n.halted_informed).count() as u32,
    }
}

/// Gate 2: every applied event lands at or after its scheduled slot and
/// never strictly inside a fast-forwarded idle span — the engine clips
/// spans at pending events, so event application is always a span
/// boundary.
#[test]
fn every_applied_event_lands_on_a_span_boundary() {
    let sched = nemesis_schedule();
    for proto in PROTOCOLS {
        for eve in EVES {
            for seed in 1..=3u64 {
                let (out, _, probe) = run_cell(proto, eve, Some(&sched), seed);
                assert!(
                    !out.timeline.is_empty(),
                    "{proto} / {eve} / seed {seed}: no event applied before the run ended"
                );
                assert!(out.timeline.len() <= sched.len());
                assert_eq!(
                    out.messages,
                    [single_message_record(&out)],
                    "{proto} / {eve} / seed {seed}: k = 1 message record"
                );
                for marker in &out.timeline {
                    assert!(
                        marker.applied_at >= marker.scheduled_at,
                        "{proto} / {eve} / seed {seed}: {marker:?} applied early"
                    );
                    for &(start, len) in &probe.spans {
                        assert!(
                            !(start < marker.applied_at && marker.applied_at < start + len),
                            "{proto} / {eve} / seed {seed}: {marker:?} applied strictly \
                             inside the idle span [{start}, {})",
                            start + len
                        );
                    }
                }
                // Markers keep spec order (prefix property).
                for pair in out.timeline.windows(2) {
                    assert!(pair[0].applied_at <= pair[1].applied_at);
                }
            }
        }
    }
}

/// Gate 3: no-op events (heal with no partition, recover with no crash,
/// link loss set to 0) may only add timeline markers — every other
/// outcome field matches the unscheduled run, even though the schedule
/// forces span clipping and the per-listener delivery path.
#[test]
fn noop_events_only_add_timeline_markers() {
    let noop = WorldSchedule::new()
        .at(64, WorldEvent::Heal)
        .at(
            128,
            WorldEvent::RecoverNodes {
                nodes: vec![12, 13],
            },
        )
        .at(256, WorldEvent::SetLinkLoss { p: 0.0 })
        .at(512, WorldEvent::Heal);
    for proto in PROTOCOLS {
        for eve in EVES {
            for seed in 1..=3u64 {
                let (bare, _, _) = run_cell(proto, eve, None, seed);
                let (mut scheduled, _, _) = run_cell(proto, eve, Some(&noop), seed);
                for marker in &scheduled.timeline {
                    assert!(marker.applied_at >= marker.scheduled_at);
                }
                scheduled.timeline.clear();
                assert_eq!(
                    bare, scheduled,
                    "no-op events changed the outcome: {proto} / {eve} / seed {seed}"
                );
            }
        }
    }
}
