//! Engine contract enforcement: malformed protocols must fail fast with a
//! clear panic, not corrupt a simulation.

use rcb_sim::{
    Action, BoundaryDecision, Coin, EngineConfig, Feedback, Protocol, ProtocolNode, RunOutcome,
    Simulation, SlotProfile, Xoshiro256,
};

/// A protocol whose profile is whatever the test says.
struct Fixed {
    profile: SlotProfile,
}

struct Dummy;

impl Protocol for Fixed {
    type Node = Dummy;
    fn num_nodes(&self) -> u32 {
        4
    }
    fn segment(&mut self, _s: u64) -> SlotProfile {
        self.profile
    }
    fn make_node(&self, _id: u32, _src: bool) -> Dummy {
        Dummy
    }
}

impl ProtocolNode for Dummy {
    fn on_selected(&mut self, _p: &SlotProfile, _c: Coin, _r: &mut Xoshiro256) -> Action {
        Action::Idle
    }
    fn on_feedback(&mut self, _p: &SlotProfile, _f: Feedback) {}
    fn on_boundary(&mut self, _p: &SlotProfile) -> BoundaryDecision {
        BoundaryDecision::Continue
    }
    fn is_informed(&self) -> bool {
        true
    }
}

fn base_profile() -> SlotProfile {
    SlotProfile {
        p1: 0.1,
        p2: 0.1,
        channels: 4,
        virt_channels: 4,
        round_len: 1,
        seg_len: 10,
        seg_major: 0,
        seg_minor: 0,
        step: 0,
    }
}

fn run_fixed(profile: SlotProfile) -> RunOutcome {
    let mut proto = Fixed { profile };
    Simulation::new(&mut proto)
        .config(EngineConfig::capped(100))
        .run(1)
}

/// Every `Dummy` node starts informed, and the engine's ledger is seeded
/// from each node's own state, not from the source alone.
#[test]
fn well_formed_profile_runs() {
    let out = run_fixed(base_profile());
    assert!(out.all_informed);
    assert_eq!(out.messages[0].informed_count, 4);
}

#[test]
#[should_panic(expected = "at least one slot")]
fn rejects_empty_segment() {
    run_fixed(SlotProfile {
        seg_len: 0,
        ..base_profile()
    });
}

#[test]
#[should_panic(expected = "round_len")]
fn rejects_zero_round_len() {
    run_fixed(SlotProfile {
        round_len: 0,
        ..base_profile()
    });
}

#[test]
#[should_panic(expected = "multiple of round length")]
fn rejects_partial_rounds() {
    run_fixed(SlotProfile {
        round_len: 3,
        seg_len: 10,
        virt_channels: 12,
        ..base_profile()
    });
}

#[test]
#[should_panic(expected = "at least one channel")]
fn rejects_zero_channels() {
    run_fixed(SlotProfile {
        channels: 0,
        virt_channels: 0,
        ..base_profile()
    });
}

#[test]
#[should_panic(expected = "invalid action probabilities")]
fn rejects_probability_mass_over_one() {
    run_fixed(SlotProfile {
        p1: 0.7,
        p2: 0.7,
        ..base_profile()
    });
}

#[test]
#[should_panic(expected = "invalid action probabilities")]
fn rejects_negative_probability() {
    run_fixed(SlotProfile {
        p1: -0.1,
        p2: 0.0,
        ..base_profile()
    });
}

#[test]
#[should_panic(expected = "virtual channels must equal physical")]
fn rejects_virtual_mismatch_without_rounds() {
    run_fixed(SlotProfile {
        virt_channels: 8,
        ..base_profile()
    });
}

#[test]
#[should_panic(expected = "virt_channels == channels * round_len")]
fn rejects_bad_round_geometry() {
    run_fixed(SlotProfile {
        round_len: 2,
        seg_len: 10,
        virt_channels: 5,
        ..base_profile()
    });
}

/// The engine must stop exactly at the slot cap even when the protocol's
/// segment would keep going.
#[test]
fn slot_cap_is_exact() {
    let mut proto = Fixed {
        profile: SlotProfile {
            seg_len: 1_000_000,
            ..base_profile()
        },
    };
    let out = Simulation::new(&mut proto)
        .config(EngineConfig::capped(137))
        .run(2);
    assert_eq!(out.slots, 137);
    assert!(!out.all_halted);
}

/// A cap landing mid-round must not execute buffered future sub-slots.
#[test]
fn slot_cap_mid_round_is_safe() {
    let mut proto = Fixed {
        profile: SlotProfile {
            round_len: 10,
            seg_len: 1_000,
            virt_channels: 40,
            ..base_profile()
        },
    };
    let out = Simulation::new(&mut proto)
        .config(EngineConfig::capped(15))
        .run(3);
    assert_eq!(out.slots, 15, "cap mid-round");
}
