//! Bursty environmental interference via a Gilbert–Elliott channel model.

use crate::{frac_to_count, slot_offset};
use rcb_sim::{derive_seed, gap_from_uniform, Adversary, JamSet, SpanCharge, Xoshiro256};

/// A two-state Markov interference source: in the **good** state nothing is
/// jammed; in the **bad** state a fraction of the band is. Transitions
/// good→bad with probability `p_gb` and bad→good with probability `p_bg`
/// per slot, giving geometrically distributed burst and gap lengths — the
/// classic Gilbert–Elliott model of bursty channel noise.
///
/// The paper folds environmental noise and malicious jamming into the same
/// adversary ("Eve, which captures environmental noise and potentially
/// malicious interference"); this strategy instantiates the environmental
/// end of that spectrum. The chain's evolution uses only private randomness
/// and the slot index, so it remains oblivious.
///
/// # Span batching is statistical, not per-seed
///
/// The chain is the one genuinely sequential strategy in this crate, so its
/// [`jam_span`](Adversary::jam_span) override cannot replay the per-slot
/// draw sequence. Instead it advances the chain by **geometric sojourn
/// jumps** (`O(#state flips)` per span instead of `O(len)`): by the
/// memorylessness of per-slot flips, the sampled (occupancy, end-state) pair
/// has *exactly* the per-slot distribution, but realizations differ per
/// seed. Fast-forwarded runs against this strategy are therefore equivalent
/// to the reference path in distribution only — the cross-validation mirrors
/// the Sparse/DensePerNode sampling contract.
#[derive(Clone, Debug)]
pub struct GilbertElliott {
    t: u64,
    p_gb: f64,
    p_bg: f64,
    frac_bad: f64,
    bad: bool,
    rng: Xoshiro256,
    offset_seed: u64,
    last_slot: Option<u64>,
}

impl GilbertElliott {
    /// `p_gb`: per-slot probability of entering a burst; `p_bg`: per-slot
    /// probability of leaving one; `frac_bad`: fraction of channels disturbed
    /// while in a burst.
    pub fn new(t: u64, p_gb: f64, p_bg: f64, frac_bad: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p_gb) && (0.0..=1.0).contains(&p_bg));
        assert!((0.0..=1.0).contains(&frac_bad));
        Self {
            t,
            p_gb,
            p_bg,
            frac_bad,
            bad: false,
            rng: Xoshiro256::seeded(derive_seed(seed, 1)),
            offset_seed: derive_seed(seed, 2),
            last_slot: None,
        }
    }

    /// Stationary probability of being in the bad state.
    pub fn stationary_bad(&self) -> f64 {
        if self.p_gb + self.p_bg == 0.0 {
            0.0
        } else {
            self.p_gb / (self.p_gb + self.p_bg)
        }
    }

    fn step(&mut self) {
        let flip = if self.bad { self.p_bg } else { self.p_gb };
        if self.rng.gen_bool(flip) {
            self.bad = !self.bad;
        }
    }

    /// Steps until (and including) the next flip out of the current state:
    /// `1 + Geometric(flip probability)`, saturating to "never".
    fn sojourn(&mut self, flip: f64) -> u64 {
        if flip >= 1.0 {
            return 1;
        }
        gap_from_uniform(self.rng.next_f64(), (1.0 - flip).ln()).saturating_add(1)
    }

    /// Advance the chain `k` steps via sojourn jumps, counting how many of
    /// the `k` post-step states are bad.
    fn advance_steps(&mut self, mut k: u64) -> u64 {
        let mut bad_states: u64 = 0;
        while k > 0 {
            let flip = if self.bad { self.p_bg } else { self.p_gb };
            if flip <= 0.0 {
                // The current state is absorbing.
                if self.bad {
                    bad_states += k;
                }
                return bad_states;
            }
            let s = self.sojourn(flip);
            if s > k {
                // No flip within the remaining steps; the discarded sojourn
                // residual is free by memorylessness.
                if self.bad {
                    bad_states += k;
                }
                return bad_states;
            }
            // s − 1 steps in the current state, then the flip lands step s.
            if self.bad {
                bad_states += s - 1;
            }
            self.bad = !self.bad;
            if self.bad {
                bad_states += 1;
            }
            k -= s;
        }
        bad_states
    }
}

impl Adversary for GilbertElliott {
    fn jam(&mut self, slot: u64, channels: u64) -> JamSet {
        // Advance the chain by the number of elapsed slots (robust to the
        // engine skipping calls after bankruptcy).
        let steps = match self.last_slot {
            None => 1,
            Some(last) => slot.saturating_sub(last),
        };
        self.last_slot = Some(slot);
        for _ in 0..steps {
            self.step();
        }
        if !self.bad {
            return JamSet::Empty;
        }
        let k = frac_to_count(self.frac_bad, channels);
        if k == 0 {
            JamSet::Empty
        } else if k >= channels {
            JamSet::All
        } else {
            let start = slot_offset(self.offset_seed, slot, channels);
            JamSet::Window { start, len: k }
        }
    }

    fn budget(&self) -> u64 {
        self.t
    }

    fn jam_span(&mut self, start: u64, len: u64, channels: u64, budget: u64) -> SpanCharge {
        if len == 0 {
            return SpanCharge::default();
        }
        // Unqueried catch-up steps (per-slot `jam` advances slot − last
        // steps on its first call of a gap), then one queried step per slot.
        let catch_up = match self.last_slot {
            None => 0,
            Some(last) => start.saturating_sub(last).saturating_sub(1),
        };
        self.advance_steps(catch_up);
        let bad_slots = self.advance_steps(len);
        self.last_slot = Some(start.saturating_add(len) - 1);
        let want = bad_slots as u128 * frac_to_count(self.frac_bad, channels) as u128;
        SpanCharge {
            spent: want.min(budget as u128) as u64,
        }
    }

    fn name(&self) -> &'static str {
        "gilbert-elliott"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stationary_fraction_matches_theory() {
        let mut adv = GilbertElliott::new(u64::MAX, 0.02, 0.08, 1.0, 7);
        let slots = 200_000u64;
        let mut bad_slots = 0u64;
        for slot in 0..slots {
            if adv.jam(slot, 8) != JamSet::Empty {
                bad_slots += 1;
            }
        }
        let measured = bad_slots as f64 / slots as f64;
        let expected = adv.stationary_bad(); // 0.2
        assert!(
            (measured - expected).abs() < 0.03,
            "measured {measured:.3} vs stationary {expected:.3}"
        );
    }

    #[test]
    fn bursts_are_bursty() {
        // With small transition probabilities, consecutive slots should be
        // highly correlated: count state flips, which should be far fewer
        // than for i.i.d. slots.
        let mut adv = GilbertElliott::new(u64::MAX, 0.01, 0.01, 1.0, 9);
        let slots = 50_000u64;
        let mut prev = false;
        let mut flips = 0u64;
        for slot in 0..slots {
            let bad = adv.jam(slot, 8) != JamSet::Empty;
            if bad != prev {
                flips += 1;
            }
            prev = bad;
        }
        // i.i.d. with p = 0.5 would flip ~25_000 times; the chain flips
        // ~ slots * 0.01 = 500 times.
        assert!(flips < 2_000, "flips = {flips}, interference is not bursty");
    }

    #[test]
    fn zero_transition_never_jams() {
        let mut adv = GilbertElliott::new(100, 0.0, 0.5, 1.0, 1);
        for slot in 0..100 {
            assert_eq!(adv.jam(slot, 8), JamSet::Empty);
        }
        assert_eq!(adv.stationary_bad(), 0.0);
    }

    /// The sojourn-jump span must match per-slot stepping in distribution:
    /// same mean occupancy (hence mean charge) over many seeds.
    #[test]
    fn jam_span_matches_per_slot_distribution() {
        let (p_gb, p_bg, channels, span) = (0.03, 0.07, 8u64, 4_000u64);
        let seeds = 400u64;
        let mut per_slot_total = 0u64;
        let mut span_total = 0u64;
        for seed in 0..seeds {
            let mut a = GilbertElliott::new(u64::MAX / 2, p_gb, p_bg, 1.0, seed);
            for slot in 0..span {
                per_slot_total += a.jam(slot, channels).count(channels);
            }
            let mut b = GilbertElliott::new(u64::MAX / 2, p_gb, p_bg, 1.0, seed + 10_000);
            span_total += b.jam_span(0, span, channels, u64::MAX / 2).spent;
        }
        let a_mean = per_slot_total as f64 / seeds as f64;
        let b_mean = span_total as f64 / seeds as f64;
        let rel = (a_mean - b_mean).abs() / a_mean;
        assert!(
            rel < 0.05,
            "per-slot {a_mean:.0} vs sojourn {b_mean:.0} diverge by {rel:.3}"
        );
        // And both sit near the stationary expectation.
        let expect = span as f64 * p_gb / (p_gb + p_bg) * channels as f64;
        assert!(
            (a_mean - expect).abs() / expect < 0.1,
            "{a_mean} vs {expect}"
        );
    }

    /// After a span, subsequent per-slot queries must pick up from a valid
    /// chain state (no double-advancing through the catch-up logic).
    #[test]
    fn jam_span_then_per_slot_remains_consistent() {
        let mut adv = GilbertElliott::new(u64::MAX / 2, 1.0, 0.0, 1.0, 3);
        // p_gb = 1, p_bg = 0: enters bad at the first step and stays.
        // The first step already flips to bad (p_gb = 1), exactly like the
        // per-slot path where `jam(0)` steps once before querying.
        let c = adv.jam_span(0, 100, 8, u64::MAX / 2);
        assert_eq!(c.spent, 8 * 100);
        for slot in 100..110 {
            assert_eq!(adv.jam(slot, 8), JamSet::All, "slot {slot}");
        }
        // Budget cap applies.
        let mut capped = GilbertElliott::new(10, 1.0, 0.0, 1.0, 4);
        assert_eq!(capped.jam_span(0, 100, 8, 10).spent, 10);
    }

    #[test]
    fn partial_fraction_in_bad_state() {
        let mut adv = GilbertElliott::new(u64::MAX, 1.0, 0.0, 0.5, 3);
        // p_gb = 1 means we enter the bad state immediately and stay.
        for slot in 0..10 {
            assert_eq!(adv.jam(slot, 16).count(16), 8);
        }
    }
}
