//! The traced run: per-layer metrics for one workload.
//!
//! Every layer is exercised on the workload's own campaign, so each
//! workload reports every per-layer metric:
//!
//! * the workload's own pass runs twice, untraced and traced, which gives
//!   `trace.overhead`;
//! * the plain-run, service and shard-fleet passes it does not already
//!   time run once each with spans on;
//! * a sequential replay of every trial through `run_trial_telemetry`
//!   returns the engine's phase clocks and counters;
//! * a separate counting pass mounts an `Observer`, so per-slot callbacks
//!   never inflate the replay's phase clocks;
//! * one-thread `run_campaign`s give the serial wall, plain and with the
//!   replay's phase clocks.

use crate::checks::{quantiles_outside_range, Expect, Tally};
use crate::spans::Recorder;
use crate::workloads::{PassKind, WARM_REPEATS};
use crate::Plan;
use rcb_campaign::{
    checkpoint_path, jsonin, load_checkpoint, run_campaign, Json, Store, WorkerOutcome,
};
use rcb_harness::{cell_trial_seed, run_trial_opts, run_trial_telemetry, TrialOptions, TrialSpec};
use rcb_sim::{EngineConfig, EngineTelemetry, Observer, SlotProfile, SlotStats};
use rcb_stats::{QuantileSketch, StreamingMoments};
use std::hint::black_box;
use std::path::Path;

/// A metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// Counts what the protocol layer does per stepped slot and per segment.
#[derive(Default)]
struct SlotCounter {
    slots: u64,
    actors: u64,
    products: u64,
    boundaries: u64,
}

impl Observer for SlotCounter {
    fn on_slot(&mut self, _slot: u64, stats: &SlotStats) {
        self.slots += 1;
        self.actors += stats.broadcasts + stats.listens;
        self.products += stats.broadcasts * stats.listens;
    }

    fn on_boundary(&mut self, _slot: u64, _profile: &SlotProfile, _active: u32, _informed: u32) {
        self.boundaries += 1;
    }
}

fn trial_spec(plan: &Plan, c: usize, t: u64) -> TrialSpec {
    let cell = &plan.spec.cells[c];
    TrialSpec::new(
        cell.protocol.clone(),
        cell.adversary.clone(),
        cell_trial_seed(plan.seed, c as u64, t),
    )
    .with_topology(cell.topology.clone())
    .with_schedule(cell.schedule.clone())
    .with_max_slots(cell.max_slots)
}

fn median(mut v: Vec<f64>) -> f64 {
    quantile(&mut v, 0.5)
}

/// Nearest-rank quantile (0 for an empty sample).
fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn dir_files(dir: &Path, keep: impl Fn(&str) -> bool) -> (u64, u64) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return (0, 0);
    };
    entries
        .flatten()
        .filter(|e| e.file_name().to_str().is_some_and(&keep))
        .fold((0, 0), |(n, bytes), e| {
            (n + 1, bytes + e.metadata().map_or(0, |m| m.len()))
        })
}

/// Run the traced pipeline for `plan`, checking every artifact into
/// `tally`, and return the per-layer metrics with the span recorder.
pub fn traced_run(plan: &Plan, tally: &mut Tally) -> (Vec<Metric>, Recorder) {
    let mut rec = Recorder::new(true);
    let exp = Expect {
        spec: &plan.spec,
        trials: plan.trials,
        complete: plan.complete,
    };
    let (seed, trials, spec) = (plan.seed, plan.trials, &plan.spec);

    let rebuilt = rec.span("scenario.build", None, None, |_| {
        plan.workload.build_spec(seed)
    });
    assert!(rebuilt.is_ok(), "the campaign built once already");

    // The workload's own pass, untraced and then traced.
    let untraced = plan.pass(&mut Recorder::new(false), 0);
    let _ = std::fs::remove_dir_all(plan.dir.join("pass-0"));
    let own = rec.span("pass", None, None, |rec| plan.pass(rec, 0));
    let overhead = own.wall_s / untraced.wall_s;

    // The other two kinds of pass, each once, traced.
    let mut own = Some(own);
    let [campaign, service, fleet] = PassKind::ALL.map(|kind| {
        if kind == plan.workload.pass_kind() {
            own.take().expect("one pass kind is the workload's own")
        } else {
            let dir = plan.dir.join(format!("trace-{kind:?}"));
            kind.run(spec, seed, trials, &dir, &mut rec)
        }
    });

    // Every artifact of the run is checked; the plain run is the reference
    // for the service and fleet artifacts.
    let reference_text = campaign.artifacts[0].json.as_ref().ok().cloned();
    let reference = reference_text
        .as_deref()
        .map(|t| jsonin::parse(t).expect("artifact parses"));
    for (pass, name) in [
        (&untraced, "untraced"),
        (&campaign, "campaign"),
        (&service, "service"),
        (&fleet, "fleet"),
    ] {
        for a in &pass.artifacts {
            let label = format!("{name}/{}", a.label);
            match &a.json {
                Ok(text) => tally.artifact(&label, text, &exp, reference.as_ref()),
                Err(e) => tally.error(&label, spec.cells.len(), e),
            }
        }
    }

    // Sequential replay of every trial.
    let engine_cfg = EngineConfig {
        time_phases: true,
        ..EngineConfig::default()
    };
    let cells = spec.cells.len();
    let mut tel = EngineTelemetry::default();
    let mut cell_tel = vec![EngineTelemetry::default(); cells];
    let mut values: Vec<Vec<[f64; 5]>> = vec![Vec::new(); cells];
    let mut replay_bad = vec![None::<String>; cells];
    rec.span("harness.replay", None, None, |rec| {
        for c in 0..cells {
            for t in 0..trials {
                let ts = trial_spec(plan, c, t);
                rec.span("topology.build", Some(c as u64), Some(t), |_| {
                    black_box(ts.topology.build(ts.seed));
                });
                let (r, tt) = rec.span("harness.trial", Some(c as u64), Some(t), |_| {
                    run_trial_telemetry(&ts, TrialOptions::with_engine(engine_cfg))
                });
                if tt.slots_stepped + tt.slots_fast_forwarded != r.slots
                    || tt.jam_spent_stepped + tt.jam_spent_spans != r.eve_spent
                {
                    replay_bad[c] =
                        Some(format!("trial {t}: telemetry disagrees with its outcome"));
                }
                values[c].push([
                    r.completion_time() as f64,
                    r.max_cost as f64,
                    r.mean_cost,
                    r.source_cost as f64,
                    r.eve_spent as f64,
                ]);
                cell_tel[c].merge(&tt);
                tel.merge(&tt);
            }
        }
    });
    // The replay must reproduce the artifact's deterministic counters.
    if let Some(doc) = &reference {
        for (c, ct) in cell_tel.iter().enumerate() {
            let leaf = |k: &str| match doc.at_path(&format!("cells[{c}].perf.{k}")) {
                Some(Json::Int(i)) => *i as u64,
                _ => u64::MAX,
            };
            let same = leaf("slots_stepped") == ct.slots_stepped
                && leaf("slots_fast_forwarded") == ct.slots_fast_forwarded
                && leaf("spans") == ct.spans
                && leaf("rng_engine_draws") == ct.rng_engine_draws
                && leaf("rng_node_draws") == ct.rng_node_draws
                && leaf("jam_spent_stepped") == ct.jam_spent_stepped
                && leaf("jam_spent_spans") == ct.jam_spent_spans;
            if !same && replay_bad[c].is_none() {
                replay_bad[c] = Some("replayed counters differ from the artifact".into());
            }
        }
    }
    for (c, bad) in replay_bad.iter().enumerate() {
        match bad {
            Some(why) => tally.error(&format!("replay/cell {c}"), 1, why),
            None => tally.attempted += 1,
        }
    }

    // Counting pass: the observer is mounted here only.
    let mut count = SlotCounter::default();
    for c in 0..cells {
        for t in 0..trials {
            let opts = TrialOptions {
                engine: EngineConfig::default(),
                observer: Some(&mut count),
            };
            run_trial_opts(&trial_spec(plan, c, t), opts);
        }
    }

    // Streaming aggregation of the replayed results.
    let sketch_buckets = rec.span("stats.aggregate", None, None, |_| {
        let mut all = (StreamingMoments::new(), QuantileSketch::new());
        let mut buckets = 0;
        for cell in &values {
            for k in 0..5 {
                let (mut mom, mut sk) = (StreamingMoments::new(), QuantileSketch::new());
                for v in cell {
                    mom.push(v[k]);
                    sk.push(v[k]);
                }
                buckets += sk.live_buckets();
                all.0.merge(&mom);
                all.1.merge(&sk);
            }
        }
        black_box(&all);
        buckets
    });

    // One-thread runs: a plain one for the scaling efficiency, and one that
    // reads the same phase clocks as the replay, so that its difference
    // from the replayed trials is the campaign engine's own time.
    let serial = |rec: &mut Recorder, name, telemetry| {
        let cfg = rcb_campaign::CampaignConfig {
            telemetry,
            ..crate::workloads::config(seed, trials, 1)
        };
        rec.span(name, None, None, |_| {
            let t = std::time::Instant::now();
            black_box(run_campaign(spec, &cfg));
            t.elapsed().as_secs_f64()
        })
    };
    let serial_s = serial(&mut rec, "campaign.serial", false);
    let serial_clocked_s = serial(&mut rec, "campaign.serial_clocked", true);

    // Checkpoint and store state left by the service pass.
    let facts = service.service.as_ref().expect("service pass facts");
    let (ckpt_files, ckpt_bytes) = dir_files(&facts.cold_state, |n| n.ends_with(".ckpt.json"));
    rec.span("checkpoint.load", None, None, |_| {
        for c in 0..cells {
            black_box(load_checkpoint(&checkpoint_path(&facts.cold_state, c)).ok());
        }
    });
    let entries = rec.span("store.list", None, None, |_| {
        Store::new(&facts.store).list()
    });
    let entries = entries.map_or(0, |e| e.len());
    let (_, store_bytes) = dir_files(&facts.store, |n| n.ends_with(".json"));

    // Shard fleet accounting.
    let fl = fleet.fleet.as_ref().expect("fleet pass facts");
    let (mut completed, mut stolen, mut simulated) = (0u64, 0u64, 0u64);
    for o in fl.outcomes.iter().flatten() {
        if let WorkerOutcome::Finished {
            cells_completed,
            cells_stolen,
            trials_simulated,
            ..
        } = o
        {
            completed += cells_completed;
            stolen += cells_stolen;
            simulated += trials_simulated;
        }
    }
    let planned = (cells as u64 * trials) as f64;

    let plain_s = rec.total_s("campaign.run");
    let cold_s = service.phase("cold");
    let trial_ms: Vec<f64> = rec
        .named("harness.trial")
        .map(|s| s.dur_s() * 1e3)
        .collect();
    let mut sorted = trial_ms.clone();
    let ns = 1e-9;
    let ph = tel.phases;
    let to_json_ms = median(
        rec.named("report.to_json")
            .map(|s| s.dur_s() * 1e3)
            .collect(),
    );
    let artifact = reference_text.unwrap_or_default();

    let metrics = vec![
        (
            "scenario.build_ms",
            rec.total_s("scenario.build") * 1e3,
            "ms",
        ),
        ("harness.trials", trial_ms.len() as f64, "count"),
        ("harness.trial_ms.p50", quantile(&mut sorted, 0.5), "ms"),
        ("harness.trial_ms.p99", quantile(&mut sorted, 0.99), "ms"),
        ("engine.setup_s", ph.setup as f64 * ns, "s"),
        ("engine.slot_loop_s", ph.slot_loop as f64 * ns, "s"),
        ("engine.fast_forward_s", ph.fast_forward as f64 * ns, "s"),
        ("engine.finalize_s", ph.finalize as f64 * ns, "s"),
        ("engine.slots_stepped", tel.slots_stepped as f64, "count"),
        (
            "engine.slots_fast_forwarded",
            tel.slots_fast_forwarded as f64,
            "count",
        ),
        ("engine.ff_skip_ratio", tel.ff_skip_ratio(), "ratio"),
        ("engine.spans", tel.spans as f64, "count"),
        (
            "engine.rng_draws_engine",
            tel.rng_engine_draws as f64,
            "count",
        ),
        ("engine.rng_draws_nodes", tel.rng_node_draws as f64, "count"),
        (
            "engine.ns_per_stepped_slot",
            ratio(ph.slot_loop as f64, tel.slots_stepped as f64),
            "ns",
        ),
        (
            "engine.ns_per_ff_slot",
            ratio(ph.fast_forward as f64, tel.slots_fast_forwarded as f64),
            "ns",
        ),
        (
            "protocol.actors_per_stepped_slot",
            ratio(count.actors as f64, count.slots as f64),
            "ratio",
        ),
        ("protocol.boundaries", count.boundaries as f64, "count"),
        (
            "adversary.jam_spent_stepped",
            tel.jam_spent_stepped as f64,
            "count",
        ),
        (
            "adversary.jam_spent_spans",
            tel.jam_spent_spans as f64,
            "count",
        ),
        (
            "topology.build_ms",
            rec.total_s("topology.build") * 1e3,
            "ms",
        ),
        (
            "deliver.listen_broadcast_products",
            count.products as f64,
            "count",
        ),
        (
            "deliver.ns_per_product",
            ratio(ph.slot_loop as f64, count.products as f64),
            "ns",
        ),
        (
            "stats.aggregate_ms",
            rec.total_s("stats.aggregate") * 1e3,
            "ms",
        ),
        ("stats.sketch_buckets", sketch_buckets as f64, "count"),
        ("report.to_json_ms", to_json_ms, "ms"),
        ("report.artifact_bytes", artifact.len() as f64, "bytes"),
        (
            "report.quantiles_outside_range",
            jsonin::parse(&artifact).map_or(0, |d| quantiles_outside_range(&d)) as f64,
            "count",
        ),
        ("campaign.serial_wall_s", serial_s, "s"),
        (
            "campaign.self_s",
            serial_clocked_s - rec.total_s("harness.trial"),
            "s",
        ),
        (
            "campaign.scaling_efficiency",
            ratio(serial_s, 2.0 * plain_s),
            "ratio",
        ),
        ("checkpoint.files", ckpt_files as f64, "count"),
        ("checkpoint.bytes", ckpt_bytes as f64, "bytes"),
        (
            "checkpoint.resumed_trials",
            facts.resumed_trials as f64,
            "count",
        ),
        ("checkpoint.write_s", cold_s - plain_s, "s"),
        (
            "checkpoint.load_ms",
            rec.total_s("checkpoint.load") * 1e3,
            "ms",
        ),
        ("store.entries", entries as f64, "count"),
        ("store.bytes", store_bytes as f64, "bytes"),
        ("store.hits", facts.warm_hits as f64, "count"),
        (
            "store.hit_ratio",
            ratio(facts.warm_hits as f64, cells as f64),
            "ratio",
        ),
        ("store.list_ms", rec.total_s("store.list") * 1e3, "ms"),
        ("shard.plan_ms", fleet.phase("plan") * 1e3, "ms"),
        (
            "shard.worker_s.max",
            fl.worker_s.iter().copied().fold(0.0, f64::max),
            "s",
        ),
        ("shard.worker_skew_s", fl.idle_tail_s.unwrap_or(0.0), "s"),
        ("shard.overhead_s", fleet.wall_s - cold_s, "s"),
        ("shard.cells_stolen", stolen as f64, "count"),
        (
            "shard.overcounted_cells",
            completed as f64 - cells as f64,
            "count",
        ),
        (
            "shard.duplicated_trials",
            simulated as f64 - planned,
            "count",
        ),
        (
            "shard.useful_ratio",
            ratio(planned, simulated as f64),
            "ratio",
        ),
        ("service.cold_s", cold_s, "s"),
        (
            "service.warm_s",
            service.phase("warm") / WARM_REPEATS as f64,
            "s",
        ),
        ("service.resume_s", service.phase("resume"), "s"),
        ("fleet.merge_s", fleet.phase("merge"), "s"),
        ("trace.overhead", overhead, "ratio"),
    ];
    (metrics, rec)
}
