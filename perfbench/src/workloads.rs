//! The four workloads: how each builds its campaign and what one timed
//! pass of it does.
//!
//! Every pass calls the library's public API the way `rcb run` and
//! `rcb shard` do, at most two threads doing trial work, and serializes
//! each artifact with `CampaignReport::to_json` as `rcb run --out` would.
//! Calls are wrapped in recorder spans; with a disabled recorder (the
//! untraced run) the spans cost one branch each.

use crate::spans::Recorder;
use rcb_campaign::{
    find, jsonin, parse_spec, run_campaign, run_campaign_service, shard::lease_path, shard_merge,
    shard_work, write_plan, CampaignConfig, CampaignSpec, Json, PlanOptions, ServiceConfig,
    ServiceRun, WorkerOptions, WorkerOutcome,
};
use rcb_sim::SplitMix64;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Threads doing trial work in every pass.
pub const THREADS: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SingleHop,
    MultiHop,
    Service,
    Fleet,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SingleHop,
        Workload::MultiHop,
        Workload::Service,
        Workload::Fleet,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SingleHop => "single-hop",
            Workload::MultiHop => "multi-hop",
            Workload::Service => "service",
            Workload::Fleet => "fleet",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The kind of pass this workload times.
    pub fn pass_kind(self) -> PassKind {
        match self {
            Workload::SingleHop | Workload::MultiHop => PassKind::Campaign,
            Workload::Service => PassKind::Service,
            Workload::Fleet => PassKind::Fleet,
        }
    }
}

/// What one pass does: a plain campaign run, the service cycle, or a
/// shard fleet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PassKind {
    Campaign,
    Service,
    Fleet,
}

impl PassKind {
    pub const ALL: [PassKind; 3] = [PassKind::Campaign, PassKind::Service, PassKind::Fleet];

    /// Run one pass of this kind with its state under `dir`.
    pub fn run(
        self,
        spec: &CampaignSpec,
        seed: u64,
        trials: u64,
        dir: &Path,
        rec: &mut Recorder,
    ) -> Pass {
        match self {
            PassKind::Campaign => campaign_pass(spec, seed, trials, rec),
            PassKind::Service => service_pass(spec, seed, trials, dir, rec),
            PassKind::Fleet => fleet_pass(spec, seed, trials, dir, rec),
        }
    }
}

/// Sizes of one workload run. A timed section is several identical passes
/// (same seed, fresh state directories) whose median wall is reported, so
/// a transient stall of the machine moves one pass and not the result.
/// Pass counts scale with the `--seconds` budget; at 10 s each timed
/// section takes about that long on a 2-core x86-64 container. The traced
/// run times one pass of each kind.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub trials: u64,
    pub passes: usize,
    /// Trials per cell of the untimed warm-up pass inside set-up.
    pub warmup_trials: u64,
}

/// Cells of the generated campaign behind `service` and `fleet`: each of
/// the 96 grid configurations twice.
pub const GENERATED_CELLS: usize = 192;
/// Trials per generated cell.
const GENERATED_TRIALS: u64 = 64;
/// Checkpoint cadence of the service and fleet state directories: cell
/// completion only. Every checkpoint and store write is fsynced; on a
/// disk (rather than tmpfs) a finer cadence makes these workloads time
/// the disk's fsync latency, which drifts with the host's I/O load.
pub const CHECKPOINT_EVERY: u64 = GENERATED_TRIALS;
/// Warm (store-served) repeats per service pass: one warm read of the
/// generated campaign takes ~20 ms, too short to time steadily alone.
pub const WARM_REPEATS: usize = 20;

impl Workload {
    pub fn sizes(self, seconds: u64) -> Sizes {
        let passes = |per_10s: f64| ((per_10s * seconds as f64 / 10.0).round() as usize).max(1);
        let (trials, passes, warmup_trials) = match self {
            Workload::SingleHop => (4, passes(6.0), 2),
            Workload::MultiHop => (48, passes(5.0), 16),
            Workload::Service => (GENERATED_TRIALS, passes(5.0), GENERATED_TRIALS),
            Workload::Fleet => (GENERATED_TRIALS, passes(6.0), GENERATED_TRIALS),
        };
        Sizes {
            trials,
            passes,
            warmup_trials,
        }
    }

    /// Build the workload's campaign from the seed. Catalog workloads look
    /// their scenarios up by name; the generated campaign goes through the
    /// spec-file parser. Returns the spec and whether every trial must
    /// complete.
    pub fn build_spec(self, seed: u64) -> Result<(CampaignSpec, bool), String> {
        let catalog = |names: &[&str], keep: fn(&rcb_campaign::CellSpec) -> bool| {
            let mut cells = Vec::new();
            for name in names {
                let scenario = find(name).ok_or_else(|| format!("scenario `{name}` is gone"))?;
                cells.extend((scenario.build)().cells.into_iter().filter(keep));
            }
            Ok::<_, String>(CampaignSpec {
                name: format!("perfbench-{}", self.name()),
                description: format!("cells of {}", names.join(", ")),
                cells,
            })
        };
        Ok(match self {
            Workload::SingleHop => (
                catalog(
                    &[
                        "core-repro",
                        "budget-sweep",
                        "scaling-ladder",
                        "adaptive-grid",
                    ],
                    |_| true,
                )?,
                false,
            ),
            Workload::MultiHop => {
                let mut spec = catalog(&["multi-hop", "multi-message"], |_| true)?;
                let nemesis = catalog(&["nemesis"], |c| !c.topology.is_complete())?;
                spec.description
                    .push_str(", and the topology cells of nemesis");
                spec.cells.extend(nemesis.cells);
                (spec, false)
            }
            Workload::Service | Workload::Fleet => {
                let text = generated_spec(seed, GENERATED_CELLS);
                let spec = parse_spec(&text, "generated.toml").map_err(|e| format!("{e:?}"))?;
                (spec, true)
            }
        })
    }
}

/// Spec-file text of the generated campaign: small cells whose trials each
/// finish in well under a millisecond and never reach their slot cap.
///
/// Every cell configuration of a fixed grid appears equally often, so the
/// campaign's total work does not depend on the seed; the seed shuffles
/// the cell order and, through the campaign seed, drives every trial.
pub fn generated_spec(seed: u64, cells: usize) -> String {
    let mut protocols = Vec::new();
    for n in [8, 16, 32] {
        for act_prob in ["0.25", "0.5", "1.0"] {
            protocols.push(format!(
                "protocol = \"naive\"\nn = {n}\nact_prob = {act_prob}\n"
            ));
        }
        protocols.push(format!("protocol = \"decay\"\nn = {n}\n"));
    }
    for n in [8, 16] {
        for k in 1..=3 {
            for channels in [2, 4] {
                protocols.push(format!(
                    "protocol = \"multi-message\"\nn = {n}\nk = {k}\nchannels = {channels}\np = 0.25\n"
                ));
            }
        }
    }
    let adversaries = [
        "adversary = \"silent\"\n",
        "adversary = \"silent\"\n",
        "adversary = \"uniform\"\nbudget = 64\nfrac = 0.5\n",
        "adversary = \"uniform\"\nbudget = 256\nfrac = 0.5\n",
    ];
    let grid: Vec<String> = protocols
        .iter()
        .flat_map(|p| adversaries.iter().map(move |a| format!("{p}{a}")))
        .collect();
    let mut order: Vec<usize> = (0..cells).map(|i| i % grid.len()).collect();
    let mut rng = SplitMix64::new(seed);
    for i in (1..order.len()).rev() {
        order.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    let mut text = format!(
        "name = \"perfbench-generated\"\ndescription = \"{cells} small cells, seed {seed}\"\n"
    );
    for i in order {
        text.push_str(&format!("\n[[cell]]\n{}max_slots = 1000000\n", grid[i]));
    }
    text
}

pub fn config(seed: u64, trials: u64, threads: usize) -> CampaignConfig {
    CampaignConfig {
        seed,
        trials_per_cell: trials,
        threads,
        ..CampaignConfig::default()
    }
}

/// An artifact a pass produced (or the error it got instead).
pub struct Artifact {
    pub label: String,
    pub json: Result<String, String>,
    /// Covered slots summed over the artifact's cells.
    pub slots: u64,
    pub trials: u64,
}

impl Artifact {
    fn new(
        label: impl Into<String>,
        report: Result<rcb_campaign::CampaignReport, String>,
        rec: &mut Recorder,
    ) -> Self {
        let label = label.into();
        match report {
            Ok(report) => Artifact {
                slots: report.cells.iter().map(|c| c.perf.slots_total).sum(),
                trials: report.total_trials,
                json: Ok(rec.span("report.to_json", None, None, |_| report.to_json())),
                label,
            },
            Err(e) => Artifact {
                label,
                json: Err(e),
                slots: 0,
                trials: 0,
            },
        }
    }
}

/// One timed pass: its wall time, the artifacts it delivered, and the
/// durations of its named phases.
pub struct Pass {
    pub wall_s: f64,
    pub artifacts: Vec<Artifact>,
    pub phases: Vec<(&'static str, f64)>,
    pub service: Option<ServiceFacts>,
    pub fleet: Option<FleetFacts>,
}

impl Pass {
    pub fn phase(&self, name: &str) -> f64 {
        self.phases
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, s)| s)
            .sum()
    }
}

#[derive(Default)]
pub struct ServiceFacts {
    pub resumed_trials: u64,
    /// Store hits of one warm repeat.
    pub warm_hits: u64,
    pub cold_state: PathBuf,
    pub store: PathBuf,
}

pub struct FleetFacts {
    pub outcomes: Vec<Result<WorkerOutcome, String>>,
    pub worker_s: Vec<f64>,
    /// Time the faster worker spent with no lease before the fleet
    /// finished, sampled from the lease files (traced run only).
    pub idle_tail_s: Option<f64>,
}

fn timed<R>(phases: &mut Vec<(&'static str, f64)>, name: &'static str, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let out = f();
    phases.push((name, t.elapsed().as_secs_f64()));
    out
}

/// A plain `run_campaign` at two threads (the `rcb run` path).
fn campaign_pass(spec: &CampaignSpec, seed: u64, trials: u64, rec: &mut Recorder) -> Pass {
    let t = Instant::now();
    let report = rec.span("campaign.run", None, None, |_| {
        run_campaign(spec, &config(seed, trials, THREADS))
    });
    let artifact = Artifact::new("run", Ok(report), rec);
    Pass {
        wall_s: t.elapsed().as_secs_f64(),
        artifacts: vec![artifact],
        phases: Vec::new(),
        service: None,
        fleet: None,
    }
}

fn complete(
    run: Result<ServiceRun, rcb_campaign::ServiceError>,
) -> (Result<rcb_campaign::CampaignReport, String>, u64, u64) {
    match run {
        Ok(ServiceRun::Complete {
            report,
            store_hits,
            resumed_trials,
            ..
        }) => (Ok(report), store_hits, resumed_trials),
        Ok(ServiceRun::Killed { .. }) => (Err("killed without a kill hook".into()), 0, 0),
        Err(e) => (Err(e.to_string()), 0, 0),
    }
}

/// The campaign service cycle over fresh directories under `dir`: a cold
/// run that checkpoints and fills a store, warm repeats served from that
/// store, and a run killed at a fixed trial count and then resumed.
fn service_pass(
    spec: &CampaignSpec,
    seed: u64,
    trials: u64,
    dir: &Path,
    rec: &mut Recorder,
) -> Pass {
    let cfg = config(seed, trials, THREADS);
    let (cold_state, store, kill_state) = (dir.join("cold"), dir.join("store"), dir.join("kill"));
    let total = spec.cells.len() as u64 * trials;
    let mut phases = Vec::new();
    let mut artifacts = Vec::new();
    let mut facts = ServiceFacts {
        cold_state: cold_state.clone(),
        store: store.clone(),
        ..Default::default()
    };
    let t = Instant::now();

    let svc = ServiceConfig {
        state_dir: Some(cold_state),
        checkpoint_every: CHECKPOINT_EVERY,
        store_dir: Some(store.clone()),
        ..ServiceConfig::default()
    };
    let (report, _, _) = timed(&mut phases, "cold", || {
        rec.span("service.cold", None, None, |_| {
            complete(run_campaign_service(spec, &cfg, &svc))
        })
    });
    artifacts.push(Artifact::new("cold", report, rec));

    let warm = ServiceConfig {
        store_dir: Some(store),
        ..ServiceConfig::default()
    };
    for i in 0..WARM_REPEATS {
        let (report, hits, _) = timed(&mut phases, "warm", || {
            rec.span("service.warm", None, None, |_| {
                complete(run_campaign_service(spec, &cfg, &warm))
            })
        });
        facts.warm_hits = hits;
        artifacts.push(Artifact::new(format!("warm#{i}"), report, rec));
    }

    let kill = ServiceConfig {
        state_dir: Some(kill_state),
        checkpoint_every: CHECKPOINT_EVERY,
        kill_after_trials: Some(total / 2 + 3),
        ..ServiceConfig::default()
    };
    let resume = ServiceConfig {
        resume: true,
        kill_after_trials: None,
        ..kill.clone()
    };
    let killed = timed(&mut phases, "resume", || {
        rec.span("service.kill", None, None, |_| {
            run_campaign_service(spec, &cfg, &kill)
        })
    });
    match killed {
        Ok(ServiceRun::Killed { .. }) => {
            let (report, _, resumed) = timed(&mut phases, "resume", || {
                rec.span("service.resume", None, None, |_| {
                    complete(run_campaign_service(spec, &cfg, &resume))
                })
            });
            facts.resumed_trials = resumed;
            artifacts.push(Artifact::new("resume", report, rec));
        }
        Ok(ServiceRun::Complete { .. }) => artifacts.push(Artifact::new(
            "resume",
            Err("the kill hook never fired".into()),
            rec,
        )),
        Err(e) => artifacts.push(Artifact::new("resume", Err(e.to_string()), rec)),
    }

    Pass {
        wall_s: t.elapsed().as_secs_f64(),
        artifacts,
        phases,
        service: Some(facts),
        fleet: None,
    }
}

/// A shard fleet over a fresh state directory: plan, two workers on two
/// threads of this process (one trial thread each), merge.
fn fleet_pass(spec: &CampaignSpec, seed: u64, trials: u64, dir: &Path, rec: &mut Recorder) -> Pass {
    let state = dir.join("fleet");
    let mut phases = Vec::new();
    let t = Instant::now();
    let opts = PlanOptions {
        checkpoint_every: CHECKPOINT_EVERY,
        store_dir: Some(dir.join("fleet-store")),
        ..PlanOptions::default()
    };
    let plan = timed(&mut phases, "plan", || {
        rec.span("shard.plan", None, None, |_| {
            write_plan(spec, &config(seed, trials, 1), &state, &opts)
        })
    });
    let plan = match plan {
        Ok(plan) => plan,
        Err(e) => {
            return Pass {
                wall_s: t.elapsed().as_secs_f64(),
                artifacts: vec![Artifact::new("plan", Err(e.to_string()), rec)],
                phases,
                service: None,
                fleet: Some(FleetFacts {
                    outcomes: Vec::new(),
                    worker_s: Vec::new(),
                    idle_tail_s: None,
                }),
            }
        }
    };

    let traced = rec.is_on();
    let origin = rec.now();
    let started = Instant::now();
    let mut idle_tail_s = None;
    let results: Vec<(Result<WorkerOutcome, String>, f64)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|w| {
                let state = &state;
                s.spawn(move || {
                    let opts = WorkerOptions {
                        worker_id: format!("w{w}"),
                        threads: 1,
                        ..WorkerOptions::default()
                    };
                    let t = Instant::now();
                    let out = shard_work(spec, state, &opts).map_err(|e| e.to_string());
                    (out, t.elapsed().as_secs_f64())
                })
            })
            .collect();
        if traced {
            idle_tail_s = Some(watch_idle_tail(&state, plan.cells(), &workers, started));
        }
        workers
            .into_iter()
            .map(|h| h.join().expect("shard worker thread panicked"))
            .collect()
    });
    phases.push(("work", started.elapsed().as_secs_f64()));
    for (i, (_, secs)) in results.iter().enumerate() {
        let start = origin;
        let end = origin + (secs * 1e9) as u64;
        rec.record("shard.work", start, end, Some(i as u64));
    }

    let merged = timed(&mut phases, "merge", || {
        rec.span("shard.merge", None, None, |_| {
            shard_merge(spec, &state)
                .map(|m| m.report)
                .map_err(|e| e.to_string())
        })
    });
    let mut artifacts = vec![Artifact::new("merge", merged, rec)];
    // A worker's error counts even when the other worker finished the plan.
    for (w, (out, _)) in results.iter().enumerate() {
        if let Err(e) = out {
            artifacts.push(Artifact::new(format!("worker w{w}"), Err(e.clone()), rec));
        }
    }
    let (outcomes, worker_s) = results.into_iter().unzip();
    Pass {
        wall_s: t.elapsed().as_secs_f64(),
        artifacts,
        phases,
        service: None,
        fleet: Some(FleetFacts {
            outcomes,
            worker_s,
            idle_tail_s,
        }),
    }
}

/// Watch the lease files until both workers return, and report how long
/// before the end the faster worker last held a lease: from then on it
/// could only poll. Only the few live lease files are read per sample (a
/// full `shard_status` scan parses every checkpoint and would compete
/// with the workers for the CPU).
fn watch_idle_tail<T>(
    state: &Path,
    cells: usize,
    workers: &[std::thread::ScopedJoinHandle<'_, T>],
    started: Instant,
) -> f64 {
    let lease_names: std::collections::HashSet<_> = (0..cells)
        .filter_map(|c| lease_path(state, c).file_name().map(|n| n.to_owned()))
        .collect();
    let mut last_owned = [0.0f64; 2];
    while !workers.iter().all(|h| h.is_finished()) {
        let now = started.elapsed().as_secs_f64();
        for entry in std::fs::read_dir(state).into_iter().flatten().flatten() {
            if !lease_names.contains(&entry.file_name()) {
                continue;
            }
            let owner = std::fs::read_to_string(entry.path())
                .ok()
                .and_then(|text| jsonin::parse(&text).ok())
                .and_then(|lease| match lease.at_path("owner") {
                    Some(Json::Str(o)) => Some(o.clone()),
                    _ => None,
                });
            match owner.as_deref() {
                Some("w0") => last_owned[0] = now,
                Some("w1") => last_owned[1] = now,
                _ => {}
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let end = started.elapsed().as_secs_f64();
    end - last_owned[0].min(last_owned[1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_campaign_is_one_grid_in_a_seeded_order() {
        let cells = |seed| {
            let text = generated_spec(seed, GENERATED_CELLS);
            let mut cells: Vec<String> = text
                .split("\n[[cell]]\n")
                .skip(1)
                .map(String::from)
                .collect();
            cells.sort();
            (text, cells)
        };
        let ((a, grid_a), (b, grid_b)) = (cells(1), cells(2));
        assert_ne!(a, b, "the seed orders the cells");
        assert_eq!(
            grid_a, grid_b,
            "every seed runs the same cell configurations"
        );
        let spec = parse_spec(&a, "generated.toml").expect("the generated spec parses");
        assert_eq!(spec.cells.len(), GENERATED_CELLS);
    }
}
