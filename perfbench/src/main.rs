//! Campaign benchmark for the rcb stack.
//!
//! ```text
//! perfbench --workload <single-hop|multi-hop|service|fleet> --seed N
//!           --seconds S --trace <0|1> --state-dir DIR
//! ```
//!
//! With `--trace 0` it sets up the workload five times (spec build,
//! state-directory prep and an untimed warm-up pass; the median is
//! `setup_s`), runs the timed passes with tracing off, checks every
//! artifact, and prints the end-to-end metrics. With `--trace 1` it runs
//! the traced pipeline of `layers` and prints the per-layer metrics. The
//! last line of standard output is one JSON object; `perfbench/run.py`
//! adds the process's peak RSS and prints the result line. See
//! `perfbench/README.md`.

mod checks;
mod layers;
mod spans;
mod workloads;

use checks::{Expect, Tally};
use rcb_campaign::{code_version, jsonin, run_campaign, CampaignSpec, Json};
use spans::Recorder;
use std::path::{Path, PathBuf};
use std::time::Instant;
use workloads::{Pass, Sizes, Workload};

/// Everything one run of a workload needs.
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    pub spec: CampaignSpec,
    pub trials: u64,
    /// Every trial must complete (see [`checks::Expect::complete`]).
    pub complete: bool,
    /// This run's private state directory.
    pub dir: PathBuf,
}

impl Plan {
    /// Pass `p` of the workload, with its state under `dir/pass-p`. Every
    /// pass runs the same campaign with the same seed, so every pass's
    /// artifacts must be byte-identical.
    pub fn pass(&self, rec: &mut Recorder, p: usize) -> Pass {
        let dir = self.dir.join(format!("pass-{p}"));
        let kind = self.workload.pass_kind();
        kind.run(&self.spec, self.seed, self.trials, &dir, rec)
    }

    fn expect(&self) -> Expect<'_> {
        Expect {
            spec: &self.spec,
            trials: self.trials,
            complete: self.complete,
        }
    }
}

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    state_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut state_dir) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag}: missing value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    format!("--workload: unknown `{value}` (single-hop, multi-hop, service, fleet)")
                })?)
            }
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace: must be 0 or 1".into()),
                })
            }
            "--state-dir" => state_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        state_dir: state_dir.ok_or("--state-dir is required")?,
    })
}

fn fresh_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir)
        .unwrap_or_else(|e| panic!("cannot create state directory {}: {e}", dir.display()));
}

/// Build the plan: spec, fresh state directory, and the untimed warm-up
/// pass. Returns the plan and how long set-up took.
fn setup(args: &Args, sizes: Sizes) -> Result<(Plan, f64), String> {
    let t = Instant::now();
    let (spec, complete) = args.workload.build_spec(args.seed)?;
    let dir = args.state_dir.join(args.workload.name());
    fresh_dir(&dir);
    std::hint::black_box(run_campaign(
        &spec,
        &workloads::config(args.seed, sizes.warmup_trials, workloads::THREADS),
    ));
    let plan = Plan {
        workload: args.workload,
        seed: args.seed,
        spec,
        trials: sizes.trials,
        complete,
        dir,
    };
    Ok((plan, t.elapsed().as_secs_f64()))
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Filesystem type of the mount holding `dir`, from `/proc/self/mounts`.
fn fs_type(dir: &Path) -> String {
    let dir = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, kind) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point)
                .then(|| (point.len(), kind.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, kind)| kind)
}

/// The timed section: every pass untraced, then every artifact checked.
/// Returns the end-to-end metrics, one good artifact for the self-check,
/// and the seconds of each pass and of its named phases (for the log).
fn timed_run(
    plan: &Plan,
    passes: usize,
    tally: &mut Tally,
) -> (
    Vec<layers::Metric>,
    Option<String>,
    Vec<(&'static str, Json)>,
) {
    let mut walls = Vec::new();
    let mut per_pass = (0u64, 0u64);
    // Fleet artifacts must equal a single-process run of the same campaign,
    // made here, outside the timed section. Every other workload's first
    // artifact (pass 0; for service, its cold run) is the reference all
    // later ones must equal.
    let mut reference = (plan.workload == Workload::Fleet).then(|| {
        let cfg = workloads::config(plan.seed, plan.trials, workloads::THREADS);
        jsonin::parse(&run_campaign(&plan.spec, &cfg).to_json()).expect("artifact parses")
    });
    let mut sample = None;
    let mut phase_walls: Vec<(&'static str, Vec<f64>)> = Vec::new();
    for p in 0..passes {
        let pass = plan.pass(&mut Recorder::new(false), p);
        walls.push(pass.wall_s);
        let mut names: Vec<&'static str> = pass.phases.iter().map(|(n, _)| *n).collect();
        names.dedup();
        for name in names {
            let v = pass.phase(name);
            match phase_walls.iter_mut().find(|(n, _)| *n == name) {
                Some((_, vs)) => vs.push(v),
                None => phase_walls.push((name, vec![v])),
            }
        }
        per_pass = pass
            .artifacts
            .iter()
            .fold((0, 0), |(t, s), a| (t + a.trials, s + a.slots));
        for a in pass.artifacts {
            let label = format!("pass {p}/{}", a.label);
            let text = match a.json {
                Ok(text) => text,
                Err(e) => {
                    tally.error(&label, plan.spec.cells.len(), &e);
                    continue;
                }
            };
            tally.artifact(&label, &text, &plan.expect(), reference.as_ref());
            if reference.is_none() {
                reference = jsonin::parse(&text).ok();
            }
            sample.get_or_insert(text);
        }
        let _ = std::fs::remove_dir_all(plan.dir.join(format!("pass-{p}")));
    }
    phase_walls.push(("pass", walls.clone()));
    let wall = median(walls);
    let metrics = vec![
        ("wall_s", wall, "s"),
        ("trials_per_s", per_pass.0 as f64 / wall, "trials/s"),
        ("slots_per_s", per_pass.1 as f64 / wall, "slots/s"),
    ];
    let phases = phase_walls
        .into_iter()
        .map(|(name, v)| (name, Json::arr(v.into_iter().map(Json::from).collect())))
        .collect();
    (metrics, sample, phases)
}

fn run(args: &Args) -> Result<Json, String> {
    let sizes = args.workload.sizes(args.seconds);
    let mut tally = Tally::default();
    let mut metrics: Vec<layers::Metric> = Vec::new();
    let mut env = vec![
        ("workload", Json::from(args.workload.name())),
        ("seed", args.seed.into()),
        ("seconds", args.seconds.into()),
        ("trace", args.trace.into()),
    ];

    let plan;
    let self_check;
    if args.trace {
        plan = setup(args, sizes)?.0;
        let (layer_metrics, rec) = layers::traced_run(&plan, &mut tally);
        metrics = layer_metrics;
        let trace_path = args
            .state_dir
            .join(format!("trace-{}.jsonl", args.workload.name()));
        rec.write_jsonl(&trace_path)
            .map_err(|e| format!("{}: {e}", trace_path.display()))?;
        env.push(("trace_file", trace_path.display().to_string().into()));
        self_check = None;
    } else {
        let mut setups = Vec::new();
        let mut last = None;
        for _ in 0..SETUPS {
            let (p, secs) = setup(args, sizes)?;
            setups.push(secs);
            last = Some(p);
        }
        plan = last.expect("set-up ran");
        metrics.push(("setup_s", median(setups), "s"));
        let (timed, sample, phases) = timed_run(&plan, sizes.passes, &mut tally);
        metrics.extend(timed);
        env.push(("pass_phase_s", Json::obj(phases)));
        self_check = sample.map(|s| checks::self_check(&s, &plan.expect()));
    }
    let _ = std::fs::remove_dir_all(&plan.dir);

    env.extend([
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .into(),
        ),
        ("state_fs", fs_type(&args.state_dir).into()),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
        ("code_version", code_version().into()),
        ("cells", plan.spec.cells.len().into()),
        ("threads", workloads::THREADS.into()),
    ]);
    let all_sizes = Workload::ALL.map(|w| {
        let s = w.sizes(args.seconds);
        let counts = Json::obj(vec![
            ("trials_per_cell", s.trials.into()),
            ("passes", s.passes.into()),
            ("warmup_trials_per_cell", s.warmup_trials.into()),
        ]);
        (w.name(), counts)
    });
    env.extend([
        ("sizes", Json::obj(all_sizes.to_vec())),
        ("checkpoint_every", workloads::CHECKPOINT_EVERY.into()),
        ("warm_repeats", workloads::WARM_REPEATS.into()),
    ]);
    // The tampered-artifact self-check runs on every untraced run. It fails
    // when the checks miss the tampered cell, or when the untampered
    // artifact already fails them.
    let checks_ok = self_check.unwrap_or(true);
    if !checks_ok {
        tally
            .notes
            .push("self-check: the checks did not fail exactly the tampered cell".into());
    }
    let failed_share = tally.failed as f64 / tally.attempted.max(1) as f64;
    Ok(Json::obj(vec![
        ("correct", (checks_ok && tally.failed == 0).into()),
        ("attempted", tally.attempted.into()),
        ("failed", tally.failed.into()),
        (
            "metrics",
            Json::Object(
                metrics
                    .into_iter()
                    .map(|(name, value, unit)| {
                        let m = Json::obj(vec![("value", value.into()), ("unit", unit.into())]);
                        (name.to_string(), m)
                    })
                    .collect(),
            ),
        ),
        ("failed_share", failed_share.into()),
        ("self_check", self_check.map_or(Json::Null, Json::from)),
        (
            "notes",
            Json::arr(tally.notes.into_iter().map(Json::from).collect()),
        ),
        ("env", Json::obj(env)),
    ]))
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    match run(&args) {
        Ok(out) => println!("{}", out.to_compact()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
