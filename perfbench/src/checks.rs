//! Correctness checks and failure accounting.
//!
//! Every cell of every artifact the benchmark produces is one op. A cell
//! op fails when any of its checks fails:
//!
//! * its trial count equals the requested count;
//! * stepped plus fast-forwarded slots equal its covered slots;
//! * Eve's largest per-trial spend stays within the cell's budget (the
//!   adversary's plus every swapped-in adversary's), and the stepped and
//!   span-batched jam counters add up to the total spend;
//! * for generated cells, which are sized never to reach their slot cap,
//!   every trial completed;
//! * when a reference artifact is given, the cell (and the artifact
//!   header) is byte-identical to the reference's.
//!
//! A call that returned `Err` instead of an artifact fails all its cells.
//! Failures are counted, never fatal: the run always finishes and reports
//! `failed` out of `attempted`.

use rcb_campaign::{jsonin, CampaignSpec, Json};
use rcb_harness::ScheduleEventKind;

/// What a correct artifact of one workload looks like.
pub struct Expect<'a> {
    pub spec: &'a CampaignSpec,
    pub trials: u64,
    /// Every trial must complete (generated cells never hit their cap).
    pub complete: bool,
}

impl Expect<'_> {
    /// Most energy one trial of cell `c` may spend: its adversary's budget
    /// plus the fresh budget of every adversary its schedule swaps in.
    fn budget(&self, c: usize) -> u64 {
        let cell = &self.spec.cells[c];
        cell.adversary.budget()
            + cell
                .schedule
                .events
                .iter()
                .map(|(_, e)| match e {
                    ScheduleEventKind::SwapEve(a) => a.budget(),
                    _ => 0,
                })
                .sum::<u64>()
    }
}

#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// First few failure descriptions, for the log.
    pub notes: Vec<String>,
}

impl Tally {
    fn note(&mut self, what: String) {
        if self.notes.len() < 20 {
            self.notes.push(what);
        }
    }

    /// Count a call that returned `Err` (or no artifact): every cell it
    /// should have produced is a failed op.
    pub fn error(&mut self, label: &str, cells: usize, err: &str) {
        self.attempted += cells as u64;
        self.failed += cells as u64;
        self.note(format!("{label}: {err}"));
    }

    /// Check one artifact against `exp` and, when given, cell by cell
    /// against the parsed `reference` artifact for identity.
    pub fn artifact(&mut self, label: &str, text: &str, exp: &Expect, reference: Option<&Json>) {
        let cells = exp.spec.cells.len();
        let doc = match jsonin::parse(text) {
            Ok(doc) => doc,
            Err(e) => return self.error(label, cells, &format!("unparseable artifact: {e}")),
        };
        let header_ok = reference.is_none_or(|r| strip_cells(&doc) == strip_cells(r));
        for c in 0..cells {
            self.attempted += 1;
            let cell = doc.at_path(&format!("cells[{c}]"));
            let problem = match cell {
                None => Some("missing".to_string()),
                Some(cell) => cell_problem(cell, c, exp).or_else(|| {
                    let same = reference.is_none_or(|r| {
                        header_ok && r.at_path(&format!("cells[{c}]")) == Some(cell)
                    });
                    (!same).then(|| "differs from the reference artifact".to_string())
                }),
            };
            if let Some(p) = problem {
                self.failed += 1;
                self.note(format!("{label}: cell {c}: {p}"));
            }
        }
    }
}

fn strip_cells(doc: &Json) -> Json {
    match doc {
        Json::Object(fields) => Json::Object(
            fields
                .iter()
                .filter(|(k, _)| k != "cells")
                .cloned()
                .collect(),
        ),
        other => other.clone(),
    }
}

fn num(cell: &Json, path: &str) -> Result<f64, String> {
    match cell.at_path(path) {
        Some(Json::Int(i)) => Ok(*i as f64),
        Some(Json::Float(f)) => Ok(*f),
        _ => Err(format!("`{path}` missing or not a number")),
    }
}

fn cell_problem(cell: &Json, c: usize, exp: &Expect) -> Option<String> {
    let check = || -> Result<Option<String>, String> {
        let trials = num(cell, "trials")?;
        if trials != exp.trials as f64 {
            return Ok(Some(format!("{trials} trials, expected {}", exp.trials)));
        }
        let (stepped, ff, total) = (
            num(cell, "perf.slots_stepped")?,
            num(cell, "perf.slots_fast_forwarded")?,
            num(cell, "perf.slots_total")?,
        );
        if stepped + ff != total {
            return Ok(Some(format!(
                "stepped {stepped} + fast-forwarded {ff} != covered {total}"
            )));
        }
        let spent_max = num(cell, "metrics.eve_spent.max")?;
        if spent_max > exp.budget(c) as f64 {
            return Ok(Some(format!(
                "Eve spent {spent_max} in one trial, budget {}",
                exp.budget(c)
            )));
        }
        let spent_sum = num(cell, "metrics.eve_spent.mean")? * trials;
        let jammed = num(cell, "perf.jam_spent_stepped")? + num(cell, "perf.jam_spent_spans")?;
        if (jammed - spent_sum).abs() > 0.5 + 1e-9 * spent_sum {
            return Ok(Some(format!(
                "jam counters sum to {jammed}, Eve spent {spent_sum}"
            )));
        }
        if exp.complete && num(cell, "completed")? != trials {
            return Ok(Some("a trial did not complete".into()));
        }
        Ok(None)
    };
    check().unwrap_or_else(Some)
}

/// Quantile leaves (`p50`/`p90`/`p99`) that fall outside their metric's
/// exact `[min, max]` anywhere in the artifact. Reported as a count, not a
/// failure: the sketch's 1% guarantee allows it.
pub fn quantiles_outside_range(doc: &Json) -> u64 {
    match doc {
        Json::Array(items) => items.iter().map(quantiles_outside_range).sum(),
        Json::Object(fields) => {
            let get = |k: &str| {
                fields.iter().find_map(|(key, v)| match v {
                    Json::Int(i) if key == k => Some(*i as f64),
                    Json::Float(f) if key == k => Some(*f),
                    _ => None,
                })
            };
            let own = match (get("min"), get("max")) {
                (Some(lo), Some(hi)) => ["p50", "p90", "p99"]
                    .iter()
                    .filter_map(|q| get(q))
                    .filter(|&v| v < lo || v > hi)
                    .count() as u64,
                _ => 0,
            };
            own + fields
                .iter()
                .map(|(_, v)| quantiles_outside_range(v))
                .sum::<u64>()
        }
        _ => 0,
    }
}

/// Feed a tampered copy of a good artifact through the checks: one cell's
/// stepped-slot counter is bumped, which must fail exactly that cell.
/// Returns `true` when the checks caught it.
pub fn self_check(text: &str, exp: &Expect) -> bool {
    let needle = "\"slots_stepped\": ";
    let Some(at) = text.find(needle).map(|i| i + needle.len()) else {
        return false;
    };
    let digits = text[at..].bytes().take_while(u8::is_ascii_digit).count();
    let Ok(value) = text[at..at + digits].parse::<u64>() else {
        return false;
    };
    let tampered = format!("{}{}{}", &text[..at], value + 1, &text[at + digits..]);
    let mut clean = Tally::default();
    clean.artifact("self-check original", text, exp, None);
    let mut bad = Tally::default();
    bad.artifact("self-check tampered", &tampered, exp, None);
    clean.failed == 0 && bad.failed == 1
}
