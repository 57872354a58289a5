//! The load generator: one thread, one client connection at node 0.
//! It blocks in `collect` or until the next due time and never spins.
//! Each outcome is judged against ground truth as it arrives and then
//! dropped, so the process keeps no result items from earlier queries.

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use mqp_core::{QueryId, QueryOutcome};

use crate::live::Live;
use crate::measure::{self, Cpu};
use crate::worlds::{Discipline, Workload, META};

/// Length of one slice of a phase; per-slice rates are reported as
/// medians so a transient stall of the machine moves them less.
const SLICE: Duration = Duration::from_secs(1);

/// When a phase stops submitting.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    Count(u64),
    Until(Instant),
}

/// One completed query.
pub struct Done {
    pub idx: u64,
    /// Submit (closed loop) or due time (open loop) to outcome, on the
    /// benchmark's clock.
    pub latency_ms: f64,
    /// `Ok` for a correct answer; otherwise `"<kind>: <detail>"`.
    pub verdict: Result<(), String>,
}

/// One slice of a phase: outcomes `done[..end_done]` had arrived by
/// `at`, when the process had used `cpu`.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    pub end_done: usize,
    pub at: Instant,
    pub cpu: Cpu,
}

/// What one phase of load produced.
pub struct Phase {
    pub first: u64,
    pub submitted: u64,
    pub done: Vec<Done>,
    /// Indices still outstanding when the drain gave up.
    pub never: Vec<u64>,
    /// How late each submit was: past its due time (open loop), or past
    /// the completion that freed its slot (closed loop).
    pub late_ms: Vec<f64>,
    pub start: Instant,
    /// Last outcome (or drain give-up).
    pub end: Instant,
    /// Slice boundaries; the first is the phase start.
    pub slices: Vec<Slice>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A submitted query awaiting its outcome.
struct Pending {
    idx: u64,
    /// Due (open loop) or submit (closed loop) time.
    since: Instant,
    answers: Vec<Vec<String>>,
}

struct Run<'a> {
    wl: &'a Workload,
    inflight: HashMap<QueryId, Pending>,
    phase: Phase,
}

impl Run<'_> {
    fn submit(&mut self, live: &mut Live, since: Instant) {
        let idx = self.phase.first + self.phase.submitted;
        let q = self.wl.query(idx);
        if let Some(e) = &q.reg {
            live.register(META, e);
        }
        let qid = live.submit(&q.plan);
        self.inflight.insert(
            qid,
            Pending {
                idx,
                since,
                answers: q.answers,
            },
        );
        self.phase.submitted += 1;
    }

    /// Records an outcome; returns when it arrived if it was one of ours.
    fn complete(&mut self, o: QueryOutcome) -> Option<Instant> {
        let at = Instant::now();
        let p = self.inflight.remove(&o.qid)?;
        self.phase.end = at;
        self.phase.done.push(Done {
            idx: p.idx,
            latency_ms: ms(at - p.since),
            verdict: judge(self.wl, &p.answers, &o),
        });
        let slices = &mut self.phase.slices;
        if at >= slices.last().expect("first slice").at + SLICE {
            slices.push(Slice {
                end_done: self.phase.done.len(),
                at,
                cpu: measure::process_cpu(),
            });
        }
        Some(at)
    }
}

/// Runs queries `first..` against `live` until `limit`, then drains.
/// A drain that sees no outcome for `drain` gives up on the rest.
pub fn run_phase(
    live: &mut Live,
    wl: &Workload,
    first: u64,
    limit: Limit,
    drain: Duration,
) -> Phase {
    let start = Instant::now();
    let mut run = Run {
        wl,
        inflight: HashMap::new(),
        phase: Phase {
            first,
            submitted: 0,
            done: Vec::new(),
            never: Vec::new(),
            late_ms: Vec::new(),
            start,
            end: start,
            slices: vec![Slice {
                end_done: 0,
                at: start,
                cpu: measure::process_cpu(),
            }],
        },
    };
    let more = |submitted: u64, due: Instant| match limit {
        Limit::Count(n) => submitted < n,
        Limit::Until(t) => due < t,
    };
    match wl.discipline {
        Discipline::Open { rate_qps } => {
            let interval = Duration::from_secs_f64(1.0 / rate_qps);
            let mut due = start;
            loop {
                let now = Instant::now();
                let submitting = more(run.phase.submitted, due);
                if submitting && now >= due {
                    run.phase.late_ms.push(ms(now - due));
                    run.submit(live, due);
                    due += interval;
                    continue;
                }
                if !submitting && run.inflight.is_empty() {
                    break;
                }
                let wait = if submitting { due - now } else { drain };
                match live.next_outcome(wait) {
                    Some(o) => {
                        run.complete(o);
                    }
                    None if !submitting => break,
                    None => {}
                }
            }
        }
        Discipline::Closed { window } => {
            let mut freed_at: Option<Instant> = None;
            loop {
                while run.inflight.len() < window && more(run.phase.submitted, Instant::now()) {
                    let now = Instant::now();
                    if let Some(f) = freed_at.take() {
                        run.phase.late_ms.push(ms(now - f));
                    }
                    run.submit(live, now);
                }
                if run.inflight.is_empty() {
                    break;
                }
                let Some(o) = live.next_outcome(drain) else {
                    break;
                };
                if let Some(at) = run.complete(o) {
                    freed_at = Some(at);
                }
            }
        }
    }
    let mut phase = run.phase;
    if !run.inflight.is_empty() {
        phase.end = Instant::now();
    }
    phase.never = run.inflight.values().map(|p| p.idx).collect();
    phase.never.sort_unstable();
    phase
}

/// Outcome tally of a phase, checked against the workload's ground truth.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    /// Correct completions.
    pub ok: u64,
    /// Count by kind: failure kinds, `wrong-answer`, `not-audit-clean`,
    /// `never-completed`.
    pub by_kind: BTreeMap<String, u64>,
    /// One example per failure kind.
    pub examples: BTreeMap<String, String>,
    /// Names of queries whose outcome is a correctness mismatch.
    pub mismatches: Vec<String>,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.attempted - self.ok
    }

    fn bump(&mut self, kind: &str) {
        *self.by_kind.entry(kind.to_owned()).or_default() += 1;
    }
}

/// Whether `outcome` is one of the accepted `answers`; otherwise the
/// kind of failure, as `"<kind>: <detail>"`.
pub fn judge(wl: &Workload, answers: &[Vec<String>], outcome: &QueryOutcome) -> Result<(), String> {
    if let Some(reason) = &outcome.failure {
        return Err(format!("{}: {reason}", wl.failure_kind(reason)));
    }
    if outcome.audit_clean != Some(true) {
        return Err("not-audit-clean: completion failed the provenance audit".to_owned());
    }
    let mut keys: Vec<String> = outcome.items.iter().map(|e| wl.key(e)).collect();
    keys.sort();
    if answers.contains(&keys) {
        Ok(())
    } else {
        Err(format!(
            "wrong-answer: {} item(s), expected {}",
            keys.len(),
            answers.first().map_or(0, Vec::len)
        ))
    }
}

/// The failure kind of a verdict's error.
pub fn kind_of(why: &str) -> &str {
    why.split(':').next().unwrap_or("")
}

pub fn tally(wl: &Workload, phase: &Phase) -> Tally {
    let mut t = Tally {
        attempted: phase.submitted,
        ..Tally::default()
    };
    for d in &phase.done {
        let Err(why) = &d.verdict else {
            t.ok += 1;
            t.bump("ok");
            continue;
        };
        let kind = kind_of(why);
        t.bump(kind);
        let named = format!("{} -> {why}", wl.query(d.idx).label);
        t.examples
            .entry(kind.to_owned())
            .or_insert_with(|| named.clone());
        t.mismatches.push(named);
    }
    for &idx in &phase.never {
        t.bump("never-completed");
        t.mismatches
            .push(format!("{} -> never completed", wl.query(idx).label));
    }
    t
}
