//! The batch pipeline: every `run` and `verify` — one id or the whole
//! registry, in-process or sharded across `treu worker` subprocesses —
//! goes through [`Batch::execute`].
//!
//! A [`Batch`] says what to run (ids, a params hook, a seed, a [`Mode`])
//! and how to supervise it (an optional [`RunCache`], a
//! [`SupervisePolicy`], an optional [`FaultPlan`], tracing). A
//! [`Backend`] has one job: turn the batch's [`TaskSpec`]s into
//! index-ordered [`TaskOutput`]s — [`Backend::InProcess`] over the
//! executor's self-scheduling workers, [`Backend::Sharded`] over a
//! [`WorkerPool`]. Both call the same `execute_task`, so topology can
//! change wall time but never results or hashed trace content.
//! Everything else is written once, here: the cache rule, replica
//! fan-out, the cross-check, the trace merge and report assembly.
//!
//! **The cache rule.** Verify looks every id up on the coordinator
//! before dispatch; only misses become tasks (two replicas each), and
//! only a cross-checked record is stored. Run tasks consult and populate
//! the cache themselves (workers open the same directory), but only when
//! no [`FaultPlan`] is armed: a run under injected faults neither reads
//! nor writes the cache, so a corrupted trail can never be stored as the
//! experiment's record.

use std::io;
use std::time::Instant;

use crate::cache::{Lookup, RunCache};
use crate::exec::{
    emit, run_supervised_traced, DenyPolicy, ExecReport, Executor, FailureKind, RunFailure,
    RunOutcome, SupervisePolicy, VerifyOutcome, VerifyReport,
};
use crate::experiment::{Params, RunRecord};
use crate::fault::FaultPlan;
use crate::registry::ExperimentRegistry;
use crate::svc::{SvcConfig, SvcStats, TaskOutput, TaskSpec, WorkerPool};
use crate::trace::{BatchTrace, CacheResult, RunTrace, TraceEvent, WorkerTiming};
use treu_math::parallel::SchedStats;

/// What a batch does with each id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// One supervised run per id.
    Run,
    /// Two supervised replicas per id, cross-checked bitwise.
    Verify,
}

impl Mode {
    /// The step name: trace kind and attestation step.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Run => "run",
            Mode::Verify => "verify",
        }
    }

    fn replicas(self) -> usize {
        match self {
            Mode::Run => 1,
            Mode::Verify => 2,
        }
    }
}

/// Where a batch's tasks execute.
#[derive(Debug, Clone)]
pub enum Backend {
    /// Threads of this process, self-scheduling over the task list.
    InProcess {
        /// Worker threads.
        jobs: usize,
    },
    /// Supervised `treu worker` subprocesses (DESIGN §15).
    Sharded(SvcConfig),
}

impl Backend {
    /// Total compute lanes: threads, or workers × jobs per worker.
    fn jobs(&self) -> usize {
        match self {
            Backend::InProcess { jobs } => (*jobs).max(1),
            Backend::Sharded(cfg) => cfg.workers * cfg.jobs,
        }
    }

    /// Executes `tasks` (whose `index` is their position) and returns
    /// the outputs in index order, plus in-process scheduler stats or the
    /// pool's supervision stats.
    #[allow(clippy::too_many_arguments)]
    fn run_tasks(
        &self,
        reg: &ExperimentRegistry,
        tasks: Vec<TaskSpec>,
        plan: Option<&FaultPlan>,
        cache: Option<&RunCache>,
        tracing: bool,
        seed: u64,
        epoch: Instant,
    ) -> io::Result<(Vec<TaskOutput>, SchedStats, Option<SvcStats>)> {
        match self {
            Backend::InProcess { jobs } => {
                let (outputs, sched) = Executor::new(*jobs).map_indexed_stats(tasks.len(), |i| {
                    execute_task(reg, &tasks[i], plan, cache, tracing, epoch)
                });
                Ok((outputs, sched, None))
            }
            Backend::Sharded(cfg) => {
                let mut cfg = cfg.clone().with_tracing(tracing);
                // Workers open the cache only when their tasks use it; their
                // hit/miss counts come back as sidecars merged at join.
                let shared = cache.filter(|_| tasks.iter().any(|t| t.cache));
                if let Some(c) = shared {
                    cfg.cache_dir = Some(c.dir().to_path_buf());
                }
                let (outputs, stats) =
                    WorkerPool::new(cfg).run_tasks(reg, tasks, plan, cache, seed)?;
                if let Some(c) = shared {
                    let _ = c.merge_stats_sidecars();
                }
                let sched = SchedStats {
                    workers: 0,
                    chunk: 0,
                    busy_seconds: Vec::new(),
                    chunks_claimed: Vec::new(),
                    items: Vec::new(),
                };
                Ok((outputs, sched, Some(stats)))
            }
        }
    }
}

/// A parameter hook: `(id, registered defaults) -> params to run at`.
type ParamsHook<'a> = Box<dyn Fn(&str, Params) -> Params + 'a>;

/// One registry batch, described once and executed on any [`Backend`].
pub struct Batch<'a> {
    reg: &'a ExperimentRegistry,
    ids: Vec<String>,
    params: ParamsHook<'a>,
    seed: u64,
    mode: Mode,
    cache: Option<&'a RunCache>,
    policy: SupervisePolicy,
    plan: Option<&'a FaultPlan>,
    tracing: bool,
}

impl<'a> Batch<'a> {
    /// A batch over `ids` at their registered defaults: no cache, one
    /// attempt per run, no faults, tracing on.
    pub fn new(reg: &'a ExperimentRegistry, ids: Vec<String>, mode: Mode, seed: u64) -> Self {
        Self {
            reg,
            ids,
            params: Box::new(|_, defaults| defaults),
            seed,
            mode,
            cache: None,
            policy: SupervisePolicy::default(),
            plan: None,
            tracing: true,
        }
    }

    /// A batch over every registered id, in registry (id) order.
    pub fn registry(reg: &'a ExperimentRegistry, mode: Mode, seed: u64) -> Self {
        Self::new(reg, reg.iter().map(|(id, _)| id.to_string()).collect(), mode, seed)
    }

    /// Overrides parameters: `hook` receives each id and its registered
    /// defaults and returns the parameters to run at.
    pub fn with_params(mut self, hook: impl Fn(&str, Params) -> Params + 'a) -> Self {
        self.params = Box::new(hook);
        self
    }

    /// Routes the batch through a run cache (see the module's cache rule).
    pub fn with_cache(mut self, cache: Option<&'a RunCache>) -> Self {
        self.cache = cache;
        self
    }

    /// Sets the retry and deadline budget of every run.
    pub fn with_policy(mut self, policy: SupervisePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Arms (or disarms) a deterministic fault plan.
    pub fn with_plan(mut self, plan: Option<&'a FaultPlan>) -> Self {
        self.plan = plan;
        self
    }

    /// Enables or disables trace collection; disabled, the report carries
    /// an empty event stream.
    pub fn with_tracing(mut self, tracing: bool) -> Self {
        self.tracing = tracing;
        self
    }

    /// Runs the batch on `backend`. Only a sharded backend can fail, and
    /// only on an I/O error in the coordinator itself.
    pub fn execute(&self, backend: &Backend) -> io::Result<BatchReport> {
        // treu-lint: allow(wall-clock, reason = "batch timing reported outside the fingerprint")
        let start = Instant::now();
        let entries: Vec<(&str, Params)> = self
            .ids
            .iter()
            .map(|id| {
                let defaults = self.reg.get(id).map(|e| e.defaults.clone()).unwrap_or_default();
                (id.as_str(), (self.params)(id, defaults))
            })
            .collect();
        let mut traces: Vec<RunTrace> =
            entries.iter().map(|(id, _)| RunTrace::new(id, self.seed)).collect();
        let looked: Vec<Lookup> = entries
            .iter()
            .zip(traces.iter_mut())
            .map(|((id, p), rt)| match (self.mode, self.cache) {
                (Mode::Verify, Some(c)) => {
                    let found = c.lookup_classified(id, self.seed, p);
                    if self.tracing {
                        rt.push(
                            TraceEvent::Cache { result: cache_result(&found) },
                            start.elapsed().as_secs_f64(),
                        );
                    }
                    found
                }
                _ => Lookup::Miss,
            })
            .collect();
        let pending: Vec<usize> =
            (0..entries.len()).filter(|&i| !matches!(looked[i], Lookup::Hit(_))).collect();
        let task_cache = self.mode == Mode::Run && self.cache.is_some() && self.plan.is_none();
        let deadline_us = self.policy.deadline.map_or(0, |d| (d.as_micros() as u64).max(1));
        let tasks: Vec<TaskSpec> = pending
            .iter()
            .flat_map(|&i| (0..self.mode.replicas()).map(move |replica| (i, replica as u32)))
            .enumerate()
            .map(|(index, (i, replica))| TaskSpec {
                index,
                id: entries[i].0.to_string(),
                seed: self.seed,
                replica,
                params: entries[i].1.clone(),
                retries: self.policy.retries,
                deadline_us,
                cache: task_cache,
            })
            .collect();
        let (outputs, sched, svc) = backend.run_tasks(
            self.reg,
            tasks,
            self.plan,
            self.cache,
            self.tracing,
            self.seed,
            start,
        )?;
        // Index-ordered merge: each id's task events, in (id, replica)
        // order, then the coordinator's own verdict events.
        let mut fresh = outputs.into_iter();
        let mut absorb = |rt: &mut RunTrace| {
            let out = fresh.next().expect("one output per task");
            rt.dropped += out.dropped;
            for (ev, at) in out.events {
                rt.push(ev, at);
            }
            (out.outcome, out.cached)
        };
        let jobs = backend.jobs();
        let result = match self.mode {
            Mode::Run => {
                let runs: Vec<RunResult> = entries
                    .iter()
                    .zip(traces.iter_mut())
                    .map(|((id, _), rt)| {
                        let (outcome, cached) = absorb(rt);
                        RunResult { id: id.to_string(), outcome, cached }
                    })
                    .collect();
                let wall = start.elapsed().as_secs_f64();
                let timings = runs
                    .iter()
                    .filter_map(|r| r.outcome.record().map(|rec| (r.id.clone(), rec.wall_seconds)));
                let report = ExecReport::from_labelled(jobs, timings, wall)
                    .with_workers(&sched)
                    .with_cached(runs.iter().filter(|r| r.cached).count())
                    .with_failed(runs.iter().filter(|r| !r.outcome.is_ok()).count())
                    .with_trace(batch_trace(
                        self.mode.name(),
                        self.seed,
                        traces,
                        jobs,
                        wall,
                        &sched,
                    ));
                BatchResult::Run { runs, report }
            }
            Mode::Verify => {
                let outcomes = entries
                    .iter()
                    .zip(looked)
                    .zip(traces.iter_mut())
                    .map(|(((id, p), found), rt)| match found {
                        Lookup::Hit(rec) => {
                            let fingerprint = rec.fingerprint();
                            if self.tracing {
                                rt.push(
                                    TraceEvent::Verdict {
                                        reproduced: true,
                                        cached: true,
                                        attempts: 1,
                                        fingerprint,
                                        failure: None,
                                    },
                                    start.elapsed().as_secs_f64(),
                                );
                            }
                            VerifyOutcome {
                                id: id.to_string(),
                                fingerprint,
                                reproduced: true,
                                cached: true,
                                attempts: 1,
                                healed_corruption: false,
                                failure: None,
                            }
                        }
                        not_hit => {
                            let pair = [absorb(rt).0, absorb(rt).0];
                            let was_corrupt = matches!(not_hit, Lookup::Corrupt);
                            let tracer = self.tracing.then_some((rt, start));
                            cross_check(id, self.seed, p, &pair, self.cache, was_corrupt, tracer)
                        }
                    })
                    .collect();
                let wall = start.elapsed().as_secs_f64();
                let trace = batch_trace(self.mode.name(), self.seed, traces, jobs, wall, &sched);
                let counters = trace.counters();
                BatchResult::Verify(VerifyReport {
                    jobs,
                    outcomes,
                    wall_seconds: wall,
                    recomputed: pending.len(),
                    trace,
                    counters,
                })
            }
        };
        Ok(BatchReport { result, svc })
    }
}

/// One id's outcome in a run-mode batch.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Experiment id.
    pub id: String,
    /// The supervised run's outcome.
    pub outcome: RunOutcome,
    /// True when the record was replayed from the run cache.
    pub cached: bool,
}

/// What a batch produced, by mode.
#[derive(Debug, Clone)]
pub enum BatchResult {
    /// Per-id run outcomes in batch order, plus timing accounting.
    Run {
        /// One result per id.
        runs: Vec<RunResult>,
        /// Batch timing, cache and quarantine accounting, and the trace.
        report: ExecReport,
    },
    /// The cross-checked verification report.
    Verify(VerifyReport),
}

/// A finished batch: its result plus, on the sharded backend, the pool's
/// supervision counters.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// The batch's outcomes.
    pub result: BatchResult,
    /// Worker-pool counters ([`Backend::Sharded`] only).
    pub svc: Option<SvcStats>,
}

impl BatchReport {
    /// The merged event trace.
    pub fn trace(&self) -> &BatchTrace {
        match &self.result {
            BatchResult::Run { report, .. } => &report.trace,
            BatchResult::Verify(r) => &r.trace,
        }
    }

    /// The run-mode results; panics on a verify batch.
    pub fn into_run(self) -> (Vec<RunResult>, ExecReport) {
        match self.result {
            BatchResult::Run { runs, report } => (runs, report),
            BatchResult::Verify(_) => panic!("a verify batch has no run results"),
        }
    }

    /// The verify-mode report; panics on a run batch.
    pub fn into_verify(self) -> VerifyReport {
        match self.result {
            BatchResult::Verify(r) => r,
            BatchResult::Run { .. } => panic!("a run batch has no verify report"),
        }
    }

    /// The deny gate: true when the findings should flip the exit code
    /// under `policy`. `Error` gates on quarantined or unreproduced ids;
    /// `Warn` also on runs that needed retries and on self-healed cache
    /// corruption; `None` never gates.
    pub fn exceeds(&self, policy: DenyPolicy) -> bool {
        match &self.result {
            BatchResult::Verify(r) => r.exceeds(policy),
            BatchResult::Run { runs, report } => match policy {
                DenyPolicy::None => false,
                DenyPolicy::Error => report.failed_runs > 0,
                DenyPolicy::Warn => {
                    report.failed_runs > 0 || runs.iter().any(|r| r.outcome.attempts() > 1)
                }
            },
        }
    }
}

/// Executes one task deterministically: the same code path inside a
/// `treu worker` subprocess, on an in-process thread, and in a degraded
/// coordinator — which is what makes topology unable to change results
/// or hashed trace content. A task whose `cache` flag is set consults the
/// cache first and stores its record on success.
pub(crate) fn execute_task(
    reg: &ExperimentRegistry,
    t: &TaskSpec,
    plan: Option<&FaultPlan>,
    cache: Option<&RunCache>,
    tracing: bool,
    epoch: Instant,
) -> TaskOutput {
    let mut rt = tracing.then(|| RunTrace::new(&t.id, t.seed));
    let mut tracer = rt.as_mut().map(|rt| (rt, epoch));
    let mut policy = SupervisePolicy::new(t.retries);
    if t.deadline_us > 0 {
        policy = policy.with_deadline_secs(t.deadline_us as f64 / 1e6);
    }
    emit(&mut tracer, TraceEvent::Claim { replica: t.replica });
    let cache = cache.filter(|_| t.cache);
    let (outcome, cached) = match reg.get(&t.id) {
        None => (
            RunOutcome::Failed(RunFailure {
                taxonomy: FailureKind::Panicked,
                attempts: 0,
                last_error: format!("unknown experiment '{}'", t.id),
            }),
            false,
        ),
        Some(entry) => {
            let found = cache.map(|c| c.lookup_classified(&t.id, t.seed, &t.params));
            if let Some(found) = &found {
                emit(&mut tracer, TraceEvent::Cache { result: cache_result(found) });
            }
            match found {
                Some(Lookup::Hit(record)) => (RunOutcome::Ok { record, attempts: 1 }, true),
                _ => {
                    let outcome = run_supervised_traced(
                        entry.runner(),
                        &t.id,
                        t.seed,
                        &t.params,
                        &policy,
                        plan,
                        t.replica,
                        tracer.as_mut().map(|(rt, epoch)| (&mut **rt, *epoch)),
                    );
                    if let (Some(c), RunOutcome::Ok { record, .. }) = (cache, &outcome) {
                        if c.store(&t.id, t.seed, &t.params, record).is_ok() {
                            emit(&mut tracer, TraceEvent::CacheStored);
                        }
                    }
                    (outcome, false)
                }
            }
        }
    };
    let (events, dropped) = match rt {
        Some(rt) => (rt.events().iter().map(|(_, ev, at)| (ev.clone(), *at)).collect(), rt.dropped),
        None => (Vec::new(), 0),
    };
    TaskOutput { index: t.index, outcome, cached, dropped, events }
}

/// Maps a cache [`Lookup`] classification onto its trace-event mirror.
fn cache_result(found: &Lookup) -> CacheResult {
    match found {
        Lookup::Hit(_) => CacheResult::Hit,
        Lookup::Miss => CacheResult::Miss,
        Lookup::Stale => CacheResult::Stale,
        Lookup::Corrupt => CacheResult::Corrupt,
    }
}

/// Assembles per-run traces plus the scheduler's timing into a
/// [`BatchTrace`] (worker loads and wall time go to the sidecar only).
fn batch_trace(
    kind: &str,
    seed: u64,
    runs: Vec<RunTrace>,
    jobs: usize,
    wall_seconds: f64,
    sched: &SchedStats,
) -> BatchTrace {
    BatchTrace {
        kind: kind.to_string(),
        seed,
        runs,
        jobs,
        wall_seconds,
        workers: sched
            .busy_seconds
            .iter()
            .zip(&sched.chunks_claimed)
            .zip(&sched.items)
            .map(|((&busy_seconds, &chunks), &items)| WorkerTiming { busy_seconds, chunks, items })
            .collect(),
    }
}

/// Cross-checks one id's two supervised replicas into a [`VerifyOutcome`],
/// storing the first replica when they agree and recording
/// store/heal/verdict events into the run's trace when one is threaded
/// through.
fn cross_check(
    id: &str,
    seed: u64,
    params: &Params,
    pair: &[RunOutcome; 2],
    cache: Option<&RunCache>,
    was_corrupt: bool,
    mut tracer: Option<(&mut RunTrace, Instant)>,
) -> VerifyOutcome {
    let outcome = match pair {
        [RunOutcome::Ok { record: a, attempts: aa }, RunOutcome::Ok { record: b, attempts: ab }] => {
            let reproduced = a.trail == b.trail;
            let attempts = (*aa).max(*ab);
            if reproduced {
                if let Some(c) = cache {
                    if c.store(id, seed, params, a).is_ok() {
                        emit(&mut tracer, TraceEvent::CacheStored);
                    }
                }
                if was_corrupt {
                    emit(&mut tracer, TraceEvent::CacheHealed);
                }
            }
            let failure = (!reproduced).then(|| RunFailure {
                taxonomy: if was_corrupt {
                    FailureKind::CorruptCache
                } else {
                    FailureKind::Nondeterministic
                },
                attempts,
                last_error: "verification replicas produced different trails".to_string(),
            });
            VerifyOutcome {
                id: id.to_string(),
                fingerprint: a.fingerprint(),
                reproduced,
                cached: false,
                attempts,
                healed_corruption: was_corrupt && reproduced,
                failure,
            }
        }
        _ => {
            let f = pair
                .iter()
                .find_map(|o| match o {
                    RunOutcome::Failed(f) => Some(f.clone()),
                    RunOutcome::Ok { .. } => None,
                })
                .expect("a non-Ok pair contains a failure");
            let fingerprint =
                pair.iter().find_map(RunOutcome::record).map(RunRecord::fingerprint).unwrap_or(0);
            let taxonomy = if was_corrupt { FailureKind::CorruptCache } else { f.taxonomy };
            VerifyOutcome {
                id: id.to_string(),
                fingerprint,
                reproduced: false,
                cached: false,
                attempts: f.attempts,
                healed_corruption: false,
                failure: Some(RunFailure { taxonomy, ..f }),
            }
        }
    };
    emit(
        &mut tracer,
        TraceEvent::Verdict {
            reproduced: outcome.reproduced,
            cached: false,
            attempts: outcome.attempts,
            fingerprint: outcome.fingerprint,
            failure: outcome.failure.as_ref().map(|f| f.taxonomy.name()),
        },
    );
    outcome
}
