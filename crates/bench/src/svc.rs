//! `treu soak --workers N` — sustained soak of the sharded verification
//! service across process topologies.
//!
//! The single-process soak ([`crate::soak`]) stresses the cache and the
//! fair queue; this one stresses the *coordinator/worker* layer: the same
//! registry-wide verification batch ([`treu_core::batch::Batch`]) is
//! driven repeatedly through [`Backend::Sharded`] at a ladder of `(workers, jobs)`
//! topologies, optionally with the seeded kill plan SIGKILLing workers
//! mid-shard, and every pass is required to land on the bits of the
//! fault-free in-process baseline — the same trace content address and
//! the same per-id fingerprint digest. Throughput per topology is the
//! benchmark number (`BENCH_svc.json`); bitwise convergence is the
//! acceptance criterion. Process chaos may cost respawns and wall time,
//! never results.

use std::time::Instant;

use treu_core::batch::{Backend, Batch, Mode};
use treu_core::exec::VerifyReport;
use treu_core::experiment::Params;
use treu_core::fault::KillPlan;
use treu_core::hash::fnv64_parts;
use treu_core::svc::SvcConfig;
use treu_core::ExperimentRegistry;

/// Soak shape: which topologies, how many passes, how much process chaos.
#[derive(Debug, Clone)]
pub struct SvcSoakConfig {
    /// Run seed every pass verifies under.
    pub seed: u64,
    /// Verification passes per topology (each pass is a fresh pool).
    pub passes: u32,
    /// Largest worker count in the ladder (from `--workers N`).
    pub max_workers: usize,
    /// Per-worker thread counts to cross with the worker ladder.
    pub jobs_ladder: Vec<usize>,
    /// Kill-plan seed; `None` runs the service without process chaos.
    pub kill_seed: Option<u64>,
    /// Kill-plan rate override.
    pub kill_rate: Option<f64>,
    /// Respawn budget override (per worker slot).
    pub respawn_budget: Option<u32>,
    /// Worker command override; empty means `current_exe worker`. Tests
    /// use this to force the degradation path without a real binary.
    pub worker_cmd: Vec<String>,
}

impl SvcSoakConfig {
    /// The default shape for `--workers N`: 2 passes over the worker
    /// ladder `{1, 2, 4} ∩ [1, N] ∪ {N}` crossed with jobs `{1, 4}`.
    pub fn new(max_workers: usize) -> Self {
        Self {
            seed: 2023,
            passes: 2,
            max_workers,
            jobs_ladder: vec![1, 4],
            kill_seed: None,
            kill_rate: None,
            respawn_budget: None,
            worker_cmd: Vec::new(),
        }
    }

    /// The `(workers, jobs)` grid this config soaks.
    pub fn topologies(&self) -> Vec<(usize, usize)> {
        let mut workers: Vec<usize> =
            [1usize, 2, 4].into_iter().filter(|&w| w <= self.max_workers).collect();
        if !workers.contains(&self.max_workers) {
            workers.push(self.max_workers);
        }
        let mut out = Vec::new();
        for &w in &workers {
            for &j in &self.jobs_ladder {
                out.push((w, j));
            }
        }
        out
    }
}

/// What one `(workers, jobs)` topology measured across its passes.
#[derive(Debug, Clone)]
pub struct TopologyReport {
    /// Worker process count.
    pub workers: usize,
    /// Threads per worker.
    pub jobs: usize,
    /// Passes run at this topology.
    pub passes: u32,
    /// Ids verified per pass.
    pub verified: usize,
    /// Wall time across all passes (reporting only; never a result).
    pub wall_seconds: f64,
    /// Verified runs per second across all passes.
    pub throughput: f64,
    /// Trace content address of the last pass.
    pub trace_address: u64,
    /// FNV digest over (id, fingerprint, failure) of the last pass.
    pub fingerprint_digest: u64,
    /// Worker processes spawned across all passes.
    pub spawned: u32,
    /// Kill-plan SIGKILLs delivered.
    pub kills: u32,
    /// Crashes observed (EOF without a kill we caused).
    pub crashes: u32,
    /// Hang-watchdog firings.
    pub hangs: u32,
    /// Shards requeued after an incarnation died holding them.
    pub requeues: u32,
    /// Whether any pass degraded to in-process execution.
    pub degraded: bool,
    /// Every pass matched the baseline trace address and digest.
    pub converged: bool,
}

/// The whole soak: a fault-free in-process baseline plus one report per
/// topology, each required to reproduce the baseline bits.
#[derive(Debug, Clone)]
pub struct SvcSoakReport {
    /// Echo of the run seed.
    pub seed: u64,
    /// Passes per topology.
    pub passes: u32,
    /// Kill-plan seed, when process chaos was armed.
    pub kill_seed: Option<u64>,
    /// Baseline trace content address (in-process, fault-free, jobs=1).
    pub baseline_trace: u64,
    /// Baseline per-id fingerprint digest.
    pub baseline_digest: u64,
    /// Baseline wall time.
    pub baseline_wall_seconds: f64,
    /// One entry per `(workers, jobs)` topology.
    pub topologies: Vec<TopologyReport>,
}

impl SvcSoakReport {
    /// True when every topology converged to the baseline bits.
    pub fn all_converged(&self) -> bool {
        self.topologies.iter().all(|t| t.converged)
    }

    /// Human summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "svc soak: seed {}, {} pass(es)/topology, baseline trace {:#018x}{}\n",
            self.seed,
            self.passes,
            self.baseline_trace,
            match self.kill_seed {
                Some(s) => format!(", kill plan seed {s}"),
                None => String::new(),
            }
        ));
        for t in &self.topologies {
            out.push_str(&format!(
                "  workers={} jobs={}: {:.1} runs/s ({} id(s) x {} pass(es) in {:.3}s) \
                 spawned={} kills={} requeues={}{}{} — {}\n",
                t.workers,
                t.jobs,
                t.throughput,
                t.verified,
                t.passes,
                t.wall_seconds,
                t.spawned,
                t.kills,
                t.requeues,
                if t.crashes + t.hangs > 0 {
                    format!(" crashes={} hangs={}", t.crashes, t.hangs)
                } else {
                    String::new()
                },
                if t.degraded { " DEGRADED" } else { "" },
                if t.converged { "CONVERGED" } else { "DIVERGED" },
            ));
        }
        out.push_str(&format!(
            "  all topologies bitwise-identical to baseline: {}\n",
            self.all_converged()
        ));
        out
    }

    /// Machine-readable JSON (`BENCH_svc.json`), hand-rolled like the
    /// other bench emitters — no serde in the dependency budget.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"bench\": \"svc/sharded-verify\",\n");
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"passes\": {},\n", self.passes));
        out.push_str(&format!(
            "  \"kill_seed\": {},\n",
            match self.kill_seed {
                Some(s) => s.to_string(),
                None => "null".to_string(),
            }
        ));
        out.push_str(&format!(
            "  \"baseline\": {{\"trace_address\": \"{:#018x}\", \
             \"fingerprint_digest\": \"{:#018x}\", \"wall_seconds\": {:.6}}},\n",
            self.baseline_trace, self.baseline_digest, self.baseline_wall_seconds
        ));
        out.push_str("  \"topologies\": [\n");
        for (i, t) in self.topologies.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"workers\": {}, \"jobs\": {}, \"verified\": {}, \
                 \"wall_seconds\": {:.6}, \"throughput_runs_per_s\": {:.3}, \
                 \"trace_address\": \"{:#018x}\", \"fingerprint_digest\": \"{:#018x}\", \
                 \"spawned\": {}, \"kills\": {}, \"crashes\": {}, \"hangs\": {}, \
                 \"requeues\": {}, \"degraded\": {}, \"converged\": {}}}{}\n",
                t.workers,
                t.jobs,
                t.verified,
                t.wall_seconds,
                t.throughput,
                t.trace_address,
                t.fingerprint_digest,
                t.spawned,
                t.kills,
                t.crashes,
                t.hangs,
                t.requeues,
                t.degraded,
                t.converged,
                if i + 1 < self.topologies.len() { "," } else { "" },
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!("  \"all_converged\": {}\n", self.all_converged()));
        out.push_str("}\n");
        out
    }
}

/// FNV digest over every id's verification outcome — the registry-wide
/// fingerprint identity a topology must reproduce.
fn digest(report: &VerifyReport) -> u64 {
    let mut parts: Vec<Vec<u8>> = Vec::new();
    for o in &report.outcomes {
        parts.push(o.id.as_bytes().to_vec());
        parts.push(o.fingerprint.to_le_bytes().to_vec());
        parts.push(match &o.failure {
            Some(f) => f.taxonomy.name().as_bytes().to_vec(),
            None => b"ok".to_vec(),
        });
    }
    let refs: Vec<&[u8]> = parts.iter().map(|p| p.as_slice()).collect();
    fnv64_parts(&refs)
}

/// Runs the soak: the fault-free in-process baseline first, then every
/// topology in the ladder, each pass through a fresh worker pool.
pub fn run_svc_soak(
    reg: &ExperimentRegistry,
    params_of: &(dyn Fn(&str, Params) -> Params + Sync),
    cfg: &SvcSoakConfig,
) -> std::io::Result<SvcSoakReport> {
    let batch = Batch::registry(reg, Mode::Verify, cfg.seed).with_params(params_of);
    // The bits every topology must land on: single-threaded, in-process,
    // no faults, no processes.
    // treu-lint: allow(wall-clock, reason = "throughput reporting only; never part of a result")
    let start = Instant::now();
    let baseline = batch.execute(&Backend::InProcess { jobs: 1 })?.into_verify();
    let baseline_wall = start.elapsed().as_secs_f64();
    let baseline_trace = baseline.trace.content_hash();
    let baseline_digest = digest(&baseline);

    let mut topologies = Vec::new();
    for (w, j) in cfg.topologies() {
        // treu-lint: allow(wall-clock, reason = "throughput reporting only; never part of a result")
        let start = Instant::now();
        let mut rep = TopologyReport {
            workers: w,
            jobs: j,
            passes: cfg.passes,
            verified: 0,
            wall_seconds: 0.0,
            throughput: 0.0,
            trace_address: 0,
            fingerprint_digest: 0,
            spawned: 0,
            kills: 0,
            crashes: 0,
            hangs: 0,
            requeues: 0,
            degraded: false,
            converged: true,
        };
        for pass in 0..cfg.passes {
            let mut c = SvcConfig::new(w).with_jobs(j).with_tracing(true);
            if let Some(n) = cfg.respawn_budget {
                c = c.with_respawn_budget(n);
            }
            if !cfg.worker_cmd.is_empty() {
                c = c.with_worker_cmd(cfg.worker_cmd.clone());
            }
            if let Some(s) = cfg.kill_seed {
                // A different (still seeded) kill schedule each pass:
                // more of the requeue state space for the same config.
                let pass_seed = s.wrapping_add(pass as u64);
                let kp = match cfg.kill_rate {
                    Some(r) => KillPlan::with_rate(pass_seed, r),
                    None => KillPlan::new(pass_seed),
                };
                c = c.with_kill_plan(kp);
            }
            let report = batch.execute(&Backend::Sharded(c))?;
            let stats = report.svc.expect("a sharded batch reports its pool");
            let report = report.into_verify();
            rep.verified = report.outcomes.len();
            rep.trace_address = report.trace.content_hash();
            rep.fingerprint_digest = digest(&report);
            rep.converged &=
                rep.trace_address == baseline_trace && rep.fingerprint_digest == baseline_digest;
            rep.spawned += stats.spawned;
            rep.kills += stats.kills;
            rep.crashes += stats.crashes;
            rep.hangs += stats.hangs;
            rep.requeues += stats.requeues;
            rep.degraded |= stats.degraded;
        }
        rep.wall_seconds = start.elapsed().as_secs_f64();
        rep.throughput = (rep.verified as f64 * cfg.passes as f64) / rep.wall_seconds.max(1e-9);
        topologies.push(rep);
    }
    Ok(SvcSoakReport {
        seed: cfg.seed,
        passes: cfg.passes,
        kill_seed: cfg.kill_seed,
        baseline_trace,
        baseline_digest,
        baseline_wall_seconds: baseline_wall,
        topologies,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use treu_core::experiment::{Experiment, RunContext};

    struct Echo;
    impl Experiment for Echo {
        fn name(&self) -> &str {
            "echo"
        }
        fn run(&self, ctx: &mut RunContext) {
            let gain = ctx.int("gain", 1);
            let mut rng = ctx.rng("echo");
            for i in 0..3 {
                let draw = rng.next_u64() >> 12;
                ctx.record(&format!("m{i}"), (draw as f64) * gain as f64);
            }
        }
    }

    fn small_registry() -> ExperimentRegistry {
        let mut reg = ExperimentRegistry::new();
        reg.register(
            "alpha",
            "bench::svc::tests",
            "svc soak test experiment",
            Params::new().with_int("gain", 3),
            Box::new(Echo),
        );
        reg.register(
            "beta",
            "bench::svc::tests",
            "svc soak test experiment",
            Params::new().with_int("gain", 5),
            Box::new(Echo),
        );
        reg
    }

    /// The test binary is not a `treu` binary, so real workers cannot
    /// spawn here; forcing the degradation path still exercises the whole
    /// soak loop and the parity accounting end to end.
    #[test]
    fn degraded_soak_converges_and_renders() {
        let reg = small_registry();
        let mut cfg = SvcSoakConfig::new(2);
        cfg.passes = 1;
        cfg.jobs_ladder = vec![1];
        cfg.respawn_budget = Some(0);
        cfg.worker_cmd = vec!["/bin/true".to_string()];
        let report = run_svc_soak(&reg, &|_, d| d, &cfg).expect("soak runs");
        assert_eq!(report.topologies.len(), 2, "workers 1 and 2, jobs 1");
        assert!(report.all_converged(), "degraded topologies must still hit baseline bits");
        assert!(report.topologies.iter().all(|t| t.degraded));
        assert!(report.topologies.iter().all(|t| t.verified == 2));
        let json = report.render_json();
        assert!(json.contains("\"all_converged\": true"));
        assert!(json.contains("\"bench\": \"svc/sharded-verify\""));
        assert!(report.render().contains("CONVERGED"));
    }

    #[test]
    fn topology_ladder_caps_and_includes_max() {
        assert_eq!(SvcSoakConfig::new(1).topologies(), vec![(1, 1), (1, 4)]);
        let t3 = SvcSoakConfig::new(3).topologies();
        assert!(t3.contains(&(3, 1)) && t3.contains(&(2, 4)) && !t3.contains(&(4, 1)));
        let t4 = SvcSoakConfig::new(4).topologies();
        assert_eq!(t4.len(), 6, "1,2,4 x 1,4");
    }
}
