//! `run-registry`: every registered experiment at its default parameters,
//! in-process, two jobs, no cache, the trace layer off — what
//! `treu run --jobs 2 --no-cache` does. Compute carries nearly all the
//! work: `rl`, `nn` and `math`, with executor nesting inside E2.8.

use std::hint::black_box;
use std::io;
use std::sync::Arc;
use std::time::Duration;

use treu::core::environment::Environment;
use treu::core::exec::Executor;
use treu::core::experiment::{Experiment, RunContext, RunRecord};
use treu::core::ExperimentRegistry;
use treu::math::gemm::{plan_for, ShapeClass};
use treu::math::rng::{derive_seed, SplitMix64};
use treu::math::Matrix;
use treu::nn::dense::Dense;
use treu::nn::layer::Layer;
use treu::rl::dqn::{DqnAgent, DqnConfig};
use treu::rl::env::{Env, EnvKind, StepResult};
use treu::rl::estimators::EstimatorKind;

use crate::common::{attribute, per_call_us, twinned, Ctx, Phase, SetUps};
use crate::golden::{failed_ids, GOLDEN, REGISTRY_SEED};
use crate::report::{Outcome, TIMED_IDS};
use crate::spans::{durations, Recorder};

const JOBS: usize = 2;
/// Set-up is tens of microseconds: 4000 fresh set-ups before the registry
/// pass and 4000 after it, counted in 15 blocks. With only two samples,
/// each is spread over about 2 s by the pause between its chunks.
const SETUP_BLOCKS: usize = 15;
const SETUP_PER_SAMPLE: usize = 4000;
const SETUP_PAUSE: Duration = Duration::from_millis(100);
/// The traced run's overhead pairs: registry passes without E2.8, whose
/// 40 s alone is too long to run twice more within one run.
const TWIN_PASSES: usize = 2;
const TWIN_SKIPS: [&str; 1] = ["E2.8"];
/// The E2.7 GEMM shape class: batch 16 × 256 patch pixels × hidden 48.
const GEMM_SHAPE: (usize, usize, usize) = (16, 256, 48);

struct Setup {
    reg: Arc<ExperimentRegistry>,
    exec: Executor,
}

fn set_up() -> Setup {
    let reg = Arc::new(treu::full_registry());
    black_box(Environment::capture().fingerprint());
    Setup { reg, exec: Executor::new(JOBS).with_tracing(false) }
}

pub fn run(ctx: &Ctx) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    if ctx.traced {
        traced(ctx, &set_up(), &mut out)?;
        return Ok(out);
    }
    let mut setups = SetUps::new(SETUP_BLOCKS, SETUP_PER_SAMPLE, SETUP_PAUSE, |_| Ok(set_up()));
    let setup = setups.sample()?;
    let (passes, phase) = Phase::run(
        1,
        |_| Ok(setup.exec.run_all_report(&setup.reg, REGISTRY_SEED)),
        || setups.sample().map(drop),
    )?;
    check(&mut out, &GOLDEN, &passes[0].0);
    phase.report(&mut out, setups.seconds());
    Ok(out)
}

/// One operation per id; it fails when the fingerprint is not golden.
fn check(out: &mut Outcome, golden: &[(&str, u64)], records: &[(String, RunRecord)]) {
    let run: Vec<(String, u64)> =
        records.iter().map(|(id, r)| (id.clone(), r.fingerprint())).collect();
    let failed = failed_ids(golden, &run);
    for id in &failed {
        match run.iter().find(|(r, _)| r == id) {
            Some((_, fp)) => {
                eprintln!("run-registry: {id} reproduced {fp:#018x}, not its golden value")
            }
            None => eprintln!("run-registry: {id} has a golden value but did not run"),
        }
    }
    let missing = failed.iter().filter(|id| !run.iter().any(|(r, _)| r == *id)).count();
    out.check((run.len() + missing) as u64, failed.len() as u64);
}

/// Runs a registry entry, inside an `experiment.<id>` span when traced.
struct Wrapped {
    reg: Arc<ExperimentRegistry>,
    rec: Option<(Arc<Recorder>, usize)>,
    id: String,
    name: String,
}

impl Experiment for Wrapped {
    fn name(&self) -> &str {
        &self.name
    }

    fn run(&self, ctx: &mut RunContext) {
        let entry = self.reg.get(&self.id).expect("wrapped id is registered");
        match &self.rec {
            Some((rec, parent)) => {
                rec.span(&format!("experiment.{}", self.id), Some(*parent), |_| {
                    entry.runner().run(ctx)
                })
            }
            None => entry.runner().run(ctx),
        }
    }
}

/// The registry again without the `skip` ids, every entry wrapped; with
/// `rec`, each run is a span under `parent`.
fn wrapped(
    reg: &Arc<ExperimentRegistry>,
    rec: Option<&Arc<Recorder>>,
    parent: Option<usize>,
    skip: &[&str],
) -> ExperimentRegistry {
    let mut out = ExperimentRegistry::new();
    for (id, e) in reg.iter().filter(|(id, _)| !skip.contains(id)) {
        let runner = Wrapped {
            reg: reg.clone(),
            rec: rec.cloned().zip(parent),
            id: id.to_string(),
            name: e.name().to_string(),
        };
        out.register(id, &e.location, &e.description, e.defaults.clone(), Box::new(runner));
    }
    out
}

/// Counts environment steps for `rl.env_steps`.
struct Counting {
    inner: Box<dyn Env>,
    steps: u64,
}

impl Env for Counting {
    fn reset(&mut self, rng: &mut SplitMix64) -> Vec<f64> {
        self.inner.reset(rng)
    }

    fn step(&mut self, action: usize, rng: &mut SplitMix64) -> StepResult {
        self.steps += 1;
        self.inner.step(action, rng)
    }

    fn horizon(&self) -> usize {
        self.inner.horizon()
    }
}

fn traced(ctx: &Ctx, setup: &Setup, out: &mut Outcome) -> io::Result<()> {
    let rec = Arc::new(Recorder::new());
    let units = rec.span("bench.run-registry", None, |root| -> io::Result<_> {
        let (records, report) = rec.span("exec.run_all_report", Some(root), |exec_span| {
            let all = wrapped(&setup.reg, Some(&rec), Some(exec_span), &[]);
            setup.exec.run_all_report(&all, REGISTRY_SEED)
        });
        check(out, &GOLDEN, &records);
        out.set("exec.critical_path_s", report.critical_path_seconds());
        out.set("exec.utilization", report.utilization());
        out.set("exec.imbalance", report.imbalance_ratio());
        out.set("exec.busy_s", report.total_busy_seconds());
        let mut rest = 0.0;
        for r in &report.runs {
            if TIMED_IDS.contains(&r.label.as_str()) {
                out.set(format!("experiment.{}_s", r.label), r.wall_seconds);
            } else {
                rest += r.wall_seconds;
            }
        }
        out.set("experiment.rest_s", rest);

        let solo = rec.span("experiment.E2.8.solo", Some(root), |_| {
            setup.reg.run("E2.8", REGISTRY_SEED).expect("E2.8 is registered")
        });
        let e28: Vec<_> = GOLDEN.iter().copied().filter(|(id, _)| *id == "E2.8").collect();
        check(out, &e28, &[("E2.8".to_string(), solo)]);
        let units = twinned(&rec, root, TWIN_PASSES, |_, parent| {
            let light = wrapped(&setup.reg, parent.map(|_| &rec), parent, &TWIN_SKIPS);
            Ok(setup.exec.run_all_report(&light, REGISTRY_SEED))
        })?;
        probe_rl(&rec, root, ctx.seed, out);
        probe_math(&rec, root, ctx.seed, out);
        Ok(units)
    })?;
    let rec = Arc::try_unwrap(rec).ok().expect("wrapped registry dropped");
    let spans = rec.into_spans();
    out.set("experiment.E2.8.solo_s", durations(&spans, "experiment.E2.8.solo")[0]);
    out.set("rl.train_s", durations(&spans, "rl.train")[0]);
    attribute(out, &spans, &units);
    ctx.write_spans(&spans)?;
    Ok(())
}

/// One DQN training of E2.8's first default cell, and the Q-network calls
/// at E2.8's widths (conv and attention alternating).
fn probe_rl(rec: &Recorder, root: usize, seed: u64, out: &mut Outcome) {
    let (env_kind, est) = (EnvKind::all()[0], EstimatorKind::all()[0]);
    let cell_seed = derive_seed(REGISTRY_SEED, &format!("{}.{}.0", env_kind.name(), est.name()));
    let mut env = Counting { inner: env_kind.build(), steps: 0 };
    let mut agent = DqnAgent::new(est, DqnConfig::default(), cell_seed);
    rec.span("rl.train", Some(root), |_| black_box(agent.train(&mut env)));
    out.set("rl.env_steps", env.steps as f64);

    let mut rng = SplitMix64::new(derive_seed(seed, "perfbench.rl"));
    let mut obs_env = EnvKind::Catch.build();
    let obs: Vec<Vec<f64>> = (0..64).map(|_| obs_env.reset(&mut rng)).collect();
    let lr = DqnConfig::default().lr;
    let mut nets: Vec<_> =
        EstimatorKind::all().iter().map(|k| k.build(lr, derive_seed(seed, k.name()))).collect();
    let q = per_call_us(rec, "rl.q_values", root, 400, |i| {
        black_box(nets[i % 2].q_values(&obs[i % obs.len()]));
    });
    let targets: Vec<f64> = (0..64).map(|_| rng.next_f64()).collect();
    let u = per_call_us(rec, "rl.update", root, 200, |i| {
        nets[i % 2].update(&obs[i % obs.len()], i % 5, targets[i % targets.len()]);
    });
    out.set("rl.q_values_us", q);
    out.set("rl.update_us", u);
}

fn random_matrix(rows: usize, cols: usize, rng: &mut SplitMix64) -> Matrix {
    Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| rng.next_f64() - 0.5).collect())
}

/// The dense layer and 1×k products of E2.8's Q-network head, the plan
/// lookup every product pays, and the GEMM of E2.7's shape class.
fn probe_math(rec: &Recorder, root: usize, seed: u64, out: &mut Outcome) {
    let mut rng = SplitMix64::new(derive_seed(seed, "perfbench.math"));
    let x = random_matrix(1, 32, &mut rng);
    let mut dense = Dense::new(32, 32, derive_seed(seed, "perfbench.dense"));
    let d = per_call_us(rec, "nn.dense_forward", root, 2000, |_| {
        black_box(dense.forward(&x, false));
    });
    out.set("nn.dense_forward_us", d);

    let heads = [random_matrix(32, 32, &mut rng), random_matrix(32, 5, &mut rng)];
    let mm = per_call_us(rec, "math.matmul_1xk", root, 4000, |i| {
        black_box(x.matmul(&heads[i % 2]));
    });
    out.set("math.matmul_1xk_ns", mm * 1e3);
    let class = ShapeClass::of(1, 32, 32);
    let p = per_call_us(rec, "math.plan_for", root, 20_000, |_| {
        black_box(plan_for(black_box(class)));
    });
    out.set("math.plan_for_ns", p * 1e3);

    let (m, k, n) = GEMM_SHAPE;
    let (a, b) = (random_matrix(m, k, &mut rng), random_matrix(k, n, &mut rng));
    let flops = (2 * m * k * n) as f64;
    let g = per_call_us(rec, "math.gemm", root, 100, |_| {
        black_box(a.matmul(&b));
    });
    out.set("math.gemm_gflops", flops / (g * 1e3));
    out.set("math.flops", flops);
}
