//! `verify-sharded`: registry-wide verification at conformance
//! parameters through the sharded service, as one
//! `treu verify --workers 2 --conformance --trace-out DIR --attest-dir DIR`
//! invocation does, for several seeds. Each seed gets a fresh 2-worker ×
//! 1-job pool; its batch is written as a trace, sealed into an
//! attestation link, and the chain is verified. Compute is light here:
//! process spawn, the frame codec, the index-ordered merge, trace hashing
//! and attestation take a real share.

use std::hint::black_box;
use std::io::{self, BufReader, Cursor};
use std::path::Path;
use std::time::Duration;

use treu::core::attest::{
    hash_bytes, verify_chain, AttestKey, AttestStore, Layout, LinkDraft, VerifyContext,
};
use treu::core::environment::Environment;
use treu::core::exec::{Executor, SupervisePolicy, VerifyReport};
use treu::core::experiment::Params;
use treu::core::svc::{
    read_frame, verify_all_svc, write_frame, SvcConfig, SvcStats, TaskSpec, WorkerPool,
};
use treu::core::ExperimentRegistry;
use treu::math::rng::derive_seed;
use treu::math::stats::median;

use crate::common::{attribute, timed, twinned, Ctx, Phase, SetUps};
use crate::report::Outcome;
use crate::spans::{durations, maybe, Recorder};

const WORKERS: usize = 2;
/// Fresh pools the traced run brings up for `svc.bringup_s`.
const BRINGUPS: usize = 9;
/// Wall seconds of one seed's batch on the reference host; sizes the
/// seed count from `--seconds`.
const SECONDS_PER_SEED: f64 = 1.6;
const ATTEST_KEY_SEED: u64 = 2023;

fn params(id: &str, _defaults: Params) -> Params {
    treu::conformance_params(id)
}

fn pool(tracing: bool) -> SvcConfig {
    SvcConfig::new(WORKERS).with_jobs(1).with_tracing(tracing)
}

/// The verification seeds: a pure function of the benchmark seed.
fn seeds(ctx: &Ctx) -> Vec<u64> {
    let k = ((ctx.seconds as f64 / SECONDS_PER_SEED).round() as usize).max(2);
    (0..k).map(|i| derive_seed(ctx.seed, &format!("verify-sharded.{i}")) % 1_000_000).collect()
}

struct Setup {
    reg: ExperimentRegistry,
    env_fingerprint: u64,
    index_hash: u64,
}

/// A fresh pool running a one-task batch: spawn, handshake, one
/// conformance T1 run, shutdown.
fn bring_up(reg: &ExperimentRegistry, seed: u64) -> io::Result<()> {
    let task = TaskSpec {
        index: 0,
        id: "T1".to_string(),
        seed,
        replica: 0,
        params: treu::conformance_params("T1"),
        retries: 0,
        deadline_us: 0,
        cache: false,
    };
    let (outs, _) = WorkerPool::new(pool(true)).run_tasks(reg, vec![task], None, None, seed)?;
    match outs.first() {
        Some(o) if o.outcome.is_ok() => Ok(()),
        _ => Err(io::Error::other("the bring-up task did not complete")),
    }
}

fn set_up(seed: u64) -> io::Result<Setup> {
    let reg = treu::full_registry();
    let env_fingerprint = Environment::capture().fingerprint();
    let index_hash = hash_bytes(reg.render_index().as_bytes());
    bring_up(&reg, seed)?;
    Ok(Setup { reg, env_fingerprint, index_hash })
}

struct Batch {
    report: VerifyReport,
    stats: SvcStats,
    chain_ok: bool,
}

/// One seed: sharded verify, trace written, link sealed, chain verified.
fn batch(
    s: &Setup,
    seed: u64,
    dir: &Path,
    rec: Option<&Recorder>,
    parent: Option<usize>,
) -> io::Result<Batch> {
    let policy = SupervisePolicy::default();
    let (report, stats) = maybe(rec, "svc.verify_all_svc", parent, |_| {
        verify_all_svc(&s.reg, seed, None, &policy, None, params, pool(true))
    })?;
    let trace_dir = dir.join("trace");
    maybe(rec, "trace.write", parent, |_| report.trace.write(&trace_dir))?;
    let store = AttestStore::open(&dir.join("attest"));
    let key = AttestKey::derive(ATTEST_KEY_SEED);
    maybe(rec, "attest.seal", parent, |_| -> io::Result<()> {
        store.write_key(&key)?;
        store.write_layout(&Layout::default_pipeline(&key))?;
        let mut draft = LinkDraft::new("verify", seed);
        draft.absorb_verify(&report);
        draft.material("registry:index", s.index_hash);
        draft.material("env:fingerprint", s.env_fingerprint);
        let events = report.trace.render_events();
        draft.product(format!("trace:{}", report.trace.file_name()), hash_bytes(events.as_bytes()));
        store.append(&key, draft).map(drop)
    })?;
    let vctx = VerifyContext {
        cache_dir: None,
        trace_dir: Some(&trace_dir),
        registry_index_hash: Some(s.index_hash),
        env_fingerprint: Some(s.env_fingerprint),
    };
    let chain = maybe(rec, "attest.verify_chain", parent, |_| verify_chain(&store, &key, &vctx));
    Ok(Batch { report, stats, chain_ok: chain.ok() && chain.links() == 1 })
}

/// The timed phase: one unit per seed's batch, in order; `aside` runs
/// after each.
fn phase(
    ctx: &Ctx,
    s: &Setup,
    seeds: &[u64],
    aside: impl FnMut() -> io::Result<()>,
) -> io::Result<(Vec<Batch>, Phase)> {
    let unit = |i: usize| batch(s, seeds[i], &ctx.work.join(format!("seed-{i}")), None, None);
    Phase::run(seeds.len(), unit, aside)
}

/// The in-process verification of the same seed, params and total jobs.
fn in_process(s: &Setup, seed: u64) -> VerifyReport {
    Executor::new(WORKERS).verify_all_with(&s.reg, seed, params)
}

/// Per seed: one operation per id verdict (fails unless reproduced), one
/// for the trace (fails unless the sharded content hash equals the
/// in-process one), one for the attestation chain and one for the pool
/// (fails if any shard was requeued).
fn check(out: &mut Outcome, s: &Setup, seed: u64, b: &Batch, reference: &VerifyReport) {
    let ids = s.reg.len();
    let reproduced = b.report.outcomes.iter().filter(|o| o.reproduced).count();
    let (sharded, local) = (b.report.trace.content_hash(), reference.trace.content_hash());
    let bad = (ids - reproduced.min(ids))
        + usize::from(sharded != local)
        + usize::from(!b.chain_ok)
        + usize::from(b.stats.requeues > 0);
    if bad > 0 {
        eprintln!(
            "verify-sharded: seed {seed}: {reproduced}/{ids} reproduced, trace {sharded:#018x} \
             vs in-process {local:#018x}, chain ok: {}, requeues: {}",
            b.chain_ok, b.stats.requeues
        );
    }
    out.check(ids as u64 + 3, bad as u64);
}

pub fn run(ctx: &Ctx) -> io::Result<Outcome> {
    let seeds = seeds(ctx);
    let mut out = Outcome::default();
    if ctx.traced {
        traced(ctx, &set_up(ctx.seed)?, &seeds, &mut out)?;
        return Ok(out);
    }
    // A set-up spawns a worker pool, tens of milliseconds: one set-up
    // before the timed phase and one after each seed's batch, each its
    // own block.
    let mut setups = SetUps::new(seeds.len() + 1, 1, Duration::ZERO, |_| set_up(ctx.seed));
    let setup = setups.sample()?;
    let (done, phase) = phase(ctx, &setup, &seeds, || setups.sample().map(drop))?;
    for (b, &seed) in done.iter().zip(&seeds) {
        check(&mut out, &setup, seed, b, &in_process(&setup, seed));
    }
    phase.report(&mut out, setups.seconds());
    Ok(out)
}

/// Longest single id in a verify batch: first to last event of its run.
fn critical_path(report: &VerifyReport) -> f64 {
    let span = |evs: &[(u64, _, f64)]| {
        let at = evs.iter().map(|e| e.2);
        at.clone().fold(f64::NEG_INFINITY, f64::max) - at.fold(f64::INFINITY, f64::min)
    };
    report.trace.runs.iter().filter(|r| !r.is_empty()).map(|r| span(r.events())).fold(0.0, f64::max)
}

fn traced(ctx: &Ctx, s: &Setup, seeds: &[u64], out: &mut Outcome) -> io::Result<()> {
    let rec = Recorder::new();
    let units = rec.span("bench.verify-sharded", None, |root| -> io::Result<_> {
        let mut bringups = Vec::with_capacity(BRINGUPS);
        for _ in 0..BRINGUPS {
            let (r, t) =
                timed(|| rec.span("svc.bringup", Some(root), |_| bring_up(&s.reg, ctx.seed)));
            r?;
            bringups.push(t);
        }
        out.set("svc.bringup_s", median(&bringups));

        let units = twinned(&rec, root, seeds.len(), |i, parent| {
            let dir = ctx.work.join(format!("seed-{i}-{}", u8::from(parent.is_some())));
            batch(s, seeds[i], &dir, parent.map(|_| &rec), parent)
        })?;
        let done = &units.out;
        let sum = |f: fn(&Batch) -> f64| done.iter().map(f).sum::<f64>();
        out.set("svc.spawned", sum(|b| b.stats.spawned.into()));
        out.set("svc.shards", sum(|b| b.stats.shards.into()));
        out.set("svc.heartbeats", sum(|b| b.stats.heartbeats.into()));
        out.set("svc.requeues", sum(|b| b.stats.requeues.into()));
        out.set("trace.events", sum(|b| b.report.counters.events as f64));

        // Interleaved comparisons per seed: the service with the trace
        // layer on and off (order alternating), and the in-process
        // verifier for the service's overhead and the trace-hash check.
        let (mut on, mut off, mut svc_overhead, mut critical) = (0.0, 0.0, Vec::new(), Vec::new());
        let policy = SupervisePolicy::default();
        for (i, (&seed, b)) in seeds.iter().zip(done).enumerate() {
            let sharded = |tracing: bool| -> io::Result<f64> {
                let name = if tracing { "svc.trace_on" } else { "svc.trace_off" };
                let (r, t) = timed(|| {
                    rec.span(name, Some(root), |_| {
                        verify_all_svc(&s.reg, seed, None, &policy, None, params, pool(tracing))
                    })
                });
                r?;
                Ok(t)
            };
            let (t_on, t_off) = if i % 2 == 0 {
                let t_on = sharded(true)?;
                (t_on, sharded(false)?)
            } else {
                let t_off = sharded(false)?;
                (sharded(true)?, t_off)
            };
            on += t_on;
            off += t_off;
            let (reference, t_local) =
                timed(|| rec.span("exec.verify_all_with", Some(root), |_| in_process(s, seed)));
            svc_overhead.push(t_on - t_local);
            critical.push(critical_path(&reference));
            check(out, s, seed, b, &reference);
            rec.span("trace.content_hash", Some(root), |_| {
                black_box(b.report.trace.content_hash())
            });
        }
        out.set("trace.overhead_pct", (on - off) / off * 100.0);
        out.set("svc.overhead_s", median(&svc_overhead));
        out.set("exec.verify_critical_path_s", median(&critical));
        probe_frames(&rec, root, s, seeds[0], out)?;
        Ok(units)
    })?;
    let spans = rec.into_spans();
    let ms = |name: &str| median(&durations(&spans, name)) * 1e3;
    out.set("trace.write_ms", ms("trace.write"));
    out.set("attest.seal_ms", ms("attest.seal"));
    out.set("attest.verify_chain_ms", ms("attest.verify_chain"));
    out.set("trace.content_hash_us", ms("trace.content_hash") * 1e3);
    attribute(out, &spans, &units);
    ctx.write_spans(&spans)?;
    Ok(())
}

/// `write_frame` plus `read_frame` over payloads sized like the batch's
/// result frames: the rendered trail of every id at conformance params.
fn probe_frames(
    rec: &Recorder,
    root: usize,
    s: &Setup,
    seed: u64,
    out: &mut Outcome,
) -> io::Result<()> {
    let ids: Vec<&str> = s.reg.iter().map(|(id, _)| id).collect();
    let payloads: Vec<String> = Executor::new(WORKERS).map_indexed(ids.len(), |i| {
        let run = s.reg.run_with(ids[i], seed, treu::conformance_params(ids[i]));
        run.expect("id comes from the registry").trail.render()
    });
    let kib = payloads.iter().map(String::len).sum::<usize>() as f64 / 1024.0;
    let mut reps = Vec::new();
    for _ in 0..25 {
        let (r, t) = timed(|| {
            rec.span("svc.frame_roundtrip", Some(root), |_| -> io::Result<()> {
                let mut wire = Vec::new();
                for p in &payloads {
                    write_frame(&mut wire, p)?;
                }
                let mut reader = BufReader::new(Cursor::new(wire));
                while let Some(frame) = read_frame(&mut reader)? {
                    black_box(frame);
                }
                Ok(())
            })
        });
        r?;
        reps.push(t * 1e6 / kib);
    }
    out.set("svc.frame_roundtrip_us_per_kib", median(&reps));
    Ok(())
}
