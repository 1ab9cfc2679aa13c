//! `replay-zipf`: a closed loop with one client replaying a Zipf
//! multi-tenant stream of `(id, seed)` requests — the shape of
//! `treu soak` at fault rate 0 — through a run cache whose LRU bound is
//! smaller than the key space. Rounds of requests go lookups first, then
//! the misses computed across the executor, then the stores, all in
//! request order. Only sub-millisecond ids are requested, so the cache
//! and the trail codec carry most of the work, and reads run beside
//! writes and evictions.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::Duration;

use treu::core::cache::{run_entry_file, CacheBound, CacheStats, Lookup, RunCache};
use treu::core::environment::Environment;
use treu::core::exec::Executor;
use treu::core::experiment::{Params, RunRecord};
use treu::core::provenance::Trail;
use treu::core::ExperimentRegistry;
use treu::math::rng::derive_seed;
use treu::math::stats::median;
use treu_bench::soak::{generate, SoakConfig};

use crate::common::{attribute, per_call_us, twinned, Ctx, Phase, SetUps};
use crate::report::Outcome;
use crate::spans::{durations, maybe, self_times, Recorder};

const JOBS: usize = 2;
/// Set-up is tens of microseconds: 60 fresh set-ups before the timed
/// phase and 60 after each replay, each opening a cache in a directory of
/// its own, counted in 15 blocks.
const SETUP_BLOCKS: usize = 15;
const SETUP_PER_SAMPLE: usize = 60;
const SETUP_PAUSE: Duration = Duration::from_millis(1);
/// Requests per dispatch round (the soak's round capacity).
const ROUND: usize = 16;
/// Requests in the stream. Each replay of it is one timed unit on a fresh
/// cache, and every replay must evict in the same order.
const REQUESTS: usize = 60_000;
/// Wall seconds of one replay on the reference host; sizes the replay
/// count from `--seconds`.
const SECONDS_PER_REPLAY: f64 = 1.7;
/// Soak streams the request stream is made of.
const SUBSTREAMS: usize = 3;
/// LRU bound in entries, below the 128 distinct keys each soak stream
/// requests: about 1.3% of lookups miss, and every miss evicts.
const BOUND: usize = 104;

/// A registry of only the sub-millisecond ids, built by their crates'
/// own `register` functions: T1, T2, T3, N1, E2.5, E2.5-abl, E3 and
/// cluster_faults.
pub fn registry() -> ExperimentRegistry {
    let mut reg = ExperimentRegistry::new();
    treu::surveys::experiments::register(&mut reg);
    treu::autotune::experiment::register(&mut reg);
    treu::cluster::experiment::register(&mut reg);
    reg
}

/// The request stream: `SUBSTREAMS` soak streams of `n / SUBSTREAMS`
/// requests each, from seeds derived from `seed`, back to back. Each has
/// its own tenant preferences, so a run's hit ratio averages over many
/// preference draws instead of hanging on one seed's hottest tenant. A
/// pure function of `(seed, ids, n)`.
pub fn stream(seed: u64, ids: &[String], n: usize) -> Vec<(String, u64)> {
    (0..SUBSTREAMS)
        .flat_map(|k| {
            let cfg = SoakConfig {
                seed: derive_seed(seed, &format!("replay-zipf.{k}")),
                tenants: 32,
                submissions_per_epoch: n / SUBSTREAMS,
                epochs: 1,
                capacity: ROUND,
                quota: 4,
                zipf_s: 1.1,
                ids_per_tenant: 4,
                seeds_per_tenant: 4,
                fault_seed: 0,
                fault_rate: 0.0,
                bound: CacheBound::entries(BOUND),
                jobs: JOBS,
            };
            generate(&cfg, ids).into_iter().map(|s| (s.id, s.seed))
        })
        .collect()
}

struct Setup {
    reg: ExperimentRegistry,
    params: BTreeMap<String, Params>,
}

fn open(dir: &Path) -> io::Result<RunCache> {
    RunCache::open_bounded(dir, CacheBound::entries(BOUND))
}

/// Registry build, environment capture and opening the first replay's
/// fresh cache; later replays open theirs at the start of their unit.
fn set_up(dir: &Path) -> io::Result<(Setup, RunCache)> {
    let reg = registry();
    let params = reg.iter().map(|(id, e)| (id.to_string(), e.defaults.clone())).collect();
    black_box(Environment::capture().fingerprint());
    Ok((Setup { reg, params }, open(dir)?))
}

/// What one replay served: the fingerprint of every request's record, its
/// cache's stats and eviction-log address, and the bytes moved when
/// traced.
struct Served {
    fingerprints: Vec<u64>,
    stats: CacheStats,
    evictions: u64,
    bytes_read: u64,
    bytes_written: u64,
}

/// One replay of the stream through a fresh `cache`.
fn replay(
    s: &Setup,
    cache: RunCache,
    requests: &[(String, u64)],
    rec: Option<&Recorder>,
    parent: Option<usize>,
) -> io::Result<Served> {
    let exec = Executor::new(JOBS).with_tracing(false);
    let size = |id: &str, seed: u64, p: &Params| {
        std::fs::metadata(cache.dir().join(run_entry_file(id, seed, p))).map_or(0, |m| m.len())
    };
    let mut served = Served {
        fingerprints: Vec::with_capacity(requests.len()),
        stats: CacheStats::default(),
        evictions: 0,
        bytes_read: 0,
        bytes_written: 0,
    };
    for round in requests.chunks(ROUND) {
        let base = served.fingerprints.len();
        served.fingerprints.resize(base + round.len(), 0);
        let mut missed = Vec::new();
        for (k, (id, seed)) in round.iter().enumerate() {
            let p = &s.params[id];
            let start = rec.map(Recorder::now);
            let found = cache.lookup_classified(id, *seed, p);
            let hit = matches!(found, Lookup::Hit(_));
            if let (Some(r), Some(start)) = (rec, start) {
                let name = if hit { "cache.lookup_hit" } else { "cache.lookup_miss" };
                r.push(name, parent, start, r.now());
                if hit {
                    served.bytes_read += size(id, *seed, p);
                }
            }
            match found {
                Lookup::Hit(record) => served.fingerprints[base + k] = record.fingerprint(),
                _ => missed.push(k),
            }
        }
        if missed.is_empty() {
            continue;
        }
        let computed: Vec<RunRecord> = maybe(rec, "exec.map_indexed", parent, |map| {
            exec.map_indexed(missed.len(), |m| {
                let (id, seed) = &round[missed[m]];
                maybe(rec, &format!("experiment.{id}"), map, |_| {
                    s.reg
                        .run_with(id, *seed, s.params[id].clone())
                        .expect("requested ids are registered")
                })
            })
        });
        for (&k, record) in missed.iter().zip(computed) {
            let (id, seed) = &round[k];
            let p = &s.params[id];
            maybe(rec, "cache.store", parent, |_| cache.store(id, *seed, p, &record))?;
            if rec.is_some() {
                served.bytes_written += size(id, *seed, p);
            }
            served.fingerprints[base + k] = record.fingerprint();
        }
    }
    served.stats = cache.stats();
    served.evictions = cache.eviction_fingerprint();
    Ok(served)
}

/// Replays per run: a pure function of `--seconds`.
fn replays(ctx: &Ctx) -> usize {
    ((ctx.seconds as f64 / SECONDS_PER_REPLAY).round() as usize).max(3)
}

/// The timed phase: one unit per replay, each on its own fresh cache
/// (`first` is the set-up's; the others are opened at the start of their
/// unit); `aside` runs after each.
fn phase(
    ctx: &Ctx,
    s: &Setup,
    first: RunCache,
    requests: &[(String, u64)],
    aside: impl FnMut() -> io::Result<()>,
) -> io::Result<(Vec<Served>, Phase)> {
    let mut first = Some(first);
    let unit = |r: usize| {
        let cache = match first.take() {
            Some(c) => c,
            None => open(&ctx.work.join(format!("cache-{r}")))?,
        };
        replay(s, cache, requests, None, None)
    };
    Phase::run(replays(ctx), unit, aside)
}

/// Fresh records of every distinct key, the reference the served
/// fingerprints must match.
fn reference(s: &Setup, requests: &[(String, u64)]) -> BTreeMap<(String, u64), RunRecord> {
    let keys: Vec<(String, u64)> =
        requests.iter().cloned().collect::<std::collections::BTreeSet<_>>().into_iter().collect();
    let records = Executor::new(JOBS).map_indexed(keys.len(), |i| {
        let (id, seed) = &keys[i];
        s.reg.run_with(id, *seed, s.params[id].clone()).expect("requested ids are registered")
    });
    keys.into_iter().zip(records).collect()
}

/// One operation per request (fails when its fingerprint drifts from a
/// fresh recompute) and one per replay (fails when its eviction log
/// address differs from the first replay's).
fn check(
    out: &mut Outcome,
    requests: &[(String, u64)],
    served: &[Served],
    fresh: &BTreeMap<(String, u64), RunRecord>,
) {
    for (r, sv) in served.iter().enumerate() {
        let drift = requests
            .iter()
            .zip(&sv.fingerprints)
            .filter(|(key, &fp)| fresh[*key].fingerprint() != fp)
            .count();
        let diverged = sv.evictions != served[0].evictions;
        if drift > 0 || diverged {
            eprintln!(
                "replay-zipf: replay {r}: {drift} drifted request(s), eviction log {:#018x}",
                sv.evictions
            );
        }
        out.check(requests.len() as u64 + 1, (drift + usize::from(diverged)) as u64);
    }
}

pub fn run(ctx: &Ctx) -> io::Result<Outcome> {
    // The set-up caches' directories exist beforehand, as a user's
    // `--cache-dir` usually does: set-up times opening the cache, not a
    // mkdir, whose journal cost on a shared disk swamps everything else.
    let samples = if ctx.traced { 1 } else { replays(ctx) + 1 };
    let dirs: Vec<_> =
        (0..samples * SETUP_PER_SAMPLE).map(|rep| ctx.work.join(format!("setup-{rep}"))).collect();
    for dir in &dirs {
        std::fs::create_dir(dir)?;
    }
    let mut setups =
        SetUps::new(SETUP_BLOCKS, SETUP_PER_SAMPLE, SETUP_PAUSE, |rep| set_up(&dirs[rep]));
    let (setup, first) = setups.sample()?;
    let ids: Vec<String> = setup.reg.iter().map(|(id, _)| id.to_string()).collect();
    let requests = stream(ctx.seed, &ids, REQUESTS);
    let mut out = Outcome::default();
    if ctx.traced {
        drop(first);
        traced(ctx, &setup, &requests, &mut out)?;
        return Ok(out);
    }
    let aside = || setups.sample().map(drop);
    let (served, phase) = phase(ctx, &setup, first, &requests, aside)?;
    check(&mut out, &requests, &served, &reference(&setup, &requests));
    phase.report(&mut out, setups.seconds());
    Ok(out)
}

fn traced(ctx: &Ctx, s: &Setup, requests: &[(String, u64)], out: &mut Outcome) -> io::Result<()> {
    let rec = Recorder::new();
    let units = rec.span("bench.replay-zipf", None, |root| -> io::Result<_> {
        let units = twinned(&rec, root, replays(ctx), |r, parent| {
            let cache = open(&ctx.work.join(format!("cache-{r}-{}", u8::from(parent.is_some()))))?;
            replay(s, cache, requests, parent.map(|_| &rec), parent)
        })?;
        let served = &units.out;
        let fresh = reference(s, requests);
        check(out, requests, served, &fresh);
        let mut stats = CacheStats::default();
        for sv in served {
            stats.merge(&sv.stats);
        }
        out.set("cache.lookups", stats.lookups as f64);
        out.set("cache.hit_ratio", stats.hits as f64 / stats.lookups as f64);
        out.set("cache.stores", stats.stores as f64);
        out.set("cache.evictions", stats.evictions as f64);
        out.set("cache.bytes_read", served.iter().map(|v| v.bytes_read as f64).sum());
        out.set("cache.bytes_written", served.iter().map(|v| v.bytes_written as f64).sum());

        let records: Vec<&RunRecord> = fresh.values().collect();
        let rendered: Vec<String> = records.iter().map(|r| r.trail.render()).collect();
        let n = records.len();
        let render = per_call_us(&rec, "provenance.trail_render", root, n, |i| {
            black_box(records[i].trail.render());
        });
        let parse = per_call_us(&rec, "provenance.trail_parse", root, n, |i| {
            black_box(Trail::parse(&rendered[i]).expect("rendered trails parse"));
        });
        let fingerprint = per_call_us(&rec, "provenance.fingerprint", root, n, |i| {
            black_box(records[i].fingerprint());
        });
        out.set("provenance.trail_render_us", render);
        out.set("provenance.trail_parse_us", parse);
        out.set("provenance.fingerprint_us", fingerprint);
        Ok(units)
    })?;
    let spans = rec.into_spans();
    let us = |name: &str| median(&durations(&spans, name)) * 1e6;
    out.set("cache.lookup_hit_us", us("cache.lookup_hit"));
    out.set("cache.lookup_miss_us", us("cache.lookup_miss"));
    out.set("cache.store_us", us("cache.store"));
    let compute: f64 =
        spans.iter().filter(|sp| sp.layer() == "experiment").map(|sp| sp.duration()).sum();
    out.set("experiment.miss_compute_s", compute);
    let selfs = self_times(&spans);
    let fanout: Vec<f64> = spans
        .iter()
        .zip(&selfs)
        .filter(|(sp, _)| sp.name == "exec.map_indexed")
        .map(|(_, t)| *t)
        .collect();
    out.set("exec.fanout_us", fanout.iter().sum::<f64>() / fanout.len() as f64 * 1e6);
    attribute(out, &spans, &units);
    ctx.write_spans(&spans)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn ids() -> Vec<String> {
        registry().iter().map(|(id, _)| id.to_string()).collect()
    }

    #[test]
    fn registry_holds_the_sub_millisecond_ids() {
        let want = ["E2.5", "E2.5-abl", "E3", "N1", "T1", "T2", "T3", "cluster_faults"];
        assert_eq!(ids(), want);
    }

    #[test]
    fn stream_is_a_pure_function_of_its_seed() {
        let ids = ids();
        let a = stream(7, &ids, 1200);
        assert_eq!(a.len(), 1200);
        assert_eq!(a, stream(7, &ids, 1200));
        assert_ne!(a, stream(8, &ids, 1200));
    }

    #[test]
    fn stream_is_skewed_and_outgrows_the_cache() {
        let requests = stream(1, &ids(), REQUESTS);
        let mut counts: BTreeMap<&(String, u64), usize> = BTreeMap::new();
        for r in &requests {
            *counts.entry(r).or_insert(0) += 1;
        }
        assert!(counts.len() > BOUND, "{} keys fit the {BOUND}-entry bound", counts.len());
        let first: BTreeSet<_> = requests[..REQUESTS / SUBSTREAMS].iter().collect();
        assert!(first.len() > BOUND, "one soak stream's {} keys fit the bound", first.len());
        let mut freq: Vec<usize> = counts.into_values().collect();
        freq.sort_unstable();
        assert!(freq[freq.len() - 1] > 10 * freq[freq.len() / 2], "hot keys dominate");
    }
}
