//! What every workload shares: the run context, timing helpers and the
//! traced run's per-layer attribution.

use std::fs;
use std::io;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use treu::math::stats::median;

use crate::procstat::{cpu_seconds, peak_rss_mb};
use crate::report::{Outcome, LAYERS};
use crate::spans::{layer_self_times, render_jsonl, Recorder, Span};

/// Directory under the working directory that holds each run's scratch
/// space and the spans of traced runs. Nothing in it is read back by a
/// later run.
const STATE_DIR: &str = ".perfbench-work";

/// Layer of the spans around a traced run's untraced twin units; they
/// are left out of the layer report.
const TWIN: &str = "untraced";

/// One run's options plus its private scratch directory, which is
/// removed when the context drops.
pub struct Ctx {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub work: PathBuf,
}

impl Ctx {
    pub fn new(workload: &'static str, seed: u64, seconds: u64, traced: bool) -> io::Result<Self> {
        let work = PathBuf::from(STATE_DIR).join(format!("run-{}", std::process::id()));
        if work.exists() {
            fs::remove_dir_all(&work)?;
        }
        fs::create_dir_all(&work)?;
        Ok(Self { workload, seed, seconds, traced, work })
    }

    /// Writes the traced run's spans as JSONL; returns the path.
    pub fn write_spans(&self, spans: &[Span]) -> io::Result<PathBuf> {
        let path =
            PathBuf::from(STATE_DIR).join(format!("spans-{}-{}.jsonl", self.workload, self.seed));
        fs::write(&path, render_jsonl(spans))?;
        Ok(path)
    }
}

impl Drop for Ctx {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.work);
    }
}

/// Runs `f` and returns its result with the wall seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Median per-call microseconds of a layer probe: 15 spans of `calls`
/// calls to `f(i)` each, `i` counting the calls within a span.
pub fn per_call_us(
    rec: &Recorder,
    name: &str,
    parent: usize,
    calls: usize,
    mut f: impl FnMut(usize),
) -> f64 {
    let reps = (0..15).map(|_| {
        let (_, t) = timed(|| rec.span(name, Some(parent), |_| (0..calls).for_each(&mut f)));
        t * 1e6 / calls as f64
    });
    median(&reps.collect::<Vec<_>>())
}

/// Fresh set-ups, sampled before the timed phase and between its units
/// (see [`Phase::run`]), so that `setup_s` sees the same moments of the
/// host as the phase does. Each set-up is timed on its own and counted in
/// block `i % blocks`, so that every block gathers set-ups from every
/// sample: on a host whose speed for syscalls and allocation flips from
/// one moment to the next, each block then mixes the moments alike.
/// The thread also pauses between the 20 chunks of a sample, so that the
/// scheduler may move it and a sample spans more than one moment.
/// `make(i)` makes set-up `i`; each set-up but a sample's last is dropped
/// as soon as its clock stops, so that set-ups do not add to peak RSS.
pub struct SetUps<F> {
    make: F,
    per_sample: usize,
    pause: Duration,
    made: usize,
    blocks: Vec<(f64, usize)>,
}

impl<S, F: FnMut(usize) -> io::Result<S>> SetUps<F> {
    /// `per_sample` set-ups per [`SetUps::sample`], counted in `blocks`
    /// blocks, with `pause` between a sample's chunks.
    pub fn new(blocks: usize, per_sample: usize, pause: Duration, make: F) -> Self {
        Self { make, per_sample, pause, made: 0, blocks: vec![(0.0, 0); blocks] }
    }

    /// Makes and times one sample of set-ups; returns the last.
    pub fn sample(&mut self) -> io::Result<S> {
        let mut last = None;
        let chunk = (self.per_sample / 20).max(1);
        for k in 0..self.per_sample {
            if k > 0 && k % chunk == 0 {
                std::thread::sleep(self.pause);
            }
            let i = self.made;
            let (s, t) = timed(|| (self.make)(i));
            last = Some(s?);
            let n = self.blocks.len();
            let block = &mut self.blocks[i % n];
            block.0 += t;
            block.1 += 1;
            self.made += 1;
        }
        Ok(last.expect("a sample makes at least one set-up"))
    }

    /// Seconds per set-up: the median over blocks of a block's mean.
    pub fn seconds(&self) -> f64 {
        let means: Vec<f64> =
            self.blocks.iter().filter(|b| b.1 > 0).map(|&(t, n)| t / n as f64).collect();
        median(&means)
    }
}

/// What a traced run's timed units took: their outputs, and the summed
/// wall of the traced units and of their untraced twins.
pub struct Twinned<T> {
    pub out: Vec<T>,
    pub traced_s: f64,
    pub untraced_s: f64,
}

/// A traced run's timed phase: `n` units, each run once traced (under a
/// `bench.timed` span, so `unit(i, Some(parent))`) and once untraced
/// (`unit(i, None)`), in alternating order so that both halves see the
/// same host phases. Their difference is the tracing overhead.
pub fn twinned<T>(
    rec: &Recorder,
    root: usize,
    n: usize,
    mut unit: impl FnMut(usize, Option<usize>) -> io::Result<T>,
) -> io::Result<Twinned<T>> {
    let mut tw = Twinned { out: Vec::with_capacity(n), traced_s: 0.0, untraced_s: 0.0 };
    for i in 0..n {
        for traced in [i % 2 == 0, i % 2 == 1] {
            if traced {
                let (r, t) = timed(|| rec.span("bench.timed", Some(root), |id| unit(i, Some(id))));
                tw.out.push(r?);
                tw.traced_s += t;
            } else {
                let twin = format!("{TWIN}.unit");
                let (r, t) = timed(|| rec.span(&twin, Some(root), |_| unit(i, None)));
                r?;
                tw.untraced_s += t;
            }
        }
    }
    Ok(tw)
}

/// A timed phase: its wall and CPU seconds and the RSS high-water mark
/// when it ended, before any correctness check ran.
pub struct Phase {
    pub wall: f64,
    pub cpu: f64,
    pub peak_rss_mb: f64,
}

impl Phase {
    /// Runs `n` units of `f` (registry passes, seeds' batches, replays)
    /// as one timed phase. `aside` runs after each unit, off the phase's
    /// wall and CPU clocks.
    pub fn run<T>(
        n: usize,
        mut f: impl FnMut(usize) -> io::Result<T>,
        mut aside: impl FnMut() -> io::Result<()>,
    ) -> io::Result<(Vec<T>, Phase)> {
        let (mut out, mut wall, mut cpu) = (Vec::with_capacity(n), 0.0, 0.0);
        for i in 0..n {
            let cpu0 = cpu_seconds();
            let (r, t) = timed(|| f(i));
            cpu += cpu_seconds() - cpu0;
            wall += t;
            out.push(r?);
            aside()?;
        }
        Ok((out, Phase { wall, cpu, peak_rss_mb: peak_rss_mb() }))
    }

    /// Sets an untraced run's end-to-end metrics.
    pub fn report(&self, out: &mut Outcome, setup_s: f64) {
        out.set("wall_s", self.wall);
        out.set("cpu_s", self.cpu);
        out.set("setup_s", setup_s);
        out.set("peak_rss_mb", self.peak_rss_mb);
    }
}

/// The traced run's layer report: each layer's self time and share of
/// the wall of the root span (span 0) less its untraced twin units, plus
/// the tracing overhead: the traced units' wall against their twins'.
pub fn attribute<T>(out: &mut Outcome, spans: &[Span], units: &Twinned<T>) {
    let twins: f64 = spans.iter().filter(|s| s.layer() == TWIN).map(Span::duration).sum();
    let wall = spans[0].duration() - twins;
    for (layer, t) in layer_self_times(spans) {
        if layer == TWIN {
            continue;
        }
        assert!(LAYERS.contains(&layer.as_str()), "span layer {layer} is not catalogued");
        out.set(format!("span.{layer}.share"), t / wall);
        out.set(format!("span.{layer}.self_s"), t);
    }
    out.set("span.count", spans.len() as f64);
    out.set("span.wall_s", units.traced_s);
    out.set("span.untraced_wall_s", units.untraced_s);
    out.set("span.overhead_s", units.traced_s - units.untraced_s);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span { name: name.to_string(), start, end, parent }
    }

    #[test]
    fn untraced_twins_stay_out_of_the_layer_report() {
        let spans = vec![
            span("bench.root", 0.0, 10.0, None),
            span("bench.timed", 0.0, 4.0, Some(0)),
            span("cache.store", 1.0, 3.0, Some(1)),
            span("untraced.unit", 4.0, 7.5, Some(0)),
        ];
        let units = Twinned { out: vec![()], traced_s: 4.0, untraced_s: 3.5 };
        let mut out = Outcome::default();
        attribute(&mut out, &spans, &units);
        let v = |n: &str| out.values[n];
        assert!(!out.values.contains_key("span.untraced.self_s"));
        assert_eq!(v("span.cache.self_s"), 2.0);
        assert_eq!(v("span.cache.share"), 2.0 / 6.5);
        assert_eq!(v("span.bench.self_s"), 4.5);
        assert_eq!(v("span.overhead_s"), 0.5);
    }

    #[test]
    fn twinned_units_alternate_and_are_timed_apart() {
        let rec = Recorder::new();
        let mut order = Vec::new();
        let tw = rec
            .span("bench.root", None, |root| {
                twinned(&rec, root, 3, |i, parent| {
                    order.push((i, parent.is_some()));
                    Ok(i)
                })
            })
            .unwrap();
        assert_eq!(tw.out, [0, 1, 2]);
        let want = [(0, true), (0, false), (1, false), (1, true), (2, true), (2, false)];
        assert_eq!(order, want);
        let spans = rec.into_spans();
        assert_eq!(spans.iter().filter(|s| s.layer() == TWIN).count(), 3);
    }
}
