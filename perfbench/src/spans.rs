//! The traced run's span recorder and the self-time arithmetic over it.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer, kept in memory, and written out as JSONL when the run ends. A
//! span's layer is its name up to the first `.` (`cache.store` belongs
//! to `cache`).

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span, in seconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }

    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// Thread-safe in-memory span store; span ids are indices into it.
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Self {
        Self { epoch: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    /// Seconds since the recorder was created.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a span; `f` gets the span's id to parent children.
    pub fn span<T>(&self, name: &str, parent: Option<usize>, f: impl FnOnce(usize) -> T) -> T {
        let start = self.now();
        let id = {
            let mut spans = self.spans.lock().expect("span store poisoned");
            spans.push(Span { name: name.to_string(), start, end: start, parent });
            spans.len() - 1
        };
        let out = f(id);
        let end = self.now();
        self.spans.lock().expect("span store poisoned")[id].end = end;
        out
    }

    /// Records a finished leaf span whose name is only known afterwards
    /// (a cache lookup is a hit or a miss once it returns).
    pub fn push(&self, name: &str, parent: Option<usize>, start: f64, end: f64) {
        let span = Span { name: name.to_string(), start, end, parent };
        self.spans.lock().expect("span store poisoned").push(span);
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("span store poisoned")
    }
}

/// [`Recorder::span`] in a traced run, a plain call otherwise — so the
/// traced and untraced runs execute the same code path.
pub fn maybe<T>(
    rec: Option<&Recorder>,
    name: &str,
    parent: Option<usize>,
    f: impl FnOnce(Option<usize>) -> T,
) -> T {
    match rec {
        Some(r) => r.span(name, parent, |id| f(Some(id))),
        None => f(None),
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its children cover. Children may overlap one another (parallel
/// workers) or spill past the parent; a covered instant counts once and
/// only inside the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| s.duration() - covered(s.start, s.end, &mut kids))
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(lo: f64, hi: f64, intervals: &mut [(f64, f64)]) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut run: Option<(f64, f64)> = None;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(lo), b.min(hi));
        if b <= a {
            continue;
        }
        run = match run {
            Some((ra, rb)) if a <= rb => Some((ra, rb.max(b))),
            Some((ra, rb)) => {
                total += rb - ra;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + run.map_or(0.0, |(ra, rb)| rb - ra)
}

/// Self time summed per layer.
pub fn layer_self_times(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer().to_string()).or_insert(0.0) += t;
    }
    out
}

/// Durations of the spans named `name`, in record order.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(Span::duration).collect()
}

/// One JSON object per span, in id order.
pub fn render_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{id},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent}}}\n",
            s.name, s.start, s.end
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span { name: name.to_string(), start, end, parent }
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn nested_children_are_subtracted_once_per_level() {
        let spans = vec![
            span("bench.root", 0.0, 10.0, None),
            span("exec.batch", 1.0, 9.0, Some(0)),
            span("experiment.a", 2.0, 5.0, Some(1)),
            span("math.kernel", 3.0, 4.0, Some(2)),
        ];
        let t = self_times(&spans);
        assert!(close(t[0], 2.0));
        assert!(close(t[1], 5.0));
        assert!(close(t[2], 2.0));
        assert!(close(t[3], 1.0));
        assert!(close(t.iter().sum::<f64>(), 10.0), "self times partition the root");
    }

    #[test]
    fn overlapping_children_count_covered_time_once() {
        // Two parallel workers: [1,6] and [4,8] cover [1,8] = 7 s.
        let spans = vec![
            span("exec.batch", 0.0, 10.0, None),
            span("experiment.a", 1.0, 6.0, Some(0)),
            span("experiment.b", 4.0, 8.0, Some(0)),
        ];
        let t = self_times(&spans);
        assert!(close(t[0], 3.0));
        assert!(close(t[1], 5.0));
        assert!(close(t[2], 4.0));
    }

    #[test]
    fn children_spilling_past_the_parent_are_clipped() {
        let spans = vec![
            span("exec.batch", 2.0, 6.0, None),
            span("experiment.a", 0.0, 3.0, Some(0)),
            span("experiment.b", 5.0, 9.0, Some(0)),
            span("experiment.c", 7.0, 8.0, Some(0)),
        ];
        let t = self_times(&spans);
        assert!(close(t[0], 2.0), "{}", t[0]);
    }

    #[test]
    fn disjoint_and_contained_children() {
        let spans = vec![
            span("exec.batch", 0.0, 10.0, None),
            span("experiment.a", 1.0, 2.0, Some(0)),
            span("experiment.b", 3.0, 7.0, Some(0)),
            span("experiment.c", 4.0, 5.0, Some(0)),
        ];
        assert!(close(self_times(&spans)[0], 5.0));
    }

    #[test]
    fn layers_sum_self_time_and_recorder_nests() {
        let rec = Recorder::new();
        rec.span("bench.root", None, |root| {
            rec.span("cache.lookup", Some(root), |_| {});
            let t0 = rec.now();
            rec.push("cache.store", Some(root), t0, rec.now());
        });
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.end >= s.start));
        let layers = layer_self_times(&spans);
        assert_eq!(layers.keys().collect::<Vec<_>>(), ["bench", "cache"]);
        let sum: f64 = layers.values().sum();
        assert!(close(sum, spans[0].duration()));
        assert_eq!(render_jsonl(&spans).lines().count(), 3);
    }
}
