//! In-memory spans around the calls the harness makes into each layer.
//!
//! A span is `{layer, name, start_ns, end_ns, parent, rep}`; the recorder
//! keeps them in a vector and writes one JSON object per line when the run
//! ends. Spans *inside* the program under test are a later change (ROADMAP
//! 1b): until then a layer's inner work is estimated as count × unit cost
//! and the remainder is reported as `harness.unattributed_share`.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::json::Json;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Crate the call went into (`core`, `scenario`, …) or `harness`.
    pub layer: &'static str,
    /// The call, e.g. `OmegaVariant::build`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, same clock (`0` while the span is open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Rep the span belongs to — the identifier spans of one rep share.
    pub rep: usize,
}

impl Span {
    /// `end − start`.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span; the innermost open span is its parent.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        rep: usize,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            name,
            start_ns,
            end_ns: 0,
            parent: self.open.last().copied(),
            rep,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Everything recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span called `name`, in recording order.
    #[must_use]
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Writes one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let line = Json::obj([
                ("id", Json::Num(id as f64)),
                ("layer", Json::str(span.layer)),
                ("name", Json::str(span.name)),
                ("start_ns", Json::Num(span.start_ns as f64)),
                ("end_ns", Json::Num(span.end_ns as f64)),
                (
                    "parent",
                    span.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("rep", Json::Num(span.rep as f64)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover (children are clipped to the parent, and
/// overlapping siblings are counted once).
#[must_use]
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let lo = span.start_ns.max(spans[p].start_ns);
            let hi = span.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Self time per layer, in milliseconds, summed over all spans.
#[must_use]
pub fn self_ms_by_layer(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut totals: Vec<(&'static str, f64)> = Vec::new();
    for (span, own) in spans.iter().zip(self_times_ns(spans)) {
        let ms = own as f64 / 1e6;
        match totals.iter_mut().find(|(layer, _)| *layer == span.layer) {
            Some((_, total)) => *total += ms,
            None => totals.push((span.layer, ms)),
        }
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            layer,
            name: "x",
            start_ns: start,
            end_ns: end,
            parent,
            rep: 0,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let spans = [
            span("harness", 0, 1_000, None),
            span("core", 100, 300, Some(0)),
            span("scenario", 300, 900, Some(0)),
            span("sim", 400, 800, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![200, 200, 200, 400]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let spans = [
            span("harness", 100, 200, None),
            span("a", 110, 150, Some(0)),
            span("b", 140, 260, Some(0)), // overlaps `a`, overhangs the parent
        ];
        // covered = [110,150) ∪ [140,200) = 90 of the parent's 100.
        assert_eq!(self_times_ns(&spans)[0], 10);
    }

    #[test]
    fn layer_totals_add_up_to_the_root_duration() {
        let spans = [
            span("harness", 0, 1_000_000, None),
            span("core", 0, 400_000, Some(0)),
            span("core", 500_000, 700_000, Some(0)),
        ];
        let by_layer = self_ms_by_layer(&spans);
        let total: f64 = by_layer.iter().map(|(_, ms)| ms).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(by_layer[1].0, "core");
        assert!((by_layer[1].1 - 0.6).abs() < 1e-9);
    }

    #[test]
    fn recorder_nests_and_serializes() {
        let mut rec = Recorder::default();
        rec.span("harness", "rep", 3, |rec| {
            rec.span("core", "build", 3, |_| std::hint::black_box(1 + 1));
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].rep, 3);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert_eq!(rec.durations_ms("build").len(), 1);
        // Inside the crate's ignored `out/`: tests write nowhere else.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-spans-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        rec.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let second = Json::parse(lines[1]).unwrap();
        assert_eq!(second.get("layer").and_then(Json::as_str), Some("core"));
        assert_eq!(second.get("parent").and_then(Json::as_f64), Some(0.0));
    }
}
