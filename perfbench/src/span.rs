//! In-memory spans recorded around the benchmark's calls into each
//! layer.  Nothing inside the program is instrumented: a span covers one
//! call the benchmark makes, and calls it cannot wrap are timed by
//! replaying the same inputs through the same public functions.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One timed call.  Spans of one session or job share `group`.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub phase: &'static str,
    pub group: u64,
    pub lane: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Where a new span hangs: its phase (`setup`, `measure`, `replay`),
/// session or job id, client lane and parent span.
#[derive(Clone, Copy, Debug)]
pub struct Ctx {
    pub phase: &'static str,
    pub group: u64,
    pub lane: u32,
    pub parent: Option<usize>,
}

impl Ctx {
    pub fn root(phase: &'static str, group: u64, lane: u32) -> Ctx {
        Ctx {
            phase,
            group,
            lane,
            parent: None,
        }
    }
}

/// Span recorder; a disabled tracer only runs the wrapped calls.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; `f` gets the context its own
    /// calls nest under.
    pub fn span<R>(&self, name: &'static str, ctx: Ctx, f: impl FnOnce(Ctx) -> R) -> R {
        if !self.on {
            return f(ctx);
        }
        let start_ns = self.now_ns();
        let id = {
            let mut spans = self.spans.lock().expect("span list poisoned");
            spans.push(Span {
                name,
                phase: ctx.phase,
                group: ctx.group,
                lane: ctx.lane,
                parent: ctx.parent,
                start_ns,
                end_ns: start_ns,
            });
            spans.len() - 1
        };
        let out = f(Ctx {
            parent: Some(id),
            ..ctx
        });
        let end_ns = self.now_ns();
        self.spans.lock().expect("span list poisoned")[id].end_ns = end_ns;
        out
    }

    fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// Self time (seconds) and span count per span name within `phase`:
    /// each span's duration minus the part of it its children cover.
    pub fn self_times(&self, phase: &str) -> BTreeMap<&'static str, (f64, u64)> {
        let spans = self.snapshot();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.phase == phase) {
            let covered = union_ns(children[i].iter().map(|&c| {
                (
                    spans[c].start_ns.max(s.start_ns),
                    spans[c].end_ns.min(s.end_ns),
                )
            }));
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            let e = out.entry(s.name).or_default();
            e.0 += own as f64 * 1e-9;
            e.1 += 1;
        }
        out
    }

    /// Share of `lanes × [from, to)` that no top-level span of `phase`
    /// covers: client time spent between the calls the benchmark wraps.
    pub fn uncovered_share(&self, phase: &str, lanes: u32, from_ns: u64, to_ns: u64) -> f64 {
        let spans = self.snapshot();
        let wall = to_ns.saturating_sub(from_ns).max(1);
        let covered: u64 = (0..lanes)
            .map(|lane| {
                union_ns(
                    spans
                        .iter()
                        .filter(|s| s.phase == phase && s.lane == lane && s.parent.is_none())
                        .map(|s| (s.start_ns.max(from_ns), s.end_ns.min(to_ns))),
                )
            })
            .sum();
        1.0 - covered as f64 / (wall as f64 * f64::from(lanes.max(1)))
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.snapshot().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"phase\":\"{}\",\"group\":{},\"lane\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.phase, s.group, s.lane, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

/// Total length of the union of half-open intervals (empty ones skipped).
fn union_ns(intervals: impl Iterator<Item = (u64, u64)>) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals.filter(|(a, b)| b > a).collect();
    v.sort_unstable();
    let (mut total, mut cur) = (0u64, None::<(u64, u64)>);
    for (a, b) in v {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_ns([(0, 10), (5, 15), (20, 25)].into_iter()), 20);
        assert_eq!(union_ns([(3, 3)].into_iter()), 0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        t.span("outer", Ctx::root("replay", 1, 0), |c| {
            t.span("inner", c, |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let st = t.self_times("replay");
        assert!(st["inner"].0 >= 0.02);
        assert!(st["outer"].0 < st["inner"].0);
        assert_eq!(st["outer"].1, 1);
    }
}
