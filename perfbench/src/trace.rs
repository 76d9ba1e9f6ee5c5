//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into each
//! layer's public API. Each span has a name, a parent, the step (or
//! request) it belongs to, wall-clock start/end and — where asked for —
//! process-CPU start/end. Nothing is written until [`Tracer::write_jsonl`]
//! runs at the end of the run.

use crate::clock::CpuClock;
use std::io::Write;
use std::time::Instant;

pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    /// Step index (nn), request id (serve) or repetition (replays).
    pub id: u64,
    pub wall: (u64, u64),
    pub cpu: Option<(u64, u64)>,
}

impl Span {
    /// Process-CPU milliseconds between open and close (0 if not stamped).
    pub fn cpu_ms(&self) -> f64 {
        self.cpu.map_or(0.0, |(a, b)| b.saturating_sub(a) as f64 / 1e6)
    }
}

pub struct Tracer {
    origin: Instant,
    clock: CpuClock,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            clock: CpuClock::new(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn wall(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under an explicit parent; `cpu` also stamps process CPU.
    pub fn open(&mut self, name: &str, parent: Option<usize>, id: u64, cpu: bool) -> usize {
        let c = cpu.then(|| self.clock.now());
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            id,
            wall: (self.wall(), 0),
            cpu: c.map(|c| (c, 0)),
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, idx: usize) {
        let c = self.spans[idx].cpu.is_some().then(|| self.clock.now());
        let w = self.wall();
        let s = &mut self.spans[idx];
        s.wall.1 = w;
        if let (Some(cpu), Some(c)) = (s.cpu.as_mut(), c) {
            cpu.1 = c;
        }
    }

    /// The innermost open [`Tracer::scoped`] span.
    pub fn current(&self) -> Option<usize> {
        self.stack.last().copied()
    }

    /// Run `f` inside a CPU-stamped span nested under the innermost open
    /// [`Tracer::scoped`] span.
    pub fn scoped<T>(&mut self, name: &str, id: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.open(name, self.current(), id, true);
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.close(idx);
        out
    }

    /// Process-CPU milliseconds summed over every span called `name`.
    pub fn cpu_ms(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(Span::cpu_ms).sum()
    }

    /// Wall-clock durations (ms) of every span called `name`.
    pub fn wall_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.wall.1.saturating_sub(s.wall.0) as f64 / 1e6)
            .collect()
    }

    /// Wall-clock self time of every span: its duration minus the part of
    /// its interval that its children's intervals cover.
    pub fn self_wall_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push(s.wall);
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.wall.0);
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.wall.1));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.wall.1 - s.wall.0).saturating_sub(covered)
            })
            .collect()
    }

    /// Share of the `root`-named spans' wall time that no child span
    /// covers: 1 − Σ child self time ÷ Σ root duration.
    pub fn unattributed_frac(&self, root: &str) -> f64 {
        let own = self.self_wall_ns();
        let (mut unattributed, mut total) = (0u64, 0u64);
        for (s, own) in self.spans.iter().zip(own) {
            if s.name == root {
                unattributed += own;
                total += s.wall.1 - s.wall.0;
            }
        }
        if total == 0 {
            0.0
        } else {
            unattributed as f64 / total as f64
        }
    }

    /// One JSON object per span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let cpu = s.cpu.map_or("null".to_string(), |(a, b)| format!("[{a},{b}]"));
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"parent\":{parent},\"id\":{},\"wall_ns\":[{},{}],\"cpu_ns\":{cpu}}}",
                s.name, s.id, s.wall.0, s.wall.1
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, wall: (u64, u64)) -> Span {
        Span {
            name: name.into(),
            parent,
            id: 0,
            wall,
            cpu: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new();
        t.spans = vec![
            span("step", None, (0, 100)),
            span("a", Some(0), (10, 40)),
            span("b", Some(0), (30, 60)), // overlaps a
            span("c", Some(1), (15, 20)),
        ];
        assert_eq!(t.self_wall_ns(), vec![50, 25, 30, 5]);
        assert!((t.unattributed_frac("step") - 0.5).abs() < 1e-12);
    }

    #[test]
    fn scoped_spans_nest() {
        let mut t = Tracer::new();
        t.scoped("outer", 3, |t| t.scoped("inner", 3, |_| ()));
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(t.spans.iter().all(|s| s.cpu.is_some() && s.id == 3));
        assert!(t.cpu_ms("outer") >= t.cpu_ms("inner"));
    }
}
