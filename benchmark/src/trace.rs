//! The benchmark's own span recorder.
//!
//! Spans are recorded from outside the system, around the public calls
//! into each layer; nothing inside `crates/` is instrumented. A rep is
//! the root span, each cell is its child, and each phase (generate, tag,
//! construct, run, outcome, …) is a leaf under its cell — or directly
//! under the rep for the reduce and export phases.
//!
//! Two clocks are kept apart on purpose. The *cell-boundary* clock
//! (start / set-up done / end) is read in every rep, traced or not, and
//! gives `setup_s` and the per-cell times. The *span* clock is read only
//! when tracing, so untraced reps — the ones end-to-end metrics come
//! from — pay nothing for the decomposition.

use crate::json::Value;
use crate::timing::now_ns;

pub const REP: &str = "rep";
pub const CELL: &str = "cell";

/// Leaf phases, named after the layer and call they wrap. The per-layer
/// metric for phase `p` is `p` + `_s`.
pub const PHASES: [&str; 13] = [
    "simnet.traffic.gen",
    "workload.stream.gen",
    "smp.steer.tag",
    "simnet.closed.new",
    "netstack.table.build",
    "ldlp.engine.new",
    "smp.sim.new",
    "simnet.sim.run",
    "smp.sim.run",
    "smp.sim.run_closed",
    "smp.sim.outcome",
    "simnet.stats.average",
    "bench.export",
];

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder's list.
    pub parent: Option<u32>,
    /// Index of the cell this span belongs to, counted within the rep.
    pub cell: Option<u32>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One rep's recorder.
#[derive(Debug, Default)]
pub struct Rec {
    tracing: bool,
    pub spans: Vec<Span>,
    open: Vec<u32>,
    next_cell: u32,
    cur_cell: Option<u32>,
    rep_t0: u64,
    cell_t0: u64,
    /// Set-up time of each cell (set-up done − cell start), in cell order.
    pub cell_setup_ns: Vec<u64>,
    /// Wall time of each cell, in cell order.
    pub cell_ns: Vec<u64>,
}

impl Rec {
    pub fn new(tracing: bool) -> Rec {
        Rec {
            tracing,
            ..Rec::default()
        }
    }

    fn open_span(&mut self, name: &'static str, start_ns: u64) {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            cell: self.cur_cell,
        });
        self.open.push(id);
    }

    fn close_span(&mut self, end_ns: u64) {
        if let Some(id) = self.open.pop() {
            self.spans[id as usize].end_ns = end_ns;
        }
    }

    pub fn rep_begin(&mut self) {
        self.rep_t0 = now_ns();
        if self.tracing {
            self.open_span(REP, self.rep_t0);
        }
    }

    /// Closes the rep and returns its wall time.
    pub fn rep_end(&mut self) -> u64 {
        let t = now_ns();
        if self.tracing {
            self.close_span(t);
        }
        t - self.rep_t0
    }

    pub fn cell_begin(&mut self) {
        self.cell_t0 = now_ns();
        self.cur_cell = Some(self.next_cell);
        self.next_cell += 1;
        if self.tracing {
            self.open_span(CELL, self.cell_t0);
        }
    }

    /// Marks the end of the cell's set-up: everything before the first
    /// simulated event (inputs generated, tables and simulators built).
    pub fn setup_done(&mut self) {
        self.cell_setup_ns.push(now_ns() - self.cell_t0);
    }

    pub fn cell_end(&mut self) {
        let t = now_ns();
        self.cell_ns.push(t - self.cell_t0);
        if self.tracing {
            self.close_span(t);
        }
        self.cur_cell = None;
    }

    /// Runs `f` as a leaf phase. Reads the clock only when tracing.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.tracing {
            return f();
        }
        self.open_span(name, now_ns());
        let r = f();
        self.close_span(now_ns());
        r
    }
}

/// Self time of each span: its duration minus the part its children
/// cover. Children never overlap (the recorder is a stack), so the sum
/// of their durations is that part.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Σ duration of the spans named `name`.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .sum()
}

/// The trace document written to `out/trace_<workload>.json`.
pub fn trace_json(workload: &str, seed: u64, spans: &[Span]) -> Value {
    let own = self_times(spans);
    let opt = |v: Option<u32>| v.map_or(Value::Null, |x| Value::Num(x as f64));
    let rows = spans
        .iter()
        .zip(&own)
        .enumerate()
        .map(|(id, (s, &self_ns))| {
            Value::obj([
                ("id", Value::Num(id as f64)),
                ("name", Value::Str(s.name.to_string())),
                ("start_ns", Value::Num(s.start_ns as f64)),
                ("end_ns", Value::Num(s.end_ns as f64)),
                ("self_ns", Value::Num(self_ns as f64)),
                ("parent", opt(s.parent)),
                ("cell", opt(s.cell)),
            ])
        })
        .collect();
    Value::obj([
        ("workload", Value::Str(workload.to_string())),
        ("seed", Value::Num(seed as f64)),
        ("spans", Value::Arr(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traced_rep() -> Rec {
        let mut rec = Rec::new(true);
        rec.rep_begin();
        for _ in 0..3 {
            rec.cell_begin();
            rec.span(PHASES[0], || {
                std::hint::black_box(crate::timing::calibrate_ms())
            });
            rec.setup_done();
            rec.span(PHASES[7], || {
                std::hint::black_box(crate::timing::calibrate_ms())
            });
            rec.cell_end();
        }
        rec.span(PHASES[12], || ());
        rec.rep_end();
        rec
    }

    #[test]
    fn children_fit_inside_parents_and_self_times_are_non_negative() {
        let rec = traced_rep();
        assert_eq!(rec.spans.len(), 1 + 3 * 3 + 1);
        assert_eq!(rec.spans[0].name, REP);
        for s in &rec.spans {
            assert!(s.start_ns <= s.end_ns);
            if let Some(p) = s.parent {
                let p = &rec.spans[p as usize];
                assert!(
                    p.start_ns <= s.start_ns && s.end_ns <= p.end_ns,
                    "{s:?} outside {p:?}"
                );
            } else {
                assert_eq!(s.name, REP);
            }
        }
        let own = self_times(&rec.spans);
        for (s, &o) in rec.spans.iter().zip(&own) {
            assert!(o <= s.dur_ns());
        }
        // Durations telescope: the rep is its own time plus every
        // descendant's own time.
        assert_eq!(own.iter().sum::<u64>(), rec.spans[0].dur_ns());
    }

    #[test]
    fn cells_are_numbered_and_parented() {
        let rec = traced_rep();
        let cells: Vec<&Span> = rec.spans.iter().filter(|s| s.name == CELL).collect();
        assert_eq!(
            cells.iter().map(|s| s.cell).collect::<Vec<_>>(),
            [Some(0), Some(1), Some(2)]
        );
        assert!(cells.iter().all(|s| s.parent == Some(0)));
        let run = rec.spans.iter().find(|s| s.name == PHASES[7]).unwrap();
        assert_eq!(rec.spans[run.parent.unwrap() as usize].name, CELL);
        assert_eq!(rec.cell_ns.len(), 3);
        assert_eq!(rec.cell_setup_ns.len(), 3);
        assert!(rec
            .cell_setup_ns
            .iter()
            .zip(&rec.cell_ns)
            .all(|(s, c)| 0 < *s && s < c));
    }

    #[test]
    fn untraced_rep_records_boundaries_but_no_spans() {
        let mut rec = Rec::new(false);
        rec.rep_begin();
        rec.cell_begin();
        let v = rec.span(PHASES[0], || 7);
        rec.setup_done();
        rec.cell_end();
        assert!(rec.rep_end() > 0);
        assert_eq!(v, 7);
        assert!(rec.spans.is_empty());
        assert_eq!(rec.cell_ns.len(), 1);
    }
}
