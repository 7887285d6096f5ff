//! Spans recorded from outside the program, around each call into a
//! layer's public functions. Spans stay in memory (one buffer per thread)
//! and are written out when the run ends; self time is derived from them.

use plr_parallel::RunStats;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one (0 for a root).
    pub parent: u64,
    pub name: &'static str,
    /// Row or request id; spans of one request share it.
    pub rid: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The counters the traced call returned, when it returns any.
    pub stats: Option<RunStats>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An opened span: its id (for children) and start.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    pub id: u64,
    start_ns: u64,
}

/// A per-thread span buffer. A disabled tracer records nothing and never
/// reads the clock.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    tag: u64,
    next: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// `tag` distinguishes the threads sharing one `epoch`, so span ids
    /// are unique across their buffers.
    pub fn new(enabled: bool, epoch: Instant, tag: u64) -> Self {
        Tracer {
            enabled,
            epoch,
            tag,
            next: 0,
            spans: Vec::new(),
        }
    }

    pub fn open(&mut self) -> Open {
        if !self.enabled {
            return Open { id: 0, start_ns: 0 };
        }
        self.next += 1;
        Open {
            id: (self.tag << 40) | self.next,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
        }
    }

    pub fn close(
        &mut self,
        open: Open,
        name: &'static str,
        parent: u64,
        rid: u64,
        stats: Option<RunStats>,
    ) {
        if !self.enabled {
            return;
        }
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id: open.id,
            parent,
            name,
            rid,
            start_ns: open.start_ns,
            end_ns,
            stats,
        });
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that the union of its children's intervals covers.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut iv: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|c| {
                    c.iter()
                        .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                        .filter(|&(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            iv.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in iv {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.id, s.dur_ns() - covered)
        })
        .collect()
}

/// Per span name: call count and self time (nanoseconds).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub self_ns: u64,
}

pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.self_ns += selfs[&s.id];
    }
    out
}

/// Writes the spans as JSON lines.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        write!(
            w,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"rid\":{},\"start_ns\":{},\"end_ns\":{}",
            s.id, s.parent, s.name, s.rid, s.start_ns, s.end_ns
        )?;
        if let Some(st) = &s.stats {
            write!(
                w,
                ",\"stats\":{{\"rows\":{},\"chunks\":{},\"threads\":{},\"fir_ns\":{},\"solve_ns\":{},\
                 \"lookback_ns\":{},\"correct_ns\":{},\"spin_waits\":{},\"lookback_hops\":{},\
                 \"plan_cache_hits\":{},\"plan_cache_misses\":{},\"fused_chunks\":{},\
                 \"skipped_chunks\":{},\"kernel\":\"{:?}\"}}",
                st.rows,
                st.chunks,
                st.threads,
                st.fir_nanos,
                st.solve_nanos,
                st.lookback_nanos,
                st.correct_nanos,
                st.spin_waits,
                st.lookback_hops,
                st.plan_cache_hits,
                st.plan_cache_misses,
                st.fused_chunks,
                st.skipped_chunks,
                st.kernel
            )?;
        }
        writeln!(w, "}}")?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            rid: 0,
            start_ns: start,
            end_ns: end,
            stats: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, "step", 0, 100),
            // Two overlapping children cover [10, 50); a third [60, 70).
            span(2, 1, "push", 10, 40),
            span(3, 1, "push", 30, 50),
            span(4, 1, "join", 60, 70),
            // A grandchild is charged to its own parent, not to the root.
            span(5, 4, "inner", 61, 69),
        ];
        let s = self_times(&spans);
        assert_eq!(s[&1], 100 - 40 - 10);
        assert_eq!(s[&2], 30);
        assert_eq!(s[&3], 20);
        assert_eq!(s[&4], 10 - 8);
        assert_eq!(s[&5], 8);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![span(1, 0, "a", 100, 200), span(2, 1, "b", 50, 150)];
        assert_eq!(self_times(&spans)[&1], 50);
    }

    #[test]
    fn totals_group_by_name() {
        let spans = vec![
            span(1, 0, "step", 0, 100),
            span(2, 1, "push", 10, 40),
            span(3, 1, "push", 50, 60),
        ];
        let t = by_name(&spans);
        assert_eq!(
            t["push"],
            NameTotals {
                count: 2,
                self_ns: 40
            }
        );
        assert_eq!(t["step"].self_ns, 60);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_ids_are_unique() {
        let epoch = Instant::now();
        let mut off = Tracer::new(false, epoch, 1);
        let o = off.open();
        off.close(o, "x", 0, 0, None);
        assert!(off.into_spans().is_empty());
        let mut a = Tracer::new(true, epoch, 1);
        let mut b = Tracer::new(true, epoch, 2);
        let (oa, ob) = (a.open(), b.open());
        assert_ne!(oa.id, ob.id);
        let child = a.open();
        a.close(child, "child", oa.id, 7, None);
        a.close(oa, "parent", 0, 7, None);
        let spans = a.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, spans[1].id);
        assert!(spans[1].start_ns <= spans[0].start_ns && spans[0].end_ns <= spans[1].end_ns);
    }
}
