//! Span recorder for the traced pass. The harness wraps every public call it
//! makes into a layer in a span; spans of one op share its id and name the
//! span that caused them. Kept in memory, written once at exit. With tracing
//! off `begin`/`end` are a branch each, so the untraced pass measures the
//! system, not the recorder.

use std::time::Instant;

pub const NO_PARENT: u64 = 0;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub op: u64,
    pub parent: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's recorder; threads get disjoint id ranges and a shared zero
/// time, and their spans are merged with [`Tracer::absorb`].
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    zero: Instant,
    next_id: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, zero: Instant, thread: u64) -> Self {
        Tracer {
            on,
            zero,
            next_id: (thread << 40) + 1,
            spans: Vec::new(),
        }
    }

    pub fn set(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.zero.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id ([`NO_PARENT`] when tracing is off).
    pub fn begin(&mut self, name: &'static str, op: u64, parent: u64) -> u64 {
        if !self.on {
            return NO_PARENT;
        }
        let id = self.next_id;
        self.next_id += 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    pub fn end(&mut self, id: u64) {
        if id == NO_PARENT {
            return;
        }
        let end_ns = self.now_ns();
        // spans close in LIFO order on one thread, so the match is at the tail
        if let Some(s) = self.spans.iter_mut().rev().find(|s| s.id == id) {
            s.end_ns = end_ns;
        }
    }

    /// Records a span whose endpoints were stamped elsewhere (an open-loop
    /// op runs from its due time to the collector's completion stamp).
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let id = self.next_id;
        self.next_id += 1;
        let ns = |t: Instant| t.saturating_duration_since(self.zero).as_nanos() as u64;
        self.spans.push(Span {
            id,
            name,
            op,
            parent: NO_PARENT,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"id\": {}, \"name\": \"{}\", \"op_id\": {}, \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                    s.id, s.name, s.op, s.parent, s.start_ns, s.end_ns
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_an_idle_tracer_records_nothing() {
        let mut t = Tracer::new(true, Instant::now(), 0);
        let op = t.begin("op.conn", 7, NO_PARENT);
        let call = t.begin("service.execute", 7, op);
        t.end(call);
        t.end(op);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, t.spans[0].id);
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
        assert!(t.to_json().contains("\"op_id\": 7"));

        let mut off = Tracer::new(false, Instant::now(), 1);
        let id = off.begin("op.conn", 1, NO_PARENT);
        off.end(id);
        assert!(off.spans.is_empty());
    }
}
