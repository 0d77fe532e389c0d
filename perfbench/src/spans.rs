//! The benchmark's span recorder.
//!
//! Spans are recorded from the benchmark's own code around each call into a
//! crate's public API; nothing inside the program is instrumented. A span has
//! a name, a start and an end (nanoseconds since the recorder was created), the
//! id of the span that caused it, and a trace id shared by every span of one
//! unit of work (one engine pass over the block stream, one block of the
//! `Vm::execute` timing pass, or one transaction sent to the node). Spans stay in memory and are written out once, when the run ends.
//! A disabled recorder records nothing, so untimed runs pay no tracing cost.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span (`0` = none, used as "no parent").
pub type SpanId = u32;

#[derive(Debug, Clone, Copy)]
struct Span {
    trace: u64,
    parent: SpanId,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span store.
#[derive(Debug)]
pub struct SpanRecorder {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl SpanRecorder {
    /// A recorder; `enabled == false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn nanos(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its id (`0` when disabled).
    pub fn record(
        &self,
        name: &'static str,
        trace: u64,
        parent: SpanId,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let span = Span {
            trace,
            parent,
            name,
            start_ns: self.nanos(start),
            end_ns: self.nanos(end),
        };
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(span);
        spans.len() as SpanId
    }

    /// Opens a span that is closed later with [`close`](Self::close), so
    /// children recorded in between can name it as their parent.
    pub fn open(&self, name: &'static str, trace: u64, parent: SpanId) -> SpanId {
        let now = Instant::now();
        self.record(name, trace, parent, now, now)
    }

    /// Closes a span opened with [`open`](Self::open).
    pub fn close(&self, id: SpanId) {
        if !self.enabled || id == 0 {
            return;
        }
        let end = self.nanos(Instant::now());
        let mut spans = self.spans.lock().expect("span store poisoned");
        if let Some(span) = spans.get_mut(id as usize - 1) {
            span.end_ns = end;
        }
    }

    /// Writes every span as one tab-separated line:
    /// `id trace parent name start_ns end_ns`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut out = BufWriter::new(File::create(path)?);
        writeln!(out, "id\ttrace\tparent\tname\tstart_ns\tend_ns")?;
        for (index, span) in spans.iter().enumerate() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                index + 1,
                span.trace,
                span.parent,
                span.name,
                span.start_ns,
                span.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let recorder = SpanRecorder::new(false);
        let id = recorder.open("a", 1, 0);
        assert_eq!(id, 0);
        recorder.close(id);
        assert_eq!(
            recorder.record("b", 1, id, Instant::now(), Instant::now()),
            0
        );
        assert!(recorder.spans.lock().unwrap().is_empty());
    }

    #[test]
    fn nested_spans_link_to_their_parent() {
        let recorder = SpanRecorder::new(true);
        let parent = recorder.open("parent", 7, 0);
        let start = Instant::now();
        let child = recorder.record("child", 7, parent, start, Instant::now());
        let grandchild = recorder.open("grandchild", 7, child);
        recorder.close(grandchild);
        recorder.close(parent);
        let spans = recorder.spans.lock().unwrap();
        assert_eq!((parent, child, grandchild), (1, 2, 3));
        assert_eq!(spans[1].parent, parent);
        assert_eq!(spans[2].parent, child);
        assert!(spans[0].end_ns >= spans[2].end_ns);
        assert!(spans[2].end_ns >= spans[2].start_ns);
        assert!(spans.iter().all(|span| span.trace == 7));
    }
}
