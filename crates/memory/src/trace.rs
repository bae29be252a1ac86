//! Operation-level tracing: record every shared-memory operation with
//! its RMR verdict.
//!
//! [`TracingMem`] wraps any [`Mem`] and logs, per operation: the
//! process, the kind, the word, the value involved, and whether the
//! operation cost an RMR under the wrapped memory's cost model. The
//! trace is how the `rmr_trace` example and the debugging workflows
//! show *which* access paid — e.g. the single cache miss a spinning
//! process takes when the handoff write invalidates its copy.
//!
//! Tracing is implemented as a [`Tracer`] interceptor over the generic
//! [`Layered`] wrapper — [`TracingMem`] is just the type alias
//! `Layered<'a, M, Tracer>`; there is no trace-specific forwarding code.

use crate::layer::{Interceptor, Layered};
use crate::mem::{Mem, OpKind};
use crate::word::{Pid, WordId};
use std::sync::Mutex;

/// One traced operation.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TraceEntry {
    /// Executing process.
    pub pid: Pid,
    /// Operation kind.
    pub kind: OpKind,
    /// Word operated on.
    pub word: WordId,
    /// Value read / written / returned (for CAS: 1 = success, 0 = fail).
    pub value: u64,
    /// Whether the operation incurred an RMR.
    pub remote: bool,
}

/// The [`Interceptor`] behind [`TracingMem`]: appends a [`TraceEntry`]
/// per operation to an in-memory log.
#[derive(Debug, Default)]
pub struct Tracer {
    entries: Mutex<Vec<TraceEntry>>,
}

impl Tracer {
    /// Empty trace log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of the trace so far.
    pub fn entries(&self) -> Vec<TraceEntry> {
        self.entries.lock().unwrap().clone()
    }

    /// Number of traced operations.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap().len()
    }

    /// Whether nothing was traced yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clear the trace (counters on the traced memory are untouched).
    pub fn clear(&self) {
        self.entries.lock().unwrap().clear();
    }

    /// RMR-costing entries only.
    pub fn remote_entries(&self) -> Vec<TraceEntry> {
        self.entries
            .lock()
            .unwrap()
            .iter()
            .copied()
            .filter(|e| e.remote)
            .collect()
    }
}

impl Interceptor for Tracer {
    fn after(&self, pid: Pid, kind: OpKind, word: WordId, value: u64, remote: bool) {
        self.entries.lock().unwrap().push(TraceEntry {
            pid,
            kind,
            word,
            value,
            remote,
        });
    }
}

/// A [`Mem`] wrapper recording every operation: the [`Layered`]
/// instantiation of [`Tracer`]. See the module docs for the recording
/// semantics.
pub type TracingMem<'a, M> = Layered<'a, M, Tracer>;

impl<'a, M: Mem + ?Sized> TracingMem<'a, M> {
    /// Trace every operation against `inner`.
    pub fn new(inner: &'a M) -> Self {
        Layered::over(inner, Tracer::new())
    }

    /// Snapshot of the trace so far.
    pub fn entries(&self) -> Vec<TraceEntry> {
        self.layer().entries()
    }

    /// Number of traced operations.
    pub fn len(&self) -> usize {
        self.layer().len()
    }

    /// Whether nothing was traced yet.
    pub fn is_empty(&self) -> bool {
        self.layer().is_empty()
    }

    /// Clear the trace (counters on the inner memory are untouched).
    pub fn clear(&self) {
        self.layer().clear()
    }

    /// RMR-costing entries only.
    pub fn remote_entries(&self) -> Vec<TraceEntry> {
        self.layer().remote_entries()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemoryBuilder;

    #[test]
    fn records_kinds_values_and_rmr_verdicts() {
        let mut b = MemoryBuilder::new();
        let w = b.alloc(5);
        let mem = b.build_cc(2);
        let t = TracingMem::new(&mem);
        assert!(t.is_empty());
        assert_eq!(t.read(0, w), 5); // remote (first read)
        assert_eq!(t.read(0, w), 5); // local
        assert_eq!(t.faa(1, w, 1), 5); // remote
        assert!(t.cas(0, w, 6, 7)); // remote
        let e = t.entries();
        assert_eq!(e.len(), 4);
        assert_eq!(e[0].kind, OpKind::Read);
        assert!(e[0].remote);
        assert!(!e[1].remote, "cached read must trace as local");
        assert_eq!(e[2].kind, OpKind::Faa);
        assert_eq!(e[2].value, 5);
        assert_eq!(e[3].kind, OpKind::Cas);
        assert_eq!(e[3].value, 1);
        assert_eq!(t.remote_entries().len(), 3);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn spin_pattern_shows_one_miss_per_handoff() {
        let mut b = MemoryBuilder::new();
        let w = b.alloc(0);
        let mem = b.build_cc(2);
        let t = TracingMem::new(&mem);
        // Process 1 "spins" 10 times, then process 0 hands off.
        for _ in 0..10 {
            t.read(1, w);
        }
        t.write(0, w, 1);
        t.read(1, w);
        let spin_rmrs: usize = t
            .entries()
            .iter()
            .filter(|e| e.pid == 1 && e.remote)
            .count();
        assert_eq!(spin_rmrs, 2, "first read + post-invalidate read only");
    }

    #[test]
    fn clear_discards_every_entry() {
        let mut b = MemoryBuilder::new();
        let w = b.alloc(0);
        let mem = b.build_cc(1);
        let t = TracingMem::new(&mem);
        for i in 0..100 {
            t.write(0, w, i);
        }
        assert_eq!(t.len(), 100);
        assert_eq!(t.entries().last().unwrap().value, 99);
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn delegates_counters_and_metadata() {
        let mut b = MemoryBuilder::new();
        let w = b.alloc(0);
        let mem = b.build_cc(2);
        let t = TracingMem::new(&mem);
        t.write(0, w, 3);
        assert_eq!(t.swap(1, w, 9), 3);
        assert_eq!(t.rmrs(0), 1);
        assert_eq!(t.rmrs(1), 1);
        assert_eq!(t.total_rmrs(), 2);
        assert_eq!(t.ops(0), 1);
        assert_eq!(t.num_words(), 1);
        assert_eq!(t.num_procs(), 2);
    }
}
