//! [`EventLog`]: a bounded ring of structured passage events with JSONL
//! export.
//!
//! The log captures lifecycle transitions, protocol notes and RMR
//! charges as they happen, in one global sequence, and can export them
//! as JSON-Lines under `target/experiments/` in a schema that
//! [`EventLog::parse_jsonl`] reads back — the replay contract the
//! experiment binaries rely on.

use crate::json::Json;
use crate::probe::Probe;
use sal_memory::{OpKind, Pid};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// What happened, for one [`ObsEvent`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObsEventKind {
    /// A passage started.
    EnterBegin,
    /// The CS was entered (with the doorway ticket, if any).
    EnterEnd(Option<u64>),
    /// The passage completed through `exit`.
    CsExit,
    /// The passage aborted (with the doorway ticket, if any).
    Abort(Option<u64>),
    /// A shared-memory operation was charged as an RMR.
    Rmr(OpKind),
    /// A protocol-specific note, e.g. `instance-switch`.
    Note(&'static str, u64),
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsEvent {
    /// Global sequence number (monotone across all processes, including
    /// events later evicted from the ring).
    pub seq: u64,
    /// The process the event is attributed to.
    pub pid: Pid,
    /// What happened.
    pub kind: ObsEventKind,
}

fn op_kind_name(kind: OpKind) -> &'static str {
    match kind {
        OpKind::Read => "read",
        OpKind::Write => "write",
        OpKind::Cas => "cas",
        OpKind::Faa => "faa",
        OpKind::Swap => "swap",
    }
}

fn op_kind_from(name: &str) -> Option<OpKind> {
    Some(match name {
        "read" => OpKind::Read,
        "write" => OpKind::Write,
        "cas" => OpKind::Cas,
        "faa" => OpKind::Faa,
        "swap" => OpKind::Swap,
        _ => return None,
    })
}

#[derive(Debug, Default)]
struct Ring {
    events: Vec<ObsEvent>,
    head: usize,
    next_seq: u64,
    dropped: u64,
}

/// Bounded structured event log; implements [`Probe`].
///
/// It records lifecycle events, RMR charges and notes, but not plain
/// local operations (one per spin iteration — the overwhelming
/// majority of traffic). When the ring fills, the oldest events are
/// dropped and counted in [`dropped`](Self::dropped).
///
/// Like the other sinks, `EventLog` is a cheap handle: `clone()` shares
/// the same ring, so one clone can be given away as an owned probe while
/// another keeps reading.
#[derive(Debug, Clone)]
pub struct EventLog {
    ring: Arc<Mutex<Ring>>,
    capacity: usize,
}

impl EventLog {
    /// A log holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        EventLog {
            ring: Arc::new(Mutex::new(Ring::default())),
            capacity: capacity.max(1),
        }
    }

    /// A log with no capacity bound: nothing is ever dropped. This is
    /// the right shape for per-cell logs in parallel sweeps — each grid
    /// cell records into its own unbounded log, and the driver
    /// [`absorb`](Self::absorb)s them in deterministic cell order, so
    /// large sweeps cannot silently overflow a shared ring.
    pub fn unbounded() -> Self {
        EventLog {
            ring: Arc::new(Mutex::new(Ring::default())),
            capacity: usize::MAX,
        }
    }

    /// Append every event retained by `other` to this log, in `other`'s
    /// order, assigning fresh sequence numbers from this log's global
    /// counter; `other`'s dropped count is added to this log's. This is
    /// the deterministic fan-in for parallel probed sweeps: absorb the
    /// per-cell logs in cell order and the merged log is identical
    /// whatever the worker count. `other` is left untouched.
    pub fn absorb(&self, other: &EventLog) {
        // Snapshot before touching our own ring so absorbing a clone of
        // ourselves cannot deadlock.
        let events = other.events();
        let dropped = other.dropped();
        for ev in events {
            self.push(ev.pid, ev.kind);
        }
        self.ring.lock().unwrap().dropped += dropped;
    }

    fn push(&self, pid: Pid, kind: ObsEventKind) {
        let mut ring = self.ring.lock().unwrap();
        let seq = ring.next_seq;
        ring.next_seq += 1;
        let ev = ObsEvent { seq, pid, kind };
        if ring.events.len() < self.capacity {
            ring.events.push(ev);
        } else {
            let head = ring.head;
            ring.events[head] = ev;
            ring.head = (head + 1) % self.capacity;
            ring.dropped += 1;
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<ObsEvent> {
        let ring = self.ring.lock().unwrap();
        let mut out = Vec::with_capacity(ring.events.len());
        out.extend_from_slice(&ring.events[ring.head..]);
        out.extend_from_slice(&ring.events[..ring.head]);
        out
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.ring.lock().unwrap().events.len()
    }

    /// Whether nothing has been recorded (or everything was dropped).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted from the ring so far.
    pub fn dropped(&self) -> u64 {
        self.ring.lock().unwrap().dropped
    }

    fn event_to_json(ev: &ObsEvent) -> Json {
        let mut pairs = vec![
            ("seq", Json::Int(ev.seq as i64)),
            ("pid", Json::Int(ev.pid as i64)),
        ];
        match &ev.kind {
            ObsEventKind::EnterBegin => pairs.push(("event", Json::Str("enter_begin".into()))),
            ObsEventKind::EnterEnd(t) => {
                pairs.push(("event", Json::Str("enter_end".into())));
                pairs.push(("ticket", t.map_or(Json::Null, |t| Json::Int(t as i64))));
            }
            ObsEventKind::CsExit => pairs.push(("event", Json::Str("cs_exit".into()))),
            ObsEventKind::Abort(t) => {
                pairs.push(("event", Json::Str("abort".into())));
                pairs.push(("ticket", t.map_or(Json::Null, |t| Json::Int(t as i64))));
            }
            ObsEventKind::Rmr(k) => {
                pairs.push(("event", Json::Str("rmr".into())));
                pairs.push(("kind", Json::Str(op_kind_name(*k).into())));
            }
            ObsEventKind::Note(label, value) => {
                pairs.push(("event", Json::Str("note".into())));
                pairs.push(("label", Json::Str((*label).into())));
                pairs.push(("value", Json::Int(*value as i64)));
            }
        }
        Json::obj(pairs)
    }

    /// The retained events as a JSON-Lines string (one object per line).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in self.events() {
            out.push_str(&Self::event_to_json(&ev).render());
            out.push('\n');
        }
        out
    }

    /// Write the retained events as JSONL to
    /// `target/experiments/<name>.jsonl`, returning the path written.
    pub fn export_jsonl(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = Path::new("target").join("experiments");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{name}.jsonl"));
        std::fs::write(&path, self.to_jsonl())?;
        Ok(path)
    }

    /// Parse a JSONL export back into events — the replay direction of
    /// the schema contract. Note labels are interned via a leak, so this
    /// is intended for tooling and tests, not hot paths.
    pub fn parse_jsonl(input: &str) -> Result<Vec<ObsEvent>, String> {
        let mut out = Vec::new();
        for (lineno, line) in input.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let v = Json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
            let seq = v
                .get("seq")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("line {}: missing seq", lineno + 1))?;
            let pid = v
                .get("pid")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("line {}: missing pid", lineno + 1))?
                as Pid;
            let event = v
                .get("event")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("line {}: missing event", lineno + 1))?;
            let ticket = || v.get("ticket").and_then(Json::as_u64);
            let kind = match event {
                "enter_begin" => ObsEventKind::EnterBegin,
                "enter_end" => ObsEventKind::EnterEnd(ticket()),
                "cs_exit" => ObsEventKind::CsExit,
                "abort" => ObsEventKind::Abort(ticket()),
                "rmr" => ObsEventKind::Rmr(
                    v.get("kind")
                        .and_then(Json::as_str)
                        .and_then(op_kind_from)
                        .ok_or_else(|| format!("line {}: bad op kind", lineno + 1))?,
                ),
                "note" => {
                    let label = v
                        .get("label")
                        .and_then(Json::as_str)
                        .ok_or_else(|| format!("line {}: missing label", lineno + 1))?;
                    let value = v.get("value").and_then(Json::as_u64).unwrap_or(0);
                    ObsEventKind::Note(Box::leak(label.to_string().into_boxed_str()), value)
                }
                other => return Err(format!("line {}: unknown event '{other}'", lineno + 1)),
            };
            out.push(ObsEvent { seq, pid, kind });
        }
        Ok(out)
    }
}

impl Probe for EventLog {
    fn enter_begin(&self, p: Pid) {
        self.push(p, ObsEventKind::EnterBegin);
    }

    fn enter_end(&self, p: Pid, ticket: Option<u64>) {
        self.push(p, ObsEventKind::EnterEnd(ticket));
    }

    fn cs_exit(&self, p: Pid) {
        self.push(p, ObsEventKind::CsExit);
    }

    fn abort(&self, p: Pid, ticket: Option<u64>) {
        self.push(p, ObsEventKind::Abort(ticket));
    }

    fn rmr(&self, p: Pid, kind: OpKind) {
        self.push(p, ObsEventKind::Rmr(kind));
    }

    fn note(&self, p: Pid, label: &'static str, value: u64) {
        self.push(p, ObsEventKind::Note(label, value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_lifecycle_in_sequence() {
        let log = EventLog::new(16);
        log.enter_begin(0);
        log.rmr(0, OpKind::Faa);
        log.enter_end(0, Some(0));
        log.cs_exit(0);
        log.abort(1, None);
        log.note(2, "instance-switch", 5);
        let evs = log.events();
        assert_eq!(evs.len(), 6);
        assert_eq!(evs[0].kind, ObsEventKind::EnterBegin);
        assert_eq!(evs[2].kind, ObsEventKind::EnterEnd(Some(0)));
        assert_eq!(evs[5].kind, ObsEventKind::Note("instance-switch", 5));
        assert!(evs.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(log.dropped(), 0);
    }

    #[test]
    fn ring_drops_oldest_beyond_capacity() {
        let log = EventLog::new(3);
        for p in 0..5 {
            log.enter_begin(p);
        }
        let evs = log.events();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs.iter().map(|e| e.pid).collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(evs[0].seq, 2, "seq numbers are global, not ring-relative");
        assert_eq!(log.dropped(), 2);
    }

    #[test]
    fn plain_ops_are_not_recorded() {
        let log = EventLog::new(8);
        log.op(0, OpKind::Read);
        assert!(log.is_empty());
    }

    #[test]
    fn unbounded_log_never_drops() {
        let log = EventLog::unbounded();
        for p in 0..100_000 {
            log.enter_begin(p % 7);
        }
        assert_eq!(log.len(), 100_000);
        assert_eq!(log.dropped(), 0);
    }

    #[test]
    fn absorb_renumbers_in_order_and_sums_drops() {
        let merged = EventLog::unbounded();
        merged.enter_begin(0);

        let cell_a = EventLog::new(2); // tiny ring: will drop
        cell_a.enter_begin(1);
        cell_a.enter_end(1, None);
        cell_a.cs_exit(1);
        assert_eq!(cell_a.dropped(), 1);

        let cell_b = EventLog::unbounded();
        cell_b.abort(2, Some(9));

        merged.absorb(&cell_a);
        merged.absorb(&cell_b);

        let evs = merged.events();
        assert_eq!(evs.len(), 4);
        // Fresh global seqs, monotone across the absorbed cells.
        assert_eq!(
            evs.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        assert_eq!(evs[1].kind, ObsEventKind::EnterEnd(None));
        assert_eq!(evs[3].kind, ObsEventKind::Abort(Some(9)));
        assert_eq!(merged.dropped(), 1, "cell drops are not silently lost");
        // The source is untouched.
        assert_eq!(cell_b.len(), 1);
    }

    #[test]
    fn jsonl_round_trips() {
        let log = EventLog::new(16);
        log.enter_begin(3);
        log.rmr(3, OpKind::Faa);
        log.enter_end(3, Some(7));
        log.cs_exit(3);
        log.abort(4, Some(8));
        log.note(3, "instance-switch", 2);

        let text = log.to_jsonl();
        let parsed = EventLog::parse_jsonl(&text).expect("parse back");
        assert_eq!(parsed, log.events());
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(EventLog::parse_jsonl("{\"seq\":0}").is_err());
        assert!(EventLog::parse_jsonl("{\"seq\":0,\"pid\":1,\"event\":\"bogus\"}").is_err());
        assert!(EventLog::parse_jsonl("not json").is_err());
        assert!(EventLog::parse_jsonl("\n\n").unwrap().is_empty());
    }
}
