//! The [`Probe`] trait: passage-lifecycle and memory-operation hooks.
//!
//! A probe observes the *passage* structure of a lock execution — the
//! unit over which all of the paper's RMR claims are stated. Locks (and
//! the memory wrapper [`ProbedMem`](crate::ProbedMem)) call the hooks;
//! sinks such as [`PassageStats`](crate::PassageStats),
//! [`EventLog`](crate::EventLog) and
//! [`FairnessMonitor`](crate::FairnessMonitor) implement them.
//!
//! Every hook has a no-op default, and the canonical "no observability"
//! implementation is the unit struct [`NoProbe`]. Code that is generic
//! over `P: Probe` and instantiated at `NoProbe` monomorphizes each hook
//! to an empty inline function — `sal-sync`'s uninstrumented fast path
//! keeps its codegen.

use sal_memory::{OpKind, Pid};

/// Observer of passage lifecycle and shared-memory activity.
///
/// Hook order within one passage of process `p`:
///
/// 1. [`enter_begin`](Probe::enter_begin) — the passage starts (before
///    the doorway).
/// 2. zero or more [`op`](Probe::op) / [`rmr`](Probe::rmr) calls — one
///    per shared-memory operation (every such operation is also a
///    scheduling point of the simulator). `rmr` fires only for
///    operations the active cost model charges as remote.
/// 3. either [`enter_end`](Probe::enter_end) (the CS was entered) or
///    [`abort`](Probe::abort) (the attempt was abandoned; the passage is
///    over).
/// 4. after `enter_end`: more `op`/`rmr` calls (CS + exit protocol),
///    then [`cs_exit`](Probe::cs_exit) once `exit` completes.
///
/// [`note`](Probe::note) may fire at any point for structured
/// protocol-specific events (instance switches, injected aborts, …).
///
/// Implementations must be thread-safe: hooks are called concurrently
/// from all processes.
pub trait Probe: Send + Sync {
    /// Process `p` starts a passage (about to execute the doorway).
    fn enter_begin(&self, p: Pid) {
        let _ = p;
    }

    /// Process `p` acquired the lock. `ticket` is the FCFS doorway
    /// ticket when the algorithm has one (the one-shot locks' `F&A(Tail)`
    /// index), `None` otherwise.
    fn enter_end(&self, p: Pid, ticket: Option<u64>) {
        let _ = (p, ticket);
    }

    /// Process `p` finished `exit` — the passage is complete.
    fn cs_exit(&self, p: Pid) {
        let _ = p;
    }

    /// Process `p` abandoned its attempt — the passage is complete
    /// (aborted).
    fn abort(&self, p: Pid, ticket: Option<u64>) {
        let _ = (p, ticket);
    }

    /// Process `p` performed a shared-memory operation of kind `kind`
    /// that the cost model charged as a remote memory reference.
    fn rmr(&self, p: Pid, kind: OpKind) {
        let _ = (p, kind);
    }

    /// Process `p` performed a shared-memory operation (remote or
    /// local). In the simulator every such operation is one scheduling
    /// point, so this doubles as the scheduling-point hook.
    fn op(&self, p: Pid, kind: OpKind) {
        let _ = (p, kind);
    }

    /// A structured protocol event attributed to process `p`: `label`
    /// names it (e.g. `"instance-switch"`, `"jj-abandon"`), `value`
    /// carries a label-specific payload.
    fn note(&self, p: Pid, label: &'static str, value: u64) {
        let _ = (p, label, value);
    }

    /// Whether this probe records anything: `false` lets a caller skip
    /// work it would do only to report (such as checking out a pid for
    /// an abort report). [`NoProbe`] says `false`; every forwarding
    /// probe asks what it forwards to.
    fn enabled(&self) -> bool {
        true
    }
}

/// The zero-cost default probe: every hook is an empty `#[inline]`
/// method that monomorphizes away.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NoProbe;

impl Probe for NoProbe {
    fn enabled(&self) -> bool {
        false
    }
}

/// Forward through references so `&sink` can be passed wherever an owned
/// probe is expected.
impl<P: Probe + ?Sized> Probe for &P {
    fn enter_begin(&self, p: Pid) {
        (**self).enter_begin(p);
    }
    fn enter_end(&self, p: Pid, ticket: Option<u64>) {
        (**self).enter_end(p, ticket);
    }
    fn cs_exit(&self, p: Pid) {
        (**self).cs_exit(p);
    }
    fn abort(&self, p: Pid, ticket: Option<u64>) {
        (**self).abort(p, ticket);
    }
    fn rmr(&self, p: Pid, kind: OpKind) {
        (**self).rmr(p, kind);
    }
    fn op(&self, p: Pid, kind: OpKind) {
        (**self).op(p, kind);
    }
    fn note(&self, p: Pid, label: &'static str, value: u64) {
        (**self).note(p, label, value);
    }
    fn enabled(&self) -> bool {
        (**self).enabled()
    }
}

/// Forward through [`Arc`](std::sync::Arc) so shared sinks can be handed
/// to executions that require an owned, `'static` probe.
impl<P: Probe + ?Sized> Probe for std::sync::Arc<P> {
    fn enter_begin(&self, p: Pid) {
        (**self).enter_begin(p);
    }
    fn enter_end(&self, p: Pid, ticket: Option<u64>) {
        (**self).enter_end(p, ticket);
    }
    fn cs_exit(&self, p: Pid) {
        (**self).cs_exit(p);
    }
    fn abort(&self, p: Pid, ticket: Option<u64>) {
        (**self).abort(p, ticket);
    }
    fn rmr(&self, p: Pid, kind: OpKind) {
        (**self).rmr(p, kind);
    }
    fn op(&self, p: Pid, kind: OpKind) {
        (**self).op(p, kind);
    }
    fn note(&self, p: Pid, label: &'static str, value: u64) {
        (**self).note(p, label, value);
    }
    fn enabled(&self) -> bool {
        (**self).enabled()
    }
}

/// `Some(probe)` forwards, `None` is a no-op — lets optional sinks
/// compose without a branch at every call site.
impl<P: Probe> Probe for Option<P> {
    fn enter_begin(&self, p: Pid) {
        if let Some(probe) = self {
            probe.enter_begin(p);
        }
    }
    fn enter_end(&self, p: Pid, ticket: Option<u64>) {
        if let Some(probe) = self {
            probe.enter_end(p, ticket);
        }
    }
    fn cs_exit(&self, p: Pid) {
        if let Some(probe) = self {
            probe.cs_exit(p);
        }
    }
    fn abort(&self, p: Pid, ticket: Option<u64>) {
        if let Some(probe) = self {
            probe.abort(p, ticket);
        }
    }
    fn rmr(&self, p: Pid, kind: OpKind) {
        if let Some(probe) = self {
            probe.rmr(p, kind);
        }
    }
    fn op(&self, p: Pid, kind: OpKind) {
        if let Some(probe) = self {
            probe.op(p, kind);
        }
    }
    fn note(&self, p: Pid, label: &'static str, value: u64) {
        if let Some(probe) = self {
            probe.note(p, label, value);
        }
    }
    fn enabled(&self) -> bool {
        self.as_ref().is_some_and(Probe::enabled)
    }
}

/// A pair broadcasts to both components — an *owned* fanout, usable
/// where a `'static` probe is required (unlike [`Fanout`], which borrows
/// its sinks).
impl<A: Probe, B: Probe> Probe for (A, B) {
    fn enter_begin(&self, p: Pid) {
        self.0.enter_begin(p);
        self.1.enter_begin(p);
    }
    fn enter_end(&self, p: Pid, ticket: Option<u64>) {
        self.0.enter_end(p, ticket);
        self.1.enter_end(p, ticket);
    }
    fn cs_exit(&self, p: Pid) {
        self.0.cs_exit(p);
        self.1.cs_exit(p);
    }
    fn abort(&self, p: Pid, ticket: Option<u64>) {
        self.0.abort(p, ticket);
        self.1.abort(p, ticket);
    }
    fn rmr(&self, p: Pid, kind: OpKind) {
        self.0.rmr(p, kind);
        self.1.rmr(p, kind);
    }
    fn op(&self, p: Pid, kind: OpKind) {
        self.0.op(p, kind);
        self.1.op(p, kind);
    }
    fn note(&self, p: Pid, label: &'static str, value: u64) {
        self.0.note(p, label, value);
        self.1.note(p, label, value);
    }
    fn enabled(&self) -> bool {
        self.0.enabled() || self.1.enabled()
    }
}

/// Broadcast every hook to a set of probes — the way the harness feeds
/// its internal [`PassageStats`](crate::PassageStats) and a caller's
/// sinks from one execution.
#[derive(Clone, Copy)]
pub struct Fanout<'a>(pub &'a [&'a dyn Probe]);

impl std::fmt::Debug for Fanout<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Fanout").field(&self.0.len()).finish()
    }
}

impl Probe for Fanout<'_> {
    fn enter_begin(&self, p: Pid) {
        for probe in self.0 {
            probe.enter_begin(p);
        }
    }
    fn enter_end(&self, p: Pid, ticket: Option<u64>) {
        for probe in self.0 {
            probe.enter_end(p, ticket);
        }
    }
    fn cs_exit(&self, p: Pid) {
        for probe in self.0 {
            probe.cs_exit(p);
        }
    }
    fn abort(&self, p: Pid, ticket: Option<u64>) {
        for probe in self.0 {
            probe.abort(p, ticket);
        }
    }
    fn rmr(&self, p: Pid, kind: OpKind) {
        for probe in self.0 {
            probe.rmr(p, kind);
        }
    }
    fn op(&self, p: Pid, kind: OpKind) {
        for probe in self.0 {
            probe.op(p, kind);
        }
    }
    fn note(&self, p: Pid, label: &'static str, value: u64) {
        for probe in self.0 {
            probe.note(p, label, value);
        }
    }
    fn enabled(&self) -> bool {
        self.0.iter().any(|probe| probe.enabled())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[derive(Default)]
    struct Counter(AtomicU64);

    impl Probe for Counter {
        fn enter_begin(&self, _p: Pid) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
        fn note(&self, _p: Pid, _label: &'static str, value: u64) {
            self.0.fetch_add(value, Ordering::Relaxed);
        }
    }

    #[test]
    fn probe_is_object_safe() {
        fn takes(p: &dyn Probe) {
            p.enter_begin(0);
        }
        takes(&NoProbe);
    }

    #[test]
    fn fanout_broadcasts_to_all_sinks() {
        let a = Counter::default();
        let b = Counter::default();
        let fan = Fanout(&[&a, &b]);
        fan.enter_begin(0);
        fan.note(1, "x", 10);
        fan.cs_exit(0); // default no-op on Counter
        assert_eq!(a.0.load(Ordering::Relaxed), 11);
        assert_eq!(b.0.load(Ordering::Relaxed), 11);
    }

    #[test]
    fn references_forward() {
        let c = Counter::default();
        let r: &dyn Probe = &&c;
        r.enter_begin(3);
        assert_eq!(c.0.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn pairs_options_and_arcs_compose() {
        let a = std::sync::Arc::new(Counter::default());
        let pair = (a.clone(), Some(NoProbe));
        pair.enter_begin(0);
        pair.note(0, "x", 4);
        let none: Option<NoProbe> = None;
        none.enter_begin(0); // no-op, must not panic
        assert_eq!(a.0.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn enabled_is_false_only_when_nothing_records() {
        let c = Counter::default();
        assert!(c.enabled(), "a sink records by default");
        assert!(!NoProbe.enabled());
        assert!(<&Counter as Probe>::enabled(&&c));
        assert!(!<&NoProbe as Probe>::enabled(&&NoProbe));
        assert!(std::sync::Arc::new(Counter::default()).enabled());
        assert!(!std::sync::Arc::new(NoProbe).enabled());
        assert!(Some(Counter::default()).enabled());
        assert!(!Some(NoProbe).enabled() && !None::<Counter>.enabled());
        assert!((NoProbe, Counter::default()).enabled());
        assert!((Counter::default(), NoProbe).enabled());
        assert!(!(NoProbe, NoProbe).enabled());
        assert!(Fanout(&[&NoProbe, &c]).enabled());
        assert!(!Fanout(&[&NoProbe, &NoProbe]).enabled() && !Fanout(&[]).enabled());
        let dynamic: &dyn Probe = &NoProbe;
        assert!(
            !dynamic.enabled(),
            "object-safe: answers through `dyn Probe`"
        );
    }
}
