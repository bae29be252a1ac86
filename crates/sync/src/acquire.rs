//! [`Acquire`]: the one acquisition request every `sal-sync` surface
//! executes.
//!
//! An attempt to take a lock is a run of the resumable enter machine
//! plus two optional parts: a predicate over the protected value that
//! must hold once the lock is held (a conditional critical section, see
//! [`crate::ccs`]), and a limit that ends the attempt early — a deadline
//! or a caller's abort signal. The limit is injected as the paper's
//! abort signal, so an attempt that gives up while queued leaves on the
//! bounded-RMR abort path.

use sal_core::AbortReason;
use sal_memory::{AbortSignal, NeverAbort};
use std::fmt;
use std::sync::Arc;
use std::task::{Wake, Waker};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

/// How often a blocked wait limited by a caller signal re-checks it:
/// nobody wakes a parked waiter when an arbitrary signal fires.
const SIGNAL_POLL: Duration = Duration::from_micros(100);

/// Wakes a blocked thread.
struct Unpark(Thread);

impl Wake for Unpark {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }
}

thread_local! {
    /// A waker that unparks this thread, built on its first wait: a
    /// blocked thread leaves it wherever a task would leave its own, then
    /// [`Limit::park`]s.
    pub(crate) static THREAD_WAKER: Waker = Waker::from(Arc::new(Unpark(thread::current())));
}

/// A condition over the protected value (every `Fn(&T) -> bool + Sync`
/// closure, and [`Always`]). It runs under the lock, also on other
/// threads' unlock paths, so it should be pure and cheap.
pub trait Predicate<T: ?Sized>: Sync {
    /// Whether the condition holds for `value`.
    fn holds(&self, value: &T) -> bool;
}

impl<T: ?Sized, F: Fn(&T) -> bool + Sync> Predicate<T> for F {
    #[inline]
    fn holds(&self, value: &T) -> bool {
        self(value)
    }
}

/// The default predicate of an [`Acquire`]: always true, so a request
/// without [`when`](Acquire::when) compiles to a plain acquisition.
#[derive(Debug, Clone, Copy, Default)]
pub struct Always;

impl<T: ?Sized> Predicate<T> for Always {
    #[inline]
    fn holds(&self, _: &T) -> bool {
        true
    }
}

/// What ends an attempt early; it decides the [`AbortReason`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum Limit<S> {
    Forever,
    Until(Instant),
    Signal(S),
}

impl<S: AbortSignal> AbortSignal for Limit<S> {
    #[inline]
    fn is_set(&self) -> bool {
        match self {
            Limit::Forever => false,
            Limit::Until(t) => Instant::now() >= *t,
            Limit::Signal(s) => s.is_set(),
        }
    }
}

impl<S: AbortSignal> Limit<S> {
    /// The reason this limit reports when it ends an attempt.
    pub(crate) fn reason(&self) -> AbortReason {
        match self {
            Limit::Until(_) => AbortReason::Deadline,
            Limit::Forever | Limit::Signal(_) => AbortReason::Caller,
        }
    }

    pub(crate) fn expired(&self) -> Option<AbortReason> {
        self.is_set().then(|| self.reason())
    }

    /// Park the calling thread until it is unparked or this limit must
    /// be re-checked. A return proves nothing: a stale waker, a deadline
    /// or `park` itself may end it early, so callers re-check.
    pub(crate) fn park(&self) {
        match self {
            Limit::Forever => thread::park(),
            Limit::Until(t) => thread::park_timeout(t.saturating_duration_since(Instant::now())),
            Limit::Signal(_) => thread::park_timeout(SIGNAL_POLL),
        }
    }
}

/// One acquisition request: a predicate (default [`Always`]) and a limit
/// (default: none). Build it with [`Acquire::new`] and the combinators,
/// then hand it to [`MutexHandle::acquire`](crate::MutexHandle::acquire),
/// [`MutexGuard::await_when`](crate::MutexGuard::await_when),
/// [`Arena::acquire`](crate::Arena::acquire) or
/// [`AsyncAbortableMutex::acquire`](crate::AsyncAbortableMutex::acquire).
///
/// A request has one limit: the last of [`until`](Self::until),
/// [`within`](Self::within) and [`abort_on`](Self::abort_on) wins. A
/// limit that fires after the lock was handed over does not retract the
/// acquisition (the paper's `Enter` semantics).
#[derive(Clone)]
pub struct Acquire<F = Always, S = NeverAbort> {
    pub(crate) pred: F,
    pub(crate) limit: Limit<S>,
}

impl Acquire {
    /// A plain request: no predicate, no limit.
    pub fn new() -> Self {
        Acquire {
            pred: Always,
            limit: Limit::Forever,
        }
    }
}

impl Default for Acquire {
    fn default() -> Self {
        Self::new()
    }
}

impl<F, S> Acquire<F, S> {
    /// Acquire only once `pred` holds over the protected value. While it
    /// is false the caller waits, and each unlock evaluates it under the
    /// lock, waking the caller only once it can succeed ([`crate::ccs`]).
    pub fn when<G>(self, pred: G) -> Acquire<G, S> {
        Acquire {
            pred,
            limit: self.limit,
        }
    }

    /// Give up with [`AbortReason::Deadline`] once `deadline` passes.
    pub fn until(self, deadline: Instant) -> Self {
        Acquire {
            limit: Limit::Until(deadline),
            ..self
        }
    }

    /// [`until`](Self::until) `now + timeout`, resolved once, here.
    pub fn within(self, timeout: Duration) -> Self {
        self.until(Instant::now() + timeout)
    }

    /// Give up with [`AbortReason::Caller`] once `signal` fires: an
    /// [`AbortFlag`](crate::AbortFlag) shared with a controller,
    /// [`Immediate`](crate::Immediate) for one attempt that never waits,
    /// or any other [`AbortSignal`].
    pub fn abort_on<R>(self, signal: R) -> Acquire<F, R> {
        Acquire {
            pred: self.pred,
            limit: Limit::Signal(signal),
        }
    }
}

impl<F, S: fmt::Debug> fmt::Debug for Acquire<F, S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Acquire")
            .field("limit", &self.limit)
            .finish_non_exhaustive()
    }
}
