//! One request, every surface: each `Acquire` shape runs against a held
//! lock on a sync handle, an arena key that is inline when the attempt
//! starts, an arena key that is already materialized, and the async
//! mutex. Every surface must report the same outcome and `AbortReason`.
//!
//! The timeline is the same in every cell: a holder takes the lock
//! (value 0) and the attempt starts; at `FIRE` the deadlines expire and
//! the abort flag is set; at `RELEASE` the holder writes 1 and releases.
//! A limited attempt must therefore give up while queued, and an
//! unlimited one enters after the release and sees 1.

use sal_sync::{
    AbortFlag, AbortReason, AbortableMutex, Acquire, Arena, AsyncAbortableMutex, AsyncMutexGuard,
    Immediate,
};
use std::future::Future;
use std::ops::DerefMut;
use std::pin::Pin;
use std::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};
use std::time::{Duration, Instant};

const FIRE: Duration = Duration::from_millis(30);
const RELEASE: Duration = Duration::from_millis(90);

#[derive(Debug, Clone, Copy)]
enum Shape {
    Plain,
    When,
    Until,
    Within,
    Flag,
    Immediate,
}

const SHAPES: [Shape; 6] = [
    Shape::Plain,
    Shape::When,
    Shape::Until,
    Shape::Within,
    Shape::Flag,
    Shape::Immediate,
];

/// The value seen under the guard, or why the attempt gave up.
type Outcome = Result<u64, AbortReason>;

fn expected(shape: Shape) -> Outcome {
    match shape {
        Shape::Plain | Shape::When => Ok(1),
        Shape::Until | Shape::Within => Err(AbortReason::Deadline),
        Shape::Flag | Shape::Immediate => Err(AbortReason::Caller),
    }
}

/// Bind `$req` to the request of `$shape` (each shape has its own
/// type) and evaluate `$body` with it.
macro_rules! with_request {
    ($shape:expr, $flag:expr, $start:expr, |$req:ident| $body:expr) => {
        match $shape {
            Shape::Plain => {
                let $req = Acquire::new();
                $body
            }
            Shape::When => {
                let $req = Acquire::new().when(|v: &u64| *v == 1);
                $body
            }
            Shape::Until => {
                let $req = Acquire::new().until($start + FIRE);
                $body
            }
            Shape::Within => {
                let $req = Acquire::new().within(FIRE);
                $body
            }
            Shape::Flag => {
                let $req = Acquire::new().abort_on($flag.clone());
                $body
            }
            Shape::Immediate => {
                let $req = Acquire::new().abort_on(Immediate);
                $body
            }
        }
    };
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// The holder's side of the timeline.
fn hold_then_release(mut g: impl DerefMut<Target = u64>, start: Instant, flag: &AbortFlag) {
    sleep_until(start + FIRE);
    flag.set();
    sleep_until(start + RELEASE);
    *g = 1;
}

fn on_handle(shape: Shape) -> Outcome {
    let m = AbortableMutex::builder(0u64).capacity(2).build();
    let (mut holder, mut contender) = (m.handle(), m.handle());
    let flag = AbortFlag::new();
    let start = Instant::now();
    let g = holder.lock();
    let out = std::thread::scope(|s| {
        let t =
            s.spawn(|| with_request!(shape, flag, start, |req| contender.acquire(req).map(|g| *g)));
        hold_then_release(g, start, &flag);
        t.join().unwrap()
    });
    assert!(contender.try_lock().is_some(), "{shape:?}: the lock leaked");
    out
}

fn on_arena(shape: Shape, materialized: bool) -> Outcome {
    let arena: Arena<u8, u64> = Arena::new();
    let (flag, stop) = (AbortFlag::new(), AbortFlag::new());
    let out = std::thread::scope(|s| {
        if materialized {
            // A parked conditional waiter keeps the key materialized.
            s.spawn(|| {
                let req = Acquire::new().when(|v: &u64| *v == 99).abort_on(&stop);
                assert_eq!(arena.acquire(&1, req).err(), Some(AbortReason::Caller));
            });
            while arena.stats().resident_cores == 0 {
                std::thread::yield_now();
            }
        }
        let start = Instant::now();
        let g = arena.lock(&1);
        let (arena, flag) = (&arena, &flag);
        let t = s.spawn(move || {
            with_request!(shape, flag, start, |req| arena.acquire(&1, req).map(|g| *g))
        });
        hold_then_release(g, start, flag);
        let out = t.join().unwrap();
        stop.set();
        out
    });
    assert_eq!(arena.stats().resident_cores, 0, "{shape:?}: a core leaked");
    out
}

fn noop_waker() -> Waker {
    fn vt() -> &'static RawWakerVTable {
        &RawWakerVTable::new(|d| RawWaker::new(d, vt()), |_| {}, |_| {}, |_| {})
    }
    // SAFETY: every vtable entry ignores its data pointer.
    unsafe { Waker::from_raw(RawWaker::new(std::ptr::null(), vt())) }
}

/// Poll the attempt at the start, just past `FIRE`, and after the
/// release. Nothing re-polls a parked future without lock traffic (the
/// async deadline caveat), so the test polls where the blocking
/// surfaces observe the timeline.
fn drive<'a, F>(
    mut fut: F,
    holder: AsyncMutexGuard<'a, u64>,
    start: Instant,
    flag: &AbortFlag,
) -> Outcome
where
    F: Future<Output = Result<AsyncMutexGuard<'a, u64>, AbortReason>> + Unpin,
{
    let mut holder = Some(holder);
    for at in [Duration::ZERO, FIRE + FIRE / 2, RELEASE] {
        sleep_until(start + at);
        if at >= FIRE {
            flag.set();
        }
        if at == RELEASE {
            if let Some(mut g) = holder.take() {
                *g = 1;
            }
        }
        let waker = noop_waker();
        if let Poll::Ready(r) = Pin::new(&mut fut).poll(&mut Context::from_waker(&waker)) {
            return r.map(|g| *g);
        }
    }
    panic!("the attempt did not resolve after the release")
}

fn on_async(shape: Shape) -> Outcome {
    let m = AsyncAbortableMutex::builder(0u64).capacity(2).build_async();
    let flag = AbortFlag::new();
    let start = Instant::now();
    let g = m.try_lock().expect("free");
    let out = with_request!(shape, flag, start, |req| drive(
        m.acquire(req),
        g,
        start,
        &flag
    ));
    assert_eq!(m.free_pids(), 2, "{shape:?}: a pid leaked");
    out
}

#[test]
fn every_request_shape_ends_the_same_on_every_surface() {
    for shape in SHAPES {
        let want = expected(shape);
        assert_eq!(on_handle(shape), want, "{shape:?} on a sync handle");
        assert_eq!(
            on_arena(shape, false),
            want,
            "{shape:?} on an inline arena key"
        );
        assert_eq!(
            on_arena(shape, true),
            want,
            "{shape:?} on a materialized arena key"
        );
        assert_eq!(on_async(shape), want, "{shape:?} on the async mutex");
    }
}
