//! Use case 1 of the paper's introduction: "a process blocked on a lock
//! may wish to abandon its work chunk and switch to working on a
//! different work chunk not subjected to serialization."
//!
//! A pool of workers processes a bag of chunks, each chunk guarded by its
//! own abortable mutex. When a worker finds a chunk's lock contended it
//! *aborts the acquisition after a short patience window* and moves on to
//! another chunk, instead of convoying behind the current owner. Every
//! chunk still gets processed exactly the intended number of times —
//! aborting an acquisition has no effect on the protected data.
//!
//! Run with: `cargo run --example work_stealing`

use sal_sync::{AbortableMutex, Acquire};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

const CHUNKS: usize = 16;
const WORKERS: usize = 4;
const UNITS_PER_CHUNK: usize = 12;

struct Chunk {
    id: usize,
    /// Work units remaining.
    mutex: AbortableMutex<usize>,
}

fn main() {
    let chunks: Arc<Vec<Chunk>> = Arc::new(
        (0..CHUNKS)
            .map(|id| Chunk {
                id,
                mutex: AbortableMutex::builder(UNITS_PER_CHUNK)
                    .capacity(WORKERS)
                    .build(),
            })
            .collect(),
    );
    let remaining = Arc::new(AtomicUsize::new(CHUNKS * UNITS_PER_CHUNK));
    let steals = Arc::new(AtomicUsize::new(0));

    let workers: Vec<_> = (0..WORKERS)
        .map(|w| {
            let chunks = Arc::clone(&chunks);
            let remaining = Arc::clone(&remaining);
            let steals = Arc::clone(&steals);
            std::thread::spawn(move || {
                // One handle per chunk; handles are free.
                let mut handles: Vec<_> = chunks.iter().map(|c| c.mutex.handle()).collect();
                let mut cursor = w; // start at different chunks
                let mut done_units = 0usize;
                while remaining.load(Ordering::Relaxed) > 0 {
                    let idx = cursor % CHUNKS;
                    cursor += 1;
                    // Short patience: if the chunk is busy, steal away to
                    // the next one rather than queueing.
                    let patience = Acquire::new().within(Duration::from_micros(50));
                    match handles[idx].acquire(patience).ok() {
                        Some(mut units) => {
                            if *units > 0 {
                                *units -= 1;
                                // simulate the actual work
                                std::thread::sleep(Duration::from_micros(100));
                                remaining.fetch_sub(1, Ordering::Relaxed);
                                done_units += 1;
                            }
                        }
                        None => {
                            steals.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                (w, done_units)
            })
        })
        .collect();

    for h in workers {
        let (w, units) = h.join().unwrap();
        println!("worker {w}: completed {units} units");
    }

    // Verify no unit was lost or double-counted despite all the aborts.
    let leftover: usize = chunks
        .iter()
        .map(|c| {
            let mut h = c.mutex.handle();
            let v = *h.lock();
            assert_eq!(v, 0, "chunk {} still has {} units", c.id, v);
            v
        })
        .sum();
    println!(
        "all {} units processed (leftover {leftover}); {} contended acquisitions were \
         abandoned and redirected to other chunks",
        CHUNKS * UNITS_PER_CHUNK,
        steals.load(Ordering::Relaxed),
    );
}
