//! Parallel grid evaluation for the experiments.
//!
//! Every table and figure in this crate is a grid of *mutually
//! independent* cells — (lock × N × seed) configurations that each
//! build their own `CcMemory` and share nothing. [`par_grid`] fans the
//! cells out over the work-stealing pool in `sal-runtime` and gathers
//! results **by cell index**, so the driver consumes them in exactly
//! the order a serial loop would have produced: tables, JSON exports
//! and absorbed JSONL event logs come out byte-identical whatever the
//! worker count.
//!
//! The worker count comes from `SAL_JOBS`, else available parallelism
//! ([`pool::default_jobs`]).

use sal_obs::EventLog;
use sal_runtime::pool;

/// Evaluate `eval` over every cell of `cells` on `jobs` workers (`0` =
/// auto) and return the results in cell order. Cells must be
/// independent: each one builds its own memory/lock/sinks. With
/// `jobs == 1` this is exactly the serial loop (same code path, no
/// threads), which is what makes the parallel output provably
/// comparable.
pub fn par_grid<C, T, F>(jobs: usize, cells: &[C], eval: F) -> Vec<T>
where
    C: Sync,
    T: Send,
    F: Fn(&C) -> T + Sync,
{
    pool::par_map_indexed(jobs, cells.len(), |i| eval(&cells[i]))
}

/// Fold the per-cell event logs of a grid's results into one log, in
/// cell order — so an exported JSONL stream never silently overflows
/// and is identical at any worker count.
pub fn absorb<T>(results: Vec<(T, EventLog)>) -> (Vec<T>, EventLog) {
    let log = EventLog::unbounded();
    let points = results
        .into_iter()
        .map(|(p, cell_log)| {
            log.absorb(&cell_log);
            p
        })
        .collect();
    (points, log)
}

/// Parse a comma-separated list flag value (`--seeds 1,2,3`,
/// `--workers 1,2,4,8`) into integers.
///
/// # Errors
///
/// When any element fails to parse, or the list is empty.
pub fn parse_list<T: std::str::FromStr>(flag: &str, value: &str) -> Result<Vec<T>, String>
where
    T::Err: std::fmt::Display,
{
    let out: Vec<T> = value
        .split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|s| s.trim().parse::<T>().map_err(|e| format!("{flag}: {e}")))
        .collect::<Result<_, _>>()?;
    if out.is_empty() {
        return Err(format!("{flag}: empty list"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_grid_preserves_cell_order() {
        let cells: Vec<usize> = (0..50).collect();
        for jobs in [1, 4] {
            let out = par_grid(jobs, &cells, |&c| c * 3);
            assert_eq!(out, cells.iter().map(|c| c * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn lists_parse_or_fail_loudly() {
        assert_eq!(
            parse_list::<usize>("--workers", "1, 2,4,8").unwrap(),
            vec![1, 2, 4, 8]
        );
        assert!(parse_list::<usize>("--workers", "1,x").is_err());
        assert!(parse_list::<usize>("--workers", "").is_err());
    }
}
