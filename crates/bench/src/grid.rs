//! Helpers shared by the experiment grids.
//!
//! Every table and figure in this crate is a grid of *mutually
//! independent* cells — (lock × N × seed) configurations that each
//! build their own `CcMemory` and share nothing. The experiments pass
//! their cell slices straight to [`sal_runtime::pool::par_map`], which
//! runs the cells on `SAL_JOBS` threads (else available parallelism)
//! and gathers results **by cell index**, so a driver consumes them in
//! exactly the order a serial loop would have produced. [`absorb`] then
//! folds the per-cell event logs in that same order: tables, JSON
//! exports and JSONL event logs come out byte-identical whatever the
//! worker count.

use sal_obs::EventLog;

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
    fn lists_parse_or_fail_loudly() {
        assert_eq!(
            parse_list::<usize>("--workers", "1, 2,4,8").unwrap(),
            vec![1, 2, 4, 8]
        );
        assert!(parse_list::<usize>("--workers", "1,x").is_err());
        assert!(parse_list::<usize>("--workers", "").is_err());
    }
}
