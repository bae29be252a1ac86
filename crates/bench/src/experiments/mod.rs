//! The runner's experiments, one module each. Every module exposes
//! `flags(Cli) -> Cli` (its flag declarations) and
//! `run(part, &Parsed) -> Result<(), Exit>`; those with positional
//! parts also expose `PARTS`, default first.

pub mod ablations;
pub mod explore;
pub mod figures;
pub mod sweep;
pub mod table1;
