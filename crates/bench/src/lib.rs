//! The `repro` harness binary (`src/bin/repro.rs`) and [`harness`], the
//! `repro all` runner (`--jobs N` workers, byte-identical output for every
//! `N`). Performance is measured by `benchmark/`, not here.

pub mod harness;
