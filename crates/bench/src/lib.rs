//! The `repro` harness binary (`src/bin/repro.rs`) and [`harness`], the
//! `repro all` runner (serial or `--jobs N` parallel, byte-identical output
//! either way). Performance is measured by `benchmark/`, not here.

pub mod harness;
