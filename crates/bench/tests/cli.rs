//! The `repro` command line rejects what it does not know. `repro bench`
//! in particular takes no flags: its floors are constants in
//! `perfbench.rs`, and the report-writing flags it once had are gone.

use std::process::Command;

fn exit_code(args: &[&str]) -> Option<i32> {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run repro")
        .status
        .code()
}

#[test]
fn unknown_flags_and_experiments_exit_2() {
    for args in [
        &["bench", "--json", "x"][..],
        &["bench", "--floor", "a=1"],
        &["bench", "--jobs", "2"],
        &["fig3", "--json", "x"],
        &["table1", "--fast"],
        &["bogus"],
    ] {
        assert_eq!(exit_code(args), Some(2), "repro {}", args.join(" "));
    }
}
