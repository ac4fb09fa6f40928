//! The `repro` command line rejects what it does not know or cannot do
//! (`--jobs` above 1 on one experiment). `bench` names no experiment, so
//! it and the flags the rate-floor tripwire of that name took exit 2.

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
        &["bench"][..],
        &["bench", "--json", "x"],
        &["bench", "--floor", "a=1"],
        &["bench", "--jobs", "2"],
        &["fig3", "--json", "x"],
        &["fig3", "--jobs", "2"],
        &["table1", "--fast"],
        &["bogus"],
    ] {
        assert_eq!(exit_code(args), Some(2), "repro {}", args.join(" "));
    }
}
