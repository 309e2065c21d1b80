//! The correctness gate fails the command: with one reference estimate
//! deliberately wrong, the benchmark must report the mismatch, exit
//! non-zero and print no result line.

use std::process::Command;

#[test]
fn a_wrong_reference_estimate_fails_the_command() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "est_point", "--seed", "1", "--seconds", "1"])
        .args(["--trace", "0", "--inject-wrong-reference"])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{stderr}");
    assert!(!stdout.contains("\"correct\""), "{stdout}");
    assert!(stderr.contains("MISMATCH"), "{stderr}");
    assert!(stderr.contains("failed the correctness gate"), "{stderr}");
}
