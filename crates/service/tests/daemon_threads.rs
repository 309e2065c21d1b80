//! An idle `xseed-serve` runs two threads: the one reading requests and
//! the HET maintenance thread. `--workers` sizes the admission budget
//! and starts no threads.

#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// The sorted names of process `pid`'s threads.
fn thread_names(pid: u32) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(format!("/proc/{pid}/task"))
        .expect("list the daemon's threads")
        .map(|task| {
            let comm = task.expect("thread entry").path().join("comm");
            let name = std::fs::read_to_string(comm).expect("read thread name");
            name.trim_end().to_string()
        })
        .collect();
    names.sort();
    names
}

#[test]
fn an_idle_daemon_runs_only_its_reader_and_maintenance_threads() {
    // The kernel keeps 15 bytes of "xseed-maintenance".
    const EXPECTED: [&str; 2] = ["xseed-maintenan", "xseed-serve"];
    let mut child = Command::new(env!("CARGO_BIN_EXE_xseed-serve"))
        .args(["--workers", "4"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("start xseed-serve");
    let mut stdin = child.stdin.take().expect("stdin is piped");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
    // One reply means the service, and with it every thread it starts,
    // is up.
    writeln!(stdin, "STATS").expect("send STATS");
    let mut reply = String::new();
    stdout.read_line(&mut reply).expect("read STATS reply");
    assert!(reply.starts_with("OK workers=4 "), "{reply}");

    // A new thread names itself once it first runs, so let the names
    // settle; extra threads would never go away.
    let deadline = Instant::now() + Duration::from_secs(10);
    let threads = loop {
        let threads = thread_names(child.id());
        if threads == EXPECTED || Instant::now() > deadline {
            break threads;
        }
        std::thread::sleep(Duration::from_millis(10));
    };

    // Closing stdin ends the session and the process.
    drop(stdin);
    assert!(child.wait().expect("wait for xseed-serve").success());
    assert_eq!(threads, EXPECTED);
}
