//! What the operating system knows about this process: CPU time of the
//! process and of each thread, peak resident memory, context switches and
//! established connections. Linux `/proc` only; every reader returns an
//! error where the file is missing, so an unsupported platform fails the
//! run instead of reporting zeros.

use std::collections::HashMap;
use std::fs;
use std::io;
use std::time::{Duration, Instant};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU time of the whole process so far, in nanoseconds.
/// Includes threads that have already exited, which `/proc/self/task` does
/// not.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, which lib.rs pins with a compile_error) that
    // outlives the call; clock_gettime writes only through that pointer.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID is always available");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// User-mode CPU seconds of the whole process so far (`/proc/self/stat`,
/// `utime`, in USER_HZ = 100 ticks). Coarser than [`process_cpu_ns`]; for
/// intervals of seconds where kernel time must be left out.
pub fn process_user_cpu_s() -> io::Result<f64> {
    let stat = fs::read_to_string("/proc/self/stat")?;
    // The second field, `(comm)`, may itself hold spaces and brackets;
    // the numbered fields resume after its closing bracket. `utime` is
    // field 14, the twelfth after it.
    stat.rsplit(')')
        .next()
        .and_then(|rest| rest.split_whitespace().nth(11))
        .and_then(|ticks| ticks.parse::<u64>().ok())
        .map(|ticks| ticks as f64 / 100.0)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no utime in stat"))
}

fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Peak resident set size (`VmHWM`) of the process in MiB.
pub fn rss_peak_mib() -> io::Result<f64> {
    let status = fs::read_to_string("/proc/self/status")?;
    let kib = status_field(&status, "VmHWM:")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM in status"))?;
    Ok(kib as f64 / 1024.0)
}

/// CPU seconds the hypervisor has stolen from all CPUs since boot
/// (`/proc/stat`, first line, eighth value, in USER_HZ = 100 ticks); 0
/// where it is not reported. A run prints how much was stolen while it
/// ran, so a reader can tell a slow machine from a slow program.
pub fn steal_seconds() -> f64 {
    let ticks: u64 = fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let first = s.lines().next()?;
            first.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0);
    ticks as f64 / 100.0
}

/// Server-side sockets in state ESTABLISHED whose local port is `port`
/// (IPv4 loopback, `/proc/net/tcp`).
pub fn established_on_port(port: u16) -> io::Result<usize> {
    let table = fs::read_to_string("/proc/net/tcp")?;
    let want = format!(":{port:04X}");
    Ok(table
        .lines()
        .skip(1)
        .filter(|line| {
            let mut cols = line.split_whitespace();
            let local = cols.nth(1).unwrap_or("");
            let state = cols.nth(1).unwrap_or("");
            local.ends_with(&want) && state == "01"
        })
        .count())
}

/// Block until every `(port, connections)` pair has at least that many
/// established server-side sockets, or `deadline` passes.
pub fn wait_established(ports: &[(u16, usize)], deadline: Instant) -> io::Result<()> {
    loop {
        let mut ready = true;
        for &(port, want) in ports {
            if established_on_port(port)? < want {
                ready = false;
                break;
            }
        }
        if ready {
            return Ok(());
        }
        if Instant::now() >= deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "executors did not connect in time",
            ));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Which part of the deployment a thread belongs to, from its `comm`. The
/// benchmark names the thread it starts each part from; threads that part
/// spawns without a name inherit it (Linux copies `comm` on clone).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Group {
    /// The system under test: everything started from a `sut` thread.
    Server,
    /// Executor peers: everything started from a `gen-exec` thread.
    PeerExec,
    /// The client peer: everything started from a `gen-client` thread.
    PeerClient,
    /// The benchmark's own controller and sampler.
    Bench,
}

/// `comm` of the thread the server is started and stopped from.
pub const COMM_SERVER: &str = "sut";
/// `comm` of the threads executors are started from.
pub const COMM_EXEC: &str = "gen-exec";
/// `comm` of the thread the client runs on.
pub const COMM_CLIENT: &str = "gen-client";

fn group_of(comm: &str) -> Group {
    match comm.trim_end() {
        COMM_SERVER => Group::Server,
        COMM_EXEC => Group::PeerExec,
        COMM_CLIENT => Group::PeerClient,
        _ => Group::Bench,
    }
}

#[derive(Clone, Copy, Default)]
struct ThreadUsage {
    cpu_ns: u64,
    voluntary_switches: u64,
}

struct Seen {
    group: Group,
    base: ThreadUsage,
    last: ThreadUsage,
}

/// CPU time and voluntary context switches of one thread group over the
/// sampled interval.
#[derive(Clone, Copy, Default, Debug)]
pub struct GroupUsage {
    /// CPU nanoseconds.
    pub cpu_ns: u64,
    /// Voluntary context switches (blocking waits that were woken).
    pub wakes: u64,
}

/// Samples `/proc/self/task/*` and keeps, per thread, its usage at
/// [`ThreadSampler::start`] and at the last sample that still saw it. A
/// thread that exits between samples keeps its last reading, so its work
/// is lost only from its final sampling interval.
pub struct ThreadSampler {
    seen: HashMap<u32, Seen>,
    threads_peak: usize,
}

impl ThreadSampler {
    /// Take the baseline: threads alive now count from their current
    /// usage, threads born later from zero.
    pub fn start() -> io::Result<ThreadSampler> {
        let mut s = ThreadSampler {
            seen: HashMap::new(),
            threads_peak: 0,
        };
        s.sample()?;
        for t in s.seen.values_mut() {
            t.base = t.last;
        }
        Ok(s)
    }

    /// Read every live thread once.
    pub fn sample(&mut self) -> io::Result<()> {
        let mut live = 0usize;
        for entry in fs::read_dir("/proc/self/task")? {
            let entry = entry?;
            let Some(tid) = entry
                .file_name()
                .to_str()
                .and_then(|s| s.parse::<u32>().ok())
            else {
                continue;
            };
            // A thread can exit between readdir and the reads below; skip
            // it for this sample (its last reading stands).
            let Some(usage) = read_thread(tid) else {
                continue;
            };
            live += 1;
            match self.seen.get_mut(&tid) {
                // A named thread renames itself just after it starts; one
                // first seen under its parent's name is looked at again.
                Some(t) if t.group != Group::Bench => t.last = usage,
                Some(t) => {
                    t.last = usage;
                    if let Ok(comm) = fs::read_to_string(format!("/proc/self/task/{tid}/comm")) {
                        t.group = group_of(&comm);
                    }
                }
                None => {
                    let Ok(comm) = fs::read_to_string(format!("/proc/self/task/{tid}/comm")) else {
                        continue;
                    };
                    self.seen.insert(
                        tid,
                        Seen {
                            group: group_of(&comm),
                            base: ThreadUsage::default(),
                            last: usage,
                        },
                    );
                }
            }
        }
        self.threads_peak = self.threads_peak.max(live);
        Ok(())
    }

    /// Usage of one group since the baseline.
    pub fn usage(&self, group: Group) -> GroupUsage {
        let mut u = GroupUsage::default();
        for t in self.seen.values().filter(|t| t.group == group) {
            u.cpu_ns += t.last.cpu_ns.saturating_sub(t.base.cpu_ns);
            u.wakes += t
                .last
                .voluntary_switches
                .saturating_sub(t.base.voluntary_switches);
        }
        u
    }

    /// Most threads alive at any one sample.
    pub fn threads_peak(&self) -> usize {
        self.threads_peak
    }
}

fn read_thread(tid: u32) -> Option<ThreadUsage> {
    // schedstat: "<ns on cpu> <ns waiting> <timeslices>", nanosecond
    // resolution (stat's utime/stime are 10 ms ticks, too coarse to sum
    // over a hundred threads).
    let sched = fs::read_to_string(format!("/proc/self/task/{tid}/schedstat")).ok()?;
    let cpu_ns = sched.split_whitespace().next()?.parse().ok()?;
    let status = fs::read_to_string(format!("/proc/self/task/{tid}/status")).ok()?;
    let voluntary_switches = status_field(&status, "voluntary_ctxt_switches:")?;
    Some(ThreadUsage {
        cpu_ns,
        voluntary_switches,
    })
}
