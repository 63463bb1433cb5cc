//! The few Linux system calls the standard library does not expose:
//! `wait4` (a child's own peak RSS and CPU time), `getrusage` (this
//! process's CPU time) and `ppoll` (the load generator's event loop),
//! plus `/proc` readers. The benchmark runs on Linux only.

use std::io;
use std::os::unix::io::RawFd;
use std::time::Duration;

#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

/// `struct pollfd`.
#[repr(C)]
#[derive(Clone, Copy)]
pub struct PollFd {
    pub fd: RawFd,
    pub events: i16,
    pub revents: i16,
}

pub const POLLIN: i16 = 0x1;
pub const POLLOUT: i16 = 0x4;

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn getrusage(who: i32, rusage: *mut Rusage) -> i32;
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const SIGKILL: i32 = 9;

/// CPU time and peak resident set of one process.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub user_s: f64,
    pub sys_s: f64,
    pub peak_rss_mb: f64,
}

impl Usage {
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }

    fn from_raw(r: &Rusage) -> Self {
        Usage {
            user_s: r.utime.sec as f64 + r.utime.usec as f64 * 1e-6,
            sys_s: r.stime.sec as f64 + r.stime.usec as f64 * 1e-6,
            peak_rss_mb: r.maxrss_kb as f64 / 1024.0,
        }
    }
}

/// Reaps child `pid`, blocking until it exits. Returns whether it exited
/// with status 0, and its own resource usage.
pub fn wait_child(pid: u32) -> io::Result<(bool, Usage)> {
    let mut status = 0i32;
    let mut ru = Rusage::default();
    loop {
        // SAFETY: `status` and `ru` are valid, exclusively borrowed out
        // parameters of the sizes the kernel writes (int, struct rusage).
        let r = unsafe { wait4(pid as i32, &mut status, 0, &mut ru) };
        if r == pid as i32 {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    // WIFEXITED(status) && WEXITSTATUS(status) == 0
    let ok = (status & 0x7f) == 0 && ((status >> 8) & 0xff) == 0;
    Ok((ok, Usage::from_raw(&ru)))
}

/// Kills child `pid` (SIGKILL); errors such as "already exited" are
/// ignored, the caller reaps it with [`wait_child`] either way.
pub fn kill_child(pid: u32) {
    // SAFETY: kill(2) takes plain integers and touches no memory.
    unsafe {
        kill(pid as i32, SIGKILL);
    }
}

/// CPU time of this process so far (peak RSS included).
pub fn self_usage() -> Usage {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a valid out parameter of the size the kernel writes.
    unsafe {
        getrusage(RUSAGE_SELF, &mut ru);
    }
    Usage::from_raw(&ru)
}

/// Waits until one of `fds` is ready or `timeout` passes. Interrupted
/// waits return normally; the caller re-checks its state either way.
pub fn poll_fds(fds: &mut [PollFd], timeout: Duration) -> io::Result<()> {
    let ts = Timespec {
        sec: timeout.as_secs() as i64,
        nsec: timeout.subsec_nanos() as i64,
    };
    // SAFETY: `fds` is a valid slice of `pollfd` of the given length and
    // `ts` outlives the call; a null signal mask is allowed.
    let r = unsafe { ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null()) };
    if r < 0 {
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    Ok(())
}

/// Names of the threads of process `pid` (empty once it has exited).
pub fn thread_names(pid: u32) -> Vec<String> {
    let Ok(dir) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return Vec::new();
    };
    dir.filter_map(|e| e.ok())
        .filter_map(|e| std::fs::read_to_string(e.path().join("comm")).ok())
        .map(|s| s.trim_end().to_string())
        .collect()
}

/// Thread count of process `pid` (0 once it has exited).
pub fn thread_count(pid: u32) -> usize {
    std::fs::read_dir(format!("/proc/{pid}/task"))
        .map(|d| d.count())
        .unwrap_or(0)
}

/// User plus system CPU seconds process `pid` has used so far, from
/// `/proc/<pid>/stat` (clock ticks of 1/100 s, the Linux `USER_HZ`).
pub fn proc_cpu_s(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// `model name` of the first CPU in `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Samples this process's thread count every 5 ms on a thread of its own
/// until [`PeakThreads::stop`]; reports the highest count seen, less the
/// sampler itself.
pub struct PeakThreads {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    handle: std::thread::JoinHandle<usize>,
}

impl PeakThreads {
    pub fn start() -> Self {
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = std::sync::Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut peak = 0;
            while !flag.load(std::sync::atomic::Ordering::SeqCst) {
                peak = peak.max(thread_count(std::process::id()));
                std::thread::sleep(Duration::from_millis(5));
            }
            peak.saturating_sub(1)
        });
        PeakThreads { stop, handle }
    }

    pub fn stop(self) -> usize {
        self.stop.store(true, std::sync::atomic::Ordering::SeqCst);
        self.handle.join().expect("thread sampler panicked")
    }
}
