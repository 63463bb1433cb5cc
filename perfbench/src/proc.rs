//! Launching the `spca` program and watching it from outside: its
//! threads (the dataflow's processing elements are threads named
//! `spca-pe`), its files, its stdout, and its resource usage when reaped.

use crate::sys::{self, Usage};
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Thread name of a processing element of the dataflow runtime: the
/// source reads its first tuple as soon as its PE thread runs.
pub const PE_THREAD: &str = "spca-pe";

/// A running `spca` process.
pub struct Proc {
    pub pid: u32,
    pub launched: Instant,
    stdout: Option<BufReader<ChildStdout>>,
    reaped: bool,
}

/// How a process ended.
pub struct Exit {
    pub ok: bool,
    pub usage: Usage,
    pub at: Instant,
    pub stdout: String,
}

impl Proc {
    pub fn spawn(program: &Path, args: &[&str]) -> Result<Proc, String> {
        let launched = Instant::now();
        let mut child = Command::new(program)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", program.display()))?;
        let stdout = child.stdout.take().map(BufReader::new);
        Ok(Proc {
            pid: child.id(),
            launched,
            stdout,
            reaped: false,
        })
    }

    /// Reads stdout lines until one starts with `prefix`; returns its
    /// remainder. `None` if the program closed stdout first.
    pub fn read_until(&mut self, prefix: &str) -> Option<String> {
        let out = self.stdout.as_mut()?;
        let mut line = String::new();
        loop {
            line.clear();
            if out.read_line(&mut line).ok()? == 0 {
                return None;
            }
            if let Some(rest) = line.trim_end().strip_prefix(prefix) {
                return Some(rest.to_string());
            }
        }
    }

    /// True once the process has exited (it stays a zombie until reaped).
    pub fn exited(&self) -> bool {
        match std::fs::read_to_string(format!("/proc/{}/stat", self.pid)) {
            Ok(stat) => stat
                .rfind(')')
                .and_then(|i| stat[i + 1..].split_whitespace().next())
                .is_none_or(|state| state == "Z" || state == "X"),
            Err(_) => true,
        }
    }

    /// True while a processing-element thread is alive.
    pub fn has_pe_thread(&self) -> bool {
        sys::thread_names(self.pid).iter().any(|n| n == PE_THREAD)
    }

    /// Reads the rest of stdout and reaps the process.
    pub fn finish(mut self) -> Result<Exit, String> {
        let mut stdout = String::new();
        if let Some(mut out) = self.stdout.take() {
            let _ = out.read_to_string(&mut stdout);
        }
        let (ok, usage) = sys::wait_child(self.pid).map_err(|e| format!("wait: {e}"))?;
        self.reaped = true;
        Ok(Exit {
            ok,
            usage,
            at: Instant::now(),
            stdout,
        })
    }
}

impl Drop for Proc {
    /// A process the benchmark did not finish (an error path) is killed
    /// and reaped, so no run leaves one behind.
    fn drop(&mut self) {
        if !self.reaped {
            sys::kill_child(self.pid);
            let _ = sys::wait_child(self.pid);
        }
    }
}

/// Polls every `interval` until `found` holds, the process exits, or
/// `limit` passes; returns when `found` first held.
pub fn watch(
    p: &Proc,
    interval: Duration,
    limit: Duration,
    mut found: impl FnMut() -> bool,
) -> Option<Instant> {
    let start = Instant::now();
    loop {
        if found() {
            return Some(Instant::now());
        }
        if p.exited() || start.elapsed() > limit {
            return None;
        }
        std::thread::sleep(interval);
    }
}

/// The line of `stdout` starting with `prefix`, without the prefix.
pub fn line_after<'a>(stdout: &'a str, prefix: &str) -> Option<&'a str> {
    stdout.lines().find_map(|l| l.strip_prefix(prefix))
}

/// Every number in `text`, in order (digits, `.`, `e`, sign).
pub fn numbers(text: &str) -> Vec<f64> {
    text.split(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
        .filter_map(|t| t.trim_matches('.').parse().ok())
        .collect()
}

/// A free loopback port (bound and released; the program binds it next).
pub fn free_port() -> Result<u16, String> {
    let l = std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    Ok(l.local_addr().map_err(|e| e.to_string())?.port())
}

/// True once something listens on loopback `port` (from `/proc/net/tcp`,
/// without connecting to it).
pub fn listening(port: u16) -> bool {
    let local = format!("0100007F:{port:04X}");
    std::fs::read_to_string("/proc/net/tcp").is_ok_and(|t| {
        t.lines().any(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            f.get(1) == Some(&local.as_str()) && f.get(3) == Some(&"0A")
        })
    })
}

/// Prints every sample of a metric, for the record (only the count when
/// there are more than 100).
pub fn print_samples(name: &str, samples: &[f64]) {
    if samples.len() > 100 {
        println!("samples {name}: {} (not listed)", samples.len());
        return;
    }
    let v: Vec<String> = samples.iter().map(|x| format!("{x:.6}")).collect();
    println!("samples {name}: {}", v.join(" "));
}

/// A fresh, empty directory `name` under `work`.
pub fn fresh_dir(work: &Path, name: &str) -> Result<PathBuf, String> {
    let d = work.join(name);
    if d.exists() {
        std::fs::remove_dir_all(&d).map_err(|e| format!("clear {}: {e}", d.display()))?;
    }
    std::fs::create_dir_all(&d).map_err(|e| format!("create {}: {e}", d.display()))?;
    Ok(d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_are_read_from_cli_lines() {
        assert_eq!(
            numbers("processed 4000 tuples in 0.86s (4633 tuples/s)"),
            vec![4000.0, 0.86, 4633.0]
        );
        assert_eq!(
            numbers(
                " 8 partitions (0 cache hits, 8 computed, 0 quarantined) on 2 workers in 1.20s"
            ),
            vec![8.0, 0.0, 8.0, 0.0, 2.0, 1.20]
        );
    }
}
