//! Child processes of the benchmark: one-shot `gbabs sample` calls, timed
//! with their own peak RSS, and `gbabs serve` processes that are always
//! killed and reaped.

use crate::http::Conn;
use std::fs::File;
use std::io;
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::sleep;
use std::time::{Duration, Instant};

/// `struct rusage` of 64-bit Linux: two `timeval`s, then 14 `long`s
/// starting with `ru_maxrss` (KiB).
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

/// A finished one-shot child.
pub struct Finished {
    /// Spawn to reap.
    pub wall: Duration,
    /// Exited with status 0.
    pub success: bool,
    /// The child's own peak resident set, in KiB.
    pub max_rss_kib: u64,
}

/// Spawns `cmd` and reaps it with `wait4`, which reports the peak RSS of
/// that child alone (`getrusage(RUSAGE_CHILDREN)` would mix in every
/// earlier child, including the build).
pub fn run_timed(cmd: &mut Command) -> io::Result<Finished> {
    let start = Instant::now();
    let child = cmd.spawn()?;
    let pid = i32::try_from(child.id()).expect("pid fits in pid_t");
    let mut status = 0i32;
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, writable locals whose
        // layouts match `int` and 64-bit Linux `struct rusage`; `pid` is
        // this process's own child, not yet reaped (std's `Child` is never
        // waited on, and dropping it neither waits nor kills).
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let wall = start.elapsed();
    drop(child);
    // WIFEXITED(status) && WEXITSTATUS(status) == 0
    let success = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
    Ok(Finished {
        wall,
        success,
        max_rss_kib: u64::try_from(usage.maxrss).unwrap_or(0),
    })
}

/// A running `gbabs serve`. Dropping it kills and reaps the process.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
}

impl Server {
    /// Starts `gbabs serve` on `train_csv` with an OS-assigned port, a
    /// fresh `model_dir`, and optionally an access log; returns once
    /// `/readyz` answers 200.
    /// `log_stem` names the files that receive the server's stdout and
    /// stderr.
    pub fn boot(
        gbabs: &Path,
        train_csv: &Path,
        model_dir: &Path,
        access_log: Option<&Path>,
        log_stem: &Path,
    ) -> io::Result<Server> {
        let stdout_path = log_stem.with_extension("out");
        let stderr_path = log_stem.with_extension("err");
        let mut cmd = Command::new(gbabs);
        cmd.arg("serve")
            .arg(train_csv)
            .args(["--addr", "127.0.0.1:0", "--model-dir"])
            .arg(model_dir);
        if let Some(log) = access_log {
            cmd.arg("--access-log").arg(log);
        }
        let give_up = Instant::now() + Duration::from_secs(120);
        let child = cmd
            .stdin(Stdio::null())
            .stdout(File::create(&stdout_path)?)
            .stderr(File::create(&stderr_path)?)
            .spawn()?;
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        loop {
            if let Some(status) = server.child.try_wait()? {
                let err = std::fs::read_to_string(&stderr_path).unwrap_or_default();
                return Err(io::Error::other(format!(
                    "gbabs serve exited with {status} during boot: {}",
                    err.trim()
                )));
            }
            if Instant::now() > give_up {
                return Err(io::Error::other("gbabs serve not ready after 120 s"));
            }
            if server.addr.port() == 0 {
                if let Some(addr) = bound_addr(&stdout_path) {
                    server.addr = addr;
                }
            }
            if server.addr.port() != 0 && readyz(server.addr) {
                return Ok(server);
            }
            sleep(Duration::from_millis(1));
        }
    }

    /// Peak resident set of the server so far (`VmHWM`), in KiB.
    pub fn peak_rss_kib(&self) -> u64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .unwrap_or(0)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The address from the `serving ... on http://ADDR` line, once printed.
fn bound_addr(stdout_path: &Path) -> Option<SocketAddr> {
    let out = std::fs::read_to_string(stdout_path).ok()?;
    let line = out.lines().find(|l| l.starts_with("serving "))?;
    line.rsplit("http://").next()?.trim().parse().ok()
}

fn readyz(addr: SocketAddr) -> bool {
    Conn::connect(addr)
        .and_then(|mut c| c.call("GET", "/readyz", b""))
        .is_ok_and(|r| r.status == 200)
}
