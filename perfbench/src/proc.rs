//! Child processes: spawn, then reap with resource usage.
//!
//! Binaries are reaped with `wait4(2)`, whose `ru_maxrss` is the kernel's
//! peak-RSS high-water mark for the child (the `VmHWM` that
//! `/proc/<pid>/status` shows while it runs) and whose user + system
//! times give the child's CPU cost. The child shares this process's
//! address space until `exec`, so `ru_maxrss` is at least this process's
//! own peak: the untraced runs keep this process small.

use std::fs::File;
use std::io;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Instant;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Exit status and resource usage of a reaped child.
struct Reaped {
    /// Raw wait status; 0 means a normal exit with code 0.
    pub status: i32,
    /// User + system CPU seconds.
    pub cpu_s: f64,
    /// Peak resident set size in MiB.
    pub maxrss_mb: f64,
}

/// Blocks until `child` exits and collects its usage. The child must not
/// have been waited for through `std`.
fn reap(child: &Child) -> io::Result<Reaped> {
    let pid = i32::try_from(child.id()).map_err(|_| io::Error::other("pid out of range"))?;
    let mut status = 0i32;
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss_kb: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `ru` are live, writable, and laid out as
        // the C `int` and `struct rusage` wait4 fills; `pid` names a child
        // of this process that nothing else reaps.
        let r = unsafe { wait4(pid, &mut status, 0, &mut ru) };
        if r == pid {
            break;
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Ok(Reaped {
        status,
        cpu_s: secs(&ru.utime) + secs(&ru.stime),
        maxrss_mb: ru.maxrss_kb as f64 / 1024.0,
    })
}

/// One finished run of a binary.
pub struct Run {
    /// Wall seconds from spawn to reap.
    pub wall_s: f64,
    /// User + system CPU seconds.
    pub cpu_s: f64,
    /// Peak resident set size in MiB.
    pub maxrss_mb: f64,
    /// Exited normally with code 0.
    pub ok: bool,
    /// Captured standard output.
    pub stdout: String,
    /// Captured standard error.
    pub stderr: String,
}

/// Runs `bin args…` to completion with stdout/stderr captured in files
/// under `work` (named after `tag`), so no pipe can fill and stall it.
pub fn run(bin: &Path, args: &[String], work: &Path, tag: &str) -> io::Result<Run> {
    let out_path = work.join(format!("{tag}.stdout"));
    let err_path = work.join(format!("{tag}.stderr"));
    let t0 = Instant::now();
    let child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(File::create(&out_path)?)
        .stderr(File::create(&err_path)?)
        .spawn()?;
    let reaped = reap(&child)?;
    let wall_s = t0.elapsed().as_secs_f64();
    Ok(Run {
        wall_s,
        cpu_s: reaped.cpu_s,
        maxrss_mb: reaped.maxrss_mb,
        ok: reaped.status == 0,
        stdout: std::fs::read_to_string(&out_path)?,
        stderr: std::fs::read_to_string(&err_path)?,
    })
}
