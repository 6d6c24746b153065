//! Spawning `omc` exactly as a user would, timing it, and reading its
//! peak resident set size from the kernel when it is reaped.
//!
//! Linux folds the spawning process's own peak RSS into a child's
//! `ru_maxrss` at `exec` (the address space the child leaves behind is
//! the parent's), so a child spawned straight from this harness would
//! report at least the harness's size. Every `omc` process is therefore
//! spawned by a launcher: this binary re-executed with `--launch`, a fresh
//! small process that spawns `omc` with inherited standard streams, times
//! it from spawn to reap, and writes its pid, exit status, wall time and
//! peak RSS to a report file.
//!
//! The standard library does not expose a child's resource usage and the
//! workspace has no `libc` crate, so `wait4(2)` and `kill(2)` are declared
//! directly (the same approach `omc` itself takes for `signal(2)`).

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs of
/// which the first is `ru_maxrss` (KiB).
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGKILL: i32 = 9;
pub const SIGTERM: i32 = 15;

/// How a reaped process ended.
#[derive(Clone, Copy, Debug)]
pub struct Exit {
    /// Exit code, or `None` when a signal ended the process (or it could
    /// not be started or reaped).
    pub code: Option<i32>,
    /// Peak resident set size in MiB.
    pub peak_rss_mb: f64,
}

impl Exit {
    const LOST: Exit = Exit {
        code: None,
        peak_rss_mb: 0.0,
    };

    pub fn ok(&self) -> bool {
        self.code == Some(0)
    }
}

/// Block until `pid` (a child of this process) ends; its exit and peak RSS.
fn reap(pid: i32) -> Exit {
    let mut status = 0i32;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are live, writable, and laid out as
        // the kernel expects (`int` and 64-bit `struct rusage`); `pid` is
        // a child of this process that nothing else waits for.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            return Exit {
                code: (status & 0x7f == 0).then_some((status >> 8) & 0xff),
                peak_rss_mb: usage.maxrss as f64 / 1024.0,
            };
        }
        if std::io::Error::last_os_error().kind() != std::io::ErrorKind::Interrupted {
            return Exit::LOST;
        }
    }
}

/// Send `signal` to process `pid`.
fn signal(pid: i32, signal: i32) {
    // SAFETY: a plain syscall with integer arguments; `pid` is an `omc`
    // process whose launcher has not reported it reaped, so the pid has
    // not been reused.
    unsafe {
        kill(pid, signal);
    }
}

/// `perfbench --launch REPORT PROGRAM ARGS...`: run PROGRAM with this
/// process's standard streams and working directory, and write
/// `pid P`, then `exit CODE WALL_S MAXRSS_KIB` (CODE −1 if a signal ended
/// it) to REPORT.
pub fn launch(report: &Path, program: &str, args: &[String]) -> ExitCode {
    use std::io::Write;
    let Ok(mut file) = std::fs::File::create(report) else {
        return ExitCode::from(1);
    };
    let start = Instant::now();
    let child = match Command::new(program).args(args).spawn() {
        Ok(child) => child,
        Err(e) => {
            eprintln!("perfbench: cannot start {program}: {e}");
            let _ = writeln!(file, "exit -1 0 0");
            return ExitCode::from(1);
        }
    };
    let pid = child.id() as i32;
    if writeln!(file, "pid {pid}")
        .and_then(|()| file.flush())
        .is_err()
    {
        signal(pid, SIGKILL);
    }
    let exit = reap(pid);
    let wall = start.elapsed().as_secs_f64();
    let rss_kib = (exit.peak_rss_mb * 1024.0) as i64;
    let written = writeln!(file, "exit {} {wall} {rss_kib}", exit.code.unwrap_or(-1));
    if written.is_ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// A launcher report, as far as it has been written.
#[derive(Debug, Default)]
struct Report {
    pid: Option<i32>,
    exit: Option<(Exit, f64)>,
}

fn read_report(path: &Path) -> Report {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let mut report = Report::default();
    for line in text.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            ["pid", pid] => report.pid = pid.parse().ok(),
            ["exit", code, wall, rss] => {
                let code: i32 = code.parse().unwrap_or(-1);
                let exit = Exit {
                    code: (code >= 0).then_some(code),
                    peak_rss_mb: rss.parse::<f64>().unwrap_or(0.0) / 1024.0,
                };
                report.exit = Some((exit, wall.parse().unwrap_or(f64::NAN)));
            }
            _ => {}
        }
    }
    report
}

/// One finished `omc` invocation.
#[derive(Debug)]
pub struct Run {
    pub wall_s: f64,
    /// When this process saw the invocation end.
    pub ended: Instant,
    pub exit: Exit,
    pub stdout: String,
    pub stderr: String,
}

/// The `omc` binary, the directory it runs in, and the launcher.
#[derive(Clone, Debug)]
pub struct Omc {
    pub bin: PathBuf,
    pub cwd: PathBuf,
    pub launcher: PathBuf,
}

static REPORTS: AtomicU64 = AtomicU64::new(0);

impl Omc {
    /// A launcher command for `omc ARGS` and the report file it writes.
    fn launcher<S: AsRef<str>>(&self, args: &[S]) -> (Command, PathBuf) {
        let n = REPORTS.fetch_add(1, Ordering::Relaxed);
        let report = self
            .cwd
            .join(format!("launch-{}-{n}.txt", std::process::id()));
        let mut cmd = Command::new(&self.launcher);
        cmd.arg("--launch")
            .arg(&report)
            .arg(&self.bin)
            .args(args.iter().map(AsRef::as_ref))
            .current_dir(&self.cwd)
            .stdin(Stdio::null());
        (cmd, report)
    }

    /// Run `omc ARGS` to completion.
    pub fn run<S: AsRef<str>>(&self, args: &[S]) -> Run {
        let (mut cmd, report) = self.launcher(args);
        cmd.stdout(Stdio::piped()).stderr(Stdio::piped());
        let mut child = match cmd.spawn() {
            Ok(child) => child,
            Err(e) => {
                return Run {
                    wall_s: f64::NAN,
                    ended: Instant::now(),
                    exit: Exit::LOST,
                    stdout: String::new(),
                    stderr: format!("cannot start the launcher: {e}"),
                }
            }
        };
        let mut out = child.stdout.take().expect("stdout was piped");
        let mut err = child.stderr.take().expect("stderr was piped");
        let (stdout, stderr) = std::thread::scope(|s| {
            let errs = s.spawn(move || {
                let mut buf = String::new();
                let _ = err.read_to_string(&mut buf);
                buf
            });
            let mut buf = String::new();
            let _ = out.read_to_string(&mut buf);
            (buf, errs.join().unwrap_or_default())
        });
        let _ = child.wait();
        let ended = Instant::now();
        let (exit, wall_s) = read_report(&report).exit.unwrap_or((Exit::LOST, f64::NAN));
        let _ = std::fs::remove_file(&report);
        Run {
            wall_s,
            ended,
            exit,
            stdout,
            stderr,
        }
    }

    /// Start a long-running `omc ARGS` (the service) with its output
    /// discarded.
    pub fn spawn<S: AsRef<str>>(&self, args: &[S]) -> Result<Launched, String> {
        let (mut cmd, report) = self.launcher(args);
        cmd.stdout(Stdio::null()).stderr(Stdio::null());
        let launcher = cmd
            .spawn()
            .map_err(|e| format!("cannot start the launcher: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut launched = Launched {
            launcher,
            report,
            pid: None,
        };
        while launched.pid.is_none() && Instant::now() < deadline {
            launched.pid = read_report(&launched.report).pid;
            if launched.pid.is_none() {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        match launched.pid {
            Some(_) => Ok(launched),
            None => {
                launched.stop();
                Err("the launcher reported no pid".into())
            }
        }
    }
}

/// A running `omc` under its launcher.
pub struct Launched {
    launcher: Child,
    report: PathBuf,
    pid: Option<i32>,
}

impl Launched {
    /// SIGTERM (`omc serve` drains gracefully), then wait up to ten
    /// seconds before killing. Always reaps; returns how `omc` ended.
    pub fn stop(&mut self) -> Exit {
        // Once the launcher has exited, `omc` is reaped and its pid free.
        if let (Some(pid), Ok(None)) = (self.pid, self.launcher.try_wait()) {
            signal(pid, SIGTERM);
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.launcher.try_wait() {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        if let (Some(pid), Ok(None)) = (self.pid, self.launcher.try_wait()) {
            signal(pid, SIGKILL);
            let _ = self.launcher.wait();
        }
        self.pid = None;
        let exit = read_report(&self.report)
            .exit
            .map_or(Exit::LOST, |(e, _)| e);
        let _ = std::fs::remove_file(&self.report);
        exit
    }
}

/// Tail of a process's stderr for a failure note.
pub fn tail(text: &str) -> String {
    let t = text.trim();
    let start = t.len().saturating_sub(300);
    let start = (start..=t.len())
        .find(|&i| t.is_char_boundary(i))
        .unwrap_or(t.len());
    t[start..].replace('\n', " | ")
}
