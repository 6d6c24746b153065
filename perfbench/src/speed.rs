//! The host-speed probe behind every end-to-end time.
//!
//! On a shared host the same `omc` invocation runs at different speeds
//! from one second to the next: each vCPU slows down and speeds up on its
//! own, by up to a factor of two, in CPU time as well as in wall time,
//! while nothing else runs in the container. Medians over a run do not
//! remove that, because the slow stretches last from seconds to minutes.
//!
//! So while a run measures, one probe thread per CPU, pinned to it, times
//! a fixed kernel (0.6–1 ms) every 30 ms in its own thread CPU time,
//! which a preemption does not inflate. Every `/proc/stat` sample of the
//! CPUs' busy time says where the work ran. A time measured over an
//! interval is scaled by the speed of the CPUs during that interval: the
//! reference kernel time (1 ms) over the busy-weighted mean of the
//! probes' kernel times. A scaled time is the time the interval would
//! have taken on a host where the kernel takes 1 ms.
//!
//! The kernel is this file's own code, so a change to the program under
//! test cannot change it. Its working set fits in L1, so `omc` running on
//! the other CPUs hardly changes it either.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The kernel time the scaled times refer to.
const REFERENCE_S: f64 = 1e-3;
/// Time between two probes on one CPU.
const PERIOD: Duration = Duration::from_millis(30);
/// Shorter intervals are judged by the probes of the last this-many seconds.
const MIN_WINDOW_S: f64 = 0.3;
/// At most this many CPUs are probed (the first ones the process may use).
const MAX_CPUS: usize = 16;

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const MASK_WORDS: usize = 16;

/// CPU time of the calling thread, in seconds.
fn thread_cpu_s() -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec`.
    unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// The CPUs this process may run on.
fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..64 * MASK_WORDS)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .take(MAX_CPUS)
        .collect()
}

/// Pin the calling thread to `cpu`.
fn pin(cpu: usize) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of the size passed; pid 0 is the
    // calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Busy jiffies (user, nice, system, irq, softirq) of each of `cpus`.
fn busy_jiffies(cpus: &[usize]) -> Option<Vec<u64>> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let mut out = vec![0u64; cpus.len()];
    let mut seen = 0;
    for line in stat.lines() {
        let mut fields = line.split_whitespace();
        let Some(cpu) = fields
            .next()
            .and_then(|f| f.strip_prefix("cpu"))
            .and_then(|n| n.parse::<usize>().ok())
        else {
            continue;
        };
        let Some(slot) = cpus.iter().position(|&c| c == cpu) else {
            continue;
        };
        let v: Vec<u64> = fields.filter_map(|f| f.parse().ok()).collect();
        if v.len() < 7 {
            return None;
        }
        out[slot] = v[0] + v[1] + v[2] + v[5] + v[6];
        seen += 1;
    }
    (seen == cpus.len()).then_some(out)
}

/// The probe kernel: a three-point stencil and an indexed `sin` loop over
/// small arrays the caller keeps (0.6–1 ms on a shared Xeon vCPU).
fn kernel(u: &mut Vec<f64>, v: &mut Vec<f64>, x: &[f64]) -> f64 {
    let n = u.len();
    for _ in 0..400 {
        for i in 1..n - 1 {
            v[i] = u[i] + 0.1 * (u[i - 1] - 2.0 * u[i] + u[i + 1]);
        }
        std::mem::swap(u, v);
    }
    let mut acc = 0.0;
    for r in 0..200 {
        for i in 0..x.len() {
            acc += (x[(i * 7 + r) % x.len()] * 1.0001).sin();
        }
    }
    u[n / 2] + acc
}

#[derive(Default)]
struct Log {
    /// `(seconds since start, CPU slot, kernel CPU seconds)`.
    probes: Vec<(f64, usize, f64)>,
    /// `(seconds since start, busy jiffies per CPU slot)`.
    busy: Vec<(f64, Vec<u64>)>,
}

/// Probe threads running until the probe is dropped.
pub struct Speed {
    started: Instant,
    cpus: Vec<usize>,
    log: Arc<Mutex<Log>>,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl Speed {
    /// Start one probe per CPU and wait until each has probed a few times.
    pub fn start() -> Result<Speed, String> {
        let cpus = allowed_cpus();
        if cpus.is_empty() || busy_jiffies(&cpus).is_none() {
            return Err("cannot read the CPUs this process may use".into());
        }
        let mut speed = Speed {
            started: Instant::now(),
            cpus: cpus.clone(),
            log: Arc::default(),
            stop: Arc::default(),
            threads: Vec::new(),
        };
        for (slot, &cpu) in cpus.iter().enumerate() {
            let (log, stop, all) = (speed.log.clone(), speed.stop.clone(), cpus.clone());
            let started = speed.started;
            let spawned = std::thread::Builder::new()
                .name(format!("speed-probe-{cpu}"))
                .spawn(move || {
                    // Unpinned (where pinning is not allowed), the probe
                    // still measures the host, only not this CPU alone.
                    pin(cpu);
                    let mut u: Vec<f64> = (0..1024).map(|i| (i as f64 * 1e-3).sin()).collect();
                    let mut v = vec![0.0; u.len()];
                    let x: Vec<f64> = (0..256).map(|i| i as f64 * 0.01).collect();
                    // Probes on different CPUs take turns within a period.
                    std::thread::sleep(PERIOD * slot as u32 / all.len() as u32);
                    while !stop.load(Ordering::Relaxed) {
                        let before = thread_cpu_s();
                        std::hint::black_box(kernel(&mut u, &mut v, &x));
                        let took = thread_cpu_s() - before;
                        let busy = if slot == 0 { busy_jiffies(&all) } else { None };
                        let now = started.elapsed().as_secs_f64();
                        if let Ok(mut log) = log.lock() {
                            log.probes.push((now, slot, took));
                            if let Some(b) = busy {
                                log.busy.push((now, b));
                            }
                        }
                        std::thread::sleep(PERIOD);
                    }
                });
            match spawned {
                Ok(handle) => speed.threads.push(handle),
                Err(e) => return Err(format!("cannot start a probe thread: {e}")),
            }
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            std::thread::sleep(PERIOD);
            let log = speed.log.lock().map_err(|_| "probe log poisoned")?;
            let fewest = (0..cpus.len())
                .map(|s| log.probes.iter().filter(|p| p.1 == s).count())
                .min()
                .unwrap_or(0);
            if fewest >= 3 && log.busy.len() >= 3 {
                break;
            }
            if Instant::now() > deadline {
                return Err("the probe threads did not start".into());
            }
        }
        Ok(speed)
    }

    /// The factor that scales a time measured from `from` to `to` to the
    /// reference speed; NaN when no probe ran in the interval.
    pub fn factor(&self, from: Instant, to: Instant) -> f64 {
        let since = |t: Instant| t.saturating_duration_since(self.started).as_secs_f64();
        let b = since(to);
        let a = since(from).min(b - MIN_WINDOW_S);
        let Ok(log) = self.log.lock() else {
            return f64::NAN;
        };
        let inside = |t: f64| t >= a && t <= b;
        let busy: Vec<&Vec<u64>> = log
            .busy
            .iter()
            .filter(|s| inside(s.0))
            .map(|s| &s.1)
            .collect();
        let weights: Vec<f64> = match (busy.first(), busy.last()) {
            (Some(first), Some(last)) if busy.len() >= 2 => first
                .iter()
                .zip(*last)
                .map(|(f, l)| l.saturating_sub(*f) as f64)
                .collect(),
            _ => vec![0.0; self.cpus.len()],
        };
        // Mean kernel time per CPU; CPUs with no work in the interval count
        // only when no CPU had any.
        let means: Vec<(f64, f64)> = (0..self.cpus.len())
            .filter_map(|slot| {
                let times: Vec<f64> = log
                    .probes
                    .iter()
                    .filter(|p| p.1 == slot && inside(p.0))
                    .map(|p| p.2)
                    .collect();
                (!times.is_empty()).then(|| {
                    (
                        weights[slot],
                        times.iter().sum::<f64>() / times.len() as f64,
                    )
                })
            })
            .collect();
        if means.is_empty() {
            return f64::NAN;
        }
        let busy_total: f64 = means.iter().map(|m| m.0).sum();
        let weight = |w: f64| if busy_total > 0.0 { w } else { 1.0 };
        let mean = means.iter().map(|&(w, t)| weight(w) * t).sum::<f64>()
            / means.iter().map(|&(w, _)| weight(w)).sum::<f64>();
        REFERENCE_S / mean
    }

    /// Every kernel time probed so far, in seconds.
    pub fn kernel_times(&self) -> Vec<f64> {
        self.log
            .lock()
            .map(|log| log.probes.iter().map(|p| p.2).collect())
            .unwrap_or_default()
    }
}

impl Drop for Speed {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}
