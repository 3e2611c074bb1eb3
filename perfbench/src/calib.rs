//! Host-speed probe.
//!
//! The benchmark runs on shared hosts whose speed drifts by a factor of
//! two and more within an hour: neighbours take the shared cache and
//! memory bandwidth, and every process here slows, CPU time included. A
//! run therefore times a [`Probe`], a fixed amount of the benchmark's own
//! work, before every set-up step and every operation and once after the
//! last, and scales each step's wall time to the host speed at which the
//! probe takes [`REF_S`], by the mean of the probes just before and just
//! after the step:
//!
//! ```text
//! wall × (REF_S / mean(probe before, probe after)) ^ ALPHA
//! ```
//!
//! The reported figures are medians of these scaled times. The speed
//! changes within a run too, so each step is scaled by the probes around
//! it rather than by the run's median probe.
//!
//! The probe's code is the benchmark's, not the program's, so a change to
//! the program moves only the wall times. The raw walls and probe times
//! are printed on `#` lines.
//!
//! Each timing runs in a child process (`perfbench --probe`): a child's
//! peak RSS as `wait4` reports it starts from its parent's, so the
//! probe's tables must not live in the process that spawns the programs.

use std::hint::black_box;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::median;

/// Probe time the figures are scaled to. A nominal speed: where the probe
/// takes 0.25 s the figures are plain seconds; on the loaded 2-vCPU
/// reference host it took 0.33–0.42 s.
pub const REF_S: f64 = 0.25;
/// Exponent of the probe's slowdown that the programs' wall time is taken
/// to follow. On the loaded reference host, over ten seeds per workload,
/// the spread of the scaled figures was least at 0.5 for `repro` and at
/// 1.0 for `ssdstat` + `ssdpredict`; timed back to back with the probe,
/// `ssdpredict` followed it with exponents 0.7–0.8 and `repro` with 0.5.
/// The probe's walk waits on memory more than the programs do, so it
/// slows more when neighbours crowd the shared cache.
pub const ALPHA: f64 = 0.75;
/// `u64` slots of each thread's table: 32 MiB, far past the private
/// caches, so the walk waits on the shared cache and memory as the
/// programs' larger arrays do.
const TABLE: usize = 1 << 22;
/// Steps of each thread's walk.
const STEPS: u32 = 1 << 21;

/// Body of the probe child: fills one table per core, then prints the
/// seconds one walk over every table at once takes (as the programs'
/// worker pool runs, one thread per core). Per step, a walk makes a
/// dependent load from a random slot, an integer mix, a store and a short
/// chain of floating-point arithmetic.
pub fn child() {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut tables: Vec<Vec<u64>> = (0..threads as u64)
        .map(|t| {
            let mut next = xorshift(t);
            (0..TABLE).map(|_| next()).collect()
        })
        .collect();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for (t, table) in tables.iter_mut().enumerate() {
            s.spawn(move || black_box(walk(table, t as u64)));
        }
    });
    println!("{}", t0.elapsed().as_secs_f64());
}

/// The run's probe timings.
pub struct Probe {
    exe: PathBuf,
    times: Vec<f64>,
}

impl Probe {
    /// A probe that runs this executable as its child; takes no timing.
    pub fn new() -> Result<Probe, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locate perfbench: {e}"))?;
        Ok(Probe {
            exe,
            times: Vec::new(),
        })
    }

    /// Takes one timing in a child process and returns its index, which
    /// [`Probe::median_scaled`] takes for the step that follows it.
    pub fn time(&mut self) -> Result<usize, String> {
        let out = Command::new(&self.exe)
            .arg("--probe")
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn probe: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let secs = text
            .trim()
            .parse::<f64>()
            .ok()
            .filter(|s| out.status.success() && *s > 0.0)
            .ok_or_else(|| format!("probe failed ({}): {text:?}", out.status))?;
        self.times.push(secs);
        Ok(self.times.len() - 1)
    }

    /// Every probe time taken, in seconds.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Median over steps of each step's wall seconds scaled to the
    /// reference host speed; `befores[i]` is the index of the timing taken
    /// just before step `i` (the next timing came just after it).
    pub fn median_scaled(&self, walls: &[f64], befores: &[usize]) -> f64 {
        let scaled: Vec<f64> = walls
            .iter()
            .zip(befores)
            .map(|(&wall, &k)| {
                let speed = (self.times[k] + self.times[k + 1]) / 2.0;
                wall * (REF_S / speed).powf(ALPHA)
            })
            .collect();
        median(&scaled)
    }
}

fn xorshift(salt: u64) -> impl FnMut() -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15 ^ salt;
    move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    }
}

fn walk(table: &mut [u64], salt: u64) -> f64 {
    let mut next = xorshift(!salt);
    let mask = table.len() - 1;
    let mut at = 0usize;
    let mut acc = 0.0f64;
    for _ in 0..STEPS {
        let v = table[at];
        let r = next();
        table[at] = v ^ r;
        let f = (v >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        acc = (acc * 0.999_999 + f) * 0.5 + (acc + f * f) * 0.5;
        at = ((v ^ r) as usize) & mask;
    }
    acc
}
