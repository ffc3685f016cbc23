//! Percentiles, the seeded generator and the host-noise record.

use std::time::Instant;

/// The `q` quantile of `xs` (0 ≤ q ≤ 1), interpolating linearly between
/// neighbouring order statistics. `NaN` for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// SplitMix64: every input the benchmark makes comes from one of these,
/// seeded from the `--seed` argument.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time consumed by the calling thread, in seconds.
fn thread_cpu_seconds() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) and the clock id is a constant the kernel
    // defines; the call writes only through the pointer it is given.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return f64::NAN;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Steal ticks summed over all CPUs, from the `cpu` line of `/proc/stat`.
fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// Milliseconds per round of a fixed kernel that does not use the
/// analysis crates: random read-modify-writes over 16 MiB, then integer
/// arithmetic. Median of `rounds` rounds. The same work on every commit,
/// so a change in it is a change in the host's speed.
fn calibration_ms(rounds: usize) -> f64 {
    const WORDS: usize = 1 << 21;
    let mut v: Vec<u64> =
        (0..WORDS as u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect();
    let mut times = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t = Instant::now();
        let mut x = 1u64;
        for _ in 0..500_000 {
            let i = (x as usize) & (WORDS - 1);
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(v[i]);
            v[i] ^= x;
        }
        for i in 0..5_000_000u64 {
            x = x.wrapping_add(i.wrapping_mul(i) ^ (x >> 3));
        }
        std::hint::black_box(x);
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    median(&times)
}

/// How much of a measured interval the host took away: steal ticks, the
/// share of wall time this thread spent off the CPU, and the host's speed
/// on a fixed kernel before and after.
pub struct HostNoise {
    wall: Instant,
    cpu: f64,
    steal: Option<u64>,
    calib_ms: f64,
}

/// What [`HostNoise::finish`] reports.
pub struct HostReport {
    pub steal_ticks: Option<u64>,
    pub off_cpu_share: f64,
    /// Kernel round time, median over the rounds before and after.
    pub calib_ms: f64,
}

const CALIBRATION_ROUNDS: usize = 15;

impl HostNoise {
    pub fn start() -> Self {
        let calib_ms = calibration_ms(CALIBRATION_ROUNDS);
        HostNoise {
            wall: Instant::now(),
            cpu: thread_cpu_seconds(),
            steal: steal_ticks(),
            calib_ms,
        }
    }

    pub fn finish(&self) -> HostReport {
        let wall = self.wall.elapsed().as_secs_f64();
        let cpu = thread_cpu_seconds() - self.cpu;
        let steal_ticks = match (self.steal, steal_ticks()) {
            (Some(a), Some(b)) => Some(b.saturating_sub(a)),
            _ => None,
        };
        let calib_ms = (self.calib_ms + calibration_ms(CALIBRATION_ROUNDS)) / 2.0;
        HostReport { steal_ticks, off_cpu_share: ((wall - cpu) / wall).max(0.0), calib_ms }
    }
}

/// Named samples, each with a unit; reported as medians.
#[derive(Debug, Default)]
pub struct Samples {
    map: std::collections::BTreeMap<String, (&'static str, Vec<f64>)>,
}

impl Samples {
    pub fn push(&mut self, name: &str, unit: &'static str, value: f64) {
        self.map.entry(name.to_string()).or_insert((unit, Vec::new())).1.push(value);
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.map.get(name).map_or(&[], |(_, v)| v.as_slice())
    }

    /// `(name, median, unit)` of every named sample, by name.
    pub fn medians(&self) -> Vec<(String, f64, &'static str)> {
        self.map.iter().map(|(k, (u, v))| (k.clone(), median(v), *u)).collect()
    }
}
