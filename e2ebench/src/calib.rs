//! The host-speed probe the end-to-end times are normalized by.
//!
//! On a shared host the speed of this process drifts between levels
//! about 1.4x apart, each held for tens of seconds to minutes, so the
//! same code's median time moves by as much from run to run. The
//! slowdown hits ordinary code (sorting, hashing, formatting and
//! parsing) alike and barely touches a pure ALU loop. The probe is a
//! fixed job of that kind, owned by the harness so no change to the
//! program can change it; run between repetitions, its time tracks how
//! slow the host is. Over ten 40 s `timing_sweep` runs whose median
//! cold pass spread 17% between quartiles, the median times of the
//! probe's three parts correlated 0.93-0.99 with it, and the cold and
//! warm times normalized by their sum spread 2-4%.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The reference probe time: about the fastest the probe ran on the
/// host the benchmark was calibrated on (a 2-vCPU KVM guest on a Xeon
/// of family 6 model 207). A normalized time is about the seconds a
/// pass takes there when the host is fast.
pub const PROBE_REF_S: f64 = 0.025;

const SORT_KEYS: usize = 1 << 17;
const HASH_KEYS: usize = 60_000;
const TEXT_LINES: usize = 20_000;

/// The probe's inputs and buffers, allocated once so that a probe
/// allocates nothing and does not depend on the program's heap.
struct Probe {
    keys: Vec<u64>,
    sorted: Vec<u64>,
    map: HashMap<u64, usize>,
    text: String,
}

impl Probe {
    /// Builds the probe's inputs from a fixed xorshift stream.
    fn new() -> Self {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let keys = (0..SORT_KEYS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        Self {
            keys,
            sorted: vec![0; SORT_KEYS],
            map: HashMap::with_capacity(HASH_KEYS),
            text: String::with_capacity(TEXT_LINES * 64),
        }
    }

    /// Runs the probe once: sorts the keys, fills and queries a hash
    /// map, and formats and parses JSON-like lines. Returns its time in
    /// seconds and a checksum of its results.
    fn run(&mut self) -> (f64, u64) {
        let start = Instant::now();
        self.sorted.copy_from_slice(&self.keys);
        self.sorted.sort_unstable();
        let mut sum = self.sorted[SORT_KEYS / 2];

        self.map.clear();
        for (i, &k) in self.keys[..HASH_KEYS].iter().enumerate() {
            self.map.insert(k, i);
        }
        for &k in self.keys[SORT_KEYS - HASH_KEYS..].iter() {
            if let Some(&i) = self.map.get(&k) {
                sum = sum.wrapping_add(i as u64);
            }
        }

        self.text.clear();
        for (i, &k) in self.keys[..TEXT_LINES].iter().enumerate() {
            let _ = writeln!(
                self.text,
                "{{\"key\":{k},\"i\":{i},\"f\":{:.6}}}",
                k as f64 / 7.0
            );
        }
        for line in self.text.lines() {
            let field = line
                .split(',')
                .nth(1)
                .and_then(|f| f.strip_prefix("\"i\":"))
                .and_then(|v| v.parse::<u64>().ok());
            sum = sum.wrapping_add(field.unwrap_or(u64::MAX));
        }
        (start.elapsed().as_secs_f64(), std::hint::black_box(sum))
    }
}

/// Runs the probe where the harness asks for it and keeps its times.
/// Off, it probes nothing (the traced repetition runs with it off).
pub struct HostMeter {
    probe: Option<Probe>,
    /// Probe times since the last [`HostMeter::factor`], seconds.
    times: Vec<f64>,
    /// Wall time spent probing so far, seconds.
    spent_s: f64,
}

impl HostMeter {
    /// A meter that probes.
    pub fn on() -> Self {
        Self {
            probe: Some(Probe::new()),
            times: Vec::new(),
            spent_s: 0.0,
        }
    }

    /// A meter that never probes.
    pub fn off() -> Self {
        Self {
            probe: None,
            times: Vec::new(),
            spent_s: 0.0,
        }
    }

    /// Runs the probe once, when on.
    pub fn sample(&mut self) {
        let start = Instant::now();
        if let Some(p) = &mut self.probe {
            let (t, _) = p.run();
            self.times.push(t);
            self.spent_s += start.elapsed().as_secs_f64();
        }
    }

    /// Wall time spent probing so far, seconds: timed work that probes
    /// inside it subtracts what this grew by.
    pub fn spent_s(&self) -> f64 {
        self.spent_s
    }

    /// The host factor since the last call: the mean probe time over
    /// [`PROBE_REF_S`] (1 with no samples). The last sample also opens
    /// the next window, as it was taken between the two.
    pub fn factor(&mut self) -> f64 {
        let Some(&last) = self.times.last() else {
            return 1.0;
        };
        let mean = self.times.iter().sum::<f64>() / self.times.len() as f64;
        self.times.clear();
        self.times.push(last);
        mean / PROBE_REF_S
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_does_the_same_work_every_run() {
        let mut p = Probe::new();
        let (t1, a) = p.run();
        let (t2, b) = p.run();
        assert!(t1 > 0.0 && t2 > 0.0);
        assert_eq!(a, b);
        // Every line parses back: the parsed indices sum to 0+1+..+n-1.
        let mut q = Probe::new();
        q.run();
        let parsed: u64 = q
            .text
            .lines()
            .map(|l| l.split(',').nth(1).unwrap()[4..].parse::<u64>().unwrap())
            .sum();
        assert_eq!(parsed, (TEXT_LINES as u64 - 1) * TEXT_LINES as u64 / 2);
    }

    #[test]
    fn meter_windows_share_their_boundary_sample() {
        let mut m = HostMeter::on();
        assert_eq!(m.factor(), 1.0);
        m.sample();
        m.sample();
        assert!(m.factor() > 0.0 && m.spent_s() > 0.0);
        assert_eq!(m.times.len(), 1);
        let mut off = HostMeter::off();
        off.sample();
        assert_eq!((off.factor(), off.spent_s()), (1.0, 0.0));
    }
}
