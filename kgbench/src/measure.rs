//! Measurement plumbing shared by the workloads: the seeded input
//! generator, percentiles, span and counter readers, peak memory, the
//! host reference loop, and the result printer.

use kg_obs::Obs;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// splitmix64: the benchmark's input generator. Every request stream is
/// a pure function of `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Nearest-rank percentile of `samples` (`q` in 0..=1); 0 when empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Total time (µs) recorded by the spans at `paths` on `obs`.
pub fn span_total(obs: &Obs, paths: &[&str]) -> f64 {
    paths.iter().map(|p| obs.span_snapshot(p).sum as f64).sum()
}

/// Sum of the counters on `obs` whose rendered name is `name` or a
/// labelled member of the `name` family.
pub fn counter(obs: &Obs, name: &str) -> u64 {
    obs.counter_values()
        .into_iter()
        .filter(|(n, _)| {
            n == name || n.strip_prefix(name).is_some_and(|rest| rest.starts_with('{'))
        })
        .map(|(_, v)| v)
        .sum()
}

/// The one counter whose rendered name is exactly `name`.
pub fn counter_exact(obs: &Obs, name: &str) -> u64 {
    obs.counter_values().into_iter().find(|(n, _)| n == name).map_or(0, |(_, v)| v)
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value laid out as the C
    // `struct rusage` of 64-bit Linux (two timevals, then fourteen longs),
    // and getrusage writes nothing beyond that struct.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc != 0 {
        return 0.0;
    }
    usage.maxrss as f64 / 1024.0 // Linux reports KiB
}

/// A fixed memory-bound loop in the benchmark's own code: a dependent
/// random walk over 8 MiB, the access pattern of key-tree maintenance.
/// Its time moves only with the host, so a set of runs shows host drift
/// beside the workload's figures. Median of three passes, in ms.
pub fn host_ref_loop_ms() -> f64 {
    const SLOTS: usize = 1 << 20;
    let mut rng = Rng::new(0x006b_6762_656e_6368, 0);
    let table: Vec<u64> = (0..SLOTS).map(|_| rng.next_u64()).collect();
    let mut times = Vec::new();
    for _ in 0..3 {
        let start = Instant::now();
        let mut at = 0usize;
        let mut acc = 0u64;
        for _ in 0..500_000 {
            let v = table[at];
            acc = acc.wrapping_add(v);
            at = (v ^ acc) as usize & (SLOTS - 1);
        }
        black_box(acc);
        times.push(start.elapsed().as_secs_f64() * 1e3);
    }
    median(&times)
}

/// One named figure with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Measured operations attempted.
    pub attempted: u64,
    /// Attempted operations that errored or failed a check on their output.
    pub failed: u64,
    /// Whole-run checks (end-of-run invariants, recovery, shutdown).
    pub run_checks_passed: bool,
    /// First few failure descriptions, for the log.
    pub failures: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Lines of context printed before the result (not part of it).
    pub notes: Vec<String>,
}

impl Report {
    /// Count one failed operation, keeping its reason for the log.
    pub fn fail_op(&mut self, why: String) {
        self.failed += 1;
        self.note_failure(why);
    }

    pub fn note_failure(&mut self, why: String) {
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }

    /// Print the human-readable figures, then the result line.
    pub fn print(&self, ref_loop_ms: f64, trace: bool) {
        for why in &self.failures {
            eprintln!("FAILED: {why}");
        }
        for note in &self.notes {
            println!("# {note}");
        }
        let mut metrics = if trace { self.per_layer.clone() } else { self.end_to_end.clone() };
        if trace {
            metrics.insert(0, metric("host.ref_loop_ms", ref_loop_ms, "ms"));
        }
        for m in &metrics {
            println!("{:<34} {:>16.4} {}", m.name, m.value, m.unit);
        }
        println!("attempted {} failed {}", self.attempted, self.failed);
        let body: Vec<String> = metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, v, m.unit)
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.run_checks_passed && self.attempted > 0,
            self.attempted,
            self.failed,
            body.join(", ")
        );
    }
}
