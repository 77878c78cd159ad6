//! Host-speed probe: a fixed kernel that no program change can touch.
//!
//! On a shared two-core host the speed of the benchmark's cores moves by
//! up to ~1.5× in phases of a fraction of a second to minutes, with CPU
//! time tracking wall time throughout. The slow phases are memory-side: a
//! cache-resident kernel barely notices them, while a small allocation-
//! and pointer-heavy kernel (heap allocation, a `BTreeMap`, formatted
//! strings, a sort — what the solver does all day) slows down with the
//! workload. The benchmark runs that kernel between modules (or around a
//! pass, on every load thread) and reports each time metric scaled to a
//! *reference host* on which the kernel takes [`NOMINAL_PROBE_NS`]:
//! `reported = measured × NOMINAL / probe`. A program change moves the
//! measured time and not the probe, so it shows in full; a host phase
//! moves both and cancels. The unscaled values are printed next to the
//! scaled ones.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Probe time on the reference host: the kernel's median on the 2-core
/// Xeon VM the bounds were set on.
pub const NOMINAL_PROBE_NS: f64 = 800_000.0;

/// Kernel size: map entries and strings per run.
const ITEMS: u64 = 2000;

/// Factor that turns a time measured next to a `probe_ns` probe into
/// reference-host time.
pub fn scale(probe_ns: u64) -> f64 {
    NOMINAL_PROBE_NS / probe_ns.max(1) as f64
}

/// Runs the kernel once and returns its wall time in ns.
pub fn sample_ns() -> u64 {
    let t = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut map = BTreeMap::new();
    let mut names = Vec::new();
    for i in 0..ITEMS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 100_000, i);
        names.push(format!("v{}.load.σ32@{}", x % 977, i % 64));
    }
    names.sort();
    black_box((map.len(), names.len()));
    t.elapsed().as_nanos() as u64
}

/// The median of `per_thread` kernel runs on each of `threads` threads
/// running at once (the parallelism of the workload being scaled).
pub fn probe_ns(threads: usize, per_thread: usize) -> u64 {
    let mut all: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|_| s.spawn(move || (0..per_thread).map(|_| sample_ns()).collect::<Vec<_>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("probe thread"))
            .collect()
    });
    all.sort_unstable();
    all[all.len() / 2]
}

/// Per-module scale factors from the probes taken before the first module
/// and after each one (`probes.len() == modules + 1`): module `i` sits
/// between probes `i` and `i + 1` and uses the median of the five nearest,
/// so one preempted probe cannot skew it.
pub fn module_factors(probes: &[u64]) -> Vec<f64> {
    (0..probes.len().saturating_sub(1))
        .map(|i| {
            let mut w = probes[i.saturating_sub(2)..(i + 3).min(probes.len())].to_vec();
            w.sort_unstable();
            scale(w[w.len() / 2])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factors_use_the_median_of_nearby_probes() {
        let nominal = NOMINAL_PROBE_NS as u64;
        let mut probes = vec![nominal; 8];
        probes[3] = 50 * nominal; // one preempted probe
        let f = module_factors(&probes);
        assert_eq!(f.len(), 7);
        assert!(f.iter().all(|&k| (k - 1.0).abs() < 1e-12), "{f:?}");
        let slow = module_factors(&[2 * nominal; 4]);
        assert!(slow.iter().all(|&k| (k - 0.5).abs() < 1e-12));
    }
}
