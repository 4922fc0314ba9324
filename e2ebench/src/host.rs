//! Provenance recorded with every result: which code ran where, and how
//! fast the host was while it ran.

use std::collections::BinaryHeap;
use std::path::Path;
use std::time::Instant;

/// The repository checkout the benchmark was built from.
pub fn repo_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
}

/// The checked-out commit, read from `.git` without running git;
/// `"unavailable"` outside a git checkout.
pub fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(&git.join("HEAD")) else {
        return "unavailable".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&git.join(reference)) {
        return rev.trim().to_string();
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unavailable".to_string())
}

/// Logical cores the host offers this process.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Threads in the detector's analysis pool: `CCHUNTER_THREADS` when set to
/// a positive number, else every core (the pool's own rule).
pub fn pool_threads() -> usize {
    std::env::var("CCHUNTER_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&t| t >= 1)
        .unwrap_or_else(host_cores)
}

/// The build profile of this binary.
pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), on hosts with
/// `/proc`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Host-speed reference: milliseconds to run a fixed piece of code that
/// mixes the work the simulator does (sorting, a binary-heap event queue,
/// pointer-sized loads over a 2 MiB table). It shares no code with the
/// program under test, so a change to the program leaves it alone; taken
/// beside the timed operations, it shows a slow host phase in the data
/// instead of letting it pass for a regression.
#[derive(Debug)]
pub struct HostReference {
    table: Vec<u64>,
    samples: Vec<f64>,
}

impl Default for HostReference {
    fn default() -> Self {
        let mut rng = crate::inputs::SplitMix64::new(0x5EED);
        HostReference {
            table: (0..1 << 18).map(|_| rng.next_u64()).collect(),
            samples: Vec::new(),
        }
    }
}

impl HostReference {
    /// Runs the reference once and keeps its time.
    pub fn sample(&mut self) {
        let start = Instant::now();
        let mut sorted = self.table[..1 << 15].to_vec();
        sorted.sort_unstable();
        let mut heap = BinaryHeap::with_capacity(1 << 12);
        let mut index = 0usize;
        let mut acc = 0u64;
        for (i, &x) in sorted.iter().enumerate() {
            index = ((x ^ acc) as usize) & (self.table.len() - 1);
            acc = acc.wrapping_add(self.table[index]);
            heap.push(std::cmp::Reverse(acc >> 40));
            if i % 2 == 1 {
                heap.pop();
            }
        }
        std::hint::black_box((acc, index, heap.len()));
        self.samples.push(start.elapsed().as_secs_f64() * 1e3);
    }

    /// Every sample taken, in milliseconds.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provenance_is_readable_here() {
        assert!(host_cores() >= 1);
        assert!(pool_threads() >= 1);
        assert!(repo_root().join("Cargo.toml").is_file());
        assert!(!git_rev(repo_root()).is_empty());
        assert_eq!(git_rev(Path::new("/nonexistent")), "unavailable");
        if Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb().expect("VmHWM") > 0.0);
        }
    }

    #[test]
    fn reference_takes_positive_time() {
        let mut r = HostReference::default();
        r.sample();
        r.sample();
        assert_eq!(r.samples().len(), 2);
        assert!(r.samples().iter().all(|&ms| ms > 0.0));
    }
}
