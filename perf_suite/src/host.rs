//! Host probes: the counting allocator, process CPU time, peak RSS,
//! and the host facts every report carries.

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::Command;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Counts bytes and calls requested from the system allocator while
/// armed. Disarmed it costs one relaxed load per allocation.
pub struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static BYTES: AtomicU64 = AtomicU64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);

fn note(size: usize) {
    // Statistics only: nothing is published through these counters.
    if ARMED.load(Ordering::Relaxed) {
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
        CALLS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`, since
        // every allocating method above forwards to `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Growth is what the program asked for beyond what it held.
        note(new_size.saturating_sub(layout.size()));
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// What the allocator counted between [`arm_alloc`] and [`disarm_alloc`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocCount {
    /// Bytes requested.
    pub bytes: u64,
    /// Allocation calls.
    pub calls: u64,
}

/// Zeroes the counters and starts counting (pass start).
pub fn arm_alloc() {
    BYTES.store(0, Ordering::Relaxed);
    CALLS.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::SeqCst);
}

/// Stops counting, returns what was counted and leaves the counters
/// at zero (pass end).
pub fn disarm_alloc() -> AllocCount {
    ARMED.store(false, Ordering::SeqCst);
    AllocCount {
        bytes: BYTES.swap(0, Ordering::Relaxed),
        calls: CALLS.swap(0, Ordering::Relaxed),
    }
}

/// The counters as they stand: zero outside an armed window.
#[cfg(test)]
pub fn alloc_count() -> AllocCount {
    AllocCount {
        bytes: BYTES.load(Ordering::Relaxed),
        calls: CALLS.load(Ordering::Relaxed),
    }
}

fn read_proc(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// Process user+system CPU time in seconds, all threads, from
/// `/proc/self/stat` (fields 14 and 15, in clock ticks).
pub fn cpu_time_s() -> f64 {
    let stat = read_proc("/proc/self/stat");
    // The command name (field 2) may contain spaces; fields are
    // counted from the closing parenthesis.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || -> f64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("utime/stime in /proc/self/stat")
    };
    // USER_HZ is 100 on every Linux ABI Rust supports; reading it
    // needs libc, which this package does not link.
    (tick() + tick()) / 100.0
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    read_proc("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status")
        / 1024.0
}

/// The host facts every report carries.
#[derive(Clone, Debug)]
pub struct HostFacts {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// The SIMD backend the DSP kernels dispatched to.
    pub dsp_backend: &'static str,
    /// `rustc --version`, or "unknown".
    pub rustc: String,
    /// `git rev-parse HEAD`, or "unknown" outside a repository.
    pub git_commit: String,
    /// The workload seed.
    pub seed: u64,
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

impl HostFacts {
    /// Gathers the facts for a run with `seed`.
    pub fn gather(seed: u64) -> Self {
        HostFacts {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            dsp_backend: galiot_dsp::kernels::backend_name(),
            rustc: command_line("rustc", &["--version"]),
            git_commit: command_line("git", &["rev-parse", "HEAD"]),
            seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The counters are process-wide: this is the only test that arms
    // them, and its assertions hold whatever other threads allocate.
    #[test]
    fn allocator_reads_zero_outside_an_armed_window() {
        arm_alloc();
        let inside = std::hint::black_box(vec![0u8; 4096]);
        let counted = disarm_alloc();
        assert!(counted.bytes >= 4096, "{counted:?}");
        assert!(counted.calls >= 1);
        drop(inside);

        // Disarmed: the counters read zero whatever is allocated.
        let outside = std::hint::black_box(vec![0u8; 1 << 20]);
        assert_eq!(alloc_count(), AllocCount::default());
        drop(outside);
    }

    #[test]
    fn cpu_time_advances_with_work() {
        let before = cpu_time_s();
        let mut acc = 0u64;
        let t0 = std::time::Instant::now();
        while t0.elapsed().as_millis() < 60 {
            acc = std::hint::black_box(acc.wrapping_mul(31).wrapping_add(7));
        }
        std::hint::black_box(acc);
        assert!(cpu_time_s() > before);
    }

    #[test]
    fn peak_rss_is_positive_and_facts_are_filled() {
        assert!(peak_rss_mb() > 1.0);
        let facts = HostFacts::gather(9);
        assert!(facts.nproc >= 1);
        assert!(!facts.dsp_backend.is_empty());
        assert_eq!(facts.seed, 9);
    }
}
