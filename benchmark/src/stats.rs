//! Sample statistics and the readings of the process CPU clock and
//! `/proc` behind `cpu_ms_per_kexec`, `peak_rss_mb` and the recorded host
//! description.

use std::path::Path;

/// Linear-interpolation percentile of `values` at `p` in `0..=100`
/// (the "inclusive" method: p0 = min, p100 = max). `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 100.0) / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    Some(v[lo] + (v[hi] - v[lo]) * (rank - lo as f64))
}

/// Median (p50); 0 for an empty sample so absent per-layer stages read 0.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0).unwrap_or(0.0)
}

/// Quartile spread `(Q3 - Q1) / median` with the exclusive quartile
/// method of Python's `statistics.quantiles(values, n=4)`, which is what
/// the acceptance check of the benchmark contract computes.
pub fn iqr_over_median(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let quantile = |k: usize| {
        // Position k*(n+1)/4 in 1-based ranks, clamped to the sample.
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    let med = median(&v);
    (med != 0.0).then(|| (quantile(3) - quantile(1)) / med.abs())
}

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// User + system CPU seconds this process has consumed so far: all
/// threads, including ones that already exited (the platforms spawn
/// their pod threads anew every round). Read from the process CPU clock
/// at nanosecond resolution; `/proc/self/stat` counts in 10 ms ticks,
/// coarser than most rounds.
pub fn process_cpu_seconds() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` of the layout 64-bit
    // Linux defines (two 64-bit integers), and the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock exists on every Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// `VmHWM` (peak resident set) in MB from `/proc/<pid>/status` text.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_mb(&s))
        .unwrap_or(0.0)
}

/// Filesystem type of the mount holding `path`, from `/proc/mounts`
/// text (longest mount-point prefix wins).
pub fn parse_fs_type(mounts: &str, path: &Path) -> Option<String> {
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_ascii_whitespace();
            let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount).then_some((mount.len(), fs))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs.to_string())
}

/// The host facts every result carries: logical CPUs, kernel release,
/// and the filesystem under the scratch directory (fsync cost lives
/// there).
pub fn host_description(scratch: &Path) -> (usize, String, String) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let abs = std::fs::canonicalize(scratch).unwrap_or_else(|_| scratch.to_path_buf());
    let fs = std::fs::read_to_string("/proc/mounts")
        .ok()
        .and_then(|m| parse_fs_type(&m, &abs))
        .unwrap_or_else(|| "unknown".into());
    (nproc, kernel, fs)
}

/// Total bytes of regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_and_handles_edges() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 90.0), Some(7.0));
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(4.0));
        assert_eq!(median(&v), 2.5);
        assert!((percentile(&v, 90.0).unwrap() - 3.7).abs() < 1e-12);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn iqr_matches_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = iqr_over_median(&v).unwrap();
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(iqr_over_median(&[1.0]), None);
        assert_eq!(iqr_over_median(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn cpu_seconds_count_work_done_on_other_threads() {
        let before = process_cpu_seconds();
        let spin = || {
            let t = std::time::Instant::now();
            let mut x = 0u64;
            while t.elapsed().as_millis() < 30 {
                x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
            }
        };
        std::thread::spawn(spin).join().unwrap();
        let spent = process_cpu_seconds() - before;
        assert!(
            spent > 0.005,
            "a joined thread's 30 ms of spinning shows: {spent}"
        );
    }

    #[test]
    fn vm_hwm_is_read_in_mb() {
        let status = "Name:\tx\nVmPeak:\t 9 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(2.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tx\n"), None);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn fs_type_picks_the_longest_mount_prefix() {
        let mounts = "overlay / overlay rw 0 0\n/dev/vdb /root/scratch ext4 rw 0 0\n";
        let fs = |p: &str| parse_fs_type(mounts, Path::new(p));
        assert_eq!(fs("/root/scratch/x").as_deref(), Some("ext4"));
        assert_eq!(fs("/root/repo").as_deref(), Some("overlay"));
    }

    #[test]
    fn dir_bytes_sums_nested_files() {
        let dir = std::env::temp_dir().join(format!("softborg-bm-dirbytes-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("sub")).unwrap();
        std::fs::write(dir.join("a"), [0u8; 10]).unwrap();
        std::fs::write(dir.join("sub/b"), [0u8; 5]).unwrap();
        assert_eq!(dir_bytes(&dir), 15);
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(dir_bytes(&dir), 0);
    }
}
