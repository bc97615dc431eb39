//! Host clocks and counters read from `/proc`, without new crates or
//! `unsafe`.

/// Clock ticks per second of the `/proc/self/stat` time fields (the
/// kernel's `USER_HZ`, 100 on every mainstream Linux build).
const TICKS_PER_S: f64 = 100.0;

/// CPU seconds of this process plus its waited-for children:
/// utime + stime + cutime + cstime from `/proc/self/stat`. 10 ms ticks, so
/// only meaningful over multi-second spans; 0.0 where `/proc` is missing.
pub fn cpu_secs_with_children() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The comm field may contain spaces; everything after its closing
    // parenthesis is space-separated. utime, stime, cutime and cstime are
    // fields 14..=17 of the line, i.e. 11..=14 of the remainder.
    let Some((_, rest)) = stat.rsplit_once(") ") else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = (11..=14)
        .map(|i| {
            fields
                .get(i)
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0)
        })
        .sum();
    ticks as f64 / TICKS_PER_S
}

/// CPU seconds the hypervisor stole from this VM, summed over its CPUs:
/// the `steal` field of the `cpu` line of `/proc/stat`. 10 ms ticks, so
/// only meaningful over many rounds; 0.0 where `/proc` is missing or the
/// host reports no steal.
pub fn stolen_cpu_secs() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            // cpu user nice system idle iowait irq softirq steal ...
            stat.lines()
                .next()?
                .split_whitespace()
                .nth(8)?
                .parse::<u64>()
                .ok()
        })
        .map_or(0.0, |ticks| ticks as f64 / TICKS_PER_S)
}

/// Peak resident set size of this process in MiB (`VmHWM` of
/// `/proc/self/status`); 0.0 where unavailable.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Resets the peak resident set size to the current one (writes `5` to
/// `/proc/self/clear_refs`), so the next [`peak_rss_mib`] covers only
/// what ran since. Where the kernel does not allow it, the peak stays the
/// process-wide one.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Seconds one pass of the host speed probe takes now: a fixed workload
/// in the shape of a discrete-event queue (20 000 pops and pushes on a
/// binary heap of 4096 pseudo-random timestamps, each touching a 256 KiB
/// table) that shares no code with the program. It tracks how fast the
/// host runs at the moment (clock, contention from other tenants), so
/// dividing a timing by it leaves the program's own speed.
pub fn speed_probe_s() -> f64 {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let xorshift = |x: &mut u64| {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    };
    let t = std::time::Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut table = vec![0u64; 32 * 1024];
    let mut heap = BinaryHeap::with_capacity(4096);
    for _ in 0..4096 {
        heap.push(Reverse(xorshift(&mut x) >> 20));
    }
    let mut acc = 0u64;
    for _ in 0..20_000 {
        let Reverse(now) = heap.pop().unwrap_or(Reverse(0));
        let r = xorshift(&mut x);
        let slot = (r as usize) & (table.len() - 1);
        table[slot] = table[slot].wrapping_add(now);
        acc = acc.wrapping_add(table[(r >> 32) as usize & (table.len() - 1)]);
        heap.push(Reverse(now + (r & 0xffff)));
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64()
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
