//! Session calibration: a fixed amount of integer work and a fixed
//! memcpy, independent of the program under test, timed at the start
//! and end of every run, plus the hypervisor's stolen CPU time. Their
//! drift between sessions (and within a run) is what the machine did,
//! not what the code did.

use std::hint::black_box;
use std::time::Instant;

#[derive(Clone, Copy, Debug)]
pub struct Calibration {
    /// Milliseconds for 20 M rounds of a multiply-xorshift chain.
    pub int_ms: f64,
    /// Throughput of copying a 16 MiB buffer 8 times, in GB/s.
    pub memcpy_gbps: f64,
    /// Machine-wide CPU time stolen by the hypervisor so far, in
    /// seconds (`/proc/stat`; 0 where unavailable).
    pub steal_s: f64,
}

impl Calibration {
    pub fn json(&self) -> String {
        format!(
            "{{\"int_ms\": {:.3}, \"memcpy_gbps\": {:.3}, \"steal_s\": {:.2}}}",
            self.int_ms, self.memcpy_gbps, self.steal_s
        )
    }
}

pub fn calibrate() -> Calibration {
    let start = Instant::now();
    let mut x = black_box(0x2545_F491_4F6C_DD1D_u64);
    for i in 0..20_000_000u64 {
        x ^= x >> 12;
        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i);
    }
    black_box(x);
    let int_ms = start.elapsed().as_secs_f64() * 1e3;

    let src = vec![0xA5u8; 16 << 20];
    let mut dst = vec![0u8; 16 << 20];
    dst.copy_from_slice(&src); // fault the pages in before timing
    let start = Instant::now();
    for _ in 0..8 {
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
    }
    let secs = start.elapsed().as_secs_f64();
    Calibration {
        int_ms,
        memcpy_gbps: (8.0 * src.len() as f64) / secs / 1e9,
        steal_s: steal_s(),
    }
}

/// The `steal` column of `/proc/stat`'s aggregate `cpu` line, in seconds
/// (the kernel counts it in 1/100 s ticks).
pub fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let line = s.lines().next()?.to_string();
            line.split_whitespace().nth(8)?.parse::<f64>().ok()
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}
