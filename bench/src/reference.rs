//! A fixed reference job that measures how fast the host is right now.
//!
//! The benchmark runs on a few cores of a shared host. Other tenants' load
//! changes how fast those cores run this code by 10–30% for minutes at a
//! time: memory latency and SIMD throughput both move, while the guest sees
//! no stolen CPU time, so neither CPU time nor a longer run cancels it. The
//! parent therefore times this job right before every repetition and reports
//! the repetition's end-to-end host times at the reference speed (see
//! [`scale`]). The job does the two kinds of work the workloads do: an event
//! loop over a binary heap that touches a large, freshly allocated working
//! set (the simulators), and 16-bit integer dot products over a
//! cache-resident vector (the quantized attention kernels).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// The reference job's median time on the host this benchmark was written
/// on (a 2-vCPU Xeon VM) when it was quiet. End-to-end host times are
/// reported as if the reference job had taken this long.
pub const NOMINAL_S: f64 = 0.25;

/// Records of the event loop's working set: 64 B each, 64 MiB in all.
const RECORDS: usize = 1 << 20;
/// Events pending when the loop starts (a 4 MiB heap).
const PENDING: usize = 1 << 18;
/// Events the loop delivers, each rescheduling one.
const DELIVERIES: usize = 250_000;
/// 16-bit elements per dot-product operand (512 KiB each).
const DOT_LEN: usize = 1 << 18;
/// Dot products computed.
const DOTS: usize = 4_000;

/// Runs the reference job once and returns its wall time in seconds.
pub fn run() -> f64 {
    let start = Instant::now();
    black_box(event_loop());
    black_box(dot_products());
    start.elapsed().as_secs_f64()
}

/// The factor that takes a host time measured alongside a reference run of
/// `reference_s` seconds to the reference speed; rates divide by it.
pub fn scale(reference_s: f64) -> f64 {
    NOMINAL_S / reference_s
}

/// xorshift64: the job's inputs are fixed, so a fixed stream suffices.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

fn event_loop() -> u64 {
    let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
    let mut records = vec![[0u64; 8]; RECORDS];
    let mut pending: BinaryHeap<Reverse<(u64, u32)>> = (0..PENDING)
        .map(|_| Reverse((rng.next() % 1_000_000, (rng.next() % RECORDS as u64) as u32)))
        .collect();
    let mut acc = 0u64;
    for _ in 0..DELIVERIES {
        let Reverse((time, slot)) = pending.pop().expect("every delivery reschedules");
        let record = &mut records[slot as usize];
        acc = acc.wrapping_add(record[0]);
        record[0] += 1;
        record[1] ^= acc;
        let next = (rng.next() % RECORDS as u64) as u32;
        pending.push(Reverse((time + rng.next() % 1000, next)));
    }
    acc
}

fn dot_products() -> i64 {
    let mut rng = XorShift(0x2545_f491_4f6c_dd1d);
    let a: Vec<i16> = (0..DOT_LEN).map(|_| (rng.next() & 0xff) as i16).collect();
    let mut b: Vec<i16> = (0..DOT_LEN).map(|_| (rng.next() & 0xff) as i16).collect();
    let mut total = 0i64;
    for i in 0..DOTS {
        let dot = black_box(&a)
            .iter()
            .zip(black_box(&b))
            .fold(0i32, |s, (x, y)| {
                s.wrapping_add(i32::from(*x) * i32::from(*y))
            });
        total += i64::from(dot);
        b[i % DOT_LEN] ^= 1;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_takes_times_to_the_reference_speed() {
        // A host running at half speed doubles the reference time; a
        // repetition measured then reads half its time at reference speed.
        assert_eq!(scale(2.0 * NOMINAL_S), 0.5);
        assert_eq!(scale(NOMINAL_S), 1.0);
    }
}
