//! # heteropipe-gpu
//!
//! Timing model of the study's GPU (Table I: 16 NVIDIA Fermi-like SMs at
//! 700 MHz, each managing up to 8 CTAs / 48 warps of 32 threads, issuing up
//! to 32 SIMT instructions per cycle for 22.4 GFLOP/s peak per SM, with
//! 48 KiB scratch memory and 32 k registers per SM, greedy-then-oldest warp
//! scheduling).
//!
//! Like the CPU model, kernel timing is bounds-based at stage granularity:
//!
//! 1. an **issue/compute bound** — SIMT instructions (or FLOPs) over the
//!    aggregate issue rate, derated by achieved occupancy,
//! 2. a **latency bound** — off-chip misses over the latency-hiding
//!    capacity of the resident warps (GPUs tolerate latency with massive
//!    MLP, so this binds only at low occupancy),
//!
//! with the off-chip bandwidth bound applied by the system runner's fluid
//! network. [`Occupancy`] models the CTA/warp/scratch limits and
//! [`coalesce`] models the per-warp access coalescer that turns 32 thread
//! addresses into 128-byte line transactions.

#![warn(missing_docs)]

pub mod coalesce;

use heteropipe_cpu::StageWork;
use heteropipe_sim::{ClockDomain, Ps};

pub use coalesce::{coalesce_warp, WARP_SIZE};

/// Configuration of the GPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuConfig {
    /// Number of SMs (Table I: 16).
    pub sms: u8,
    /// SM clock (Table I: 700 MHz).
    pub clock: ClockDomain,
    /// Max CTAs resident per SM (Table I: 8).
    pub max_ctas_per_sm: u32,
    /// Max warps resident per SM (Table I: 48).
    pub max_warps_per_sm: u32,
    /// SIMT lanes issued per cycle per SM (Table I: 32).
    pub issue_lanes: u32,
    /// Scratch (shared) memory per SM in bytes (Table I: 48 KiB).
    pub scratch_bytes_per_sm: u64,
    /// Registers per SM (Table I: 32 k).
    pub registers_per_sm: u32,
    /// Peak FLOPs per SM per second (Table I: 22.4 GFLOP/s).
    pub peak_flops_per_sm: f64,
    /// Loaded off-chip latency as seen by a warp, in seconds.
    pub offchip_latency_secs: f64,
    /// Overlapped outstanding misses per resident warp (GTO scheduling
    /// keeps roughly one long-latency miss in flight per warp plus spatial
    /// overlap within a warp).
    pub misses_in_flight_per_warp: f64,
    /// Warps per SM needed to saturate the issue stage.
    pub warps_to_saturate_issue: u32,
    /// Serialized cost of one CPU-handled GPU page fault (heterogeneous
    /// processor only; §III-D's IOMMU-style fault round trip).
    pub page_fault_latency: Ps,
}

impl GpuConfig {
    /// Table I GPU parameters.
    pub fn paper() -> Self {
        GpuConfig {
            sms: 16,
            clock: ClockDomain::from_mhz(700.0),
            max_ctas_per_sm: 8,
            max_warps_per_sm: 48,
            issue_lanes: 32,
            scratch_bytes_per_sm: 48 * 1024,
            registers_per_sm: 32 * 1024,
            peak_flops_per_sm: 22.4e9,
            offchip_latency_secs: 400.0e-9,
            misses_in_flight_per_warp: 1.5,
            warps_to_saturate_issue: 8,
            page_fault_latency: Ps::from_micros(2) + Ps::from_nanos(500),
        }
    }

    /// Aggregate peak FLOP rate (the `F_gpu` of the paper's Eq. 2):
    /// 16 × 22.4 = 358.4 GFLOP/s.
    pub fn peak_flops_total(&self) -> f64 {
        self.sms as f64 * self.peak_flops_per_sm
    }

    /// Aggregate SIMT instruction issue rate, lanes × SMs × clock.
    pub fn peak_issue_rate(&self) -> f64 {
        self.sms as f64 * self.issue_lanes as f64 * self.clock.freq_hz()
    }

    /// Max resident threads per SM (warps × 32 = 1536).
    pub fn max_threads_per_sm(&self) -> u64 {
        self.max_warps_per_sm as u64 * WARP_SIZE as u64
    }
}

/// Resident-thread occupancy of a kernel on one SM, given its per-CTA
/// resource demands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Occupancy {
    /// CTAs resident per SM.
    pub ctas_per_sm: u32,
    /// Warps resident per SM.
    pub warps_per_sm: u32,
}

impl Occupancy {
    /// Computes occupancy from a kernel's CTA shape.
    ///
    /// # Panics
    ///
    /// Panics if `threads_per_cta` is zero or the CTA cannot fit on an SM
    /// at all (more scratch than the SM has, or more threads than resident
    /// capacity).
    pub fn of(config: &GpuConfig, threads_per_cta: u32, scratch_per_cta: u64) -> Self {
        assert!(threads_per_cta > 0, "CTA must have threads");
        let warps_per_cta = threads_per_cta.div_ceil(WARP_SIZE as u32);
        assert!(
            warps_per_cta <= config.max_warps_per_sm,
            "CTA of {threads_per_cta} threads exceeds SM residency"
        );
        assert!(
            scratch_per_cta <= config.scratch_bytes_per_sm,
            "CTA scratch {scratch_per_cta} exceeds SM scratch"
        );
        let by_cta_slots = config.max_ctas_per_sm;
        let by_warps = config.max_warps_per_sm / warps_per_cta;
        let by_scratch = config
            .scratch_bytes_per_sm
            .checked_div(scratch_per_cta)
            .map_or(u32::MAX, |v| v as u32);
        let ctas = by_cta_slots.min(by_warps).min(by_scratch).max(1);
        Occupancy {
            ctas_per_sm: ctas,
            warps_per_sm: ctas * warps_per_cta,
        }
    }

    /// Resident threads per SM.
    pub fn threads_per_sm(&self) -> u64 {
        self.warps_per_sm as u64 * WARP_SIZE as u64
    }

    /// Fraction of the SM's warp slots occupied.
    pub fn fraction(&self, config: &GpuConfig) -> f64 {
        self.warps_per_sm as f64 / config.max_warps_per_sm as f64
    }
}

/// The GPU timing model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuModel {
    config: GpuConfig,
}

impl GpuModel {
    /// Creates a model over `config`.
    pub fn new(config: GpuConfig) -> Self {
        GpuModel { config }
    }

    /// The configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// Intrinsic (contention-free) execution time of a kernel.
    ///
    /// `work.threads` is the kernel's total thread count; `occupancy` is the
    /// per-SM residency from [`Occupancy::of`].
    pub fn kernel_time(&self, work: &StageWork, occupancy: Occupancy) -> Ps {
        let c = &self.config;
        // Resident parallelism: how many threads are actually in flight.
        let resident = (c.sms as u64 * occupancy.threads_per_sm()).min(work.threads.max(1));
        let resident_warps = (resident as f64 / WARP_SIZE as f64).max(1.0);

        // Issue utilization ramps with warps per SM up to saturation, and
        // divergent warps waste lanes.
        let warps_per_sm = resident_warps / c.sms as f64;
        let simd = if work.simd_efficiency > 0.0 {
            work.simd_efficiency.min(1.0)
        } else {
            1.0
        };
        let issue_util = (warps_per_sm / c.warps_to_saturate_issue as f64).min(1.0) * simd;
        let issue_secs = work.instructions as f64 / (c.peak_issue_rate() * issue_util.max(1e-3));
        let flop_secs = work.flops as f64 / (c.peak_flops_total() * issue_util.max(1e-3));

        // Latency bound: misses stream through `resident_warps × in-flight`
        // parallel slots. Greedy-then-oldest scheduling hides memory
        // latency behind issue (and vice versa), so the kernel runs at the
        // slowest of the three bounds rather than their sum.
        let outstanding = resident_warps * c.misses_in_flight_per_warp;
        let slow_accesses = (work.mem.offchip + work.mem.remote_hits) as f64;
        let latency_secs = slow_accesses * c.offchip_latency_secs / outstanding;

        Ps::from_secs_f64(issue_secs.max(flop_secs).max(latency_secs))
    }

    /// Extra GPU time due to CPU-handled page faults: faults are serviced by
    /// a single serialized handler thread on the CPU (§III-D), and every
    /// first touch pays the whole round trip (the handler does no
    /// fault-around), which concentrates the paper's fault slowdown in the
    /// scatter-writing benchmarks (srad, heartwall, pr_spmv).
    pub fn fault_stall(&self, faults: u64) -> Ps {
        self.config.page_fault_latency * faults
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heteropipe_cpu::LevelCounts;

    fn model() -> GpuModel {
        GpuModel::new(GpuConfig::paper())
    }

    fn full_occ() -> Occupancy {
        Occupancy::of(model().config(), 192, 0)
    }

    fn kernel(instrs: u64, flops: u64, threads: u64) -> StageWork {
        StageWork {
            instructions: instrs,
            flops,
            mem: LevelCounts::default(),
            threads,
            simd_efficiency: 1.0,
        }
    }

    #[test]
    fn paper_config_totals() {
        let c = GpuConfig::paper();
        assert_eq!(c.sms, 16);
        assert!((c.peak_flops_total() - 358.4e9).abs() < 1e6);
        assert!((c.peak_issue_rate() - 358.4e9).abs() < 1e6);
        assert_eq!(c.max_threads_per_sm(), 1536);
    }

    #[test]
    fn occupancy_limited_by_cta_slots() {
        // Small CTAs: the 8-CTA limit binds before the 48-warp limit.
        let occ = Occupancy::of(&GpuConfig::paper(), 64, 0);
        assert_eq!(occ.ctas_per_sm, 8);
        assert_eq!(occ.warps_per_sm, 16);
    }

    #[test]
    fn occupancy_limited_by_warps() {
        // 512-thread CTAs = 16 warps each: 3 CTAs fill 48 warps.
        let occ = Occupancy::of(&GpuConfig::paper(), 512, 0);
        assert_eq!(occ.ctas_per_sm, 3);
        assert_eq!(occ.warps_per_sm, 48);
        assert_eq!(occ.threads_per_sm(), 1536);
        assert!((occ.fraction(&GpuConfig::paper()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn occupancy_limited_by_scratch() {
        // 16 KiB scratch per CTA: only 3 fit in 48 KiB.
        let occ = Occupancy::of(&GpuConfig::paper(), 128, 16 * 1024);
        assert_eq!(occ.ctas_per_sm, 3);
    }

    #[test]
    #[should_panic(expected = "scratch")]
    fn oversized_scratch_rejected() {
        let _ = Occupancy::of(&GpuConfig::paper(), 128, 64 * 1024);
    }

    #[test]
    fn gpu_is_much_faster_than_cpu_on_wide_work() {
        use heteropipe_cpu::{CpuConfig, CpuModel};
        let w = kernel(100_000_000, 100_000_000, 1 << 20);
        let g = model().kernel_time(&w, full_occ());
        let mut cw = w;
        cw.threads = 1;
        let c = CpuModel::new(CpuConfig::paper()).stage_time(&cw);
        assert!(c.as_secs_f64() / g.as_secs_f64() > 5.0);
    }

    #[test]
    fn compute_bound_kernel_matches_peak() {
        let w = kernel(0, 358_400_000, 1 << 20); // 1 ms at peak FLOPs
        let t = model().kernel_time(&w, full_occ());
        assert!((t.as_millis_f64() - 1.0).abs() < 0.01, "{t}");
    }

    #[test]
    fn low_occupancy_slows_issue() {
        let w = kernel(100_000_000, 0, 256);
        let small = model().kernel_time(&w, Occupancy::of(model().config(), 256, 0));
        let wide = kernel(100_000_000, 0, 1 << 20);
        let big = model().kernel_time(&wide, full_occ());
        assert!(
            small > big,
            "tiny kernel should issue slower: {small} vs {big}"
        );
    }

    #[test]
    fn latency_bound_binds_at_low_occupancy_only() {
        let mut w = kernel(1_000, 0, 1 << 20);
        w.mem.offchip = 1_000_000;
        let full = model().kernel_time(&w, full_occ());
        let mut narrow = w;
        narrow.threads = 512; // 16 warps total
        let thin = model().kernel_time(&narrow, full_occ());
        assert!(thin.as_secs_f64() > 10.0 * full.as_secs_f64());
    }

    #[test]
    fn fault_stall_is_linear() {
        let m = model();
        assert_eq!(m.fault_stall(0), Ps::ZERO);
        assert_eq!(m.fault_stall(10), m.config().page_fault_latency * 10);
    }

    #[test]
    fn remote_hits_also_cost_latency() {
        let mut near = kernel(1_000, 0, 1 << 14);
        near.mem.l2_hits = 100_000;
        let mut far = kernel(1_000, 0, 1 << 14);
        far.mem.remote_hits = 100_000;
        let m = model();
        assert!(m.kernel_time(&far, full_occ()) > m.kernel_time(&near, full_occ()));
    }
}
