//! Reference values extracted from the paper's text, used by the
//! experiments' qualitative checks and printed next to simulated results.
//!
//! All values are for **henri** unless stated otherwise.

/// §3.1: 4-byte latency at 2.3 GHz constant core frequency, µs.
pub const LAT_US_AT_2300MHZ: f64 = 1.8;
/// §3.1: 4-byte latency at 1.0 GHz constant core frequency, µs.
pub const LAT_US_AT_1000MHZ: f64 = 3.1;
/// §3.1: asymptotic bandwidth at 2.4 GHz uncore, bytes/s.
pub const BW_AT_UNCORE_MAX: f64 = 10.5e9;
/// §3.1: asymptotic bandwidth at 1.2 GHz uncore, bytes/s.
pub const BW_AT_UNCORE_MIN: f64 = 10.1e9;
/// §3.1: "+72 %" latency change over the core-frequency range vs "+5 %"
/// over the uncore range.
pub const LAT_CORE_FREQ_RATIO: f64 = LAT_US_AT_1000MHZ / LAT_US_AT_2300MHZ;

/// §3.2: latency beside computation vs alone (performance governor), µs.
pub const FIG2_LAT_TOGETHER_US: f64 = 1.52;
/// §3.2 companion value: latency alone, µs.
pub const FIG2_LAT_ALONE_US: f64 = 1.7;
/// §3.2: bandwidth beside computation vs alone, bytes/s (slight gain).
pub const FIG2_BW_TOGETHER: f64 = 9.097e9;
/// §3.2 companion value.
pub const FIG2_BW_ALONE: f64 = 9.063e9;

/// §3.3: AVX512 compute time with 4 computing cores, ms.
pub const FIG3_T4_MS: f64 = 135.0;
/// §3.3: AVX512 compute time with 20 computing cores, ms (weak scaling —
/// same per-core work, lower frequency).
pub const FIG3_T20_MS: f64 = 210.0;
/// §3.3: computing-core frequency with 4 AVX512 cores, GHz.
pub const FIG3_F4_GHZ: f64 = 3.0;
/// §3.3: computing-core frequency with 20 AVX512 cores, GHz.
pub const FIG3_F20_GHZ: f64 = 2.3;
/// §3.3: communication-core frequency (stable), GHz.
pub const FIG3_COMM_GHZ: f64 = 2.5;
/// §3.3: latency beside AVX computation vs alone, µs.
pub const FIG3_LAT_TOGETHER_US: f64 = 1.33;
/// §3.3 companion value.
pub const FIG3_LAT_ALONE_US: f64 = 1.49;

/// §4.2 (Fig 4a): computing-core count from which latency is impacted
/// (data near NIC, thread far).
pub const FIG4_LATENCY_ONSET_CORES: f64 = 22.0;
/// §4.2: latency inflation factor at full occupancy ("can double").
pub const FIG4_LATENCY_FACTOR: f64 = 2.0;
/// §4.2 (Fig 4b): computing-core count from which bandwidth is impacted.
pub const FIG4_BW_ONSET_CORES: f64 = 3.0;
/// §4.2: bandwidth reduced "by almost two thirds" at full occupancy.
pub const FIG4_BW_LOSS_AT_FULL: f64 = 2.0 / 3.0;
/// §4.3: STREAM loses at most 25 % beside the bandwidth benchmark (worst
/// around 5 computing cores).
pub const FIG4_STREAM_WORST_LOSS: f64 = 0.25;

/// §4.3 (Fig 5 baselines): latency with the communication thread near vs
/// far from the NIC, without computation, µs.
pub const FIG5_LAT_NEAR_US: f64 = 1.39;
/// §4.3 companion value.
pub const FIG5_LAT_FAR_US: f64 = 1.67;
/// §4.3: near-thread latency rises from ~6 computing cores but stays ≈2 µs.
pub const FIG5_NEAR_ONSET_CORES: f64 = 6.0;
/// §4.3: far-thread latency rises considerably from ~25 computing cores.
pub const FIG5_FAR_ONSET_CORES: f64 = 25.0;

/// §4.4 (Fig 6a, 5 computing cores): message size from which communications
/// degrade, bytes.
pub const FIG6_5CORES_COMM_ONSET: f64 = 64.0 * 1024.0;
/// §4.4 (Fig 6a): message size from which STREAM is impacted, bytes.
pub const FIG6_5CORES_STREAM_ONSET: f64 = 4.0 * 1024.0;
/// §4.4 (Fig 6b, 35 computing cores): communication degradation onset, bytes.
pub const FIG6_35CORES_COMM_ONSET: f64 = 128.0;

/// §4.5 (Fig 7): arithmetic-intensity boundary between memory- and
/// CPU-bound on henri, flop/B.
pub const FIG7_HENRI_BOUNDARY: f64 = 6.0;
/// §4.5: latency roughly doubles below the boundary.
pub const FIG7_LAT_FACTOR: f64 = 2.0;
/// §4.5: bandwidth drops by ~60 % below the boundary.
pub const FIG7_BW_DROP: f64 = 0.6;
/// §4.5: computation is slowed ~10 % by the bandwidth benchmark when
/// memory-bound.
pub const FIG7_COMPUTE_SLOWDOWN: f64 = 0.10;
/// §4.5: the boundary on billy, flop/B.
pub const FIG7_BILLY_BOUNDARY: f64 = 20.0;

/// §5.2: StarPU latency overhead on henri, µs.
pub const FIG8_OVERHEAD_HENRI_US: f64 = 38.0;
/// §5.2: StarPU latency overhead on billy, µs.
pub const FIG8_OVERHEAD_BILLY_US: f64 = 23.0;
/// §5.2: StarPU latency overhead on pyxis, µs.
pub const FIG8_OVERHEAD_PYXIS_US: f64 = 45.0;

/// §5.4: StarPU's default maximum backoff (nops).
pub const FIG9_DEFAULT_BACKOFF: u32 = 32;
/// §5.4: the "huge" backoff that behaves like paused workers.
pub const FIG9_HUGE_BACKOFF: u32 = 10_000;
/// §5.4: the aggressive backoff.
pub const FIG9_SMALL_BACKOFF: u32 = 2;

/// §6: CG send-bandwidth loss at full worker occupancy ("up to 90 %").
pub const FIG10_CG_LOSS: f64 = 0.90;
/// §6: GEMM send-bandwidth loss at full worker occupancy ("at most 20 %").
pub const FIG10_GEMM_LOSS: f64 = 0.20;
/// §6: CG memory-stall share at full occupancy.
pub const FIG10_CG_STALLS: f64 = 0.70;
/// §6: GEMM memory-stall share at full occupancy.
pub const FIG10_GEMM_STALLS: f64 = 0.20;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_values_consistent() {
        // Compile-time checks: a wrong constant fails the build.
        const {
            assert!(LAT_US_AT_1000MHZ > LAT_US_AT_2300MHZ);
            assert!((LAT_CORE_FREQ_RATIO - 1.72).abs() < 0.01);
            assert!(BW_AT_UNCORE_MAX > BW_AT_UNCORE_MIN);
            assert!(FIG2_LAT_TOGETHER_US < FIG2_LAT_ALONE_US);
            assert!(FIG3_T20_MS > FIG3_T4_MS);
            assert!(FIG10_CG_LOSS > FIG10_GEMM_LOSS);
            assert!(FIG10_CG_STALLS > FIG10_GEMM_STALLS);
            assert!(FIG6_5CORES_COMM_ONSET > FIG6_5CORES_STREAM_ONSET);
        }
    }
}
