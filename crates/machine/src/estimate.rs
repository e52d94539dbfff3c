//! Evaluation results.

use crate::config::MachineConfig;

/// Cost estimate for one kernel on one machine.
#[derive(Clone, Debug, PartialEq)]
pub struct Estimate {
    /// Estimated cycles (core clock domain).
    pub cycles: f64,
    /// Estimated wall-clock seconds.
    pub seconds: f64,
}

impl Estimate {
    /// Build an estimate from raw cycles.
    pub fn new(cfg: &MachineConfig, cycles: f64) -> Self {
        Estimate { cycles, seconds: cycles / (cfg.clock_ghz * 1e9) }
    }
}

/// Fraction of one core's arithmetic peak that `flops` useful operations
/// (`LoweredKernel::useful_flops`) reach in `cycles`, under §4.1's
/// convention of one operation per FP unit per cycle. The Snitch figures
/// report this per-core utilization.
pub fn fraction_of_core_peak(cfg: &MachineConfig, flops: u64, cycles: f64) -> f64 {
    flops as f64 / cycles / cfg.fp_units as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    #[test]
    fn fractions_consistent() {
        let cfg = MachineConfig::snitch();
        // the cluster has 8 cores; one core's peak is 1 op/cycle
        assert!((fraction_of_core_peak(&cfg, 800, 1000.0) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn seconds_follow_clock() {
        let cfg = MachineConfig::snitch(); // 1 GHz
        let e = Estimate::new(&cfg, 1e9);
        assert!((e.seconds - 1.0).abs() < 1e-9);
    }
}
