//! Evaluation results.

use crate::config::MachineConfig;
use perfdojo_codegen::LoweredKernel;

/// Cost estimate for one kernel on one machine.
#[derive(Clone, Debug, PartialEq)]
pub struct Estimate {
    /// Machine name.
    pub machine: String,
    /// Kernel name.
    pub kernel: String,
    /// Estimated cycles (core clock domain).
    pub cycles: f64,
    /// Estimated wall-clock seconds.
    pub seconds: f64,
    /// Useful arithmetic operations (dynamic op instances).
    pub useful_flops: u64,
    /// Theoretical peak arithmetic throughput used for the
    /// fraction-of-peak report (ops per cycle), per §4.1's
    /// one-op-per-cycle convention scaled by core/vector resources.
    pub peak_flops_per_cycle: f64,
}

impl Estimate {
    /// Build an estimate from raw cycles.
    pub fn new(cfg: &MachineConfig, k: &LoweredKernel, cycles: f64) -> Self {
        let peak = match cfg.kind {
            crate::config::MachineKind::Snitch => cfg.cores as f64 * cfg.fp_units as f64,
            crate::config::MachineKind::Gpu => {
                let g = cfg.gpu.as_ref().expect("gpu config");
                (g.sms * g.warp_schedulers * g.warp_size) as f64
            }
            crate::config::MachineKind::Cpu => {
                (cfg.cores * cfg.fp_units * cfg.vector_width) as f64
            }
        };
        let seconds = cycles / (cfg.clock_ghz * 1e9);
        Estimate {
            machine: cfg.name.clone(),
            kernel: k.name.clone(),
            cycles,
            seconds,
            useful_flops: k.useful_flops,
            peak_flops_per_cycle: peak,
        }
    }

    /// Achieved arithmetic throughput in ops/cycle.
    pub fn flops_per_cycle(&self) -> f64 {
        self.useful_flops as f64 / self.cycles
    }

    /// Fraction of peak for a single-core share of the machine (used by the
    /// Snitch micro-kernel figures, which report per-core utilization).
    pub fn fraction_of_single_core_peak(&self, cfg: &MachineConfig) -> f64 {
        let single = self.peak_flops_per_cycle / cfg.cores as f64;
        self.flops_per_cycle() / single
    }

    /// Scale the estimate (measurement-noise wrapper).
    pub fn scale(&mut self, factor: f64) {
        self.cycles *= factor;
        self.seconds *= factor;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    fn dummy_kernel(flops: u64) -> LoweredKernel {
        LoweredKernel { name: "k".into(), buffers: vec![], body: vec![], useful_flops: flops }
    }

    #[test]
    fn fractions_consistent() {
        let cfg = MachineConfig::snitch();
        let e = Estimate::new(&cfg, &dummy_kernel(800), 1000.0);
        assert!((e.flops_per_cycle() - 0.8).abs() < 1e-12);
        // cluster peak is 8 ops/cycle; single-core peak 1
        assert!((e.fraction_of_single_core_peak(&cfg) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn seconds_follow_clock() {
        let cfg = MachineConfig::snitch(); // 1 GHz
        let e = Estimate::new(&cfg, &dummy_kernel(1), 1e9);
        assert!((e.seconds - 1.0).abs() < 1e-9);
    }
}
