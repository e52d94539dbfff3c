//! # Simulated hardware substrate
//!
//! Deterministic performance models standing in for the paper's silicon:
//! a multicore SIMD CPU model (Xeon E5-2695v4-like and GH200 Arm-host-like
//! configurations), a GPU model (GH200 / MI300A-like), and a Snitch RISC-V
//! cluster model with SSR/FREP extensions (§4.1).
//!
//! The models are *analytical executors* over the lowered virtual ISA
//! ([`perfdojo_codegen`]): they walk the loop nest once, computing cycle
//! estimates from instruction mixes, issue widths, dependence-chain
//! latencies, cache/bandwidth rooflines, GPU occupancy and coalescing, and
//! the Snitch stream/repetition semantics. Costs are pure functions of the
//! schedule, so search and RL are reproducible.
//!
//! Substitution note (see DESIGN.md): the paper measures wall-clock on real
//! hardware / RTL simulation. These models preserve the *behaviour that the
//! transformations trade in* — fusion removes traffic, tiling feeds caches
//! and hides FPU latency, vectorization amortizes issue slots, SSR removes
//! loads, FREP removes loop overhead, GPU binding buys parallelism at
//! launch/occupancy cost — so the relative standings the paper reports can
//! emerge from the model rather than being hard-coded.

pub mod config;
pub mod cpu;
pub mod estimate;
pub mod gpu;

pub use config::{CacheLevel, GpuConfig, MachineConfig, MachineKind};
pub use estimate::{fraction_of_core_peak, Estimate};

/// Version of the analytical performance models. Bump whenever a model
/// change can move predicted costs: persisted schedule libraries record it
/// and treat entries tuned under another version as stale.
pub const MODEL_VERSION: u32 = 1;

use perfdojo_codegen::{lower, lower_arena, LoweredKernel};
use perfdojo_ir::{arena::Arena, Program};
use std::fmt;

/// Evaluation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum MachineError {
    /// The program could not be lowered (excluded features).
    Lowering(String),
    /// The schedule cannot run on this machine (e.g. GPU bindings on a CPU).
    Unschedulable(String),
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::Lowering(m) => write!(f, "lowering failed: {m}"),
            MachineError::Unschedulable(m) => write!(f, "unschedulable: {m}"),
        }
    }
}

impl std::error::Error for MachineError {}

/// A simulated machine: configuration + evaluation entry points.
#[derive(Clone, Debug)]
pub struct Machine {
    /// The hardware parameters.
    pub config: MachineConfig,
}

impl Machine {
    /// Build a machine from a configuration.
    pub fn new(config: MachineConfig) -> Self {
        Machine { config }
    }

    /// Intel Xeon E5-2695 v4-like x86 machine (18 cores, AVX-512-class SIMD
    /// as modelled width 16, §4.2.3).
    pub fn x86_xeon() -> Self {
        Machine::new(MachineConfig::x86_xeon())
    }

    /// GH200 Arm (Neoverse-like) host CPU: many cores, narrow SIMD, and a
    /// software ecosystem whose vendor libraries are less tuned (modelled in
    /// the baselines, not here).
    pub fn arm_host() -> Self {
        Machine::new(MachineConfig::arm_host())
    }

    /// GH200-like GPU (Hopper-class: 132 SMs, warp 32).
    pub fn gh200() -> Self {
        Machine::new(MachineConfig::gh200())
    }

    /// MI300A-like GPU (CDNA3-class: 228 CUs, wavefront 64).
    pub fn mi300a() -> Self {
        Machine::new(MachineConfig::mi300a())
    }

    /// Snitch cluster (8 worker cores, SSR + FREP, 1 GHz, §4.1).
    pub fn snitch() -> Self {
        Machine::new(MachineConfig::snitch())
    }

    /// RISC-V scalar core without the Snitch extensions (the "plain C"
    /// reference point of Fig. 8).
    pub fn riscv_scalar() -> Self {
        Machine::new(MachineConfig::riscv_scalar())
    }

    /// Evaluate a program: lower it and run the analytical executor.
    /// Lowering runs on the flat arena walker ([`perfdojo_codegen::lower`]
    /// flattens and delegates to [`perfdojo_codegen::lower_arena`]), so
    /// cost estimation never chases tree pointers.
    pub fn evaluate(&self, p: &Program) -> Result<Estimate, MachineError> {
        let k = lower(p).map_err(|e| MachineError::Lowering(e.to_string()))?;
        self.evaluate_lowered(&k)
    }

    /// Evaluate from an already-flattened arena view, skipping the
    /// per-evaluation `Arena::build`. The incremental engine keeps one
    /// arena per state and shares it between cost estimation and the
    /// transform finders.
    pub fn evaluate_arena(&self, a: &Arena) -> Result<Estimate, MachineError> {
        let k = lower_arena(a).map_err(|e| MachineError::Lowering(e.to_string()))?;
        self.evaluate_lowered(&k)
    }

    /// Evaluate an already-lowered kernel.
    pub fn evaluate_lowered(&self, k: &LoweredKernel) -> Result<Estimate, MachineError> {
        let cycles = match self.config.kind {
            MachineKind::Cpu | MachineKind::Snitch => cpu::cost_kernel(&self.config, k)?,
            MachineKind::Gpu => gpu::cost_kernel(&self.config, k)?,
        };
        Ok(Estimate::new(&self.config, cycles))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfdojo_ir::builder::*;
    use perfdojo_ir::ProgramBuilder;
    use perfdojo_transform::{Loc, Transform};

    fn vec_mul(n: usize, m: usize) -> perfdojo_ir::Program {
        let mut b = ProgramBuilder::new("mul");
        b.input("x", &[n, m]).input("y", &[n, m]).output("z", &[n, m]);
        b.scopes(&[n, m], |b| {
            b.op(out("z", &[0, 1]), mul(ld("x", &[0, 1]), ld("y", &[0, 1])));
        });
        b.build()
    }

    /// Fraction of one core's peak that `m` reaches on `p`.
    fn core_peak_fraction(m: &Machine, p: &perfdojo_ir::Program) -> f64 {
        let flops = lower(p).unwrap().useful_flops();
        fraction_of_core_peak(&m.config, flops, m.evaluate(p).unwrap().cycles)
    }

    #[test]
    fn parallelize_speeds_up_cpu() {
        let m = Machine::x86_xeon();
        let p = vec_mul(1024, 1024);
        let base = m.evaluate(&p).unwrap();
        let par = Transform::Parallelize
            .apply(&p, &Loc::Node(perfdojo_ir::Path::from([0])))
            .unwrap();
        let fast = m.evaluate(&par).unwrap();
        assert!(
            fast.seconds < base.seconds / 4.0,
            "parallel {} vs serial {}",
            fast.seconds,
            base.seconds
        );
    }

    #[test]
    fn vectorize_speeds_up_cpu() {
        let m = Machine::x86_xeon();
        let p = vec_mul(256, 1024);
        let base = m.evaluate(&p).unwrap();
        let split = Transform::SplitScope { tile: 16 };
        let loc = split
            .find_locations(&p)
            .into_iter()
            .find(|l| matches!(l, Loc::Node(pp) if pp.len() == 2))
            .unwrap();
        let q = split.apply(&p, &loc).unwrap();
        let v = Transform::Vectorize { width: 16 };
        let vloc = &v.find_locations(&q)[0];
        let r = v.apply(&q, vloc).unwrap();
        let fast = m.evaluate(&r).unwrap();
        assert!(
            fast.seconds < base.seconds / 2.0,
            "vector {} vs scalar {}",
            fast.seconds,
            base.seconds
        );
    }

    #[test]
    fn snitch_latency_hiding_story() {
        // The §4.1 narrative: a scalar accumulation chain runs at ~1/4 of
        // peak due to the 4-cycle FPU pipeline; splitting the reduction into
        // 4 accumulators and unrolling recovers most of it.
        let m = Machine::snitch();
        let mut b = ProgramBuilder::new("dot");
        b.input("x", &[256]).input("y", &[256]).output("s", &[1]);
        b.op(out_at("s", vec![perfdojo_ir::Affine::cst(0)]), cst(0.0));
        b.scope(256, |b| {
            b.reduce(
                out_at("s", vec![perfdojo_ir::Affine::cst(0)]),
                perfdojo_ir::BinaryOp::Add,
                mul(ld("x", &[0]), ld("y", &[0])),
            );
        });
        let p = b.build();
        let base_frac = core_peak_fraction(&m, &p);
        // latency-bound: ~1 FMA per 4-cycle chain step, i.e. ~25% of peak
        assert!(base_frac < 0.35, "chained: {base_frac}");
        assert!(base_frac > 0.15, "chained: {base_frac}");

        let sr = Transform::SplitReduction { tile: 4 };
        let q = sr.apply(&p, &sr.find_locations(&p)[0]).unwrap();
        // unroll every 4-trip loop (init, partial accumulation, final)
        let mut r = q.clone();
        loop {
            let locs = Transform::Unroll.find_locations(&r);
            let Some(loc) = locs.first() else { break };
            r = Transform::Unroll.apply(&r, loc).unwrap();
        }
        let opt_frac = core_peak_fraction(&m, &r);
        assert!(
            opt_frac > base_frac * 1.3,
            "split {opt_frac} vs chained {base_frac}"
        );
    }

    #[test]
    fn ssr_and_frep_help_on_snitch() {
        let m = Machine::snitch();
        let mut b = ProgramBuilder::new("axpy");
        b.input("x", &[256]).input("y", &[256]).output("z", &[256]);
        b.scope(256, |b| {
            b.op(out("z", &[0]), add(mul(cst(2.0), ld("x", &[0])), ld("y", &[0])));
        });
        let p = b.build();
        let base = m.evaluate(&p).unwrap();
        let s = Transform::EnableSsr.apply(&p, &Loc::Node(perfdojo_ir::Path::from([0]))).unwrap();
        let with_ssr = m.evaluate(&s).unwrap();
        let f = Transform::EnableFrep.apply(&s, &Loc::Node(perfdojo_ir::Path::from([0]))).unwrap();
        let with_frep = m.evaluate(&f).unwrap();
        assert!(with_ssr.cycles < base.cycles, "ssr {} base {}", with_ssr.cycles, base.cycles);
        assert!(with_frep.cycles < with_ssr.cycles);
        // with streams + hardware loop, axpy approaches 1 fma/cycle
        let frac = core_peak_fraction(&m, &f);
        assert!(frac > 0.6, "{frac}");
    }

    #[test]
    fn gpu_binding_beats_host_fallback() {
        let m = Machine::gh200();
        let p = vec_mul(1024, 1024);
        let host = m.evaluate(&p).unwrap();
        let g = Transform::BindGpu(perfdojo_ir::ScopeKind::GpuGrid)
            .apply(&p, &Loc::Node(perfdojo_ir::Path::from([0])))
            .unwrap();
        let b = Transform::BindGpu(perfdojo_ir::ScopeKind::GpuBlock);
        let gb = b.apply(&g, &b.find_locations(&g)[0]).unwrap();
        let dev = m.evaluate(&gb).unwrap();
        assert!(dev.seconds < host.seconds / 10.0, "gpu {} host {}", dev.seconds, host.seconds);
    }

    #[test]
    fn gpu_launch_overhead_floors_tiny_kernels() {
        let m = Machine::gh200();
        let p = vec_mul(2, 32);
        let g = Transform::BindGpu(perfdojo_ir::ScopeKind::GpuGrid)
            .apply(&p, &Loc::Node(perfdojo_ir::Path::from([0])))
            .unwrap();
        let bk = Transform::BindGpu(perfdojo_ir::ScopeKind::GpuBlock);
        let gb = bk.apply(&g, &bk.find_locations(&g)[0]).unwrap();
        let e = m.evaluate(&gb).unwrap();
        assert!(e.seconds >= m.config.gpu.as_ref().unwrap().launch_overhead_s * 0.99);
    }

    #[test]
    fn evaluation_is_deterministic() {
        let m = Machine::x86_xeon();
        let p = vec_mul(128, 128);
        assert_eq!(m.evaluate(&p).unwrap().cycles, m.evaluate(&p).unwrap().cycles);
    }
}
