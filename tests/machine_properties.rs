//! Property tests over the simulated-hardware substrate: invariants any
//! sane performance model must satisfy, fuzzed across shapes and targets.

use perfdojo::prelude::*;
use perfdojo_util::proptest_lite::prelude::*;

fn eval(m: &Machine, p: &Program) -> f64 {
    m.evaluate(p).unwrap().seconds
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Cost grows (weakly) monotonically with problem size on every CPU
    /// machine.
    #[test]
    fn cost_monotone_in_problem_size(n in 2usize..64, m in 2usize..64) {
        let small = perfdojo::kernels::mul(n, m);
        let big = perfdojo::kernels::mul(n * 2, m * 2);
        for machine in [Machine::x86_xeon(), Machine::arm_host(), Machine::snitch()] {
            prop_assert!(eval(&machine, &big) >= eval(&machine, &small));
        }
    }

    /// Evaluation is a pure function of the program.
    #[test]
    fn evaluation_deterministic(n in 2usize..128) {
        let p = perfdojo::kernels::relu(n, n);
        let m = Machine::x86_xeon();
        prop_assert_eq!(eval(&m, &p), eval(&m, &p));
    }

    /// Semantics-preserving annotations never change *what* is computed:
    /// estimates stay finite and positive through arbitrary tilings.
    #[test]
    fn tiled_variants_cost_finite(seed in 0u64..1000) {
        use perfdojo_util::rng::{IndexedRandom, Rng};
        let p = perfdojo::kernels::softmax(16, 32);
        let lib = TransformLibrary::cpu(8);
        let mut rng = Rng::seed_from_u64(seed);
        let mut cur = p;
        for _ in 0..4 {
            let actions = available_actions(&cur, &lib);
            if let Some(a) = actions.choose(&mut rng) {
                cur = a.apply(&cur).unwrap();
            }
        }
        let t = eval(&Machine::x86_xeon(), &cur);
        prop_assert!(t.is_finite() && t > 0.0);
    }
}

#[test]
fn more_parallelism_never_hurts_large_kernels() {
    // the same parallel schedule on a machine with more cores is at least
    // as fast (large enough problem to amortize the fork)
    let p = perfdojo::kernels::relu(2048, 2048);
    let mut d = Dojo::for_target(p.clone(), &Target::x86()).unwrap();
    perfdojo::search::heuristic_pass(&mut d);
    let sched = d.current().clone();
    let mut small = perfdojo_machine::MachineConfig::x86_xeon();
    small.cores = 4;
    let m4 = Machine::new(small);
    let m18 = Machine::x86_xeon();
    assert!(eval(&m18, &sched) <= eval(&m4, &sched) * 1.0001);
}

#[test]
fn faster_memory_never_hurts() {
    let p = perfdojo::kernels::add(4096, 4096);
    let slow = Machine::x86_xeon();
    let mut cfg = perfdojo_machine::MachineConfig::x86_xeon();
    cfg.mem_bw_bytes_per_cycle *= 4.0;
    let fast = Machine::new(cfg);
    assert!(eval(&fast, &p) <= eval(&slow, &p) * 1.0001);
}

#[test]
fn gpu_estimates_bounded_below_by_launch() {
    let p = perfdojo::kernels::mul(32, 32);
    let t = Target::gh200();
    let mut d = Dojo::for_target(p, &t).unwrap();
    perfdojo::search::heuristic_pass(&mut d);
    let est = t.machine.evaluate(d.current()).unwrap();
    let has_launch = d.current().scope_paths().iter().any(|pp| {
        matches!(d.current().node(pp), Some(perfdojo::ir::Node::Scope(s))
            if s.kind == perfdojo::ir::ScopeKind::GpuGrid)
    });
    if has_launch {
        assert!(est.seconds >= t.machine.config.gpu.as_ref().unwrap().launch_overhead_s * 0.99);
    }
}
