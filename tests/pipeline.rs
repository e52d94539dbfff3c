//! End-to-end pipeline tests: kernels × targets × optimizers, exercising
//! the full stack (IR → transformations → Dojo → machine models → search /
//! RL → baselines) the way a downstream user would.

use perfdojo::prelude::*;

#[test]
fn heuristic_pass_never_worsens_any_kernel_on_any_cpu_target() {
    for target in [Target::x86(), Target::arm(), Target::snitch()] {
        for k in perfdojo::kernels::small_suite() {
            let mut d = Dojo::for_target(k.program.clone(), &target).unwrap();
            let before = d.initial_runtime();
            let after = perfdojo::search::heuristic_pass(&mut d);
            assert!(
                after <= before * 1.0001,
                "{} on {}: {after} vs {before}",
                k.label,
                target.name
            );
        }
    }
}

#[test]
fn paper_scale_kernels_evaluate_on_every_target() {
    // The analytical machine models must handle the full Table 3 shapes.
    for target in Target::all() {
        for k in perfdojo::kernels::paper_suite() {
            let est = target.machine.evaluate(&k.program).unwrap();
            assert!(
                est.seconds.is_finite() && est.seconds > 0.0,
                "{} on {}",
                k.label,
                target.name
            );
        }
    }
}

#[test]
fn search_improves_and_replays_on_gpu() {
    let p = perfdojo::kernels::mul(64, 512);
    let target = Target::gh200();
    let mut d = Dojo::for_target(p.clone(), &target).unwrap();
    let init = d.initial_runtime();
    let r = perfdojo::search::random_sampling(&mut d, 200, 5);
    assert!(r.best_runtime < init, "search found nothing on the GPU");
    let mut d2 = Dojo::for_target(p, &target).unwrap();
    let rt = d2.load_sequence(&r.best_steps).unwrap();
    assert!((rt - r.best_runtime).abs() <= rt * 1e-9);
}

#[test]
fn optimized_schedules_verify_numerically_across_targets() {
    // run the expert pass on verification-scale kernels and check outputs
    for target in [Target::x86(), Target::snitch_core(), Target::gh200()] {
        for k in perfdojo::kernels::small_suite().into_iter().take(8) {
            let mut d = Dojo::for_target(k.program.clone(), &target).unwrap();
            perfdojo::search::heuristic_pass(&mut d);
            let rep = verify_equivalent(&k.program, d.current(), 2, 21);
            assert!(rep.is_equivalent(), "{} on {}: {rep:?}", k.label, target.name);
        }
    }
}

#[test]
fn baselines_are_consistent() {
    let t = Target::x86();
    for k in perfdojo::kernels::small_suite().into_iter().take(6) {
        let torch = perfdojo::baselines::torch_runtime(&k.program, &t);
        let tvm = perfdojo::baselines::tvm_tune(&k.program, &t, 50, 9);
        assert!(torch.is_finite() && torch > 0.0, "{}", k.label);
        assert!(tvm.runtime.is_finite() && tvm.runtime > 0.0, "{}", k.label);
    }
}

#[test]
fn perfllm_full_loop_on_small_kernel() {
    let p = perfdojo::kernels::relu(64, 64);
    let mut d = Dojo::for_target(p.clone(), &Target::x86()).unwrap();
    let cfg = PerfLlmConfig { episodes: 3, max_steps: 8, action_sample: 10, ..Default::default() };
    let r = perfllm_optimize(&mut d, &cfg, 17);
    assert!(r.best_runtime <= d.initial_runtime());
    // discovered schedule preserves semantics
    let mut d2 = Dojo::for_target(p.clone(), &Target::x86()).unwrap();
    d2.load_sequence(&r.best_steps).unwrap();
    let rep = verify_equivalent(&p, d2.current(), 2, 23);
    assert!(rep.is_equivalent(), "{rep:?}");
}

#[test]
fn tuned_library_serves_round_trip_through_the_daemon() {
    // anneal_parallel → Library::lookup → Server: tune three tune-suite
    // kernels with the multi-chain strategy, then serve them through the
    // batched admission path and check every reply comes back exact with
    // a replayable, cost-improving schedule.
    use perfdojo::library::{HitTier, ServeConfig, ServeQuery, Server};
    let target = Target::x86();
    let picks = ["softmax", "matmul", "rmsnorm"];
    let kernels: Vec<_> = perfdojo::kernels::tune_suite()
        .into_iter()
        .filter(|k| picks.contains(&k.label.as_str()))
        .collect();
    assert_eq!(kernels.len(), picks.len());

    let mut lib = Library::new();
    let strategy = LibraryStrategy::parse("anneal:40:2").unwrap();
    LibraryBuilder::new(strategy, 0xD0).build_into(
        &mut lib,
        &kernels,
        std::slice::from_ref(&target),
    );
    assert_eq!(lib.len(), picks.len(), "a tune produced no record");

    let server = Server::new(lib, target.clone(), ServeConfig::default());
    // submit in kernel order so replies (FIFO) zip back onto `kernels`
    let dims_of = |label: &str| -> Vec<usize> {
        match label {
            "matmul" => vec![48, 48, 48],
            _ => vec![64, 64],
        }
    };
    for k in &kernels {
        server.submit(ServeQuery::of(&k.label, &dims_of(&k.label)).unwrap()).unwrap();
    }
    let replies = server.serve_batch();
    assert_eq!(replies.len(), kernels.len(), "admission dropped a query");
    for (reply, k) in replies.iter().zip(&kernels) {
        assert_eq!(reply.tier, HitTier::Exact, "{}: wrong tier", reply.label);
        assert!(reply.cost < reply.naive_cost, "{}: no improvement served", reply.label);
        // the reply's schedule length matches a fresh sequential dispatch,
        // and that dispatch replays on a clean dojo at the served cost
        let r = server.snapshot(0).library.lookup(&k.program, &target);
        assert_eq!(reply.steps, r.steps.len());
        let mut d = Dojo::for_target(k.program.clone(), &target).unwrap();
        let replayed = d.load_sequence(&r.steps).unwrap();
        assert_eq!(replayed.to_bits(), reply.cost.to_bits(), "{}", reply.label);
    }

    // an unseen shape of a tuned kernel routes through nearest-shape replay
    let near = server.lookup_now(&ServeQuery::of("softmax", &[96, 64]).unwrap());
    assert_eq!(near.tier, HitTier::Nearest);
    assert!(near.cost < near.naive_cost, "nearest replay served no improvement");
}

#[test]
fn annealed_records_replay_strictly_and_hit_exactly() {
    // A record's steps must be the sequence SA actually applied, not the
    // edited candidate that lenient replay partly skipped: otherwise strict
    // replay fails and the record never serves its own shape exactly.
    use perfdojo::library::Disposition;
    let target = Target::x86();
    for spec in ["anneal:40", "anneal:30:2"] {
        let mut lib = Library::new();
        let kernels = perfdojo::kernels::tune_suite();
        LibraryBuilder::new(LibraryStrategy::parse(spec).unwrap(), 7).build_into(
            &mut lib,
            &kernels,
            std::slice::from_ref(&target),
        );
        assert!(lib.len() >= kernels.len() / 2, "{spec}: too few records to check");
        for k in &kernels {
            let Some(rec) = lib.records().find(|r| r.label == k.label) else { continue };
            assert!(
                perfdojo::transform::replay(&k.program, &rec.steps).is_ok(),
                "{spec} {}: recorded steps do not replay strictly",
                k.label
            );
            let served = lib.lookup(&k.program, &target);
            assert_eq!(served.disposition, Disposition::ExactHit, "{spec} {}", k.label);
        }
    }
}

#[test]
fn c_code_emits_for_all_optimized_kernels() {
    let t = Target::x86();
    for k in perfdojo::kernels::small_suite() {
        let mut d = Dojo::for_target(k.program, &t).unwrap();
        perfdojo::search::heuristic_pass(&mut d);
        let c = perfdojo::codegen::to_c(d.current());
        assert!(c.contains("void "), "{}", k.label);
    }
}

#[test]
fn dojo_verification_mode_passes_on_expert_schedules() {
    for k in perfdojo::kernels::small_suite().into_iter().take(6) {
        let mut d = Dojo::for_target(k.program, &Target::x86())
            .unwrap()
            .with_verification(1);
        perfdojo::search::heuristic_pass(&mut d);
        assert!(d.history.len() < 300, "{} pass ran away", k.label);
    }
}
