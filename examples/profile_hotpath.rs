//! Quick hot-path cost breakdown for the incremental search engine
//! (dev-only scratch profiler; not part of any experiment).

use perfdojo_core::{Dojo, Target};
use perfdojo_search::{simulated_annealing, EdgesSpace};
use perfdojo_transform::available_actions;
use std::time::Instant;

fn main() {
    let k = perfdojo_kernels::tune_suite()
        .into_iter()
        .find(|k| k.label == "softmax")
        .unwrap();
    let target = Target::x86();
    let mut d = Dojo::for_target(k.program.clone(), &target).unwrap();

    // run a real SA prefix so the measured program is representative of
    // the states the search actually visits deep into a run
    let t = Instant::now();
    let r = simulated_annealing(&mut d, &EdgesSpace, 1000, 0x5EA7C4);
    println!(
        "SA 1000 evals: {:?} total; final seq len {}, best seq len {}",
        t.elapsed(),
        d.history.len(),
        r.best_steps.len()
    );
    let p = d.current().clone();
    let n = 2000;

    let t = Instant::now();
    let mut acc = 0usize;
    for _ in 0..n {
        acc += perfdojo_ir::exact_text(&p).len();
    }
    println!("exact_text render: {:?}/call (len {})", t.elapsed() / n, acc / n as usize);

    let t = Instant::now();
    for _ in 0..n {
        acc += available_actions(&p, d.library()).len();
    }
    println!("available_actions: {:?}/call", t.elapsed() / n);

    let t = Instant::now();
    for _ in 0..n {
        acc += d.machine().evaluate(&p).unwrap().cycles as usize & 1;
    }
    println!("machine.evaluate (lower+cost): {:?}/call", t.elapsed() / n);

    let t = Instant::now();
    for _ in 0..n {
        acc += perfdojo_codegen::lower(&p).unwrap().body.len();
    }
    println!("codegen::lower alone: {:?}/call", t.elapsed() / n);

    let t = Instant::now();
    for _ in 0..n {
        let q = p.clone();
        acc += q.roots.len();
    }
    println!("Program::clone: {:?}/call", t.elapsed() / n);

    let t = Instant::now();
    for _ in 0..n {
        acc += perfdojo_ir::exact_fp128(&p).len as usize & 1;
    }
    println!("exact_fp128: {:?}/call", t.elapsed() / n);

    let t = Instant::now();
    for _ in 0..n {
        acc += perfdojo_ir::Arena::build(&p).len();
    }
    println!("Arena::build: {:?}/call", t.elapsed() / n);

    let acts = available_actions(&p, d.library());
    let a = acts[0].clone();
    let t = Instant::now();
    for _ in 0..n {
        acc += a.apply(&p).unwrap().roots.len();
    }
    println!("Action::apply: {:?}/call", t.elapsed() / n);
    println!("(sink {acc})");
}
