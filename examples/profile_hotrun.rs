//! Scratch: end-to-end composition of one incremental headline run.
use perfdojo_core::{Dojo, Target};
use perfdojo_search::{simulated_annealing, EdgesSpace};
use std::time::Instant;

fn main() {
    let k = perfdojo_kernels::tune_suite().into_iter().find(|k| k.label == "softmax").unwrap();
    let mut d = Dojo::for_target(k.program.clone(), &Target::x86()).unwrap();
    let a0 = perfdojo_transform::apply_count();
    let t = Instant::now();
    let r = simulated_annealing(&mut d, &EdgesSpace, 2000, 0x5EA7C4);
    let wall = t.elapsed();
    let s = d.cache_stats();
    println!(
        "wall {:?}  applies {}  cost hits {} misses {}  evals {}  best {:.3e}",
        wall,
        perfdojo_transform::apply_count() - a0,
        s.hits,
        s.misses,
        d.evaluations(),
        r.best_runtime
    );
}
