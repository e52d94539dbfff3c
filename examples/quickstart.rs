//! Quickstart: define a kernel, inspect its representations, play a few
//! moves of the PerfDojo game, and verify semantics numerically.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use perfdojo::prelude::*;
use perfdojo_ir::builder::{ld, mul as emul, out};

fn main() {
    // 1. Build a kernel in the PerfDojo IR: z = x * y over 64x128.
    let mut b = ProgramBuilder::new("mul");
    b.input("x", &[64, 128]).input("y", &[64, 128]).output("z", &[64, 128]);
    b.scopes(&[64, 128], |b| {
        b.op(out("z", &[0, 1]), emul(ld("x", &[0, 1]), ld("y", &[0, 1])));
    });
    let program = b.build();
    validate(&program).expect("well-formed");

    println!("--- textual representation (paper Fig. 3b) ---");
    println!("{program}");
    println!("--- generated C (paper Fig. 3d) ---");
    println!("{}", perfdojo::codegen::to_c(&program));

    // 2. Open the game on an x86-like target.
    let mut dojo = Dojo::for_target(program.clone(), &Target::x86())
        .expect("schedulable")
        .with_verification(2); // numerically verify every move
    println!(
        "initial runtime: {:.2} us; applicable moves: {}",
        dojo.runtime() * 1e6,
        dojo.actions().len()
    );

    // 3. Play moves: tile the inner loop to the vector width, vectorize,
    //    parallelize the outer loop.
    for (what, pick) in [
        ("split_scope(16) on the 128-loop", Transform::SplitScope { tile: 16 }),
        ("vectorize(16)", Transform::Vectorize { width: 16 }),
        ("parallelize rows", Transform::Parallelize),
    ] {
        let action = dojo
            .actions()
            .iter()
            .find(|a| {
                a.transform == pick
                    && match (&pick, &a.loc) {
                        // tile the *inner* (128) loop, not the row loop
                        (Transform::SplitScope { .. }, perfdojo::transform::Loc::Node(p)) => {
                            p.len() == 2
                        }
                        _ => true,
                    }
            })
            .cloned()
            .unwrap_or_else(|| panic!("{what} should be applicable"));
        let step = dojo.step(action).expect("semantics-preserving");
        println!(
            "{what}: runtime {:.2} us (speedup {:.2}x, reward {:.2})",
            step.runtime * 1e6,
            step.speedup,
            step.reward
        );
    }

    // 4. The final schedule, still numerically equivalent to the original.
    println!("--- optimized schedule ---");
    println!("{}", dojo.current());
    let report = verify_equivalent(&program, dojo.current(), 3, 42);
    println!("numerical verification: {report:?}");
    assert!(report.is_equivalent());
}
