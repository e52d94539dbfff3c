//! Crash-safe checkpoint serialization for the classical searches.
//!
//! A checkpoint is a versioned, line-oriented text snapshot of a search
//! state ([`crate::AnnealState`], or the completed chains of a multi-chain
//! run) from which the search continues **bit-identically**: RNG state is
//! stored as raw xoshiro words, costs and runtimes as exact `f64` bit
//! patterns, and action sequences in the `transform::serial` text form.
//! What is *not* stored — the dojo's cost cache — affects only the
//! `cache_hit` telemetry field, never a value or decision (cache hits
//! return exactly what the machine model computes).
//!
//! Texts are parsed through the shared [`Lines`] cursor, and files are
//! written via `perfdojo_util::trace::atomic_write`, so a crash mid-save
//! leaves the previous intact checkpoint.

use crate::{AnnealState, SearchResult, TracePoint};
use perfdojo_transform::serial::{parse_steps, push_steps};
use perfdojo_util::trace::{f64_from_hex, f64_to_hex, push_rng, Lines};

/// Format header of every search checkpoint.
const HEADER: &str = "perfdojo-checkpoint v1";

fn push_trace(out: &mut String, trace: &[TracePoint]) {
    out.push_str(&format!("trace {}\n", trace.len()));
    for (e, c) in trace {
        out.push_str(&format!("pt {e} {}\n", f64_to_hex(*c)));
    }
}

fn parse_trace(l: &mut Lines<'_>) -> Result<Vec<TracePoint>, String> {
    l.list("trace", |l| {
        let rest = l.keyed("pt")?;
        let (e, c) = rest.split_once(' ').ok_or_else(|| l.err("pt needs evals + bits"))?;
        Ok((
            e.parse().map_err(|_| l.err("bad pt evals"))?,
            f64_from_hex(c).ok_or_else(|| l.err("bad pt bits"))?,
        ))
    })
}

/// Serialize an annealing state.
pub fn serialize_anneal(state: &AnnealState) -> String {
    let mut out = format!("{HEADER} anneal\n");
    push_rng(&mut out, &state.rng);
    out.push_str(&format!("spent {}\n", state.spent));
    out.push_str(&format!("events {}\n", state.events));
    out.push_str(&format!("current-cost {}\n", f64_to_hex(state.current_cost)));
    out.push_str(&format!("best-runtime {}\n", f64_to_hex(state.best_runtime)));
    out.push_str(&format!("t0 {}\n", f64_to_hex(state.t0)));
    out.push_str(&format!("tend {}\n", f64_to_hex(state.t_end)));
    push_steps(&mut out, "current", &state.current);
    push_steps(&mut out, "best", &state.best_steps);
    push_trace(&mut out, &state.trace);
    out.push_str("end\n");
    out
}

/// Restore an annealing state from [`serialize_anneal`] text.
pub fn parse_anneal(text: &str) -> Result<AnnealState, String> {
    let mut l = Lines::new(text);
    l.exact(&format!("{HEADER} anneal"))?;
    let rng = l.rng()?;
    let spent = l.count("spent")?;
    let events = l.count("events")?;
    let current_cost = l.hexf("current-cost")?;
    let best_runtime = l.hexf("best-runtime")?;
    let t0 = l.hexf("t0")?;
    let t_end = l.hexf("tend")?;
    let current = parse_steps(&mut l, "current")?;
    let best_steps = parse_steps(&mut l, "best")?;
    let trace = parse_trace(&mut l)?;
    l.exact("end")?;
    Ok(AnnealState {
        rng,
        current,
        current_cost,
        best_steps,
        best_runtime,
        spent,
        t0,
        t_end,
        trace,
        events,
    })
}

/// Serialize the completed chains of a multi-chain search (chain-granular
/// checkpointing: whole chains are the unit of resume).
pub fn serialize_chains(done: &[SearchResult]) -> String {
    let mut out = format!("{HEADER} chains\n");
    out.push_str(&format!("done {}\n", done.len()));
    for r in done {
        out.push_str(&format!("result {}\n", f64_to_hex(r.best_runtime)));
        push_steps(&mut out, "best", &r.best_steps);
        push_trace(&mut out, &r.trace);
    }
    out.push_str("end\n");
    out
}

/// Restore completed multi-chain results from [`serialize_chains`] text.
pub fn parse_chains(text: &str) -> Result<Vec<SearchResult>, String> {
    let mut l = Lines::new(text);
    l.exact(&format!("{HEADER} chains"))?;
    let done = l.list("done", |l| {
        let best_runtime = l.hexf("result")?;
        let best_steps = parse_steps(l, "best")?;
        let trace = parse_trace(l)?;
        Ok(SearchResult { best_steps, best_runtime, trace })
    })?;
    l.exact("end")?;
    Ok(done)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{anneal_resume, AnnealProgress, EdgesSpace};
    use perfdojo_core::{Dojo, Target};

    fn dojo() -> Dojo {
        let p = perfdojo_kernels::softmax(8, 16);
        Dojo::for_target(p, &Target::x86()).unwrap()
    }

    #[test]
    fn anneal_state_round_trips_exactly() {
        let mut d = dojo();
        let mut st = AnnealState::start_with_warm(&mut d, &EdgesSpace, 7, &[]);
        anneal_resume(&mut d, &EdgesSpace, 60, &mut st, None, Some(20));
        let text = serialize_anneal(&st);
        let back = parse_anneal(&text).unwrap();
        assert_eq!(back.rng.state(), st.rng.state());
        assert_eq!(back.current, st.current);
        assert_eq!(back.current_cost.to_bits(), st.current_cost.to_bits());
        assert_eq!(back.best_steps, st.best_steps);
        assert_eq!(back.best_runtime.to_bits(), st.best_runtime.to_bits());
        assert_eq!((back.spent, back.events), (st.spent, st.events));
        assert_eq!(back.t0.to_bits(), st.t0.to_bits());
        assert_eq!(back.t_end.to_bits(), st.t_end.to_bits());
        assert_eq!(back.trace, st.trace);
        // and re-serialization is byte-identical
        assert_eq!(serialize_anneal(&back), text);
    }

    #[test]
    fn chains_round_trip_exactly() {
        let mut d = dojo();
        let r1 = crate::simulated_annealing(&mut d, &EdgesSpace, 30, 1);
        let mut d = dojo();
        let r2 = crate::simulated_annealing(&mut d, &EdgesSpace, 30, 2);
        let text = serialize_chains(&[r1.clone(), r2.clone()]);
        let back = parse_chains(&text).unwrap();
        assert_eq!(back.len(), 2);
        for (a, b) in back.iter().zip(&[r1, r2]) {
            assert_eq!(a.best_runtime.to_bits(), b.best_runtime.to_bits());
            assert_eq!(a.best_steps, b.best_steps);
            assert_eq!(a.trace, b.trace);
        }
        assert_eq!(serialize_chains(&back), text);
    }

    #[test]
    fn corrupt_checkpoints_error_instead_of_panicking() {
        assert!(parse_anneal("").is_err());
        assert!(parse_anneal("perfdojo-checkpoint v1 sampling\n").is_err());
        let mut d = dojo();
        let st = AnnealState::start_with_warm(&mut d, &EdgesSpace, 7, &[]);
        let good = serialize_anneal(&st);
        // truncation
        assert!(parse_anneal(&good[..good.len() / 2]).is_err());
        // bit-pattern corruption
        let bad = good.replacen("current-cost ", "current-cost zz", 1);
        assert!(parse_anneal(&bad).is_err());
    }

    #[test]
    fn restored_anneal_continues_bit_identically() {
        let (budget, seed) = (80u64, 17u64);
        // uninterrupted
        let mut d1 = dojo();
        let full = crate::simulated_annealing(&mut d1, &EdgesSpace, budget, seed);
        // pause, serialize, restore into a *fresh* dojo, continue
        let mut d2 = dojo();
        let mut st = AnnealState::start_with_warm(&mut d2, &EdgesSpace, seed, &[]);
        anneal_resume(&mut d2, &EdgesSpace, budget, &mut st, None, Some(9));
        let text = serialize_anneal(&st);
        let mut restored = parse_anneal(&text).unwrap();
        let mut d3 = dojo();
        restored.reattach(&mut d3);
        let p = anneal_resume(&mut d3, &EdgesSpace, budget, &mut restored, None, None);
        assert_eq!(p, AnnealProgress::Finished);
        let r = restored.into_result();
        assert_eq!(full.best_runtime.to_bits(), r.best_runtime.to_bits());
        assert_eq!(full.best_steps, r.best_steps);
        assert_eq!(full.trace, r.trace);
    }
}
