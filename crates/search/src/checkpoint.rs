//! Crash-safe checkpoint serialization for the classical searches.
//!
//! A checkpoint is a versioned, line-oriented text snapshot of a search
//! state ([`crate::AnnealState`], [`crate::SamplingState`], or the
//! completed chains of a parallel run) from which the search continues
//! **bit-identically**: RNG state is stored as raw xoshiro words, costs
//! and runtimes as exact `f64` bit patterns, and action sequences in the
//! `transform::serial` text form. What is *not* stored — the dojo's cost
//! cache — affects only the `cache_hit` telemetry field, never a value or
//! decision (cache hits return exactly what the machine model computes).
//!
//! Files are written via `perfdojo_util::trace::atomic_write`, so a crash
//! mid-save leaves the previous intact checkpoint.

use crate::sampling::Candidate;
use crate::{AnnealState, SamplingState, SearchResult, TracePoint};
use perfdojo_transform::Action;
use perfdojo_util::rng::Rng;
use perfdojo_util::trace::{f64_from_hex, f64_to_hex};

/// Format header of every search checkpoint.
const HEADER: &str = "perfdojo-checkpoint v1";

fn push_rng(out: &mut String, rng: &Rng) {
    let (s, spare) = rng.state();
    out.push_str(&format!(
        "rng {:016x} {:016x} {:016x} {:016x} {}\n",
        s[0],
        s[1],
        s[2],
        s[3],
        spare.map_or_else(|| "-".to_string(), f64_to_hex)
    ));
}

fn push_steps(out: &mut String, key: &str, steps: &[Action]) {
    out.push_str(&format!("{key} {}\n", steps.len()));
    for s in steps {
        out.push_str(&format!("step {s}\n"));
    }
}

fn push_trace(out: &mut String, trace: &[TracePoint]) {
    out.push_str(&format!("trace {}\n", trace.len()));
    for (e, c) in trace {
        out.push_str(&format!("pt {e} {}\n", f64_to_hex(*c)));
    }
}

/// Line-cursor over checkpoint text with error context.
struct Lines<'a> {
    it: std::str::Lines<'a>,
    n: usize,
}

impl<'a> Lines<'a> {
    fn new(text: &'a str) -> Lines<'a> {
        Lines { it: text.lines(), n: 0 }
    }

    fn next(&mut self) -> Result<&'a str, String> {
        self.n += 1;
        self.it.next().ok_or_else(|| format!("line {}: unexpected end of checkpoint", self.n))
    }

    fn err(&self, msg: &str) -> String {
        format!("line {}: {msg}", self.n)
    }

    /// Consume `key <u64>`.
    fn count(&mut self, key: &str) -> Result<u64, String> {
        let line = self.next()?;
        let rest = line
            .strip_prefix(key)
            .and_then(|r| r.strip_prefix(' '))
            .ok_or_else(|| self.err(&format!("expected `{key} <n>`, got {line:?}")))?;
        rest.trim().parse().map_err(|_| self.err(&format!("bad count in {line:?}")))
    }

    /// Consume `key <f64-hex>`.
    fn hexf(&mut self, key: &str) -> Result<f64, String> {
        let line = self.next()?;
        let rest = line
            .strip_prefix(key)
            .and_then(|r| r.strip_prefix(' '))
            .ok_or_else(|| self.err(&format!("expected `{key} <bits>`, got {line:?}")))?;
        f64_from_hex(rest.trim()).ok_or_else(|| self.err(&format!("bad f64 bits in {line:?}")))
    }

    fn rng(&mut self) -> Result<Rng, String> {
        let line = self.next()?;
        let rest =
            line.strip_prefix("rng ").ok_or_else(|| self.err(&format!("expected rng, got {line:?}")))?;
        let parts: Vec<&str> = rest.split_whitespace().collect();
        if parts.len() != 5 {
            return Err(self.err("rng needs 4 state words + spare"));
        }
        let mut s = [0u64; 4];
        for (i, p) in parts[..4].iter().enumerate() {
            s[i] = u64::from_str_radix(p, 16).map_err(|_| self.err("bad rng word"))?;
        }
        let spare = match parts[4] {
            "-" => None,
            h => Some(f64_from_hex(h).ok_or_else(|| self.err("bad rng spare"))?),
        };
        Ok(Rng::from_state(s, spare))
    }

    fn steps(&mut self, key: &str) -> Result<Vec<Action>, String> {
        let n = self.count(key)?;
        let mut steps = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let line = self.next()?;
            let rest = line
                .strip_prefix("step ")
                .ok_or_else(|| self.err(&format!("expected step, got {line:?}")))?;
            steps.push(
                perfdojo_transform::serial::parse_action(rest)
                    .ok_or_else(|| self.err(&format!("unparseable action {rest:?}")))?,
            );
        }
        Ok(steps)
    }

    fn trace(&mut self) -> Result<Vec<TracePoint>, String> {
        let n = self.count("trace")?;
        let mut trace = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let line = self.next()?;
            let rest = line
                .strip_prefix("pt ")
                .ok_or_else(|| self.err(&format!("expected pt, got {line:?}")))?;
            let (e, c) = rest
                .split_once(' ')
                .ok_or_else(|| self.err("pt needs evals + bits"))?;
            trace.push((
                e.parse().map_err(|_| self.err("bad pt evals"))?,
                f64_from_hex(c).ok_or_else(|| self.err("bad pt bits"))?,
            ));
        }
        Ok(trace)
    }

    fn header(&mut self, kind: &str) -> Result<(), String> {
        let line = self.next()?;
        if line != format!("{HEADER} {kind}") {
            return Err(self.err(&format!("not a `{kind}` checkpoint: {line:?}")));
        }
        Ok(())
    }

    fn end(&mut self) -> Result<(), String> {
        let line = self.next()?;
        if line != "end" {
            return Err(self.err(&format!("expected end, got {line:?}")));
        }
        Ok(())
    }
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
    l.header("anneal")?;
    let rng = l.rng()?;
    let spent = l.count("spent")?;
    let events = l.count("events")?;
    let current_cost = l.hexf("current-cost")?;
    let best_runtime = l.hexf("best-runtime")?;
    let t0 = l.hexf("t0")?;
    let t_end = l.hexf("tend")?;
    let current = l.steps("current")?;
    let best_steps = l.steps("best")?;
    let trace = l.trace()?;
    l.end()?;
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

/// Serialize a sampling state.
pub fn serialize_sampling(state: &SamplingState) -> String {
    let mut out = format!("{HEADER} sampling\n");
    push_rng(&mut out, &state.rng);
    out.push_str(&format!("spent {}\n", state.spent));
    out.push_str(&format!("events {}\n", state.events));
    out.push_str(&format!("best-runtime {}\n", f64_to_hex(state.best_runtime)));
    push_steps(&mut out, "best", &state.best_steps);
    push_trace(&mut out, &state.trace);
    out.push_str(&format!("pool {}\n", state.pool.len()));
    for c in &state.pool {
        out.push_str(&format!("cand {} {}\n", f64_to_hex(c.runtime), f64_to_hex(c.cost)));
        push_steps(&mut out, "csteps", &c.steps);
    }
    out.push_str("end\n");
    out
}

/// Restore a sampling state from [`serialize_sampling`] text.
pub fn parse_sampling(text: &str) -> Result<SamplingState, String> {
    let mut l = Lines::new(text);
    l.header("sampling")?;
    let rng = l.rng()?;
    let spent = l.count("spent")?;
    let events = l.count("events")?;
    let best_runtime = l.hexf("best-runtime")?;
    let best_steps = l.steps("best")?;
    let trace = l.trace()?;
    let n = l.count("pool")?;
    let mut pool = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let line = l.next()?;
        let rest =
            line.strip_prefix("cand ").ok_or_else(|| l.err(&format!("expected cand, got {line:?}")))?;
        let (r, c) = rest.split_once(' ').ok_or_else(|| l.err("cand needs two bit patterns"))?;
        let runtime = f64_from_hex(r).ok_or_else(|| l.err("bad cand runtime"))?;
        let cost = f64_from_hex(c).ok_or_else(|| l.err("bad cand cost"))?;
        let steps = l.steps("csteps")?;
        pool.push(Candidate { steps, runtime, cost });
    }
    l.end()?;
    Ok(SamplingState { rng, pool, best_steps, best_runtime, spent, trace, events })
}

/// Serialize the completed chains of a parallel search (chain-granular
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

/// Restore completed parallel-search chains from [`serialize_chains`] text.
pub fn parse_chains(text: &str) -> Result<Vec<SearchResult>, String> {
    let mut l = Lines::new(text);
    l.header("chains")?;
    let n = l.count("done")?;
    let mut done = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let best_runtime = l.hexf("result")?;
        let best_steps = l.steps("best")?;
        let trace = l.trace()?;
        done.push(SearchResult { best_steps, best_runtime, trace });
    }
    l.end()?;
    Ok(done)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{anneal_resume, sampling_resume, AnnealProgress, EdgesSpace};
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
    fn sampling_state_round_trips_exactly() {
        let mut d = dojo();
        let mut st = SamplingState::start(&d, 3);
        sampling_resume(&mut d, 40, &mut st, None, Some(15));
        let text = serialize_sampling(&st);
        let back = parse_sampling(&text).unwrap();
        assert_eq!(back.rng.state(), st.rng.state());
        assert_eq!(back.pool.len(), st.pool.len());
        for (a, b) in back.pool.iter().zip(&st.pool) {
            assert_eq!(a.steps, b.steps);
            assert_eq!(a.runtime.to_bits(), b.runtime.to_bits());
            assert_eq!(a.cost.to_bits(), b.cost.to_bits());
        }
        assert_eq!(serialize_sampling(&back), text);
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
