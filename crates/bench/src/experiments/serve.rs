//! Serving-tier load experiment: Zipf-skewed query traffic against a
//! `perfdojo_library::Server`, with between-round tune-miss drains and hot
//! swaps.
//!
//! The load is generated in *rounds*: every round submits a fixed-seed
//! Zipf-sampled request stream, serves it to completion in admission-order
//! batches, then drains the tune-miss queue and hot-swaps the merged
//! library. Swaps only ever happen between rounds, so the hit-tier mix,
//! the per-round tier trajectory, and the latency distribution are pure
//! functions of the seed: `BENCH_serve.json` is byte-identical across
//! runs (ci.sh gate 8 `cmp`s two of them). Wall-clock throughput is real
//! and noisy, so queries/sec lives only in the printed table note, never
//! in the JSON.
//!
//! Latency is the deterministic dispatch-work proxy
//! [`perfdojo_library::latency_units`], not wall time — see that function
//! for the tier weighting.

use crate::report::Table;
use perfdojo_core::Target;
use perfdojo_library::{
    percentile, HitTier, Library, LibraryBuilder, ServeConfig, ServeQuery, Server, Strategy,
    TuneProgress,
};
use perfdojo_util::rng::Rng;
use perfdojo_util::zipf::Zipf;
use std::collections::BTreeMap;
use std::time::Instant;

const SEED: u64 = 0x5E12FE;
const ROUNDS: usize = 4;
const REQUESTS_PER_ROUND: usize = 64;
/// The Zipf skew exponent of the query stream; `BENCH_serve.json` pins
/// the traffic it draws. `perfdojo-lib serve --zipf-s` varies the skew.
const ZIPF_EXPONENT: f64 = 1.1;

/// The ranked query universe (rank 0 hottest). Mixes tuned shapes (exact
/// hits), unseen shapes of tuned operators (nearest-shape replays), and
/// never-tuned operators (misses that become tune jobs and convert to
/// exact hits after a swap). Shapes are deliberately small: every cached
/// reply is numerically re-verified by dispatch, so shape area is the
/// experiment's unit cost while the tier mix is shape-independent.
fn universe() -> Vec<(&'static str, Vec<usize>)> {
    vec![
        ("softmax", vec![32, 32]),     // tuned -> exact
        ("matmul", vec![16, 16, 16]),  // tuned -> exact
        ("softmax", vec![48, 32]),     // unseen shape -> nearest
        ("layernorm 1", vec![32, 32]), // tuned -> exact
        ("matmul", vec![24, 12, 16]),  // unseen shape -> nearest
        ("rmsnorm", vec![32, 32]),     // never tuned -> miss, then tuned
        ("reducemean", vec![32, 32]),  // never tuned -> miss, then tuned
        ("relu", vec![32, 64]),        // cold tail -> miss, then tuned
    ]
}

/// The kernels pre-tuned into the library the server starts from: the
/// exact-hit universe ranks, at their exact shapes.
fn pretuned() -> Vec<(&'static str, Vec<usize>)> {
    vec![
        ("softmax", vec![32, 32]),
        ("matmul", vec![16, 16, 16]),
        ("layernorm 1", vec![32, 32]),
    ]
}

struct RoundStats {
    served: usize,
    exact: usize,
    parameterized: usize,
    nearest: usize,
    heuristic: usize,
    naive: usize,
    swap: Option<(u64, usize)>, // (generation, jobs tuned)
}

struct ServeRun {
    rounds: Vec<RoundStats>,
    latencies: Vec<u64>, // sorted latency_units over all replies
    submitted: u64,
    rejected: u64,
    tune_jobs: u64,
    tuned: u64,
    swaps: u64,
    converted: usize, // distinct keys that missed then later hit exact
    final_entries: usize,
    wall_serving: f64, // stdout-only; never in the JSON
}

fn run_load() -> Result<ServeRun, String> {
    let target = Target::x86();
    let kernels: Vec<perfdojo_kernels::KernelInstance> = pretuned()
        .iter()
        .map(|(label, dims)| {
            let program = perfdojo_kernels::by_label_with_shape(label, dims)
                .ok_or_else(|| format!("no kernel {label:?} at shape {dims:?}"))?;
            Ok(perfdojo_kernels::KernelInstance::at(label, dims, program))
        })
        .collect::<Result<_, String>>()?;
    let mut lib = Library::new();
    LibraryBuilder::new(Strategy::Heuristic, 3).build_into(
        &mut lib,
        &kernels,
        std::slice::from_ref(&target),
    );

    let config = ServeConfig { seed: SEED, ..ServeConfig::default() };
    let server = Server::new(lib, target.clone(), config);

    let ranks = universe();
    let queries: Vec<ServeQuery> = ranks
        .iter()
        .map(|(label, dims)| {
            ServeQuery::of(label, dims)
                .ok_or_else(|| format!("no kernel {label:?} at shape {dims:?}"))
        })
        .collect::<Result<_, _>>()?;
    let zipf = Zipf::new(queries.len(), ZIPF_EXPONENT);
    let mut rng = Rng::seed_from_u64(SEED);

    // key -> (missed in some earlier reply, converted to exact later)
    let mut conversions: BTreeMap<String, (bool, bool)> = BTreeMap::new();
    let mut latencies = Vec::new();
    let mut rounds = Vec::new();
    let mut wall_serving = 0.0;

    for _ in 0..ROUNDS {
        let mut stats = RoundStats {
            served: 0,
            exact: 0,
            parameterized: 0,
            nearest: 0,
            heuristic: 0,
            naive: 0,
            swap: None,
        };
        let t0 = Instant::now();
        for _ in 0..REQUESTS_PER_ROUND {
            let q = queries[zipf.sample(&mut rng)].clone();
            if server.submit(q).is_err() {
                // bounded queue: serve a batch to free space, then the
                // request is shed for real (it is not retried)
                server.serve_batch().into_iter().for_each(drop);
            }
        }
        loop {
            let replies = server.serve_batch();
            if replies.is_empty() {
                break;
            }
            for r in replies {
                stats.served += 1;
                match r.tier {
                    HitTier::Exact => stats.exact += 1,
                    HitTier::Parameterized => stats.parameterized += 1,
                    HitTier::Nearest => stats.nearest += 1,
                    HitTier::Heuristic => stats.heuristic += 1,
                    HitTier::Naive => stats.naive += 1,
                }
                latencies.push(r.latency_units);
                let entry = conversions.entry(r.key).or_insert((false, false));
                if r.tier.is_miss() {
                    entry.0 = true;
                } else if entry.0 && r.tier == HitTier::Exact {
                    entry.1 = true;
                }
            }
        }
        wall_serving += t0.elapsed().as_secs_f64();
        match server.drain_tunes()? {
            TuneProgress::Swapped { generation, tuned, .. } => {
                stats.swap = Some((generation, tuned));
            }
            TuneProgress::Idle => {}
            TuneProgress::Paused => unreachable!("non-checkpointed drain cannot pause"),
        }
        rounds.push(stats);
    }

    latencies.sort_unstable();
    let s = server.stats();
    Ok(ServeRun {
        rounds,
        latencies,
        submitted: s.submitted,
        rejected: s.rejected,
        tune_jobs: s.tune_jobs,
        tuned: s.tuned,
        swaps: s.swaps,
        converted: conversions.values().filter(|(_, c)| *c).count(),
        final_entries: server.snapshot(0).library.len(),
        wall_serving,
    })
}

fn emit_json(run: &ServeRun) -> String {
    let mut j = String::from("{\n  \"experiment\": \"serve\",\n");
    j.push_str(&format!("  \"seed\": {SEED},\n"));
    j.push_str(&format!("  \"rounds\": {ROUNDS},\n"));
    j.push_str(&format!("  \"requests_per_round\": {REQUESTS_PER_ROUND},\n"));
    j.push_str(&format!("  \"zipf_exponent\": {ZIPF_EXPONENT},\n"));
    j.push_str(&format!("  \"universe\": {},\n", universe().len()));
    j.push_str(&format!("  \"submitted\": {},\n", run.submitted));
    j.push_str(&format!("  \"rejected\": {},\n", run.rejected));
    j.push_str(&format!("  \"served\": {},\n", run.latencies.len()));
    let (e, p, n, h, v) = run.rounds.iter().fold((0, 0, 0, 0, 0), |acc, r| {
        (
            acc.0 + r.exact,
            acc.1 + r.parameterized,
            acc.2 + r.nearest,
            acc.3 + r.heuristic,
            acc.4 + r.naive,
        )
    });
    j.push_str(&format!(
        "  \"tiers\": {{ \"exact\": {e}, \"parameterized\": {p}, \"nearest\": {n}, \
         \"heuristic\": {h}, \"naive\": {v} }},\n"
    ));
    j.push_str(&format!(
        "  \"latency_units\": {{ \"p50\": {}, \"p99\": {}, \"max\": {} }},\n",
        percentile(&run.latencies, 0.50),
        percentile(&run.latencies, 0.99),
        run.latencies.last().copied().unwrap_or(0),
    ));
    j.push_str(&format!("  \"tune_jobs\": {},\n", run.tune_jobs));
    j.push_str(&format!("  \"tuned\": {},\n", run.tuned));
    j.push_str(&format!("  \"swaps\": {},\n", run.swaps));
    j.push_str(&format!("  \"miss_then_tuned\": {},\n", run.converted));
    j.push_str(&format!("  \"final_entries\": {},\n", run.final_entries));
    j.push_str("  \"per_round\": [\n");
    for (i, r) in run.rounds.iter().enumerate() {
        j.push_str(&format!(
            "    {{ \"round\": {i}, \"served\": {}, \"exact\": {}, \"parameterized\": {}, \
             \"nearest\": {}, \
             \"heuristic\": {}, \"naive\": {}, \"swap_generation\": {}, \"swap_tuned\": {} }}{}\n",
            r.served,
            r.exact,
            r.parameterized,
            r.nearest,
            r.heuristic,
            r.naive,
            r.swap.map_or(-1, |(g, _)| g as i64),
            r.swap.map_or(0, |(_, t)| t),
            if i + 1 < run.rounds.len() { "," } else { "" },
        ));
    }
    j.push_str("  ]\n}\n");
    j
}

fn try_run_serve(json_path: Option<&std::path::Path>) -> Result<String, String> {
    let run = run_load()?;
    let mut t = Table::new(
        "Serving tier: Zipf load, between-round tune drains and hot swaps (x86)",
        &["round", "served", "exact", "param", "nearest", "heuristic", "naive", "swap"],
    );
    for (i, r) in run.rounds.iter().enumerate() {
        t.row(vec![
            i.to_string(),
            r.served.to_string(),
            r.exact.to_string(),
            r.parameterized.to_string(),
            r.nearest.to_string(),
            r.heuristic.to_string(),
            r.naive.to_string(),
            match r.swap {
                Some((generation, tuned)) => format!("gen {generation} (+{tuned} tuned)"),
                None => "-".into(),
            },
        ]);
    }
    t.note(format!(
        "latency (deterministic dispatch-work units): p50 {}, p99 {}, max {}",
        percentile(&run.latencies, 0.50),
        percentile(&run.latencies, 0.99),
        run.latencies.last().copied().unwrap_or(0),
    ));
    t.note(format!(
        "tune-miss pipeline: {} jobs queued, {} tuned, {} hot swaps, \
         {} distinct keys converted miss->exact; final library {} entries",
        run.tune_jobs, run.tuned, run.swaps, run.converted, run.final_entries,
    ));
    t.note(format!(
        "throughput: {} served in {:.3}s wall ({:.0} queries/sec; wall-clock, not in the JSON)",
        run.latencies.len(),
        run.wall_serving,
        run.latencies.len() as f64 / run.wall_serving.max(1e-12),
    ));
    let json = emit_json(&run);
    if let Some(path) = json_path {
        std::fs::write(path, &json)
            .map_err(|e| format!("could not write {}: {e}", path.display()))?;
        t.note(format!("wrote {}", path.display()));
    }
    Ok(t.render())
}

/// Serving-tier load experiment: emits the byte-reproducible
/// `BENCH_serve.json` in the working directory alongside the printed table.
pub fn exp_serve() -> String {
    match try_run_serve(Some(std::path::Path::new("BENCH_serve.json"))) {
        Ok(report) => report,
        Err(e) => format!("error: {e}\n"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_load_converts_misses_and_stays_deterministic() {
        let a = run_load().expect("serve load");
        // the skewed head is cached: exact hits dominate
        let exact: usize = a.rounds.iter().map(|r| r.exact).sum();
        assert!(exact * 2 > a.latencies.len(), "exact {} of {}", exact, a.latencies.len());
        // misses were tuned and converted across swaps
        assert!(a.swaps >= 1, "no hot swap happened");
        assert!(a.tuned >= 1, "no tune job completed");
        assert!(a.converted >= 1, "no miss ever converted to an exact hit");
        // last round serves everything from cache: no naive tier left
        let last = a.rounds.last().unwrap();
        assert_eq!(last.naive, 0, "naive replies in the final round");
        // the JSON is a pure function of the seed
        let b = run_load().expect("serve load repeat");
        assert_eq!(emit_json(&a), emit_json(&b), "serve JSON not reproducible");
    }
}
