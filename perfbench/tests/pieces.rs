//! The benchmark's own pieces: percentiles, metric names, failed-op
//! accounting, the serve generators, the reference clock and the traced
//! run's coverage rule.

use perfdojo_core::Target;
use perfdojo_library::{LibraryBuilder, ServeConfig, Server, Strategy};
use perfdojo_perfbench::clock::{at_reference_speed, Clock, REFERENCE_S};
use perfdojo_perfbench::report::{valid_name, Tally};
use perfdojo_perfbench::serve::{self, WideGenerator, VERIFY_WORK_LIMIT, WIDE_FAMILIES};
use perfdojo_perfbench::stats::{percentile, MIN_BEYOND};
use perfdojo_perfbench::trace::Recorder;
use perfdojo_perfbench::{tune, PassTimes, RunConfig, Workload, MIN_COVERAGE, PASSES};
use std::time::{Duration, Instant};

fn samples(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn percentile_needs_ten_samples_beyond_it() {
    assert_eq!(MIN_BEYOND, 10);
    // p99 of 1000 samples has exactly 10 beyond rank 990
    assert_eq!(percentile(&samples(1000), 0.99), Some(990.0));
    assert_eq!(percentile(&samples(999), 0.99), None);
    // p50 needs 20 samples
    assert_eq!(percentile(&samples(20), 0.5), Some(10.0));
    assert_eq!(percentile(&samples(19), 0.5), None);
    assert_eq!(percentile(&[], 0.5), None);
    assert_eq!(percentile(&samples(100), 1.0), None);
    // order of the input does not matter
    let mut shuffled = samples(40);
    shuffled.reverse();
    assert_eq!(percentile(&shuffled, 0.5), Some(20.0));
}

#[test]
fn metric_name_rule() {
    for good in [
        "setup_s",
        "lat_p99_ms",
        "library.tier.exact",
        "ir.p50_us",
        "9a-b",
    ] {
        assert!(valid_name(good), "{good}");
    }
    for bad in ["", ".x", "_x", "a b", "a/b", "lat%", &"x".repeat(65)] {
        assert!(!valid_name(bad), "{bad}");
    }
}

/// `"name": "<value>"` entries of one top-level array of BENCHMARK.json.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

fn names(cfg: &RunConfig) -> Vec<String> {
    perfdojo_perfbench::run(cfg)
        .metrics
        .into_iter()
        .map(|m| m.name)
        .collect()
}

#[test]
fn emitted_metric_names_are_valid_and_declared() {
    let e2e = declared("end_to_end");
    let layer = declared("per_layer");
    for w in Workload::ALL {
        let cfg = RunConfig {
            workload: w,
            seed: 1,
            seconds: 1,
            trace: false,
        };
        let untraced = names(&cfg);
        let traced = names(&RunConfig { trace: true, ..cfg });
        for n in untraced.iter().chain(&traced) {
            assert!(valid_name(n), "{n}");
        }
        for n in &untraced {
            assert!(e2e.contains(n), "{} reports undeclared {n}", w.name());
        }
        assert_eq!(
            traced,
            layer,
            "{} traced metrics must be the declared per-layer list",
            w.name()
        );
    }
}

#[test]
fn a_shed_query_is_one_failed_op() {
    // a one-slot admission queue admits one query of every burst and sheds
    // the rest; every pass sends the same bursts
    let cfg = RunConfig {
        workload: Workload::ServeWide,
        seed: 5,
        seconds: 1,
        trace: false,
    };
    let one_slot = ServeConfig {
        queue_capacity: 1,
        ..ServeConfig::default()
    };
    let out = serve::run_passes(&cfg, &mut || {
        Ok(Server::new(
            perfdojo_library::Library::new(),
            Target::x86(),
            one_slot.clone(),
        ))
    });
    let bursts = (PASSES * serve::wide_bursts(1)) as u64;
    let size = serve::wide_burst_size() as u64;
    assert_eq!(out.tally.attempted, bursts * size);
    assert_eq!(out.tally.failed, bursts * (size - 1));
    assert!(
        out.tally.problems.iter().all(|p| p.contains("shed")),
        "{:?}",
        &out.tally.problems[..3]
    );
}

#[test]
fn a_corrupted_record_is_one_failed_op() {
    let target = Target::x86();
    let kernel = perfdojo_kernels::tune_suite()
        .into_iter()
        .find(|k| k.label == "softmax")
        .unwrap();
    let good = LibraryBuilder::new(Strategy::Heuristic, 1).tune_kernel(&kernel, &target);
    assert!(good.record.is_some());
    assert_eq!(tune::check_outcome(&good, &kernel, &target), None);

    let mut tally = Tally::default();
    tally.record(tune::check_outcome(&good, &kernel, &target));
    let mut corrupted = good.clone();
    corrupted.record.as_mut().unwrap().cost *= 0.5;
    tally.record(tune::check_outcome(&corrupted, &kernel, &target));
    assert_eq!((tally.attempted, tally.failed), (2, 1));

    // a dropped step no longer reproduces the recorded cost either
    let mut truncated = good.clone();
    truncated.record.as_mut().unwrap().steps.pop();
    tally.record(tune::check_outcome(&truncated, &kernel, &target));
    assert_eq!((tally.attempted, tally.failed), (3, 2));

    // a job whose tuning errored is a failed op; one without a record is not
    let mut errored = good.clone();
    errored.error = Some("no dojo".into());
    let mut empty = good;
    empty.record = None;
    tally.record(tune::check_outcome(&errored, &kernel, &target));
    tally.record(tune::check_outcome(&empty, &kernel, &target));
    assert_eq!((tally.attempted, tally.failed), (5, 3));
}

#[test]
fn serve_wide_queries_are_above_the_verify_limit() {
    let mut families = std::collections::BTreeSet::new();
    for seed in 0..4 {
        let mut gen = WideGenerator::new(seed);
        for _ in 0..500 {
            let q = gen.next_query();
            assert!(
                q.program.dynamic_op_instances() > VERIFY_WORK_LIMIT,
                "{} {:?}",
                q.label,
                q.dims
            );
            families.insert(q.label);
        }
    }
    assert_eq!(families.len(), WIDE_FAMILIES.len(), "every family is drawn");
}

#[test]
fn seeds_draw_different_serve_wide_queries() {
    let first = |seed| {
        let mut gen = WideGenerator::new(seed);
        (0..8).map(|_| gen.next_query().dims).collect::<Vec<_>>()
    };
    assert_eq!(first(1), first(1));
    assert_ne!(first(1), first(2));
}

#[test]
fn wall_is_the_median_pass_and_latency_each_items_mean() {
    let mut times = PassTimes::default();
    let ramp = |scale: f64| (1..=1000).map(|i| i as f64 * scale).collect::<Vec<f64>>();
    times.push(&[0.5, 0.9], 3.0, &ramp(1e-6));
    times.push(&[0.3], 2.0, &ramp(3e-6));
    times.push(&[0.4, 0.1], 4.0, &ramp(2e-6));
    let means = times.item_means_ms();
    assert!((means[0] - 0.002).abs() < 1e-12 && (means[1] - 0.004).abs() < 1e-12);
    let (metrics, percentiles_ok) = times.end_to_end(12, 2.0);
    assert!(percentiles_ok, "1000 items carry a p99");
    let value = |name: &str| metrics.iter().find(|m| m.name == name).unwrap().value;
    assert_eq!(value("wall_s"), 3.0, "the median pass");
    assert_eq!(value("ops_per_s"), 4.0);
    assert_eq!(value("setup_s"), 0.4, "the median of every set-up");
    assert!((value("lat_p50_ms") - 1.0).abs() < 1e-9);
    assert!((value("lat_p99_ms") - 1.98).abs() < 1e-9);

    let mut short = PassTimes::default();
    short.push(&[0.1], 1.0, &ramp(1e-6)[..999]);
    assert!(
        !short.end_to_end(1, 1.0).1,
        "999 items are too few for a p99"
    );
}

#[test]
fn timings_read_at_the_reference_speed() {
    // a host twice as slow takes twice as long for the work and the reference
    let nominal = at_reference_speed(1.0, REFERENCE_S, REFERENCE_S);
    assert!((nominal - 1.0).abs() < 1e-12);
    let slow = at_reference_speed(2.0, 2.0 * REFERENCE_S, 2.0 * REFERENCE_S);
    assert!((slow - 1.0).abs() < 1e-12);
    // the two references around a segment weigh equally
    let mixed = at_reference_speed(1.5, REFERENCE_S, 2.0 * REFERENCE_S);
    assert!((mixed - 1.0).abs() < 1e-12);
    // the raw clock (traced runs) leaves times as measured
    assert_eq!(Clock::raw().scale(0.25), 0.25);
    let (value, seconds) = Clock::normalized().time(|| 7);
    assert_eq!(value, 7);
    assert!(seconds.is_finite() && seconds >= 0.0);
}

#[test]
fn serve_hot_sends_one_mix_in_a_seeded_order() {
    let count = |deck: &[usize]| {
        let mut c = [0usize; 8];
        for &k in deck {
            c[k] += 1;
        }
        c
    };
    let a = serve::hot_deck(1, 1050);
    assert_eq!(a.len(), 1050);
    assert_eq!(a, serve::hot_deck(1, 1050), "one seed, one sequence");
    let b = serve::hot_deck(2, 1050);
    assert_ne!(a, b, "the seed shuffles the order");
    assert_eq!(count(&a), count(&b), "every seed sends the same mix");
    let c = count(&a);
    assert!(
        c.windows(2).all(|w| w[0] >= w[1]) && c[7] > 0,
        "hotter keys come more often, and every key comes: {c:?}"
    );
}

/// Spans covering `busy` of a phase whose wall is `wall`, on one thread.
fn coverage_verdict(busy: Duration, wall: Duration) -> bool {
    let mut rec = Recorder::new(Instant::now());
    rec.leaf("ir.validate", || std::thread::sleep(busy));
    let metrics = perfdojo_perfbench::trace_summary(&rec, 0, wall.as_secs_f64(), 1, 0.0);
    perfdojo_perfbench::trace_verdict(&rec, &metrics)
}

#[test]
fn a_trace_with_a_large_uncovered_gap_is_incorrect() {
    assert_eq!(MIN_COVERAGE, 0.9);
    let ms = Duration::from_millis;
    assert!(!coverage_verdict(ms(5), ms(50)), "10% coverage");
    assert!(coverage_verdict(ms(20), ms(20)), "full coverage");
    // a span outside the known layers fails even when coverage is full
    let mut rec = Recorder::new(Instant::now());
    rec.leaf("disk.write", || std::thread::sleep(ms(5)));
    let metrics = perfdojo_perfbench::trace_summary(&rec, 0, 0.005, 1, 0.0);
    assert!(!perfdojo_perfbench::trace_verdict(&rec, &metrics));
}
