//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <decompile-cold|routed-warm|serve-cold>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload runs in its own process with `serve` and `gateway`
//! started in-process (no child processes, ephemeral ports only). The
//! untraced run (`--trace 0`) prints the end-to-end metrics; the traced
//! run (`--trace 1`) prints the per-layer ones. Every output is checked
//! against a sequential `Solver::infer` computed before timing; a wrong
//! output, an error frame or an `overloaded` reply is a failure and makes
//! the exit code 1. The last line of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod alloc;
mod calib;
mod corpus;
mod layers;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use retypd_core::Lattice;

use crate::corpus::{Reference, SUB_CORPORA};
use crate::layers::Sweep;
use crate::stats::{beyond, iqr_share, median, percentile};
use crate::trace::Tracer;
use crate::workloads::{Fleet, Pass, State, Workload};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Set-ups per untraced run: at least `SETUP_MIN_REPS`, and more (up to
/// `SETUP_MAX_REPS`) until `SETUP_MIN_SECS` were spent; `setup_s` is
/// their median.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MIN_SECS: f64 = 2.0;
const SETUP_MAX_REPS: usize = 100;
/// Pooled module latencies needed so ten samples lie beyond p95.
const MIN_LATENCY_SAMPLES: usize = 200;
/// Hard stop for the measured loop, whatever `--seconds` says.
const MAX_MEASURE_SECS: f64 = 120.0;
/// Probe kernel runs per thread around a pass or a set-up.
const BOUNDARY_SAMPLES: usize = 5;
/// Where traces and scratch stores go, relative to the working directory.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad(&"unknown workload"))?);
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One reported metric: value, unit, sample count, in-run spread.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
    spread: Option<f64>,
    /// The value before host-speed scaling, for time metrics.
    raw: Option<f64>,
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
        spread: None,
        raw: None,
    }
}

/// Runs measured passes until `seconds` have passed, at least
/// `min_passes` ran, enough latency samples exist for p95, and every suite
/// was measured equally often, calling `each` before every pass.
fn measure(
    state: &mut State,
    reference: &Reference,
    seconds: f64,
    min_passes: usize,
    threads: usize,
    tracer: &mut Tracer,
    mut each: impl FnMut(usize, &mut Tracer),
) -> Vec<Pass> {
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut probe = calib::probe_ns(threads, BOUNDARY_SAMPLES);
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let samples: usize = passes.iter().map(|p| p.latency_ns.len()).sum();
        let whole = !passes.is_empty() && passes.len() % SUB_CORPORA == 0;
        let enough = passes.len() >= min_passes && samples >= MIN_LATENCY_SAMPLES;
        if (elapsed >= seconds && enough && whole) || elapsed >= MAX_MEASURE_SECS {
            return passes;
        }
        each(passes.len(), tracer);
        let mut pass = state.pass(reference, tracer);
        let after = calib::probe_ns(threads, BOUNDARY_SAMPLES);
        pass.probe_ns = (probe + after) / 2;
        if pass.factors.is_empty() {
            pass.factors = vec![calib::scale(pass.probe_ns); pass.latency_ns.len()];
        }
        probe = after;
        eprintln!(
            "pass {:>3} at {elapsed:>6.2}s: {:>8.1} ms wall, {:>8.1} ms cpu, probe {:>6.2} ms, \
             scale {:.3}, {} failed",
            passes.len(),
            ms(pass.wall_ns),
            ms(pass.cpu_ns),
            ms(pass.probe_ns),
            pass.factor(),
            pass.failed
        );
        passes.push(pass);
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn end_to_end(passes: &[Pass], setups: &[(f64, u64)], reference: &Reference) -> Vec<Metric> {
    let setup: Vec<f64> = setups
        .iter()
        .map(|&(s, probe)| s * calib::scale(probe))
        .collect();
    // Every time metric twice: scaled to the reference host, and raw.
    let series = |scaled: bool| {
        let f = |p: &Pass| if scaled { p.factor() } else { 1.0 };
        let lat_of = |p: &Pass| -> Vec<f64> {
            p.latency_ns
                .iter()
                .zip(&p.factors)
                .map(|(&n, k)| ms(n) * if scaled { *k } else { 1.0 })
                .collect()
        };
        let ips: Vec<f64> = passes
            .iter()
            .map(|p| p.insts as f64 / (p.wall_ns as f64 / 1e9 * f(p)))
            .collect();
        let cpu: Vec<f64> = passes
            .iter()
            .map(|p| ms(p.cpu_ns) * f(p) / p.latency_ns.len() as f64)
            .collect();
        let p50s: Vec<f64> = passes
            .iter()
            .map(|p| percentile(&lat_of(p), 50.0))
            .collect();
        let lat: Vec<f64> = passes.iter().flat_map(lat_of).collect();
        (ips, cpu, lat, p50s)
    };
    let (ips, cpu, lat, p50s) = series(true);
    let (raw_ips, raw_cpu, raw_lat, _) = series(false);
    let raw_setup: Vec<f64> = setups.iter().map(|&(s, _)| s).collect();
    let attempted = lat.len();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    let acc = reference.accuracy;
    let timed = |name, value, unit, samples, spread_of: &[f64], raw| Metric {
        name,
        value,
        unit,
        samples,
        spread: (!spread_of.is_empty()).then(|| iqr_share(spread_of)),
        raw: Some(raw),
    };
    vec![
        timed(
            "setup_s",
            median(&setup),
            "s",
            setup.len(),
            &setup,
            median(&raw_setup),
        ),
        timed(
            "insts_per_s",
            median(&ips),
            "1/s",
            ips.len(),
            &ips,
            median(&raw_ips),
        ),
        timed(
            "module_p50_ms",
            percentile(&lat, 50.0),
            "ms",
            lat.len(),
            &p50s,
            percentile(&raw_lat, 50.0),
        ),
        timed(
            "module_p95_ms",
            percentile(&lat, 95.0),
            "ms",
            beyond(lat.len(), 95.0),
            &[],
            percentile(&raw_lat, 95.0),
        ),
        timed(
            "cpu_ms_per_module",
            median(&cpu),
            "ms",
            cpu.len(),
            &cpu,
            median(&raw_cpu),
        ),
        metric("peak_rss_mb", sys::peak_rss_mb(), "MiB", 1),
        metric(
            "ok_frac",
            (attempted as f64 - failed as f64) / attempted.max(1) as f64,
            "ratio",
            attempted,
        ),
        metric("type_distance", acc.distance(), "distance", acc.slots()),
        metric(
            "pointer_accuracy",
            acc.pointer_accuracy(),
            "ratio",
            acc.pointer_slots(),
        ),
        metric(
            "const_recall",
            acc.const_recall(),
            "ratio",
            acc.const_truths(),
        ),
    ]
}

fn per_layer(
    sweep: &Sweep,
    untraced: &[Pass],
    traced: &[Pass],
    workload: Workload,
    loop_self_ns: &BTreeMap<&'static str, u64>,
    spans: usize,
    probe_ms: f64,
) -> Vec<Metric> {
    let n = sweep.modules;
    let per = |name: &str| sweep.self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6 / n as f64;
    let mir = per("mir.cfg") + per("mir.frame") + per("mir.reaching");
    let phases = ms(sweep.simplify_ns + sweep.saturate_ns + sweep.sketch_ns + sweep.transducer_ns)
        / n as f64;
    let codec = per("serve.wire.req_encode")
        + per("serve.wire.req_decode")
        + per("serve.wire.to_job")
        + per("serve.wire.resp_encode")
        + per("serve.wire.resp_decode");
    let e = sweep.exact;
    let mean_ms = |f: fn(&Pass) -> &Vec<u64>| {
        let xs: Vec<u64> = traced.iter().flat_map(|p| f(p).iter().copied()).collect();
        ms(xs.iter().sum()) / xs.len().max(1) as f64
    };
    // Unattributed share of the workload's own measured unit (a module in
    // decompile-cold, a request in the serve workloads): what no named
    // layer time accounts for. decompile-cold reads its own loop's spans;
    // a request's layers run on server threads, so the serve workloads
    // charge it the sweep's outside-in codec and routing times plus the
    // solve time each reply reports.
    let root = mean_ms(|p| &p.latency_ns);
    let inner = mean_ms(|p| &p.inner_ns);
    let attributed = match workload {
        Workload::DecompileCold => {
            let spans = |name| loop_self_ns.get(name).copied().unwrap_or(0);
            let modules: usize = traced.iter().map(|p| p.latency_ns.len()).sum();
            ms(spans("minic.compile") + spans("congen.generate")) / modules.max(1) as f64 + inner
        }
        Workload::RoutedWarm => codec + per("driver.fingerprint") + per("gateway.route") + inner,
        Workload::ServeCold => codec + per("driver.fingerprint") + inner,
    };
    let ips = |ps: &[Pass]| {
        let xs: Vec<f64> = ps
            .iter()
            .map(|p| p.insts as f64 / (p.wall_ns as f64 / 1e9 * p.factor()))
            .collect();
        median(&xs)
    };
    let m = |name: &'static str, value: f64, unit: &'static str| metric(name, value, unit, n);
    vec![
        m("minic.compile_ms", per("minic.compile"), "ms"),
        m("mir.cfg_ms", per("mir.cfg"), "ms"),
        m("mir.frame_ms", per("mir.frame"), "ms"),
        m("mir.reaching_ms", per("mir.reaching"), "ms"),
        m("mir.reaching_allocs", e.reaching_allocs as f64, "count"),
        m("congen.generate_ms", per("congen.generate"), "ms"),
        m("congen.emit_ms", per("congen.generate") - mir, "ms"),
        m("congen.generate_allocs", e.generate_allocs as f64, "count"),
        m("congen.constraints", e.constraints as f64, "count"),
        m("core.infer_ms", per("core.infer"), "ms"),
        m("core.simplify_ms", ms(sweep.simplify_ns) / n as f64, "ms"),
        m("core.saturate_ms", ms(sweep.saturate_ns) / n as f64, "ms"),
        m("core.sketch_ms", ms(sweep.sketch_ns) / n as f64, "ms"),
        m(
            "core.transducer_ms",
            ms(sweep.transducer_ns) / n as f64,
            "ms",
        ),
        m("core.unattributed_ms", per("core.infer") - phases, "ms"),
        m("core.infer_allocs", e.infer_allocs as f64, "count"),
        m("core.graph_nodes", e.graph_nodes as f64, "count"),
        m("core.graph_edges", e.graph_edges as f64, "count"),
        m("core.sketch_states", e.sketch_states as f64, "count"),
        m("baselines.tie_distance", sweep.tie.distance(), "distance"),
        m(
            "baselines.unification_distance",
            sweep.unification.distance(),
            "distance",
        ),
        m("driver.fingerprint_ms", per("driver.fingerprint"), "ms"),
        m("driver.warm_solve_ms", per("driver.warm_solve"), "ms"),
        m("driver.cold_batch_ms", per("driver.cold_batch"), "ms"),
        m("driver.cache_hit_frac", sweep.cache_hit_frac, "ratio"),
        m(
            "driver.store_appended",
            sweep.store_appended as f64,
            "count",
        ),
        m(
            "serve.wire.req_encode_ms",
            per("serve.wire.req_encode"),
            "ms",
        ),
        m(
            "serve.wire.req_decode_ms",
            per("serve.wire.req_decode"),
            "ms",
        ),
        m("serve.wire.to_job_ms", per("serve.wire.to_job"), "ms"),
        m(
            "serve.wire.resp_encode_ms",
            per("serve.wire.resp_encode"),
            "ms",
        ),
        m(
            "serve.wire.resp_decode_ms",
            per("serve.wire.resp_decode"),
            "ms",
        ),
        m(
            "serve.wire.req_bytes",
            e.req_bytes as f64 / n as f64,
            "bytes",
        ),
        m(
            "serve.wire.resp_bytes",
            e.resp_bytes as f64 / n as f64,
            "bytes",
        ),
        m("serve.direct_rtt_ms", per("serve.direct_rtt"), "ms"),
        m(
            "serve.unattributed_ms",
            per("serve.direct_rtt") - codec - per("driver.fingerprint") - per("driver.warm_solve"),
            "ms",
        ),
        m("serve.start_ms", per("serve.start") * n as f64, "ms"),
        m(
            "serve.overloaded",
            (sweep.overloaded
                + traced
                    .iter()
                    .chain(untraced)
                    .map(|p| p.overloaded)
                    .sum::<u64>()) as f64,
            "count",
        ),
        m("gateway.route_ms", per("gateway.route"), "ms"),
        m("gateway.routed_rtt_ms", per("gateway.routed_rtt"), "ms"),
        m(
            "gateway.overhead_ms",
            per("gateway.routed_rtt") - per("serve.direct_rtt"),
            "ms",
        ),
        m("gateway.reroutes", sweep.reroutes as f64, "count"),
        m("gateway.hedge_fired", sweep.hedge_fired as f64, "count"),
        m(
            "trace.unattributed_share",
            (root - attributed) / root,
            "ratio",
        ),
        m(
            "trace.overhead_pct",
            (ips(untraced) / ips(traced) - 1.0) * 100.0,
            "%",
        ),
        m("trace.spans", spans as f64, "count"),
        m("host.probe_ms", probe_ms, "ms"),
    ]
}

/// Runs the workload's loop untraced and traced, alternating whole
/// cycles over the suites, then two layer sweeps over the first suite
/// (the first warms the symbol interner so the second's allocation counts
/// repeat exactly).
fn traced_run(
    args: &Args,
    reference: &Reference,
    scratch: &Path,
) -> (Vec<Metric>, u64, usize, usize, Tracer) {
    let workload = args.workload;
    let (mut state, _, setup_failed) = State::setup(workload, args.seed, reference, scratch);
    let mut tracer = Tracer::new(false);
    let traced_cycle = |i: usize| (i / SUB_CORPORA) % 2 == 1;
    let passes = measure(
        &mut state,
        reference,
        args.seconds / 2.0,
        2 * SUB_CORPORA,
        workload.threads(),
        &mut tracer,
        |i, t| t.set_enabled(traced_cycle(i)),
    );
    let loop_passes = passes.len();
    let probes: Vec<f64> = passes.iter().map(|p| ms(p.probe_ns)).collect();
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    for (i, p) in passes.into_iter().enumerate() {
        if traced_cycle(i) {
            traced.push(p);
        } else {
            untraced.push(p);
        }
    }
    let loop_self_ns = tracer.self_ns(0);
    tracer.set_enabled(true);
    let corpus = &reference.corpora[0];
    let sources = corpus::sources(corpus::sub_seeds(args.seed).next().expect("one suite"));
    // routed-warm sweeps its own (already primed) fleet; the others start
    // one primed with the swept suite.
    let mut own = None;
    let mut failed = setup_failed;
    if state.fleet().is_none() {
        let (f, primed_failed) = Fleet::start(corpus.jobs.iter().zip(&corpus.texts));
        failed += primed_failed;
        own = Some(f);
    }
    let fleet = match own.as_mut() {
        Some(f) => f,
        None => state.fleet().expect("routed-warm owns a fleet"),
    };
    let warmup = layers::sweep(&sources, corpus, fleet, scratch, &mut tracer);
    let sweep = layers::sweep(&sources, corpus, fleet, scratch, &mut tracer);
    if let Some(f) = own {
        f.shutdown();
    }
    state.teardown();
    failed += warmup.failed
        + sweep.failed
        + traced
            .iter()
            .chain(&untraced)
            .map(|p| p.failed)
            .sum::<u64>();
    let attempted = 2 * sweep.modules
        + traced
            .iter()
            .chain(&untraced)
            .map(|p| p.latency_ns.len())
            .sum::<usize>();
    let metrics = per_layer(
        &sweep,
        &untraced,
        &traced,
        workload,
        &loop_self_ns,
        tracer.len(),
        median(&probes),
    );
    (metrics, failed, attempted, loop_passes, tracer)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name();
    let out = PathBuf::from(OUT_DIR);
    let scratch = out.join(format!("scratch-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create the output directory");

    // The sequential reference, before anything is timed.
    let reference = Reference::build(args.seed, &Lattice::c_types());

    let (metrics, failed, attempted, passes) = if args.trace {
        let (metrics, failed, attempted, passes, tracer) = traced_run(&args, &reference, &scratch);
        let path = out.join(format!("trace-{name}-seed{}.json", args.seed));
        std::fs::write(&path, tracer.chrome_json()).expect("write the trace");
        println!("spans: {} written to {}", tracer.len(), path.display());
        (metrics, failed, attempted, passes)
    } else {
        let mut setups = Vec::new();
        let mut setup_failed = 0;
        let mut state = None;
        let started = Instant::now();
        while setups.len() < SETUP_MIN_REPS
            || (started.elapsed().as_secs_f64() < SETUP_MIN_SECS && setups.len() < SETUP_MAX_REPS)
        {
            if let Some(old) = state.take() {
                State::teardown(old);
            }
            let before = calib::probe_ns(1, BOUNDARY_SAMPLES);
            let (s, secs, f) = State::setup(args.workload, args.seed, &reference, &scratch);
            setups.push((secs, (before + calib::probe_ns(1, BOUNDARY_SAMPLES)) / 2));
            setup_failed += f;
            state = Some(s);
        }
        let mut state = state.expect("at least one set-up");
        let mut tracer = Tracer::new(false);
        let threads = args.workload.threads();
        let passes = measure(
            &mut state,
            &reference,
            args.seconds,
            1,
            threads,
            &mut tracer,
            |_, _| {},
        );
        state.teardown();
        let failed = setup_failed + passes.iter().map(|p| p.failed).sum::<u64>();
        let attempted = passes.iter().map(|p| p.latency_ns.len()).sum();
        (
            end_to_end(&passes, &setups, &reference),
            failed,
            attempted,
            passes.len(),
        )
    };
    let _ = std::fs::remove_dir_all(&scratch);

    println!(
        "perfbench workload={name} seed={} trace={} {} passes={passes} connections={} \
         digest={:016x}",
        args.seed,
        u8::from(args.trace),
        reference.describe(),
        args.workload.threads(),
        reference.digest(),
    );
    println!(
        "{:<34} {:>16} {:<9} {:>8} {:>8} {:>16}",
        "metric", "value", "unit", "samples", "spread", "unscaled"
    );
    for m in &metrics {
        let spread = m.spread.map_or("-".into(), |s| format!("{s:.3}"));
        let raw = m.raw.map_or("-".into(), |r| format!("{r:.6}"));
        println!(
            "{:<34} {:>16.6} {:<9} {:>8} {:>8} {:>16}",
            m.name, m.value, m.unit, m.samples, spread, raw
        );
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    let correct = failed == 0 && attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: {failed} of {attempted} outputs failed their check");
        ExitCode::FAILURE
    }
}
