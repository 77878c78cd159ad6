//! Machine-readable microbenchmark runner: times the core solver
//! (saturation chains, Figure 2), the full pipeline at several program
//! sizes, and sketch lattice operations, and emits one JSON document
//! (`BENCH_*.json` at the repo root). For end-to-end numbers that are
//! comparable between two commits, use the repository benchmark in
//! `perfbench/` instead.
//!
//! ```text
//! cargo run --release -p retypd-bench --bin bench_json            # full suite
//! cargo run --release -p retypd-bench --bin bench_json -- --small # CI smoke
//! cargo run --release -p retypd-bench --bin bench_json -- --out BENCH_pr2.json
//! ```
//!
//! Names are `<group>/<bench>`, with groups `core_solver`, `pipeline`
//! and `sketches`, e.g.
//! `core_solver/saturate_chain_200` and `pipeline/2650` (the pipeline
//! parameter is the generated program's instruction count).

use std::io::Write as _;
use std::time::{Duration, Instant};

use retypd_bench::{chain_constraints, figure2_constraints, sketch_for, wide_bounds_constraints};
use retypd_core::graph::ConstraintGraph;
use retypd_core::saturation::saturate;
use retypd_core::solver::SolverStats;
use retypd_core::{Lattice, SchemeBuilder, Solver};
use retypd_driver::{AnalysisDriver, DriverConfig};
use retypd_minic::codegen::compile;
use retypd_minic::genprog::{GenConfig, ProgramGenerator};

/// Wall-clock budget spent measuring each benchmark (after warm-up).
const TARGET_MEASURE: Duration = Duration::from_millis(400);
const MAX_ITERS: u64 = 100_000;

struct Record {
    name: String,
    ns_per_iter: f64,
    iters: u64,
}

/// Times `body` adaptively and records the mean wall-clock per iteration,
/// taking the best of three measurement passes to damp scheduler noise.
/// Returns the warm-up invocation's output (workloads are deterministic, so
/// callers can harvest e.g. solver stats without an extra run).
fn bench<O>(records: &mut Vec<Record>, name: &str, mut body: impl FnMut() -> O) -> O {
    let warm_start = Instant::now();
    let warm_out = std::hint::black_box(body());
    let once = warm_start.elapsed().max(Duration::from_nanos(1));
    let iters =
        (TARGET_MEASURE.as_nanos() / once.as_nanos()).clamp(1, MAX_ITERS as u128) as u64;
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(body());
        }
        let mean = start.elapsed().as_nanos() as f64 / iters as f64;
        best = best.min(mean);
    }
    eprintln!("{name:<40} {best:>14.0} ns/iter (n = {iters})");
    records.push(Record {
        name: name.to_owned(),
        ns_per_iter: best,
        iters,
    });
    warm_out
}

/// Measures several arms by rotating through them inside one window and
/// recording each arm's median wall-clock per iteration. Used for the
/// claims that are *ratios between arms* (append overhead, warm-restart
/// speedup): back-to-back single-arm blocks drift by up to ~10% on a
/// 1-core container — frequency, page cache, scheduler — which swamps a
/// ≤5% effect; rotation runs every arm through the same drift so it
/// cancels out of the ratios.
fn bench_rotated<'a>(records: &mut Vec<Record>, mut arms: Vec<(String, Box<dyn FnMut() + 'a>)>) {
    let warm_start = Instant::now();
    for (_, body) in arms.iter_mut() {
        body();
    }
    let once = (warm_start.elapsed() / arms.len() as u32).max(Duration::from_nanos(1));
    let rounds =
        ((3 * TARGET_MEASURE.as_nanos()) / once.as_nanos()).clamp(4, 200) as usize;
    let mut times: Vec<Vec<f64>> = vec![Vec::with_capacity(rounds); arms.len()];
    for r in 0..rounds {
        // Rotate the starting arm each round so no arm systematically
        // follows another (an arm that dirties the page cache would
        // otherwise tax a fixed successor).
        for k in 0..arms.len() {
            let i = (k + r) % arms.len();
            let t = Instant::now();
            (arms[i].1)();
            times[i].push(t.elapsed().as_nanos() as f64);
        }
    }
    for ((name, _), mut v) in arms.into_iter().zip(times) {
        v.sort_by(f64::total_cmp);
        let median = v[v.len() / 2];
        eprintln!("{name:<40} {median:>14.0} ns/iter (n = {rounds})");
        records.push(Record {
            name,
            ns_per_iter: median,
            iters: rounds as u64,
        });
    }
}

fn main() {
    let mut out_path: Option<String> = None;
    let mut small = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = args.next(),
            "--small" => small = true,
            other => {
                eprintln!("unknown argument {other}; usage: bench_json [--small] [--out FILE]");
                std::process::exit(2);
            }
        }
    }

    let lattice = Lattice::c_types();
    let mut records = Vec::new();

    // --- core_solver ---
    let fig2 = figure2_constraints();
    bench(&mut records, "core_solver/saturate_figure2", || {
        let mut g = ConstraintGraph::build(&fig2);
        saturate(&mut g)
    });
    let chain_len = if small { 50 } else { 200 };
    let chain = chain_constraints(chain_len);
    bench(
        &mut records,
        &format!("core_solver/saturate_chain_{chain_len}"),
        || {
            let mut g = ConstraintGraph::build(&chain);
            saturate(&mut g)
        },
    );
    let builder = SchemeBuilder::new(&lattice);
    bench(&mut records, "core_solver/simplify_figure2_scheme", || {
        builder.infer("f", &fig2)
    });

    // --- pipeline (+ per-size stats samples and driver runs) ---
    let mut stats_records: Vec<(String, SolverStats)> = Vec::new();
    // Scratch dir for the persistence benches' scheme-store log files.
    let store_dir = std::env::temp_dir().join(format!("retypd-bench-store-{}", std::process::id()));
    std::fs::create_dir_all(&store_dir).expect("create store scratch dir");
    // (replayed_entries, replay_ns) for the largest size, for the
    // `persist` JSON section's replay-throughput figure.
    let mut persist_probe: Option<(u64, u64)> = None;
    let mut last_insts = 0usize;
    let sizes: &[usize] = if small { &[10] } else { &[10, 40, 120] };
    for &functions in sizes {
        let module = ProgramGenerator::new(GenConfig {
            seed: 7,
            functions,
            ..GenConfig::default()
        })
        .generate();
        let (mir, _) = compile(&module).unwrap();
        let program = retypd_congen::generate(&mir);
        let insts = mir.instruction_count();
        let solved = bench(&mut records, &format!("pipeline/{insts}"), || {
            Solver::new(&lattice).infer(&program)
        });
        stats_records.push((format!("pipeline/{insts}"), solved.stats));
        // Driver runs: `warm` reuses one driver, so after the first
        // iteration every SCC is a cache hit — the serving path for
        // re-submitted modules.
        let warm_driver = AnalysisDriver::with_config(&lattice, DriverConfig::with_workers(1));
        bench(&mut records, &format!("driver/pipeline_{insts}_warm"), || {
            warm_driver.solve(&program)
        });
        stats_records.push((
            format!("driver/pipeline_{insts}_warm"),
            warm_driver.solve(&program).stats,
        ));
        // `cold` (fresh driver per iteration — full solve plus
        // fingerprint overhead), `cold_persist` (the cold solve with
        // store appends riding along: fresh driver, fresh log each
        // iteration; the drop inside the arm joins the store's writer
        // thread, so the timing covers the full durability cost, not
        // just the enqueue), and `coldstart_replayed` (a fresh driver
        // built over a *populated* log — replay plus an all-hit solve,
        // the warm-restart path; the log is primed once and replays
        // never append since every SCC hits). The three run rotated in
        // one window because the headline claims are the ratios between
        // them — see `bench_rotated`.
        let persist_config = |path: std::path::PathBuf| {
            let mut cfg = DriverConfig::with_workers(1);
            cfg.persist_path = Some(path);
            cfg
        };
        let counter = std::cell::Cell::new(0u64);
        let replay_path = store_dir.join(format!("replay-{insts}.store"));
        AnalysisDriver::with_config(&lattice, persist_config(replay_path.clone()))
            .solve(&program);
        bench_rotated(
            &mut records,
            vec![
                (
                    format!("driver/pipeline_{insts}_cold"),
                    Box::new(|| {
                        std::hint::black_box(
                            AnalysisDriver::with_config(&lattice, DriverConfig::with_workers(1))
                                .solve(&program),
                        );
                    }),
                ),
                (
                    format!("driver/pipeline_{insts}_cold_persist"),
                    Box::new(|| {
                        let n = counter.get();
                        counter.set(n + 1);
                        let path = store_dir.join(format!("cp-{insts}-{n}.store"));
                        std::hint::black_box(
                            AnalysisDriver::with_config(&lattice, persist_config(path.clone()))
                                .solve(&program),
                        );
                        // Unlinking inside the arm keeps the cost honest
                        // while stopping dirty pages from ~200 dead logs
                        // from bleeding writeback time into the other
                        // arms of the rotation.
                        let _ = std::fs::remove_file(&path);
                    }),
                ),
                (
                    format!("driver/pipeline_{insts}_coldstart_replayed"),
                    Box::new(|| {
                        std::hint::black_box(
                            AnalysisDriver::with_config(
                                &lattice,
                                persist_config(replay_path.clone()),
                            )
                            .solve(&program),
                        );
                    }),
                ),
            ],
        );
        let replayed = AnalysisDriver::with_config(&lattice, persist_config(replay_path.clone()))
            .solve(&program);
        assert_eq!(
            replayed.stats.cache_misses, 0,
            "a replayed store must serve every SCC from cache"
        );
        stats_records.push((
            format!("driver/pipeline_{insts}_coldstart_replayed"),
            replayed.stats,
        ));
        let probe =
            AnalysisDriver::with_config(&lattice, persist_config(replay_path.clone()));
        let ps = probe.persist_stats().expect("persistence is on");
        assert!(ps.replayed_entries > 0 && ps.dropped_records == 0);
        persist_probe = Some((ps.replayed_entries, ps.replay_ns));
        last_insts = insts;
    }

    // --- sketches ---
    let a = sketch_for(
        "f.in_stack0 <= t; t.load.σ32@0 <= t; t.load.σ32@4 <= int; int <= f.out_eax",
        &lattice,
    );
    let b2 = sketch_for(
        "f.in_stack0 <= u; int <= u.store.σ32@0; u.load.σ32@8 <= #FileDescriptor",
        &lattice,
    );
    bench(&mut records, "sketches/sketch_meet", || a.meet(&b2, &lattice));
    bench(&mut records, "sketches/sketch_join", || a.join(&b2, &lattice));
    bench(&mut records, "sketches/sketch_leq", || a.leq(&b2, &lattice));
    // Bound-query workload: many states × many constants, saturated once;
    // each iteration re-infers the sketch (marks + intervals).
    let wide = wide_bounds_constraints();
    let mut wide_g = ConstraintGraph::build(&wide);
    saturate(&mut wide_g);
    let wide_q = retypd_core::ShapeQuotient::build(&wide);
    let wide_consts: Vec<retypd_core::BaseVar> = wide
        .base_vars()
        .into_iter()
        .filter(|b| b.is_const())
        .collect();
    bench(&mut records, "sketches/sketch_infer_wide", || {
        retypd_core::Sketch::infer(
            retypd_core::BaseVar::var("f"),
            &wide_g,
            &wide_q,
            &lattice,
            &wide_consts,
        )
    });

    // --- serve (wire protocol + loopback service round trips) ---
    {
        use retypd_driver::ModuleJob;
        use retypd_minic::genprog::{ClusterSpec, ProgramGenerator as ClusterGen};
        use retypd_serve::wire::{Request, WireModule};
        use retypd_serve::{start, Client, ServeConfig};

        let module = ProgramGenerator::new(GenConfig {
            seed: 7,
            functions: 10,
            ..GenConfig::default()
        })
        .generate();
        let (mir, _) = compile(&module).unwrap();
        let job = ModuleJob {
            name: "bench".into(),
            program: retypd_congen::generate(&mir),
        };
        bench(&mut records, "serve/wire_encode_module", || {
            Request::solve_module(WireModule::from_job(&job)).encode()
        });
        let payload = Request::solve_module(WireModule::from_job(&job)).encode();
        bench(&mut records, "serve/wire_decode_module", || {
            Request::decode(&payload).expect("payload decodes")
        });
        // Full socket round trip against a loopback shard. The warm-up
        // request primes the shard cache, so the measured iterations are
        // the serving path for re-submitted modules (fingerprint hit, no
        // solver work) — socket + JSON + cache-lookup latency.
        let handle = start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            shards: 1,
            ..ServeConfig::default()
        })
        .expect("loopback server");
        let mut client = Client::connect(handle.addr()).expect("loopback client");
        client.solve_module(&job).expect("cold prime");
        bench(&mut records, "serve/loopback_solve_warm", || {
            client.solve_module(&job).expect("warm solve")
        });

        // Streaming vs single-frame batches: the metric the streaming
        // mode exists for is *time to first report* — with one shard the
        // batch solves module by module, so the first `report` frame lands
        // roughly batch_len× earlier than the whole-batch `solved` frame.
        // Measured manually (the adaptive `bench` helper can only time a
        // whole closure, and the stream must be drained between requests).
        let spec = ClusterSpec {
            name: "bstream".into(),
            members: if small { 4 } else { 6 },
            shared_functions: 6,
            member_functions: 3,
            seed: 2024,
            call_depth: 4,
        };
        let batch: Vec<ModuleJob> = ClusterGen::generate_cluster(&spec)
            .iter()
            .map(|(name, m)| {
                let (mir, _) = compile(m).expect("cluster member compiles");
                ModuleJob {
                    name: name.clone(),
                    program: retypd_congen::generate(&mir),
                }
            })
            .collect();
        client.solve_batch(&batch).expect("warm the batch corpus");
        let stream_iters = 30u64;
        let mut first_ns = Vec::new();
        let mut done_ns = Vec::new();
        let mut batch_ns = Vec::new();
        for _ in 0..stream_iters {
            let t0 = Instant::now();
            // The constructor returns once the first frame arrived.
            let mut stream = client
                .solve_batch_stream(&batch, None)
                .expect("stream admitted");
            first_ns.push(t0.elapsed().as_nanos() as u64);
            while let Some(item) = stream.next() {
                item.expect("streamed report");
            }
            assert!(stream.summary().is_some(), "terminal batch_done");
            done_ns.push(t0.elapsed().as_nanos() as u64);

            let t1 = Instant::now();
            client.solve_batch(&batch).expect("single-frame batch");
            batch_ns.push(t1.elapsed().as_nanos() as u64);
        }
        let median = |v: &mut Vec<u64>| {
            v.sort_unstable();
            v[v.len() / 2] as f64
        };
        for (name, v) in [
            ("serve/stream_first_report", &mut first_ns),
            ("serve/stream_batch_done", &mut done_ns),
            ("serve/batch_solved_v1", &mut batch_ns),
        ] {
            let ns = median(v);
            eprintln!("{name:<40} {ns:>14.0} ns/iter (n = {stream_iters})");
            records.push(Record {
                name: name.to_owned(),
                ns_per_iter: ns,
                iters: stream_iters,
            });
        }

        drop(client);
        handle.shutdown();

        // Restart-to-first-solve: bind a server on a *primed* persist
        // dir, connect, and solve one module — the full warm-restart
        // latency a client observes (bind + store replay + cache-hit
        // solve + round trip). Measured manually: each cycle needs its
        // own server lifecycle, which the adaptive helper can't time.
        let persist_root = store_dir.join("serve-restart");
        std::fs::create_dir_all(&persist_root).expect("create serve persist dir");
        let restart_config = || ServeConfig {
            addr: "127.0.0.1:0".into(),
            shards: 1,
            persist_dir: Some(persist_root.clone()),
            ..ServeConfig::default()
        };
        {
            let handle = start(restart_config()).expect("prime server");
            let mut c = Client::connect(handle.addr()).expect("prime client");
            c.solve_module(&job).expect("prime solve");
            handle.shutdown();
        }
        let cycles = if small { 5 } else { 15 };
        let mut cycle_ns = Vec::with_capacity(cycles);
        for _ in 0..cycles {
            let t0 = Instant::now();
            let handle = start(restart_config()).expect("restart server");
            let mut c = Client::connect(handle.addr()).expect("connect");
            let report = c.solve_module(&job).expect("first solve after restart");
            cycle_ns.push(t0.elapsed().as_nanos() as u64);
            assert_eq!(report.name, job.name);
            handle.shutdown();
        }
        let ns = median(&mut cycle_ns);
        eprintln!("{:<40} {ns:>14.0} ns/iter (n = {cycles})", "serve/restart_first_solve");
        records.push(Record {
            name: "serve/restart_first_solve".to_owned(),
            ns_per_iter: ns,
            iters: cycles as u64,
        });
    }

    // --- gateway (routed vs direct warm solves, hedge-off vs hedge-on tail) ---
    {
        use retypd_driver::ModuleJob;
        use retypd_gateway::{route_key, server, BackendSpec, GatewayConfig, Ring};
        use retypd_serve::{start, Client, ServeConfig};

        let module = ProgramGenerator::new(GenConfig {
            seed: 7,
            functions: 10,
            ..GenConfig::default()
        })
        .generate();
        let (mir, _) = compile(&module).unwrap();
        let job = ModuleJob {
            name: "bench".into(),
            program: retypd_congen::generate(&mir),
        };
        let backend = |solve_delay: Option<Duration>| {
            start(ServeConfig {
                addr: "127.0.0.1:0".into(),
                shards: 1,
                solve_delay,
                ..ServeConfig::default()
            })
            .expect("loopback backend")
        };

        // Routing overhead: one warm solve direct to a backend versus the
        // same solve through a gateway in front of two backends. Rotated:
        // the committed figure is their ratio.
        let direct = backend(None);
        let backends = [backend(None), backend(None)];
        let gw = server::start(
            GatewayConfig::default(),
            backends.iter().map(|h| BackendSpec::External { addr: h.addr() }).collect(),
        )
        .expect("gateway starts");
        let mut direct_client = Client::connect(direct.addr()).expect("direct client");
        let mut gw_client = Client::connect(gw.addr()).expect("gateway client");
        direct_client.solve_module(&job).expect("cold prime direct");
        gw_client.solve_module(&job).expect("cold prime routed");
        bench_rotated(
            &mut records,
            vec![
                (
                    "gateway/direct_solve_warm".to_owned(),
                    Box::new(|| {
                        direct_client.solve_module(&job).expect("warm direct");
                    }),
                ),
                (
                    "gateway/routed_solve_warm".to_owned(),
                    Box::new(|| {
                        gw_client.solve_module(&job).expect("warm routed");
                    }),
                ),
            ],
        );
        drop(direct_client);
        drop(gw_client);
        gw.shutdown();
        for b in backends {
            b.shutdown();
        }
        direct.shutdown();

        // Tail latency under a slow primary: the module's owner slot gets
        // a pure-latency stall, so hedge-off pays the stall on every solve
        // while hedge-on races the other (warm) backend after 2ms. The
        // stall is injected before the solve, so bytes are unaffected.
        let stall = Duration::from_millis(25);
        let key = route_key(lattice.fingerprint(), job.fingerprint());
        let slow_slot = Ring::build(&[0, 1]).route(key).expect("two-slot ring");
        let slow_pair = || {
            let handles: Vec<_> = (0..2)
                .map(|slot| backend((slot == slow_slot).then_some(stall)))
                .collect();
            // Prime both backends so the race is cache-hit vs cache-hit.
            for h in &handles {
                Client::connect(h.addr())
                    .expect("prime client")
                    .solve_module(&job)
                    .expect("prime solve");
            }
            handles
        };
        let hedge_iters = if small { 10u64 } else { 30 };
        let mut tail_ns: Vec<Vec<u64>> = Vec::new();
        for hedge_after in [None, Some(Duration::from_millis(2))] {
            let handles = slow_pair();
            let gw = server::start(
                GatewayConfig {
                    hedge_after,
                    ..GatewayConfig::default()
                },
                handles.iter().map(|h| BackendSpec::External { addr: h.addr() }).collect(),
            )
            .expect("gateway starts");
            let mut client = Client::connect(gw.addr()).expect("gateway client");
            client.solve_module(&job).expect("prime routed path");
            let mut ns = Vec::with_capacity(hedge_iters as usize);
            for _ in 0..hedge_iters {
                let t0 = Instant::now();
                client.solve_module(&job).expect("solve under stall");
                ns.push(t0.elapsed().as_nanos() as u64);
            }
            tail_ns.push(ns);
            drop(client);
            gw.shutdown();
            for h in handles {
                h.shutdown();
            }
        }
        let median_u64 = |v: &mut Vec<u64>| {
            v.sort_unstable();
            v[v.len() / 2] as f64
        };
        for (name, v) in ["gateway/hedge_off_slow", "gateway/hedge_on_slow"]
            .iter()
            .copied()
            .zip(tail_ns.iter_mut())
        {
            let ns = median_u64(v);
            eprintln!("{name:<40} {ns:>14.0} ns/iter (n = {hedge_iters})");
            records.push(Record {
                name: name.to_owned(),
                ns_per_iter: ns,
                iters: hedge_iters,
            });
        }
    }

    // --- telemetry (record-path overhead + spans-on vs spans-off pipeline) ---
    let telem_insts;
    {
        use retypd_telemetry::{Counter, Histogram};
        let hist = Histogram::new();
        let counter = Counter::new();
        let mut x = 0x243f6a8885a308d3u64;
        // One histogram record + one counter inc per iteration, the value
        // cycling across buckets the way real latencies do.
        bench(&mut records, "telemetry/record_overhead", || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            hist.record(x >> 40);
            counter.inc();
        });
        // A disarmed span guard: the price every instrumented hot path
        // pays when tracing is off (one relaxed atomic load).
        let _ = bench(&mut records, "telemetry/span_disabled", || {
            retypd_telemetry::span("bench.noop")
        });

        // The full cold pipeline with spans off versus on. The arms run
        // rotated because the claim is their *ratio*: telemetry off must
        // not tax the pipeline (the acceptance bound), and on-cost stays
        // visible in the committed JSON.
        let module = ProgramGenerator::new(GenConfig {
            seed: 7,
            functions: *sizes.last().expect("at least one size"),
            ..GenConfig::default()
        })
        .generate();
        let (mir, _) = compile(&module).unwrap();
        let program = retypd_congen::generate(&mir);
        telem_insts = mir.instruction_count();
        bench_rotated(
            &mut records,
            vec![
                (
                    format!("telemetry/pipeline_{telem_insts}_spans_off"),
                    Box::new(|| {
                        retypd_telemetry::set_spans_enabled(false);
                        std::hint::black_box(
                            AnalysisDriver::with_config(&lattice, DriverConfig::with_workers(1))
                                .solve(&program),
                        );
                    }),
                ),
                (
                    format!("telemetry/pipeline_{telem_insts}_spans_on"),
                    Box::new(|| {
                        retypd_telemetry::set_spans_enabled(true);
                        std::hint::black_box(
                            AnalysisDriver::with_config(&lattice, DriverConfig::with_workers(1))
                                .solve(&program),
                        );
                        retypd_telemetry::set_spans_enabled(false);
                    }),
                ),
            ],
        );
        // Don't let the spans-on arm's ring contents outlive the bench.
        let _ = retypd_telemetry::drain_spans();
    }

    // --- emit JSON (hand-rolled: the vendored serde shim has no serializer) ---
    let mut json = String::from("{\n  \"benches\": [\n");
    for (i, r) in records.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"ns_per_iter\": {:.1}, \"iters\": {}}}{}\n",
            r.name,
            r.ns_per_iter,
            r.iters,
            if i + 1 == records.len() { "" } else { "," }
        ));
    }
    // --- persist section: replay throughput, append overhead, restart
    // latency — the headline numbers for the warm-restart claim. ---
    let lookup = |name: String| {
        records
            .iter()
            .find(|r| r.name == name)
            .map_or(0.0, |r| r.ns_per_iter)
    };
    let (replayed_entries, replay_ns) = persist_probe.expect("persist probe ran");
    let cold = lookup(format!("driver/pipeline_{last_insts}_cold"));
    let cold_persist = lookup(format!("driver/pipeline_{last_insts}_cold_persist"));
    let replayed_start = lookup(format!("driver/pipeline_{last_insts}_coldstart_replayed"));
    let warm = lookup(format!("driver/pipeline_{last_insts}_warm"));
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"persist\": {{\"replayed_entries\": {replayed_entries}, \
         \"replay_ns\": {replay_ns}, \"replay_schemes_per_s\": {:.0}, \
         \"append_overhead_ratio\": {:.4}, \"coldstart_replayed_ns\": {replayed_start:.1}, \
         \"coldstart_speedup_vs_cold\": {:.2}, \"coldstart_vs_warm\": {:.2}, \
         \"restart_first_solve_ns\": {:.1}}},\n",
        replayed_entries as f64 / (replay_ns as f64 / 1e9).max(1e-9),
        cold_persist / cold.max(1.0),
        cold / replayed_start.max(1.0),
        replayed_start / warm.max(1.0),
        lookup("serve/restart_first_solve".to_owned()),
    ));
    // --- gateway section: routing overhead over a direct backend and the
    // hedge's tail-latency rescue under a slow primary. ---
    let direct_warm = lookup("gateway/direct_solve_warm".to_owned());
    let routed_warm = lookup("gateway/routed_solve_warm".to_owned());
    let hedge_off = lookup("gateway/hedge_off_slow".to_owned());
    let hedge_on = lookup("gateway/hedge_on_slow".to_owned());
    json.push_str(&format!(
        "  \"gateway\": {{\"direct_solve_warm_ns\": {direct_warm:.1}, \
         \"routed_solve_warm_ns\": {routed_warm:.1}, \"routing_overhead_ratio\": {:.4}, \
         \"hedge_off_slow_ns\": {hedge_off:.1}, \"hedge_on_slow_ns\": {hedge_on:.1}, \
         \"hedge_tail_speedup\": {:.2}}},\n",
        routed_warm / direct_warm.max(1.0),
        hedge_off / hedge_on.max(1.0),
    ));
    // --- telemetry section: the record-path cost and the spans-off vs
    // spans-on pipeline ratio (off must stay within the acceptance bound
    // of the untelemetried baseline). ---
    let spans_off = lookup(format!("telemetry/pipeline_{telem_insts}_spans_off"));
    let spans_on = lookup(format!("telemetry/pipeline_{telem_insts}_spans_on"));
    json.push_str(&format!(
        "  \"telemetry\": {{\"record_overhead_ns\": {:.1}, \"span_disabled_ns\": {:.1}, \
         \"pipeline_spans_off_ns\": {spans_off:.1}, \"pipeline_spans_on_ns\": {spans_on:.1}, \
         \"spans_on_overhead_ratio\": {:.4}}},\n",
        lookup("telemetry/record_overhead".to_owned()),
        lookup("telemetry/span_disabled".to_owned()),
        spans_on / spans_off.max(1.0),
    ));
    json.push_str("  \"stats\": [\n");
    for (i, (name, s)) in stats_records.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{name}\", \"graph_nodes\": {}, \"graph_edges\": {}, \
             \"quotient_nodes\": {}, \"sketch_states\": {}, \"constraints\": {}, \
             \"solve_ns\": {}, \"cache_hits\": {}, \"cache_misses\": {}}}{}\n",
            s.graph_nodes,
            s.graph_edges,
            s.quotient_nodes,
            s.sketch_states,
            s.constraints,
            s.solve_ns,
            s.cache_hits,
            s.cache_misses,
            if i + 1 == stats_records.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    let _ = std::fs::remove_dir_all(&store_dir);
    match out_path {
        Some(p) => {
            std::fs::write(&p, &json).expect("write bench JSON");
            eprintln!("wrote {p}");
        }
        None => {
            std::io::stdout().write_all(json.as_bytes()).expect("stdout");
        }
    }
}
