//! The outside-in layer sweep of a traced run.
//!
//! The benchmark calls each layer's public functions itself, one module
//! at a time, inside spans: minic compile; mir CFG, frame and reaching
//! definitions per function; congen generate; the solver and both
//! baselines; driver fingerprint and warm solve; the serve wire codec;
//! a direct round trip to the owning backend and a routed one through the
//! gateway. No span is placed inside the program: a layer's inner phases
//! are read from what it already returns (`SolverStats`, `cache_stats`,
//! `persist_stats`, the gateway's merged `metrics` reply).

use std::collections::BTreeMap;
use std::path::Path;

use retypd_baselines::{infer_tie, infer_unification};
use retypd_core::{Lattice, Solver};
use retypd_driver::{AnalysisDriver, DriverConfig, ModuleJob};
use retypd_eval::score;
use retypd_gateway::{route_key, Ring};
use retypd_minic::codegen::compile;
use retypd_mir::{Cfg, FrameInfo, ReachingDefs};
use retypd_serve::wire::{Request, Response, WireModule};
use retypd_serve::{Client, WireReport};

use crate::alloc::counted;
use crate::corpus::{Accuracy, Corpus, Source};
use crate::trace::Tracer;
use crate::workloads::{check_reply, start_persistent, Fleet};

/// Counts that must repeat exactly between runs of the same seed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Exact {
    /// Allocation calls of `ReachingDefs::compute`, whole corpus.
    pub reaching_allocs: u64,
    /// Allocation calls of `retypd_congen::generate`.
    pub generate_allocs: u64,
    /// Allocation calls of `Solver::infer`.
    pub infer_allocs: u64,
    /// Constraints generated.
    pub constraints: u64,
    /// Solver graph nodes, edges and sketch states.
    pub graph_nodes: u64,
    /// See [`Exact::graph_nodes`].
    pub graph_edges: u64,
    /// See [`Exact::graph_nodes`].
    pub sketch_states: u64,
    /// Encoded request and response bytes.
    pub req_bytes: u64,
    /// See [`Exact::req_bytes`].
    pub resp_bytes: u64,
    /// Cache hits and misses of the warm routed and direct replies.
    pub warm_hits: u64,
    /// See [`Exact::warm_hits`].
    pub warm_misses: u64,
}

/// One sweep's results.
pub struct Sweep {
    /// Self time per span name, ns, whole corpus.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Solver phase totals from `SolverStats`, ns.
    pub simplify_ns: u64,
    /// See [`Sweep::simplify_ns`].
    pub saturate_ns: u64,
    /// See [`Sweep::simplify_ns`].
    pub sketch_ns: u64,
    /// See [`Sweep::simplify_ns`].
    pub transducer_ns: u64,
    /// Deterministic counts.
    pub exact: Exact,
    /// Baseline accuracy.
    pub tie: Accuracy,
    /// See [`Sweep::tie`].
    pub unification: Accuracy,
    /// Cold-batch cache hit share and store appends.
    pub cache_hit_frac: f64,
    /// See [`Sweep::cache_hit_frac`].
    pub store_appended: u64,
    /// `overloaded` replies seen.
    pub overloaded: u64,
    /// Gateway counters from the merged `metrics` reply.
    pub reroutes: u64,
    /// See [`Sweep::reroutes`].
    pub hedge_fired: u64,
    /// Modules whose checked outputs were wrong.
    pub failed: u64,
    /// Modules swept.
    pub modules: usize,
}

/// Runs one sweep over one suite (`sources`, compiled as `corpus`),
/// recording spans into `tracer`. `fleet` must be primed with the suite.
pub fn sweep(
    sources: &[Source],
    corpus: &Corpus,
    fleet: &mut Fleet,
    scratch: &Path,
    tracer: &mut Tracer,
) -> Sweep {
    let lattice = Lattice::c_types();
    let lattice_fp = lattice.fingerprint();
    let ring = Ring::build(&(0..fleet.backends.len()).collect::<Vec<_>>());
    let mut direct: Vec<Client> = fleet
        .backends
        .iter()
        .map(|b| Client::connect(b.addr()).expect("connect to a backend"))
        .collect();
    let warm = AnalysisDriver::with_config(&lattice, DriverConfig::with_workers(1));
    let from = tracer.len();
    let mut out = Sweep {
        self_ns: BTreeMap::new(),
        simplify_ns: 0,
        saturate_ns: 0,
        sketch_ns: 0,
        transducer_ns: 0,
        exact: Exact::default(),
        tie: Accuracy::default(),
        unification: Accuracy::default(),
        cache_hit_frac: 0.0,
        store_appended: 0,
        overloaded: 0,
        reroutes: 0,
        hedge_fired: 0,
        failed: 0,
        modules: sources.len(),
    };
    let mut jobs = Vec::with_capacity(sources.len());
    for (i, src) in sources.iter().enumerate() {
        let root = tracer.open("module", i);
        let (mir, truth) = tracer
            .span("minic.compile", i, || compile(&src.module))
            .expect("compiles");
        for f in &mir.funcs {
            let cfg = tracer.span("mir.cfg", i, || Cfg::build(f));
            let frame = tracer.span("mir.frame", i, || FrameInfo::compute(f, &cfg));
            let (_, allocs) = tracer.span("mir.reaching", i, || {
                counted(|| ReachingDefs::compute(f, &cfg, &frame))
            });
            out.exact.reaching_allocs += allocs;
        }
        let (program, allocs) = tracer.span("congen.generate", i, || {
            counted(|| retypd_congen::generate(&mir))
        });
        out.exact.generate_allocs += allocs;
        out.exact.constraints += program
            .procs
            .iter()
            .map(|p| p.constraints.len() as u64)
            .sum::<u64>();
        let (result, allocs) = tracer.span("core.infer", i, || {
            counted(|| Solver::new(&lattice).infer(&program))
        });
        out.exact.infer_allocs += allocs;
        let s = result.stats;
        out.simplify_ns += s.simplify_ns;
        out.saturate_ns += s.saturate_ns;
        out.sketch_ns += s.sketch_ns;
        out.transducer_ns += s.transducer_ns;
        out.exact.graph_nodes += s.graph_nodes as u64;
        out.exact.graph_edges += s.graph_edges as u64;
        out.exact.sketch_states += s.sketch_states as u64;
        let tie = tracer.span("baselines.tie", i, || infer_tie(&program, &lattice));
        out.tie.add(&score(&lattice, &tie, &truth));
        let uni = tracer.span("baselines.unification", i, || {
            infer_unification(&program, &lattice)
        });
        out.unification.add(&score(&lattice, &uni, &truth));

        let job = ModuleJob {
            name: src.name.clone(),
            program,
        };
        let fp = tracer.span("driver.fingerprint", i, || job.fingerprint());
        warm.solve(&job.program); // primes the warm driver, outside any span
        let warm_result = tracer.span("driver.warm_solve", i, || warm.solve(&job.program));
        let want = &corpus.texts[i];
        if WireReport::from_result(&job.name, &warm_result).canonical_text() != *want {
            out.failed += 1;
        }

        let req = tracer.span("serve.wire.req_encode", i, || {
            Request::solve_module(WireModule::from_job(&job)).encode()
        });
        let decoded = tracer.span("serve.wire.req_decode", i, || Request::decode(&req));
        let Ok(Request::SolveModule { module, .. }) = decoded else {
            panic!("a solve_module request decodes to itself");
        };
        let rejob = tracer
            .span("serve.wire.to_job", i, || module.to_job())
            .expect("to_job");
        if rejob.fingerprint() != fp {
            out.failed += 1;
        }
        let resp = tracer.span("serve.wire.resp_encode", i, || {
            let mut report = WireReport::from_result(&job.name, &warm_result);
            // Measured times vary in digit count; zero them so the byte
            // count repeats exactly.
            report.stats.solve_ns = 0;
            report.timing = None;
            Response::Solved(vec![report]).encode()
        });
        let back = tracer.span("serve.wire.resp_decode", i, || Response::decode(&resp));
        if !matches!(back, Ok(Response::Solved(ref r)) if r.len() == 1) {
            out.failed += 1;
        }
        out.exact.req_bytes += req.len() as u64;
        out.exact.resp_bytes += resp.len() as u64;

        let slot = tracer.span("gateway.route", i, || ring.route(route_key(lattice_fp, fp)));
        let slot = slot.expect("the ring has two slots");
        let replies = [
            tracer.span("serve.direct_rtt", i, || direct[slot].solve_module(&job)),
            tracer.span("gateway.routed_rtt", i, || fleet.client.solve_module(&job)),
        ];
        for reply in &replies {
            let (ok, overloaded) = check_reply(reply, want);
            out.failed += u64::from(!ok);
            out.overloaded += u64::from(overloaded);
            if let Ok(r) = reply {
                out.exact.warm_hits += r.stats.cache_hits;
                out.exact.warm_misses += r.stats.cache_misses;
            }
        }
        tracer.close(root);
        jobs.push(job);
    }

    // Whole-corpus driver calls: a fresh two-worker driver with a store.
    let store = scratch.join("sweep.store");
    let _ = std::fs::remove_file(&store);
    let cold = AnalysisDriver::with_config(
        &lattice,
        DriverConfig {
            workers: 2,
            cache_capacity: None,
            persist_path: Some(store.clone()),
        },
    );
    let reports = tracer.span("driver.cold_batch", 0, || cold.solve_batch(&jobs));
    for (r, want) in reports.iter().zip(&corpus.texts) {
        out.failed +=
            u64::from(WireReport::from_result(&r.name, &r.result).canonical_text() != *want);
    }
    cold.flush_store();
    let cs = cold.cache_stats();
    out.cache_hit_frac = cs.hits as f64 / (cs.hits + cs.misses).max(1) as f64;
    out.store_appended = cold.persist_stats().map_or(0, |p| p.appended_entries);
    drop(cold);
    let _ = std::fs::remove_file(&store);

    let dir = scratch.join("sweep-serve");
    let _ = std::fs::remove_dir_all(&dir);
    let server = tracer.span("serve.start", 0, || start_persistent(&dir));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    let metrics = fleet.client.metrics().expect("gateway metrics");
    out.reroutes = metrics.counter("gateway.reroutes");
    out.hedge_fired = metrics.counter("gateway.hedge_fired");
    out.self_ns = tracer.self_ns(from);
    out
}

#[cfg(test)]
mod tests {
    use retypd_bench::{generate_single, SINGLES};
    use retypd_core::Lattice;

    use super::*;
    use crate::alloc::counted;
    use crate::corpus::{Accuracy, Corpus, Source};

    /// The three smallest Fig. 7 singles: a small but complete corpus.
    fn small() -> Vec<Source> {
        SINGLES[..3]
            .iter()
            .map(|s| Source {
                name: s.name.to_owned(),
                module: generate_single(s),
            })
            .collect()
    }

    #[test]
    fn allocator_counts_this_threads_calls() {
        let (v, n) = counted(|| vec![1u8; 64]);
        assert_eq!((v.len(), n), (64, 1));
        let (_, n) = counted(|| std::thread::spawn(|| vec![0u8; 64]).join().unwrap());
        assert!(n >= 1, "spawning allocates on this thread");
    }

    #[test]
    fn exact_counts_repeat_between_sweeps() {
        let lattice = Lattice::c_types();
        let corpus = Corpus::build(small(), &lattice, &mut Accuracy::default());
        let dir = Path::new(".bench_out").join(format!("test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (mut fleet, failed) = Fleet::start(corpus.jobs.iter().zip(&corpus.texts));
        assert_eq!(failed, 0);
        let mut tracer = Tracer::new(true);
        // The first sweep interns every symbol; the next two must agree.
        let sweeps: Vec<Sweep> = (0..3)
            .map(|_| sweep(&small(), &corpus, &mut fleet, &dir, &mut tracer))
            .collect();
        fleet.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
        for s in &sweeps {
            assert_eq!(s.failed, 0, "every checked output is right");
            assert_eq!(s.overloaded, 0);
        }
        assert_eq!(sweeps[1].exact, sweeps[2].exact);
        let e = sweeps[2].exact;
        assert!(e.reaching_allocs > 0 && e.generate_allocs > 0 && e.infer_allocs > 0);
        assert!(e.req_bytes > 0 && e.resp_bytes > 0);
        // Warm replies are all hits.
        assert!(e.warm_hits > 0);
        assert_eq!(e.warm_misses, 0);
        assert_eq!(sweeps[1].tie, sweeps[2].tie);
        for name in [
            "minic.compile",
            "mir.reaching",
            "congen.generate",
            "core.infer",
            "gateway.routed_rtt",
        ] {
            assert!(
                sweeps[2].self_ns.get(name).copied().unwrap_or(0) > 0,
                "{name} has self time"
            );
        }
    }

    #[test]
    fn a_wrong_reply_is_a_failure() {
        let lattice = Lattice::c_types();
        let mut corpus = Corpus::build(small(), &lattice, &mut Accuracy::default());
        let (mut fleet, failed) = Fleet::start(corpus.jobs.iter().zip(&corpus.texts));
        assert_eq!(failed, 0);
        corpus.texts[0].push('x');
        let reply = fleet.client.solve_module(&corpus.jobs[0]);
        assert_eq!(check_reply(&reply, &corpus.texts[0]), (false, false));
        assert_eq!(
            check_reply(&reply, &corpus.texts[0][..corpus.texts[0].len() - 1]),
            (true, false)
        );
        fleet.shutdown();
    }
}
