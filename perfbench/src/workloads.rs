//! The three closed-loop workloads: set-up, one measured pass, teardown.
//!
//! A pass goes once over one suite of the run ([`crate::corpus`]); pass
//! `p` takes suite `p mod K`.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::Instant;

use retypd_core::{Lattice, Solver};
use retypd_driver::ModuleJob;
use retypd_gateway::{BackendSpec, GatewayConfig, GatewayHandle};
use retypd_minic::codegen::compile;
use retypd_serve::{Client, ClientError, ServeConfig, ServerHandle, WireReport};

use crate::calib::{module_factors, sample_ns, scale};
use crate::corpus::{self, Corpus, Reference, Source};
use crate::sys::process_cpu_ns;
use crate::trace::Tracer;

/// The workloads, by their command-line names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// minic compile → congen → fresh `Solver::infer`, one thread.
    DecompileCold,
    /// `solve_module` through an in-process gateway over two warm
    /// in-process backends, one connection.
    RoutedWarm,
    /// A fresh in-process `serve` with an empty store per pass, two
    /// connections sharing the suite.
    ServeCold,
}

impl Workload {
    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "decompile-cold" => Some(Workload::DecompileCold),
            "routed-warm" => Some(Workload::RoutedWarm),
            "serve-cold" => Some(Workload::ServeCold),
            _ => None,
        }
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DecompileCold => "decompile-cold",
            Workload::RoutedWarm => "routed-warm",
            Workload::ServeCold => "serve-cold",
        }
    }

    /// Load threads (and client connections) the workload keeps busy.
    pub fn threads(self) -> usize {
        match self {
            Workload::ServeCold => connections(),
            Workload::DecompileCold | Workload::RoutedWarm => 1,
        }
    }
}

/// What one measured pass over a suite produced.
#[derive(Default)]
pub struct Pass {
    /// Machine instructions of the suite.
    pub insts: usize,
    /// Wall time of the measured work.
    pub wall_ns: u64,
    /// Process CPU time (all threads) over the same window.
    pub cpu_ns: u64,
    /// Per-module latency.
    pub latency_ns: Vec<u64>,
    /// Per-module time spent inside the solve: the solver's phase total
    /// in-process, or the time a server reported for its own solve
    /// (`WireReport::wall_ns`).
    pub inner_ns: Vec<u64>,
    /// Modules whose output failed its check.
    pub failed: u64,
    /// Of those, `overloaded` replies.
    pub overloaded: u64,
    /// Host-speed probe time around the pass ([`crate::calib`]).
    pub probe_ns: u64,
    /// Per-module host-speed scale factors: from short probes between
    /// modules where the workload runs one module at a time, else the
    /// pass's own factor for every module.
    pub factors: Vec<f64>,
}

impl Pass {
    /// The pass's scale factor: the per-module factors weighted by latency.
    pub fn factor(&self) -> f64 {
        let raw: u64 = self.latency_ns.iter().sum();
        let scaled: f64 = self
            .latency_ns
            .iter()
            .zip(&self.factors)
            .map(|(&n, f)| n as f64 * f)
            .sum();
        scaled / raw.max(1) as f64
    }
}

type Reply = Result<WireReport, ClientError>;

/// Two one-shard backends behind a gateway, all in this process.
pub struct Fleet {
    /// The gateway.
    pub gateway: GatewayHandle,
    /// The backends, by gateway slot.
    pub backends: Vec<ServerHandle>,
    /// One client connection to the gateway.
    pub client: Client,
}

impl Fleet {
    /// Starts the backends and the gateway, primes the backends' caches
    /// with every job through the gateway, and connects the measuring
    /// client. Returns the fleet and the failed checks of the priming.
    pub fn start<'j>(jobs: impl IntoIterator<Item = (&'j ModuleJob, &'j String)>) -> (Fleet, u64) {
        let backends: Vec<ServerHandle> = (0..2)
            .map(|_| {
                retypd_serve::start(ServeConfig {
                    shards: 1,
                    // Room for every suite of the run: warm means warm.
                    cache_capacity: Some(1 << 16),
                    ..ServeConfig::default()
                })
                .expect("bind an ephemeral backend port")
            })
            .collect();
        let gateway = retypd_gateway::start(
            GatewayConfig::default(),
            backends
                .iter()
                .map(|b| BackendSpec::External { addr: b.addr() })
                .collect(),
        )
        .expect("gateway starts");
        // Prime over as many connections as there are cores, each taking
        // the next job.
        let jobs: Vec<(&ModuleJob, &String)> = jobs.into_iter().collect();
        let next = AtomicUsize::new(0);
        let addr = gateway.addr();
        let failed: u64 = thread::scope(|s| {
            let handles: Vec<_> = (0..connections())
                .map(|_| {
                    let (next, jobs) = (&next, &jobs);
                    s.spawn(move || {
                        let mut client = Client::connect(addr).expect("connect to the gateway");
                        let mut failed = 0;
                        while let Some((job, want)) = jobs.get(next.fetch_add(1, Ordering::Relaxed))
                        {
                            failed += u64::from(!check_reply(&client.solve_module(job), want).0);
                        }
                        failed
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("priming thread"))
                .sum()
        });
        let client = Client::connect(addr).expect("connect to the gateway");
        (
            Fleet {
                gateway,
                backends,
                client,
            },
            failed,
        )
    }

    /// Drains the gateway, then every backend.
    pub fn shutdown(self) {
        drop(self.client);
        self.gateway.shutdown();
        for b in self.backends {
            b.shutdown();
        }
    }
}

/// Every job of every suite with its expected canonical text.
pub fn all_jobs(reference: &Reference) -> impl Iterator<Item = (&ModuleJob, &String)> {
    reference
        .corpora
        .iter()
        .flat_map(|c| c.jobs.iter().zip(&c.texts))
}

/// Checks one served reply against the sequential reference: whether it
/// is right, and whether it was an `overloaded` refusal.
pub fn check_reply(reply: &Result<WireReport, ClientError>, want: &str) -> (bool, bool) {
    match reply {
        Ok(r) => (r.canonical_text() == want, false),
        Err(ClientError::Overloaded { .. }) => (false, true),
        Err(_) => (false, false),
    }
}

fn tally(pass: &mut Pass, replies: &[Result<WireReport, ClientError>], corpus: &Corpus) {
    for (reply, want) in replies.iter().zip(&corpus.texts) {
        let (ok, overloaded) = check_reply(reply, want);
        if !ok {
            pass.failed += 1;
            pass.overloaded += u64::from(overloaded);
        }
        pass.inner_ns.push(reply.as_ref().map_or(0, |r| r.wall_ns));
    }
}

/// A set-up workload: its inputs and whatever servers it owns.
pub struct State {
    workload: Workload,
    lattice: Lattice,
    /// Source modules per suite (`decompile-cold` only).
    sources: Vec<Vec<Source>>,
    fleet: Option<Fleet>,
    scratch: PathBuf,
    passes: usize,
}

impl State {
    /// Sets the workload up once; returns the state, the set-up time and
    /// the failed checks of a priming pass. Set-up is what a user pays
    /// before the first module: the lattice and the source modules
    /// (`decompile-cold`); backends, gateway and the priming pass over
    /// every suite (`routed-warm`); server start and store creation
    /// (`serve-cold`).
    pub fn setup(
        workload: Workload,
        seed: u64,
        reference: &Reference,
        scratch: &Path,
    ) -> (State, f64, u64) {
        let t = Instant::now();
        let mut state = State {
            workload,
            lattice: Lattice::c_types(),
            sources: Vec::new(),
            fleet: None,
            scratch: scratch.to_path_buf(),
            passes: 0,
        };
        let mut failed = 0;
        match workload {
            Workload::DecompileCold => {
                state.sources = corpus::sub_seeds(seed).map(corpus::sources).collect();
            }
            Workload::RoutedWarm => {
                let (fleet, f) = Fleet::start(all_jobs(reference));
                state.fleet = Some(fleet);
                failed = f;
            }
            Workload::ServeCold => {
                let dir = state.scratch.join("setup-store");
                let server = start_persistent(&dir);
                let setup = t.elapsed().as_secs_f64();
                server.shutdown();
                let _ = std::fs::remove_dir_all(&dir);
                return (state, setup, 0);
            }
        }
        (state, t.elapsed().as_secs_f64(), failed)
    }

    /// The serve/gateway fleet of `routed-warm`.
    pub fn fleet(&mut self) -> Option<&mut Fleet> {
        self.fleet.as_mut()
    }

    /// Runs the next measured pass, over the next suite.
    pub fn pass(&mut self, reference: &Reference, tracer: &mut Tracer) -> Pass {
        let k = self.passes % reference.corpora.len();
        self.passes += 1;
        let corpus = &reference.corpora[k];
        let mut pass = match self.workload {
            Workload::DecompileCold => self.decompile_pass(k, corpus, tracer),
            Workload::RoutedWarm => {
                let mut pass = Pass::default();
                let fleet = self.fleet.as_mut().expect("routed-warm owns a fleet");
                let mut probes = vec![sample_ns()];
                let replies: Vec<_> = corpus
                    .jobs
                    .iter()
                    .enumerate()
                    .map(|(i, job)| {
                        let (t, cpu) = (Instant::now(), process_cpu_ns());
                        let span = tracer.open("request", i);
                        let reply = fleet.client.solve_module(job);
                        tracer.close(span);
                        let ns = t.elapsed().as_nanos() as u64;
                        pass.cpu_ns += process_cpu_ns() - cpu;
                        pass.wall_ns += ns;
                        pass.latency_ns.push(ns);
                        probes.push(sample_ns());
                        reply
                    })
                    .collect();
                pass.factors = module_factors(&probes);
                tally(&mut pass, &replies, corpus);
                pass
            }
            Workload::ServeCold => self.serve_cold_pass(corpus, tracer),
        };
        pass.insts = corpus.total_insts();
        pass
    }

    fn decompile_pass(&self, k: usize, corpus: &Corpus, tracer: &mut Tracer) -> Pass {
        let mut pass = Pass::default();
        let mut probes = vec![sample_ns()];
        for (i, src) in self.sources[k].iter().enumerate() {
            let (t, cpu) = (Instant::now(), process_cpu_ns());
            let root = tracer.open("module", i);
            let (mir, _truth) = tracer
                .span("minic.compile", i, || compile(&src.module))
                .expect("suite modules compile");
            let program = tracer.span("congen.generate", i, || retypd_congen::generate(&mir));
            let result = tracer.span("core.infer", i, || {
                Solver::new(&self.lattice).infer(&program)
            });
            tracer.close(root);
            let ns = t.elapsed().as_nanos() as u64;
            pass.cpu_ns += process_cpu_ns() - cpu;
            pass.wall_ns += ns;
            pass.latency_ns.push(ns);
            let s = &result.stats;
            pass.inner_ns
                .push(s.simplify_ns + s.saturate_ns + s.sketch_ns + s.transducer_ns);
            // The check, outside the timed window.
            if WireReport::from_result(&src.name, &result).canonical_text() != corpus.texts[i] {
                pass.failed += 1;
            }
            probes.push(sample_ns());
        }
        pass.factors = module_factors(&probes);
        pass
    }

    fn serve_cold_pass(&self, corpus: &Corpus, tracer: &mut Tracer) -> Pass {
        let mut pass = Pass::default();
        let dir = self.scratch.join(format!("pass-{}", self.passes));
        let _ = std::fs::remove_dir_all(&dir);
        let conns = connections();
        let jobs = &corpus.jobs;
        let order = corpus.largest_first();
        let (t, cpu) = (Instant::now(), process_cpu_ns());
        let root = tracer.open("pass", 0);
        let server = tracer.span("serve.start", 0, || start_persistent(&dir));
        let addr = server.addr();
        // Closed loop: a connection sends its next module as soon as its
        // previous reply is in, and probes the host between requests.
        // Connection 0 takes the largest module left, the others the
        // smallest, so a suite's two biggest solves never queue behind each
        // other on one shard (whether they would depends on their content
        // fingerprints, which would make the tail jump from seed to seed).
        let queue = Mutex::new(VecDeque::from(order));
        let per_conn: Vec<(Vec<(usize, u64, Reply)>, Vec<u64>)> = thread::scope(|s| {
            let handles: Vec<_> = (0..conns)
                .map(|c| {
                    let queue = &queue;
                    s.spawn(move || {
                        let mut client = Client::connect(addr).expect("connect to serve");
                        let mut probes = vec![sample_ns()];
                        let mut out = Vec::new();
                        let take = || {
                            let mut q = queue.lock().expect("module queue");
                            if c == 0 {
                                q.pop_front()
                            } else {
                                q.pop_back()
                            }
                        };
                        while let Some(i) = take() {
                            let t = Instant::now();
                            let reply = client.solve_module(&jobs[i]);
                            out.push((i, t.elapsed().as_nanos() as u64, reply));
                            probes.push(sample_ns());
                        }
                        (out, probes)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("connection thread"))
                .collect()
        });
        tracer.span("serve.shutdown", 0, || server.shutdown());
        tracer.close(root);
        pass.wall_ns = t.elapsed().as_nanos() as u64;
        pass.cpu_ns = process_cpu_ns() - cpu;
        let _ = std::fs::remove_dir_all(&dir);

        // Both connections run at once, so every module of the pass gets
        // the pass's factor: the median of all their probes.
        let mut probes: Vec<u64> = per_conn
            .iter()
            .flat_map(|(_, p)| p.iter().copied())
            .collect();
        probes.sort_unstable();
        let factor = scale(probes[probes.len() / 2]);
        let mut slots: Vec<Option<(u64, Reply)>> = (0..jobs.len()).map(|_| None).collect();
        for (i, ns, reply) in per_conn.into_iter().flat_map(|(out, _)| out) {
            slots[i] = Some((ns, reply));
        }
        let mut replies = Vec::with_capacity(jobs.len());
        for slot in slots {
            let (ns, reply) = slot.expect("every module was sent");
            pass.latency_ns.push(ns);
            pass.factors.push(factor);
            replies.push(reply);
        }
        tally(&mut pass, &replies, corpus);
        pass
    }

    /// Stops every server the workload started.
    pub fn teardown(self) {
        if let Some(fleet) = self.fleet {
            fleet.shutdown();
        }
    }
}

/// Client connections (and load threads) of `serve-cold`: two, but never
/// more than the machine has cores.
pub fn connections() -> usize {
    thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// Starts a two-shard `serve` whose stores live under `dir`.
pub fn start_persistent(dir: &Path) -> ServerHandle {
    retypd_serve::start(ServeConfig {
        shards: 2,
        persist_dir: Some(dir.to_path_buf()),
        ..ServeConfig::default()
    })
    .expect("bind an ephemeral serve port")
}
