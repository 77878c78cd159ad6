//! The benchmark corpus: the Figure 7 suite (`retypd_bench::SINGLES` plus
//! the six `retypd_bench::clusters()`), re-seeded.
//!
//! Sub-seed 0 reproduces the suite exactly; any other sub-seed moves every
//! generator seed and keeps every shape (function counts, cluster
//! membership, shared-library sizes), so cluster members still share SCCs.
//! A run with workload seed `n` cycles through the [`SUB_CORPORA`] suites
//! of sub-seeds `n·K … n·K + K − 1`, so seed 0 starts with the Fig. 7
//! suite itself. Which module lands at a latency percentile, how work
//! splits across shards, and the accuracy scores all depend on the
//! generated content; averaging over several suites per run keeps that
//! content variance out of the seed-to-seed spread.

use retypd_bench::{clusters, generate_single, SingleSpec, SINGLES};
use retypd_core::{Lattice, Solver};
use retypd_driver::ModuleJob;
use retypd_eval::front::convert_result;
use retypd_eval::{score, ToolMetrics};
use retypd_minic::ast::Module;
use retypd_minic::codegen::compile;
use retypd_minic::genprog::ProgramGenerator;
use retypd_minic::truth::GroundTruth;
use retypd_serve::wire::WireReport;

/// One generated source module.
pub struct Source {
    /// Module name (suite entry or cluster member).
    pub name: String,
    /// The mini-C module.
    pub module: Module,
}

/// Moves a suite seed by the workload seed; seed 0 is the identity.
pub fn reseed(suite_seed: u64, seed: u64) -> u64 {
    suite_seed.wrapping_add(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Suites per run.
pub const SUB_CORPORA: usize = 8;

/// The sub-seeds of workload seed `seed`.
pub fn sub_seeds(seed: u64) -> impl Iterator<Item = u64> {
    (0..SUB_CORPORA as u64).map(move |j| seed.wrapping_mul(SUB_CORPORA as u64).wrapping_add(j))
}

/// Generates the whole suite for one sub-seed: singles, then cluster
/// members.
pub fn sources(seed: u64) -> Vec<Source> {
    let mut out: Vec<Source> = SINGLES
        .iter()
        .map(|s| Source {
            name: s.name.to_owned(),
            module: generate_single(&SingleSpec {
                name: s.name,
                description: s.description,
                functions: s.functions,
                seed: reseed(s.seed, seed),
            }),
        })
        .collect();
    for mut spec in clusters() {
        spec.seed = reseed(spec.seed, seed);
        out.extend(
            ProgramGenerator::generate_cluster(&spec)
                .into_iter()
                .map(|(name, module)| Source { name, module }),
        );
    }
    out
}

/// Accuracy against minic's ground truth, micro-averaged over the corpus
/// (each mean weighted by its own slot count).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Accuracy {
    dist_sum: f64,
    slots: usize,
    ptr_sum: f64,
    ptr_slots: usize,
    const_found: f64,
    const_truths: usize,
}

impl Accuracy {
    /// Adds one module's scores.
    pub fn add(&mut self, m: &ToolMetrics) {
        self.dist_sum += m.distance * m.slots as f64;
        self.slots += m.slots;
        self.ptr_sum += m.pointer_accuracy * m.pointer_slots as f64;
        self.ptr_slots += m.pointer_slots;
        self.const_found += m.const_recall * m.const_truths as f64;
        self.const_truths += m.const_truths;
    }

    /// Adds another corpus's totals.
    pub fn merge(&mut self, other: &Accuracy) {
        self.dist_sum += other.dist_sum;
        self.slots += other.slots;
        self.ptr_sum += other.ptr_sum;
        self.ptr_slots += other.ptr_slots;
        self.const_found += other.const_found;
        self.const_truths += other.const_truths;
    }

    /// Scored type slots.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Scored pointer slots.
    pub fn pointer_slots(&self) -> usize {
        self.ptr_slots
    }

    /// Source `const` pointer parameters.
    pub fn const_truths(&self) -> usize {
        self.const_truths
    }

    /// Fig. 8 mean distance to the source types (lower is better).
    pub fn distance(&self) -> f64 {
        self.dist_sum / self.slots.max(1) as f64
    }

    /// Fig. 9 multi-level pointer accuracy.
    pub fn pointer_accuracy(&self) -> f64 {
        self.ptr_sum / self.ptr_slots.max(1) as f64
    }

    /// Recall of source `const` pointer parameters.
    pub fn const_recall(&self) -> f64 {
        self.const_found / self.const_truths.max(1) as f64
    }
}

/// One suite, compiled, with its sequential in-process answers computed
/// before any timing.
pub struct Corpus {
    /// The constraint programs `serve` takes (minic → congen output).
    pub jobs: Vec<ModuleJob>,
    /// Per-module machine instruction counts.
    pub insts: Vec<usize>,
    /// Per-module canonical report text of a sequential `Solver::infer`:
    /// what every workload's output must equal.
    pub texts: Vec<String>,
}

impl Corpus {
    /// Compiles and sequentially solves `sources`, adding the reference
    /// types' scores to `accuracy`.
    pub fn build(sources: Vec<Source>, lattice: &Lattice, accuracy: &mut Accuracy) -> Corpus {
        let mut corpus = Corpus {
            jobs: Vec::new(),
            insts: Vec::new(),
            texts: Vec::new(),
        };
        for src in sources {
            let (mir, truth) = compile(&src.module).expect("suite modules compile");
            corpus.insts.push(mir.instruction_count());
            let program = retypd_congen::generate(&mir);
            let result = Solver::new(lattice).infer(&program);
            accuracy.add(&score_result(&result, lattice, &truth));
            corpus
                .texts
                .push(WireReport::from_result(&src.name, &result).canonical_text());
            corpus.jobs.push(ModuleJob {
                name: src.name,
                program,
            });
        }
        corpus
    }

    /// Machine instructions in the suite.
    pub fn total_insts(&self) -> usize {
        self.insts.iter().sum()
    }

    /// Module indices by instruction count, largest first.
    pub fn largest_first(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.insts.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(self.insts[i]));
        order
    }
}

/// Every suite of a run plus the accuracy of the reference types.
pub struct Reference {
    /// The suites, by sub-seed.
    pub corpora: Vec<Corpus>,
    /// Accuracy of the reference types against minic's ground truth,
    /// over every suite.
    pub accuracy: Accuracy,
}

impl Reference {
    /// Generates, compiles and sequentially solves every suite of `seed`
    /// (suites in parallel, one per core; each solve is sequential).
    pub fn build(seed: u64, lattice: &Lattice) -> Reference {
        let seeds: Vec<u64> = sub_seeds(seed).collect();
        let threads = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(2);
        let mut built: Vec<(usize, Corpus, Accuracy)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let seeds = &seeds;
                    s.spawn(move || {
                        (t..seeds.len())
                            .step_by(threads)
                            .map(|j| {
                                let mut acc = Accuracy::default();
                                (j, Corpus::build(sources(seeds[j]), lattice, &mut acc), acc)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("reference thread"))
                .collect()
        });
        built.sort_by_key(|(j, _, _)| *j);
        let mut accuracy = Accuracy::default();
        let corpora = built
            .into_iter()
            .map(|(_, corpus, acc)| {
                accuracy.merge(&acc);
                corpus
            })
            .collect();
        Reference { corpora, accuracy }
    }

    /// Digest of every suite's canonical text: equal across runs of the
    /// same seed, on every workload.
    pub fn digest(&self) -> u64 {
        self.corpora
            .iter()
            .flat_map(|c| &c.texts)
            .fold(0xcbf2_9ce4_8422_2325, |h, t| fnv(h, t.as_bytes()))
    }

    /// Modules and instructions per suite, and in total.
    pub fn describe(&self) -> String {
        let modules: usize = self.corpora.iter().map(|c| c.jobs.len()).sum();
        let insts: Vec<String> = self
            .corpora
            .iter()
            .map(|c| c.total_insts().to_string())
            .collect();
        format!("modules={modules} insts={}", insts.join("+"))
    }
}

/// Scores one solver result against ground truth.
pub fn score_result(
    result: &retypd_core::SolverResult,
    lattice: &Lattice,
    truth: &GroundTruth,
) -> ToolMetrics {
    score(lattice, &convert_result(result, lattice), truth)
}

/// FNV-1a over `bytes`, continuing from `h`.
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
