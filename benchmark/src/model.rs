//! The four workloads' networks and the cold set-up every run starts
//! with.
//!
//! Network specs carry their own fixed seeds, so structural counts are
//! identical for every `--seed`; the specs are copies (this crate does
//! not depend on `fastbn-bench`, which the roadmap plans to restructure).

use std::sync::Arc;
use std::time::{Duration, Instant};

use fastbn::bayesnet::bif;
use fastbn::bayesnet::generators::{windowed_dag, ArityDist, CptStyle, WindowedDagSpec};
use fastbn::jtree::stats::{tree_stats, TreeStats};
use fastbn::{
    BayesianNetwork, CacheConfig, EngineKind, JtreeOptions, ModelConfig, Prepared, Registry,
    RoutedServer, Solver,
};

use crate::spans::Recorder;

/// The micro-batching knobs `served-mix` fixes (everything else is the
/// server's default).
pub const SERVE_MAX_BATCH: usize = 8;
pub const SERVE_MAX_DELAY: Duration = Duration::from_micros(200);
/// Entries of the hailfinder model's result cache under `served-mix`.
pub const SERVE_CACHE_ENTRIES: usize = 128;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SmallCliques,
    LargeCliques,
    ServedMix,
    LiveEdits,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SmallCliques,
        Workload::LargeCliques,
        Workload::ServedMix,
        Workload::LiveEdits,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SmallCliques => "small-cliques",
            Workload::LargeCliques => "large-cliques",
            Workload::ServedMix => "served-mix",
            Workload::LiveEdits => "live-edits",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line on why the workload exists (also in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::SmallCliques => {
                "376 cliques of at most 729 entries: 1500 tiny kernel calls and 200 pool regions per query, so per-call and dispatch costs rule"
            }
            Workload::LargeCliques => {
                "14 cliques, 1.21 M entries (largest 390625): time is inside the table kernels and memory traffic, 20 regions per query"
            }
            Workload::ServedMix => {
                "two models behind RoutedServer, mixed query modes, cache on one: admission, queue, window, batch and delivery dominate"
            }
            Workload::LiveEdits => {
                "incremental evidence edits and reads on the 1003-node model: dirty-path collect and lazy distribute, no pool regions"
            }
        }
    }

    /// The networks the workload serves, first one primary (the one the
    /// layer probes of the traced run use).
    pub fn specs(self) -> Vec<WindowedDagSpec> {
        match self {
            Workload::SmallCliques => vec![pigs()],
            Workload::LargeCliques => vec![few_large_cliques()],
            Workload::ServedMix => vec![hailfinder(), pathfinder()],
            Workload::LiveEdits => vec![munin2()],
        }
    }

    /// Size of the evidence-case pool the op stream draws from.
    pub fn case_pool(self) -> usize {
        match self {
            Workload::SmallCliques => 256,
            Workload::LargeCliques => 64,
            Workload::ServedMix => 512,
            Workload::LiveEdits => 64,
        }
    }
}

fn spec(
    name: &str,
    (nodes, target_arcs, max_parents, window): (usize, usize, usize, usize),
    arity: ArityDist,
    alpha: f64,
    seed: u64,
) -> WindowedDagSpec {
    WindowedDagSpec {
        name: name.into(),
        nodes,
        target_arcs,
        max_parents,
        window,
        arity,
        cpt: CptStyle { alpha },
        seed,
    }
}

fn pigs() -> WindowedDagSpec {
    spec(
        "pigs-analogue",
        (441, 592, 2, 7),
        ArityDist::Fixed(3),
        0.5,
        4,
    )
}

fn few_large_cliques() -> WindowedDagSpec {
    spec(
        "few-large-cliques",
        (24, 60, 4, 8),
        ArityDist::Fixed(5),
        1.0,
        0xA1,
    )
}

fn hailfinder() -> WindowedDagSpec {
    let arity = ArityDist::Weighted(vec![(2, 0.40), (3, 0.25), (4, 0.20), (5, 0.07), (11, 0.08)]);
    spec("hailfinder-analogue", (56, 66, 4, 5), arity, 0.6, 1)
}

fn pathfinder() -> WindowedDagSpec {
    let arity = ArityDist::Weighted(vec![
        (2, 0.50),
        (3, 0.22),
        (4, 0.18),
        (8, 0.06),
        (32, 0.02),
        (63, 0.02),
    ]);
    spec("pathfinder-analogue", (109, 195, 5, 6), arity, 0.6, 2)
}

fn munin2() -> WindowedDagSpec {
    let arity = ArityDist::Weighted(vec![
        (2, 0.20),
        (3, 0.20),
        (4, 0.15),
        (5, 0.15),
        (7, 0.15),
        (10, 0.10),
        (21, 0.05),
    ]);
    spec("munin2-analogue", (1003, 1244, 3, 4), arity, 0.6, 5)
}

/// One compiled network with both configurations' solvers.
pub struct Model {
    pub id: String,
    /// The generator seed of the spec, for choices that must not move
    /// with `--seed` (hot set, watched variable).
    pub spec_seed: u64,
    pub net: BayesianNetwork,
    pub bif_bytes: usize,
    pub prepared: Arc<Prepared>,
    /// Product configuration: `EngineKind::Hybrid`, `T` threads.
    pub product: Arc<Solver>,
    /// Baseline configuration: `EngineKind::Seq`, 1 thread.
    pub baseline: Arc<Solver>,
}

impl Model {
    pub fn stats(&self) -> TreeStats {
        tree_stats(&self.net, &self.prepared.built)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Config {
    /// Fast-BNI-par: hybrid engine, `T` threads.
    Product,
    /// Fast-BNI-seq: sequential engine, 1 thread.
    Baseline,
}

impl Config {
    pub fn engine(self) -> EngineKind {
        match self {
            Config::Product => EngineKind::Hybrid,
            Config::Baseline => EngineKind::Seq,
        }
    }
}

/// generate → `to_bif_string` → `bif::parse_str`, each stage its own
/// span. The parsed network is the one every later stage uses, so the
/// BIF round trip is on the measured path, as it is for a user loading a
/// model file.
fn load_network(spec: &WindowedDagSpec, rec: &mut Recorder) -> (BayesianNetwork, usize) {
    let generated = rec.scope("bayesnet.generate", || windowed_dag(spec));
    let text = rec.scope("bayesnet.bif_write", || bif::to_bif_string(&generated));
    let net = rec.scope("bayesnet.bif_parse", || {
        bif::parse_str(&text).expect("the BIF writer's output parses")
    });
    (net, text.len())
}

/// One complete cold set-up of a workload's solvers: for every network,
/// generate → write BIF → parse BIF → `Prepared::new` → build the
/// product and the baseline solver.
pub fn build_models(workload: Workload, threads: usize, rec: &mut Recorder) -> Vec<Model> {
    workload
        .specs()
        .iter()
        .map(|spec| {
            let (net, bif_bytes) = load_network(spec, rec);
            let prepared = rec.scope("inference.prepare", || {
                Arc::new(Prepared::new(&net, &JtreeOptions::default()))
            });
            let (product, baseline) = rec.scope("inference.solver_build", || {
                let build = |config: Config| {
                    Arc::new(
                        Solver::from_prepared(Arc::clone(&prepared))
                            .engine(config.engine())
                            .threads(threads)
                            .build(),
                    )
                };
                (build(Config::Product), build(Config::Baseline))
            });
            Model {
                id: spec.name.clone(),
                spec_seed: spec.seed,
                net,
                bif_bytes,
                prepared,
                product,
                baseline,
            }
        })
        .collect()
}

/// Whether model `index` of `count` served together gets the result
/// cache (and the Zipf-popular evidence that makes it hit): the first of
/// several does. A lone model is served uncached, so every request
/// reaches the engine.
pub fn caches(index: usize, count: usize) -> bool {
    index == 0 && count > 1
}

/// A registry of `models` on one shared pool of `threads`, behind a
/// running `RoutedServer`. The registry compiles each network itself
/// (`Registry::load`), as a serving process would.
pub struct Served {
    pub registry: Arc<Registry>,
    pub server: RoutedServer,
}

pub fn start_server(
    models: &[(&str, &BayesianNetwork)],
    config: Config,
    threads: usize,
    tracer: Option<Arc<fastbn::Tracer>>,
) -> Served {
    let registry = Arc::new(Registry::builder().threads(threads).build());
    for (i, &(id, net)) in models.iter().enumerate() {
        let mut model = ModelConfig::new().engine(config.engine());
        if caches(i, models.len()) {
            model = model.cache(CacheConfig {
                max_entries: SERVE_CACHE_ENTRIES,
                ..CacheConfig::default()
            });
        }
        registry
            .load(id, net, &model)
            .expect("an unbounded registry accepts every model");
    }
    let mut builder = RoutedServer::builder(Arc::clone(&registry))
        .workers(threads)
        .max_batch(SERVE_MAX_BATCH)
        .max_delay(SERVE_MAX_DELAY);
    if let Some(tracer) = tracer {
        builder = builder.tracer(tracer);
    }
    Served {
        registry,
        server: builder.build(),
    }
}

/// The set-up a user of the workload pays before the first answer, run
/// cold and dropped again: [`build_models`], plus for `served-mix` the
/// registry load of both models and a server start and shutdown.
pub fn cold_setup(workload: Workload, threads: usize) -> Duration {
    let start = Instant::now();
    let mut rec = Recorder::disabled();
    if workload == Workload::ServedMix {
        let nets: Vec<(String, BayesianNetwork)> = workload
            .specs()
            .iter()
            .map(|spec| (spec.name.clone(), load_network(spec, &mut rec).0))
            .collect();
        let refs: Vec<(&str, &BayesianNetwork)> =
            nets.iter().map(|(id, net)| (id.as_str(), net)).collect();
        let served = start_server(&refs, Config::Product, threads, None);
        served.server.shutdown();
    } else {
        drop(build_models(workload, threads, &mut rec));
    }
    start.elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// (cliques, total clique entries, layers) per network. A generator
    /// or triangulation change must fail here instead of silently moving
    /// the recorded baseline.
    #[test]
    fn structural_counts_are_pinned() {
        type Counts = (usize, usize, usize);
        let expected: [(Workload, &[Counts]); 4] = [
            (Workload::SmallCliques, &[(376, 34_854, 50)]),
            (Workload::LargeCliques, &[(14, 1_209_650, 5)]),
            (Workload::ServedMix, &[(43, 4_286, 8), (69, 45_670, 21)]),
            (Workload::LiveEdits, &[(709, 248_768, 29)]),
        ];
        for (workload, counts) in expected {
            let models = build_models(workload, 2, &mut Recorder::disabled());
            let got: Vec<Counts> = models
                .iter()
                .map(|m| {
                    let s = m.stats();
                    (s.num_cliques, s.total_clique_entries, s.num_layers)
                })
                .collect();
            assert_eq!(got, counts, "{}", workload.name());
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
