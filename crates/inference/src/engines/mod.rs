//! The inference engine — one propagation driver (`driver.rs`) that an
//! [`EngineKind`] configures — and the trait it is used through.
//!
//! An engine is a **stateless strategy**: it owns only query-independent
//! structure (the shared [`Prepared`], its compiled layer plans, a thread
//! pool for the parallel kinds) and is therefore `Send + Sync`. All
//! per-query mutable state lives in an explicit
//! [`WorkState`] passed into every call, which
//! is what lets one compiled [`Solver`](crate::solver::Solver) serve any
//! number of concurrent [`Session`](crate::solver::Session)s.

mod driver;
mod naive;

use std::str::FromStr;
use std::sync::Arc;

use fastbn_bayesnet::Evidence;
use fastbn_parallel::ThreadPool;

use crate::error::InferenceError;
use crate::posterior::Posteriors;
use crate::prepared::Prepared;
use crate::state::WorkState;

/// A junction-tree propagation strategy over shared [`Prepared`]
/// structures — implemented once, by the driver every [`EngineKind`]
/// configures.
///
/// Implementations hold no per-query state (`&self` everywhere); the
/// caller supplies a [`WorkState`] that has been `reset` and
/// evidence-absorbed. The driving sequence — reset, evidence, virtual
/// evidence, propagate, extract — lives in
/// [`Session::run`](crate::solver::Session::run), so every engine answers
/// every query type (targeted marginals, virtual evidence, joints)
/// identically.
pub trait InferenceEngine: Send + Sync {
    /// Short display name (matches the paper's column headers).
    fn name(&self) -> &'static str;

    /// Worker count used by parallel regions (1 for sequential kinds).
    fn threads(&self) -> usize;

    /// The worker pool driving this engine's parallel regions, if any
    /// (`None` for the sequential kinds). Batch execution reuses it for
    /// *outer* parallelism — independent queries dispatched across the
    /// team, with each query's own regions nesting on the same pool.
    fn pool(&self) -> Option<&ThreadPool>;

    /// A co-ownable handle to the engine's pool (`None` for the
    /// sequential kinds). Engines hold their pool through an `Arc`
    /// precisely so it can be **shared**: hand this to
    /// [`SolverBuilder::pool`](crate::solver::SolverBuilder::pool)
    /// and another model's engine will run its regions on the same
    /// worker team.
    fn pool_handle(&self) -> Option<Arc<ThreadPool>>;

    /// The shared query-independent structures this engine runs over.
    fn prepared(&self) -> &Arc<Prepared>;

    /// Enters hard evidence into `state` (before propagation) by reducing
    /// each finding's home clique — sequentially, or through the kind's
    /// own reduction primitive where that is part of its cost model. All
    /// forms are bit-identical.
    fn enter_evidence(&self, state: &mut WorkState, evidence: &Evidence);

    /// Runs the two Hugin passes (collect, distribute) on an
    /// evidence-absorbed `state`. After this, every clique holds its
    /// unnormalized posterior.
    fn propagate(&self, state: &mut WorkState);

    /// Reads every variable's normalized posterior out of a propagated
    /// `state` — the last step of an all-marginals query. The default is
    /// [`WorkState::extract_posteriors`] on the caller; the hybrid
    /// configuration reads the marginals of a network with large home
    /// cliques as one pool region over the variables, bit for bit the
    /// same.
    fn extract_posteriors(
        &self,
        state: &WorkState,
        evidence: &Evidence,
    ) -> Result<Posteriors, InferenceError> {
        state.extract_posteriors(self.prepared(), evidence)
    }
}

/// Engine selector: each kind is a configuration of the one propagation
/// driver (message order × table operations; the table is in `driver.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// UnBBayes-substitute textbook baseline.
    Reference,
    /// Fast-BNI-seq.
    Seq,
    /// Kozlov & Singh-style coarse parallelism.
    Direct,
    /// Xia & Prasanna-style node-level primitives.
    Primitive,
    /// Zheng-style element-wise (GPU-analogue) parallelism.
    Element,
    /// Fast-BNI-par hybrid.
    Hybrid,
}

impl EngineKind {
    /// All engines, in the paper's Table 1 column order.
    pub fn all() -> [EngineKind; 6] {
        [
            EngineKind::Reference,
            EngineKind::Seq,
            EngineKind::Direct,
            EngineKind::Primitive,
            EngineKind::Element,
            EngineKind::Hybrid,
        ]
    }

    /// The parallel engines compared in Table 1's right half.
    pub fn parallel() -> [EngineKind; 4] {
        [
            EngineKind::Direct,
            EngineKind::Primitive,
            EngineKind::Element,
            EngineKind::Hybrid,
        ]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            EngineKind::Reference => "Reference",
            EngineKind::Seq => "Fast-BNI-seq",
            EngineKind::Direct => "Direct",
            EngineKind::Primitive => "Primitive",
            EngineKind::Element => "Element",
            EngineKind::Hybrid => "Fast-BNI-par",
        }
    }

    /// Canonical lowercase identifier, the inverse of [`FromStr`]'s
    /// preferred spelling (useful for CLI flags and file names).
    pub fn id(&self) -> &'static str {
        match self {
            EngineKind::Reference => "reference",
            EngineKind::Seq => "seq",
            EngineKind::Direct => "direct",
            EngineKind::Primitive => "primitive",
            EngineKind::Element => "element",
            EngineKind::Hybrid => "hybrid",
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // `pad`, not `write_str`: width/alignment flags ({:<14}) must
        // work, the report examples rely on them for column layout.
        f.pad(self.name())
    }
}

/// Error from parsing an [`EngineKind`]; lists the accepted names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseEngineKindError {
    input: String,
}

impl std::fmt::Display for ParseEngineKindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown engine {:?}; expected one of: reference, seq, direct, primitive, \
             element, hybrid (display names like \"Fast-BNI-par\" also accepted)",
            self.input
        )
    }
}

impl std::error::Error for ParseEngineKindError {}

impl FromStr for EngineKind {
    type Err = ParseEngineKindError;

    /// Parses canonical ids (`seq`, `hybrid`, …) and display names
    /// (`Fast-BNI-par`, …), case-insensitively.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.trim().to_ascii_lowercase();
        for kind in EngineKind::all() {
            if lower == kind.id() || lower == kind.name().to_ascii_lowercase() {
                return Ok(kind);
            }
        }
        Err(ParseEngineKindError {
            input: s.to_string(),
        })
    }
}

/// Instantiates a stateless engine of the requested kind. `threads` is
/// ignored by the sequential kinds; parallel kinds spawn a private
/// pool of that width. Most callers want
/// [`Solver::builder`](crate::solver::Solver::builder) instead, which
/// pairs the engine with a scratch pool.
pub fn make_engine(
    kind: EngineKind,
    prepared: Arc<Prepared>,
    threads: usize,
) -> Box<dyn InferenceEngine> {
    let pool = EngineKind::parallel()
        .contains(&kind)
        .then(|| ThreadPool::shared(threads));
    Box::new(driver::JtDriver::new(kind, prepared, pool))
}

/// Instantiates a stateless engine of the requested kind on an
/// **injected** worker pool — the multi-model path: every engine handed
/// the same `Arc` runs its parallel regions on one shared team instead
/// of spawning `threads` workers each. Task plans (and therefore chunk
/// layouts, and therefore bits) are sized to `pool.threads()`, exactly
/// as a private pool of the same width would size them. The sequential
/// kinds ignore the pool.
pub(crate) fn make_engine_on(
    kind: EngineKind,
    prepared: Arc<Prepared>,
    pool: Arc<ThreadPool>,
) -> Box<dyn InferenceEngine> {
    let pool = EngineKind::parallel().contains(&kind).then_some(pool);
    Box::new(driver::JtDriver::new(kind, prepared, pool))
}

/// A tree whose phases sit on both sides of the break-even: arity 6 over
/// a window of 6 gives cliques of 6^4 = 1 296 and 6^5 = 7 776 entries,
/// which run compiled run programs and count for no phase's work, and
/// one of 6^6 = 46 656, which does.
#[cfg(test)]
fn straddling_tree() -> Arc<Prepared> {
    use fastbn_bayesnet::generators::{windowed_dag, ArityDist, WindowedDagSpec};
    let net = windowed_dag(&WindowedDagSpec {
        target_arcs: 60,
        max_parents: 3,
        window: 6,
        arity: ArityDist::Fixed(6),
        seed: 4,
        ..WindowedDagSpec::new("straddle", 30)
    });
    Arc::new(Prepared::new(&net, &Default::default()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_kind_names_are_stable() {
        assert_eq!(EngineKind::Hybrid.name(), "Fast-BNI-par");
        assert_eq!(EngineKind::all().len(), 6);
        assert_eq!(EngineKind::parallel().len(), 4);
    }

    #[test]
    fn engine_kind_display_matches_name() {
        for kind in EngineKind::all() {
            assert_eq!(kind.to_string(), kind.name());
        }
    }

    #[test]
    fn engine_kind_round_trips_through_id_and_name() {
        for kind in EngineKind::all() {
            assert_eq!(kind.id().parse::<EngineKind>().unwrap(), kind);
            assert_eq!(kind.name().parse::<EngineKind>().unwrap(), kind);
            assert_eq!(
                kind.name().to_uppercase().parse::<EngineKind>().unwrap(),
                kind
            );
        }
    }

    #[test]
    fn engine_kind_parse_rejects_unknown() {
        let err = "turbo".parse::<EngineKind>().unwrap_err();
        assert!(err.to_string().contains("turbo"));
        assert!(err.to_string().contains("hybrid"));
    }

    /// `Seq` ≡ `Hybrid` at width 1 is one code path: both compile every
    /// layer to the same deferred loop over the same oriented messages.
    /// A wider pool changes only the layers that hold enough entries.
    #[test]
    fn seq_and_width_one_hybrid_compile_to_the_same_deferred_layers() {
        use super::driver::{JtDriver, Run};

        let prepared = straddling_tree();
        let hybrid = |threads| {
            let pool = Some(ThreadPool::shared(threads));
            JtDriver::new(EngineKind::Hybrid, prepared.clone(), pool)
        };
        let seq = JtDriver::new(EngineKind::Seq, prepared.clone(), None);
        assert!(seq.pool().is_none() && seq.threads() == 1);

        let narrow = hybrid(1);
        for (a, b) in [
            (&seq.collect, &narrow.collect),
            (&seq.distribute, &narrow.distribute),
        ] {
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                assert!(matches!(x.run, Run::Deferred) && matches!(y.run, Run::Deferred));
                assert_eq!(x.msgs, y.msgs);
            }
        }

        let wide = hybrid(3);
        let runs = || wide.collect.iter().chain(&wide.distribute).map(|l| &l.run);
        let deferred = runs().filter(|r| matches!(r, Run::Deferred)).count();
        let phased = runs().filter(|r| matches!(r, Run::Phased { .. })).count();
        assert!(
            deferred > 0 && phased > 0,
            "{deferred} deferred, {phased} phased"
        );
        assert_eq!(
            deferred + phased,
            wide.collect.len() + wide.distribute.len()
        );
        for (x, y) in seq.collect.iter().zip(&wide.collect) {
            assert_eq!(x.msgs, y.msgs, "the decision never reorders messages");
        }
    }
}

// The per-configuration unit tests, one module per kind and named by
// its `EngineKind::id`: what each configuration compiles to, and that it
// agrees with `Seq` to the bit.

#[cfg(test)]
mod reference {
    mod tests {
        use std::sync::Arc;

        use crate::engines::naive::{self, decode_fresh, position_linear};
        use crate::engines::EngineKind;
        use crate::prepared::Prepared;
        use crate::solver::Solver;
        use fastbn_bayesnet::{datasets, sampler, Evidence, VarId};
        use fastbn_jtree::JtreeOptions;
        use fastbn_potential::{Domain, PotentialTable};

        fn naive_marginal_of_var(
            values: &[f64],
            dom: &Domain,
            var: VarId,
            card: usize,
        ) -> Vec<f64> {
            let mut out = vec![0.0; card];
            for (i, &v) in values.iter().enumerate() {
                let states = decode_fresh(dom, i);
                out[states[position_linear(dom, var)]] += v;
            }
            out
        }

        #[test]
        fn reference_matches_seq_bitwise_on_asia() {
            let net = datasets::asia();
            let prepared = Arc::new(Prepared::new(&net, &JtreeOptions::default()));
            let reference = Solver::from_prepared(prepared.clone())
                .engine(EngineKind::Reference)
                .build();
            let seq = Solver::from_prepared(prepared).build();
            let mut ref_session = reference.session();
            let mut seq_session = seq.session();
            for case in sampler::generate_cases(&net, 25, 0.25, 11) {
                let a = ref_session.posteriors(&case.evidence).unwrap();
                let b = seq_session.posteriors(&case.evidence).unwrap();
                assert_eq!(a.max_abs_diff(&b), 0.0, "case {:?}", case.evidence);
                assert_eq!(a.prob_evidence.to_bits(), b.prob_evidence.to_bits());
            }
        }

        #[test]
        fn reference_matches_seq_on_student_no_evidence() {
            let net = datasets::student();
            let prepared = Arc::new(Prepared::new(&net, &JtreeOptions::default()));
            let reference = Solver::from_prepared(prepared.clone())
                .engine(EngineKind::Reference)
                .build();
            let seq = Solver::from_prepared(prepared).build();
            let a = reference.posteriors(&Evidence::empty()).unwrap();
            let b = seq.posteriors(&Evidence::empty()).unwrap();
            assert_eq!(a.max_abs_diff(&b), 0.0);
        }

        #[test]
        fn naive_helpers_match_optimized_ops() {
            use fastbn_potential::ops;
            let domain = Arc::new(Domain::new(vec![
                (VarId(0), 2),
                (VarId(2), 3),
                (VarId(5), 2),
            ]));
            let values: Vec<f64> = (0..domain.size()).map(|i| (i * i % 13) as f64).collect();
            let table = PotentialTable::from_values(domain.clone(), values);
            let target = Arc::new(Domain::new(vec![(VarId(2), 3)]));

            let naive = naive::marginalize(table.values(), table.domain(), &target);
            let fast = ops::marginalize(&table, target.clone());
            assert_eq!(naive.as_slice(), fast.values());

            let msg_dom = Arc::new(Domain::new(vec![(VarId(5), 2)]));
            let msg = PotentialTable::from_values(msg_dom.clone(), vec![0.5, 2.0]);
            let mut a = table.clone();
            let mut b = table.clone();
            naive::extend_multiply(a.values_mut(), &domain, msg.values(), &msg_dom);
            ops::extend_multiply(&mut b, &msg);
            assert_eq!(a.values(), b.values());

            let mut c = table.clone();
            let mut d = table.clone();
            naive::reduce(c.values_mut(), &domain, VarId(2), 1);
            ops::reduce_evidence(&mut d, VarId(2), 1);
            assert_eq!(c.values(), d.values());

            assert_eq!(
                naive_marginal_of_var(table.values(), &domain, VarId(0), 2),
                ops::marginal_of_var(&table, VarId(0))
            );
        }
    }
}

#[cfg(test)]
mod seq {
    mod tests {
        use crate::error::InferenceError;
        use crate::solver::Solver;
        use fastbn_bayesnet::{datasets, Evidence, VarId};

        fn solver_for(net: &fastbn_bayesnet::BayesianNetwork) -> Solver {
            Solver::new(net) // defaults to `EngineKind::Seq`
        }

        #[test]
        fn asia_prior_marginals_match_published_values() {
            let net = datasets::asia();
            let solver = solver_for(&net);
            let post = solver.posteriors(&Evidence::empty()).unwrap();
            let get = |name: &str| post.marginal(net.var_id(name).unwrap())[0];
            assert!((get("Tuberculosis") - 0.0104).abs() < 1e-6);
            assert!((get("LungCancer") - 0.055).abs() < 1e-6);
            assert!((get("Bronchitis") - 0.45).abs() < 1e-6);
            assert!((get("TbOrCa") - 0.064828).abs() < 1e-6);
            assert!((get("XRay") - 0.11029).abs() < 1e-5);
            assert!((get("Dyspnea") - 0.4359706).abs() < 1e-6);
            assert!((post.prob_evidence - 1.0).abs() < 1e-9);
        }

        #[test]
        fn sprinkler_posterior_given_wet_grass() {
            // Classic Russell & Norvig result:
            // P(Rain | Wet) = 0.4581/0.6471 ≈ 0.70793, P(Sprinkler | Wet) ≈ 0.42976.
            let net = datasets::sprinkler();
            let solver = solver_for(&net);
            let wet = net.var_id("WetGrass").unwrap();
            let post = solver
                .posteriors(&Evidence::from_pairs([(wet, 0)]))
                .unwrap();
            let rain = post.marginal(net.var_id("Rain").unwrap())[0];
            let spr = post.marginal(net.var_id("Sprinkler").unwrap())[0];
            assert!((rain - 0.70793).abs() < 1e-4, "rain {rain}");
            assert!((spr - 0.42976).abs() < 1e-4, "sprinkler {spr}");
            assert!(
                (post.prob_evidence - 0.6471).abs() < 1e-9,
                "P(Wet) = 0.6471"
            );
        }

        #[test]
        fn evidence_marginal_is_point_mass() {
            let net = datasets::cancer();
            let solver = solver_for(&net);
            let smoker = net.var_id("Smoker").unwrap();
            let post = solver
                .posteriors(&Evidence::from_pairs([(smoker, 1)]))
                .unwrap();
            assert_eq!(post.marginal(smoker), &[0.0, 1.0]);
        }

        #[test]
        fn explaining_away_in_cancer_network() {
            let net = datasets::cancer();
            let solver = solver_for(&net);
            let mut session = solver.session();
            let cancer = net.var_id("Cancer").unwrap();
            let xray = net.var_id("XRay").unwrap();
            let prior = session
                .posteriors(&Evidence::empty())
                .unwrap()
                .marginal(cancer)[0];
            let with_xray = session
                .posteriors(&Evidence::from_pairs([(xray, 0)]))
                .unwrap()
                .marginal(cancer)[0];
            assert!(
                with_xray > prior * 3.0,
                "positive x-ray must sharply raise P(cancer): {prior} -> {with_xray}"
            );
        }

        #[test]
        fn repeated_queries_are_independent() {
            // Session state must fully reset between queries.
            let net = datasets::asia();
            let solver = solver_for(&net);
            let mut session = solver.session();
            let dysp = net.var_id("Dyspnea").unwrap();
            let baseline = session.posteriors(&Evidence::empty()).unwrap();
            let _ = session
                .posteriors(&Evidence::from_pairs([(dysp, 0)]))
                .unwrap();
            let again = session.posteriors(&Evidence::empty()).unwrap();
            assert_eq!(baseline.max_abs_diff(&again), 0.0, "bitwise reset");
        }

        #[test]
        fn impossible_evidence_reported() {
            let net = datasets::asia();
            let solver = solver_for(&net);
            let mut session = solver.session();
            // TbOrCa is a deterministic OR: tub=yes & either=no is impossible.
            let tub = net.var_id("Tuberculosis").unwrap();
            let either = net.var_id("TbOrCa").unwrap();
            let err = session
                .posteriors(&Evidence::from_pairs([(tub, 0), (either, 1)]))
                .unwrap_err();
            assert_eq!(err, InferenceError::ImpossibleEvidence);
            // And the session still works afterwards.
            assert!(session.posteriors(&Evidence::empty()).is_ok());
        }

        #[test]
        fn joint_posterior_within_a_clique() {
            // Sprinkler & Rain share a clique; their joint given WetGrass must
            // match brute-force enumeration and its marginals must match the
            // per-variable posteriors.
            let net = datasets::sprinkler();
            let solver = solver_for(&net);
            let mut session = solver.session();
            let wet = net.var_id("WetGrass").unwrap();
            let spr = net.var_id("Sprinkler").unwrap();
            let rain = net.var_id("Rain").unwrap();
            let ev = Evidence::from_pairs([(wet, 0)]);
            let joint = session
                .joint_posterior(&ev, &[rain, spr])
                .unwrap()
                .expect("S and R share a clique");
            assert!((joint.sum() - 1.0).abs() < 1e-12);
            // Marginals of the joint equal the single-variable posteriors.
            let post = session.posteriors(&ev).unwrap();
            let spr_marginal = fastbn_potential::ops::marginal_of_var(&joint, spr);
            for (a, b) in spr_marginal.iter().zip(post.marginal(spr)) {
                assert!((a - b).abs() < 1e-12);
            }
            // Exact joint value: P(S=t, R=t | W=t) = 0.5*(0.1*0.8*0.99 + 0.5*0.2*0.99)/0.6471.
            let expected = 0.5 * (0.1 * 0.8 * 0.99 + 0.5 * 0.2 * 0.99) / 0.6471;
            let got = joint.value_at(&[0, 0]); // sorted order: (Sprinkler, Rain)
            assert!((got - expected).abs() < 1e-9, "{got} vs {expected}");
        }

        #[test]
        fn joint_posterior_out_of_clique_is_none() {
            // VisitAsia and Smoker never co-occur in a clique of the Asia tree.
            let net = datasets::asia();
            let solver = solver_for(&net);
            let mut session = solver.session();
            let a = net.var_id("VisitAsia").unwrap();
            let s = net.var_id("Smoker").unwrap();
            assert!(session
                .joint_posterior(&Evidence::empty(), &[a, s])
                .unwrap()
                .is_none());
        }

        #[test]
        fn all_variables_observed() {
            let net = datasets::student();
            let solver = solver_for(&net);
            let ev = Evidence::from_pairs((0..net.num_vars()).map(|v| (VarId::from_index(v), 0)));
            let post = solver.posteriors(&ev).unwrap();
            for v in 0..net.num_vars() {
                assert_eq!(post.marginal(VarId::from_index(v))[0], 1.0);
            }
            assert!(post.prob_evidence > 0.0 && post.prob_evidence < 1.0);
        }
    }
}

#[cfg(test)]
mod direct {
    mod tests {
        use std::sync::Arc;

        use crate::engines::driver::{JtDriver, Run};
        use crate::engines::EngineKind;
        use crate::error::InferenceError;
        use crate::prepared::Prepared;
        use crate::solver::Solver;
        use fastbn_bayesnet::{datasets, generators, sampler, Evidence};
        use fastbn_jtree::JtreeOptions;
        use fastbn_parallel::ThreadPool;

        #[test]
        fn grouping_collects_common_parents() {
            let net = datasets::asia();
            let prepared = Arc::new(Prepared::new(&net, &JtreeOptions::default()));
            let engine = JtDriver::new(
                EngineKind::Direct,
                prepared.clone(),
                Some(ThreadPool::shared(2)),
            );
            for (layer, ids) in engine
                .collect
                .iter()
                .zip(&prepared.built.schedule.collect_layers)
            {
                let Run::Grouped(groups) = &layer.run else {
                    panic!("direct compiled {:?}", layer.run);
                };
                let total: usize = groups.iter().map(|g| g.msgs.len()).sum();
                assert_eq!(total, ids.len(), "groups partition the layer");
                let mut receivers: Vec<usize> = groups.iter().map(|g| g.receiver).collect();
                receivers.sort_unstable();
                receivers.dedup();
                assert_eq!(receivers.len(), groups.len(), "receivers unique");
                for g in groups {
                    // Collect: every member is a child sending to the group's parent.
                    assert!(g.msgs.iter().all(|m| m.receiver == g.receiver));
                    assert!(g.msgs.windows(2).all(|w| w[0].sender < w[1].sender));
                }
            }
        }

        #[test]
        fn direct_matches_seq_bitwise_across_thread_counts() {
            let net = datasets::asia();
            let prepared = Arc::new(Prepared::new(&net, &JtreeOptions::default()));
            let seq = Solver::from_prepared(prepared.clone()).build();
            let mut seq_session = seq.session();
            let cases = sampler::generate_cases(&net, 20, 0.2, 5);
            for threads in [1, 2, 4] {
                let direct = Solver::from_prepared(prepared.clone())
                    .engine(EngineKind::Direct)
                    .threads(threads)
                    .build();
                let mut session = direct.session();
                for case in &cases {
                    let a = seq_session.posteriors(&case.evidence).unwrap();
                    let b = session.posteriors(&case.evidence).unwrap();
                    assert_eq!(a.max_abs_diff(&b), 0.0, "t={threads}");
                }
            }
        }

        #[test]
        fn direct_matches_seq_on_synthetic_network() {
            let spec = generators::WindowedDagSpec {
                nodes: 40,
                target_arcs: 55,
                max_parents: 3,
                window: 6,
                seed: 3,
                ..generators::WindowedDagSpec::new("direct-test", 40)
            };
            let net = generators::windowed_dag(&spec);
            let prepared = Arc::new(Prepared::new(&net, &JtreeOptions::default()));
            let seq = Solver::from_prepared(prepared.clone()).build();
            let direct = Solver::from_prepared(prepared)
                .engine(EngineKind::Direct)
                .threads(4)
                .build();
            let mut seq_session = seq.session();
            let mut session = direct.session();
            for case in sampler::generate_cases(&net, 10, 0.2, 6) {
                let a = seq_session.posteriors(&case.evidence).unwrap();
                let b = session.posteriors(&case.evidence).unwrap();
                assert_eq!(a.max_abs_diff(&b), 0.0);
            }
        }

        #[test]
        fn impossible_evidence_propagates_error() {
            let net = datasets::asia();
            let direct = Solver::builder(&net)
                .engine(EngineKind::Direct)
                .threads(2)
                .build();
            let tub = net.var_id("Tuberculosis").unwrap();
            let either = net.var_id("TbOrCa").unwrap();
            let err = direct
                .posteriors(&Evidence::from_pairs([(tub, 0), (either, 1)]))
                .unwrap_err();
            assert_eq!(err, InferenceError::ImpossibleEvidence);
        }
    }
}

#[cfg(test)]
mod primitive {
    mod tests {
        use std::sync::Arc;

        use crate::engines::EngineKind;
        use crate::prepared::Prepared;
        use crate::solver::Solver;
        use fastbn_bayesnet::{datasets, generators, sampler};
        use fastbn_jtree::JtreeOptions;

        #[test]
        fn primitive_matches_seq_bitwise() {
            let net = datasets::asia();
            let prepared = Arc::new(Prepared::new(&net, &JtreeOptions::default()));
            let seq = Solver::from_prepared(prepared.clone()).build();
            let mut seq_session = seq.session();
            let cases = sampler::generate_cases(&net, 15, 0.2, 9);
            for threads in [1, 2, 4] {
                let primitive = Solver::from_prepared(prepared.clone())
                    .engine(EngineKind::Primitive)
                    .threads(threads)
                    .build();
                let mut session = primitive.session();
                for case in &cases {
                    let a = seq_session.posteriors(&case.evidence).unwrap();
                    let b = session.posteriors(&case.evidence).unwrap();
                    assert_eq!(a.max_abs_diff(&b), 0.0, "t={threads}");
                    assert_eq!(a.prob_evidence.to_bits(), b.prob_evidence.to_bits());
                }
            }
        }

        #[test]
        fn primitive_matches_seq_on_wider_network() {
            let net = generators::grid(3, 5, 2, 1);
            let prepared = Arc::new(Prepared::new(&net, &JtreeOptions::default()));
            let seq = Solver::from_prepared(prepared.clone()).build();
            let primitive = Solver::from_prepared(prepared)
                .engine(EngineKind::Primitive)
                .threads(3)
                .build();
            let mut seq_session = seq.session();
            let mut session = primitive.session();
            for case in sampler::generate_cases(&net, 8, 0.25, 2) {
                let a = seq_session.posteriors(&case.evidence).unwrap();
                let b = session.posteriors(&case.evidence).unwrap();
                assert_eq!(a.max_abs_diff(&b), 0.0);
            }
        }
    }
}

#[cfg(test)]
mod element {
    mod tests {
        use std::sync::Arc;

        use crate::engines::driver::JtDriver;
        use crate::engines::EngineKind;
        use crate::prepared::Prepared;
        use crate::solver::Solver;
        use fastbn_bayesnet::{datasets, generators, sampler};
        use fastbn_jtree::JtreeOptions;
        use fastbn_parallel::ThreadPool;

        #[test]
        fn element_matches_seq_bitwise() {
            let net = datasets::asia();
            let prepared = Arc::new(Prepared::new(&net, &JtreeOptions::default()));
            let seq = Solver::from_prepared(prepared.clone()).build();
            let mut seq_session = seq.session();
            let cases = sampler::generate_cases(&net, 15, 0.2, 13);
            for threads in [1, 2, 4] {
                let element = Solver::from_prepared(prepared.clone())
                    .engine(EngineKind::Element)
                    .threads(threads)
                    .build();
                let mut session = element.session();
                for case in &cases {
                    let a = seq_session.posteriors(&case.evidence).unwrap();
                    let b = session.posteriors(&case.evidence).unwrap();
                    assert_eq!(a.max_abs_diff(&b), 0.0, "t={threads}");
                }
            }
        }

        #[test]
        fn element_matches_seq_on_polytree() {
            let net = generators::polytree(35, 3, 4);
            let prepared = Arc::new(Prepared::new(&net, &JtreeOptions::default()));
            let seq = Solver::from_prepared(prepared.clone()).build();
            let element = Solver::from_prepared(prepared)
                .engine(EngineKind::Element)
                .threads(2)
                .build();
            let mut seq_session = seq.session();
            let mut session = element.session();
            for case in sampler::generate_cases(&net, 8, 0.2, 5) {
                let a = seq_session.posteriors(&case.evidence).unwrap();
                let b = session.posteriors(&case.evidence).unwrap();
                assert_eq!(a.max_abs_diff(&b), 0.0);
            }
        }

        #[test]
        fn mapping_tables_have_expected_shapes() {
            let net = datasets::sprinkler();
            let prepared = Arc::new(Prepared::new(&net, &JtreeOptions::default()));
            let pool = || Some(ThreadPool::shared(2));
            let engine = JtDriver::new(EngineKind::Element, prepared.clone(), pool());
            assert_eq!(engine.maps.len(), prepared.num_separators());
            for (s, (maps, edge)) in engine.maps.iter().zip(&prepared.sep_plans).enumerate() {
                let sep_size = prepared.sep_domains[s].size();
                for (side, plan) in maps.iter().zip([&edge.child, &edge.parent]) {
                    assert_eq!(side.bases.len(), sep_size);
                    // fibers × sep entries = clique entries.
                    assert_eq!(plan.fibers().len() * sep_size, side.entries.len());
                    assert_eq!(side.entries.len(), plan.sup_size());
                }
            }
            // No other configuration pays for the tables.
            let primitive = JtDriver::new(EngineKind::Primitive, prepared, pool());
            assert!(primitive.maps.is_empty());
        }
    }
}

#[cfg(test)]
mod hybrid {
    mod tests {
        use std::sync::Arc;

        use crate::engines::driver::{JtDriver, Msg, Run};
        use crate::engines::EngineKind;
        use crate::prepared::Prepared;
        use crate::solver::Solver;
        use fastbn_bayesnet::{datasets, generators, sampler, Evidence};
        use fastbn_jtree::JtreeOptions;
        use fastbn_parallel::ThreadPool;

        /// Asserts that `tasks` (as `(lo, hi)` ranges) tile `[0, size)`.
        fn assert_tiles(mut covered: Vec<(usize, usize)>, size: usize) {
            covered.sort_unstable();
            assert_eq!(covered.first().map(|c| c.0), Some(0));
            assert_eq!(covered.last().map(|c| c.1), Some(size));
            assert!(covered.windows(2).all(|w| w[0].1 == w[1].0));
        }

        /// Every parallel phase's task list covers each separator / receiver
        /// entry exactly once (an inline phase has no list: it runs
        /// whole-table kernels; a layer of two inline phases is deferred).
        /// Returns how many phases were compiled (inline, parallel).
        fn check_task_lists(prepared: &Arc<Prepared>, threads: usize) -> (usize, usize) {
            let engine = JtDriver::new(
                EngineKind::Hybrid,
                prepared.clone(),
                Some(ThreadPool::shared(threads)),
            );
            let (mut inline, mut parallel) = (0, 0);
            for pass in [&engine.collect, &engine.distribute] {
                for (l, layer) in pass.iter().enumerate() {
                    let (sep_tasks, recv_region, ahead) = match &layer.run {
                        Run::Deferred => {
                            inline += 2;
                            continue;
                        }
                        Run::Phased {
                            sep_tasks,
                            recv_region,
                            ahead,
                            ..
                        } => (sep_tasks, recv_region, ahead),
                        other => panic!("hybrid compiled {other:?}"),
                    };
                    assert!(sep_tasks.is_some() || recv_region.is_some() || ahead.contains(&true));
                    // A message sent ahead is computed by the previous layer's
                    // receiver group of its sender, through a block-owning plan
                    // or as that group's footprint.
                    for (m, _) in layer.msgs.iter().zip(ahead).filter(|(_, &a)| a) {
                        let Run::Phased {
                            recv_region: Some(prev),
                            ..
                        } = &pass[l - 1].run
                        else {
                            panic!("sent ahead without a parallel receiver phase before");
                        };
                        let group = prev.groups.iter().find(|g| g.receiver == m.sender).unwrap();
                        assert!(group.sends.contains(m));
                        let block = prepared.plan_for(m.sender, m.sep).block_entries();
                        assert!(block.is_some() || group.footprint);
                    }
                    // Sep tasks partition each remaining message's separator range.
                    if let Some(tasks) = sep_tasks {
                        for (i, m) in layer.msgs.iter().enumerate() {
                            let of_msg: Vec<_> = tasks
                                .iter()
                                .filter(|t| t.of == i)
                                .map(|t| (t.lo, t.hi))
                                .collect();
                            if ahead[i] {
                                assert!(of_msg.is_empty());
                            } else {
                                assert_tiles(of_msg, prepared.sep_domains[m.sep].size());
                            }
                        }
                    }
                    if let Some(region) = recv_region {
                        // Recv tasks partition each group's receiver range — or,
                        // for a footprint group, the slots of its first send
                        // ahead — and ride whole blocks of every other one.
                        for (gi, g) in region.groups.iter().enumerate() {
                            let tasks = region.tasks.iter().chain(&region.early);
                            let of_group: Vec<_> = tasks.filter(|t| t.of == gi).collect();
                            // Early: exactly the receivers whose every
                            // message was sent ahead.
                            let sent =
                                |m: &Msg| ahead[layer.msgs.iter().position(|x| x == m).unwrap()];
                            let early = region.early.iter().any(|t| t.of == gi);
                            assert!(of_group.is_empty() || early == g.msgs.iter().all(sent));
                            let plan = |m: &Msg| prepared.plan_for(g.receiver, m.sep);
                            let size = match g.footprint {
                                true => plan(&g.sends[0]).sub_size(),
                                false => prepared.clique_domains[g.receiver].size(),
                            };
                            assert_tiles(of_group.iter().map(|t| (t.lo, t.hi)).collect(), size);
                            assert!(g.msgs.iter().all(|m| m.receiver == g.receiver));
                            assert!(g.sends.iter().all(|m| m.sender == g.receiver));
                            // A footprint group's stretches start and end on
                            // the first send's digits, which hold whole
                            // blocks of the others.
                            let (riders, align) = match g.footprint {
                                true => (&g.sends[1..], plan(&g.sends[0]).digit_entries()),
                                false => (&g.sends[..], 0),
                            };
                            for m in riders {
                                let block = plan(m).block_entries().expect("a block-owning plan");
                                assert_eq!(align % block, 0);
                                if !g.footprint {
                                    for t in &of_group {
                                        assert_eq!((t.lo % block, t.hi % block), (0, 0));
                                    }
                                }
                            }
                        }
                        // Every message sits in exactly one receiver group.
                        let mut grouped: Vec<usize> = region
                            .groups
                            .iter()
                            .flat_map(|g| g.msgs.iter().map(|m| m.sep))
                            .collect();
                        grouped.sort_unstable();
                        let mut seps: Vec<usize> = layer.msgs.iter().map(|m| m.sep).collect();
                        seps.sort_unstable();
                        assert_eq!(grouped, seps);
                    }
                    for is_parallel in [sep_tasks.is_some(), recv_region.is_some()] {
                        if is_parallel {
                            parallel += 1;
                        } else {
                            inline += 1;
                        }
                    }
                }
            }
            (inline, parallel)
        }

        #[test]
        fn task_lists_cover_every_entry_exactly_once() {
            // Asia: every phase is far below the break-even, at any width.
            let asia = Arc::new(Prepared::new(&datasets::asia(), &JtreeOptions::default()));
            let (_, parallel) = check_task_lists(&asia, 3);
            assert_eq!(parallel, 0);

            // One tree that mixes inline phases with sliced parallel ones.
            let mixed = crate::engines::straddling_tree();
            let (inline, parallel) = check_task_lists(&mixed, 3);
            assert!(
                inline > 0 && parallel > 0,
                "{inline} inline, {parallel} parallel"
            );
            // At width 1 the same tree compiles fully inline.
            let (_, parallel) = check_task_lists(&mixed, 1);
            assert_eq!(parallel, 0);
        }

        #[test]
        fn hybrid_matches_seq_bitwise_across_thread_counts() {
            let net = datasets::asia();
            let prepared = Arc::new(Prepared::new(&net, &JtreeOptions::default()));
            let seq = Solver::from_prepared(prepared.clone()).build();
            let mut seq_session = seq.session();
            let cases = sampler::generate_cases(&net, 20, 0.2, 17);
            for threads in [1, 2, 3, 4] {
                let hybrid = Solver::from_prepared(prepared.clone())
                    .engine(EngineKind::Hybrid)
                    .threads(threads)
                    .build();
                let mut session = hybrid.session();
                for case in &cases {
                    let a = seq_session.posteriors(&case.evidence).unwrap();
                    let b = session.posteriors(&case.evidence).unwrap();
                    assert_eq!(a.max_abs_diff(&b), 0.0, "t={threads}");
                    assert_eq!(a.prob_evidence.to_bits(), b.prob_evidence.to_bits());
                }
            }
        }

        #[test]
        fn hybrid_matches_seq_on_multi_child_parents() {
            // Naive-Bayes trees have one parent clique with many children —
            // the multi-ratio receiver-phase case.
            let net = generators::naive_bayes(12, 3, 2, 8);
            let prepared = Arc::new(Prepared::new(&net, &JtreeOptions::default()));
            let seq = Solver::from_prepared(prepared.clone()).build();
            let hybrid = Solver::from_prepared(prepared)
                .engine(EngineKind::Hybrid)
                .threads(4)
                .build();
            let mut seq_session = seq.session();
            let mut session = hybrid.session();
            for case in sampler::generate_cases(&net, 10, 0.3, 21) {
                let a = seq_session.posteriors(&case.evidence).unwrap();
                let b = session.posteriors(&case.evidence).unwrap();
                assert_eq!(a.max_abs_diff(&b), 0.0);
            }
        }

        #[test]
        fn hybrid_matches_seq_on_random_windowed_dags() {
            for seed in 0..4 {
                let spec = generators::WindowedDagSpec {
                    nodes: 45,
                    target_arcs: 60,
                    max_parents: 3,
                    window: 6,
                    seed,
                    ..generators::WindowedDagSpec::new("hybrid-test", 45)
                };
                let net = generators::windowed_dag(&spec);
                let prepared = Arc::new(Prepared::new(&net, &JtreeOptions::default()));
                let seq = Solver::from_prepared(prepared.clone()).build();
                let hybrid = Solver::from_prepared(prepared)
                    .engine(EngineKind::Hybrid)
                    .threads(2)
                    .build();
                let mut seq_session = seq.session();
                let mut session = hybrid.session();
                for case in sampler::generate_cases(&net, 6, 0.2, seed) {
                    let a = seq_session.posteriors(&case.evidence).unwrap();
                    let b = session.posteriors(&case.evidence).unwrap();
                    assert_eq!(a.max_abs_diff(&b), 0.0, "seed {seed}");
                }
            }
        }

        #[test]
        fn hybrid_handles_disconnected_networks() {
            // Forest: schedule merges components into shared layers.
            let mut b = fastbn_bayesnet::NetworkBuilder::new();
            let a0 = b.add_var("a0", &["t", "f"]);
            let a1 = b.add_var("a1", &["t", "f"]);
            let c0 = b.add_var("c0", &["t", "f"]);
            b.set_cpt(a0, vec![], vec![0.4, 0.6]).unwrap();
            b.set_cpt(a1, vec![a0], vec![0.9, 0.1, 0.3, 0.7]).unwrap();
            b.set_cpt(c0, vec![], vec![0.2, 0.8]).unwrap();
            let net = b.build().unwrap();
            let prepared = Arc::new(Prepared::new(&net, &JtreeOptions::default()));
            let seq = Solver::from_prepared(prepared.clone()).build();
            let hybrid = Solver::from_prepared(prepared)
                .engine(EngineKind::Hybrid)
                .threads(2)
                .build();
            let ev = Evidence::from_pairs([(a1, 0)]);
            let x = seq.posteriors(&ev).unwrap();
            let y = hybrid.posteriors(&ev).unwrap();
            assert_eq!(x.max_abs_diff(&y), 0.0);
            assert!(
                (x.marginal(c0)[0] - 0.2).abs() < 1e-12,
                "other component untouched"
            );
        }
    }
}
