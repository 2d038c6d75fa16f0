//! Differential edit-script harness for incremental re-propagation.
//!
//! Seeded random scripts of evidence edits — add / change / retract a
//! hard finding, set / retract a likelihood — run against a
//! [`LiveSession`], and after **every** step the session's
//! `prob_evidence`, full posteriors, and targeted marginals must be
//! **bitwise** equal to a from-scratch query carrying the session's
//! current evidence, for every engine at every thread count. Any
//! shortcut the incremental path takes (saved-message replay, lazy
//! distribute, rebuild-from-initial retraction) that is not exactly the
//! from-scratch arithmetic shows up here as a flipped bit.

use std::sync::Arc;

use fastbn::bayesnet::datasets;
use fastbn::bayesnet::generators::{self, ArityDist, CptStyle, WindowedDagSpec};
use fastbn::{
    BayesianNetwork, EngineKind, EvidenceDelta, InferenceError, LikelihoodDefect, Posteriors,
    Prepared, Query, Session, Solver, VarId,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One from-scratch checker per (engine, threads): sequential engines at
/// one thread, parallel engines at 1, 4 and 8.
struct Checkers {
    solvers: Vec<(String, Solver)>,
}

impl Checkers {
    fn new(net: &BayesianNetwork) -> Self {
        let prepared = Arc::new(Prepared::new(net, &Default::default()));
        let mut solvers = Vec::new();
        for kind in EngineKind::all() {
            let threads: &[usize] = if EngineKind::parallel().contains(&kind) {
                &[1, 4, 8]
            } else {
                &[1]
            };
            for &t in threads {
                solvers.push((
                    format!("{kind} t={t}"),
                    Solver::from_prepared(prepared.clone())
                        .engine(kind)
                        .threads(t)
                        .build(),
                ));
            }
        }
        Checkers { solvers }
    }

    fn sessions(&self) -> Vec<(&str, Session<'_>)> {
        self.solvers
            .iter()
            .map(|(label, s)| (label.as_str(), s.session()))
            .collect()
    }
}

fn assert_bitwise(label: &str, step: usize, live: &Posteriors, scratch: &Posteriors) {
    assert_eq!(
        live.prob_evidence.to_bits(),
        scratch.prob_evidence.to_bits(),
        "{label} step {step}: P(e) bits differ ({} vs {})",
        live.prob_evidence,
        scratch.prob_evidence,
    );
    for (v, (a, b)) in live.marginals().iter().zip(scratch.marginals()).enumerate() {
        assert_eq!(a.len(), b.len(), "{label} step {step}: var {v} length");
        for (s, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{label} step {step}: var {v} state {s}: {x} vs {y}",
            );
        }
    }
}

/// Draws the next random edit. Observes dominate (the streaming case);
/// retractions and likelihood edits keep the rebuild-from-initial path
/// and the virtual replay honest. Likelihood vectors get occasional
/// exact zeros to drive the `0/0 = 0` convention through saved-message
/// replay.
fn random_edit(net: &BayesianNetwork, rng: &mut StdRng) -> EvidenceDelta {
    let var = VarId::from_index(rng.gen_range(0..net.num_vars()));
    let card = net.cardinality(var);
    match rng.gen_range(0..10usize) {
        0..=3 => EvidenceDelta::observe(var, rng.gen_range(0..card)),
        4..=5 => EvidenceDelta::retract(var),
        6..=8 => {
            let likelihood: Vec<f64> = (0..card)
                .map(|_| {
                    if rng.gen_bool(0.15) {
                        0.0
                    } else {
                        rng.gen::<f64>().max(1e-3)
                    }
                })
                .collect();
            if likelihood.iter().all(|&p| p == 0.0) {
                // An all-zero draw would be rejected; observe instead.
                EvidenceDelta::observe(var, rng.gen_range(0..card))
            } else {
                EvidenceDelta::likelihood(var, likelihood)
            }
        }
        _ => EvidenceDelta::retract_likelihood(var),
    }
}

/// Two deterministic, sorted, deduplicated target variables.
fn targets_of(net: &BayesianNetwork) -> Vec<VarId> {
    let n = net.num_vars();
    let mut t = vec![VarId::from_index(0), VarId::from_index(n / 2)];
    t.dedup();
    t
}

/// The harness: `steps` seeded edits on one live session; after each,
/// every engine/thread checker re-solves from scratch and must agree
/// bit-for-bit on `P(e)`, all posteriors, and targeted marginals.
fn run_script(net: &BayesianNetwork, seed: u64, steps: usize) {
    let checkers = Checkers::new(net);
    let mut sessions = checkers.sessions();
    let live_solver = Arc::new(Solver::new(net));
    let mut live = live_solver.live_session();
    let mut rng = StdRng::seed_from_u64(seed);
    let targets = targets_of(net);

    for step in 0..steps {
        let edit = random_edit(net, &mut rng);
        live.apply(edit).unwrap();
        let query = Query::new()
            .evidence(live.evidence().clone())
            .virtual_evidence(live.virtual_evidence());
        let targeted_query = query.clone().targets(targets.iter().copied());

        // Targeted read first: it materializes only part of the tree, and
        // the later full read must still see identical bits.
        let live_targeted = live.posteriors_for(&targets);
        let live_full = live.posteriors();
        let live_prob = live.prob_evidence();

        for (label, session) in &mut sessions {
            let scratch = session.run(&query).map(|r| r.into_posteriors().unwrap());
            match (&live_full, &scratch) {
                (Ok(a), Ok(b)) => {
                    assert_bitwise(label, step, a, b);
                    assert_eq!(
                        live_prob.to_bits(),
                        b.prob_evidence.to_bits(),
                        "{label} step {step}: saved-root P(e)"
                    );
                }
                (Err(ea), Err(eb)) => assert_eq!(ea, eb, "{label} step {step}"),
                (a, b) => panic!("{label} step {step}: live {a:?} but scratch {b:?}"),
            }

            let scratch_targeted = session
                .run(&targeted_query)
                .map(|r| r.into_posteriors().unwrap());
            match (&live_targeted, &scratch_targeted) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.prob_evidence.to_bits(), b.prob_evidence.to_bits());
                    for &t in &targets {
                        for (x, y) in a.marginal(t).iter().zip(b.marginal(t)) {
                            assert_eq!(
                                x.to_bits(),
                                y.to_bits(),
                                "{label} step {step}: targeted {t:?}"
                            );
                        }
                    }
                }
                (Err(ea), Err(eb)) => assert_eq!(ea, eb, "{label} step {step} targeted"),
                (a, b) => panic!("{label} step {step} targeted: {a:?} vs {b:?}"),
            }
        }
    }
}

#[test]
fn edit_script_differential_asia() {
    run_script(&datasets::asia(), 0xA51A, 40);
}

#[test]
fn edit_script_differential_sprinkler() {
    run_script(&datasets::sprinkler(), 0x5931, 40);
}

#[test]
fn edit_script_differential_hailfinder() {
    let workload = fastbn_bench::workloads::workload_by_name("hailfinder").unwrap();
    run_script(&workload.build(), 0x4A11, 12);
}

/// A windowed DAG sparse enough to fall apart into a junction forest of
/// 16 components, so that edits restamp one component while reads come
/// from all of them. Asia and sprinkler are one component each; the
/// hailfinder analogue has nine.
fn forest() -> BayesianNetwork {
    generators::windowed_dag(&WindowedDagSpec {
        target_arcs: 130,
        max_parents: 3,
        window: 4,
        arity: ArityDist::Weighted(vec![(2, 0.5), (3, 0.3), (5, 0.2)]),
        cpt: CptStyle { alpha: 0.6 },
        seed: 5,
        ..WindowedDagSpec::new("delta-forest", 120)
    })
}

#[test]
fn edit_script_differential_forest() {
    let net = forest();
    let prepared = Prepared::new(&net, &Default::default());
    let components = prepared.built.rooted.roots.len();
    assert!(components >= 3, "a forest of {components} components");
    run_script(&net, 0xF0E5, 60);
}

/// A monitoring stream: `steps` single-finding observes rotating through
/// up to eight hot variables outside `exclude`. Consecutive visits to a
/// variable pick a different state, so every edit is effective.
fn hot_variable_stream(
    net: &BayesianNetwork,
    steps: usize,
    exclude: &[VarId],
) -> Vec<EvidenceDelta> {
    let n = net.num_vars();
    let mut hot: Vec<VarId> = Vec::new();
    for i in 0..n {
        let var = VarId::from_index((i * 7 + 3) % n);
        if !exclude.contains(&var) && !hot.contains(&var) {
            hot.push(var);
        }
        if hot.len() == 8 {
            break;
        }
    }
    (0..steps)
        .map(|i| {
            let var = hot[i % hot.len()];
            EvidenceDelta::observe(var, (i / hot.len()) % net.cardinality(var))
        })
        .collect()
}

/// Lazy distribute across many epochs: after each edit only one watched
/// variable is read, through `marginal_into`, so cliques off its path stay
/// stale from one edit to the next — `run_script`'s full read after every
/// step brings every clique current again and never lets that happen.
/// Every read must equal a from-scratch targeted query bit for bit
/// (marginal and `P(e)`), or fail with the same error. (The scratch side
/// is one `Seq` session: `run_script` already pins every engine and
/// thread count to the live session.)
#[test]
fn watched_marginal_stays_exact_across_stale_epochs() {
    let asia = datasets::asia();
    // Observing Asia's deterministic or-gate can make the evidence
    // impossible; keep the stream on findings that propagate.
    let or_gate = vec![asia.var_id("TbOrCa").unwrap()];
    let hailfinder = fastbn_bench::workloads::workload_by_name("hailfinder")
        .unwrap()
        .build();
    for (name, net, exclude) in [
        ("sprinkler", datasets::sprinkler(), Vec::new()),
        ("asia", asia, or_gate),
        ("hailfinder", hailfinder, Vec::new()),
        ("forest", forest(), Vec::new()),
    ] {
        let solver = Arc::new(Solver::new(&net));
        let mut live = solver.live_session();
        let mut scratch = solver.session();
        let watch = VarId::from_index(net.num_vars() - 1);
        let mut buf = vec![0.0; net.cardinality(watch)];
        for (step, edit) in hot_variable_stream(&net, 200, &exclude)
            .into_iter()
            .enumerate()
        {
            live.apply(edit).unwrap();
            let read = live.marginal_into(watch, &mut buf);
            let expected = scratch
                .run(
                    &Query::new()
                        .evidence(live.evidence().clone())
                        .targets([watch]),
                )
                .map(|r| r.into_posteriors().unwrap());
            match (read, expected) {
                (Ok(()), Ok(p)) => {
                    assert_eq!(
                        live.prob_evidence().to_bits(),
                        p.prob_evidence.to_bits(),
                        "{name} step {step}: P(e)"
                    );
                    for (x, y) in buf.iter().zip(p.marginal(watch)) {
                        assert_eq!(x.to_bits(), y.to_bits(), "{name} step {step}: {x} vs {y}");
                    }
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "{name} step {step}"),
                (a, b) => panic!("{name} step {step}: live {a:?} but scratch {b:?}"),
            }
        }
    }
}

#[test]
fn marginal_into_matches_full_posteriors_under_edits() {
    let net = datasets::asia();
    let solver = Arc::new(Solver::new(&net));
    let mut live = solver.live_session();
    let mut rng = StdRng::seed_from_u64(0x0517);
    let mut buf = vec![0.0; 2]; // every Asia variable is binary
    for _ in 0..25 {
        live.apply(random_edit(&net, &mut rng)).unwrap();
        for v in 0..net.num_vars() {
            let var = VarId::from_index(v);
            let single = live.marginal_into(var, &mut buf);
            let full = live.posteriors();
            match (&single, &full) {
                (Ok(()), Ok(p)) => {
                    for (x, y) in buf.iter().zip(p.marginal(var)) {
                        assert_eq!(x.to_bits(), y.to_bits(), "{var:?}");
                    }
                }
                (Err(ea), Err(eb)) => assert_eq!(ea, eb),
                (a, b) => panic!("{var:?}: marginal_into {a:?} but posteriors {b:?}"),
            }
        }
    }
}

/// Error recovery: a malformed edit mid-script must surface its typed
/// error, leave the session fully usable, and later edits/queries must
/// stay bitwise correct — the live-session mirror of
/// `session_reuse.rs`.
#[test]
fn malformed_edit_mid_script_leaves_session_usable() {
    let net = datasets::asia();
    let solver = Arc::new(Solver::new(&net));
    let mut live = solver.live_session();
    let mut scratch = solver.session();
    let dysp = net.var_id("Dyspnea").unwrap();
    let xray = net.var_id("XRay").unwrap();
    let smoke = net.var_id("Smoker").unwrap();

    live.apply(EvidenceDelta::observe(dysp, 0)).unwrap();

    // Every malformed-edit shape: typed error, no state change.
    let before = live.posteriors().unwrap();
    assert_eq!(
        live.apply(EvidenceDelta::likelihood(smoke, vec![0.0, 0.0]))
            .unwrap_err(),
        InferenceError::MalformedLikelihood {
            var: smoke.index(),
            defect: LikelihoodDefect::AllZero,
        }
    );
    assert_eq!(
        live.apply(EvidenceDelta::likelihood(smoke, vec![0.5, -0.1]))
            .unwrap_err(),
        InferenceError::MalformedLikelihood {
            var: smoke.index(),
            defect: LikelihoodDefect::Negative,
        }
    );
    assert_eq!(
        live.apply(EvidenceDelta::likelihood(smoke, vec![f64::NAN, 1.0]))
            .unwrap_err(),
        InferenceError::MalformedLikelihood {
            var: smoke.index(),
            defect: LikelihoodDefect::NonFinite,
        }
    );
    assert_eq!(
        live.apply(EvidenceDelta::likelihood(smoke, vec![0.1, 0.2, 0.3]))
            .unwrap_err(),
        InferenceError::InvalidLikelihood {
            var: smoke.index(),
            expected: 2,
            got: 3,
        }
    );
    assert!(matches!(
        live.apply(EvidenceDelta::observe(VarId(999), 0))
            .unwrap_err(),
        InferenceError::InvalidEvidence(_)
    ));
    assert!(matches!(
        live.apply(EvidenceDelta::observe(dysp, 5)).unwrap_err(),
        InferenceError::InvalidEvidence(_)
    ));
    assert!(matches!(
        live.apply(EvidenceDelta::retract(VarId(999))).unwrap_err(),
        InferenceError::InvalidEvidence(_)
    ));
    assert_eq!(
        live.evidence().len(),
        1,
        "failed edits must not change evidence"
    );
    assert!(live.likelihood(smoke).is_none());

    // The session is untouched: same bits as before the failures.
    let after = live.posteriors().unwrap();
    assert_eq!(before.max_abs_diff(&after), 0.0);

    // And still fully live: subsequent good edits stay bitwise equal to
    // from-scratch queries.
    live.apply(EvidenceDelta::likelihood(smoke, vec![0.7, 0.3]))
        .unwrap();
    live.apply(EvidenceDelta::observe(xray, 1)).unwrap();
    live.apply(EvidenceDelta::retract(dysp)).unwrap();
    let expected = scratch
        .run(
            &Query::new()
                .evidence(live.evidence().clone())
                .virtual_evidence(live.virtual_evidence()),
        )
        .unwrap()
        .into_posteriors()
        .unwrap();
    assert_bitwise("post-error", 0, &live.posteriors().unwrap(), &expected);
}

/// The doc-promised equivalence: a `LiveSession` after `apply_all` over
/// any script equals a fresh `LiveSession` built over the same solver
/// with the same final findings — order of arrival must not matter.
#[test]
fn edit_order_does_not_matter() {
    let net = datasets::student();
    let solver = Arc::new(Solver::new(&net));
    let grade = net.var_id("Grade").unwrap();
    let sat = net.var_id("SAT").unwrap();
    let diff = net.var_id("Difficulty").unwrap();

    let mut a = solver.live_session();
    a.apply_all([
        EvidenceDelta::observe(grade, 1),
        EvidenceDelta::likelihood(sat, vec![0.9, 0.2]),
        EvidenceDelta::observe(diff, 0),
        EvidenceDelta::observe(grade, 2), // change after the fact
    ])
    .unwrap();

    let mut b = solver.live_session();
    b.apply_all([
        EvidenceDelta::observe(diff, 0),
        EvidenceDelta::observe(grade, 2),
        EvidenceDelta::likelihood(sat, vec![0.9, 0.2]),
    ])
    .unwrap();

    let pa = a.posteriors().unwrap();
    let pb = b.posteriors().unwrap();
    assert_eq!(pa.prob_evidence.to_bits(), pb.prob_evidence.to_bits());
    assert_eq!(pa.max_abs_diff(&pb), 0.0);
}
