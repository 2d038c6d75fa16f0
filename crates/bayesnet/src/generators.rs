//! Seeded synthetic network generators.
//!
//! The paper evaluates on six bnlearn-repository networks that are not
//! redistributable here, so the workloads substitute seeded analogues whose
//! node counts, arc counts and arity distributions match the published
//! statistics. The **windowed DAG** generator is the workhorse: restricting
//! each node's parents to a trailing window of recent nodes bounds the
//! moral graph's bandwidth, which keeps the triangulated width (and thus
//! junction-tree cost) in a controllable range — the property that makes
//! the analogues *runnable* while preserving the clique-size distribution
//! knobs that drive the paper's results.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::network::{BayesianNetwork, NetworkBuilder};
use crate::variable::{VarId, Variable};

/// Distribution of variable cardinalities.
#[derive(Debug, Clone, PartialEq)]
pub enum ArityDist {
    /// Every variable has exactly this many states.
    Fixed(usize),
    /// Uniform over `min..=max`.
    Uniform {
        /// Smallest cardinality (≥ 2 recommended).
        min: usize,
        /// Largest cardinality.
        max: usize,
    },
    /// Weighted choices `(cardinality, weight)`; weights need not sum to 1.
    Weighted(Vec<(usize, f64)>),
}

impl ArityDist {
    /// Samples one cardinality.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        match self {
            ArityDist::Fixed(k) => *k,
            ArityDist::Uniform { min, max } => rng.gen_range(*min..=*max),
            ArityDist::Weighted(choices) => {
                let total: f64 = choices.iter().map(|&(_, w)| w).sum();
                let mut target = rng.gen::<f64>() * total;
                for &(card, w) in choices {
                    target -= w;
                    if target <= 0.0 {
                        return card;
                    }
                }
                choices.last().expect("non-empty choices").0
            }
        }
    }
}

/// How synthetic CPT rows are drawn: each row is Dirichlet(`alpha`, ...,
/// `alpha`). `alpha = 1` is uniform over the simplex; `alpha < 1` yields
/// skewed, near-deterministic rows (like the medical networks the paper
/// uses); `alpha > 1` yields near-uniform rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CptStyle {
    /// Symmetric Dirichlet concentration; must be positive.
    pub alpha: f64,
}

impl Default for CptStyle {
    fn default() -> Self {
        CptStyle { alpha: 1.0 }
    }
}

/// Specification for [`windowed_dag`].
#[derive(Debug, Clone, PartialEq)]
pub struct WindowedDagSpec {
    /// Network name.
    pub name: String,
    /// Number of variables.
    pub nodes: usize,
    /// Desired number of arcs (clamped to what `max_parents`/`window`
    /// allow).
    pub target_arcs: usize,
    /// Maximum in-degree.
    pub max_parents: usize,
    /// Parents of node `i` are drawn from `[i - window, i)`; small windows
    /// bound the induced width.
    pub window: usize,
    /// Cardinality distribution.
    pub arity: ArityDist,
    /// CPT row style.
    pub cpt: CptStyle,
    /// RNG seed — same spec + seed ⇒ identical network.
    pub seed: u64,
}

impl WindowedDagSpec {
    /// A reasonable starting spec: binary chain-of-width-3 style network.
    pub fn new(name: impl Into<String>, nodes: usize) -> Self {
        WindowedDagSpec {
            name: name.into(),
            nodes,
            target_arcs: nodes.saturating_sub(1),
            max_parents: 2,
            window: 8,
            arity: ArityDist::Fixed(2),
            cpt: CptStyle::default(),
            seed: 0,
        }
    }
}

/// Samples Gamma(shape, 1) with Marsaglia & Tsang's method; used to build
/// Dirichlet rows. `shape` must be positive.
fn sample_gamma(rng: &mut StdRng, shape: f64) -> f64 {
    debug_assert!(shape > 0.0);
    if shape < 1.0 {
        // Boosting: Gamma(a) = Gamma(a + 1) * U^{1/a}.
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        return sample_gamma(rng, shape + 1.0) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        // Standard normal via Box-Muller (rand 0.8 has no Normal without
        // rand_distr, which we avoid adding).
        let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = rng.gen();
        let x = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

/// One Dirichlet(`alpha`, ..., `alpha`) row of length `k`.
fn dirichlet_row(rng: &mut StdRng, k: usize, alpha: f64) -> Vec<f64> {
    if k == 1 {
        return vec![1.0];
    }
    let mut row: Vec<f64> = (0..k).map(|_| sample_gamma(rng, alpha)).collect();
    let sum: f64 = row.iter().sum();
    if sum <= 0.0 || !sum.is_finite() {
        // Numerically degenerate draw: fall back to uniform.
        return vec![1.0 / k as f64; k];
    }
    for v in &mut row {
        *v /= sum;
    }
    // Repair rounding drift so Cpt validation always passes.
    let drift: f64 = 1.0 - row.iter().sum::<f64>();
    row[0] += drift;
    row
}

/// Fills CPTs for a fixed structure. `parents[i]` lists parent ids of node
/// `i` in layout order.
fn synthesize_cpts(
    builder: &mut NetworkBuilder,
    ids: &[VarId],
    cards: &[usize],
    parents: &[Vec<VarId>],
    style: CptStyle,
    rng: &mut StdRng,
) {
    for (i, &child) in ids.iter().enumerate() {
        let child_card = cards[child.index()];
        let rows: usize = parents[i].iter().map(|p| cards[p.index()]).product();
        let mut values = Vec::with_capacity(rows * child_card);
        for _ in 0..rows {
            values.extend(dirichlet_row(rng, child_card, style.alpha));
        }
        builder
            .set_cpt(child, parents[i].clone(), values)
            .expect("synthesized CPT is valid");
    }
}

/// Generates a network from a [`WindowedDagSpec`]. Deterministic in
/// `(spec, seed)`.
pub fn windowed_dag(spec: &WindowedDagSpec) -> BayesianNetwork {
    assert!(spec.nodes > 0, "network needs at least one node");
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut builder = NetworkBuilder::new().named(spec.name.clone());

    let mut cards = Vec::with_capacity(spec.nodes);
    let ids: Vec<VarId> = (0..spec.nodes)
        .map(|i| {
            let card = spec.arity.sample(&mut rng).max(1);
            cards.push(card);
            builder.add_variable(Variable::with_cardinality(format!("N{i:04}"), card))
        })
        .collect();

    // Per-node parent capacity: inside the window and under max_parents.
    let caps: Vec<usize> = (0..spec.nodes)
        .map(|i| spec.max_parents.min(spec.window.min(i)))
        .collect();
    let total_cap: usize = caps.iter().sum();
    let target = spec.target_arcs.min(total_cap);

    let mut parents: Vec<Vec<VarId>> = vec![Vec::new(); spec.nodes];
    // Nodes that can still accept a parent.
    let mut eligible: Vec<usize> = (0..spec.nodes).filter(|&i| caps[i] > 0).collect();
    let mut placed = 0;
    while placed < target && !eligible.is_empty() {
        let slot = rng.gen_range(0..eligible.len());
        let node = eligible[slot];
        let lo = node - spec.window.min(node);
        // Candidate parents: the window minus current parents.
        let mut candidates: Vec<usize> = (lo..node)
            .filter(|&p| !parents[node].iter().any(|q| q.index() == p))
            .collect();
        if candidates.is_empty() {
            eligible.swap_remove(slot);
            continue;
        }
        let p = candidates.swap_remove(rng.gen_range(0..candidates.len()));
        parents[node].push(ids[p]);
        placed += 1;
        if parents[node].len() >= caps[node] {
            eligible.swap_remove(slot);
        }
    }
    for ps in &mut parents {
        ps.sort_unstable();
    }

    synthesize_cpts(&mut builder, &ids, &cards, &parents, spec.cpt, &mut rng);
    builder.build().expect("windowed DAG is a valid network")
}

/// A Markov chain `X0 → X1 → ... → X{n-1}`, each variable with `card`
/// states.
pub fn chain(n: usize, card: usize, seed: u64) -> BayesianNetwork {
    assert!(n > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = NetworkBuilder::new().named(format!("chain{n}"));
    let cards = vec![card; n];
    let ids: Vec<VarId> = (0..n)
        .map(|i| builder.add_variable(Variable::with_cardinality(format!("C{i:04}"), card)))
        .collect();
    let parents: Vec<Vec<VarId>> = (0..n)
        .map(|i| if i == 0 { vec![] } else { vec![ids[i - 1]] })
        .collect();
    synthesize_cpts(
        &mut builder,
        &ids,
        &cards,
        &parents,
        CptStyle::default(),
        &mut rng,
    );
    builder.build().expect("chain is valid")
}

/// A naive-Bayes network: one class variable with `class_card` states and
/// `n_features` children with `feature_card` states each.
pub fn naive_bayes(
    n_features: usize,
    class_card: usize,
    feature_card: usize,
    seed: u64,
) -> BayesianNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = NetworkBuilder::new().named("naive_bayes");
    let class = builder.add_variable(Variable::with_cardinality("Class", class_card));
    let mut ids = vec![class];
    let mut cards = vec![class_card];
    for i in 0..n_features {
        ids.push(
            builder.add_variable(Variable::with_cardinality(format!("F{i:03}"), feature_card)),
        );
        cards.push(feature_card);
    }
    let parents: Vec<Vec<VarId>> = (0..=n_features)
        .map(|i| if i == 0 { vec![] } else { vec![class] })
        .collect();
    synthesize_cpts(
        &mut builder,
        &ids,
        &cards,
        &parents,
        CptStyle::default(),
        &mut rng,
    );
    builder.build().expect("naive bayes is valid")
}

/// A random polytree (tree skeleton with random edge orientations) on `n`
/// nodes with uniform cardinality `card`. Polytrees have treewidth equal to
/// their maximum family size minus 1, making them a good "many small
/// cliques" stress case (the paper's structure-adaptivity discussion).
pub fn polytree(n: usize, card: usize, seed: u64) -> BayesianNetwork {
    assert!(n > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = NetworkBuilder::new().named(format!("polytree{n}"));
    let cards = vec![card; n];
    let ids: Vec<VarId> = (0..n)
        .map(|i| builder.add_variable(Variable::with_cardinality(format!("P{i:04}"), card)))
        .collect();
    let mut parents: Vec<Vec<VarId>> = vec![Vec::new(); n];
    for i in 1..n {
        let j = rng.gen_range(0..i);
        // Orient j -> i or i -> j at random; both keep the skeleton a tree
        // and the graph acyclic (edges always point away from the lower id
        // only when j -> i; for i -> j acyclicity still holds because j < i
        // gains a *higher-numbered* parent, and all edges connect distinct
        // components at insertion time).
        if rng.gen::<bool>() {
            parents[i].push(ids[j]);
        } else {
            parents[j].push(ids[i]);
        }
    }
    for ps in &mut parents {
        ps.sort_unstable();
    }
    synthesize_cpts(
        &mut builder,
        &ids,
        &cards,
        &parents,
        CptStyle::default(),
        &mut rng,
    );
    builder.build().expect("polytree is valid")
}

/// An `rows × cols` grid with edges rightwards and downwards; treewidth is
/// `min(rows, cols)`, so keep one dimension small. A good "few large
/// cliques" stress case.
pub fn grid(rows: usize, cols: usize, card: usize, seed: u64) -> BayesianNetwork {
    assert!(rows > 0 && cols > 0);
    let n = rows * cols;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = NetworkBuilder::new().named(format!("grid{rows}x{cols}"));
    let cards = vec![card; n];
    let ids: Vec<VarId> = (0..n)
        .map(|i| builder.add_variable(Variable::with_cardinality(format!("G{i:04}"), card)))
        .collect();
    let mut parents: Vec<Vec<VarId>> = vec![Vec::new(); n];
    for r in 0..rows {
        for c in 0..cols {
            let i = r * cols + c;
            if c > 0 {
                parents[i].push(ids[i - 1]);
            }
            if r > 0 {
                parents[i].push(ids[i - cols]);
            }
            parents[i].sort_unstable();
        }
    }
    synthesize_cpts(
        &mut builder,
        &ids,
        &cards,
        &parents,
        CptStyle::default(),
        &mut rng,
    );
    builder.build().expect("grid is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_dag_matches_spec() {
        let spec = WindowedDagSpec {
            name: "w".into(),
            nodes: 60,
            target_arcs: 75,
            max_parents: 3,
            window: 6,
            arity: ArityDist::Uniform { min: 2, max: 4 },
            cpt: CptStyle::default(),
            seed: 7,
        };
        let net = windowed_dag(&spec);
        assert_eq!(net.num_vars(), 60);
        assert_eq!(net.num_edges(), 75);
        assert!(net.max_in_degree() <= 3);
        for v in 0..60u32 {
            for p in net.dag().parents(v) {
                assert!(v - p <= 6, "parent {p} outside window of node {v}");
            }
            let card = net.cardinality(crate::VarId(v));
            assert!((2..=4).contains(&card));
        }
        for cpt in net.cpts() {
            cpt.validate().unwrap();
        }
    }

    #[test]
    fn windowed_dag_is_deterministic_per_seed() {
        let spec = WindowedDagSpec::new("d", 40);
        let a = windowed_dag(&spec);
        let b = windowed_dag(&spec);
        assert_eq!(a.num_edges(), b.num_edges());
        for v in 0..40 {
            let id = crate::VarId(v);
            assert_eq!(a.cpt(id).values(), b.cpt(id).values());
        }
        let mut spec2 = spec.clone();
        spec2.seed = 1;
        let c = windowed_dag(&spec2);
        let differs =
            (0..40).any(|v| a.cpt(crate::VarId(v)).values() != c.cpt(crate::VarId(v)).values());
        assert!(differs, "different seeds should differ");
    }

    #[test]
    fn arc_target_clamped_to_capacity() {
        let spec = WindowedDagSpec {
            target_arcs: 10_000,
            max_parents: 2,
            window: 4,
            ..WindowedDagSpec::new("clamp", 10)
        };
        let net = windowed_dag(&spec);
        // Capacity: node i can take min(2, min(4, i)) parents.
        let cap: usize = (0..10).map(|i: usize| 2.min(4.min(i))).sum();
        assert_eq!(net.num_edges(), cap);
    }

    #[test]
    fn chain_structure() {
        let net = chain(5, 3, 0);
        assert_eq!(net.num_edges(), 4);
        for i in 1..5u32 {
            assert_eq!(net.dag().parents(i), &[i - 1]);
        }
    }

    #[test]
    fn naive_bayes_structure() {
        let net = naive_bayes(6, 3, 2, 0);
        assert_eq!(net.num_vars(), 7);
        assert_eq!(net.num_edges(), 6);
        let class = net.var_id("Class").unwrap();
        assert_eq!(net.children(class).count(), 6);
    }

    #[test]
    fn polytree_skeleton_is_a_tree() {
        let net = polytree(30, 2, 3);
        assert_eq!(net.num_edges(), 29);
        assert!(net.dag().is_acyclic());
        assert_eq!(net.dag().undirected_components().len(), 1);
    }

    #[test]
    fn grid_structure() {
        let net = grid(3, 4, 2, 0);
        assert_eq!(net.num_vars(), 12);
        // (rows-1)*cols vertical + rows*(cols-1) horizontal.
        assert_eq!(net.num_edges(), 2 * 4 + 3 * 3);
    }

    #[test]
    fn dirichlet_rows_are_normalized_for_extreme_alpha() {
        let mut rng = StdRng::seed_from_u64(5);
        for alpha in [0.05, 0.5, 1.0, 10.0] {
            for k in [2usize, 3, 7, 21] {
                let row = dirichlet_row(&mut rng, k, alpha);
                assert_eq!(row.len(), k);
                assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
                assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)), "{row:?}");
            }
        }
    }

    #[test]
    fn skewed_alpha_yields_skewed_rows() {
        let mut rng = StdRng::seed_from_u64(11);
        // With alpha = 0.05 most rows should concentrate mass on one state.
        let skewed = (0..100)
            .map(|_| {
                dirichlet_row(&mut rng, 4, 0.05)
                    .into_iter()
                    .fold(f64::MIN, f64::max)
            })
            .sum::<f64>()
            / 100.0;
        let flat = (0..100)
            .map(|_| {
                dirichlet_row(&mut rng, 4, 10.0)
                    .into_iter()
                    .fold(f64::MIN, f64::max)
            })
            .sum::<f64>()
            / 100.0;
        assert!(
            skewed > 0.9 && flat < 0.6,
            "skewed avg max {skewed}, flat avg max {flat}"
        );
    }
}
