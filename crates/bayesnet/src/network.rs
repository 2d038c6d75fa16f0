//! The Bayesian network: variables + DAG + CPTs, with a validating builder.

use std::collections::HashMap;

use crate::cpt::{Cpt, CptError};
use crate::graph::{Dag, DagError};
use crate::variable::{VarId, Variable};

/// A validated discrete Bayesian network.
///
/// Invariants (enforced by [`NetworkBuilder::build`]):
/// * exactly one CPT per variable, stored at the variable's index;
/// * every CPT's parent list matches the DAG's parent set (CPT order may
///   differ from the DAG's sorted order — the CPT keeps its own layout);
/// * the DAG is acyclic;
/// * all CPT rows are normalized distributions.
#[derive(Debug, Clone)]
pub struct BayesianNetwork {
    name: String,
    variables: Vec<Variable>,
    cpts: Vec<Cpt>,
    dag: Dag,
    topo_order: Vec<u32>,
}

/// Errors detected while assembling a network.
#[derive(Debug, Clone, PartialEq)]
pub enum NetworkError {
    /// Two variables share a name.
    DuplicateVariableName(String),
    /// A network, variable or state name contains `"`, which BIF text
    /// cannot quote.
    QuoteInName(String),
    /// A CPT refers to an unknown variable id.
    UnknownVariable(VarId),
    /// `set_cpt` was called twice for the same child.
    DuplicateCpt(VarId),
    /// A variable has no CPT.
    MissingCpt(VarId),
    /// The declared parent cardinalities disagree with the variables.
    CardinalityMismatch {
        /// The CPT's child.
        child: VarId,
        /// The offending variable.
        var: VarId,
        /// Cardinality recorded in the CPT.
        in_cpt: usize,
        /// Cardinality of the declared variable.
        declared: usize,
    },
    /// Graph construction failed (duplicate edge, self-loop, ...).
    Graph(DagError),
    /// The parent structure has a directed cycle.
    Cyclic,
    /// CPT numeric validation failed.
    Cpt(VarId, CptError),
}

impl std::fmt::Display for NetworkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetworkError::DuplicateVariableName(name) => {
                write!(f, "duplicate variable name {name:?}")
            }
            NetworkError::QuoteInName(name) => {
                write!(f, "name {name:?} contains a double quote")
            }
            NetworkError::UnknownVariable(v) => write!(f, "unknown variable {v}"),
            NetworkError::DuplicateCpt(v) => write!(f, "CPT for {v} set twice"),
            NetworkError::MissingCpt(v) => write!(f, "no CPT for variable {v}"),
            NetworkError::CardinalityMismatch {
                child,
                var,
                in_cpt,
                declared,
            } => write!(
                f,
                "CPT of {child}: variable {var} has cardinality {in_cpt} in the CPT but {declared} declared"
            ),
            NetworkError::Graph(e) => write!(f, "graph error: {e}"),
            NetworkError::Cyclic => write!(f, "parent structure contains a directed cycle"),
            NetworkError::Cpt(v, e) => write!(f, "CPT of {v}: {e}"),
        }
    }
}

impl std::error::Error for NetworkError {}

impl From<DagError> for NetworkError {
    fn from(e: DagError) -> Self {
        NetworkError::Graph(e)
    }
}

impl BayesianNetwork {
    /// Network name (BIF `network` declaration; defaults to `"network"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.variables.len()
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.dag.num_edges()
    }

    /// The variable with id `id`.
    pub fn var(&self, id: VarId) -> &Variable {
        &self.variables[id.index()]
    }

    /// All variables, indexed by id.
    pub fn variables(&self) -> &[Variable] {
        &self.variables
    }

    /// Looks a variable up by name (linear scan; names are for I/O, hot
    /// paths use ids).
    pub fn var_id(&self, name: &str) -> Option<VarId> {
        self.variables
            .iter()
            .position(|v| v.name() == name)
            .map(VarId::from_index)
    }

    /// Cardinality of variable `id`.
    pub fn cardinality(&self, id: VarId) -> usize {
        self.variables[id.index()].cardinality()
    }

    /// All cardinalities, indexed by variable id.
    pub fn cardinalities(&self) -> Vec<usize> {
        self.variables.iter().map(Variable::cardinality).collect()
    }

    /// The CPT of variable `id`.
    pub fn cpt(&self, id: VarId) -> &Cpt {
        &self.cpts[id.index()]
    }

    /// All CPTs, indexed by child variable id.
    pub fn cpts(&self) -> &[Cpt] {
        &self.cpts
    }

    /// The underlying DAG.
    pub fn dag(&self) -> &Dag {
        &self.dag
    }

    /// Sorted parent ids of `id`.
    pub fn parents(&self, id: VarId) -> impl Iterator<Item = VarId> + '_ {
        self.dag.parents(id.0).iter().map(|&p| VarId(p))
    }

    /// Sorted child ids of `id`.
    pub fn children(&self, id: VarId) -> impl Iterator<Item = VarId> + '_ {
        self.dag.children(id.0).iter().map(|&c| VarId(c))
    }

    /// A fixed topological order of the variables (parents before
    /// children), computed once at build time.
    pub fn topological_order(&self) -> &[u32] {
        &self.topo_order
    }

    /// Total number of stored CPT parameters — the "parameters" statistic
    /// quoted for the bnlearn repository networks.
    pub fn total_parameters(&self) -> usize {
        self.cpts.iter().map(Cpt::num_parameters).sum()
    }

    /// Largest in-degree.
    pub fn max_in_degree(&self) -> usize {
        self.dag.max_in_degree()
    }
}

/// Staged construction of a [`BayesianNetwork`].
#[derive(Debug, Default)]
pub struct NetworkBuilder {
    name: String,
    variables: Vec<Variable>,
    cpts: Vec<Option<Cpt>>,
    names: HashMap<String, VarId>,
    duplicate_name: Option<String>,
}

impl NetworkBuilder {
    /// Starts an empty network called `"network"`.
    pub fn new() -> Self {
        NetworkBuilder {
            name: "network".to_string(),
            ..Default::default()
        }
    }

    /// Sets the network name.
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Declares a variable and returns its id. Duplicate names are reported
    /// at `build` time (so builder calls can stay infallible).
    pub fn add_variable(&mut self, variable: Variable) -> VarId {
        let id = VarId::from_index(self.variables.len());
        if self.names.insert(variable.name().to_string(), id).is_some()
            && self.duplicate_name.is_none()
        {
            self.duplicate_name = Some(variable.name().to_string());
        }
        self.variables.push(variable);
        self.cpts.push(None);
        id
    }

    /// Shorthand: declare a variable by name + state names.
    pub fn add_var(&mut self, name: &str, states: &[&str]) -> VarId {
        self.add_variable(Variable::new(
            name,
            states.iter().map(|s| s.to_string()).collect(),
        ))
    }

    /// Sets `P(child | parents)` with the layout documented on [`Cpt`].
    pub fn set_cpt(
        &mut self,
        child: VarId,
        parents: Vec<VarId>,
        values: Vec<f64>,
    ) -> Result<(), NetworkError> {
        for &v in parents.iter().chain([&child]) {
            if v.index() >= self.variables.len() {
                return Err(NetworkError::UnknownVariable(v));
            }
        }
        if self.cpts[child.index()].is_some() {
            return Err(NetworkError::DuplicateCpt(child));
        }
        let child_card = self.variables[child.index()].cardinality();
        let parent_cards: Vec<usize> = parents
            .iter()
            .map(|p| self.variables[p.index()].cardinality())
            .collect();
        let cpt = Cpt::new(child, parents, child_card, parent_cards, values)
            .map_err(|e| NetworkError::Cpt(child, e))?;
        self.cpts[child.index()] = Some(cpt);
        Ok(())
    }

    /// Validates all invariants and produces the network.
    pub fn build(self) -> Result<BayesianNetwork, NetworkError> {
        if let Some(name) = self.duplicate_name {
            return Err(NetworkError::DuplicateVariableName(name));
        }
        // Every name must survive `bif::to_bif_string`, which quotes but
        // cannot escape.
        let names = self
            .variables
            .iter()
            .flat_map(|v| std::iter::once(v.name()).chain(v.states().iter().map(String::as_str)));
        if let Some(name) = std::iter::once(self.name.as_str())
            .chain(names)
            .find(|name| name.contains('"'))
        {
            return Err(NetworkError::QuoteInName(name.to_string()));
        }
        let n = self.variables.len();
        let mut cpts = Vec::with_capacity(n);
        for (i, slot) in self.cpts.into_iter().enumerate() {
            cpts.push(slot.ok_or(NetworkError::MissingCpt(VarId::from_index(i)))?);
        }
        let mut dag = Dag::new(n);
        for cpt in &cpts {
            for &p in cpt.parents() {
                dag.add_edge(p.0, cpt.child().0)?;
            }
        }
        let topo_order = dag.topological_order().ok_or(NetworkError::Cyclic)?;
        // Cross-check CPT cardinalities against the declared variables.
        for cpt in &cpts {
            let declared = self.variables[cpt.child().index()].cardinality();
            if cpt.child_cardinality() != declared {
                return Err(NetworkError::CardinalityMismatch {
                    child: cpt.child(),
                    var: cpt.child(),
                    in_cpt: cpt.child_cardinality(),
                    declared,
                });
            }
            for (&p, &card) in cpt.parents().iter().zip(cpt.parent_cardinalities()) {
                let declared = self.variables[p.index()].cardinality();
                if card != declared {
                    return Err(NetworkError::CardinalityMismatch {
                        child: cpt.child(),
                        var: p,
                        in_cpt: card,
                        declared,
                    });
                }
            }
        }
        Ok(BayesianNetwork {
            name: self.name,
            variables: self.variables,
            cpts,
            dag,
            topo_order,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_node_net() -> BayesianNetwork {
        let mut b = NetworkBuilder::new().named("mini");
        let a = b.add_var("A", &["t", "f"]);
        let c = b.add_var("B", &["t", "f"]);
        b.set_cpt(a, vec![], vec![0.3, 0.7]).unwrap();
        b.set_cpt(c, vec![a], vec![0.9, 0.1, 0.2, 0.8]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn build_and_query_structure() {
        let net = two_node_net();
        assert_eq!(net.name(), "mini");
        assert_eq!(net.num_vars(), 2);
        assert_eq!(net.num_edges(), 1);
        assert_eq!(net.var_id("B"), Some(VarId(1)));
        assert_eq!(net.var_id("missing"), None);
        assert_eq!(net.cardinality(VarId(0)), 2);
        assert_eq!(net.total_parameters(), 6);
        assert_eq!(net.parents(VarId(1)).collect::<Vec<_>>(), vec![VarId(0)]);
        assert_eq!(net.children(VarId(0)).collect::<Vec<_>>(), vec![VarId(1)]);
        assert_eq!(net.topological_order(), &[0, 1]);
        assert_eq!(net.max_in_degree(), 1);
    }

    #[test]
    fn missing_cpt_rejected() {
        let mut b = NetworkBuilder::new();
        let _a = b.add_var("A", &["t", "f"]);
        assert_eq!(b.build().unwrap_err(), NetworkError::MissingCpt(VarId(0)));
    }

    #[test]
    fn duplicate_cpt_rejected() {
        let mut b = NetworkBuilder::new();
        let a = b.add_var("A", &["t", "f"]);
        b.set_cpt(a, vec![], vec![0.5, 0.5]).unwrap();
        assert_eq!(
            b.set_cpt(a, vec![], vec![0.5, 0.5]).unwrap_err(),
            NetworkError::DuplicateCpt(a)
        );
    }

    #[test]
    fn duplicate_name_rejected_at_build() {
        let mut b = NetworkBuilder::new();
        let a = b.add_var("A", &["t", "f"]);
        let a2 = b.add_var("A", &["t", "f"]);
        b.set_cpt(a, vec![], vec![0.5, 0.5]).unwrap();
        b.set_cpt(a2, vec![], vec![0.5, 0.5]).unwrap();
        assert_eq!(
            b.build().unwrap_err(),
            NetworkError::DuplicateVariableName("A".into())
        );
    }

    #[test]
    fn quote_in_any_name_rejected_at_build() {
        let build = |network: &str, var: &str, state: &str| {
            let mut b = NetworkBuilder::new().named(network);
            let v = b.add_var(var, &["yes", state]);
            b.set_cpt(v, vec![], vec![0.5, 0.5]).unwrap();
            b.build()
        };
        assert!(build("n", "v", "no").is_ok());
        for (network, var, state, bad) in [
            ("a\"b", "v", "no", "a\"b"),
            ("n", "a\"b", "no", "a\"b"),
            ("n", "v", "no\"x", "no\"x"),
        ] {
            assert_eq!(
                build(network, var, state).unwrap_err(),
                NetworkError::QuoteInName(bad.into())
            );
        }
    }

    #[test]
    fn cycle_rejected() {
        let mut b = NetworkBuilder::new();
        let a = b.add_var("A", &["t", "f"]);
        let c = b.add_var("B", &["t", "f"]);
        b.set_cpt(a, vec![c], vec![0.5, 0.5, 0.5, 0.5]).unwrap();
        b.set_cpt(c, vec![a], vec![0.5, 0.5, 0.5, 0.5]).unwrap();
        assert_eq!(b.build().unwrap_err(), NetworkError::Cyclic);
    }

    #[test]
    fn unknown_parent_rejected() {
        let mut b = NetworkBuilder::new();
        let a = b.add_var("A", &["t", "f"]);
        assert_eq!(
            b.set_cpt(a, vec![VarId(7)], vec![0.5; 4]).unwrap_err(),
            NetworkError::UnknownVariable(VarId(7))
        );
    }
}
