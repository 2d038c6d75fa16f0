//! Incremental evidence-delta re-propagation — a [`LiveSession`] that
//! holds a fully propagated slab and, when one finding changes, re-runs
//! only the propagation the change can reach.
//!
//! # The dirty-set rule
//!
//! Entering a finding touches exactly one clique (the variable's home),
//! so after an edit the only **collect** messages that change are those on
//! the path from that dirty clique up to its component root: every other
//! subtree still sends bit-identical messages. The live state therefore
//! keeps two saved regions per propagation (see
//! [`SlabLayout`](crate::prepared::SlabLayout)): each separator's collect
//! message and each clique's post-collect values. An edit rebuilds the
//! dirty path deepest-first — each path clique is recomputed from the
//! initial slab, its findings re-applied, and its children's collect
//! ratios multiplied back in ascending message order, replaying **saved**
//! messages for clean children and recomputing them for the on-path
//! child — then snapshots the new post-collect values.
//!
//! Once the root changes, *every* distribute message in the component
//! changes, so an eager distribute would cap the speedup near 2×. The
//! live session instead distributes **lazily**: `P(e)` comes from the
//! saved root snapshots (roots receive no distribute message), a
//! targeted marginal materializes final values only along the root-to-home
//! path of its variable, and only a full-posteriors read pays the full
//! distribute. Every materialized value is bit-identical to a from-scratch
//! propagation because a distribute message depends only on its parent's
//! final value — the same operands flow through the same
//! [`KernelPlan`](fastbn_potential::KernelPlan)s in the same order.
//!
//! # Per-component freshness
//!
//! A junction *forest* has one independent tree per connected component
//! of the network, and an edit reaches only its own variable's component:
//! no message crosses a component boundary. The live session therefore
//! tracks freshness per component. Each component carries a stamp minted
//! from one counter; an effective edit restamps only its own component
//! (a no-op edit mints nothing), and a clique's active region holds final
//! values iff it was materialized at its component's current stamp. Two
//! caches hang off the same stamps:
//!
//! - **`P(e)` factors** — one per root, the sum of the root's post-collect
//!   snapshot, re-summed only when an edit rebuilds that root. `P(e)` is
//!   their product in `roots` order, the exact fold a from-scratch query
//!   performs over the same root sums.
//! - **Marginals** — a flat buffer of every variable's normalised
//!   marginal, allocated at construction. A full read re-distributes and
//!   re-extracts only the components restamped since the last full read,
//!   then copies its result out of the buffer.
//!
//! Both are bit-exact for the same reason as the lazy distribute: every
//! cached value is a function of its own component's slab regions only,
//! which an edit elsewhere cannot touch, and it is computed by the same
//! kernels in the same order as a from-scratch query would compute it.
//!
//! Impossibility is judged per component too: the evidence is impossible
//! iff some factor is `<= 0` or non-finite. The product of many possible
//! factors may underflow to `0.0` without making any marginal undefined.
//!
//! # Retraction semantics
//!
//! Retracting (or changing) a finding never divides evidence back out of
//! a table — division would not be bit-identical and `0/0` is lossy.
//! Instead the dirty clique is **recomputed from its initial-values
//! slab**: initial potentials, then every *current* finding homed there
//! (hard reductions in ascending variable order, then canonical
//! likelihood multiplies in ascending variable order), then the incoming
//! collect ratios. The result carries the exact bits a from-scratch run
//! would produce.
//!
//! The steady-state single-finding edit allocates nothing: every table
//! lives in the one live slab, every index mapping in the precompiled
//! separator plans, every finding and every single-variable read goes
//! through the single-variable kernels on the variable's stored home
//! axis (`Prepared::axes`), and the path walk reuses a preallocated
//! buffer — enforced by the counting-allocator test in `tests/alloc.rs`.
//!
//! fastbn: deny-hot-alloc

use std::sync::Arc;

use fastbn_bayesnet::{Evidence, VarId};

use crate::error::InferenceError;
use crate::posterior::Posteriors;
use crate::prepared::Prepared;
use crate::solver::Solver;
use crate::state::{checked_product, WorkState};
use crate::validate::{validate_finding, validate_likelihood};
use crate::virtual_evidence::{canonicalize_likelihood, VirtualEvidence};

/// One edit to a [`LiveSession`]'s evidence: add, change or retract a
/// hard finding, or set/retract a virtual (likelihood) finding.
///
/// Edits are idempotent: re-observing a variable in its current state,
/// retracting an absent finding, or re-setting a proportional likelihood
/// is a no-op (the session detects it and re-propagates nothing).
#[derive(Debug, Clone, PartialEq)]
pub enum EvidenceDelta {
    /// Observe `var = state`, adding a new hard finding or replacing the
    /// variable's previous one.
    Observe {
        /// The observed variable.
        var: VarId,
        /// The observed state index.
        state: usize,
    },
    /// Remove `var`'s hard finding (no-op if it has none).
    Retract {
        /// The variable whose finding is retracted.
        var: VarId,
    },
    /// Attach a likelihood vector to `var`, replacing any previous one.
    /// Unlike [`Query::likelihood`](crate::query::Query::likelihood) —
    /// where repeated findings multiply — a live session keeps **one**
    /// likelihood per variable, because edits must be retractable
    /// one-for-one.
    Likelihood {
        /// The variable the soft finding attaches to.
        var: VarId,
        /// The likelihood vector, one entry per state.
        likelihood: Vec<f64>,
    },
    /// Remove `var`'s likelihood finding (no-op if it has none).
    RetractLikelihood {
        /// The variable whose likelihood is retracted.
        var: VarId,
    },
}

impl EvidenceDelta {
    /// Shorthand for [`EvidenceDelta::Observe`].
    pub fn observe(var: VarId, state: usize) -> Self {
        EvidenceDelta::Observe { var, state }
    }

    /// Shorthand for [`EvidenceDelta::Retract`].
    pub fn retract(var: VarId) -> Self {
        EvidenceDelta::Retract { var }
    }

    /// Shorthand for [`EvidenceDelta::Likelihood`].
    pub fn likelihood(var: VarId, likelihood: Vec<f64>) -> Self {
        EvidenceDelta::Likelihood { var, likelihood }
    }

    /// Shorthand for [`EvidenceDelta::RetractLikelihood`].
    pub fn retract_likelihood(var: VarId) -> Self {
        EvidenceDelta::RetractLikelihood { var }
    }
}

/// A long-lived inference session holding a **fully propagated** slab
/// that accepts [`EvidenceDelta`] edits and re-propagates only what each
/// edit can reach — the streaming/monitoring counterpart of the
/// per-query [`Session`](crate::solver::Session).
///
/// Every read is bit-identical to a from-scratch query with the
/// session's current evidence, for every engine and thread count (the
/// engines themselves agree bitwise, and the incremental replay performs
/// the same arithmetic in the same order).
///
/// ```
/// use std::sync::Arc;
/// use fastbn_bayesnet::datasets;
/// use fastbn_inference::{EvidenceDelta, Solver};
///
/// let net = datasets::asia();
/// let solver = Arc::new(Solver::new(&net));
/// let mut live = solver.live_session();
/// let xray = net.var_id("XRay").unwrap();
/// let tub = net.var_id("Tuberculosis").unwrap();
///
/// let base = live.marginal(tub).unwrap()[0];
/// live.apply(EvidenceDelta::observe(xray, 0)).unwrap();
/// assert!(live.marginal(tub).unwrap()[0] > base); // x-ray raises P(tub)
/// live.apply(EvidenceDelta::retract(xray)).unwrap();
/// assert_eq!(live.marginal(tub).unwrap()[0], base); // bitwise restored
/// ```
pub struct LiveSession {
    solver: Arc<Solver>,
    prepared: Arc<Prepared>,
    state: WorkState,
    /// Current hard findings (ascending by variable id).
    evidence: Evidence,
    /// Current likelihood findings, canonicalized, at most one per
    /// variable, indexed by variable.
    likelihoods: Box<[Option<Vec<f64>>]>,
    /// Variables homed at each clique, ascending — the replay order of a
    /// clique rebuild.
    home_vars: Vec<Vec<VarId>>,
    /// Incoming collect message ids of each clique (ascending, which is
    /// the engines' canonical ratio-application order).
    children: Vec<Vec<u32>>,
    /// Junction-tree component of each clique, as an index into
    /// `rooted.roots`.
    component: Box<[u32]>,
    /// Freshness stamp per component, minted from `epoch` by every
    /// effective edit to one of the component's variables. Restamping
    /// invalidates the component's final values and cached marginals in
    /// O(1); its post-collect state stays valid (it is kept eagerly
    /// current), and every other component keeps its stamp.
    stamp: Box<[u64]>,
    /// Stamp per clique: the clique's active region holds **final**
    /// (post-distribute) values iff `dist_stamp[c] == stamp[component[c]]`.
    dist_stamp: Box<[u64]>,
    /// The last stamp minted (0 before construction's full propagation).
    epoch: u64,
    /// `P(e)` factor per component: the sum of its root's post-collect
    /// snapshot, re-summed only when an edit rebuilds that root.
    root_sums: Box<[f64]>,
    /// Normalised marginal of every variable, flat: variable `v` holds
    /// `marginals[marginal_off[v]..marginal_off[v + 1]]`.
    marginals: Box<[f64]>,
    /// Offsets into `marginals`, one per variable plus the total.
    marginal_off: Box<[usize]>,
    /// Stamp per component at which its variables' `marginals` were
    /// computed; they are current iff equal to `stamp`.
    marginal_stamp: Box<[u64]>,
    /// Reusable clique-path buffer (edit replay and lazy materialization).
    path: Vec<u32>,
}

impl LiveSession {
    /// Opens a live session over `solver`, fully propagating its (empty)
    /// evidence state. Construction allocates the live slab, the
    /// per-clique replay lists and the per-component caches; edits
    /// afterwards do not allocate.
    // fastbn: allow(hot-alloc): one-time session construction — builds the
    // live slab, the per-clique variable and child lists, the component
    // map and the marginal buffer.
    pub fn new(solver: Arc<Solver>) -> Self {
        let prepared = Arc::clone(solver.prepared());
        let n_cliques = prepared.num_cliques();
        let n_vars = prepared.num_vars();
        let rooted = &prepared.built.rooted;
        let mut home_vars: Vec<Vec<VarId>> = vec![Vec::new(); n_cliques];
        for v in 0..n_vars {
            home_vars[prepared.home[v]].push(VarId::from_index(v));
        }
        let mut children: Vec<Vec<u32>> = vec![Vec::new(); n_cliques];
        for (id, m) in prepared.built.schedule.messages.iter().enumerate() {
            children[m.parent].push(id as u32);
        }
        // BFS order visits parents first, so each clique inherits its
        // parent's component.
        let mut component = vec![0u32; n_cliques].into_boxed_slice();
        for (k, &r) in rooted.roots.iter().enumerate() {
            component[r] = k as u32;
        }
        for &c in &rooted.bfs_order {
            if let Some((parent, _)) = rooted.parent[c] {
                component[c] = component[parent];
            }
        }
        let mut marginal_off = Vec::with_capacity(n_vars + 1);
        marginal_off.push(0);
        for &card in &prepared.cards {
            marginal_off.push(marginal_off[marginal_off.len() - 1] + card);
        }
        let n_components = rooted.roots.len();
        let state = WorkState::with_saved(&prepared);
        let path = Vec::with_capacity(rooted.max_depth + 1);
        let mut live = LiveSession {
            solver,
            state,
            evidence: Evidence::empty(),
            likelihoods: vec![None; n_vars].into_boxed_slice(),
            home_vars,
            children,
            component,
            stamp: vec![0; n_components].into_boxed_slice(),
            dist_stamp: vec![0; n_cliques].into_boxed_slice(),
            epoch: 0,
            root_sums: vec![0.0; n_components].into_boxed_slice(),
            marginals: vec![0.0; marginal_off[n_vars]].into_boxed_slice(),
            marginal_off: marginal_off.into_boxed_slice(),
            marginal_stamp: vec![0; n_components].into_boxed_slice(),
            path,
            prepared,
        };
        live.repropagate_full();
        live
    }

    /// Applies one edit: validates it (a malformed edit returns its typed
    /// error and leaves the session untouched and fully usable), updates
    /// the evidence bookkeeping, and re-propagates the dirty path. No-op
    /// edits return `Ok` without touching the slab.
    pub fn apply(&mut self, edit: EvidenceDelta) -> Result<(), InferenceError> {
        let prepared = Arc::clone(&self.prepared);
        match edit {
            EvidenceDelta::Observe { var, state } => {
                validate_finding(&prepared, var, state)?;
                if self.evidence.get(var) == Some(state) {
                    return Ok(());
                }
                self.evidence.set(var, state);
                self.repropagate_path(&prepared, prepared.home[var.index()]);
            }
            EvidenceDelta::Retract { var } => {
                validate_finding(&prepared, var, 0)?;
                if self.evidence.get(var).is_none() {
                    return Ok(());
                }
                self.evidence.clear(var);
                self.repropagate_path(&prepared, prepared.home[var.index()]);
            }
            EvidenceDelta::Likelihood {
                var,
                mut likelihood,
            } => {
                validate_likelihood(&prepared, var, &likelihood)?;
                canonicalize_likelihood(&mut likelihood);
                let slot = &mut self.likelihoods[var.index()];
                if slot
                    .as_deref()
                    .is_some_and(|old| bits_equal(old, &likelihood))
                {
                    return Ok(());
                }
                *slot = Some(likelihood);
                self.repropagate_path(&prepared, prepared.home[var.index()]);
            }
            EvidenceDelta::RetractLikelihood { var } => {
                validate_finding(&prepared, var, 0)?;
                if self.likelihoods[var.index()].is_none() {
                    return Ok(());
                }
                self.likelihoods[var.index()] = None;
                self.repropagate_path(&prepared, prepared.home[var.index()]);
            }
        }
        Ok(())
    }

    /// Applies edits in order, stopping at the first error. Edits applied
    /// before the failure remain in effect (each edit is atomic; the
    /// sequence is not).
    pub fn apply_all(
        &mut self,
        edits: impl IntoIterator<Item = EvidenceDelta>,
    ) -> Result<(), InferenceError> {
        for edit in edits {
            self.apply(edit)?;
        }
        Ok(())
    }

    /// `P(evidence)` under the current findings: the product, in `roots`
    /// order, of each component's cached root sum (no distribute needed —
    /// roots receive no distribute message). Returns the raw value.
    ///
    /// A non-finite value means the evidence is impossible. A `0.0` means
    /// either that some component's evidence is impossible — the posterior
    /// readers then fail with [`InferenceError::ImpossibleEvidence`] — or
    /// that the product of possible components' factors underflowed, as
    /// with ~1 100 independent findings at ½ each; the readers then
    /// succeed, since every marginal is normalised within its own
    /// component.
    pub fn prob_evidence(&self) -> f64 {
        self.root_sums.iter().product()
    }

    /// [`LiveSession::prob_evidence`], or
    /// [`InferenceError::ImpossibleEvidence`] if some component's factor
    /// is `<= 0` or non-finite.
    fn checked_prob_evidence(&self) -> Result<f64, InferenceError> {
        checked_product(self.root_sums.iter().copied())
    }

    /// All posterior marginals under the current findings. This is the
    /// one read that pays a distribute and an extraction, both only for
    /// the components an edit restamped since the last full read: the
    /// final values are materialized lazily, and every variable's
    /// normalised marginal is cached per component until its next
    /// restamp.
    // fastbn: allow(hot-alloc): read-path output allocation (the result's
    // marginal vectors, copied out of the preallocated buffer).
    pub fn posteriors(&mut self) -> Result<Posteriors, InferenceError> {
        let prepared = Arc::clone(&self.prepared);
        let prob_evidence = self.checked_prob_evidence()?;
        self.materialize_all(&prepared);
        self.refresh_marginals(&prepared)?;
        let marginals = self
            .marginal_off
            .windows(2)
            .map(|w| self.marginals[w[0]..w[1]].to_vec())
            .collect();
        Ok(Posteriors::new(marginals, prob_evidence))
    }

    /// Posteriors for `targets` only, materializing final values only
    /// along each target's root-to-home path. `targets` must be sorted
    /// and deduplicated (as [`Query::targets`](crate::query::Query::targets)
    /// guarantees); an out-of-network target fails with
    /// [`InferenceError::InvalidTarget`].
    pub fn posteriors_for(&mut self, targets: &[VarId]) -> Result<Posteriors, InferenceError> {
        let prepared = Arc::clone(&self.prepared);
        if let Some(&bad) = targets.iter().find(|v| v.index() >= prepared.num_vars()) {
            return Err(InferenceError::InvalidTarget {
                var: bad.index(),
                num_vars: prepared.num_vars(),
            });
        }
        let prob_evidence = self.checked_prob_evidence()?;
        let mut entries = Vec::with_capacity(targets.len());
        for &var in targets {
            if self.evidence.get(var).is_none() {
                self.materialize(&prepared, prepared.home[var.index()]);
            }
            entries.push((var, self.state.marginal_of(&prepared, &self.evidence, var)?));
        }
        Ok(Posteriors::targeted(
            prepared.num_vars(),
            entries,
            prob_evidence,
        ))
    }

    /// One variable's normalized posterior under the current findings.
    // fastbn: allow(hot-alloc): allocating convenience form; the hot path
    // is `marginal_into`.
    pub fn marginal(&mut self, var: VarId) -> Result<Vec<f64>, InferenceError> {
        let prepared = Arc::clone(&self.prepared);
        let mut out = vec![0.0; prepared.cards.get(var.index()).copied().unwrap_or(0)];
        self.marginal_into(var, &mut out)?;
        Ok(out)
    }

    /// Allocation-free form of [`LiveSession::marginal`]: writes the
    /// normalized posterior into a caller-provided buffer of length
    /// `card(var)` — the steady-state monitored read of a streaming UI
    /// (edit, then refresh a dashboard variable, with zero allocations).
    /// A buffer of any other length fails with
    /// [`InferenceError::InvalidBuffer`] before the session is touched.
    pub fn marginal_into(&mut self, var: VarId, out: &mut [f64]) -> Result<(), InferenceError> {
        let prepared = Arc::clone(&self.prepared);
        if var.index() >= prepared.num_vars() {
            return Err(InferenceError::InvalidTarget {
                var: var.index(),
                num_vars: prepared.num_vars(),
            });
        }
        let expected = prepared.cards[var.index()];
        if out.len() != expected {
            return Err(InferenceError::InvalidBuffer {
                var: var.index(),
                expected,
                got: out.len(),
            });
        }
        self.checked_prob_evidence()?;
        if self.evidence.get(var).is_none() {
            self.materialize(&prepared, prepared.home[var.index()]);
        }
        self.state
            .marginal_into(&prepared, &self.evidence, var, out)
    }

    /// The session's current hard findings.
    pub fn evidence(&self) -> &Evidence {
        &self.evidence
    }

    /// The canonicalized likelihood currently attached to `var`, if any.
    pub fn likelihood(&self, var: VarId) -> Option<&[f64]> {
        self.likelihoods.get(var.index())?.as_deref()
    }

    /// The session's current likelihood findings as a [`VirtualEvidence`]
    /// (one canonical vector per variable); the equivalent from-scratch
    /// query is `Query::new().evidence(live.evidence().clone())
    /// .virtual_evidence(live.virtual_evidence())`.
    // fastbn: allow(hot-alloc): diagnostic snapshot, not on the edit path.
    pub fn virtual_evidence(&self) -> VirtualEvidence {
        let mut virt = VirtualEvidence::empty();
        for (v, slot) in self.likelihoods.iter().enumerate() {
            if let Some(likelihood) = slot {
                virt.add(VarId::from_index(v), likelihood.clone());
            }
        }
        virt
    }

    /// The solver this session was opened over.
    pub fn solver(&self) -> &Solver {
        &self.solver
    }

    /// Full propagation with saved-message recording: reset, re-absorb
    /// every current finding, run collect writing each message into its
    /// saved region, snapshot post-collect cliques. Used at construction;
    /// edits afterwards go through [`LiveSession::repropagate_path`].
    fn repropagate_full(&mut self) {
        let prepared = Arc::clone(&self.prepared);
        self.state.reset(&prepared);
        for (var, state) in self.evidence.iter() {
            let v = var.index();
            prepared.axes[v].select(self.state.clique_mut(prepared.home[v]), state);
        }
        for v in 0..prepared.num_vars() {
            if let Some(likelihood) = &self.likelihoods[v] {
                prepared.axes[v].scale(self.state.clique_mut(prepared.home[v]), likelihood);
            }
        }
        let schedule = &prepared.built.schedule;
        for layer in &schedule.collect_layers {
            for &id in layer {
                let m = schedule.messages[id];
                self.state
                    .collect_into_saved(&prepared, m.child, m.parent, m.sep);
            }
        }
        self.state.snapshot_cliques();
        for (k, &r) in prepared.built.rooted.roots.iter().enumerate() {
            self.root_sums[k] = self.state.saved_clique(r).iter().sum();
        }
        self.epoch += 1;
        self.stamp.fill(self.epoch);
    }

    /// Re-runs collect along the path from `dirty` to its component root
    /// (deepest-first), rebuilding each path clique from the initial slab
    /// and replaying saved messages for its clean children, re-sums the
    /// rebuilt root's `P(e)` factor, then restamps `dirty`'s component
    /// (its final values and marginals become stale; its post-collect
    /// state is current again; other components are untouched).
    fn repropagate_path(&mut self, prepared: &Prepared, dirty: usize) {
        let rooted = &prepared.built.rooted;
        self.path.clear();
        let mut root = dirty;
        loop {
            self.path.push(root as u32);
            match rooted.parent[root] {
                Some((parent, _)) => root = parent,
                None => break,
            }
        }
        for i in 0..self.path.len() {
            let c = self.path[i] as usize;
            let recomputed_child = if i == 0 {
                None
            } else {
                Some(self.path[i - 1] as usize)
            };
            self.rebuild_clique(prepared, c, recomputed_child);
            self.state.snapshot_clique(c);
        }
        let k = self.component[root] as usize;
        self.root_sums[k] = self.state.saved_clique(root).iter().sum();
        self.epoch += 1;
        self.stamp[k] = self.epoch;
    }

    /// Recomputes clique `c`'s post-collect values from scratch: initial
    /// potentials, hard reductions (ascending variable order), canonical
    /// likelihood multiplies (ascending variable order), then incoming
    /// collect ratios in ascending message order — recomputing the
    /// message from `recomputed_child` (already rebuilt, deeper on the
    /// dirty path) and replaying the saved message of every other child.
    /// This is the same operand sequence a from-scratch propagation
    /// applies to `c`, hence bit-identical.
    fn rebuild_clique(&mut self, prepared: &Prepared, c: usize, recomputed_child: Option<usize>) {
        self.state.load_initial_clique(prepared, c);
        for &var in &self.home_vars[c] {
            if let Some(state) = self.evidence.get(var) {
                prepared.axes[var.index()].select(self.state.clique_mut(c), state);
            }
        }
        for &var in &self.home_vars[c] {
            if let Some(likelihood) = &self.likelihoods[var.index()] {
                prepared.axes[var.index()].scale(self.state.clique_mut(c), likelihood);
            }
        }
        for &id in &self.children[c] {
            let m = prepared.built.schedule.messages[id as usize];
            if Some(m.child) == recomputed_child {
                self.state.collect_into_saved(prepared, m.child, c, m.sep);
            } else {
                self.state.replay_saved_ratio(prepared, c, m.sep);
            }
        }
    }

    /// Ensures clique `c`'s active region holds **final** values for its
    /// component's current stamp, materializing the distribute steps from
    /// the nearest final ancestor downward (a root's final values are its
    /// saved post-collect snapshot).
    fn materialize(&mut self, prepared: &Prepared, c: usize) {
        let stamp = self.stamp[self.component[c] as usize];
        if self.dist_stamp[c] == stamp {
            return;
        }
        let rooted = &prepared.built.rooted;
        self.path.clear();
        let mut cur = c;
        while self.dist_stamp[cur] != stamp {
            self.path.push(cur as u32);
            match rooted.parent[cur] {
                Some((parent, _)) => cur = parent,
                None => break,
            }
        }
        for i in (0..self.path.len()).rev() {
            let node = self.path[i] as usize;
            match rooted.parent[node] {
                None => self.state.restore_clique(node),
                Some((parent, sep)) => self
                    .state
                    .distribute_from_parent(prepared, parent, node, sep),
            }
            self.dist_stamp[node] = stamp;
        }
    }

    /// Materializes every clique of every restamped component (BFS order,
    /// parents first) — the lazy distribute backing
    /// [`LiveSession::posteriors`].
    fn materialize_all(&mut self, prepared: &Prepared) {
        let rooted = &prepared.built.rooted;
        for i in 0..rooted.bfs_order.len() {
            let c = rooted.bfs_order[i];
            let stamp = self.stamp[self.component[c] as usize];
            if self.dist_stamp[c] == stamp {
                continue;
            }
            match rooted.parent[c] {
                None => self.state.restore_clique(c),
                Some((parent, sep)) => self.state.distribute_from_parent(prepared, parent, c, sep),
            }
            self.dist_stamp[c] = stamp;
        }
    }

    /// Recomputes the cached marginals of every variable whose component
    /// was restamped since they were last computed, reading the final
    /// values [`LiveSession::materialize_all`] left — the same kernel and
    /// normalisation as a from-scratch extraction, hence the same bits. A
    /// failure leaves the stamps as they were, so the next read
    /// recomputes.
    fn refresh_marginals(&mut self, prepared: &Prepared) -> Result<(), InferenceError> {
        for v in 0..prepared.num_vars() {
            let k = self.component[prepared.home[v]] as usize;
            if self.marginal_stamp[k] == self.stamp[k] {
                continue;
            }
            let out = &mut self.marginals[self.marginal_off[v]..self.marginal_off[v + 1]];
            self.state
                .marginal_into(prepared, &self.evidence, VarId::from_index(v), out)?;
        }
        self.marginal_stamp.copy_from_slice(&self.stamp);
        Ok(())
    }
}

impl std::fmt::Debug for LiveSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveSession")
            .field("solver", &*self.solver)
            .field("findings", &self.evidence.len())
            .field(
                "likelihoods",
                &self.likelihoods.iter().filter(|s| s.is_some()).count(),
            )
            .finish_non_exhaustive()
    }
}

/// Bitwise slice equality (`-0.0 != +0.0`, NaN equal to its own bits) —
/// the no-op test for likelihood replacement.
fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;
    use fastbn_bayesnet::datasets;

    fn assert_bitwise(a: &Posteriors, b: &Posteriors) {
        assert_eq!(a.prob_evidence.to_bits(), b.prob_evidence.to_bits());
        for (ma, mb) in a.marginals().iter().zip(b.marginals()) {
            assert_eq!(ma.len(), mb.len());
            for (x, y) in ma.iter().zip(mb) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn live_session_matches_from_scratch_after_each_edit() {
        let net = datasets::asia();
        let solver = Arc::new(Solver::new(&net));
        let mut live = solver.live_session();
        let mut session = solver.session();
        let xray = net.var_id("XRay").unwrap();
        let dysp = net.var_id("Dyspnea").unwrap();
        let smoke = net.var_id("Smoker").unwrap();

        let edits = [
            EvidenceDelta::observe(xray, 0),
            EvidenceDelta::observe(dysp, 1),
            EvidenceDelta::observe(xray, 1), // change
            EvidenceDelta::likelihood(smoke, vec![0.7, 0.3]),
            EvidenceDelta::retract(dysp),
            EvidenceDelta::retract_likelihood(smoke),
            EvidenceDelta::retract(xray), // back to empty
        ];
        for edit in edits {
            live.apply(edit).unwrap();
            let scratch = session
                .run(
                    &Query::new()
                        .evidence(live.evidence().clone())
                        .virtual_evidence(live.virtual_evidence()),
                )
                .unwrap()
                .into_posteriors()
                .unwrap();
            let incremental = live.posteriors().unwrap();
            assert_bitwise(&incremental, &scratch);
            assert_eq!(
                live.prob_evidence().to_bits(),
                scratch.prob_evidence.to_bits()
            );
        }
    }

    #[test]
    fn targeted_reads_match_full_distribute() {
        let net = datasets::student();
        let solver = Arc::new(Solver::new(&net));
        let mut live = solver.live_session();
        let grade = net.var_id("Grade").unwrap();
        let intel = net.var_id("Intelligence").unwrap();
        live.apply(EvidenceDelta::observe(grade, 2)).unwrap();
        // Targeted read first (partial materialization) ...
        let targeted = live.posteriors_for(&[intel]).unwrap();
        let mut buf = vec![0.0; 2];
        live.marginal_into(intel, &mut buf).unwrap();
        // ... then the full read; both must carry identical bits.
        let full = live.posteriors().unwrap();
        for (x, y) in targeted.marginal(intel).iter().zip(full.marginal(intel)) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        for (x, y) in buf.iter().zip(full.marginal(intel)) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn mis_sized_marginal_buffer_is_a_typed_error() {
        let net = datasets::asia();
        let solver = Arc::new(Solver::new(&net));
        let mut live = solver.live_session();
        let xray = net.var_id("XRay").unwrap();
        let tub = net.var_id("Tuberculosis").unwrap();
        live.apply(EvidenceDelta::observe(xray, 0)).unwrap();
        let epoch = live.epoch;
        let stale = |live: &LiveSession| {
            (0..live.dist_stamp.len())
                .all(|c| live.dist_stamp[c] != live.stamp[live.component[c] as usize])
        };
        assert!(stale(&live));
        // Too short and too long, for a free and for an observed variable:
        // the error names the variable, and the buffer and the session are
        // left as they were.
        for var in [tub, xray] {
            for len in [0, 1, 3] {
                let mut buf = vec![f64::NAN; len];
                assert_eq!(
                    live.marginal_into(var, &mut buf).unwrap_err(),
                    InferenceError::InvalidBuffer {
                        var: var.index(),
                        expected: 2,
                        got: len,
                    }
                );
                assert!(buf.iter().all(|v| v.is_nan()));
            }
        }
        assert_eq!(live.epoch, epoch);
        assert!(stale(&live), "nothing read");
        // Still usable, and still exact.
        let mut buf = [0.0; 2];
        live.marginal_into(tub, &mut buf).unwrap();
        let scratch = solver
            .posteriors(&Evidence::from_pairs([(xray, 0)]))
            .unwrap();
        for (x, y) in buf.iter().zip(scratch.marginal(tub)) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn noop_edits_do_not_bump_the_epoch() {
        let net = datasets::sprinkler();
        let solver = Arc::new(Solver::new(&net));
        let mut live = solver.live_session();
        let rain = net.var_id("Rain").unwrap();
        live.apply(EvidenceDelta::observe(rain, 0)).unwrap();
        let epoch = live.epoch;
        live.apply(EvidenceDelta::observe(rain, 0)).unwrap();
        live.apply(EvidenceDelta::retract(net.var_id("Cloudy").unwrap()))
            .unwrap();
        live.apply(EvidenceDelta::retract_likelihood(rain)).unwrap();
        assert_eq!(live.epoch, epoch, "no-op edits must not re-propagate");
        // Proportional likelihoods canonicalize identically → second set
        // is a no-op too.
        live.apply(EvidenceDelta::likelihood(rain, vec![0.8, 0.4]))
            .unwrap();
        let epoch = live.epoch;
        live.apply(EvidenceDelta::likelihood(rain, vec![1.6, 0.8]))
            .unwrap();
        assert_eq!(live.epoch, epoch, "proportional likelihood is a no-op");
    }

    #[test]
    fn impossible_evidence_surfaces_and_retracts_cleanly() {
        let net = datasets::asia();
        let solver = Arc::new(Solver::new(&net));
        let mut live = solver.live_session();
        let tub = net.var_id("Tuberculosis").unwrap();
        let either = net.var_id("TbOrCa").unwrap();
        let baseline = live.posteriors().unwrap();
        live.apply(EvidenceDelta::observe(tub, 0)).unwrap();
        live.apply(EvidenceDelta::observe(either, 1)).unwrap();
        assert_eq!(
            live.posteriors().unwrap_err(),
            InferenceError::ImpossibleEvidence
        );
        assert_eq!(live.prob_evidence(), 0.0);
        live.apply(EvidenceDelta::retract(tub)).unwrap();
        live.apply(EvidenceDelta::retract(either)).unwrap();
        assert_bitwise(&live.posteriors().unwrap(), &baseline);
    }

    #[test]
    fn forest_components_stay_independent() {
        // Two disconnected variables → a two-root junction forest.
        let mut b = fastbn_bayesnet::NetworkBuilder::new();
        let a = b.add_var("a", &["x", "y"]);
        let c = b.add_var("c", &["s", "t", "u"]);
        b.set_cpt(a, vec![], vec![0.3, 0.7]).unwrap();
        b.set_cpt(c, vec![], vec![0.5, 0.25, 0.25]).unwrap();
        let net = b.build().unwrap();
        let solver = Arc::new(Solver::new(&net));
        let mut live = solver.live_session();
        live.apply(EvidenceDelta::observe(a, 1)).unwrap();
        let scratch = solver.posteriors(&Evidence::from_pairs([(a, 1)])).unwrap();
        assert_bitwise(&live.posteriors().unwrap(), &scratch);
        assert_eq!(
            live.prob_evidence().to_bits(),
            scratch.prob_evidence.to_bits()
        );
    }

    /// Two three-clique chains, `a0 → a1 → a2 → a3` and `b0 → b1 → b2 →
    /// b3`, plus an isolated `c`: a three-component junction forest.
    fn three_component_forest() -> (fastbn_bayesnet::BayesianNetwork, [VarId; 3]) {
        let mut b = fastbn_bayesnet::NetworkBuilder::new();
        let mut heads = Vec::new();
        for chain in ["a", "b"] {
            let mut prev = None;
            for i in 0..4 {
                let v = b.add_var(&format!("{chain}{i}"), &["x", "y"]);
                match prev {
                    None => {
                        b.set_cpt(v, vec![], vec![0.4, 0.6]).unwrap();
                        heads.push(v);
                    }
                    Some(p) => b.set_cpt(v, vec![p], vec![0.9, 0.1, 0.3, 0.7]).unwrap(),
                }
                prev = Some(v);
            }
        }
        let c = b.add_var("c", &["s", "t", "u"]);
        b.set_cpt(c, vec![], vec![0.5, 0.25, 0.25]).unwrap();
        (b.build().unwrap(), [heads[0], heads[1], c])
    }

    /// Whether every clique of component `k` holds final values.
    fn component_current(live: &LiveSession, k: usize) -> bool {
        (0..live.component.len())
            .filter(|&c| live.component[c] as usize == k)
            .all(|c| live.dist_stamp[c] == live.stamp[k])
    }

    #[test]
    fn an_edit_restamps_only_its_own_component() {
        let (net, [a, b, _]) = three_component_forest();
        let solver = Arc::new(Solver::new(&net));
        let mut live = solver.live_session();
        assert_eq!(live.stamp.len(), 3);
        let full = live.posteriors().unwrap();
        let home_comp = |v: VarId| live.component[live.prepared.home[v.index()]] as usize;
        let (ka, kb) = (home_comp(a), home_comp(b));
        assert_ne!(ka, kb);
        assert!((0..3).all(|k| component_current(&live, k)));
        let sums = live.root_sums.clone();

        live.apply(EvidenceDelta::observe(a, 1)).unwrap();
        assert!(
            !component_current(&live, ka),
            "the edited component is stale"
        );
        for k in (0..3).filter(|&k| k != ka) {
            assert!(component_current(&live, k), "component {k} stays current");
            assert_eq!(live.root_sums[k].to_bits(), sums[k].to_bits());
            assert_eq!(live.marginal_stamp[k], live.stamp[k]);
        }
        assert_ne!(live.marginal_stamp[ka], live.stamp[ka]);

        // The read re-extracts only the edited component; everything else
        // is copied from the cache, and the whole result is exact.
        let after = live.posteriors().unwrap();
        let scratch = solver.posteriors(&Evidence::from_pairs([(a, 1)])).unwrap();
        assert_bitwise(&after, &scratch);
        let bits = |m: &[f64]| m.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(after.marginal(b)), bits(full.marginal(b)));
    }

    #[test]
    fn a_second_full_read_recomputes_no_marginal() {
        let (net, [a, b, c]) = three_component_forest();
        let solver = Arc::new(Solver::new(&net));
        let mut live = solver.live_session();
        live.apply(EvidenceDelta::observe(b, 0)).unwrap();
        live.posteriors().unwrap();
        // Poison one cached entry per component: a read that recomputed
        // any marginal would overwrite it.
        for v in [a, b, c] {
            live.marginals[live.marginal_off[v.index()]] = -1.0;
        }
        let again = live.posteriors().unwrap();
        for v in [a, b, c] {
            assert_eq!(again.marginal(v)[0], -1.0, "{v:?} was recomputed");
        }
    }

    #[test]
    fn noop_edits_mint_no_stamp_on_a_forest() {
        let (net, [a, b, c]) = three_component_forest();
        let solver = Arc::new(Solver::new(&net));
        let mut live = solver.live_session();
        live.apply(EvidenceDelta::observe(a, 1)).unwrap();
        live.apply(EvidenceDelta::likelihood(c, vec![0.2, 0.4, 0.8]))
            .unwrap();
        live.posteriors().unwrap();
        let (epoch, stamps) = (live.epoch, live.stamp.clone());
        live.apply_all([
            EvidenceDelta::observe(a, 1),
            EvidenceDelta::retract(b),
            EvidenceDelta::retract_likelihood(a),
            EvidenceDelta::likelihood(c, vec![0.1, 0.2, 0.4]), // proportional
        ])
        .unwrap();
        assert_eq!(live.epoch, epoch, "no stamp minted");
        assert_eq!(live.stamp, stamps);
        assert!((0..3).all(|k| component_current(&live, k)));
        assert_eq!(live.marginal_stamp, live.stamp);
    }
}
