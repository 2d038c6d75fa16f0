//! Query-independent preparation: junction tree, domains, CPT assignment,
//! the slab layout, and precompiled kernel plans.
//!
//! Everything here is computed once per network and shared (via `Arc`)
//! by every engine instance; per-query work only ever touches the
//! [`crate::state::WorkState`] slab. `Prepared` also compiles one
//! [`KernelPlan`] per (clique, separator) incidence, so steady-state
//! propagation never re-derives an index mapping — and never allocates.

use std::sync::Arc;

use fastbn_bayesnet::{BayesianNetwork, VarId};
use fastbn_jtree::{build_junction_tree, BuiltTree, JtreeOptions};
use fastbn_potential::ops::{self, VarAxis};
use fastbn_potential::{Domain, KernelPlan, PotentialTable};

/// Offsets of every table inside a [`crate::state::WorkState`] slab.
///
/// The slab holds four regions, in order: all clique tables, all current
/// separator tables, all `fresh` scratch tables, all `ratio` scratch
/// tables. Each table occupies a contiguous `[off, off + len)` range, so
/// any (clique, sep, fresh, ratio) quadruple is a set of pairwise-disjoint
/// slices of one allocation.
///
/// Two further **saved-message regions** extend the layout past `total`,
/// used only by incremental re-propagation
/// ([`LiveSession`](crate::delta::LiveSession)): a per-clique snapshot of
/// the post-collect clique values and a per-separator copy of the collect
/// message. A plain query [`WorkState`](crate::state::WorkState) allocates
/// `total` values and never touches them; a live state allocates
/// `live_total` and keeps them current across evidence-delta edits, so a
/// single-finding update replays only the dirty path against saved
/// messages — allocation-free.
#[derive(Debug, Clone)]
pub struct SlabLayout {
    /// Start of clique `c`'s values.
    pub clique_off: Vec<usize>,
    /// Length of clique `c`'s values (its domain size).
    pub clique_len: Vec<usize>,
    /// Start of separator `s`'s current values.
    pub sep_off: Vec<usize>,
    /// Length of separator `s`'s values (shared by sep/fresh/ratio).
    pub sep_len: Vec<usize>,
    /// Start of separator `s`'s `fresh` scratch.
    pub fresh_off: Vec<usize>,
    /// Start of separator `s`'s `ratio` scratch.
    pub ratio_off: Vec<usize>,
    /// Slab length in `f64`s for a plain query state (the four active
    /// regions; also the prefix a whole-slab reset restores).
    pub total: usize,
    /// Start of clique `c`'s saved post-collect snapshot (live states
    /// only; the saved clique block begins at `total`).
    pub saved_clique_off: Vec<usize>,
    /// Start of separator `s`'s saved collect message (live states only).
    pub saved_col_off: Vec<usize>,
    /// Slab length including the saved-message regions.
    pub live_total: usize,
}

/// The two precompiled plans of one junction-tree edge: both endpoint
/// cliques against the separator between them.
#[derive(Debug, Clone)]
pub struct EdgePlans {
    /// The deeper endpoint (message sender during collect).
    pub child_clique: usize,
    /// The shallower endpoint (message sender during distribute).
    pub parent_clique: usize,
    /// Plan for `clique_domains[child_clique]` → separator domain.
    pub child: KernelPlan,
    /// Plan for `clique_domains[parent_clique]` → separator domain.
    pub parent: KernelPlan,
}

/// Immutable, query-independent inference state for one network.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// Variable cardinalities, indexed by id.
    pub cards: Vec<usize>,
    /// The junction tree, rooting and layer schedule.
    pub built: BuiltTree,
    /// One domain per clique (over the clique's variables).
    pub clique_domains: Vec<Arc<Domain>>,
    /// One domain per separator.
    pub sep_domains: Vec<Arc<Domain>>,
    /// One pair of precompiled kernel plans per separator edge.
    pub sep_plans: Vec<EdgePlans>,
    /// Slab offsets shared by every [`crate::state::WorkState`].
    pub layout: Arc<SlabLayout>,
    /// The slab every query starts from: clique regions hold the initial
    /// potentials (all assigned CPT factors multiplied in), separator and
    /// scratch regions hold `1.0`. Shared with every
    /// [`WorkState`](crate::state::WorkState), which reads a clique's
    /// initial values from here until its first write.
    pub initial_slab: Arc<[f64]>,
    /// `assignment[v]` = clique that absorbed the CPT of variable `v`
    /// (the smallest clique containing the family).
    pub assignment: Vec<usize>,
    /// `home[v]` = smallest clique containing `v`; used both for evidence
    /// entry and for reading the variable's posterior.
    pub home: Vec<usize>,
    /// `axes[v]` = `v`'s stride and cardinality in its home clique: all
    /// the single-variable kernels need to enter a finding or read a
    /// marginal there, without a plan.
    pub(crate) axes: Vec<VarAxis>,
    /// Whether [`WorkState::reset`](crate::state::WorkState::reset) leaves
    /// the clique regions to be rebuilt from the initial slab at their
    /// first write instead of copying them: set for an active slab above
    /// `LAZY_RESET_MIN_ENTRIES` (`state.rs`).
    pub(crate) lazy_reset: bool,
}

impl Prepared {
    /// Builds the junction tree, plans, and initial slab for `net`.
    pub fn new(net: &BayesianNetwork, options: &JtreeOptions) -> Self {
        let built = build_junction_tree(net, options);
        let cards = net.cardinalities();

        let clique_domains: Vec<Arc<Domain>> = built
            .tree
            .cliques
            .iter()
            .map(|c| Arc::new(Domain::from_vars(&c.vars, &cards)))
            .collect();
        let sep_domains: Vec<Arc<Domain>> = built
            .tree
            .separators
            .iter()
            .map(|s| Arc::new(Domain::from_vars(&s.vars, &cards)))
            .collect();

        let sep_plans: Vec<EdgePlans> = built
            .tree
            .separators
            .iter()
            .zip(&sep_domains)
            .map(|(sep, dom)| {
                // The deeper endpoint sends during collect.
                let (child, parent) = if built.rooted.depth[sep.a] > built.rooted.depth[sep.b] {
                    (sep.a, sep.b)
                } else {
                    (sep.b, sep.a)
                };
                EdgePlans {
                    child_clique: child,
                    parent_clique: parent,
                    child: KernelPlan::new(&clique_domains[child], dom),
                    parent: KernelPlan::new(&clique_domains[parent], dom),
                }
            })
            .collect();

        let mut assignment = Vec::with_capacity(net.num_vars());
        let mut home = Vec::with_capacity(net.num_vars());
        for v in 0..net.num_vars() {
            let id = VarId::from_index(v);
            let family = net.dag().family(id);
            assignment.push(
                built
                    .tree
                    .smallest_containing(&family)
                    .expect("every CPT family fits in some clique"),
            );
            home.push(
                built
                    .tree
                    .smallest_containing_var(id)
                    .expect("every variable appears in some clique"),
            );
        }

        let axes = (0..net.num_vars())
            .map(|v| VarAxis::of(&clique_domains[home[v]], VarId::from_index(v)))
            .collect();

        // Slab layout: cliques, then seps, then fresh, then ratio.
        let mut layout = SlabLayout {
            clique_off: Vec::with_capacity(clique_domains.len()),
            clique_len: Vec::with_capacity(clique_domains.len()),
            sep_off: Vec::with_capacity(sep_domains.len()),
            sep_len: Vec::with_capacity(sep_domains.len()),
            fresh_off: Vec::with_capacity(sep_domains.len()),
            ratio_off: Vec::with_capacity(sep_domains.len()),
            total: 0,
            saved_clique_off: Vec::with_capacity(clique_domains.len()),
            saved_col_off: Vec::with_capacity(sep_domains.len()),
            live_total: 0,
        };
        let mut off = 0usize;
        for d in &clique_domains {
            layout.clique_off.push(off);
            layout.clique_len.push(d.size());
            off += d.size();
        }
        for d in &sep_domains {
            layout.sep_off.push(off);
            layout.sep_len.push(d.size());
            off += d.size();
        }
        for (s, _) in sep_domains.iter().enumerate() {
            layout.fresh_off.push(off);
            off += layout.sep_len[s];
        }
        for (s, _) in sep_domains.iter().enumerate() {
            layout.ratio_off.push(off);
            off += layout.sep_len[s];
        }
        layout.total = off;
        // Saved-message regions (live states only): the clique snapshots
        // first — contiguous and in clique order, so one bulk copy
        // snapshots every post-collect clique — then the collect messages.
        for (c, _) in clique_domains.iter().enumerate() {
            layout.saved_clique_off.push(off);
            off += layout.clique_len[c];
        }
        for (s, _) in sep_domains.iter().enumerate() {
            layout.saved_col_off.push(off);
            off += layout.sep_len[s];
        }
        layout.live_total = off;

        // Initial potentials: ones, then multiply in each assigned factor
        // (prep-time allocation is fine; queries never allocate).
        let mut initial_cliques: Vec<PotentialTable> = clique_domains
            .iter()
            .map(|d| PotentialTable::ones(d.clone()))
            .collect();
        for v in 0..net.num_vars() {
            let factor = PotentialTable::from_cpt(net.cpt(VarId::from_index(v)), &cards);
            ops::extend_multiply(&mut initial_cliques[assignment[v]], &factor);
        }
        // Built in its `Arc` allocation: an exact-length iterator is
        // collected in place, and the `Arc` is unique until it is
        // returned, so the clique tables are written straight into it.
        let mut initial_slab: Arc<[f64]> = std::iter::repeat_n(1.0, layout.total).collect();
        let slab = Arc::get_mut(&mut initial_slab).expect("a fresh Arc is unique");
        for (c, table) in initial_cliques.iter().enumerate() {
            let off = layout.clique_off[c];
            slab[off..off + layout.clique_len[c]].copy_from_slice(table.values());
        }
        let lazy_reset = crate::state::resets_lazily(layout.total);

        Prepared {
            cards,
            built,
            clique_domains,
            sep_domains,
            sep_plans,
            layout: Arc::new(layout),
            initial_slab,
            assignment,
            home,
            axes,
            lazy_reset,
        }
    }

    /// Test hook: this preparation with the reset mode of its
    /// [`WorkState`](crate::state::WorkState)s forced — `true` leaves
    /// every clique to be rebuilt from the initial slab at its first
    /// write, `false` copies the whole slab — whatever the slab's size.
    /// Lets the differential suites run both modes on small networks.
    #[doc(hidden)]
    pub fn with_lazy_reset(mut self, lazy: bool) -> Self {
        self.lazy_reset = lazy;
        self
    }

    /// The precompiled plan mapping `clique`'s domain onto separator
    /// `sep`'s domain. `clique` must be one of the edge's two endpoints.
    #[inline]
    pub fn plan_for(&self, clique: usize, sep: usize) -> &KernelPlan {
        let edge = &self.sep_plans[sep];
        if edge.child_clique == clique {
            &edge.child
        } else {
            debug_assert_eq!(edge.parent_clique, clique, "clique not on edge {sep}");
            &edge.parent
        }
    }

    /// Clique `c`'s initial values (the slab region every query resets to).
    pub fn initial_clique(&self, c: usize) -> &[f64] {
        let off = self.layout.clique_off[c];
        &self.initial_slab[off..off + self.layout.clique_len[c]]
    }

    /// Number of cliques.
    pub fn num_cliques(&self) -> usize {
        self.built.tree.num_cliques()
    }

    /// Number of separators.
    pub fn num_separators(&self) -> usize {
        self.built.tree.num_separators()
    }

    /// Number of network variables.
    pub fn num_vars(&self) -> usize {
        self.cards.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastbn_bayesnet::datasets;

    #[test]
    fn initial_potentials_multiply_to_the_joint_mass() {
        // The product of all initial clique tables, marginalized fully,
        // must equal 1 (it is the full joint distribution).
        let net = datasets::asia();
        let prepared = Prepared::new(&net, &JtreeOptions::default());
        // Since every CPT is assigned exactly once, the product of all
        // clique sums ≥ ... instead check: total probability mass equals 1
        // after a full propagation — covered by engine tests. Here, check
        // cheap structural facts.
        assert_eq!(prepared.num_cliques(), 6);
        assert_eq!(prepared.num_separators(), 5);
        for v in 0..net.num_vars() {
            let id = VarId::from_index(v);
            let fam = net.dag().family(id);
            let clique = &prepared.built.tree.cliques[prepared.assignment[v]];
            assert!(clique.contains_all(&fam), "family of {v} in its clique");
            assert!(prepared.built.tree.cliques[prepared.home[v]].contains(id));
            let home = &prepared.clique_domains[prepared.home[v]];
            assert_eq!(prepared.axes[v].stride, home.stride_of(id));
            assert_eq!(prepared.axes[v].card, net.cardinality(id));
        }
    }

    #[test]
    fn clique_domains_match_clique_vars() {
        let net = datasets::student();
        let prepared = Prepared::new(&net, &JtreeOptions::default());
        for (c, dom) in prepared.clique_domains.iter().enumerate() {
            assert_eq!(dom.vars(), prepared.built.tree.cliques[c].vars.as_slice());
            assert_eq!(prepared.layout.clique_len[c], dom.size());
            assert_eq!(prepared.initial_clique(c).len(), dom.size());
        }
        for (s, dom) in prepared.sep_domains.iter().enumerate() {
            assert_eq!(
                dom.vars(),
                prepared.built.tree.separators[s].vars.as_slice()
            );
            assert_eq!(prepared.layout.sep_len[s], dom.size());
        }
    }

    #[test]
    fn slab_layout_regions_are_disjoint_and_cover_the_slab() {
        let net = datasets::asia();
        let prepared = Prepared::new(&net, &JtreeOptions::default());
        let layout = &prepared.layout;
        let mut ranges: Vec<(usize, usize)> = Vec::new();
        for c in 0..prepared.num_cliques() {
            ranges.push((layout.clique_off[c], layout.clique_len[c]));
        }
        for s in 0..prepared.num_separators() {
            ranges.push((layout.sep_off[s], layout.sep_len[s]));
            ranges.push((layout.fresh_off[s], layout.sep_len[s]));
            ranges.push((layout.ratio_off[s], layout.sep_len[s]));
        }
        ranges.sort_unstable();
        let mut end = 0usize;
        for (off, len) in ranges {
            assert_eq!(off, end, "regions must tile the slab without gaps");
            end = off + len;
        }
        assert_eq!(end, layout.total);
        assert_eq!(prepared.initial_slab.len(), layout.total);
        // The saved-message regions tile the live extension past `total`.
        let mut saved: Vec<(usize, usize)> = Vec::new();
        for c in 0..prepared.num_cliques() {
            saved.push((layout.saved_clique_off[c], layout.clique_len[c]));
        }
        for s in 0..prepared.num_separators() {
            saved.push((layout.saved_col_off[s], layout.sep_len[s]));
        }
        saved.sort_unstable();
        let mut end = layout.total;
        for (off, len) in saved {
            assert_eq!(off, end, "saved regions must tile past the active slab");
            end = off + len;
        }
        assert_eq!(end, layout.live_total);
        // Non-clique regions start at 1.0.
        for s in 0..prepared.num_separators() {
            for &off in [layout.sep_off[s], layout.fresh_off[s], layout.ratio_off[s]].iter() {
                assert!(prepared.initial_slab[off..off + layout.sep_len[s]]
                    .iter()
                    .all(|&v| v == 1.0));
            }
        }
    }

    #[test]
    fn sep_plans_match_edge_endpoints() {
        let net = datasets::asia();
        let prepared = Prepared::new(&net, &JtreeOptions::default());
        for (s, edge) in prepared.sep_plans.iter().enumerate() {
            let sep = &prepared.built.tree.separators[s];
            let endpoints = [edge.child_clique, edge.parent_clique];
            assert!(endpoints.contains(&sep.a) && endpoints.contains(&sep.b));
            assert!(
                prepared.built.rooted.depth[edge.child_clique]
                    > prepared.built.rooted.depth[edge.parent_clique]
            );
            assert_eq!(edge.child.sub_size(), prepared.sep_domains[s].size());
            assert_eq!(
                edge.child.sup_size(),
                prepared.clique_domains[edge.child_clique].size()
            );
            assert_eq!(
                edge.parent.sup_size(),
                prepared.clique_domains[edge.parent_clique].size()
            );
            assert!(std::ptr::eq(
                prepared.plan_for(edge.child_clique, s),
                &edge.child
            ));
            assert!(std::ptr::eq(
                prepared.plan_for(edge.parent_clique, s),
                &edge.parent
            ));
        }
    }

    #[test]
    fn single_variable_network() {
        let mut b = fastbn_bayesnet::NetworkBuilder::new();
        let a = b.add_var("solo", &["x", "y", "z"]);
        b.set_cpt(a, vec![], vec![0.5, 0.25, 0.25]).unwrap();
        let net = b.build().unwrap();
        let prepared = Prepared::new(&net, &JtreeOptions::default());
        assert_eq!(prepared.num_cliques(), 1);
        assert_eq!(prepared.num_separators(), 0);
        assert_eq!(prepared.initial_clique(0), &[0.5, 0.25, 0.25]);
    }
}
