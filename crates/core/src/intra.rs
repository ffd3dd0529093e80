//! Parallel evaluation *inside* one matched component.
//!
//! Per-component parallelism (§4.1.2, `EngineConfig::flush_threads`)
//! goes idle the moment a workload entangles everything into one giant
//! component: the paper's coordination semantics force all queries of a
//! match-graph component to be answered together, so one combined query
//! serializes the whole flush. This module splits that combined query's
//! evaluation search space into **work units** that are independent by
//! construction and can be dispatched on the same worker pool, with a
//! deterministic merge that reproduces the sequential answer choice.
//!
//! # Work-unit extraction
//!
//! [`plan_component`] walks the component's survivors over
//! [`MatchView`] (the engine's resident graph or a batch-built
//! [`crate::MatchGraph`] — same code path), simplifies every body atom
//! and constraint under the component's global unifier exactly as
//! [`crate::CombinedQuery::build`] does, and then partitions the
//! simplified conjunction by **variable connectivity**: two atoms land
//! in the same [`WorkUnit`] iff they are linked by a chain of shared
//! variables (constraints link the units of their variables too). This
//! is the search-space decomposition the combined query admits after
//! §4.2 simplification — entangled queries share *answers* through
//! their heads and postconditions, but their bodies touch disjoint
//! variables unless the global unifier actually merged them, so a giant
//! ring of 10,000 pairwise-entangled queries yields thousands of small
//! independent joins instead of one 30,000-atom join. Fully ground
//! atoms and constraints (no variables at all after simplification)
//! become per-plan membership checks.
//!
//! # Deterministic merge
//!
//! Because the units are variable-disjoint, a valuation of the whole
//! combined body is exactly one valuation per unit, glued together.
//! [`evaluate_plan`] evaluates each unit with `LIMIT 1` and merges the
//! per-unit valuations by unit index. The merged result equals the
//! *sequential* evaluator's first solution because the evaluator's
//! greedy join order breaks ties structurally (see
//! `choose_atom` in `eq_db`): an atom's ordering key depends only on
//! its own unit's bindings, so the backtracking search over the whole
//! body explores each unit's assignments in exactly the order the
//! unit-local search does, and its first full solution is the
//! composition of the per-unit firsts. The engine property-tests this
//! equivalence (intra-parallel ≡ sequential, answer for answer) in
//! both engine modes.
//!
//! # Shared-variable splitting: biconnected regions
//!
//! Variable-connectivity partitioning collapses the moment the global
//! unifier chains variables *across* bodies: a ring of queries whose
//! postconditions name their neighbours' body variables yields **one**
//! work unit spanning the whole component, and the flush serializes
//! again. For such units, [`split_unit`] decomposes the variable graph
//! (variables as vertices, one clique per atom/constraint over its
//! variables) into **biconnected regions**: the blocks of the graph,
//! glued at articulation variables. Because two blocks share at most
//! one vertex, the block-cut structure is a tree, and the articulation
//! variables are exactly the join keys between regions.
//!
//! Region evaluation is Yannakakis over that tree, run as a
//! **streaming articulation projection**: bottom-up, children first,
//! each region *streams* its local solutions through `eq_db`'s visitor
//! enumeration and retains only a witness set of parent-articulation
//! values bound by some locally-extensible solution — memory
//! proportional to the articulation-value domain, never to the
//! region's solution count; the root region streams until its first
//! extensible solution. Top-down, the one chosen joint answer is
//! re-enumerated region by region with the parent articulation variable
//! *pinned* to the chosen value as an equality constraint pair, stopping
//! at the first extensible solution — which is provably the
//! representative a materialized semi-join (enumerate every region,
//! then join the sets) would keep, because constraints never influence
//! the evaluator's join order. That materialized evaluator lives in
//! this module's tests as the oracle the streaming path is checked
//! against, answer for answer. The result is **exact** — a solution is
//! produced iff the unit has one — and **deterministic** (independent
//! of thread count; the tree walk is sequential within a unit, units
//! run in parallel), but it is the tree-join's first solution, not
//! necessarily the one the sequential whole-unit backtracking search
//! would find first; when a unit's solution is unique the two coincide.
//!
//! Splitting is gated by one work/overhead crossover
//! ([`crate::EngineConfig::intra_split_crossover`]): a unit of `a` atoms
//! that decomposes into `r` regions splits only when
//! `a² ≥ crossover × r`, because small units evaluate faster whole than
//! through per-region dispatch. Every split has `r ≥ 2`, so a unit with
//! `a² < 2 × crossover` is not even decomposed.
//!
//! Components below [`crate::EngineConfig::intra_component_threshold`]
//! never reach this module — they evaluate through the plain
//! [`crate::CombinedQuery`] path, which this module's result is
//! guaranteed (and tested) to agree with.

use crate::combine::{distribute_heads, QueryAnswer};
use crate::graph::MatchView;
use crate::pool;
use eq_db::{Database, DbError, Valuation};
use eq_ir::{Atom, CmpOp, Constraint, FastMap, FastSet, QueryId, Term, Value, Var};
use eq_unify::Unifier;
use std::collections::VecDeque;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};

/// One independently evaluable piece of a combined query: a maximal
/// variable-connected sub-conjunction of the simplified body, plus the
/// constraints over its variables.
#[derive(Clone, Debug)]
pub struct WorkUnit {
    /// Simplified body atoms of this unit (each shares a variable chain
    /// with every other atom of the unit, and none with any other
    /// unit).
    pub atoms: Vec<Atom>,
    /// Simplified constraints whose variables belong to this unit.
    pub constraints: Vec<Constraint>,
    /// Biconnected-region decomposition, present when the unit
    /// decomposes (≥ 2 regions) and passes the split crossover gate
    /// (see [`plan_component`]).
    pub regions: Option<RegionPlan>,
}

/// The biconnected-region decomposition of one shared-variable work
/// unit: regions tiled over the unit's atoms, arranged in a block-cut
/// tree whose edges are articulation variables.
#[derive(Clone, Debug)]
pub struct RegionPlan {
    /// Regions in deterministic order (by first atom of the region in
    /// the unit's body order). Region 0 is the tree root.
    pub regions: Vec<Region>,
}

/// One biconnected region: a sub-conjunction that overlaps the rest of
/// its unit in exactly one variable per tree edge.
#[derive(Clone, Debug)]
pub struct Region {
    /// The region's atoms, in unit body order.
    pub atoms: Vec<Atom>,
    /// Constraints whose variables live in this region.
    pub constraints: Vec<Constraint>,
    /// The articulation variable shared with the parent region (`None`
    /// for the root).
    pub parent_var: Option<Var>,
    /// Child regions in the block-cut tree.
    pub children: Vec<usize>,
}

/// The partitioned evaluation plan for one matched component: work
/// units, plus the variable-free residue that needs no search.
#[derive(Clone, Debug)]
pub struct ComponentPlan {
    /// Variable-connected work units, in order of first appearance in
    /// the combined body (survivor order, then body order).
    pub units: Vec<WorkUnit>,
    /// Fully ground body atoms: membership checks, no bindings.
    pub ground_atoms: Vec<Atom>,
    /// Fully ground constraints: checked once against the empty
    /// valuation.
    pub ground_constraints: Vec<Constraint>,
    /// Per-survivor simplified heads, exactly as
    /// [`crate::CombinedQuery::build`] produces them.
    pub heads: Vec<(QueryId, Vec<Atom>)>,
}

/// Union-find over query variables, used to group atoms into
/// variable-connected work units.
#[derive(Default)]
struct VarUnion {
    parent: FastMap<Var, Var>,
}

impl VarUnion {
    /// Iterative find with full path compression — giant components
    /// can chain tens of thousands of variables, so no recursion.
    fn find(&mut self, v: Var) -> Var {
        let mut root = v;
        while let Some(&p) = self.parent.get(&root) {
            if p == root {
                break;
            }
            root = p;
        }
        self.parent.entry(v).or_insert(v);
        let mut cur = v;
        while cur != root {
            let p = self.parent[&cur];
            self.parent.insert(cur, root);
            cur = p;
        }
        root
    }

    fn union(&mut self, a: Var, b: Var) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent.insert(ra, rb);
        }
    }
}

/// Builds the partitioned plan for a matched component's survivors and
/// global unifier, over any [`MatchView`]. The flat concatenation of
/// `ground_atoms` and every unit's `atoms` is a permutation of the
/// combined query's body; likewise for constraints; `heads` is
/// identical to the combined query's.
///
/// A unit of `a` atoms additionally carries its biconnected-region
/// decomposition ([`split_unit`]) into `r` regions when
/// `a² ≥ crossover × r`, the gate of
/// [`crate::EngineConfig::intra_split_crossover`]: `0` splits every
/// unit that decomposes; `usize::MAX` never splits.
pub fn plan_component<V: MatchView>(
    graph: &V,
    survivors: &[u32],
    global: &Unifier,
    crossover: usize,
) -> ComponentPlan {
    // One shared simplification with the sequential path — the
    // answer-equivalence guarantee requires byte-identical inputs.
    let (atoms, constraints, heads) = crate::combine::simplify_survivors(graph, survivors, global);

    // Variable-connectivity union-find: atoms glue their own variables
    // together; constraints glue their variables' units together.
    let mut uf = VarUnion::default();
    for atom in &atoms {
        let mut vars = atom.vars();
        if let Some(first) = vars.next() {
            for v in vars {
                uf.union(first, v);
            }
        }
    }
    for c in &constraints {
        let mut vars = c.vars();
        if let Some(first) = vars.next() {
            for v in vars {
                uf.union(first, v);
            }
        }
    }

    // Group atoms by their variables' root, units ordered by first
    // appearance (deterministic: body order).
    let mut unit_of_root: FastMap<Var, usize> = FastMap::default();
    let mut units: Vec<WorkUnit> = Vec::new();
    let mut ground_atoms = Vec::new();
    for atom in atoms {
        let first_var = atom.vars().next();
        match first_var {
            None => ground_atoms.push(atom),
            Some(v) => {
                let root = uf.find(v);
                let idx = *unit_of_root.entry(root).or_insert_with(|| {
                    units.push(WorkUnit {
                        atoms: Vec::new(),
                        constraints: Vec::new(),
                        regions: None,
                    });
                    units.len() - 1
                });
                units[idx].atoms.push(atom);
            }
        }
    }
    let mut ground_constraints = Vec::new();
    for c in constraints {
        let first_var = c.vars().next();
        match first_var {
            None => ground_constraints.push(c),
            Some(v) => {
                let root = uf.find(v);
                match unit_of_root.get(&root) {
                    Some(&idx) => units[idx].constraints.push(c),
                    // A constraint over variables no body atom binds can
                    // never become decidable; the sequential evaluator
                    // passes it provisionally forever, so checking it
                    // against the empty valuation (undecidable ⇒ pass)
                    // is equivalent.
                    None => ground_constraints.push(c),
                }
            }
        }
    }

    for unit in &mut units {
        let work = unit.atoms.len().saturating_mul(unit.atoms.len());
        // Every split has at least two regions, so a unit below
        // `2 × crossover` cannot pass the gate: skip the decomposition.
        if work >= crossover.saturating_mul(2) {
            unit.regions =
                split_unit(unit).filter(|rp| work >= crossover.saturating_mul(rp.regions.len()));
        }
    }

    ComponentPlan {
        units,
        ground_atoms,
        ground_constraints,
        heads,
    }
}

/// Decomposes one variable-connected work unit into biconnected
/// regions of its variable graph (vertices = the unit's variables, one
/// clique per atom/constraint over its distinct variables). Returns
/// `None` when the unit does not decompose — fewer than two blocks
/// (e.g. a cycle of shared variables, which is 2-connected) — or when a
/// block holds no atom at all (its only edges came from a
/// multi-variable *constraint* bridging two atom clusters; such a
/// constraint spans regions and no region could enforce it, so the
/// unit evaluates whole).
///
/// Guarantees, relied on by [`evaluate_plan`]'s tree join:
///
/// * every **multi-variable** atom/constraint lands in exactly one
///   region (a clique is biconnected, so all of its variables share
///   one block); **single-variable** atoms and constraints are
///   *replicated* into every region containing their variable — a
///   conjunct constrains its variable identically wherever it is
///   checked, so replication is sound, and it keeps each region
///   anchored by its most selective atoms;
/// * two regions overlap in at most one variable (blocks share at most
///   one vertex — the articulation variable), and [`Region::parent_var`]
///   edges form the block-cut tree, so every variable's regions are a
///   connected subtree (the running-intersection property that makes
///   the tree semi-join exact);
/// * region order, the tree, and all contents are deterministic
///   functions of the unit (no hash-iteration order leaks in);
/// * every tree-edge articulation variable is **atom-anchored** in both
///   endpoint regions (bound by every region-local solution, so the
///   merge can always key on it) — units violating this refuse to
///   split.
pub fn split_unit(unit: &WorkUnit) -> Option<RegionPlan> {
    // Variables in first-occurrence order (atoms, then constraints).
    let mut var_id: FastMap<Var, usize> = FastMap::default();
    let mut vars: Vec<Var> = Vec::new();
    let intern = |v: Var, var_id: &mut FastMap<Var, usize>, vars: &mut Vec<Var>| -> usize {
        *var_id.entry(v).or_insert_with(|| {
            vars.push(v);
            vars.len() - 1
        })
    };
    // Distinct-variable lists per atom / constraint, in order.
    let mut atom_vars: Vec<Vec<usize>> = Vec::with_capacity(unit.atoms.len());
    for atom in &unit.atoms {
        let mut vs: Vec<usize> = Vec::new();
        for v in atom.vars() {
            let id = intern(v, &mut var_id, &mut vars);
            if !vs.contains(&id) {
                vs.push(id);
            }
        }
        atom_vars.push(vs);
    }
    let mut constraint_vars: Vec<Vec<usize>> = Vec::with_capacity(unit.constraints.len());
    for c in &unit.constraints {
        let mut vs: Vec<usize> = Vec::new();
        for v in c.vars() {
            let id = intern(v, &mut var_id, &mut vars);
            if !vs.contains(&id) {
                vs.push(id);
            }
        }
        constraint_vars.push(vs);
    }
    let n = vars.len();
    if n < 2 {
        return None;
    }

    // Edges: one clique per multi-variable atom/constraint, dedupped.
    let mut edge_of: FastMap<(usize, usize), usize> = FastMap::default();
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let mut adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n]; // (neighbor, edge id)
    {
        let mut add_clique = |vs: &[usize]| {
            for (i, &a) in vs.iter().enumerate() {
                for &b in &vs[i + 1..] {
                    let key = (a.min(b), a.max(b));
                    if edge_of.contains_key(&key) {
                        continue;
                    }
                    let e = edges.len();
                    edge_of.insert(key, e);
                    edges.push(key);
                    adj[a].push((b, e));
                    adj[b].push((a, e));
                }
            }
        };
        for vs in &atom_vars {
            add_clique(vs);
        }
        for vs in &constraint_vars {
            add_clique(vs);
        }
    }
    if edges.is_empty() {
        return None;
    }

    // Iterative Hopcroft–Tarjan: biconnected components as edge sets.
    const UNSEEN: usize = usize::MAX;
    let mut disc = vec![UNSEEN; n];
    let mut low = vec![0usize; n];
    let mut parent_edge = vec![UNSEEN; n];
    let mut timer = 0usize;
    let mut edge_stack: Vec<usize> = Vec::new();
    let mut edge_block = vec![UNSEEN; edges.len()];
    let mut block_count = 0usize;
    disc[0] = timer;
    low[0] = timer;
    timer += 1;
    let mut dfs: Vec<(usize, usize)> = vec![(0, 0)];
    while let Some(frame) = dfs.last_mut() {
        let v = frame.0;
        if frame.1 < adj[v].len() {
            let (w, e) = adj[v][frame.1];
            frame.1 += 1;
            if e == parent_edge[v] {
                continue;
            }
            if disc[w] == UNSEEN {
                edge_stack.push(e);
                parent_edge[w] = e;
                disc[w] = timer;
                low[w] = timer;
                timer += 1;
                dfs.push((w, 0));
            } else if disc[w] < disc[v] {
                // Back edge to an ancestor; the reverse direction of an
                // already-traversed edge (disc[w] > disc[v]) is skipped.
                edge_stack.push(e);
                low[v] = low[v].min(disc[w]);
            }
        } else {
            dfs.pop();
            if let Some(up) = dfs.last() {
                let u = up.0;
                low[u] = low[u].min(low[v]);
                if low[v] >= disc[u] {
                    // u closes a block: pop edges down to the tree edge
                    // into v. The tree edge is on the stack by the DFS
                    // invariant; an empty pop would mean the traversal
                    // state is corrupt, so refuse the split (sound: the
                    // unit just evaluates whole).
                    let block = block_count;
                    block_count += 1;
                    loop {
                        let e = edge_stack.pop()?;
                        edge_block[e] = block;
                        if e == parent_edge[v] {
                            break;
                        }
                    }
                }
            }
        }
    }
    debug_assert!(edge_stack.is_empty(), "unit variable graph is connected");
    if block_count < 2 {
        return None;
    }

    // Order blocks deterministically by their first atom in body order,
    // and map every atom/constraint to its block: multi-variable ones
    // to the block of their first variable pair, single-variable ones
    // (and the rare constraint over an articulation variable alone) to
    // the lowest-ordered block containing the variable. The clique edge
    // exists by construction; a miss means the edge bookkeeping is
    // inconsistent, so `None` — callers refuse the split, which is
    // always sound.
    let raw_block = |vs: &[usize]| -> Option<usize> {
        let key = (vs[0].min(vs[1]), vs[0].max(vs[1]));
        let e = edge_of.get(&key)?;
        edge_block.get(*e).copied()
    };
    let mut order_key = vec![usize::MAX; block_count];
    for (ai, vs) in atom_vars.iter().enumerate() {
        if vs.len() >= 2 {
            let b = raw_block(vs)?;
            order_key[b] = order_key[b].min(ai);
        }
    }
    // A block with no atom clique exists iff a multi-variable
    // *constraint* is the only bridge between two atom clusters. That
    // constraint would span regions — no single region could enforce
    // it — so the unit must evaluate whole.
    if order_key.contains(&usize::MAX) {
        return None;
    }
    let mut by_order: Vec<usize> = (0..block_count).collect();
    by_order.sort_by_key(|&b| order_key[b]);
    let mut new_id = vec![0usize; block_count];
    for (rank, &b) in by_order.iter().enumerate() {
        new_id[b] = rank;
    }

    // Region vertex sets (from block edges) and the per-variable block
    // lists that define articulation variables.
    let mut region_vars: Vec<Vec<usize>> = vec![Vec::new(); block_count];
    let mut var_regions: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (e, &(a, b)) in edges.iter().enumerate() {
        let r = new_id[edge_block[e]];
        for vid in [a, b] {
            if !var_regions[vid].contains(&r) {
                var_regions[vid].push(r);
                region_vars[r].push(vid);
            }
        }
    }
    for regions in &mut var_regions {
        regions.sort_unstable();
    }

    let mut regions: Vec<Region> = (0..block_count)
        .map(|_| Region {
            atoms: Vec::new(),
            constraints: Vec::new(),
            parent_var: None,
            children: Vec::new(),
        })
        .collect();
    // Multi-variable atoms/constraints go to their (unique) block.
    // Single-variable ones are **replicated into every region
    // containing the variable**: a conjunct constrains its variable
    // identically wherever it is checked, so replication is sound, and
    // it keeps every region anchored — a region whose only selective
    // atom sat across the articulation boundary would otherwise
    // enumerate an unfiltered cross product.
    for (ai, vs) in atom_vars.iter().enumerate() {
        if vs.len() >= 2 {
            let r = new_id[raw_block(vs)?];
            regions[r].atoms.push(unit.atoms[ai].clone());
        } else {
            for &r in &var_regions[vs[0]] {
                regions[r].atoms.push(unit.atoms[ai].clone());
            }
        }
    }
    for (ci, vs) in constraint_vars.iter().enumerate() {
        if vs.len() >= 2 {
            let r = new_id[raw_block(vs)?];
            regions[r].constraints.push(unit.constraints[ci]);
        } else {
            for &r in &var_regions[vs[0]] {
                regions[r].constraints.push(unit.constraints[ci]);
            }
        }
    }

    // Block-cut tree, rooted at region 0: BFS where expansion goes
    // through articulation variables, so every tree edge carries
    // exactly the variable its endpoints share.
    let mut visited = vec![false; block_count];
    visited[0] = true;
    let mut queue = VecDeque::from([0usize]);
    let mut reached = 1usize;
    while let Some(r) = queue.pop_front() {
        let mut shared: Vec<usize> = region_vars[r]
            .iter()
            .copied()
            .filter(|&v| var_regions[v].len() > 1)
            .collect();
        shared.sort_unstable();
        for v in shared {
            for &r2 in &var_regions[v] {
                if !visited[r2] {
                    visited[r2] = true;
                    reached += 1;
                    regions[r2].parent_var = Some(vars[v]);
                    regions[r].children.push(r2);
                    queue.push_back(r2);
                }
            }
        }
    }
    debug_assert_eq!(reached, block_count, "block-cut tree spans the unit");
    if reached != block_count {
        // Disconnected block-cut tree (the unit's variable graph is
        // connected, so this is defensive): refuse the split.
        return None;
    }

    // Anchoring validity: every tree-edge articulation variable must be
    // bound by an *atom* of both endpoint regions — the merge keys on
    // the articulation value of each region-local solution, and a
    // variable a region sees only through a replicated constraint never
    // binds. (Possible when a variable's only atoms sit across the
    // boundary and a single-variable constraint carried it into this
    // region's variable set.) Such units evaluate whole.
    for region in &regions {
        let mut anchors: Vec<Var> = Vec::new();
        if let Some(pv) = region.parent_var {
            anchors.push(pv);
        }
        for &c in &region.children {
            if let Some(pv) = regions[c].parent_var {
                anchors.push(pv);
            }
        }
        for v in anchors {
            if !region.atoms.iter().any(|a| a.vars().any(|av| av == v)) {
                return None;
            }
        }
    }

    Some(RegionPlan { regions })
}

/// Outcome of one work unit's `LIMIT 1` evaluation.
enum UnitResult {
    /// First valuation of the unit's sub-conjunction.
    Sat(Valuation),
    /// The sub-conjunction has no solution: the whole component has
    /// none.
    Unsat,
    /// Not evaluated because another unit already proved `Unsat` (early
    /// exit); only possible when the overall answer is `None`.
    Skipped,
}

/// Evaluation counters for one plan, surfaced through
/// `BatchReport::{intra_region_streamed, intra_witness_peak}`: how many
/// region-local solutions the streaming articulation-projection pass
/// consumed (bottom-up witness scan + top-down pinned re-enumeration),
/// and the peak entry count of any single region's witness map — the
/// retained state, bounded by the articulation-value domain, **not** by
/// the region's solution count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Region-local solutions consumed by split units.
    pub region_streamed: u64,
    /// Peak per-region witness-map entry count across split units.
    pub witness_peak: u64,
}

/// Evaluates a plan against `db`; see [`evaluate_plan_with_stats`] for
/// the full contract. This wrapper discards the plan counters.
pub fn evaluate_plan(
    plan: &ComponentPlan,
    db: &Database,
    threads: usize,
) -> Result<Option<Vec<QueryAnswer>>, DbError> {
    evaluate_plan_with_stats(plan, db, threads).map(|(answers, _)| answers)
}

/// Evaluates a plan against `db`, dispatching its work units — whole
/// or split — on up to `threads` scoped workers (largest unit first;
/// sizes are heavy-tailed when the global unifier merged some
/// variables). A split unit's tree walk is sequential within the unit —
/// that is what makes it deterministic — so the unit is the parallelism
/// grain.
///
/// Returns the component's first coordinated solution — one
/// [`QueryAnswer`] per survivor, in survivor order — or `None` when any
/// unit, region, ground atom, or ground constraint is unsatisfiable,
/// plus the plan's [`PlanStats`].
/// For plans without split units the result is answer-for-answer
/// identical to `CombinedQuery::evaluate(db, 1)` on the same survivors,
/// for every `threads` value (see the module docs for why the merge
/// preserves the sequential answer choice). Split units return the
/// block-cut tree join's first solution instead — still a solution iff
/// the sequential path finds one, still deterministic in the plan and
/// database for every `threads` value, but not necessarily the same
/// valuation unless the unit's solution is unique. The module's tests
/// check split units answer-for-answer against a materialized
/// semi-join oracle: the pinned re-enumeration picks exactly the
/// representative that semi-join keeps.
pub fn evaluate_plan_with_stats(
    plan: &ComponentPlan,
    db: &Database,
    threads: usize,
) -> Result<(Option<Vec<QueryAnswer>>, PlanStats), DbError> {
    // Whole-conjunction validation first, exactly like the one-shot
    // evaluator: an unknown relation anywhere in the body is an error
    // even if some other unit is unsatisfiable.
    db.check_atoms(&plan.ground_atoms)?;
    for unit in &plan.units {
        db.check_atoms(&unit.atoms)?;
    }

    let mut stats = PlanStats::default();
    let empty = Valuation::default();
    for c in &plan.ground_constraints {
        if !c.check(&|v| empty.get(&v).copied()) {
            return Ok((None, stats));
        }
    }
    for atom in &plan.ground_atoms {
        let mut row: Vec<Value> = Vec::with_capacity(atom.terms.len());
        for t in &atom.terms {
            let Some(c) = t.as_const() else {
                // Defensive: the planner routes only variable-free atoms
                // here. A variable in a "ground" atom can never match a
                // membership check, so the component has no solution.
                return Ok((None, stats));
            };
            row.push(c);
        }
        let present = db.table(atom.relation).is_some_and(|t| t.contains(&row));
        if !present {
            return Ok((None, stats));
        }
    }
    if plan.units.is_empty() {
        return Ok((Some(distribute_heads(&plan.heads, &empty)), stats));
    }

    // Units run largest-first on the shared worker pool; the stop flag
    // bails out of remaining claims as soon as any unit proves
    // unsatisfiable — a split unit is unsatisfiable as soon as one of
    // its regions is.
    let mut order: Vec<usize> = (0..plan.units.len()).collect();
    order.sort_by_key(|&u| std::cmp::Reverse(plan.units[u].atoms.len()));
    let failed = AtomicBool::new(false);
    let produced = pool::parallel_claim(&order, threads, Some(&failed), |u| {
        let unit = &plan.units[u];
        let (result, streamed, peak) = match &unit.regions {
            Some(rp) => stream_unit(rp, db),
            None => (evaluate_unit(unit, db), 0, 0),
        };
        if matches!(result, UnitResult::Unsat) {
            failed.store(true, Ordering::Relaxed);
        }
        (result, streamed, peak)
    });
    let mut unit_results: Vec<UnitResult> = Vec::with_capacity(plan.units.len());
    unit_results.resize_with(plan.units.len(), || UnitResult::Skipped);
    for (u, (result, streamed, peak)) in produced {
        unit_results[u] = result;
        stats.region_streamed += streamed;
        stats.witness_peak = stats.witness_peak.max(peak);
    }

    let mut merged = Valuation::default();
    for r in &unit_results {
        match r {
            UnitResult::Sat(val) => {
                // Units are variable-disjoint: plain union.
                for (&v, &value) in val.iter() {
                    merged.insert(v, value);
                }
            }
            UnitResult::Unsat | UnitResult::Skipped => return Ok((None, stats)),
        }
    }
    Ok((Some(distribute_heads(&plan.heads, &merged)), stats))
}

/// Streaming articulation-projection evaluation of one split unit (see
/// the module docs). **Bottom-up**, children first:
/// each non-root region streams its local solutions through
/// [`Database::evaluate_visit`] and retains only a **witness set** of
/// parent-articulation values bound by some locally-extensible solution
/// — memory is bounded by the articulation-value domain, never by the
/// region's solution count, and there is no enumeration cap or
/// whole-unit fallback. The root streams until its first extensible
/// solution. **Top-down**, the one chosen joint answer is re-enumerated
/// region by region: the region query re-runs with its parent
/// articulation variable *pinned* to the chosen value via a `Ge`/`Le`
/// constraint pair (the IR has no `Eq` comparator) and stops at its
/// first extensible solution. Constraints never influence the
/// evaluator's join order (`choose_atom` inspects only bindings), so
/// the pinned search enumerates exactly the subsequence of the
/// region's solutions binding that value, in the region's own order —
/// its first extensible hit is precisely the representative a
/// materialized semi-join keeps, which is why the two agree answer for
/// answer (property-tested against the oracle in this module's tests).
///
/// As a constraint-aware refinement, a child whose witness set kept
/// exactly one value is **pushed down** into the parent's enumeration
/// as the same pinned constraint pair, so the join prunes the moment
/// the articulation variable binds instead of filtering full solutions
/// at the leaf; multi-value witness sets are not expressible as a
/// comparison constraint and filter through the extensibility check.
///
/// Returns the unit outcome plus counters: region-local solutions
/// streamed (bottom-up + top-down) and the peak witness-set size.
fn stream_unit(rp: &RegionPlan, db: &Database) -> (UnitResult, u64, u64) {
    let n = rp.regions.len();
    let mut streamed: u64 = 0;
    let mut peak: u64 = 0;
    // Pre-order from the root; reverse visit order is children-first.
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut stack = vec![0usize];
    while let Some(r) = stack.pop() {
        order.push(r);
        stack.extend(&rp.regions[r].children);
    }
    if order.len() != n {
        // Defensive: split_unit guarantees a spanning tree; a malformed
        // one cannot be evaluated, so report no solution.
        return (UnitResult::Unsat, streamed, peak);
    }

    // Locally extensible = every child's articulation value is in that
    // child's (already final) witness set.
    let extensible = |region: &Region, sol: &Valuation, feasible: &[FastSet<Value>]| -> bool {
        region.children.iter().all(|&c| {
            let Some(pv) = rp.regions[c].parent_var else {
                return false;
            };
            sol.get(&pv)
                .is_some_and(|value| feasible[c].contains(value))
        })
    };
    // Singleton push-down (see the doc comment above).
    let push_down = |region: &Region, feasible: &[FastSet<Value>], out: &mut Vec<Constraint>| {
        for &c in &region.children {
            let Some(pv) = rp.regions[c].parent_var else {
                continue;
            };
            if feasible[c].len() == 1 {
                if let Some(&value) = feasible[c].iter().next() {
                    out.push(Constraint::new(
                        Term::var(pv),
                        CmpOp::Ge,
                        Term::Const(value),
                    ));
                    out.push(Constraint::new(
                        Term::var(pv),
                        CmpOp::Le,
                        Term::Const(value),
                    ));
                }
            }
        }
    };

    let mut feasible: Vec<FastSet<Value>> = vec![FastSet::default(); n];
    let mut root_witness: Option<Valuation> = None;
    for &r in order.iter().rev() {
        let region = &rp.regions[r];
        let mut constraints = region.constraints.clone();
        push_down(region, &feasible, &mut constraints);
        match region.parent_var {
            Some(pv) => {
                let mut keys: FastSet<Value> = FastSet::default();
                let res = db.evaluate_visit(&region.atoms, &constraints, |sol| {
                    streamed += 1;
                    if let Some(&key) = sol.get(&pv) {
                        // The extensibility check runs per solution even
                        // for an unseen key (a later extensible solution
                        // may carry a key an earlier inextensible one
                        // did), and is skipped once the key is in — the
                        // exact key set a materialized semi-join keeps.
                        if !keys.contains(&key) && extensible(region, sol, &feasible) {
                            keys.insert(key);
                        }
                    }
                    ControlFlow::Continue(())
                });
                if res.is_err() || keys.is_empty() {
                    // Err is unreachable after the caller's up-front
                    // validation; either way the unit has no solution
                    // to offer.
                    return (UnitResult::Unsat, streamed, peak);
                }
                peak = peak.max(keys.len() as u64);
                feasible[r] = keys;
            }
            None => {
                let mut witness: Option<Valuation> = None;
                let res = db.evaluate_visit(&region.atoms, &constraints, |sol| {
                    streamed += 1;
                    if extensible(region, sol, &feasible) {
                        witness = Some(sol.clone());
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                });
                match (res, witness) {
                    (Ok(_), Some(w)) => root_witness = Some(w),
                    _ => return (UnitResult::Unsat, streamed, peak),
                }
            }
        }
    }

    // Top-down: glue the root witness, then re-enumerate each child
    // region pinned to its chosen articulation value. Every pinned
    // search hits: the key entered the witness set off an extensible
    // solution, and child witness sets are final.
    let Some(root) = root_witness else {
        // Unreachable: region 0 is always the root and was visited.
        return (UnitResult::Unsat, streamed, peak);
    };
    let push_children =
        |region: &Region, sol: &Valuation, walk: &mut Vec<(usize, Value)>| -> bool {
            for &c in &region.children {
                let Some(pv) = rp.regions[c].parent_var else {
                    return false;
                };
                let Some(&key) = sol.get(&pv) else {
                    return false;
                };
                walk.push((c, key));
            }
            true
        };
    let mut merged = Valuation::default();
    for (&v, &value) in root.iter() {
        merged.insert(v, value);
    }
    let mut walk: Vec<(usize, Value)> = Vec::new();
    if !push_children(&rp.regions[0], &root, &mut walk) {
        return (UnitResult::Unsat, streamed, peak);
    }
    while let Some((r, key)) = walk.pop() {
        let region = &rp.regions[r];
        let Some(pv) = region.parent_var else {
            // Defensive: only non-root regions are walked.
            return (UnitResult::Unsat, streamed, peak);
        };
        let mut constraints = region.constraints.clone();
        push_down(region, &feasible, &mut constraints);
        constraints.push(Constraint::new(Term::var(pv), CmpOp::Ge, Term::Const(key)));
        constraints.push(Constraint::new(Term::var(pv), CmpOp::Le, Term::Const(key)));
        let mut chosen: Option<Valuation> = None;
        let res = db.evaluate_visit(&region.atoms, &constraints, |sol| {
            streamed += 1;
            if extensible(region, sol, &feasible) {
                chosen = Some(sol.clone());
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        let (Ok(_), Some(sol)) = (res, chosen) else {
            return (UnitResult::Unsat, streamed, peak);
        };
        for (&v, &value) in sol.iter() {
            merged.insert(v, value);
        }
        if !push_children(region, &sol, &mut walk) {
            return (UnitResult::Unsat, streamed, peak);
        }
    }
    (UnitResult::Sat(merged), streamed, peak)
}

fn evaluate_unit(unit: &WorkUnit, db: &Database) -> UnitResult {
    match db.evaluate_filtered(&unit.atoms, &unit.constraints, 1) {
        Ok(vals) => match vals.into_iter().next() {
            Some(v) => UnitResult::Sat(v),
            None => UnitResult::Unsat,
        },
        // Unreachable after the up-front validation (the search itself
        // cannot fail); treat like an unsatisfiable unit defensively.
        Err(_) => UnitResult::Unsat,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::MatchGraph;
    use crate::matching::match_component;
    use crate::CombinedQuery;
    use eq_ir::{EntangledQuery, Term, Value, VarGen};
    use eq_sql::parse_ir_query;

    fn build(texts: &[&str]) -> MatchGraph {
        let gen = VarGen::new();
        let queries: Vec<EntangledQuery> = texts
            .iter()
            .enumerate()
            .map(|(i, t)| {
                parse_ir_query(t)
                    .unwrap()
                    .rename_apart(&gen)
                    .with_id(QueryId(i as u64))
            })
            .collect();
        MatchGraph::build(queries)
    }

    fn flight_db() -> Database {
        let mut db = Database::new();
        db.create_table("F", &["fno", "dest"]).unwrap();
        db.create_table("A", &["fno", "airline"]).unwrap();
        for (fno, dest) in [
            (122, "Paris"),
            (123, "Paris"),
            (134, "Paris"),
            (136, "Rome"),
        ] {
            db.insert("F", vec![Value::int(fno), Value::str(dest)])
                .unwrap();
        }
        for (fno, al) in [(122, "United"), (123, "United"), (134, "Lufthansa")] {
            db.insert("A", vec![Value::int(fno), Value::str(al)])
                .unwrap();
        }
        db
    }

    fn plan_for(g: &MatchGraph, members: &[u32]) -> (ComponentPlan, CombinedQuery) {
        let m = match_component(g, members);
        let global = m.global.expect("answerable");
        let crossover = crate::EngineConfig::default().intra_split_crossover;
        let plan = plan_component(g, &m.survivors, &global, crossover);
        let cq = CombinedQuery::build(g, &m.survivors, global.clone());
        (plan, cq)
    }

    #[test]
    fn entangled_pair_with_shared_variable_is_one_unit() {
        let g = build(&[
            "{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)",
            "{R(Kramer, y)} R(Jerry, y) <- F(y, Paris), A(y, United)",
        ]);
        let (plan, _) = plan_for(&g, &[0, 1]);
        // The global unifier merges x and y: all three atoms share one
        // variable class, so the body is one unit.
        assert_eq!(plan.units.len(), 1);
        assert_eq!(plan.units[0].atoms.len(), 3);
        assert!(plan.ground_atoms.is_empty());
    }

    #[test]
    fn disjoint_bodies_split_into_units() {
        // Two ground-entangled queries whose bodies use private
        // variables: two independent units.
        let g = build(&[
            "{R(Kramer, ITH)} R(Jerry, ITH) <- F(x, Paris)",
            "{R(Jerry, ITH)} R(Kramer, ITH) <- F(y, Rome)",
        ]);
        let (plan, _) = plan_for(&g, &[0, 1]);
        assert_eq!(plan.units.len(), 2);
        assert_eq!(plan.units[0].atoms.len(), 1);
    }

    #[test]
    fn ground_atoms_become_membership_checks() {
        let g = build(&[
            "{R(Kramer, ITH)} R(Jerry, ITH) <- F(122, Paris)",
            "{R(Jerry, ITH)} R(Kramer, ITH) <- F(136, Rome)",
        ]);
        let (plan, cq) = plan_for(&g, &[0, 1]);
        assert!(plan.units.is_empty());
        assert_eq!(plan.ground_atoms.len(), 2);
        let db = flight_db();
        let par = evaluate_plan(&plan, &db, 4).unwrap();
        let seq = cq.evaluate(&db, 1).unwrap().into_iter().next();
        assert_eq!(par, seq);
        assert!(par.is_some());
    }

    #[test]
    fn missing_ground_atom_means_no_solution() {
        let g = build(&[
            "{R(Kramer, ITH)} R(Jerry, ITH) <- F(999, Paris)",
            "{R(Jerry, ITH)} R(Kramer, ITH) <- F(136, Rome)",
        ]);
        let (plan, cq) = plan_for(&g, &[0, 1]);
        let db = flight_db();
        assert_eq!(evaluate_plan(&plan, &db, 1).unwrap(), None);
        assert!(cq.evaluate(&db, 1).unwrap().is_empty());
    }

    #[test]
    fn partitioned_answers_match_sequential_for_all_thread_counts() {
        let g = build(&[
            "{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)",
            "{R(Kramer, y)} R(Jerry, y) <- F(y, Paris), A(y, United)",
            // Note: separate component would not share a global; keep
            // this pair entangled through a second ring.
        ]);
        let (plan, cq) = plan_for(&g, &[0, 1]);
        let db = flight_db();
        let seq = cq.evaluate(&db, 1).unwrap().into_iter().next();
        for threads in [1, 2, 4, 8] {
            assert_eq!(evaluate_plan(&plan, &db, threads).unwrap(), seq);
        }
    }

    #[test]
    fn unknown_relation_is_an_error_not_a_miss() {
        let g = build(&[
            "{R(Kramer, ITH)} R(Jerry, ITH) <- Nope(x)",
            "{R(Jerry, ITH)} R(Kramer, ITH) <- F(y, Rome)",
        ]);
        let (plan, cq) = plan_for(&g, &[0, 1]);
        let db = flight_db();
        assert!(evaluate_plan(&plan, &db, 2).is_err());
        assert!(cq.evaluate(&db, 1).is_err());
    }

    fn raw_unit(atoms: Vec<Atom>) -> WorkUnit {
        WorkUnit {
            atoms,
            constraints: vec![],
            regions: None,
        }
    }

    fn e(a: Term, b: Term) -> Atom {
        Atom::new("E", vec![a, b])
    }

    fn vx(i: u32) -> Term {
        Term::var(Var(i))
    }

    #[test]
    fn chain_unit_splits_into_edge_regions() {
        // x0—x1—x2—x3: every interior variable is an articulation
        // point, so each edge atom is its own region.
        let unit = raw_unit(vec![e(vx(0), vx(1)), e(vx(1), vx(2)), e(vx(2), vx(3))]);
        let rp = split_unit(&unit).expect("chain splits");
        assert_eq!(rp.regions.len(), 3);
        // Root is the region of the first atom; children chain off it
        // keyed by the shared articulation variable.
        assert_eq!(rp.regions[0].parent_var, None);
        assert_eq!(rp.regions[1].parent_var, Some(Var(1)));
        assert_eq!(rp.regions[2].parent_var, Some(Var(2)));
        assert_eq!(rp.regions[0].children, vec![1]);
        assert_eq!(rp.regions[1].children, vec![2]);
        // Every atom lands in exactly one region.
        let total: usize = rp.regions.iter().map(|r| r.atoms.len()).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn cycle_unit_does_not_split() {
        // x0—x1—x2—x0 is 2-connected: one block, no articulation vars.
        let unit = raw_unit(vec![e(vx(0), vx(1)), e(vx(1), vx(2)), e(vx(2), vx(0))]);
        assert!(split_unit(&unit).is_none());
    }

    #[test]
    fn single_variable_atoms_replicate_into_every_region_with_their_var() {
        let unit = raw_unit(vec![
            e(vx(0), vx(1)),
            e(vx(1), vx(2)),
            Atom::new("E", vec![vx(1), Term::int(7)]), // only var x1
        ]);
        let rp = split_unit(&unit).expect("splits at x1");
        assert_eq!(rp.regions.len(), 2);
        // x1 is the articulation variable: its single-var atom anchors
        // *both* regions (replication is sound — same conjunct, same
        // variable).
        assert_eq!(rp.regions[0].atoms.len(), 2);
        assert_eq!(rp.regions[1].atoms.len(), 2);
    }

    #[test]
    fn constraint_bridged_clusters_refuse_to_split() {
        use eq_ir::CmpOp;
        // Two atom clusters glued only by the constraint x1 < x2: the
        // bridge block holds no atom, and no single region could
        // enforce the constraint — the unit must evaluate whole.
        let unit = WorkUnit {
            atoms: vec![e(vx(0), vx(1)), e(vx(2), vx(3))],
            constraints: vec![Constraint::new(vx(1), CmpOp::Lt, vx(2))],
            regions: None,
        };
        assert!(split_unit(&unit).is_none());
        // A multi-variable constraint *inside* a cluster is fine: its
        // clique edge coincides with an atom's, so its block is a real
        // region and the split goes through.
        let unit = WorkUnit {
            atoms: vec![e(vx(0), vx(1)), e(vx(1), vx(2))],
            constraints: vec![Constraint::new(vx(0), CmpOp::Lt, vx(1))],
            regions: None,
        };
        let rp = split_unit(&unit).expect("in-cluster constraint splits");
        assert_eq!(rp.regions.len(), 2);
        assert_eq!(rp.regions[0].constraints.len(), 1);
    }

    /// Plans a one-query component whose body is `fan` parallel atoms
    /// over `{x, y}` plus one pendant atom over `{y, z}`: a
    /// `fan + 1`-atom unit that decomposes into exactly two regions,
    /// the most favourable shape for the crossover gate.
    fn two_region_plan(fan: usize, crossover: usize) -> ComponentPlan {
        let mut body: Vec<String> = (0..fan).map(|i| format!("E(x, y, {i})")).collect();
        body.push("E(y, z, 0)".to_string());
        let g = build(&[&format!("{{}} R(x) <- {}", body.join(", "))]);
        let m = match_component(&g, &[0]);
        plan_component(&g, &m.survivors, &m.global.expect("answerable"), crossover)
    }

    #[test]
    fn crossover_gate_keeps_small_units_whole() {
        let regions = |plan: ComponentPlan| {
            assert_eq!(plan.units.len(), 1);
            plan.units[0].regions.as_ref().map(|rp| rp.regions.len())
        };
        // Default crossover: every unit up to 90 atoms stays whole
        // (90² < 2 × 4096), which covers the sizes a 16-atom minimum
        // used to exclude; at 91 atoms two regions pass the gate.
        let default = crate::EngineConfig::default().intra_split_crossover;
        assert_eq!(default, 4096);
        for atoms in 2..=90 {
            assert_eq!(
                regions(two_region_plan(atoms - 1, default)),
                None,
                "{atoms} atoms"
            );
        }
        assert_eq!(regions(two_region_plan(90, default)), Some(2));
        // Crossover 0 splits the smallest decomposing unit.
        assert_eq!(regions(two_region_plan(1, 0)), Some(2));
        // usize::MAX never splits.
        for fan in [1, 90, 500] {
            assert_eq!(regions(two_region_plan(fan, usize::MAX)), None);
        }
    }

    fn split_db() -> Database {
        let mut db = Database::new();
        db.create_table("A", &["x", "y"]).unwrap();
        db.create_table("B", &["x", "z"]).unwrap();
        for (x, y) in [(1, 10), (2, 20)] {
            db.insert("A", vec![Value::int(x), Value::int(y)]).unwrap();
        }
        db.insert("B", vec![Value::int(2), Value::int(30)]).unwrap();
        db
    }

    /// A plan whose single unit is pre-split, with one head atom that
    /// exposes the merged valuation as a grounded tuple.
    fn split_plan(atoms: Vec<Atom>, head_vars: &[u32]) -> ComponentPlan {
        let mut unit = raw_unit(atoms);
        unit.regions = split_unit(&unit);
        assert!(unit.regions.is_some(), "test unit must split");
        let head = Atom::new("H", head_vars.iter().map(|&i| vx(i)).collect::<Vec<_>>());
        ComponentPlan {
            units: vec![unit],
            ground_atoms: vec![],
            ground_constraints: vec![],
            heads: vec![(QueryId(0), vec![head])],
        }
    }

    /// The exact tree semi-join over a split unit's block-cut tree (see
    /// the module docs): bottom-up, keep per value of each region's
    /// parent articulation variable the first locally-enumerated
    /// solution every child can extend; top-down, glue the chosen
    /// representatives. Returns `None` iff the unit has no solution.
    fn semijoin_merge(rp: &RegionPlan, sols: &[Vec<Valuation>]) -> Option<Valuation> {
        let n = rp.regions.len();
        // Pre-order from the root; processing it in reverse visits
        // children before parents.
        let mut order: Vec<usize> = Vec::with_capacity(n);
        let mut stack = vec![0usize];
        while let Some(r) = stack.pop() {
            order.push(r);
            stack.extend(&rp.regions[r].children);
        }
        assert_eq!(order.len(), n);

        // For non-root regions: parent-variable value → index of the
        // first extensible local solution. For the root: the index
        // itself.
        let mut feasible: Vec<FastMap<Value, usize>> = vec![FastMap::default(); n];
        let mut root_choice: Option<usize> = None;
        for &r in order.iter().rev() {
            let region = &rp.regions[r];
            let extensible = |sol: &Valuation| {
                region.children.iter().all(|&c| {
                    let v = rp.regions[c].parent_var.expect("child has a parent edge");
                    sol.get(&v)
                        .is_some_and(|value| feasible[c].contains_key(value))
                })
            };
            match region.parent_var {
                Some(pv) => {
                    let mut map = FastMap::default();
                    for (si, sol) in sols[r].iter().enumerate() {
                        if extensible(sol) {
                            map.entry(sol[&pv]).or_insert(si);
                        }
                    }
                    if map.is_empty() {
                        return None; // no child binding survives: unit unsat
                    }
                    feasible[r] = map;
                }
                None => root_choice = Some(sols[r].iter().position(extensible)?),
            }
        }

        let mut merged = Valuation::default();
        let mut walk = vec![(0usize, root_choice?)];
        while let Some((r, si)) = walk.pop() {
            let sol = &sols[r][si];
            merged.extend(sol.iter().map(|(&v, &value)| (v, value)));
            for &c in &rp.regions[r].children {
                let pv = rp.regions[c].parent_var.expect("child has a parent edge");
                walk.push((c, feasible[c][&sol[&pv]]));
            }
        }
        Some(merged)
    }

    /// The materialized oracle the streaming path is checked against:
    /// every region of a split unit is enumerated in full and the sets
    /// are merged by [`semijoin_merge`]; unsplit units take their first
    /// solution. Ground residue is out of scope (the tests build none).
    fn materialized_answers(plan: &ComponentPlan, db: &Database) -> Option<Vec<QueryAnswer>> {
        assert!(plan.ground_atoms.is_empty() && plan.ground_constraints.is_empty());
        let mut merged = Valuation::default();
        for unit in &plan.units {
            let solution = match &unit.regions {
                Some(rp) => {
                    let sols: Vec<Vec<Valuation>> = rp
                        .regions
                        .iter()
                        .map(|r| {
                            db.evaluate_filtered(&r.atoms, &r.constraints, usize::MAX)
                                .unwrap()
                        })
                        .collect();
                    semijoin_merge(rp, &sols)?
                }
                None => db
                    .evaluate_filtered(&unit.atoms, &unit.constraints, 1)
                    .unwrap()
                    .into_iter()
                    .next()?,
            };
            merged.extend(solution);
        }
        Some(distribute_heads(&plan.heads, &merged))
    }

    #[test]
    fn semijoin_rejects_locally_first_but_globally_infeasible_choices() {
        // Region A(x,y) enumerates x=1 first, but region B(x,z) only
        // admits x=2: the merge must pick A's second solution, not
        // fail or return an inconsistent pair — streamed and in the
        // materialized oracle alike.
        let db = split_db();
        let plan = split_plan(
            vec![
                Atom::new("A", vec![vx(0), vx(1)]),
                Atom::new("B", vec![vx(0), vx(2)]),
            ],
            &[0, 1, 2],
        );
        let oracle = materialized_answers(&plan, &db).expect("x=2 is consistent");
        assert_eq!(
            oracle[0].tuples[0],
            vec![Value::int(2), Value::int(20), Value::int(30)]
        );
        for threads in [1, 2, 4] {
            assert_eq!(
                evaluate_plan(&plan, &db, threads).unwrap().as_ref(),
                Some(&oracle)
            );
        }
    }

    #[test]
    fn split_is_exact_on_unsatisfiable_units() {
        let mut db = split_db();
        // Remove B's only row: the B region enumerates nothing.
        db.delete("B", &[Value::int(2), Value::int(30)]).unwrap();
        let plan = split_plan(
            vec![
                Atom::new("A", vec![vx(0), vx(1)]),
                Atom::new("B", vec![vx(0), vx(2)]),
            ],
            &[0],
        );
        assert_eq!(evaluate_plan(&plan, &db, 2).unwrap(), None);
        assert_eq!(materialized_answers(&plan, &db), None);
    }

    #[test]
    fn long_shared_chain_split_agrees_with_whole_unit_satisfiability() {
        // E(i, i+1) rows form one path; the 12-atom chain unit splits
        // into 12 regions whose join admits exactly the path valuation.
        let mut db = Database::new();
        db.create_table("E", &["a", "b"]).unwrap();
        for i in 0..13 {
            db.insert("E", vec![Value::int(i), Value::int(i + 1)])
                .unwrap();
        }
        let atoms: Vec<Atom> = (0..12).map(|i| e(vx(i), vx(i + 1))).collect();
        let head_vars: Vec<u32> = (0..13).collect();
        let whole = db.evaluate_filtered(&atoms, &[], 1).unwrap();
        let expect: Vec<Value> = (0..13).map(|i| whole[0][&Var(i)]).collect();
        let plan = split_plan(atoms, &head_vars);
        assert_eq!(
            plan.units[0].regions.as_ref().unwrap().regions.len(),
            12,
            "every interior variable is an articulation point"
        );
        let oracle = materialized_answers(&plan, &db).unwrap();
        assert_eq!(oracle[0].tuples[0], expect, "chain solution is unique");
        for threads in [1, 3, 8] {
            let answers = evaluate_plan(&plan, &db, threads).unwrap().unwrap();
            assert_eq!(answers[0].tuples[0], expect, "chain solution is unique");
        }
    }

    #[test]
    fn streaming_matches_materialized_answer_for_answer() {
        // Many locally-valid keys per region, several of them globally
        // consistent: streaming must pick the *same* representative as
        // the oracle (the pinned re-enumeration provably reproduces the
        // materialized semi-join's per-key first choice).
        let mut db = Database::new();
        db.create_table("A", &["x", "y"]).unwrap();
        db.create_table("B", &["x", "z"]).unwrap();
        for x in 0..6 {
            for y in 0..3 {
                db.insert("A", vec![Value::int(x), Value::int(10 * x + y)])
                    .unwrap();
            }
        }
        for x in [2, 4, 5] {
            for z in 0..2 {
                db.insert("B", vec![Value::int(x), Value::int(100 * x + z)])
                    .unwrap();
            }
        }
        let plan = split_plan(
            vec![
                Atom::new("A", vec![vx(0), vx(1)]),
                Atom::new("B", vec![vx(0), vx(2)]),
            ],
            &[0, 1, 2],
        );
        let oracle = materialized_answers(&plan, &db);
        assert!(oracle.is_some());
        for threads in [1, 2, 4] {
            let s = evaluate_plan(&plan, &db, threads).unwrap();
            assert_eq!(s, oracle, "streaming diverged at {threads} threads");
        }
    }

    /// Values of the proptest units' chain variables: a ring of this
    /// many values, `k` forward edges from each.
    const RING: i64 = 12;

    /// A shared-variable unit built straight from atoms, with its
    /// database: the chain `E(x0, x1), …, E(x{n-1}, xn)` anchored by
    /// `T(xn)` (only the last ring value), plus — when `wide` — one
    /// pendant `W(xi, zi)` per chain atom with `k` local solutions per
    /// `xi`. `sabotage` points that chain atom at the empty relation
    /// `Dead`, making its region unsatisfiable. Returns the database,
    /// the atoms, and every variable (for the head).
    fn shaped_unit(
        n: usize,
        k: i64,
        wide: bool,
        sabotage: Option<usize>,
    ) -> (Database, Vec<Atom>, Vec<u32>) {
        let mut db = Database::new();
        for (name, arity) in [("E", 2), ("W", 2), ("T", 1), ("Dead", 2)] {
            let columns = ["a", "b"];
            db.create_table(name, &columns[..arity]).unwrap();
        }
        for a in 0..RING {
            for s in 0..k {
                db.insert("E", vec![Value::int(a), Value::int((a + 1 + s) % RING)])
                    .unwrap();
                db.insert("W", vec![Value::int(a), Value::int(100 + s)])
                    .unwrap();
            }
        }
        db.insert("T", vec![Value::int(RING - 1)]).unwrap();
        let z = |i: usize| 100 + i as u32;
        let mut atoms = Vec::new();
        let mut vars: Vec<u32> = (0..=n as u32).collect();
        for i in 0..n {
            let relation = if sabotage == Some(i) { "Dead" } else { "E" };
            atoms.push(Atom::new(relation, vec![vx(i as u32), vx(i as u32 + 1)]));
            if wide {
                atoms.push(Atom::new("W", vec![vx(i as u32), vx(z(i))]));
                vars.push(z(i));
            }
        }
        atoms.push(Atom::new("T", vec![vx(n as u32)]));
        (db, atoms, vars)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn streaming_equals_materialized_on_shaped_units(
            n in 2usize..10,
            k in 1i64..5,
            wide in 0usize..2,
            sabotage in proptest::option::of(0usize..10),
        ) {
            // Chain- and wide-shaped units, satisfiable or with one
            // region made unsatisfiable: the streamed split must agree
            // with the materialized oracle answer for answer, at every
            // thread count.
            let sabotage = sabotage.map(|i| i % n);
            let (db, atoms, vars) = shaped_unit(n, k, wide == 1, sabotage);
            let plan = split_plan(atoms, &vars);
            let oracle = materialized_answers(&plan, &db);
            proptest::prop_assert_eq!(oracle.is_some(), sabotage.is_none());
            for threads in [1, 2, 4] {
                proptest::prop_assert_eq!(
                    evaluate_plan(&plan, &db, threads).unwrap(),
                    oracle.clone()
                );
            }
        }
    }

    #[test]
    fn witness_peak_is_bounded_by_articulation_domain_not_solution_count() {
        // Each region holds domain² local solutions (x × private var),
        // but the witness map keys only on the articulation variable:
        // peak stays ≤ the domain size while the streamed count shows
        // the full enumeration volume passing through.
        const DOMAIN: i64 = 8;
        let mut db = Database::new();
        db.create_table("A", &["x", "y"]).unwrap();
        db.create_table("B", &["x", "z"]).unwrap();
        for x in 0..DOMAIN {
            for p in 0..DOMAIN {
                db.insert("A", vec![Value::int(x), Value::int(10 + p)])
                    .unwrap();
                db.insert("B", vec![Value::int(x), Value::int(100 + p)])
                    .unwrap();
            }
        }
        let atoms = vec![
            Atom::new("A", vec![vx(0), vx(1)]),
            Atom::new("B", vec![vx(0), vx(2)]),
        ];
        let plan = split_plan(atoms, &[0, 1, 2]);
        let (answers, stats) = evaluate_plan_with_stats(&plan, &db, 2).unwrap();
        assert!(answers.is_some());
        assert!(
            stats.witness_peak > 0 && stats.witness_peak <= DOMAIN as u64,
            "witness peak {} exceeds articulation domain {}",
            stats.witness_peak,
            DOMAIN
        );
        // The child region streamed its full DOMAIN² solution set while
        // retaining at most DOMAIN witness entries.
        assert!(
            stats.region_streamed >= (DOMAIN * DOMAIN) as u64,
            "streamed only {}",
            stats.region_streamed
        );
    }

    #[test]
    fn plan_covers_exactly_the_combined_body() {
        let g = build(&[
            "{R(x1) & S(x2)} T(x3) <- D1(x1, x2, x3)",
            "{T(1)} R(y1) <- D2(y1)",
            "{T(z1)} S(z2) <- D3(z1, z2)",
        ]);
        let (plan, cq) = plan_for(&g, &[0, 1, 2]);
        let mut plan_atoms: Vec<Atom> = plan.ground_atoms.clone();
        for u in &plan.units {
            plan_atoms.extend(u.atoms.iter().cloned());
        }
        let mut body = cq.body.clone();
        plan_atoms.sort();
        body.sort();
        assert_eq!(plan_atoms, body);
        assert_eq!(plan.heads, cq.heads);
    }
}
