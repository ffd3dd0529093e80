//! The atom index of §4.1.4.
//!
//! To find which head atoms a postcondition can unify with (and vice
//! versa) without scanning all resident atoms, the paper indexes atoms
//! under `(Relation, Position, Value)` keys, with variables replaced by a
//! distinguished wildcard `Δ`. A lookup for an atom `R(v1..vn)`
//! intersects, over its *constant* positions `i`, the posting lists
//! `L(R, i, vi) ∪ L(R, i, Δ)`; an atom with no constants falls back to
//! the per-relation list.
//!
//! The index over-approximates: candidates are guaranteed to contain all
//! truly unifiable atoms, but repeated-variable patterns can slip
//! through (`R(z,z)` vs `R(2,3)`), so callers re-check with
//! [`eq_unify::mgu_atoms`]. The paper makes the same observation and
//! notes the index gives no complexity guarantee but is "immensely
//! useful" in practice.

use eq_ir::{Atom, FastMap, FastSet, Symbol, Term, Value};
use std::collections::hash_map::Entry;
use std::hash::Hash;

/// Reference to one atom: which query (by caller-chosen slot) and which
/// atom position within that query's head or postcondition list.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AtomRef {
    /// Caller-defined query slot (index into the graph's query vector).
    pub query: u32,
    /// Index of the atom within the query's head or postcondition list.
    pub atom: u32,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum KeyValue {
    Wildcard,
    Exact(Value),
}

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    relation: Symbol,
    position: u32,
    value: KeyValue,
}

/// The posting keys of `atom`: one per position, the constant or `Δ`.
fn posting_keys(atom: &Atom) -> impl Iterator<Item = Key> + '_ {
    atom.terms.iter().enumerate().map(|(pos, term)| Key {
        relation: atom.relation,
        position: pos as u32,
        value: match term {
            Term::Const(c) => KeyValue::Exact(*c),
            Term::Var(_) => KeyValue::Wildcard,
        },
    })
}

/// Filters the list under `key` with an order-preserving `retain`,
/// dropping it when emptied. Returns the entries visited.
fn retain_or_drop<K: Hash + Eq>(
    map: &mut FastMap<K, Vec<AtomRef>>,
    key: K,
    keep: impl FnMut(&AtomRef) -> bool,
) -> usize {
    let Entry::Occupied(mut list) = map.entry(key) else {
        return 0;
    };
    let visited = list.get().len();
    list.get_mut().retain(keep);
    if list.get().is_empty() {
        list.remove();
    }
    visited
}

/// A dense set of query slots ([`AtomRef::query`] values), one bit per
/// slot: the retain predicate of [`AtomIndex::remove_batch`]. Sized by
/// the highest slot inserted; clearing bits keeps the words allocated.
#[derive(Clone, Debug, Default)]
pub struct SlotSet {
    words: Vec<u64>,
}

impl SlotSet {
    /// An empty set.
    pub fn new() -> Self {
        SlotSet::default()
    }

    /// Adds `slot`.
    pub fn insert(&mut self, slot: u32) {
        let word = slot as usize / 64;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1 << (slot % 64);
    }

    /// Removes `slot`; no-op if absent.
    pub fn remove(&mut self, slot: u32) {
        if let Some(w) = self.words.get_mut(slot as usize / 64) {
            *w &= !(1 << (slot % 64));
        }
    }

    /// True if `slot` is in the set.
    pub fn contains(&self, slot: u32) -> bool {
        self.words
            .get(slot as usize / 64)
            .is_some_and(|w| w & (1 << (slot % 64)) != 0)
    }

    /// True if no slot is in the set (scans the words).
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }
}

/// An index over a set of atoms supporting unifiability-candidate lookup
/// and batched removal (queries retire from the engine when answered or
/// stale).
#[derive(Default)]
pub struct AtomIndex {
    postings: FastMap<Key, Vec<AtomRef>>,
    by_relation: FastMap<Symbol, Vec<AtomRef>>,
    /// Kept so that removal can locate all of an atom's postings.
    atoms: FastMap<AtomRef, Atom>,
}

impl AtomIndex {
    /// An empty index.
    pub fn new() -> Self {
        AtomIndex::default()
    }

    /// Number of atoms currently indexed.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// True if no atoms are indexed.
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Inserts an atom under `r`.
    pub fn insert(&mut self, r: AtomRef, atom: &Atom) {
        for key in posting_keys(atom) {
            self.postings.entry(key).or_default().push(r);
        }
        self.by_relation.entry(atom.relation).or_default().push(r);
        self.atoms.insert(r, atom.clone());
    }

    /// Removes a batch of atoms in one order-preserving pass per touched
    /// posting list and per touched relation list, instead of one pass
    /// per atom: retiring a hub-shaped component of `n` queries costs
    /// `O(n)` rather than `O(n²)`.
    ///
    /// `retired` names the slots leaving. All atoms of a retired slot
    /// leave together — every one of them that is indexed here must be
    /// in `refs` — so the pass filters each list by a bitmap probe on
    /// [`AtomRef::query`]. Surviving entries keep their relative order,
    /// so the candidate visit order of
    /// [`AtomIndex::for_each_candidate`] is exactly what per-atom
    /// removal would leave. Lists the pass empties are dropped: the
    /// index holds keys of resident atoms only. Refs not indexed are
    /// ignored.
    ///
    /// Returns the number of list entries the pass visited (each touched
    /// list's length before filtering).
    pub fn remove_batch(
        &mut self,
        refs: impl IntoIterator<Item = AtomRef>,
        retired: &SlotSet,
    ) -> usize {
        let mut keys: FastSet<Key> = FastSet::default();
        let mut relations: FastSet<Symbol> = FastSet::default();
        for r in refs {
            debug_assert!(retired.contains(r.query), "{r:?} removed without its slot");
            let Some(atom) = self.atoms.remove(&r) else {
                continue;
            };
            keys.extend(posting_keys(&atom));
            relations.insert(atom.relation);
        }
        let keep = |x: &AtomRef| !retired.contains(x.query);
        let mut scanned = 0;
        for key in keys {
            scanned += retain_or_drop(&mut self.postings, key, keep);
        }
        for relation in relations {
            scanned += retain_or_drop(&mut self.by_relation, relation, keep);
        }
        scanned
    }

    /// Reference removal: one `retain` per posting list per atom, the
    /// pre-batching implementation. Test-only — the differential
    /// proptest holds [`AtomIndex::remove_batch`] to its visit order.
    #[cfg(test)]
    fn remove_one(&mut self, r: AtomRef) {
        let Some(atom) = self.atoms.remove(&r) else {
            return;
        };
        for key in posting_keys(&atom) {
            if let Some(list) = self.postings.get_mut(&key) {
                list.retain(|&x| x != r);
            }
        }
        if let Some(list) = self.by_relation.get_mut(&atom.relation) {
            list.retain(|&x| x != r);
        }
    }

    /// Number of posting and relation lists held (test-only: the
    /// leak regression checks it returns to zero).
    #[cfg(test)]
    pub(crate) fn key_count(&self) -> usize {
        self.postings.len() + self.by_relation.len()
    }

    /// The stored atom for a reference, if present.
    pub fn get(&self, r: AtomRef) -> Option<&Atom> {
        self.atoms.get(&r)
    }

    /// Candidate atoms that may unify with `probe`:
    /// `A ∩ ⋂_{constant positions i} (L(R,i,vi) ∪ L(R,i,Δ))`.
    ///
    /// Allocates a fresh `Vec` per probe; hot paths (engine admission,
    /// retirement) should prefer [`AtomIndex::for_each_candidate`],
    /// which visits the same candidates without materializing them.
    ///
    /// Candidates are superset-correct; callers must confirm with a real
    /// MGU check. Results are deduplicated and in insertion order.
    pub fn candidates(&self, probe: &Atom) -> Vec<AtomRef> {
        let mut out = Vec::new();
        self.for_each_candidate(probe, |r, _| out.push(r));
        out
    }

    /// Visits every candidate that may unify with `probe`, passing the
    /// reference and the stored atom. This is the allocation-free form
    /// of [`AtomIndex::candidates`]:
    ///
    /// The driving posting list is the most selective constant position
    /// (smallest `L(R,i,vi) ∪ L(R,i,Δ)`); the remaining positions are
    /// enforced by filtering the candidates positionally, which costs
    /// `O(|smallest list| · arity)` instead of materializing every
    /// posting list — the difference between linear and quadratic total
    /// cost on hub-heavy workloads (every query sharing one destination
    /// constant).
    ///
    /// Candidates are superset-correct; callers must confirm with a real
    /// MGU check. Visit order is deterministic (insertion order within
    /// the driving list) and free of duplicates — an atom appears in
    /// exactly one of the exact/wildcard lists for a given position.
    pub fn for_each_candidate(&self, probe: &Atom, mut f: impl FnMut(AtomRef, &Atom)) {
        let best = probe
            .terms
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.as_const().map(|c| (i as u32, c)))
            .min_by_key(|&(pos, val)| self.union_len(probe.relation, pos, val));

        let Some((pos, val)) = best else {
            // All-variable probe: every atom of the relation (with equal
            // arity) is a candidate.
            if let Some(refs) = self.by_relation.get(&probe.relation) {
                for &r in refs {
                    let atom = &self.atoms[&r];
                    if atom.arity() == probe.arity() {
                        f(r, atom);
                    }
                }
            }
            return;
        };

        let mut visit = |list: Option<&Vec<AtomRef>>| {
            if let Some(list) = list {
                for &r in list {
                    let atom = &self.atoms[&r];
                    if atom.arity() == probe.arity() && atom.positionally_compatible(probe) {
                        f(r, atom);
                    }
                }
            }
        };
        visit(self.postings.get(&Key {
            relation: probe.relation,
            position: pos,
            value: KeyValue::Exact(val),
        }));
        visit(self.postings.get(&Key {
            relation: probe.relation,
            position: pos,
            value: KeyValue::Wildcard,
        }));
    }

    fn union_len(&self, relation: Symbol, position: u32, value: Value) -> usize {
        let exact = self
            .postings
            .get(&Key {
                relation,
                position,
                value: KeyValue::Exact(value),
            })
            .map_or(0, Vec::len);
        let wild = self
            .postings
            .get(&Key {
                relation,
                position,
                value: KeyValue::Wildcard,
            })
            .map_or(0, Vec::len);
        exact + wild
    }
}

/// An [`AtomIndex`] sharded by `(relation, arity)`.
///
/// Atoms of one relation/arity always land in one shard, so a probe
/// touches exactly one shard and probes for *different* relations touch
/// disjoint state — the structural prerequisite for parallel admission
/// probing (several submissions' atoms can be probed concurrently with
/// one immutable borrow per shard, no lock striping needed). The engine
/// keeps its resident head and postcondition indexes in this form.
pub struct ShardedAtomIndex {
    shards: Vec<AtomIndex>,
}

/// Default shard count for the engine's resident indexes.
pub const DEFAULT_INDEX_SHARDS: usize = 8;

impl Default for ShardedAtomIndex {
    fn default() -> Self {
        ShardedAtomIndex::new(DEFAULT_INDEX_SHARDS)
    }
}

impl ShardedAtomIndex {
    /// An empty index with `shard_count` shards (at least 1).
    pub fn new(shard_count: usize) -> Self {
        ShardedAtomIndex {
            shards: (0..shard_count.max(1)).map(|_| AtomIndex::new()).collect(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Read access to the shards (for parallel probing: each shard is an
    /// independent [`AtomIndex`]).
    pub fn shards(&self) -> &[AtomIndex] {
        &self.shards
    }

    /// The shard that atoms shaped like `probe` live in.
    pub fn shard_for(&self, probe: &Atom) -> &AtomIndex {
        &self.shards[self.shard_of(probe)]
    }

    /// Total number of atoms indexed across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(AtomIndex::len).sum()
    }

    /// True if no atoms are indexed.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(AtomIndex::is_empty)
    }

    /// Inserts an atom under `r`.
    pub fn insert(&mut self, r: AtomRef, atom: &Atom) {
        let id = self.shard_of(atom);
        self.shards[id].insert(r, atom);
    }

    /// The shard atoms shaped like `atom` live in: the routing a
    /// [`ShardedAtomIndex::remove_batch`] entry carries, so a removal
    /// can be recorded once the atom itself is gone.
    pub fn shard_of(&self, atom: &Atom) -> usize {
        // Cheap deterministic mix of the interned relation id and arity;
        // relations are few, so simple multiplicative hashing spreads
        // them well enough.
        let h = (atom.relation.index() as usize)
            .wrapping_mul(0x9e37_79b9)
            .wrapping_add(atom.arity());
        h % self.shards.len()
    }

    /// Batched removal routed per shard: `refs` pairs each leaving atom
    /// with its shard ([`ShardedAtomIndex::shard_of`]), and every touched
    /// shard runs one [`AtomIndex::remove_batch`] under the same
    /// all-atoms-of-a-slot contract. Returns the list entries visited.
    pub fn remove_batch(&mut self, refs: &[(usize, AtomRef)], retired: &SlotSet) -> usize {
        let mut buckets: Vec<Vec<AtomRef>> = vec![Vec::new(); self.shards.len()];
        for &(shard, r) in refs {
            buckets[shard].push(r);
        }
        buckets
            .into_iter()
            .zip(&mut self.shards)
            .filter(|(bucket, _)| !bucket.is_empty())
            .map(|(bucket, shard)| shard.remove_batch(bucket, retired))
            .sum()
    }

    /// Number of posting and relation lists held across shards
    /// (test-only).
    #[cfg(test)]
    pub(crate) fn key_count(&self) -> usize {
        self.shards.iter().map(AtomIndex::key_count).sum()
    }

    /// The stored atom for a reference, if present (scans shards; meant
    /// for tests and invariant checks, not hot paths).
    pub fn get(&self, r: AtomRef) -> Option<&Atom> {
        self.shards.iter().find_map(|s| s.get(r))
    }

    /// Visits every candidate that may unify with `probe` (see
    /// [`AtomIndex::for_each_candidate`]); only `probe`'s shard is
    /// touched.
    pub fn for_each_candidate(&self, probe: &Atom, f: impl FnMut(AtomRef, &Atom)) {
        self.shard_for(probe).for_each_candidate(probe, f);
    }

    /// Materialized candidate list (see [`AtomIndex::candidates`]).
    pub fn candidates(&self, probe: &Atom) -> Vec<AtomRef> {
        self.shard_for(probe).candidates(probe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eq_ir::{atom, FastSet, Var};

    fn v(i: u32) -> Term {
        Term::var(Var(i))
    }

    fn r(q: u32, a: u32) -> AtomRef {
        AtomRef { query: q, atom: a }
    }

    fn slots(qs: &[u32]) -> SlotSet {
        let mut set = SlotSet::new();
        for &q in qs {
            set.insert(q);
        }
        set
    }

    #[test]
    fn paper_example_lookup() {
        // Index Reserve(Kramer, x) and Reserve(Jerry, y); probing with
        // Reserve(Jerry, z) must return only Jerry's atom.
        let mut idx = AtomIndex::new();
        idx.insert(r(0, 0), &atom!("Reserve", [Term::str("Kramer"), v(0)]));
        idx.insert(r(1, 0), &atom!("Reserve", [Term::str("Jerry"), v(1)]));
        let probe = atom!("Reserve", [Term::str("Jerry"), v(2)]);
        assert_eq!(idx.candidates(&probe), vec![r(1, 0)]);
    }

    #[test]
    fn wildcard_probe_returns_relation() {
        let mut idx = AtomIndex::new();
        idx.insert(r(0, 0), &atom!("R", [Term::str("a"), v(0)]));
        idx.insert(r(1, 0), &atom!("R", [Term::str("b"), v(1)]));
        idx.insert(r(2, 0), &atom!("S", [Term::str("a"), v(2)]));
        let probe = atom!("R", [v(3), v(4)]);
        assert_eq!(idx.candidates(&probe), vec![r(0, 0), r(1, 0)]);
    }

    #[test]
    fn indexed_wildcards_match_constant_probe() {
        // Head R(x, ITH) must be a candidate for probe R(Jerry, ITH).
        let mut idx = AtomIndex::new();
        idx.insert(r(0, 0), &atom!("R", [v(0), Term::str("ITH")]));
        let probe = atom!("R", [Term::str("Jerry"), Term::str("ITH")]);
        assert_eq!(idx.candidates(&probe), vec![r(0, 0)]);
    }

    #[test]
    fn multi_constant_intersection() {
        let mut idx = AtomIndex::new();
        idx.insert(r(0, 0), &atom!("R", [Term::str("a"), Term::str("x")]));
        idx.insert(r(1, 0), &atom!("R", [Term::str("a"), Term::str("y")]));
        idx.insert(r(2, 0), &atom!("R", [v(0), Term::str("y")]));
        // Probe R(a, y): candidates are atoms compatible in both columns.
        let probe = atom!("R", [Term::str("a"), Term::str("y")]);
        assert_eq!(idx.candidates(&probe), vec![r(1, 0), r(2, 0)]);
    }

    #[test]
    fn arity_filtered() {
        let mut idx = AtomIndex::new();
        idx.insert(r(0, 0), &atom!("R", [Term::str("a")]));
        idx.insert(r(1, 0), &atom!("R", [Term::str("a"), v(0)]));
        let probe = atom!("R", [Term::str("a")]);
        assert_eq!(idx.candidates(&probe), vec![r(0, 0)]);
        let wild_probe = atom!("R", [v(1)]);
        assert_eq!(idx.candidates(&wild_probe), vec![r(0, 0)]);
    }

    #[test]
    fn over_approximation_documented() {
        // R(z, z) indexed; probe R(2, 3) — index returns it as a
        // candidate even though true unification fails.
        let mut idx = AtomIndex::new();
        idx.insert(r(0, 0), &atom!("R", [v(0), v(0)]));
        let probe = atom!("R", [Term::int(2), Term::int(3)]);
        assert_eq!(idx.candidates(&probe), vec![r(0, 0)]);
        assert!(eq_unify::mgu_atoms(idx.get(r(0, 0)).unwrap(), &probe).is_none());
    }

    #[test]
    fn removal() {
        let mut idx = AtomIndex::new();
        idx.insert(r(0, 0), &atom!("R", [Term::str("a"), v(0)]));
        idx.insert(r(1, 0), &atom!("R", [Term::str("a"), v(1)]));
        assert_eq!(idx.len(), 2);
        let retired = slots(&[0]);
        // Visits the `(R,0,a)` and `(R,1,Δ)` lists and the `R` list.
        assert_eq!(idx.remove_batch([r(0, 0)], &retired), 6);
        assert_eq!(idx.len(), 1);
        let probe = atom!("R", [Term::str("a"), v(2)]);
        assert_eq!(idx.candidates(&probe), vec![r(1, 0)]);
        // Removing again is a no-op.
        assert_eq!(idx.remove_batch([r(0, 0)], &retired), 0);
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn slot_set_membership() {
        let mut set = SlotSet::new();
        assert!(set.is_empty() && !set.contains(200));
        set.insert(3);
        set.insert(130);
        assert!(set.contains(3) && set.contains(130) && !set.contains(4));
        set.remove(3);
        set.remove(999);
        assert!(!set.contains(3) && !set.is_empty());
        set.remove(130);
        assert!(set.is_empty());
    }

    #[test]
    fn batched_removal_drops_emptied_lists() {
        // Distinct constants per atom (user names, group ids) must not
        // leave an empty posting list behind once their atoms retire.
        let n = 50u32;
        let mut idx = AtomIndex::new();
        for q in 0..n {
            let name = Term::str(&format!("user{q}"));
            idx.insert(r(q, 0), &atom!("R", [name, Term::int(i64::from(q))]));
            idx.insert(r(q, 1), &atom!("S", [v(q), Term::str("hub")]));
        }
        assert_eq!(idx.key_count(), 2 * n as usize + 2 + 2);
        let retired = slots(&(0..n).collect::<Vec<_>>());
        let refs = (0..n).flat_map(|q| [r(q, 0), r(q, 1)]);
        // Every list is visited once: 2 entries per atom in postings,
        // 1 in its relation list.
        assert_eq!(idx.remove_batch(refs, &retired), 3 * 2 * n as usize);
        assert!(idx.is_empty());
        assert_eq!(idx.key_count(), 0, "emptied lists leaked");
    }

    #[test]
    fn visitor_matches_materialized_candidates() {
        let mut idx = AtomIndex::new();
        idx.insert(r(0, 0), &atom!("R", [Term::str("a"), v(0)]));
        idx.insert(r(1, 0), &atom!("R", [v(1), Term::str("b")]));
        idx.insert(r(2, 0), &atom!("R", [Term::str("a"), Term::str("b")]));
        for probe in [
            atom!("R", [Term::str("a"), v(2)]),
            atom!("R", [v(3), v(4)]),
            atom!("R", [Term::str("a"), Term::str("b")]),
        ] {
            let mut visited = Vec::new();
            idx.for_each_candidate(&probe, |r, atom| {
                assert_eq!(idx.get(r), Some(atom));
                visited.push(r);
            });
            assert_eq!(visited, idx.candidates(&probe));
        }
    }

    #[test]
    fn sharded_index_routes_by_relation_and_arity() {
        let mut idx = ShardedAtomIndex::new(4);
        idx.insert(r(0, 0), &atom!("R", [Term::str("a"), v(0)]));
        idx.insert(r(1, 0), &atom!("S", [Term::str("a")]));
        idx.insert(r(2, 0), &atom!("R", [Term::str("a")]));
        assert_eq!(idx.len(), 3);
        let probe = atom!("R", [Term::str("a"), v(1)]);
        assert_eq!(idx.candidates(&probe), vec![r(0, 0)]);
        // Removal routes through the atom's shard.
        let shard = idx.shard_of(&atom!("R", [Term::str("a"), v(0)]));
        idx.remove_batch(&[(shard, r(0, 0))], &slots(&[0]));
        assert!(idx.candidates(&probe).is_empty());
        assert_eq!(idx.len(), 2);
        assert!(idx.get(r(1, 0)).is_some());
        assert!(!idx.is_empty());
    }

    #[test]
    fn sharded_index_agrees_with_flat_index() {
        let mut flat = AtomIndex::new();
        let mut sharded = ShardedAtomIndex::new(3);
        let atoms = [
            atom!("R", [Term::str("a"), v(0)]),
            atom!("R", [v(1), Term::str("b")]),
            atom!("S", [Term::str("a"), Term::str("b")]),
            atom!("S", [v(2)]),
            atom!("T", [v(3), v(4)]),
        ];
        for (i, a) in atoms.iter().enumerate() {
            flat.insert(r(i as u32, 0), a);
            sharded.insert(r(i as u32, 0), a);
        }
        for probe in &atoms {
            assert_eq!(flat.candidates(probe), sharded.candidates(probe));
        }
    }

    #[test]
    fn no_false_negatives_vs_pairwise() {
        // Exhaustive cross-check on a small universe: every truly
        // unifiable pair must appear in the candidate list.
        use eq_unify::mgu_atoms;
        let consts = ["a", "b"];
        let mut atoms = Vec::new();
        let mut next_var = 0u32;
        for t1 in 0..3 {
            for t2 in 0..3 {
                let mut mk = |sel: usize| -> Term {
                    match sel {
                        0 => Term::str(consts[0]),
                        1 => Term::str(consts[1]),
                        _ => {
                            let t = Term::var(Var(next_var));
                            next_var += 1;
                            t
                        }
                    }
                };
                atoms.push(Atom::new("R", vec![mk(t1), mk(t2)]));
            }
        }
        let mut idx = AtomIndex::new();
        for (i, a) in atoms.iter().enumerate() {
            idx.insert(r(i as u32, 0), a);
        }
        for probe in &atoms {
            let cands: FastSet<AtomRef> = idx.candidates(probe).into_iter().collect();
            for (i, a) in atoms.iter().enumerate() {
                if mgu_atoms(a, probe).is_some() {
                    assert!(
                        cands.contains(&r(i as u32, 0)),
                        "index missed unifiable pair {a} / {probe}"
                    );
                }
            }
        }
    }

    /// Differential check of the batched removal against the per-ref
    /// reference ([`AtomIndex::remove_one`]): candidate visit order is
    /// a contract (eager pairing's "first closure wins" relies on it),
    /// so after every step of a random script both must visit exactly
    /// the same refs, in the same order, for every probe.
    mod differential {
        use super::*;
        use proptest::prelude::*;

        const SLOTS: u32 = 6;
        /// `(relation, arity)` shapes: two arities share a relation
        /// name, so the arity filter and the shard routing are both
        /// exercised.
        const SHAPES: [(&str, usize); 3] = [("R", 2), ("R", 1), ("S", 2)];
        const CONSTS: [&str; 3] = ["a", "b", "c"];

        /// One script step.
        #[derive(Clone, Debug)]
        enum Op {
            /// Fill `slot` (if free) with atoms given as `(shape, term,
            /// term)` selectors; a previously retired slot is reused
            /// under different atoms.
            Insert { slot: u32, atoms: Vec<(u8, u8, u8)> },
            /// Retire every live slot in `mask` as one batch.
            Retire { mask: u32 },
        }

        fn arb_script() -> impl Strategy<Value = Vec<Op>> {
            proptest::collection::vec(
                prop_oneof![
                    (
                        0..SLOTS,
                        proptest::collection::vec((0u8..3, 0u8..4, 0u8..4), 1..3)
                    )
                        .prop_map(|(slot, atoms)| Op::Insert { slot, atoms }),
                    (1u32..(1 << SLOTS)).prop_map(|mask| Op::Retire { mask }),
                ],
                0..40,
            )
        }

        /// Selector `0..3` is a constant, anything else a fresh variable.
        fn term(sel: u8, next_var: &mut u32) -> Term {
            match CONSTS.get(sel as usize) {
                Some(c) => Term::str(c),
                None => {
                    *next_var += 1;
                    v(*next_var)
                }
            }
        }

        fn make_atom((shape, t0, t1): (u8, u8, u8), next_var: &mut u32) -> Atom {
            let (name, arity) = SHAPES[shape as usize];
            let terms = [t0, t1][..arity]
                .iter()
                .map(|&t| term(t, next_var))
                .collect();
            Atom::new(name, terms)
        }

        /// Every shape with each position a constant or a variable.
        fn probe_universe() -> Vec<Atom> {
            let mut next_var = 1000;
            let mut probes = Vec::new();
            for shape in 0..SHAPES.len() as u8 {
                for t0 in 0..4 {
                    for t1 in 0..4 {
                        if SHAPES[shape as usize].1 == 1 && t1 > 0 {
                            continue;
                        }
                        probes.push(make_atom((shape, t0, t1), &mut next_var));
                    }
                }
            }
            probes
        }

        fn visits(
            probe: &Atom,
            for_each: impl FnOnce(&Atom, &mut dyn FnMut(AtomRef, &Atom)),
        ) -> Vec<(AtomRef, Atom)> {
            let mut out = Vec::new();
            for_each(probe, &mut |r, atom| out.push((r, atom.clone())));
            out
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn batched_removal_keeps_reference_visit_order(script in arb_script()) {
                let probes = probe_universe();
                // Sharding changes which list drives a probe (a flat list
                // also holds other arities), so each layout is checked
                // against a reference of the same layout.
                let mut model = AtomIndex::new();
                let mut flat = AtomIndex::new();
                let mut sharded_model = ShardedAtomIndex::new(2);
                let mut sharded = ShardedAtomIndex::new(2);
                let mut live: Vec<Option<Vec<Atom>>> = vec![None; SLOTS as usize];
                let mut next_var = 0;
                for (step, op) in script.iter().enumerate() {
                    match op {
                        Op::Insert { slot, atoms } => {
                            if live[*slot as usize].is_some() {
                                continue;
                            }
                            let atoms: Vec<Atom> =
                                atoms.iter().map(|&a| make_atom(a, &mut next_var)).collect();
                            for (i, atom) in atoms.iter().enumerate() {
                                let at = r(*slot, i as u32);
                                model.insert(at, atom);
                                flat.insert(at, atom);
                                sharded_model.insert(at, atom);
                                sharded.insert(at, atom);
                            }
                            live[*slot as usize] = Some(atoms);
                        }
                        Op::Retire { mask } => {
                            let mut retired = SlotSet::new();
                            let mut refs = Vec::new();
                            let mut routed = Vec::new();
                            for slot in (0..SLOTS).filter(|s| mask & (1 << s) != 0) {
                                let Some(atoms) = live[slot as usize].take() else {
                                    continue;
                                };
                                retired.insert(slot);
                                for (i, atom) in atoms.iter().enumerate() {
                                    refs.push(r(slot, i as u32));
                                    routed.push((sharded.shard_of(atom), r(slot, i as u32)));
                                }
                            }
                            flat.remove_batch(refs.iter().copied(), &retired);
                            sharded.remove_batch(&routed, &retired);
                            for &at in refs.iter().rev() {
                                model.remove_one(at);
                            }
                            for &(shard, at) in routed.iter().rev() {
                                sharded_model.shards[shard].remove_one(at);
                            }
                        }
                    }
                    prop_assert_eq!(flat.len(), model.len());
                    prop_assert_eq!(sharded.len(), model.len());
                    for probe in &probes {
                        let expected = visits(probe, |p, f| model.for_each_candidate(p, f));
                        let got = visits(probe, |p, f| flat.for_each_candidate(p, f));
                        prop_assert_eq!(&got, &expected, "flat index, probe {} after step {}", probe, step);
                        let expected = visits(probe, |p, f| sharded_model.for_each_candidate(p, f));
                        let got = visits(probe, |p, f| sharded.for_each_candidate(p, f));
                        prop_assert_eq!(&got, &expected, "sharded index, probe {} after step {}", probe, step);
                    }
                }
            }
        }
    }
}
