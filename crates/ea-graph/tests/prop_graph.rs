//! Property-based tests for the graph substrate.

use ea_graph::{
    paths::enumerate_paths, AlignmentPair, AlignmentSet, BfsScratch, Direction, EntityId,
    KnowledgeGraph, RelationFunctionality, RelationId, Subgraph, Triple,
};
use proptest::prelude::*;
use std::collections::{HashSet, VecDeque};

/// The pre-CSR reference implementation: push-based per-entity adjacency
/// lists, exactly as `KnowledgeGraph` stored them before the refactor. The
/// CSR index must reproduce its query results byte for byte.
struct ReferenceAdjacency {
    outgoing: Vec<Vec<u32>>,
    incoming: Vec<Vec<u32>>,
    by_relation: Vec<Vec<u32>>,
}

impl ReferenceAdjacency {
    fn build(kg: &KnowledgeGraph) -> Self {
        let mut outgoing = vec![Vec::new(); kg.num_entities()];
        let mut incoming = vec![Vec::new(); kg.num_entities()];
        let mut by_relation = vec![Vec::new(); kg.num_relations()];
        for (i, t) in kg.triples().iter().enumerate() {
            outgoing[t.head.index()].push(i as u32);
            incoming[t.tail.index()].push(i as u32);
            by_relation[t.relation.index()].push(i as u32);
        }
        Self {
            outgoing,
            incoming,
            by_relation,
        }
    }

    /// The historical `neighbors` result: outgoing triples first (forward),
    /// then non-reflexive incoming triples (backward), in insertion order.
    fn neighbors(&self, kg: &KnowledgeGraph, e: EntityId) -> Vec<(EntityId, Triple, Direction)> {
        let mut result = Vec::new();
        if let Some(out) = self.outgoing.get(e.index()) {
            for &i in out {
                let t = kg.triples()[i as usize];
                result.push((t.tail, t, Direction::Forward));
            }
        }
        if let Some(inc) = self.incoming.get(e.index()) {
            for &i in inc {
                let t = kg.triples()[i as usize];
                if t.head != t.tail {
                    result.push((t.head, t, Direction::Backward));
                }
            }
        }
        result
    }

    /// The historical hash-set BFS behind `triples_within_hops`.
    fn triples_within_hops(&self, kg: &KnowledgeGraph, e: EntityId, hops: usize) -> Vec<Triple> {
        let mut seen_triples = HashSet::new();
        let mut result = Vec::new();
        let mut visited = HashSet::new();
        let mut queue = VecDeque::new();
        visited.insert(e);
        queue.push_back((e, 0usize));
        while let Some((current, depth)) = queue.pop_front() {
            if depth >= hops {
                continue;
            }
            for (neighbor, triple, _) in self.neighbors(kg, current) {
                if seen_triples.insert(triple) {
                    result.push(triple);
                }
                if visited.insert(neighbor) {
                    queue.push_back((neighbor, depth + 1));
                }
            }
        }
        result
    }
}

/// Strategy: a random small KG described as a list of (head, rel, tail) index
/// triples over bounded vocabularies.
fn kg_strategy() -> impl Strategy<Value = KnowledgeGraph> {
    prop::collection::vec((0usize..20, 0usize..6, 0usize..20), 1..120).prop_map(|raw| {
        let mut kg = KnowledgeGraph::new();
        // Pre-register vocabularies so ids are dense and stable.
        for i in 0..20 {
            kg.add_entity(&format!("e{i}"));
        }
        for r in 0..6 {
            kg.add_relation(&format!("r{r}"));
        }
        for (h, r, t) in raw {
            kg.add_triple(Triple::new(
                EntityId(h as u32),
                RelationId(r as u32),
                EntityId(t as u32),
            ))
            .unwrap();
        }
        kg
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every triple reachable through the adjacency indexes is in the triple
    /// list, and vice versa.
    #[test]
    fn adjacency_indexes_are_consistent(kg in kg_strategy()) {
        let all: HashSet<Triple> = kg.triples().iter().copied().collect();
        let mut via_index = HashSet::new();
        for e in kg.entity_ids() {
            for t in kg.outgoing_triples(e) {
                prop_assert_eq!(t.head, e);
                via_index.insert(t);
            }
            for t in kg.incoming_triples(e) {
                prop_assert_eq!(t.tail, e);
                via_index.insert(t);
            }
        }
        prop_assert_eq!(all, via_index);
    }

    /// Functionality and inverse functionality always lie in (0, 1] for
    /// relations that have triples, and are 0 otherwise.
    #[test]
    fn functionality_is_bounded(kg in kg_strategy()) {
        let f = RelationFunctionality::compute(&kg);
        for r in kg.relation_ids() {
            let has_triples = kg.triples_with_relation(r).next().is_some();
            if has_triples {
                prop_assert!(f.func(r) > 0.0 && f.func(r) <= 1.0);
                prop_assert!(f.ifunc(r) > 0.0 && f.ifunc(r) <= 1.0);
            } else {
                prop_assert_eq!(f.func(r), 0.0);
                prop_assert_eq!(f.ifunc(r), 0.0);
            }
        }
    }

    /// k-hop triple sets are monotone in k and 1-hop equals incident triples.
    #[test]
    fn khop_triples_are_monotone(kg in kg_strategy(), e in 0u32..20) {
        let e = EntityId(e);
        let one: HashSet<Triple> = kg.triples_within_hops(e, 1).into_iter().collect();
        let two: HashSet<Triple> = kg.triples_within_hops(e, 2).into_iter().collect();
        let incident: HashSet<Triple> = kg.triples_of(e).into_iter().collect();
        prop_assert_eq!(&one, &incident);
        prop_assert!(one.is_subset(&two));
    }

    /// Enumerated paths are simple, respect the length bound, and consist of
    /// triples that exist in the graph.
    #[test]
    fn enumerated_paths_are_valid(kg in kg_strategy(), e in 0u32..20, len in 1usize..3) {
        let e = EntityId(e);
        for p in enumerate_paths(&kg, e, len) {
            prop_assert!(p.len() <= len);
            prop_assert_eq!(p.start, e);
            let mut seen = HashSet::new();
            seen.insert(p.start);
            for ent in p.entities() {
                prop_assert!(seen.insert(ent), "path revisits an entity");
            }
            for t in p.triples() {
                prop_assert!(kg.contains_triple(&t));
            }
        }
    }

    /// Removing triples never invents new ones and preserves the vocabulary.
    #[test]
    fn without_triples_is_a_subset(kg in kg_strategy(), keep_mod in 1usize..5) {
        let remove: HashSet<Triple> = kg
            .triples()
            .iter()
            .enumerate()
            .filter(|(i, _)| i % keep_mod == 0)
            .map(|(_, t)| *t)
            .collect();
        let reduced = kg.without_triples(&remove);
        prop_assert_eq!(reduced.num_entities(), kg.num_entities());
        prop_assert_eq!(reduced.num_relations(), kg.num_relations());
        prop_assert_eq!(reduced.num_triples(), kg.num_triples() - remove.len());
        for t in reduced.triples() {
            prop_assert!(kg.contains_triple(t));
            prop_assert!(!remove.contains(t));
        }
    }

    /// Subgraph entity/relation projections only mention ids from its triples.
    #[test]
    fn subgraph_projections_are_consistent(kg in kg_strategy()) {
        let sub: Subgraph = kg.triples().iter().copied().take(10).collect();
        let ents: HashSet<EntityId> = sub.entities().into_iter().collect();
        let rels: HashSet<RelationId> = sub.relations().into_iter().collect();
        for t in sub.triples() {
            prop_assert!(ents.contains(&t.head));
            prop_assert!(ents.contains(&t.tail));
            prop_assert!(rels.contains(&t.relation));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CSR `neighbors_iter` reproduces the pre-refactor push-based adjacency
    /// byte for byte: same triples, same directions, same order — not just
    /// the same multiset.
    #[test]
    fn csr_neighbors_match_reference_exactly(kg in kg_strategy()) {
        let reference = ReferenceAdjacency::build(&kg);
        for e in kg.entity_ids() {
            let via_csr: Vec<(EntityId, Triple, Direction)> = kg
                .neighbors_iter(e)
                .map(|n| (n.entity, n.triple, n.direction))
                .collect();
            prop_assert_eq!(&via_csr, &reference.neighbors(&kg, e));
            prop_assert_eq!(&via_csr, &kg.neighbors(e));
        }
    }

    /// The bitmap-BFS `triples_within_hops` agrees with the historical
    /// hash-set BFS on every entity and hop count — identical sequences,
    /// hence identical multisets.
    #[test]
    fn csr_khop_triples_match_reference_exactly(kg in kg_strategy(), hops in 1usize..4) {
        let reference = ReferenceAdjacency::build(&kg);
        for e in kg.entity_ids() {
            prop_assert_eq!(
                kg.triples_within_hops(e, hops),
                reference.triples_within_hops(&kg, e, hops)
            );
        }
    }

    /// A single reused scratch buffer yields the same traversals as fresh
    /// allocations, across interleaved entities and hop counts.
    #[test]
    fn bfs_scratch_reuse_is_sound(kg in kg_strategy(), hops in 1usize..4) {
        let mut scratch = BfsScratch::new();
        let mut triples = Vec::new();
        let mut entities = Vec::new();
        for e in kg.entity_ids() {
            kg.triples_within_hops_into(e, hops, &mut scratch, &mut triples);
            prop_assert_eq!(&triples, &kg.triples_within_hops(e, hops));
            kg.entities_within_hops_into(e, hops, &mut scratch, &mut entities);
            prop_assert_eq!(&entities, &kg.entities_within_hops(e, hops));
        }
    }

    /// The by-relation CSR view equals the reference per-relation buckets.
    #[test]
    fn csr_relation_view_matches_reference(kg in kg_strategy()) {
        let reference = ReferenceAdjacency::build(&kg);
        for r in kg.relation_ids() {
            let via_index: Vec<Triple> = kg.triples_with_relation(r).collect();
            let via_reference: Vec<Triple> = reference.by_relation[r.index()]
                .iter()
                .map(|&i| kg.triples()[i as usize])
                .collect();
            prop_assert_eq!(via_index, via_reference);
        }
    }

    /// AlignmentSet maintains the forward-uniqueness invariant and its reverse
    /// index stays consistent under arbitrary insert/remove sequences.
    #[test]
    fn alignment_set_invariants(ops in prop::collection::vec((0u32..30, 0u32..30, prop::bool::ANY), 0..200)) {
        let mut set = AlignmentSet::new();
        for (s, t, is_insert) in ops {
            let pair = AlignmentPair::new(EntityId(s), EntityId(t));
            if is_insert {
                set.insert(pair);
            } else {
                set.remove(&pair);
            }
        }
        // Forward map: every source appears exactly once in iter().
        let sources: Vec<_> = set.iter().map(|p| p.source).collect();
        let mut dedup = sources.clone();
        dedup.sort();
        dedup.dedup();
        prop_assert_eq!(sources.len(), dedup.len());
        // Reverse index agrees with forward map.
        for p in set.iter() {
            prop_assert!(set.sources_of(p.target).contains(&p.source));
            prop_assert_eq!(set.target_of(p.source), Some(p.target));
        }
        for t in set.targets() {
            for &s in set.sources_of(t) {
                prop_assert_eq!(set.target_of(s), Some(t));
            }
        }
        // One-to-one check agrees with conflict enumeration.
        prop_assert_eq!(set.is_one_to_one(), set.one_to_many_conflicts().is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Path symmetry, the precondition of the matching core's walk over a
    /// neighbour's paths: `a` has a path of at most `hops` steps ending at
    /// `b` exactly when `b` has one ending at `a`, and no path ends where it
    /// starts. Every graph carries a self-loop and parallel edges in both
    /// directions on top of the random triples.
    #[test]
    fn path_endpoints_are_symmetric(kg in kg_strategy(), hops in 1usize..=3) {
        let mut kg = kg;
        let (r0, r1) = (RelationId(0), RelationId(1));
        for (h, r, t) in [(0, r0, 0), (1, r0, 2), (1, r1, 2), (2, r0, 1), (1, r0, 2)] {
            kg.add_triple(Triple::new(EntityId(h), r, EntityId(t))).unwrap();
        }
        let ends: Vec<HashSet<EntityId>> = kg
            .entity_ids()
            .map(|e| enumerate_paths(&kg, e, hops).iter().map(|p| p.end()).collect())
            .collect();
        for a in kg.entity_ids() {
            prop_assert!(!ends[a.index()].contains(&a), "a path of {} ends at its start", a);
            for &b in &ends[a.index()] {
                prop_assert!(
                    ends[b.index()].contains(&a),
                    "{} reaches {} in {} hops but not back",
                    a,
                    b,
                    hops
                );
            }
        }
    }
}
