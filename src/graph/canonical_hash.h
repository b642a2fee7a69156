// Content-addressed graph identity (DESIGN.md §16).
//
// The serve daemon memoizes offline analysis *across requests*, but two
// requests that parse the same workload text produce two Application
// objects, so a cache keyed by graph address would never share an entry
// between them. This module assigns every AndOrGraph a canonical form that
// depends only on its structure and timing/probability attributes — not
// on node names, not on construction order — so structurally identical
// graphs can be interned to one shared object.
//
// The canonical form is computed by Weisfeiler–Leman-style color
// refinement: each node starts from a signature of its local attributes
// (kind, wcet, acet) and repeatedly absorbs the *sorted* multiset of its
// neighbors' signatures (successors paired with their branch-probability
// bits, predecessors bare). Sorting at every step removes any dependence
// on adjacency-list or insertion order. After refinement, nodes are laid
// out in signature order and serialized — attributes plus re-indexed
// successor lists — into a flat word array whose bytes are the canonical
// form. Nodes whose signatures tie are automorphic in practice (a
// non-automorphic tie is a 64-bit collision between refined signatures);
// interchange of automorphic nodes leaves the serialization unchanged.
//
// The 64-bit content hash is a fold over the canonical words. Callers
// that need collision *safety* (the serve GraphStore) compare the full
// canonical form on hash match, mirroring FingerprintTable's
// full-key-compare discipline.
#pragma once

#include <cstdint>
#include <vector>

namespace paserta {

class AndOrGraph;

/// Order-independent, name-independent serialization of the graph's
/// structure and attributes. Two graphs have equal canonical forms iff
/// they are the same AND/OR program up to node naming and construction
/// order (modulo refined-signature collisions, see header comment).
std::vector<std::uint64_t> graph_canonical_form(const AndOrGraph& g);

/// 64-bit hash of graph_canonical_form(). Stable across processes (no
/// ASLR-dependent input), suitable as a cross-request cache key.
std::uint64_t graph_content_hash(const AndOrGraph& g);

/// Name-free serialization in *insertion order* (not canonicalized). Two
/// graphs with equal ordered forms are interchangeable bit-for-bit in the
/// simulation: every tie-break in the pipeline (list-scheduling order,
/// ready-queue order, EO assignment) keys on node ids or attributes,
/// never on names. The serve GraphStore interns on THIS form — reordered
/// isomorphic graphs share a content hash (see graph_canonical_form) but
/// intern as distinct entries, because insertion order can legally steer
/// tie-breaks and the server guarantees responses bit-identical to the
/// CLI running the caller's own construction.
std::vector<std::uint64_t> graph_ordered_form(const AndOrGraph& g);

/// splitmix64-style combine step shared by the serve request keys: folds
/// `word` into accumulator `h`. Not order-insensitive — callers fold
/// fields in a fixed documented order.
std::uint64_t hash_combine_u64(std::uint64_t h, std::uint64_t word);

}  // namespace paserta
