// Content-hash canonicalization (graph/canonical_hash.h): identical
// graphs built through different routes hash equal; any structural,
// timing or probability change hashes different; and the ordered form —
// the serve GraphStore's equality key — tracks construction order while
// staying name-free.
#include <gtest/gtest.h>

#include "graph/canonical_hash.h"
#include "graph/graph.h"
#include "graph/text_format.h"
#include "serve/graph_store.h"

namespace paserta {
namespace {

SimTime ms(double v) { return SimTime::from_ms(v); }

// A small AND/OR shape: fork -> {fast | slow} with a join, plus a
// straight-line task. Built with node insertions in the given order.
AndOrGraph diamond(bool reversed_insertion, double p_fast = 0.4,
                   double slow_wcet = 6.0) {
  AndOrGraph g;
  if (!reversed_insertion) {
    const NodeId pre = g.add_task("pre", ms(2), ms(1));
    const NodeId fork = g.add_or("fork");
    const NodeId fast = g.add_task("fast", ms(3), ms(2));
    const NodeId slow = g.add_task("slow", ms(slow_wcet), ms(3));
    const NodeId join = g.add_or("join");
    g.add_edge(pre, fork);
    g.add_or_edge(fork, fast, p_fast);
    g.add_or_edge(fork, slow, 1.0 - p_fast);
    g.add_edge(fast, join);
    g.add_edge(slow, join);
  } else {
    // Same graph, nodes and edges introduced in a different order (and
    // under different names — both must wash out of the content hash).
    const NodeId join = g.add_or("J");
    const NodeId slow = g.add_task("S", ms(slow_wcet), ms(3));
    const NodeId fast = g.add_task("F", ms(3), ms(2));
    const NodeId fork = g.add_or("K");
    const NodeId pre = g.add_task("P", ms(2), ms(1));
    g.add_edge(slow, join);
    g.add_edge(fast, join);
    g.add_or_edge(fork, fast, p_fast);
    g.add_or_edge(fork, slow, 1.0 - p_fast);
    g.add_edge(pre, fork);
  }
  return g;
}

TEST(CanonicalHash, ConstructionOrderAndNamesWashOut) {
  const AndOrGraph a = diamond(false);
  const AndOrGraph b = diamond(true);
  EXPECT_EQ(graph_canonical_form(a), graph_canonical_form(b));
  EXPECT_EQ(graph_content_hash(a), graph_content_hash(b));
  // The ordered (insertion-sensitive) form must NOT collapse them: the
  // simulation's tie-breaks may legally differ between the two orders.
  EXPECT_NE(graph_ordered_form(a), graph_ordered_form(b));
}

TEST(CanonicalHash, TextParseMatchesProgrammaticConstruction) {
  const char* text = R"(app demo
section
  task A 8 5
  task B 5 3
  task C 4 2
  edge A B
  edge A C
end
)";
  const Application parsed = load_application_string(text);

  AndOrGraph built;
  const NodeId a = built.add_task("A", ms(8), ms(5));
  const NodeId b = built.add_task("B", ms(5), ms(3));
  const NodeId c = built.add_task("C", ms(4), ms(2));
  built.add_edge(a, b);
  built.add_edge(a, c);

  EXPECT_EQ(graph_content_hash(parsed.graph), graph_content_hash(built));
  EXPECT_EQ(graph_canonical_form(parsed.graph), graph_canonical_form(built));
}

TEST(CanonicalHash, NamesNeverReachEitherForm) {
  AndOrGraph a;
  a.add_task("alpha", ms(4), ms(2));
  AndOrGraph b;
  b.add_task("completely-different", ms(4), ms(2));
  EXPECT_EQ(graph_content_hash(a), graph_content_hash(b));
  EXPECT_EQ(graph_ordered_form(a), graph_ordered_form(b));
}

TEST(CanonicalHash, WcetChangeChangesHash) {
  const AndOrGraph base = diamond(false);
  const AndOrGraph changed = diamond(false, 0.4, /*slow_wcet=*/6.5);
  EXPECT_NE(graph_content_hash(base), graph_content_hash(changed));
}

TEST(CanonicalHash, AcetChangeChangesHash) {
  AndOrGraph a;
  a.add_task("t", ms(4), ms(2));
  AndOrGraph b;
  b.add_task("t", ms(4), ms(3));
  EXPECT_NE(graph_content_hash(a), graph_content_hash(b));
}

TEST(CanonicalHash, ProbabilityChangeChangesHash) {
  const AndOrGraph base = diamond(false, 0.4);
  const AndOrGraph changed = diamond(false, 0.5);
  EXPECT_NE(graph_content_hash(base), graph_content_hash(changed));
}

TEST(CanonicalHash, StructureChangeChangesHash) {
  AndOrGraph chain;
  const NodeId c1 = chain.add_task("a", ms(1), ms(1));
  const NodeId c2 = chain.add_task("b", ms(1), ms(1));
  const NodeId c3 = chain.add_task("c", ms(1), ms(1));
  chain.add_edge(c1, c2);
  chain.add_edge(c2, c3);

  AndOrGraph fan;
  const NodeId f1 = fan.add_task("a", ms(1), ms(1));
  const NodeId f2 = fan.add_task("b", ms(1), ms(1));
  const NodeId f3 = fan.add_task("c", ms(1), ms(1));
  fan.add_edge(f1, f2);
  fan.add_edge(f1, f3);

  EXPECT_NE(graph_content_hash(chain), graph_content_hash(fan));
}

TEST(CanonicalHash, AutomorphicSiblingsStillCanonicalize) {
  // Two interchangeable parallel tasks: swapping their insertion order
  // must not move the canonical form (their refined signatures tie and
  // the serialization is invariant under their interchange).
  AndOrGraph a;
  const NodeId src_a = a.add_task("src", ms(2), ms(1));
  a.add_edge(src_a, a.add_task("x", ms(3), ms(2)));
  a.add_edge(src_a, a.add_task("y", ms(3), ms(2)));

  AndOrGraph b;
  const NodeId y = b.add_task("y", ms(3), ms(2));
  const NodeId x = b.add_task("x", ms(3), ms(2));
  const NodeId src_b = b.add_task("src", ms(2), ms(1));
  b.add_edge(src_b, y);
  b.add_edge(src_b, x);

  EXPECT_EQ(graph_canonical_form(a), graph_canonical_form(b));
}

TEST(GraphStore, InternsByContentButKeepsOrdersApart) {
  GraphStore store;
  AndOrGraph g1 = diamond(false);
  AndOrGraph g2 = diamond(false);  // same construction -> same entry
  AndOrGraph g3 = diamond(true);   // isomorphic, different order

  const auto e1 = store.intern(Application{"a", std::move(g1), {}});
  const auto e2 = store.intern(Application{"b", std::move(g2), {}});
  const auto e3 = store.intern(Application{"c", std::move(g3), {}});

  EXPECT_EQ(e1, e2);  // content-equal: one resident Application
  EXPECT_NE(e1, e3);  // reordered: distinct entry...
  EXPECT_EQ(e1->content_hash, e3->content_hash);  // ...sharing the hash
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.hits(), 1u);
  EXPECT_EQ(store.misses(), 2u);
}

}  // namespace
}  // namespace paserta
