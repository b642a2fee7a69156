#include "graph/canonical_hash.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <numeric>

#include "graph/graph.h"

namespace paserta {
namespace {

/// splitmix64 finalizer — the same mixing family sim/fingerprint uses.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Number of distinct values in `sig`; `scratch` is reused storage.
std::size_t distinct_count(const std::vector<std::uint64_t>& sig,
                           std::vector<std::uint64_t>& scratch) {
  scratch.assign(sig.begin(), sig.end());
  std::sort(scratch.begin(), scratch.end());
  return static_cast<std::size_t>(
      std::unique(scratch.begin(), scratch.end()) - scratch.begin());
}

/// Branch probability of edge k out of `n`: OR forks carry one per
/// successor; every other edge is certain. bit_cast keeps the exact
/// double bits in the signature, so any probability change re-keys.
std::uint64_t prob_bits(const Node& n, std::size_t k) {
  const double p =
      n.succ_prob.size() == n.succs.size() ? n.succ_prob[k] : 1.0;
  return std::bit_cast<std::uint64_t>(p);
}

}  // namespace

std::uint64_t hash_combine_u64(std::uint64_t h, std::uint64_t word) {
  return mix64(h ^ word);
}

std::vector<std::uint64_t> graph_canonical_form(const AndOrGraph& g) {
  const std::span<const Node> nodes = g.nodes();
  const std::size_t n = nodes.size();

  // --- color refinement ------------------------------------------------
  std::vector<std::uint64_t> sig(n), next(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t h = mix64(static_cast<std::uint64_t>(nodes[i].kind) + 1);
    h = hash_combine_u64(h, static_cast<std::uint64_t>(nodes[i].wcet.ps));
    h = hash_combine_u64(h, static_cast<std::uint64_t>(nodes[i].acet.ps));
    sig[i] = h;
  }
  // Each round re-mixes every signature, so the values never repeat; the
  // partition into colour classes is what settles. A node's new colour
  // mixes in its old one, so classes only split, and a round that splits
  // none leaves a partition no later round changes: stop there. n bounds
  // the splitting rounds; the cap bounds pathological chains, beyond
  // which far-apart differences stop propagating, which only risks extra
  // hash ties that the canonical-form compare resolves.
  const std::size_t rounds = std::min<std::size_t>(n, 64);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out_edges;
  std::vector<std::uint64_t> in_sigs;
  std::vector<std::uint64_t> scratch;
  std::size_t classes = distinct_count(sig, scratch);
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t i = 0; i < n; ++i) {
      const Node& node = nodes[i];
      std::uint64_t h = hash_combine_u64(sig[i], 0xA11CE5ull);
      out_edges.clear();
      for (std::size_t k = 0; k < node.succs.size(); ++k)
        out_edges.emplace_back(sig[node.succs[k].value], prob_bits(node, k));
      std::sort(out_edges.begin(), out_edges.end());
      for (const auto& [s, p] : out_edges)
        h = hash_combine_u64(hash_combine_u64(h, s), p);
      in_sigs.clear();
      for (const NodeId p : node.preds) in_sigs.push_back(sig[p.value]);
      std::sort(in_sigs.begin(), in_sigs.end());
      for (const std::uint64_t s : in_sigs) h = hash_combine_u64(h, s);
      next[i] = h;
    }
    sig.swap(next);
    const std::size_t refined = distinct_count(sig, scratch);
    if (refined == classes) break;
    classes = refined;
  }

  // --- canonical node order -------------------------------------------
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return sig[a] < sig[b];
                   });
  std::vector<std::uint32_t> rank(n);
  for (std::uint32_t pos = 0; pos < n; ++pos) rank[order[pos]] = pos;

  // --- serialization ---------------------------------------------------
  std::vector<std::uint64_t> form;
  form.reserve(1 + n * 5);
  form.push_back(static_cast<std::uint64_t>(n));
  std::vector<std::pair<std::uint64_t, std::uint64_t>> succ_rows;
  for (const std::uint32_t i : order) {
    const Node& node = nodes[i];
    form.push_back(static_cast<std::uint64_t>(node.kind));
    form.push_back(static_cast<std::uint64_t>(node.wcet.ps));
    form.push_back(static_cast<std::uint64_t>(node.acet.ps));
    form.push_back(static_cast<std::uint64_t>(node.succs.size()));
    succ_rows.clear();
    for (std::size_t k = 0; k < node.succs.size(); ++k)
      succ_rows.emplace_back(rank[node.succs[k].value], prob_bits(node, k));
    std::sort(succ_rows.begin(), succ_rows.end());
    for (const auto& [to, p] : succ_rows) {
      form.push_back(to);
      form.push_back(p);
    }
  }
  return form;
}

std::vector<std::uint64_t> graph_ordered_form(const AndOrGraph& g) {
  const std::span<const Node> nodes = g.nodes();
  std::vector<std::uint64_t> form;
  form.reserve(1 + nodes.size() * 5);
  form.push_back(static_cast<std::uint64_t>(nodes.size()));
  for (const Node& node : nodes) {
    form.push_back(static_cast<std::uint64_t>(node.kind));
    form.push_back(static_cast<std::uint64_t>(node.wcet.ps));
    form.push_back(static_cast<std::uint64_t>(node.acet.ps));
    form.push_back(static_cast<std::uint64_t>(node.succs.size()));
    // Successor order is preserved: OR forks index alternatives by
    // position, and the engine's traversal order follows the lists.
    for (std::size_t k = 0; k < node.succs.size(); ++k) {
      form.push_back(node.succs[k].value);
      form.push_back(prob_bits(node, k));
    }
  }
  return form;
}

std::uint64_t graph_content_hash(const AndOrGraph& g) {
  const std::vector<std::uint64_t> form = graph_canonical_form(g);
  std::uint64_t h = 0x5157A9E2B1C0D3F4ull;
  for (const std::uint64_t w : form) h = hash_combine_u64(h, w);
  return h;
}

}  // namespace paserta
