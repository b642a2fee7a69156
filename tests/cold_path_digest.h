// Content digests of what the cold graph path produces: the flat graph, its
// section/branch hierarchy, and every table of the offline analysis. Shared
// by the pinned-output test (test_cold_path) and the loader fuzz driver
// (test_fuzz_text_format), so both compare exactly the same bytes.
#pragma once

#include <bit>
#include <cstdint>
#include <string_view>

#include "core/offline.h"
#include "graph/program.h"

namespace paserta::digest {

/// FNV-1a over fixed-width little-endian words and length-prefixed bytes.
class Digest {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void time(SimTime t) { i64(t.ps); }
  void bytes(std::string_view s) {
    u64(s.size());
    for (char c : s) byte(static_cast<std::uint8_t>(c));
  }
  template <typename T>
  void words(const std::vector<T>& v) {
    u64(v.size());
    for (const T& x : v) u64(static_cast<std::uint64_t>(x));
  }
  void times(const std::vector<SimTime>& v) {
    u64(v.size());
    for (SimTime t : v) time(t);
  }

  std::uint64_t value() const { return h_; }

 private:
  void byte(std::uint8_t b) { h_ = (h_ ^ b) * 0x100000001B3ULL; }

  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

/// Every node in id order: kind, name bytes, WCET, ACET, predecessor and
/// successor order, and the bits of each branch probability.
inline std::uint64_t graph_digest(const AndOrGraph& g) {
  Digest d;
  d.u64(g.size());
  for (std::uint32_t v = 0; v < g.size(); ++v) {
    const Node& n = g.node(NodeId{v});
    d.u64(v);
    d.u64(static_cast<std::uint64_t>(n.kind));
    d.bytes(n.name);
    d.time(n.wcet);
    d.time(n.acet);
    d.u64(n.preds.size());
    for (NodeId p : n.preds) d.u64(p.value);
    d.u64(n.succs.size());
    for (NodeId s : n.succs) d.u64(s.value);
    d.u64(n.succ_prob.size());
    for (double p : n.succ_prob) d.f64(p);
  }
  return d.value();
}

inline void structure_into(Digest& d, const StructProgram& p) {
  d.u64(p.segments.size());
  for (const StructSegment& seg : p.segments) {
    d.u64(static_cast<std::uint64_t>(seg.kind));
    d.u64(seg.members.size());
    for (NodeId m : seg.members) d.u64(m.value);
    d.u64(seg.fork.value);
    d.u64(seg.join.value);
    d.u64(seg.alt_prob.size());
    for (double p : seg.alt_prob) d.f64(p);
    d.u64(seg.alternatives.size());
    for (const StructProgram& alt : seg.alternatives) structure_into(d, alt);
  }
}

/// The section/branch hierarchy over flat node ids, in tree order.
inline std::uint64_t structure_digest(const StructProgram& p) {
  Digest d;
  structure_into(d, p);
  return d.value();
}

/// Every table of one OfflineResult of an `n`-node graph: makespans, EO,
/// LST, EET, inflated WCET, remaining times, fork profiles, and the
/// engine's dispatch tables (NUP init, sources, flags, WCET, successor CSR).
inline void offline_into(Digest& d, const OfflineResult& r, std::size_t n) {
  d.i64(r.cpus());
  d.time(r.deadline());
  d.time(r.overhead_budget());
  d.time(r.worst_makespan());
  d.time(r.average_makespan());
  d.u64(r.feasible() ? 1 : 0);
  d.u64(r.max_eo());
  for (std::uint32_t v = 0; v < n; ++v) {
    const NodeId id{v};
    d.u64(r.eo(id));
    d.time(r.lst(id));
    d.time(r.eet(id));
    d.time(r.inflated_wcet(id));
    d.time(r.rem_w_after(id));
    d.time(r.rem_a_after(id));
    d.u64(r.has_fork_profile(id) ? 1 : 0);
    if (r.has_fork_profile(id)) {
      d.times(r.fork_profile(id).rem_w_alt);
      d.times(r.fork_profile(id).rem_a_alt);
    }
  }
  d.words(r.eo_table());
  d.times(r.eet_table());
  d.words(r.nup_init_table());
  d.words(r.source_table());
  d.words(r.node_flag_table());
  d.times(r.wcet_table());
  d.words(r.succ_offset_table());
  d.words(r.succ_list_table());
}

/// Offline analysis of `app` at cpus {2, 4, 8}, each at two deadlines: the
/// canonical worst-case makespan W (load 1) and 4W/3 (load 0.75).
inline std::uint64_t offline_digest(const Application& app) {
  Digest d;
  for (const int cpus : {2, 4, 8}) {
    CanonicalOptions opt;
    opt.cpus = cpus;
    opt.overhead_budget = SimTime::from_us(7);
    const CanonicalAnalysis canon = analyze_canonical(app, opt);
    const SimTime w = canon.worst_makespan();
    for (const SimTime deadline : {w, SimTime{w.ps + w.ps / 3}})
      offline_into(d, apply_deadline(canon, deadline), app.graph.size());
  }
  return d.value();
}

}  // namespace paserta::digest
