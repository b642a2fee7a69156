// Content-addressed Application interning for the serve daemon
// (DESIGN.md §16).
//
// Two requests carrying the same workload resolve to one resident entry,
// and the entry keeps the canonical offline analyses computed for it (one
// per CanonicalOptions), so a hot graph is built, hashed and analyzed
// once. The store hashes each incoming graph with the order-insensitive
// content hash (graph/canonical_hash.h) and — mirroring sim/fingerprint's
// discipline that equal hashes must never alias distinct keys — resolves
// hash matches with a full comparison of the *ordered* form: name-free but
// insertion-order sensitive, because tie-breaks in list scheduling legally
// depend on construction order and the server promises responses
// bit-identical to the CLI running the caller's own construction.
// Reordered isomorphic graphs therefore share a content hash but intern as
// distinct entries.
//
// Residency is bounded: past kMaxResidentBytes (an estimate from each
// entry's container sizes, analyses included) the least recently used
// entries are evicted. Entries are shared: a caller holding one (an
// in-flight request group) keeps it, analyses and all, alive after
// eviction; a later request for the same graph interns it afresh.
//
// Single-threaded by design: the service confines the store — and every
// mutation of an entry's analyses — to its dispatcher thread. Holders on
// other threads only read an entry's graph.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/offline.h"
#include "graph/program.h"

namespace paserta {

class GraphStore {
 public:
  class Entry {
   public:
    std::uint32_t id = 0;            // dense, first-intern order
    std::uint64_t content_hash = 0;  // graph_content_hash
    std::vector<std::uint64_t> ordered_form;
    Application app;

   private:
    friend class GraphStore;
    // Written only by the store, on the dispatcher thread.
    std::vector<CanonicalAnalysis> analyses_;
    std::size_t bytes_ = 0;  // estimated footprint, analyses included
    bool resident_ = false;
    std::list<std::shared_ptr<Entry>>::iterator lru_;
  };

  /// The resident-byte budget past which least recently used entries are
  /// evicted (the entry being interned or analyzed is never evicted).
  static constexpr std::size_t kMaxResidentBytes = std::size_t{32} << 20;

  /// Interns `app` by content: returns the resident entry when an equal
  /// graph (ordered form) is stored, otherwise moves `app` into a new
  /// entry. Either way the entry becomes the most recently used.
  std::shared_ptr<const Entry> intern(Application&& app);

  /// The canonical analysis of `entry` for `options`: the entry's own when
  /// it was computed before (`hit` = true), else a fresh one that the
  /// entry keeps. Cheap to copy; valid while `entry` lives.
  CanonicalAnalysis analysis(const std::shared_ptr<const Entry>& entry,
                             const CanonicalOptions& options, bool& hit);

  std::size_t size() const { return lru_.size(); }
  /// Estimated bytes of the resident entries (<= kMaxResidentBytes unless
  /// the most recent entry alone exceeds it).
  std::size_t resident_bytes() const { return resident_bytes_; }
  /// Lifetime statistics: intern() hits (an equal graph was resident) and
  /// misses (a new entry), and entries evicted.
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }

 private:
  /// Evicts least recently used entries until the budget holds or only
  /// the most recent entry is left.
  void evict_to_budget();

  std::list<std::shared_ptr<Entry>> lru_;  // most recently used first
  std::unordered_map<std::uint64_t, std::vector<Entry*>> by_hash_;
  std::size_t resident_bytes_ = 0;
  std::uint32_t next_id_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace paserta
