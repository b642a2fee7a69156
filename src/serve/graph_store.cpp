#include "serve/graph_store.h"

#include <algorithm>
#include <string>

#include "graph/canonical_hash.h"

namespace paserta {
namespace {

template <class T>
std::size_t vector_bytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

std::size_t string_bytes(const std::string& s) {
  // Short strings live inside the object (SSO).
  return s.capacity() > sizeof(std::string) ? s.capacity() + 1 : 0;
}

std::size_t program_bytes(const StructProgram& p) {
  std::size_t n = vector_bytes(p.segments);
  for (const StructSegment& s : p.segments) {
    n += vector_bytes(s.members) + vector_bytes(s.alt_prob) +
         vector_bytes(s.alternatives);
    for (const StructProgram& alt : s.alternatives) n += program_bytes(alt);
  }
  return n;
}

/// Estimated heap footprint of an entry's graph and ordered form.
std::size_t graph_bytes(const GraphStore::Entry& e) {
  std::size_t n = sizeof(GraphStore::Entry) + vector_bytes(e.ordered_form) +
                  string_bytes(e.app.name) + program_bytes(e.app.structure);
  for (const Node& node : e.app.graph.nodes())
    n += sizeof(Node) + string_bytes(node.name) + vector_bytes(node.preds) +
         vector_bytes(node.succs) + vector_bytes(node.succ_prob);
  return n;
}

}  // namespace

std::shared_ptr<const GraphStore::Entry> GraphStore::intern(
    Application&& app) {
  const std::uint64_t hash = graph_content_hash(app.graph);
  std::vector<std::uint64_t> ordered = graph_ordered_form(app.graph);
  std::vector<Entry*>& bucket = by_hash_[hash];
  for (Entry* entry : bucket) {
    if (entry->ordered_form == ordered) {
      ++hits_;
      lru_.splice(lru_.begin(), lru_, entry->lru_);
      return *entry->lru_;
    }
  }
  ++misses_;
  auto entry = std::make_shared<Entry>();
  entry->id = next_id_++;
  entry->content_hash = hash;
  entry->ordered_form = std::move(ordered);
  entry->app = std::move(app);
  entry->bytes_ = graph_bytes(*entry);
  entry->resident_ = true;
  bucket.push_back(entry.get());
  lru_.push_front(entry);
  entry->lru_ = lru_.begin();
  resident_bytes_ += entry->bytes_;
  evict_to_budget();
  return entry;
}

CanonicalAnalysis GraphStore::analysis(
    const std::shared_ptr<const Entry>& entry, const CanonicalOptions& options,
    bool& hit) {
  // The store owns every entry it hands out as non-const; the const view
  // is what other threads hold.
  Entry& e = const_cast<Entry&>(*entry);
  for (const CanonicalAnalysis& a : e.analyses_) {
    if (a.cpus() == options.cpus &&
        a.overhead_budget() == options.overhead_budget &&
        a.heuristic() == options.heuristic) {
      hit = true;
      return a;
    }
  }
  hit = false;
  e.analyses_.push_back(analyze_canonical(e.app, options));
  const std::size_t added =
      e.analyses_.back().bytes() + sizeof(CanonicalAnalysis);
  e.bytes_ += added;
  if (e.resident_) {
    resident_bytes_ += added;
    lru_.splice(lru_.begin(), lru_, e.lru_);
    evict_to_budget();
  }
  return e.analyses_.back();
}

void GraphStore::evict_to_budget() {
  while (resident_bytes_ > kMaxResidentBytes && lru_.size() > 1) {
    Entry& victim = *lru_.back();
    std::vector<Entry*>& bucket = by_hash_[victim.content_hash];
    bucket.erase(std::find(bucket.begin(), bucket.end(), &victim));
    if (bucket.empty()) by_hash_.erase(victim.content_hash);
    resident_bytes_ -= victim.bytes_;
    victim.resident_ = false;
    ++evictions_;
    lru_.pop_back();  // holders keep the entry alive
  }
}

}  // namespace paserta
