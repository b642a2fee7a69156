// Scenario fingerprint interning for the dedup memoization layer.
//
// A Monte-Carlo point draws `runs` scenarios from one compiled sampler;
// when the scenario space is discrete (OR-branch choices only) most draws
// repeat a scenario that has already been simulated. ScenarioSampler can
// emit a canonical *fingerprint* per draw — one 64-bit word per stochastic
// op, see sampler.h — and this table assigns each distinct fingerprint a
// dense id, so the harness can simulate each distinct scenario once and
// replay the cached per-run record for every duplicate (DESIGN.md §15).
//
// The table is a plain open-addressed hash set with linear probing over
// power-of-two capacities. Keys are stored contiguously id-major in one
// flat array, so a probe that lands on an occupied slot resolves the
// collision with a full-key memcmp — equal hashes never alias distinct
// scenarios, which is what the replay's bit-identity guarantee rests on.
// The hash function is injectable precisely so tests can force every key
// onto one probe chain and pin that property adversarially.
//
// Single-threaded by design: the harness keeps one table per (point, slot)
// shard, mirroring the staging design of DESIGN.md §13.
#pragma once

#include <cstdint>
#include <vector>

namespace paserta {

class FingerprintTable {
 public:
  using HashFn = std::uint64_t (*)(const std::uint64_t* key,
                                   std::size_t words);

  /// A table for keys of `key_words` 64-bit words (0 is legal: a fully
  /// deterministic workload has an empty fingerprint and exactly one
  /// distinct scenario). `hash` defaults to a splitmix64-style mix;
  /// injectable so collision tests can supply a degenerate constant hash.
  explicit FingerprintTable(std::size_t key_words, HashFn hash = nullptr);

  /// Returns the dense id of `key`, interning it first when unseen.
  /// `inserted` reports which case occurred. Ids are assigned 0, 1, 2, ...
  /// in first-encounter order, so callers can keep id-major side arrays.
  std::uint32_t intern(const std::uint64_t* key, bool& inserted);

  std::size_t size() const { return count_; }

  /// Heap footprint (slot array + key store), for dedup.bytes accounting.
  std::size_t bytes() const {
    return slots_.capacity() * sizeof(std::uint32_t) +
           keys_.capacity() * sizeof(std::uint64_t);
  }

 private:
  /// The interned key of `id` (key_words_ words), valid until the next
  /// intern() — entries are never removed, but the key store may grow.
  const std::uint64_t* key(std::uint32_t id) const {
    return keys_.data() + static_cast<std::size_t>(id) * key_words_;
  }
  bool key_equals(std::uint32_t id, const std::uint64_t* key) const;
  void grow();

  std::size_t key_words_;
  HashFn hash_;
  std::vector<std::uint32_t> slots_;  // id + 1; 0 = empty
  std::vector<std::uint64_t> keys_;   // id-major, key_words_ each
  std::size_t mask_ = 0;
  std::size_t count_ = 0;
};

}  // namespace paserta
