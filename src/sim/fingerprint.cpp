#include "sim/fingerprint.h"

#include <cstring>

namespace paserta {
namespace {

/// Default hash: a splitmix64 finalizer per word folded into a running
/// state, length-seeded so prefixes of longer keys do not trivially
/// collide with shorter ones. Quality only affects probe lengths, never
/// correctness — collisions resolve through the full-key compare.
std::uint64_t mix_hash(const std::uint64_t* key, std::size_t words) {
  std::uint64_t h = 0x9E3779B97F4A7C15ULL ^
                    (static_cast<std::uint64_t>(words) * 0xBF58476D1CE4E5B9ULL);
  for (std::size_t i = 0; i < words; ++i) {
    std::uint64_t x = key[i] + h;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    h = x ^ (x >> 31);
  }
  return h;
}

constexpr std::size_t kInitialSlots = 64;

}  // namespace

FingerprintTable::FingerprintTable(std::size_t key_words, HashFn hash)
    : key_words_(key_words),
      hash_(hash != nullptr ? hash : &mix_hash),
      slots_(kInitialSlots, 0),
      mask_(kInitialSlots - 1) {}

bool FingerprintTable::key_equals(std::uint32_t id,
                                  const std::uint64_t* key) const {
  return key_words_ == 0 ||
         std::memcmp(this->key(id), key, key_words_ * sizeof(std::uint64_t)) ==
             0;
}

void FingerprintTable::grow() {
  // Rehash every interned key into a doubled slot array. The stored keys
  // are all distinct, so reinsertion needs no compares — first empty slot
  // on the probe chain wins.
  const std::size_t new_cap = slots_.size() * 2;
  std::vector<std::uint32_t> fresh(new_cap, 0);
  const std::size_t new_mask = new_cap - 1;
  for (std::uint32_t id = 0; id < count_; ++id) {
    std::size_t idx = hash_(key(id), key_words_) & new_mask;
    while (fresh[idx] != 0) idx = (idx + 1) & new_mask;
    fresh[idx] = id + 1;
  }
  slots_ = std::move(fresh);
  mask_ = new_mask;
}

std::uint32_t FingerprintTable::intern(const std::uint64_t* key,
                                       bool& inserted) {
  // Keep the load factor under ~0.7 *before* probing, so the probe below
  // always finds an empty slot.
  if ((count_ + 1) * 10 > slots_.size() * 7) grow();
  std::size_t idx = hash_(key, key_words_) & mask_;
  while (slots_[idx] != 0) {
    const std::uint32_t id = slots_[idx] - 1;
    if (key_equals(id, key)) {
      inserted = false;
      return id;
    }
    idx = (idx + 1) & mask_;
  }
  const auto id = static_cast<std::uint32_t>(count_++);
  keys_.insert(keys_.end(), key, key + key_words_);
  slots_[idx] = id + 1;
  inserted = true;
  return id;
}

}  // namespace paserta
