// Flat open-addressing run maps for the hot join and dedup paths.
//
// The kernels and assembly operators repeatedly group 32-bit keys
// (interned string ids, node pre ids) into contiguous runs of a payload
// array. std::unordered_map's node-based buckets made those maps the
// top profile entries: one allocation per distinct key, pointer-chasing
// probes, and a destructor walk on clear. The tables here are the flat
// replacement — a power-of-two slot array probed linearly at load
// factor <= 1/2, no per-entry allocation, trivially discardable — and
// back ValueHashTable (equi-join build side), ValueRuns (pair
// expansion), the column dedup of ResultView::DistinctColumn and the
// row-dedup of ResultTable::DistinctRows.

#ifndef ROX_EXEC_FLAT_HASH_H_
#define ROX_EXEC_FLAT_HASH_H_

#include <cstdint>
#include <vector>

namespace rox {

// splitmix64 finalizer over a 32-bit key: the shared mixer of all flat
// tables (strong enough that linear-probe clusters stay short).
inline uint64_t HashKey32(uint32_t k) {
  uint64_t h = static_cast<uint64_t>(k) + 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

// Open-addressing map from a 32-bit key (with a reserved empty
// sentinel) to two 32-bit values — the (offset, length) run
// bookkeeping every grouping site needs. The caller must size the
// table up front via Reset(expected >= number of distinct keys); there
// is no rehash, which is exactly why inserts are a short probe loop.
template <typename Key, Key kEmptyKey>
class FlatRunMap {
 public:
  struct Slot {
    Key key = kEmptyKey;
    uint32_t a = 0;  // run offset (or first pair index)
    uint32_t b = 0;  // run length (or fill cursor)
  };

  FlatRunMap() = default;

  // Sizes the table for `expected` distinct keys; drops existing
  // content.
  void Reset(size_t expected) {
    size_t cap = 16;
    while (cap < expected * 2) cap <<= 1;
    slots_.assign(cap, Slot{});
    mask_ = cap - 1;
    size_ = 0;
  }

  size_t size() const { return size_; }

  // The slot for `k`, inserted with zero payload if absent. `k` must
  // not be the empty sentinel.
  Slot& FindOrInsert(Key k) {
    size_t i = HashKey32(static_cast<uint32_t>(k)) & mask_;
    while (true) {
      Slot& s = slots_[i];
      if (s.key == k) return s;
      if (s.key == kEmptyKey) {
        s.key = k;
        ++size_;
        return s;
      }
      i = (i + 1) & mask_;
    }
  }

  const Slot* Find(Key k) const {
    if (slots_.empty()) return nullptr;
    size_t i = HashKey32(static_cast<uint32_t>(k)) & mask_;
    while (true) {
      const Slot& s = slots_[i];
      if (s.key == k) return &s;
      if (s.key == kEmptyKey) return nullptr;
      i = (i + 1) & mask_;
    }
  }

  // Occupied-slot iteration (the offset-assignment pass); order is
  // hash order, which no caller may depend on for output ordering.
  std::vector<Slot>& slots() { return slots_; }
  const std::vector<Slot>& slots() const { return slots_; }

 private:
  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

}  // namespace rox

#endif  // ROX_EXEC_FLAT_HASH_H_
