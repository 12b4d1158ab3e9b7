#include "exec/column_arena.h"

#include <algorithm>

namespace rox {

std::span<uint32_t> ColumnArena::Alloc(size_t n) {
  if (n == 0) return {};
  if (blocks_.empty() || block_words_ - used_ < n) {
    size_t words = std::max({kMinBlockWords, block_words_ * 2, n});
    blocks_.push_back(std::make_unique_for_overwrite<uint32_t[]>(words));
    block_words_ = words;
    used_ = 0;
    bytes_ += words * sizeof(uint32_t);
    if (budget_ != nullptr) budget_->Charge(words * sizeof(uint32_t));
  }
  uint32_t* out = blocks_.back().get() + used_;
  used_ += n;
  return {out, n};
}

std::span<const uint32_t> ColumnArena::Adopt(std::vector<uint32_t>&& v) {
  adopted_.push_back(std::move(v));
  uint64_t bytes = adopted_.back().capacity() * sizeof(uint32_t);
  bytes_ += bytes;
  if (budget_ != nullptr) budget_->Charge(bytes);
  return adopted_.back();
}

}  // namespace rox
