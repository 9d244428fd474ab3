#include "solap/cube/cell_accumulator.h"

namespace solap {

namespace {
constexpr size_t kInitialSlots = 256;
}  // namespace

CellAccumulator::CellAccumulator(SCuboid* target, const CellKey& group_key,
                                 size_t n_dims, bool first_per_sequence)
    : target_(target),
      group_key_(group_key),
      n_dims_(n_dims),
      first_per_sequence_(first_per_sequence),
      seed_from_target_(target->num_cells() != 0),
      stamps_(kInitialSlots, 0),
      keys_(kInitialSlots * n_dims),
      values_(kInitialSlots) {}

void CellAccumulator::Insert(size_t slot, const Code* codes) {
  std::memcpy(keys_.data() + slot * n_dims_, codes, n_dims_ * sizeof(Code));
  if (seed_from_target_) {
    CellKey key = group_key_;
    key.insert(key.end(), codes, codes + n_dims_);
    values_[slot] = target_->CellAt(key);
  } else {
    values_[slot] = CellValue{};
  }
  ++size_;
}

void CellAccumulator::Grow() {
  std::vector<uint32_t> stamps(stamps_.size() * 2, 0);
  std::vector<Code> keys(stamps.size() * n_dims_);
  std::vector<CellValue> values(stamps.size());
  stamps.swap(stamps_);
  keys.swap(keys_);
  values.swap(values_);
  for (size_t old = 0; old < stamps.size(); ++old) {
    if (stamps[old] == 0) continue;
    const Code* codes = keys.data() + old * n_dims_;
    size_t slot = Probe(codes);
    stamps_[slot] = stamps[old];
    std::memcpy(keys_.data() + slot * n_dims_, codes, n_dims_ * sizeof(Code));
    values_[slot] = values[old];
  }
}

void CellAccumulator::Flush() const {
  CellKey key = group_key_;
  const size_t q = key.size();
  key.resize(q + n_dims_);
  for (size_t slot = 0; slot < stamps_.size(); ++slot) {
    if (stamps_[slot] == 0) continue;
    std::memcpy(key.data() + q, keys_.data() + slot * n_dims_,
                n_dims_ * sizeof(Code));
    target_->SetCell(key, values_[slot]);
  }
}

}  // namespace solap
