#include "solap/seq/sequence_group.h"

namespace solap {

Sid SequenceGroup::AddSequence(std::span<const uint32_t> items) {
  data_.insert(data_.end(), items.begin(), items.end());
  offsets_.push_back(static_cast<uint32_t>(data_.size()));
  return static_cast<Sid>(offsets_.size() - 2);
}

const std::vector<Code>& SequenceGroup::ViewFor(const DimensionBinding& dim) {
  const std::string key = dim.ref().ToString();
  // The whole lookup-compute-insert runs under the view lock: concurrent
  // queries binding the same (attr, level) then share one materialization.
  // References handed out earlier stay valid (unordered_map node stability).
  std::lock_guard<std::mutex> lock(*views_mu_);
  auto it = views_.find(key);
  if (it != views_.end()) return it->second;

  // One hierarchy lock for the whole view, not one per event.
  std::vector<Code> view(data_.size());
  if (table_ != nullptr) {
    dim.CodesOf(*table_, data_, view.data());
  } else {
    // Raw group: data_ holds base codes of the single raw attribute.
    dim.MapBaseCodes(data_, view.data());
  }
  return views_.emplace(key, std::move(view)).first->second;
}

SequenceGroup& SequenceGroupSet::GroupFor(const CellKey& key) {
  auto it = group_index_.find(key);
  if (it != group_index_.end()) return groups_[it->second];
  group_index_.emplace(key, groups_.size());
  groups_.emplace_back(table_);
  groups_.back().set_key(key);
  return groups_.back();
}

size_t SequenceGroupSet::total_sequences() const {
  size_t n = 0;
  for (const SequenceGroup& g : groups_) n += g.num_sequences();
  return n;
}

size_t SequenceGroupSet::ApproxBytes() const {
  size_t bytes = 0;
  for (const SequenceGroup& g : groups_) {
    bytes += g.offsets().size() * sizeof(uint32_t);
    bytes += g.total_events() * sizeof(uint32_t);
    bytes += g.key().size() * sizeof(Code);
  }
  return bytes;
}

std::vector<std::string> SequenceGroupSet::KeyLabels(
    const CellKey& key) const {
  std::vector<std::string> out;
  out.reserve(key.size());
  for (size_t i = 0; i < key.size() && i < global_bindings_.size(); ++i) {
    out.push_back(global_bindings_[i].Label(key[i]));
  }
  return out;
}

Result<DimensionBinding> SequenceGroupSet::BindDimension(
    const HierarchyRegistry* reg, const LevelRef& ref) const {
  if (is_raw()) {
    if (ref.attr != raw_attr_) {
      return Status::InvalidArgument("raw sequence group set only exposes "
                                     "attribute '" +
                                     raw_attr_ + "', got '" + ref.attr + "'");
    }
    return DimensionBinding::MakeForRaw(raw_dict_, reg, ref);
  }
  return DimensionBinding::MakeForTable(*table_, reg, ref);
}

}  // namespace solap
