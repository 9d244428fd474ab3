#include "solap/seq/sequence_query_engine.h"

#include <algorithm>
#include <numeric>
#include <optional>

#include "solap/common/strings.h"
#include "solap/expr/row_predicate.h"

namespace solap {

namespace {

/// Rows selected per block: the WHERE filters a block at a time.
constexpr size_t kRowBlock = 4096;

/// Dense ids for cluster keys in first-seen order: an open-addressing table
/// of ids over flat key storage, so a new key costs no allocation of its
/// own.
class ClusterIds {
 public:
  explicit ClusterIds(size_t arity) : arity_(arity), slots_(64, kEmpty) {}

  /// Codes of the key with id `id`.
  const Code* key(uint32_t id) const { return codes_.data() + id * arity_; }

  /// Id of `key` (arity codes), assigning the next id when it is new.
  uint32_t IdOf(const Code* key) {
    if (2 * (size_ + 1) > slots_.size()) Grow();
    for (size_t i = Slot(key);; i = (i + 1) & (slots_.size() - 1)) {
      if (slots_[i] == kEmpty) {
        codes_.insert(codes_.end(), key, key + arity_);
        slots_[i] = size_;
        return size_++;
      }
      if (std::equal(key, key + arity_, this->key(slots_[i]))) {
        return slots_[i];
      }
    }
  }

 private:
  static constexpr uint32_t kEmpty = static_cast<uint32_t>(-1);

  size_t Slot(const Code* key) const {
    return CodeVecHash()(std::span<const Code>(key, arity_)) &
           (slots_.size() - 1);
  }

  void Grow() {
    slots_.assign(slots_.size() * 2, kEmpty);
    for (uint32_t id = 0; id < size_; ++id) {
      size_t i = Slot(key(id));
      while (slots_[i] != kEmpty) i = (i + 1) & (slots_.size() - 1);
      slots_[i] = id;
    }
  }

  size_t arity_;
  uint32_t size_ = 0;
  std::vector<Code> codes_;
  std::vector<uint32_t> slots_;
};

}  // namespace

std::string SequenceSpec::CanonicalString() const {
  std::string out = "where:";
  out += where ? where->ToString() : "-";
  out += "|cluster:";
  for (const LevelRef& r : cluster_by) out += r.ToString() + ",";
  out += "|seq:" + sequence_by + (ascending ? "+" : "-");
  out += "|group:";
  for (const LevelRef& r : group_by) out += r.ToString() + ",";
  return out;
}

Result<std::vector<DimensionBinding>> SequenceQueryEngine::BindLevels(
    const EventTable& table, const std::vector<LevelRef>& refs) const {
  std::vector<DimensionBinding> bindings;
  for (const LevelRef& r : refs) {
    SOLAP_ASSIGN_OR_RETURN(
        DimensionBinding b,
        DimensionBinding::MakeForTable(table, hierarchies_, r));
    bindings.push_back(std::move(b));
  }
  return bindings;
}

Result<FormedSequences> SequenceQueryEngine::FormSequences(
    const EventTable& table, const SequenceSpec& spec, const RowFilter* filter,
    RowId from_row) const {
  if (spec.cluster_by.empty()) {
    return Status::InvalidArgument("CLUSTER BY must name at least one "
                                   "attribute");
  }
  std::optional<RowPredicate> where;
  if (spec.where != nullptr) {
    SOLAP_ASSIGN_OR_RETURN(where, RowPredicate::Compile(*spec.where, table));
  }
  SOLAP_ASSIGN_OR_RETURN(std::vector<DimensionBinding> cluster_bindings,
                         BindLevels(table, spec.cluster_by));
  SOLAP_ASSIGN_OR_RETURN(int order_col,
                         table.schema().RequireField(spec.sequence_by));
  ValueType order_type = table.schema().field(order_col).type;
  if (order_type != ValueType::kInt64 && order_type != ValueType::kTimestamp &&
      order_type != ValueType::kDouble) {
    return Status::InvalidArgument("SEQUENCE BY attribute '" +
                                   spec.sequence_by + "' must be numeric");
  }

  // Steps 1 + 2, a block of rows at a time: select rows, then give each
  // distinct cluster key a dense id in first-seen order. Rows of one
  // cluster are usually adjacent, so the previous row's id is tried first.
  const size_t arity = cluster_bindings.size();
  ClusterIds ids(arity);
  std::vector<uint32_t> counts;
  std::vector<RowId> kept;
  std::vector<uint32_t> kept_ids;
  std::vector<Code> key(arity);
  uint32_t id = 0;
  std::vector<RowId> block;
  const size_t n = table.num_rows();
  for (size_t start = from_row; start < n; start += kRowBlock) {
    block.clear();
    for (RowId row = static_cast<RowId>(start);
         row < std::min(n, start + kRowBlock); ++row) {
      if (filter == nullptr || filter->Keep(table, row)) block.push_back(row);
    }
    const size_t selected =
        where.has_value() ? where->Filter(block.data(), block.size())
                          : block.size();
    for (size_t j = 0; j < selected; ++j) {
      const RowId row = block[j];
      for (size_t i = 0; i < arity; ++i) {
        key[i] = cluster_bindings[i].CodeOf(table, row);
      }
      if (counts.empty() ||
          !std::equal(key.begin(), key.end(), ids.key(id))) {
        id = ids.IdOf(key.data());
        if (id == counts.size()) counts.push_back(0);
      }
      ++counts[id];
      kept.push_back(row);
      kept_ids.push_back(id);
    }
  }

  // Rank the clusters in key order (deterministic sids) and scatter the
  // kept rows into one flat array, keeping row order within each cluster.
  std::vector<uint32_t> by_key(counts.size());
  std::iota(by_key.begin(), by_key.end(), 0);
  std::sort(by_key.begin(), by_key.end(), [&](uint32_t a, uint32_t b) {
    return std::lexicographical_compare(ids.key(a), ids.key(a) + arity,
                                        ids.key(b), ids.key(b) + arity);
  });
  FormedSequences out;
  out.keys.reserve(counts.size());
  out.offsets.reserve(counts.size() + 1);
  std::vector<uint32_t> cursor(counts.size());
  for (uint32_t k : by_key) {
    cursor[k] = out.offsets.back();
    out.offsets.push_back(out.offsets.back() + counts[k]);
    out.keys.emplace_back(ids.key(k), ids.key(k) + arity);
  }
  out.rows.resize(kept.size());
  for (size_t j = 0; j < kept.size(); ++j) {
    out.rows[cursor[kept_ids[j]]++] = kept[j];
  }

  // Step 3: order each cluster by the SEQUENCE BY attribute. A stable sort
  // leaves an ordered cluster as it is, so only disordered ones pay for it.
  auto order_value = [&](RowId r) -> double {
    if (order_type == ValueType::kDouble) return table.DoubleAt(r, order_col);
    return static_cast<double>(table.Int64At(r, order_col));
  };
  auto before = [&](RowId a, RowId b) {
    double va = order_value(a), vb = order_value(b);
    return spec.ascending ? va < vb : vb < va;
  };
  for (size_t k = 0; k < out.size(); ++k) {
    auto first = out.rows.begin() + out.offsets[k];
    auto last = out.rows.begin() + out.offsets[k + 1];
    if (!std::is_sorted(first, last, before)) {
      std::stable_sort(first, last, before);
    }
  }
  return out;
}

Result<std::shared_ptr<SequenceGroupSet>> SequenceQueryEngine::Build(
    const EventTable& table, const SequenceSpec& spec,
    const RowFilter* filter) {
  SOLAP_ASSIGN_OR_RETURN(FormedSequences formed,
                         FormSequences(table, spec, filter));
  SOLAP_ASSIGN_OR_RETURN(std::vector<DimensionBinding> global_bindings,
                         BindLevels(table, spec.group_by));
  auto set = std::make_shared<SequenceGroupSet>(&table, spec.group_by,
                                                global_bindings);
  // Step 4: the global dimension values of a sequence are shared by all of
  // its events (they are functionally determined by the cluster key), so
  // they are read off the first event.
  CellKey gkey(global_bindings.size());
  for (size_t k = 0; k < formed.size(); ++k) {
    std::span<const RowId> rows = formed.Rows(k);
    for (size_t i = 0; i < global_bindings.size(); ++i) {
      gkey[i] = global_bindings[i].CodeOf(table, rows.front());
    }
    set->GroupFor(gkey).AddSequence(rows);
  }
  return set;
}

}  // namespace solap
