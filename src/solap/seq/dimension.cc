#include "solap/seq/dimension.h"

#include <algorithm>
#include <cstdio>
#include <string>

namespace solap {

Result<DimensionBinding> DimensionBinding::MakeForTable(
    const EventTable& table, const HierarchyRegistry* reg,
    const LevelRef& ref) {
  DimensionBinding b;
  b.ref_ = ref;
  SOLAP_ASSIGN_OR_RETURN(b.col_, table.schema().RequireField(ref.attr));
  const Field& field = table.schema().field(b.col_);
  switch (field.type) {
    case ValueType::kTimestamp: {
      SOLAP_ASSIGN_OR_RETURN(b.cal_level_,
                             ParseCalendarLevel(ref.level, ref.attr));
      b.calendar_ = true;
      return b;
    }
    case ValueType::kString: {
      b.base_dict_ = table.dictionary(b.col_);
      ConceptHierarchy* h = reg ? reg->Find(ref.attr) : nullptr;
      if (h == nullptr) {
        // No hierarchy: only the identity level (named after the attribute)
        // is available.
        if (ref.level != ref.attr && ref.level != "base") {
          return Status::InvalidArgument("attribute '" + ref.attr +
                                         "' has no concept hierarchy; level '" +
                                         ref.level + "' is not available");
        }
        return b;
      }
      int idx = h->LevelIndex(ref.level);
      if (idx < 0 && (ref.level == ref.attr || ref.level == "base")) idx = 0;
      if (idx < 0) {
        return Status::InvalidArgument("attribute '" + ref.attr +
                                       "' has no abstraction level named '" +
                                       ref.level + "'");
      }
      b.hierarchy_ = h;
      b.level_index_ = idx;
      return b;
    }
    default:
      return Status::InvalidArgument(
          "attribute '" + ref.attr +
          "' cannot be used as a dimension: only string and timestamp "
          "attributes support grouping levels");
  }
}

Result<DimensionBinding> DimensionBinding::MakeForRaw(
    const Dictionary& base_dict, const HierarchyRegistry* reg,
    const LevelRef& ref) {
  DimensionBinding b;
  b.ref_ = ref;
  b.base_dict_ = &base_dict;
  ConceptHierarchy* h = reg ? reg->Find(ref.attr) : nullptr;
  if (h == nullptr) {
    if (ref.level != ref.attr && ref.level != "base") {
      return Status::InvalidArgument("raw attribute '" + ref.attr +
                                     "' has no concept hierarchy; level '" +
                                     ref.level + "' is not available");
    }
    return b;
  }
  int idx = h->LevelIndex(ref.level);
  if (idx < 0 && (ref.level == ref.attr || ref.level == "base")) idx = 0;
  if (idx < 0) {
    return Status::InvalidArgument("raw attribute '" + ref.attr +
                                   "' has no abstraction level named '" +
                                   ref.level + "'");
  }
  b.hierarchy_ = h;
  b.level_index_ = idx;
  return b;
}

Code DimensionBinding::CodeOf(const EventTable& table, RowId row) const {
  if (calendar_) {
    return CalendarBucket(table.Int64At(row, col_), cal_level_);
  }
  Code base = table.CodeAt(row, col_);
  return MapBaseCode(base);
}

Code DimensionBinding::MapBaseCode(Code base_code) const {
  if (calendar_ || hierarchy_ == nullptr || level_index_ == 0) {
    return base_code;
  }
  return hierarchy_->MapBaseCode(*base_dict_, level_index_, base_code);
}

void DimensionBinding::CodesOf(const EventTable& table,
                               std::span<const RowId> rows,
                               Code* out) const {
  if (calendar_) {
    for (size_t i = 0; i < rows.size(); ++i) {
      out[i] = CalendarBucket(table.Int64At(rows[i], col_), cal_level_);
    }
    return;
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    out[i] = table.CodeAt(rows[i], col_);
  }
  MapBaseCodes({out, rows.size()}, out);
}

void DimensionBinding::MapBaseCodes(std::span<const Code> base_codes,
                                    Code* out) const {
  if (calendar_ || hierarchy_ == nullptr || level_index_ == 0) {
    if (out != base_codes.data()) {
      std::copy(base_codes.begin(), base_codes.end(), out);
    }
    return;
  }
  // A snapshot of the compiled table; a code it does not cover (one added
  // to the dictionary since) takes the locked per-code path.
  const std::vector<Code> level =
      hierarchy_->CompiledLevel(*base_dict_, level_index_);
  for (size_t i = 0; i < base_codes.size(); ++i) {
    const Code base = base_codes[i];
    out[i] = base < level.size() ? level[base] : MapBaseCode(base);
  }
}

Result<Code> DimensionBinding::CodeOfLabel(const std::string& label) const {
  if (calendar_) {
    // "YYYY-MM-DD" for day buckets; otherwise a raw bucket number.
    int y, m, d;
    if (cal_level_ == CalendarLevel::kDay &&
        std::sscanf(label.c_str(), "%d-%d-%d", &y, &m, &d) == 3) {
      return CalendarBucket(MakeTimestamp(y, m, d), CalendarLevel::kDay);
    }
    try {
      return static_cast<Code>(std::stoul(label));
    } catch (...) {
      return Status::InvalidArgument("cannot parse calendar label '" + label +
                                     "'");
    }
  }
  if (hierarchy_ == nullptr || level_index_ == 0) {
    return base_dict_ ? base_dict_->Lookup(label) : kNullCode;
  }
  return hierarchy_->level_dictionary(level_index_).Lookup(label);
}

Result<std::vector<Code>> DimensionBinding::AllowedCodes(
    const std::string& slice_level,
    const std::vector<std::string>& labels) const {
  std::vector<Code> out;
  if (slice_level.empty() || slice_level == ref_.level) {
    for (const std::string& label : labels) {
      SOLAP_ASSIGN_OR_RETURN(Code c, CodeOfLabel(label));
      out.push_back(c);
    }
    return out;
  }
  if (calendar_ || hierarchy_ == nullptr) {
    return Status::InvalidArgument(
        "slice level '" + slice_level + "' differs from dimension level '" +
        ref_.level + "' but attribute '" + ref_.attr +
        "' has no concept hierarchy to relate them");
  }
  int slice_idx = hierarchy_->LevelIndex(slice_level);
  if (slice_idx < 0) {
    return Status::InvalidArgument("unknown abstraction level '" +
                                   slice_level + "' for attribute '" +
                                   ref_.attr + "'");
  }
  if (slice_idx < level_index_) {
    return Status::NotImplemented(
        "slices given at a finer level than the dimension's current level "
        "are not supported; re-slice at level '" +
        ref_.level + "'");
  }
  // Make sure the slice level's dictionary is populated, then resolve the
  // labels and collect every code at our level that rolls up into them.
  for (Code base = 0; base < base_dict_->size(); ++base) {
    hierarchy_->MapBaseCode(*base_dict_, slice_idx, base);
  }
  std::vector<Code> slice_codes;
  for (const std::string& label : labels) {
    slice_codes.push_back(
        hierarchy_->level_dictionary(slice_idx).Lookup(label));
  }
  std::vector<Code> table =
      hierarchy_->LevelToLevel(*base_dict_, level_index_, slice_idx);
  for (Code c = 0; c < table.size(); ++c) {
    for (Code sc : slice_codes) {
      if (table[c] == sc && sc != kNullCode) {
        out.push_back(c);
        break;
      }
    }
  }
  return out;
}

std::string DimensionBinding::Label(Code code) const {
  // Unbound regex dimensions (and empty slices) carry the null code.
  if (code == kNullCode) return "*";
  if (calendar_) return CalendarLabel(code, cal_level_);
  if (hierarchy_ == nullptr || level_index_ == 0) {
    return base_dict_ ? base_dict_->ValueOf(code) : std::to_string(code);
  }
  return hierarchy_->LabelOf(*base_dict_, level_index_, code);
}

}  // namespace solap
