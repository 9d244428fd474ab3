#include "solap/pattern/matcher.h"

namespace solap {

Result<BoundPattern> BoundPattern::Bind(
    const PatternTemplate* tmpl, SequenceGroup* group,
    const SequenceGroupSet& set, const HierarchyRegistry* reg,
    const ExprPtr& predicate, const std::vector<std::string>& placeholders) {
  if (tmpl->num_positions() > kMaxTemplatePositions) {
    return Status::InvalidArgument("pattern template exceeds the supported "
                                   "maximum of " +
                                   std::to_string(kMaxTemplatePositions) +
                                   " positions");
  }
  BoundPattern bp;
  bp.tmpl_ = tmpl;
  bp.group_ = group;
  bp.offsets_ = group->offsets().data();

  // Bind each pattern dimension and materialize its symbol view.
  std::vector<const std::vector<Code>*> dim_views(tmpl->num_dims());
  for (size_t d = 0; d < tmpl->num_dims(); ++d) {
    SOLAP_ASSIGN_OR_RETURN(DimensionBinding b,
                           set.BindDimension(reg, tmpl->dim(d).ref));
    dim_views[d] = &group->ViewFor(b);
    bp.dim_bindings_.push_back(std::move(b));
  }
  bp.pos_view_.resize(tmpl->num_positions());
  for (size_t pos = 0; pos < tmpl->num_positions(); ++pos) {
    bp.pos_view_[pos] = dim_views[tmpl->dim_of(pos)]->data();
  }

  // Resolve slice/dice labels to allowed codes at each dimension's level.
  // Unknown labels resolve to kNullCode, which matches nothing (an empty
  // slice); labels given at a coarser level expand to every covered code.
  bp.fixed_codes_.resize(tmpl->num_dims());
  for (size_t d = 0; d < tmpl->num_dims(); ++d) {
    const PatternDim& dim = tmpl->dim(d);
    if (dim.fixed_labels.empty()) continue;
    SOLAP_ASSIGN_OR_RETURN(
        bp.fixed_codes_[d],
        bp.dim_bindings_[d].AllowedCodes(dim.fixed_level, dim.fixed_labels));
    if (bp.fixed_codes_[d].empty()) {
      // Guarantee "matches nothing" instead of "unrestricted".
      bp.fixed_codes_[d].push_back(kNullCode);
    }
  }

  // Bind the matching predicate against the table schema + placeholders.
  if (predicate != nullptr) {
    if (set.is_raw()) {
      return Status::InvalidArgument(
          "matching predicates reference event attributes and are not "
          "supported on raw sequence groups");
    }
    if (placeholders.size() != tmpl->num_positions()) {
      return Status::InvalidArgument(
          "cell restriction must declare exactly one event placeholder per "
          "template position (" +
          std::to_string(tmpl->num_positions()) + "), got " +
          std::to_string(placeholders.size()));
    }
    // Bind a private copy: the spec's tree is shared by every shard thread
    // and client running this query, and Bind writes column slots.
    bp.predicate_ = predicate->Clone();
    SOLAP_RETURN_NOT_OK(
        bp.predicate_->Bind(set.table()->schema(), &placeholders));
  }
  return bp;
}

bool BoundPattern::EvalPredicate(Sid s, const uint32_t* idx) const {
  if (predicate_ == nullptr) return true;
  std::span<const RowId> rows = group_->Rows(s);
  RowId matched[kMaxTemplatePositions];
  const size_t m = tmpl_->num_positions();
  for (size_t i = 0; i < m; ++i) matched[i] = rows[idx[i]];
  return predicate_->EvalMatch(*group_->table(), matched).AsBool();
}

bool BoundPattern::ContainsConcrete(Sid s, const PatternKey& key) const {
  const size_t m = tmpl_->num_positions();
  const uint32_t len = group_->length(s);
  if (len < m) return false;
  if (tmpl_->kind() == PatternKind::kSubstring) {
    for (uint32_t p = 0; p + m <= len; ++p) {
      bool ok = true;
      for (size_t i = 0; i < m; ++i) {
        if (CodeAt(i, s, p + i) != key[i]) {
          ok = false;
          break;
        }
      }
      if (ok) return true;
    }
    return false;
  }
  // Subsequence: greedy left-to-right scan suffices for containment.
  size_t pos = 0;
  for (uint32_t i = 0; i < len && pos < m; ++i) {
    if (CodeAt(pos, s, i) == key[pos]) ++pos;
  }
  return pos == m;
}

bool BoundPattern::HasValidOccurrence(Sid s, const PatternKey& key) const {
  bool found = false;
  ForEachConcreteOccurrence(s, key, /*apply_predicate=*/true,
                            [&](const uint32_t*) {
                              found = true;
                              return false;  // stop at first
                            });
  return found;
}

}  // namespace solap
