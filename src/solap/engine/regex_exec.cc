// Execution of regex pattern templates (the §3.2 extension): a
// counter-based scan driven by the Thompson-NFA matcher of
// pattern/regex.h. Inverted-index support for regexes would require
// per-subexpression indexing and is future work, mirroring the paper's
// remark that its two strategies are "first-attempt" solutions.
#include <algorithm>

#include "solap/cube/cell_accumulator.h"
#include "solap/engine/engine.h"

namespace solap {

Status SOlapEngine::RunRegex(QueryContext& ctx) {
  const RegexTemplate& tmpl = ctx.rtmpl;
  const size_t n_dims = tmpl.num_dims();
  const CellRestriction restriction = ctx.spec->restriction;
  const bool left_max = restriction != CellRestriction::kAllMatchedGo;
  const bool whole = restriction == CellRestriction::kLeftMaxDataGo;
  const bool measure_is_double =
      ctx.measure_col >= 0 &&
      table_->schema().field(ctx.measure_col).type == ValueType::kDouble;

  for (size_t gi : ctx.selected_groups) {
    SequenceGroup& group = ctx.groups->groups()[gi];
    SOLAP_ASSIGN_OR_RETURN(
        DimensionBinding domain,
        ctx.groups->BindDimension(hierarchies_, tmpl.domain()));
    const std::vector<Code>& view = group.ViewFor(domain);

    // Resolve literal labels and slice restrictions in this group's domain.
    std::vector<Code> literal_codes;
    for (const std::string& label : tmpl.literal_labels()) {
      SOLAP_ASSIGN_OR_RETURN(Code c, domain.CodeOfLabel(label));
      literal_codes.push_back(c);
    }
    std::vector<std::vector<Code>> allowed(n_dims);
    for (size_t d = 0; d < n_dims; ++d) {
      const PatternDim& dim = tmpl.dims()[d];
      if (dim.fixed_labels.empty()) continue;
      SOLAP_ASSIGN_OR_RETURN(
          allowed[d], domain.AllowedCodes(dim.fixed_level, dim.fixed_labels));
      if (allowed[d].empty()) allowed[d].push_back(kNullCode);
    }
    auto binding_allowed = [&](const Code* bindings) {
      for (size_t d = 0; d < n_dims; ++d) {
        if (allowed[d].empty()) continue;
        if (std::find(allowed[d].begin(), allowed[d].end(), bindings[d]) ==
            allowed[d].end()) {
          return false;
        }
      }
      return true;
    };

    BoundRegex bound(&tmpl, std::move(literal_codes));
    CellAccumulator cells(ctx.cuboid, group.key(), n_dims, left_max);
    // Under LEFT-MAXIMALITY a full binding the slice refuses, or one this
    // sequence already counted, can never count again: the matcher skips
    // the rest of its subtree. ALL-MATCHED-GO counts every match.
    auto dead = [&](const Code* bindings) {
      return left_max &&
             (!binding_allowed(bindings) || cells.ClaimedInSequence(bindings));
    };
    std::span<const RowId> rows;
    const Sid n = static_cast<Sid>(group.num_sequences());
    for (Sid s = 0; s < n; ++s) {
      if ((s & 0xFF) == 0) {
        SOLAP_RETURN_NOT_OK(CheckStop(ctx.stop, "regex scan"));
      }
      ++ctx.stats->sequences_scanned;
      cells.NextSequence();
      if (ctx.measure_col >= 0) rows = group.Rows(s);
      bound.ForEachMatch(
          group.Symbols(view, s),
          [&](uint32_t start, uint32_t end, const Code* bindings) {
            if (!binding_allowed(bindings)) return true;
            // nullptr: left-maximality, first match per instantiation only.
            CellValue* cell = cells.Claim(bindings);
            if (cell == nullptr) return true;
            if (ctx.measure_col < 0) {
              ++cell->count;  // COUNT keeps a neutral measure state
              return true;
            }
            uint32_t lo = whole ? 0 : start;
            uint32_t hi = whole ? static_cast<uint32_t>(rows.size()) : end;
            double v = 0.0;
            for (uint32_t i = lo; i < hi; ++i) {
              v += measure_is_double
                       ? table_->DoubleAt(rows[i], ctx.measure_col)
                       : static_cast<double>(
                             table_->Int64At(rows[i], ctx.measure_col));
            }
            cell->Add(v);
            return true;
          },
          dead);
    }
    cells.Flush();
  }
  return Status::OK();
}

}  // namespace solap
