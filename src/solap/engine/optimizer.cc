#include "solap/engine/optimizer.h"

#include <algorithm>

#include "solap/index/index_ops.h"

namespace solap {

namespace {

// Hierarchy level index of `ref`, or -1 when only exact matches apply.
int LevelIndexOf(const HierarchyRegistry* reg, const LevelRef& ref) {
  ConceptHierarchy* h = reg != nullptr ? reg->Find(ref.attr) : nullptr;
  if (h == nullptr) return -1;
  int idx = h->LevelIndex(ref.level);
  if (idx < 0 && (ref.level == ref.attr || ref.level == "base")) idx = 0;
  return idx;
}

// Bytes a cold BuildIndex of a size-m index is expected to reach on
// `group`, from its m-windows (total_events - (m - 1) * sequences): one
// sid entry per window plus each list's fixed cost, averaged. Calibrated
// against InvertedIndex::ByteSize() on session-windowed clickstream groups
// (1.4k-6.3k sequences), which measured 6-45 bytes per window across
// SUBSTRING (2), SUBSTRING (3) and SUBSEQUENCE (2) page-category indices.
// Smaller alphabets cost less per window (transit stations 2.7-4, lists
// dense enough for bitmaps 0.3): under a budget those pick CB sooner.
constexpr double kIndexBytesPerWindow = 6.0;

double ColdIndexBytes(const SequenceGroup& group, size_t m) {
  const double windows =
      static_cast<double>(group.total_events()) -
      static_cast<double>(m - 1) * static_cast<double>(group.num_sequences());
  return kIndexBytesPerWindow * std::max(0.0, windows);
}

}  // namespace

Result<StrategyChoice> StrategyOptimizer::Choose(const CuboidSpec& spec) {
  SOLAP_ASSIGN_OR_RETURN(ResolvedQuery query, engine_->ResolveQuery(spec));
  const PatternTemplate& tmpl = query.tmpl;
  const SequenceGroupSet* groups = query.groups.get();

  const size_t m = tmpl.num_positions();
  IndexShape target;
  target.kind = tmpl.kind();
  for (size_t pos = 0; pos < m; ++pos) {
    target.positions.push_back(tmpl.dim(tmpl.dim_of(pos)).ref);
  }
  // Counting rescans list members only under these conditions (otherwise
  // COUNT reads list lengths).
  const bool needs_count_scan =
      spec.predicate != nullptr || spec.agg != AggKind::kCount ||
      spec.restriction == CellRestriction::kAllMatchedGo;

  // Resolve slice restrictions once; codes are shared by all groups of a
  // set. Used to estimate how selective a cached-prefix extension is.
  std::vector<std::vector<Code>> fixed_codes(tmpl.num_dims());
  for (size_t d = 0; d < tmpl.num_dims(); ++d) {
    const PatternDim& dim = tmpl.dim(d);
    if (dim.fixed_labels.empty()) continue;
    SOLAP_ASSIGN_OR_RETURN(
        DimensionBinding b,
        groups->BindDimension(engine_->hierarchies(), dim.ref));
    SOLAP_ASSIGN_OR_RETURN(
        fixed_codes[d], b.AllowedCodes(dim.fixed_level, dim.fixed_labels));
    if (fixed_codes[d].empty()) fixed_codes[d].push_back(kNullCode);
  }

  StrategyChoice choice;
  std::string reason = "cold query";
  double cold_bytes = 0;  // estimated bytes of the indices built cold
  for (size_t gi : query.selected_groups) {
    const SequenceGroup& group = groups->groups()[gi];
    const double n = static_cast<double>(group.num_sequences());
    choice.cb_cost += n;

    const GroupIndexCache* cache = engine_->FindIndexCache(*groups, gi);
    double build_cost = 0;   // sequences scanned to obtain the final index
    double count_base = n;   // entries the counting step would walk
    bool found = false;
    GroupPlan gp;
    gp.group_index = gi;
    gp.num_sequences = group.num_sequences();
    gp.cb_cost = n;
    gp.ii_source = "cold BuildIndex scan";
    if (cache != nullptr) {
      // 1. A complete index of exactly the target shape.
      if (auto exact = cache->Find(target, "")) {
        build_cost = 0;
        count_base = static_cast<double>(exact->total_entries());
        reason = "exact cached index";
        gp.ii_source = reason;
        gp.reused_index = target.CanonicalString();
        found = true;
      }
      // 2. Same-shape indices at other levels: merge (free) or refine
      //    (bounded by the coarse index's sequences).
      if (!found) {
        for (const auto& entry : cache->entries()) {
          if (entry->shape().kind != target.kind ||
              entry->shape().size() != m || !entry->complete()) {
            continue;
          }
          bool finer = true, coarser = true, any_diff = false;
          for (size_t pos = 0; pos < m && (finer || coarser); ++pos) {
            const LevelRef& eref = entry->shape().positions[pos];
            const LevelRef& tref = target.positions[pos];
            if (eref == tref) continue;
            any_diff = true;
            int el = LevelIndexOf(engine_->hierarchies(), eref);
            int tl = LevelIndexOf(engine_->hierarchies(), tref);
            if (eref.attr != tref.attr || el < 0 || tl < 0) {
              finer = coarser = false;
              break;
            }
            if (el > tl) finer = false;
            if (el < tl) coarser = false;
          }
          if (!any_diff) continue;
          if (finer) {
            build_cost = 0;  // pure list merging
            count_base = static_cast<double>(entry->total_entries());
            reason = "P-ROLL-UP merge from cached finer index";
            gp.ii_source = reason;
            gp.reused_index = entry->shape().CanonicalString();
            found = true;
            break;
          }
          if (coarser) {
            // Refinement re-enumerates occurrences per scanned sequence,
            // which costs noticeably more per sequence than a CB scan;
            // the 1.5 factor calibrates that (an unrestricted drill-down
            // at parity then falls back to CB, matching measurements).
            build_cost = 1.5 * std::min(
                n, static_cast<double>(entry->total_entries()));
            count_base = build_cost;
            reason = "P-DRILL-DOWN refinement of cached coarser index";
            gp.ii_source = reason;
            gp.reused_index = entry->shape().CanonicalString();
            found = true;
            break;
          }
        }
      }
      // 3. Longest cached complete prefix/suffix: scan-extend or join.
      if (!found) {
        for (size_t k = m - 1; k >= 2; --k) {
          IndexShape prefix;
          prefix.kind = target.kind;
          prefix.positions.assign(target.positions.begin(),
                                  target.positions.begin() + k);
          IndexShape suffix;
          suffix.kind = target.kind;
          suffix.positions.assign(target.positions.end() - k,
                                  target.positions.end());
          size_t base_off = 0;
          std::shared_ptr<InvertedIndex> base = cache->Find(prefix, "");
          if (base == nullptr) {
            base = cache->Find(suffix, "");
            base_off = m - k;
          }
          if (base == nullptr) continue;
          // Only template-consistent base entries participate: a sliced
          // follow-up growing from a complete index stays selective
          // (ExtendByScan); an unrestricted one pays a join with one
          // full scan for each missing L2.
          double usable = 0;
          for (const auto& [key2, list2] : base->lists()) {
            if (WindowConsistent(tmpl, base_off, key2, fixed_codes)) {
              usable += static_cast<double>(list2.size());
            }
          }
          const double steps = static_cast<double>(m - k);
          if (usable < n) {
            build_cost = usable * steps;  // scan-extension per step
          } else {
            build_cost = n + usable;  // L2 builds + join verification
          }
          count_base = std::min(n, usable);
          reason = "extend cached prefix/suffix index";
          gp.ii_source = usable < n ? "scan-extend cached prefix/suffix"
                                    : "join-extend cached prefix/suffix";
          gp.reused_index = base->shape().CanonicalString();
          found = true;
          break;
        }
      }
    }
    if (!found) {
      // Cold: BuildIndex scans the group once; counting afterwards reads
      // list lengths (free) unless a predicate/aggregate forces rescans.
      // Ties between a cold II build and a CB scan resolve toward II:
      // the index is a reusable asset for the iterative session (paper
      // §4.2.2: "subsequent iterative queries ... would be benefited from
      // the newly computed inverted indices").
      build_cost = n;
      count_base = n;
      cold_bytes += ColdIndexBytes(group, m);
    }
    gp.ii_cost = build_cost + (needs_count_scan ? count_base : 0);
    choice.ii_cost += gp.ii_cost;
    choice.groups.push_back(std::move(gp));
  }

  choice.strategy = choice.ii_cost <= choice.cb_cost
                        ? ExecStrategy::kInvertedIndex
                        : ExecStrategy::kCounterBased;
  choice.reason = reason;
  if (choice.strategy == ExecStrategy::kCounterBased) {
    choice.reason = "one counter-based scan is cheaper (" + reason + ")";
  } else if (cold_bytes > 0 &&
             !engine_->governor().HasHeadroom(
                 static_cast<size_t>(cold_bytes))) {
    // The budget would refuse the cold indices mid-build or at the cache
    // insert, failing the II run into a CB re-run: choose CB up front.
    choice.strategy = ExecStrategy::kCounterBased;
    choice.reason = "index would not fit the memory budget";
  }
  choice.resolved = std::move(query);
  return choice;
}

}  // namespace solap
