// Counter-based S-cuboid construction (paper §4.2.1, Fig. 7): scan every
// sequence of every selected group, enumerate the template's occurrences,
// and fold assignments into a flat per-scan cell accumulator
// (cube/cell_accumulator.h) that is flushed into the cuboid. Groups larger
// than a few thousand sequences are partitioned across the engine's shared
// compute pool (EngineOptions::exec_threads); each partition folds into a
// private cuboid and the partials are merged in partition order —
// COUNT/SUM/AVG/MIN/MAX all merge losslessly.
#include <new>

#include "solap/cube/cell_accumulator.h"
#include "solap/engine/engine.h"

namespace solap {

Status SOlapEngine::RunCounterBased(QueryContext& ctx) {
  ThreadPool* pool = ComputePool();
  for (size_t gi : ctx.selected_groups) {
    SequenceGroup& group = ctx.groups->groups()[gi];
    TraceSpan group_span(ctx.trace, "cb.group");
    group_span.Count("group", gi);
    SOLAP_ASSIGN_OR_RETURN(
        BoundPattern bp,
        BoundPattern::Bind(&ctx.tmpl, &group, *ctx.groups, hierarchies_,
                           ctx.spec->predicate, ctx.spec->placeholders));
    const Sid n = static_cast<Sid>(group.num_sequences());
    group_span.Count("sequences", n);
    // Partition count: one per pool worker, but small groups stay
    // sequential — a partition under ~1024 sequences is not worth a
    // dispatch.
    const size_t threads = std::min<size_t>(
        pool != nullptr ? pool->num_threads() : 1, n / 1024 + 1);
    group_span.Count("threads", threads);
    if (threads <= 1) {
      SOLAP_RETURN_NOT_OK(
          CounterScanRange(ctx, group, bp, 0, n, ctx.cuboid, ctx.stats));
      continue;
    }
    // Partition the group over the shared pool; tasks only touch their
    // private cuboid/stats (symbol views and slice codes were materialized
    // by Bind above, so the shared state is read-only during the scan).
    std::vector<SCuboid> partials(
        threads, SCuboid(ctx.cuboid->dims(), ctx.cuboid->agg()));
    std::vector<ScanStats> partial_stats(threads);
    std::vector<Status> results(threads);
    {
      TaskBatch batch(pool);
      const Sid chunk = (n + static_cast<Sid>(threads) - 1) /
                        static_cast<Sid>(threads);
      const int parent_span = group_span.id();
      for (size_t t = 0; t < threads; ++t) {
        Sid begin = static_cast<Sid>(t) * chunk;
        Sid end = std::min<Sid>(begin + chunk, n);
        batch.Submit([this, &ctx, &group, &bp, &partials, &partial_stats,
                      &results, t, begin, end, parent_span] {
          // Pool threads have no open frame; parent the shard explicitly.
          TraceSpan shard_span(ctx.trace, "cb.shard", parent_span);
          shard_span.Count("begin", begin);
          shard_span.Count("end", end);
          // bad_alloc escaping a pool worker would terminate the process;
          // turn it into a Status the query boundary can report.
          try {
            results[t] = CounterScanRange(ctx, group, bp, begin, end,
                                          &partials[t], &partial_stats[t]);
          } catch (const std::bad_alloc&) {
            results[t] = Status::ResourceExhausted(
                "counter-based scan partition ran out of memory");
          }
        });
      }
      batch.Wait();
    }
    for (size_t t = 0; t < threads; ++t) {
      SOLAP_RETURN_NOT_OK(results[t]);
      *ctx.stats += partial_stats[t];
      for (const auto& [key, cell] : partials[t].cells()) {
        ctx.cuboid->MergeCell(key, cell);
      }
    }
  }
  return Status::OK();
}

Status SOlapEngine::CounterScanRange(const QueryContext& ctx,
                                     SequenceGroup& group,
                                     const BoundPattern& bp, Sid begin,
                                     Sid end, SCuboid* cuboid,
                                     ScanStats* stats) const {
  const PatternTemplate& tmpl = ctx.tmpl;
  const size_t n_dims = tmpl.num_dims();
  const size_t m = tmpl.num_positions();
  const CellRestriction restriction = ctx.spec->restriction;
  const bool whole = restriction == CellRestriction::kLeftMaxDataGo;
  // Under the left-maximality restrictions a sequence contributes once per
  // distinct instantiation (its *first* occurrence); the accumulator's
  // per-sequence stamp drops the later ones.
  CellAccumulator cells(cuboid, group.key(), n_dims,
                        restriction != CellRestriction::kAllMatchedGo);
  size_t first_pos[kMaxTemplatePositions];
  for (size_t d = 0; d < n_dims; ++d) {
    first_pos[d] = static_cast<size_t>(tmpl.first_position_of(d));
  }
  Code dim_codes[kMaxTemplatePositions];
  for (Sid s = begin; s < end; ++s) {
    // Cancellation/deadline poll every 256 sequences — cheap relative to
    // occurrence enumeration, fine-grained enough for sub-second timeouts.
    if (((s - begin) & 0xFF) == 0) {
      SOLAP_RETURN_NOT_OK(CheckStop(ctx.stop, "counter-based scan"));
    }
    ++stats->sequences_scanned;
    cells.NextSequence();
    bp.ForEachOccurrence(s, [&](const uint32_t* idx) {
      for (size_t d = 0; d < n_dims; ++d) {
        dim_codes[d] = bp.CodeAt(first_pos[d], s, idx[first_pos[d]]);
      }
      CellValue* cell = cells.Claim(dim_codes);
      if (cell == nullptr) return true;
      if (ctx.measure_col < 0) {
        ++cell->count;  // COUNT keeps a neutral measure state
      } else {
        cell->Add(ContentSum(ctx, group, s, idx, m, whole));
      }
      return true;
    });
  }
  cells.Flush();
  return Status::OK();
}

}  // namespace solap
