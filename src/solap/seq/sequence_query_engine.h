// The sequence query engine: S-cuboid formation steps 1-4 (paper §3.2 and
// Fig. 4) — Selection, Clustering, Sequence Formation, Sequence Grouping.
#ifndef SOLAP_SEQ_SEQUENCE_QUERY_ENGINE_H_
#define SOLAP_SEQ_SEQUENCE_QUERY_ENGINE_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "solap/common/status.h"
#include "solap/expr/expr.h"
#include "solap/seq/sequence_group.h"

namespace solap {

/// \brief The sequence-formation half of an S-cuboid specification:
/// WHERE + CLUSTER BY + SEQUENCE BY + SEQUENCE GROUP BY.
struct SequenceSpec {
  /// Step 1 — event selection; nullptr selects everything.
  ExprPtr where;
  /// Step 2 — events sharing these dimension values form a cluster.
  std::vector<LevelRef> cluster_by;
  /// Step 3 — attribute whose order turns a cluster into a sequence.
  std::string sequence_by;
  bool ascending = true;
  /// Step 4 — global dimensions; empty means one single sequence group.
  std::vector<LevelRef> group_by;

  /// Canonical text used as the sequence-cache key.
  std::string CanonicalString() const;
};

/// \brief Row-level retention window applied during step 1, in addition to
/// the spec's WHERE: rows whose int64/timestamp column `col` is below
/// `min_inclusive` are skipped. The engine's EvictBefore (docs/INGESTION.md)
/// installs one so that both fresh formations and incremental extensions
/// see the same logical table.
struct RowFilter {
  int col = -1;  ///< -1 = no filtering
  int64_t min_inclusive = 0;

  bool Keep(const EventTable& table, RowId row) const {
    return col < 0 || table.Int64At(row, col) >= min_inclusive;
  }
};

/// \brief Steps 1-3 of a formation over a range of table rows: the selected
/// rows bucketed by cluster key, each cluster ordered by the SEQUENCE BY
/// attribute (ties keep row order). Clusters are in ascending key order,
/// which is the sid order a fresh formation assigns.
struct FormedSequences {
  std::vector<CellKey> keys;
  /// Cluster k's rows are rows[offsets[k], offsets[k + 1]).
  std::vector<uint32_t> offsets{0};
  std::vector<RowId> rows;

  size_t size() const { return keys.size(); }
  std::span<const RowId> Rows(size_t k) const {
    return {rows.data() + offsets[k], offsets[k + 1] - offsets[k]};
  }
};

/// \brief Executes SequenceSpecs against an event table.
///
/// The paper offloads these four steps to "an existing sequence database
/// query engine" and caches the result (Fig. 6); this class is that engine.
class SequenceQueryEngine {
 public:
  explicit SequenceQueryEngine(const HierarchyRegistry* hierarchies)
      : hierarchies_(hierarchies) {}

  /// Runs steps 1-4 and returns the grouped sequences. `filter` (optional)
  /// is the engine's retention window.
  Result<std::shared_ptr<SequenceGroupSet>> Build(
      const EventTable& table, const SequenceSpec& spec,
      const RowFilter* filter = nullptr);

  /// Steps 1-3 over table rows [from_row, num_rows). Fresh formation and
  /// incremental extension (engine/ingest.cc) both run it, so they select,
  /// cluster and order rows identically.
  Result<FormedSequences> FormSequences(const EventTable& table,
                                        const SequenceSpec& spec,
                                        const RowFilter* filter,
                                        RowId from_row = 0) const;

  /// Binds each of `refs` against `table`'s columns.
  Result<std::vector<DimensionBinding>> BindLevels(
      const EventTable& table, const std::vector<LevelRef>& refs) const;

 private:
  const HierarchyRegistry* hierarchies_;
};

}  // namespace solap

#endif  // SOLAP_SEQ_SEQUENCE_QUERY_ENGINE_H_
