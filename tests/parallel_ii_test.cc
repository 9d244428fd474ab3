// Parallel inverted-index execution must be bit-identical to serial
// execution: the join/merge partitions shard disjoint key ranges and merge
// in a deterministic order, so even floating-point SUM state matches
// exactly (ISSUE: "II execution" in DESIGN.md). These tests pin that
// contract for plain joins, kernel policies, P-ROLL-UP merges and the
// pool-backed CB scan.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "solap/engine/engine.h"
#include "solap/engine/operations.h"
#include "solap/gen/synthetic.h"
#include "solap/gen/transit.h"

namespace solap {
namespace {

// Exact comparison of the full aggregate state of every cell — not just
// counts: bit-identical means the double-valued SUM/MIN/MAX state agrees
// to the last ulp.
void ExpectCuboidsIdentical(const SCuboid& a, const SCuboid& b,
                            const char* what) {
  ASSERT_EQ(a.num_cells(), b.num_cells()) << what;
  for (const auto& [key, cell] : a.cells()) {
    CellValue other = b.CellAt(key);
    EXPECT_EQ(cell.count, other.count) << what;
    EXPECT_EQ(cell.sum, other.sum) << what;  // exact, not near
    EXPECT_TRUE(cell.min == other.min ||
                (std::isinf(cell.min) && std::isinf(other.min)))
        << what;
    EXPECT_TRUE(cell.max == other.max ||
                (std::isinf(cell.max) && std::isinf(other.max)))
        << what;
  }
}

CuboidSpec TripleSpec() {
  CuboidSpec spec;
  spec.symbols = {"X", "Y", "Z"};
  spec.dims = {PatternDim{"X", {SyntheticData::kAttr, "symbol"}, {}, ""},
               PatternDim{"Y", {SyntheticData::kAttr, "symbol"}, {}, ""},
               PatternDim{"Z", {SyntheticData::kAttr, "symbol"}, {}, ""}};
  return spec;
}

EngineOptions ParallelOpts() {
  EngineOptions o;
  o.default_strategy = ExecStrategy::kInvertedIndex;
  o.exec_threads = 4;
  return o;
}

// Joins and roll-up merges go parallel only when their input clears both
// cutoffs (index/index_ops.h). Every test here feeds them the cached
// size-2 symbol index, so checking its size shows the pooled path ran.
void ExpectCrossesParallelCutoffs(const SOlapEngine& engine,
                                  const SyntheticData& data) {
  const GroupIndexCache* cache = engine.FindIndexCache(*data.groups, 0);
  ASSERT_NE(cache, nullptr);
  IndexShape l2;
  l2.positions.assign(2, LevelRef{SyntheticData::kAttr, "symbol"});
  std::shared_ptr<InvertedIndex> index = cache->Find(l2, "");
  ASSERT_NE(index, nullptr);
  EXPECT_GE(index->num_lists(), kParallelMinLists);
  EXPECT_GE(index->total_entries(), kParallelMinWork);
}

TEST(ParallelII, JoinsIdenticalToSerial) {
  SyntheticParams p;
  p.num_sequences = 2000;
  p.num_symbols = 25;
  p.mean_length = 10;
  SyntheticData data = GenerateSynthetic(p);
  CuboidSpec spec = TripleSpec();

  SOlapEngine serial(data.groups, data.hierarchies.get());
  SOlapEngine parallel(data.groups, data.hierarchies.get(), ParallelOpts());
  auto a = serial.Execute(spec, ExecStrategy::kInvertedIndex);
  auto b = parallel.Execute(spec, ExecStrategy::kInvertedIndex);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ExpectCuboidsIdentical(**a, **b, "parallel join");
  ExpectCrossesParallelCutoffs(parallel, data);
  // Same work was done, just partitioned.
  EXPECT_EQ(serial.stats().list_intersections,
            parallel.stats().list_intersections);
  EXPECT_EQ(serial.stats().sequences_scanned,
            parallel.stats().sequences_scanned);
}

TEST(ParallelII, KernelPoliciesAgree) {
  SyntheticParams p;
  p.num_sequences = 2500;
  p.num_symbols = 12;  // dense lists: triggers the bitmap density heuristic
  p.mean_length = 12;
  p.theta = 1.2;       // skewed symbol frequencies: triggers galloping
  SyntheticData data = GenerateSynthetic(p);
  CuboidSpec spec = TripleSpec();

  EngineOptions scalar;
  scalar.adaptive_join_kernels = false;
  EngineOptions adaptive;  // defaults: adaptive on, serial
  EngineOptions adaptive_parallel = ParallelOpts();

  SOlapEngine e0(data.groups, data.hierarchies.get(), scalar);
  SOlapEngine e1(data.groups, data.hierarchies.get(), adaptive);
  SOlapEngine e2(data.groups, data.hierarchies.get(), adaptive_parallel);
  auto r0 = e0.Execute(spec, ExecStrategy::kInvertedIndex);
  auto r1 = e1.Execute(spec, ExecStrategy::kInvertedIndex);
  auto r2 = e2.Execute(spec, ExecStrategy::kInvertedIndex);
  ASSERT_TRUE(r0.ok() && r1.ok() && r2.ok());
  ExpectCuboidsIdentical(**r0, **r1, "scalar vs adaptive");
  ExpectCuboidsIdentical(**r0, **r2, "scalar vs adaptive parallel");
  ExpectCrossesParallelCutoffs(e2, data);
}

TEST(ParallelII, RollUpMergeIdenticalToSerial) {
  SyntheticParams p;
  p.num_sequences = 2500;
  p.num_symbols = 30;
  p.mean_length = 9;
  SyntheticData data = GenerateSynthetic(p);

  CuboidSpec fine;
  fine.symbols = {"X", "Y"};
  fine.dims = {PatternDim{"X", {SyntheticData::kAttr, "symbol"}, {}, ""},
               PatternDim{"Y", {SyntheticData::kAttr, "symbol"}, {}, ""}};
  CuboidSpec coarse = fine;
  coarse.dims[0].ref = {SyntheticData::kAttr, "group"};
  coarse.dims[1].ref = {SyntheticData::kAttr, "group"};

  SOlapEngine serial(data.groups, data.hierarchies.get());
  SOlapEngine parallel(data.groups, data.hierarchies.get(), ParallelOpts());
  // Warm each engine with the fine-level index, then roll up: the coarse
  // query derives its index via RollUpMerge (serial vs pool-backed).
  for (SOlapEngine* e : {&serial, &parallel}) {
    auto warm = e->Execute(fine, ExecStrategy::kInvertedIndex);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  }
  auto a = serial.Execute(coarse, ExecStrategy::kInvertedIndex);
  auto b = parallel.Execute(coarse, ExecStrategy::kInvertedIndex);
  ASSERT_TRUE(a.ok() && b.ok());
  ExpectCuboidsIdentical(**a, **b, "parallel roll-up");
  ExpectCrossesParallelCutoffs(parallel, data);
}

TEST(ParallelII, PoolBackedCounterScanIdentical) {
  TransitParams tp;
  tp.num_passengers = 3000;
  tp.num_days = 1;
  TransitData transit = GenerateTransit(tp);
  CuboidSpec spec;
  spec.agg = AggKind::kSum;
  spec.measure = "amount";
  spec.seq.cluster_by = {{"card-id", "individual"}};
  spec.seq.sequence_by = "time";
  spec.symbols = {"X", "Y"};
  spec.dims = {PatternDim{"X", {"location", "station"}, {}, ""},
               PatternDim{"Y", {"location", "station"}, {}, ""}};

  EngineOptions pooled;
  pooled.exec_threads = 4;  // CB partitions each group over the pool
  SOlapEngine serial(transit.table.get(), transit.hierarchies.get());
  SOlapEngine parallel(transit.table.get(), transit.hierarchies.get(),
                       pooled);
  auto a = serial.Execute(spec, ExecStrategy::kCounterBased);
  auto b = parallel.Execute(spec, ExecStrategy::kCounterBased);
  ASSERT_TRUE(a.ok() && b.ok());
  // Counts and the per-cell membership must match; SUM order within a cell
  // can differ across partitions, so compare counts exactly and sums to
  // double precision.
  ASSERT_EQ((*a)->num_cells(), (*b)->num_cells());
  for (const auto& [key, cell] : (*a)->cells()) {
    CellValue other = (*b)->CellAt(key);
    EXPECT_EQ(cell.count, other.count);
    EXPECT_NEAR(cell.sum, other.sum, 1e-6 * (1.0 + std::fabs(cell.sum)));
  }
}

}  // namespace
}  // namespace solap
