// Tests for the cost-based strategy optimizer (engine/optimizer.h): the
// choices it makes must track the paper's observed trade-offs — CB for
// cold unselective queries, II whenever cached indices (exact, finer,
// coarser, or prefix) can be exploited.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "paper_fixtures.h"
#include "solap/common/trace.h"
#include "solap/engine/engine.h"
#include "solap/engine/operations.h"
#include "solap/engine/optimizer.h"
#include "solap/gen/synthetic.h"

namespace solap {
namespace {

SyntheticData SmallData() {
  SyntheticParams p;
  p.num_sequences = 500;
  p.num_symbols = 15;
  p.mean_length = 8;
  return GenerateSynthetic(p);
}

CuboidSpec XYSpec(const std::string& x_level = "symbol",
                  const std::string& y_level = "symbol") {
  CuboidSpec spec;
  spec.symbols = {"X", "Y"};
  spec.dims = {PatternDim{"X", {SyntheticData::kAttr, x_level}, {}, ""},
               PatternDim{"Y", {SyntheticData::kAttr, y_level}, {}, ""}};
  return spec;
}

TEST(OptimizerTest, ColdCountOnlyQueryTiesTowardInvertedIndex) {
  // A cold COUNT query with no predicate: both strategies scan once, but
  // II leaves a reusable index behind — the tie resolves toward II.
  SyntheticData data = SmallData();
  SOlapEngine engine(data.groups, data.hierarchies.get());
  StrategyOptimizer opt(&engine);
  auto choice = opt.Choose(XYSpec());
  ASSERT_TRUE(choice.ok()) << choice.status().ToString();
  EXPECT_EQ(choice->strategy, ExecStrategy::kInvertedIndex);
  EXPECT_DOUBLE_EQ(choice->ii_cost, choice->cb_cost);
}

TEST(OptimizerTest, CachedExactIndexPrefersInvertedIndex) {
  SyntheticData data = SmallData();
  SOlapEngine engine(data.groups, data.hierarchies.get());
  ASSERT_TRUE(engine.Execute(XYSpec(), ExecStrategy::kInvertedIndex).ok());
  StrategyOptimizer opt(&engine);
  auto choice = opt.Choose(XYSpec());
  ASSERT_TRUE(choice.ok());
  EXPECT_EQ(choice->strategy, ExecStrategy::kInvertedIndex);
  EXPECT_EQ(choice->ii_cost, 0.0);
  EXPECT_NE(choice->reason.find("exact"), std::string::npos);
}

TEST(OptimizerTest, RollUpAfterFineIndexPrefersMerge) {
  SyntheticData data = SmallData();
  SOlapEngine engine(data.groups, data.hierarchies.get());
  ASSERT_TRUE(engine.Execute(XYSpec(), ExecStrategy::kInvertedIndex).ok());
  StrategyOptimizer opt(&engine);
  auto choice = opt.Choose(XYSpec("symbol", "group"));
  ASSERT_TRUE(choice.ok());
  EXPECT_EQ(choice->strategy, ExecStrategy::kInvertedIndex);
  EXPECT_NE(choice->reason.find("P-ROLL-UP"), std::string::npos);
}

TEST(OptimizerTest, UnrestrictedDrillDownFallsBackToCounterBased) {
  // Refinement rescans every sequence in the coarse lists at a higher
  // per-sequence cost than CB (the 1.5 calibration factor): with nothing
  // sliced, the optimizer keeps CB — matching the paper's QB2 observation
  // that II loses its edge on non-selective drill-downs.
  SyntheticData data = SmallData();
  SOlapEngine engine(data.groups, data.hierarchies.get());
  ASSERT_TRUE(engine.Execute(XYSpec("symbol", "group"),
                             ExecStrategy::kInvertedIndex)
                  .ok());
  StrategyOptimizer opt(&engine);
  auto choice = opt.Choose(XYSpec());
  ASSERT_TRUE(choice.ok());
  EXPECT_EQ(choice->strategy, ExecStrategy::kCounterBased);
  EXPECT_NE(choice->reason.find("P-DRILL-DOWN"), std::string::npos);
}

TEST(OptimizerTest, SlicedAppendPrefersPrefixExtension) {
  // The paper's iterative pattern: slice the hottest cell, then APPEND.
  // The sliced prefix is selective, so scan-extension from the cached
  // index beats a fresh CB pass.
  SyntheticData data = SmallData();
  SOlapEngine engine(data.groups, data.hierarchies.get());
  auto first = engine.Execute(XYSpec(), ExecStrategy::kInvertedIndex);
  ASSERT_TRUE(first.ok());
  auto sliced = ops::SliceToCell(XYSpec(), **first, (*first)->ArgMaxCell());
  ASSERT_TRUE(sliced.ok());
  auto appended =
      ops::Append(*sliced, "Z", {SyntheticData::kAttr, "symbol"});
  ASSERT_TRUE(appended.ok());
  StrategyOptimizer opt(&engine);
  auto choice = opt.Choose(*appended);
  ASSERT_TRUE(choice.ok());
  EXPECT_EQ(choice->strategy, ExecStrategy::kInvertedIndex);
  EXPECT_NE(choice->reason.find("prefix"), std::string::npos);
  EXPECT_LT(choice->ii_cost, choice->cb_cost);
}

TEST(OptimizerTest, PredicateForcesCountScanIntoTheEstimate) {
  auto table = testing::Fig8Table();
  auto reg = testing::Fig8Hierarchies();
  SOlapEngine engine(table.get(), reg.get());
  CuboidSpec spec;
  spec.seq.cluster_by = {{"card-id", "card-id"}};
  spec.seq.sequence_by = "time";
  spec.symbols = {"X", "Y"};
  spec.dims = {PatternDim{"X", {"location", "station"}, {}, ""},
               PatternDim{"Y", {"location", "station"}, {}, ""}};
  spec.placeholders = {"x1", "y1"};
  spec.predicate = Expr::Eq(Expr::PCol("x1", "action"),
                            Expr::Lit(Value::String("in")));
  StrategyOptimizer opt(&engine);
  auto cold = opt.Choose(spec);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  // Cold + predicate: II pays build AND counting scans.
  EXPECT_GT(cold->ii_cost, cold->cb_cost);
  EXPECT_EQ(cold->strategy, ExecStrategy::kCounterBased);
}

TEST(OptimizerTest, AutoStrategyExecutesCorrectly) {
  SyntheticData data = SmallData();
  SOlapEngine engine(data.groups, data.hierarchies.get());
  // Whatever the optimizer picks, the result must match an explicit run.
  auto auto1 = engine.Execute(XYSpec(), ExecStrategy::kAuto);
  ASSERT_TRUE(auto1.ok()) << auto1.status().ToString();
  SOlapEngine check(data.groups, data.hierarchies.get());
  auto expect = check.Execute(XYSpec(), ExecStrategy::kCounterBased);
  ASSERT_TRUE(expect.ok());
  EXPECT_EQ((*auto1)->num_cells(), (*expect)->num_cells());
  for (const auto& [key, cell] : (*expect)->cells()) {
    EXPECT_EQ((*auto1)->CellAt(key).count, cell.count);
  }
  // Warm the index cache, then auto must pick II and still agree.
  ASSERT_TRUE(engine.Execute(XYSpec(), ExecStrategy::kInvertedIndex).ok());
  auto rolled = ops::PRollUp(XYSpec(), "Y", *data.hierarchies);
  ASSERT_TRUE(rolled.ok());
  auto auto2 = engine.Execute(*rolled, ExecStrategy::kAuto);
  ASSERT_TRUE(auto2.ok());
  auto expect2 = check.Execute(*rolled, ExecStrategy::kCounterBased);
  ASSERT_TRUE(expect2.ok());
  EXPECT_EQ((*auto2)->num_cells(), (*expect2)->num_cells());
}

// Names of the spans one execution recorded, in opening order, plus the
// repo.lookup verdict.
struct TracedRun {
  std::shared_ptr<const SCuboid> cuboid;
  std::vector<std::string> spans;
  std::string lookup_result;
};

TracedRun RunTraced(SOlapEngine& engine, const CuboidSpec& spec,
                    ExecStrategy strategy) {
  TraceContext trace;
  ExecControl control;
  control.trace = &trace;
  TracedRun run;
  auto r = engine.Execute(spec, strategy, control);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (r.ok()) run.cuboid = *r;
  for (const TraceContext::Span& span : trace.Snapshot()) {
    run.spans.push_back(span.name);
    if (span.name != "repo.lookup") continue;
    for (const auto& [key, value] : span.notes) {
      if (key == "result") run.lookup_result = value;
    }
  }
  return run;
}

size_t IndexOf(const std::vector<std::string>& names, const std::string& n) {
  return static_cast<size_t>(std::find(names.begin(), names.end(), n) -
                             names.begin());
}

TEST(OptimizerTest, RepositoryHitSkipsTheOptimizer) {
  SyntheticData data = SmallData();
  SOlapEngine engine(data.groups, data.hierarchies.get());
  // A miss probes the repository first, then costs the query.
  TracedRun miss = RunTraced(engine, XYSpec(), ExecStrategy::kAuto);
  EXPECT_EQ(miss.lookup_result, "miss");
  const size_t lookup = IndexOf(miss.spans, "repo.lookup");
  const size_t optimize = IndexOf(miss.spans, "optimize");
  ASSERT_LT(lookup, miss.spans.size());
  ASSERT_LT(optimize, miss.spans.size()) << "a miss must run the optimizer";
  EXPECT_LT(lookup, optimize);
  EXPECT_LT(optimize, IndexOf(miss.spans, "prepare"));

  // The revisit is a hit and never reaches the optimizer.
  TracedRun hit = RunTraced(engine, XYSpec(), ExecStrategy::kAuto);
  EXPECT_EQ(hit.lookup_result, "hit");
  EXPECT_EQ(hit.spans, std::vector<std::string>{"repo.lookup"});
  EXPECT_EQ(hit.cuboid, miss.cuboid);
  EXPECT_EQ(engine.stats().repository_hits, 1u);

  // And the cached answer is the forced-CB answer.
  SOlapEngine check(data.groups, data.hierarchies.get());
  auto cb = check.Execute(XYSpec(), ExecStrategy::kCounterBased);
  ASSERT_TRUE(cb.ok());
  ASSERT_EQ(hit.cuboid->num_cells(), (*cb)->num_cells());
  for (const auto& [key, cell] : (*cb)->cells()) {
    EXPECT_EQ(hit.cuboid->CellAt(key).count, cell.count);
  }
}

TEST(OptimizerTest, ColdIndexOverTheBudgetChoosesCounterBased) {
  SyntheticData data = SmallData();
  EngineOptions tight;
  tight.memory_budget_bytes = 4096;  // far below a 500-sequence pair index
  SOlapEngine engine(data.groups, data.hierarchies.get(), tight);
  StrategyOptimizer opt(&engine);
  auto choice = opt.Choose(XYSpec());
  ASSERT_TRUE(choice.ok()) << choice.status().ToString();
  EXPECT_EQ(choice->strategy, ExecStrategy::kCounterBased);
  EXPECT_EQ(choice->reason, "index would not fit the memory budget");

  // Execution runs CB directly: no index build is started and refused.
  TracedRun run = RunTraced(engine, XYSpec(), ExecStrategy::kAuto);
  EXPECT_LT(IndexOf(run.spans, "exec.cb"), run.spans.size());
  EXPECT_EQ(IndexOf(run.spans, "exec.ii"), run.spans.size());
  EXPECT_EQ(IndexOf(run.spans, "exec.degrade_cb"), run.spans.size());
  EXPECT_EQ(engine.stats().degraded_queries, 0u);

  SOlapEngine check(data.groups, data.hierarchies.get());
  auto cb = check.Execute(XYSpec(), ExecStrategy::kCounterBased);
  ASSERT_TRUE(cb.ok());
  ASSERT_NE(run.cuboid, nullptr);
  ASSERT_EQ(run.cuboid->num_cells(), (*cb)->num_cells());
  for (const auto& [key, cell] : (*cb)->cells()) {
    EXPECT_EQ(run.cuboid->CellAt(key).count, cell.count);
  }

  // Without a budget the same cold query still ties toward II.
  auto unbudgeted = StrategyOptimizer(&check).Choose(XYSpec());
  ASSERT_TRUE(unbudgeted.ok());
  EXPECT_EQ(unbudgeted->strategy, ExecStrategy::kInvertedIndex);
}

TEST(OptimizerTest, ChoiceCarriesTheResolvedFormation) {
  SyntheticData data = SmallData();
  SOlapEngine engine(data.groups, data.hierarchies.get());
  StrategyOptimizer opt(&engine);
  auto choice = opt.Choose(XYSpec());
  ASSERT_TRUE(choice.ok()) << choice.status().ToString();
  auto groups = engine.GroupsFor(XYSpec().seq);
  ASSERT_TRUE(groups.ok());
  EXPECT_EQ(choice->resolved.groups, *groups);
  EXPECT_EQ(choice->resolved.selected_groups.size(), choice->groups.size());
  EXPECT_EQ(choice->resolved.tmpl.num_positions(), 2u);
}

TEST(OptimizerTest, ReportsCostsForAllSelectedGroups) {
  SyntheticData data = SmallData();
  SOlapEngine engine(data.groups, data.hierarchies.get());
  StrategyOptimizer opt(&engine);
  auto choice = opt.Choose(XYSpec());
  ASSERT_TRUE(choice.ok());
  EXPECT_DOUBLE_EQ(choice->cb_cost, 500.0);  // one scan per sequence
  EXPECT_FALSE(choice->reason.empty());
}

}  // namespace
}  // namespace solap
