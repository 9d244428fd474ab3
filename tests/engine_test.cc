// End-to-end engine tests against the paper's worked examples:
//  - query Q3 (Fig. 11/12): 2D S-cuboid with the in/out matching predicate;
//  - query Q1 (Fig. 3): the round-trip (X,Y,Y,X) cuboid;
//  - the §3.4 non-summarizability counter-example;
//  - cell restrictions, aggregates, caches, online aggregation and
//    incremental update.
#include <gtest/gtest.h>

#include "paper_fixtures.h"
#include "solap/engine/engine.h"
#include "solap/engine/operations.h"

namespace solap {
namespace {

using testing::Fig8Hierarchies;
using testing::Fig8RawGroups;
using testing::Fig8Table;

// Finds the value of the cell whose per-dimension labels equal `labels`;
// -1 if absent.
double CellByLabels(const SCuboid& c, const std::vector<std::string>& labels) {
  for (const auto& [key, cell] : c.cells()) {
    bool match = key.size() == labels.size();
    for (size_t d = 0; match && d < key.size(); ++d) {
      match = c.LabelOf(d, key[d]) == labels[d];
    }
    if (match) return cell.Value(c.agg());
  }
  return -1.0;
}

ExprPtr InOutPredicate(const std::vector<std::pair<std::string, std::string>>&
                           placeholder_actions) {
  ExprPtr e;
  for (const auto& [ph, action] : placeholder_actions) {
    ExprPtr term = Expr::Eq(Expr::PCol(ph, "action"),
                            Expr::Lit(Value::String(action)));
    e = e ? Expr::And(e, term) : term;
  }
  return e;
}

class EngineTest : public ::testing::Test {
 protected:
  EngineTest()
      : table_(Fig8Table()),
        reg_(Fig8Hierarchies()),
        engine_(table_.get(), reg_.get()) {}

  // Q3 (paper Fig. 11): SUBSTRING(X, Y) at station level with
  // LEFT-MAXIMALITY(x1, y1) WITH x1.action = "in" AND y1.action = "out".
  CuboidSpec Q3() {
    CuboidSpec s;
    s.seq.cluster_by = {{"card-id", "card-id"}};
    s.seq.sequence_by = "time";
    s.symbols = {"X", "Y"};
    s.dims = {PatternDim{"X", {"location", "station"}, {}, ""},
              PatternDim{"Y", {"location", "station"}, {}, ""}};
    s.placeholders = {"x1", "y1"};
    s.predicate = InOutPredicate({{"x1", "in"}, {"y1", "out"}});
    return s;
  }

  // Q1's CUBOID BY part (Fig. 3): SUBSTRING(X, Y, Y, X) with the
  // in/out/in/out matching predicate.
  CuboidSpec Q1() {
    CuboidSpec s = Q3();
    s.symbols = {"X", "Y", "Y", "X"};
    s.placeholders = {"x1", "y1", "y2", "x2"};
    s.predicate = InOutPredicate(
        {{"x1", "in"}, {"y1", "out"}, {"y2", "in"}, {"x2", "out"}});
    return s;
  }

  std::shared_ptr<EventTable> table_;
  std::shared_ptr<HierarchyRegistry> reg_;
  SOlapEngine engine_;
};

TEST_F(EngineTest, Q3ReproducesFigure12WithBothStrategies) {
  for (ExecStrategy strategy :
       {ExecStrategy::kCounterBased, ExecStrategy::kInvertedIndex}) {
    SOlapEngine engine(table_.get(), reg_.get());
    auto r = engine.Execute(Q3(), strategy);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const SCuboid& c = **r;
    EXPECT_EQ(CellByLabels(c, {"Clarendon", "Pentagon"}), 1);
    EXPECT_EQ(CellByLabels(c, {"Deanwood", "Wheaton"}), 1);
    EXPECT_EQ(CellByLabels(c, {"Glenmont", "Pentagon"}), 1);
    EXPECT_EQ(CellByLabels(c, {"Pentagon", "Wheaton"}), 2);
    EXPECT_EQ(CellByLabels(c, {"Wheaton", "Clarendon"}), 1);
    EXPECT_EQ(CellByLabels(c, {"Wheaton", "Pentagon"}), 2);
    // (Pentagon,Pentagon) and (Wheaton,Wheaton) fail the in/out predicate.
    EXPECT_EQ(CellByLabels(c, {"Pentagon", "Pentagon"}), -1);
    EXPECT_EQ(CellByLabels(c, {"Wheaton", "Wheaton"}), -1);
    EXPECT_EQ(c.num_cells(), 6u);
  }
}

TEST_F(EngineTest, Q1RoundTripCuboid) {
  auto r = engine_.Execute(Q1(), ExecStrategy::kInvertedIndex);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Both s1 and s2 contain (Pentagon,Wheaton,Wheaton,Pentagon) with valid
  // in/out/in/out actions (Fig. 14's list {s1, s2}). The cuboid is keyed by
  // the two pattern *dimensions* (X, Y) = (Pentagon, Wheaton).
  EXPECT_EQ(CellByLabels(**r, {"Pentagon", "Wheaton"}), 2);
  EXPECT_EQ((*r)->num_cells(), 1u);
}

TEST_F(EngineTest, CounterBasedAndInvertedIndexAgreeOnQ1) {
  auto cb = engine_.Execute(Q1(), ExecStrategy::kCounterBased);
  ASSERT_TRUE(cb.ok());
  SOlapEngine engine2(table_.get(), reg_.get());
  auto ii = engine2.Execute(Q1(), ExecStrategy::kInvertedIndex);
  ASSERT_TRUE(ii.ok());
  EXPECT_EQ((*cb)->num_cells(), (*ii)->num_cells());
  for (const auto& [key, cell] : (*cb)->cells()) {
    EXPECT_EQ((*ii)->CellAt(key).count, cell.count);
  }
}

// §3.4: the DE-TAIL of SUBSTRING(X,Y,Z) on s3 = <P,W,P,W,G> cannot be
// computed by aggregating the finer cuboid (c4 = 1, but c1 + c3 = 2).
TEST_F(EngineTest, NonSummarizabilityCounterExample) {
  auto set = std::make_shared<SequenceGroupSet>("symbol");
  SequenceGroup& g = set->GroupFor({});
  std::vector<Code> s3;
  for (const char* n :
       {"Pentagon", "Wheaton", "Pentagon", "Wheaton", "Glenmont"}) {
    s3.push_back(set->raw_dictionary().GetOrAdd(n));
  }
  g.AddSequence(s3);
  SOlapEngine engine(set, nullptr);

  CuboidSpec xyz;
  xyz.symbols = {"X", "Y", "Z"};
  xyz.dims = {PatternDim{"X", {"symbol", "symbol"}, {}, ""},
              PatternDim{"Y", {"symbol", "symbol"}, {}, ""},
              PatternDim{"Z", {"symbol", "symbol"}, {}, ""}};
  auto fine = engine.Execute(xyz);
  ASSERT_TRUE(fine.ok()) << fine.status().ToString();
  EXPECT_EQ(CellByLabels(**fine, {"Pentagon", "Wheaton", "Pentagon"}), 1);
  EXPECT_EQ(CellByLabels(**fine, {"Wheaton", "Pentagon", "Wheaton"}), 1);
  EXPECT_EQ(CellByLabels(**fine, {"Pentagon", "Wheaton", "Glenmont"}), 1);
  EXPECT_EQ((*fine)->num_cells(), 3u);

  auto detailed = ops::DeTail(xyz);
  ASSERT_TRUE(detailed.ok());
  auto coarse = engine.Execute(*detailed);
  ASSERT_TRUE(coarse.ok());
  // Correct c4 = 1; summing the two finer cells would give the wrong 2.
  EXPECT_EQ(CellByLabels(**coarse, {"Pentagon", "Wheaton"}), 1);
}

TEST_F(EngineTest, CellRestrictionsOnAabaa) {
  // Paper §3.2(5b): pattern (a,a) against <a,a,b,a,a>.
  auto set = std::make_shared<SequenceGroupSet>("symbol");
  SequenceGroup& g = set->GroupFor({});
  Code a = set->raw_dictionary().GetOrAdd("a");
  Code b = set->raw_dictionary().GetOrAdd("b");
  g.AddSequence(std::vector<Code>{a, a, b, a, a});
  SOlapEngine engine(set, nullptr);

  CuboidSpec spec;
  spec.symbols = {"X", "X"};
  spec.dims = {PatternDim{"X", {"symbol", "symbol"}, {}, ""}};

  spec.restriction = CellRestriction::kLeftMaxMatchedGo;
  auto matched = engine.Execute(spec);
  ASSERT_TRUE(matched.ok());
  EXPECT_EQ(CellByLabels(**matched, {"a"}), 1);  // first match only

  spec.restriction = CellRestriction::kAllMatchedGo;
  auto all = engine.Execute(spec);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(CellByLabels(**all, {"a"}), 2);  // both occurrences

  spec.restriction = CellRestriction::kLeftMaxDataGo;
  auto data = engine.Execute(spec);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(CellByLabels(**data, {"a"}), 1);  // whole sequence once
  (void)b;
}

TEST_F(EngineTest, SumAggregationOverMatchedAndWholeContent) {
  // SUM(amount) over SUBSTRING(X, Y): matched-go sums the two matched
  // events; data-go sums the whole sequence.
  CuboidSpec spec = Q3();
  spec.agg = AggKind::kSum;
  spec.measure = "amount";
  auto matched = engine_.Execute(spec, ExecStrategy::kCounterBased);
  ASSERT_TRUE(matched.ok()) << matched.status().ToString();
  // Card 1012: <Clarendon(in,0), Pentagon(out,-2)>: sum = -2.
  EXPECT_EQ(CellByLabels(**matched, {"Clarendon", "Pentagon"}), -2);

  CuboidSpec whole = spec;
  whole.restriction = CellRestriction::kLeftMaxDataGo;
  auto data = engine_.Execute(whole, ExecStrategy::kInvertedIndex);
  ASSERT_TRUE(data.ok());
  // data-go assigns the whole sequence: -2 for the 2-event sequence; for
  // s1 (6 events with 3 "out" at -2 each) a (Glenmont,Pentagon) match
  // sums -6.
  EXPECT_EQ(CellByLabels(**data, {"Clarendon", "Pentagon"}), -2);
  EXPECT_EQ(CellByLabels(**data, {"Glenmont", "Pentagon"}), -6);
}

TEST_F(EngineTest, AvgMinMaxAggregates) {
  CuboidSpec spec = Q3();
  spec.agg = AggKind::kAvg;
  spec.measure = "amount";
  auto avg = engine_.Execute(spec);
  ASSERT_TRUE(avg.ok());
  // (Pentagon, Wheaton): two sequences each contributing -2 -> avg -2.
  EXPECT_EQ(CellByLabels(**avg, {"Pentagon", "Wheaton"}), -2);
  spec.agg = AggKind::kMin;
  auto mn = engine_.Execute(spec);
  ASSERT_TRUE(mn.ok());
  EXPECT_EQ(CellByLabels(**mn, {"Pentagon", "Wheaton"}), -2);
  spec.agg = AggKind::kMax;
  auto mx = engine_.Execute(spec);
  ASSERT_TRUE(mx.ok());
  EXPECT_EQ(CellByLabels(**mx, {"Pentagon", "Wheaton"}), -2);
}

TEST_F(EngineTest, MeasureValidation) {
  CuboidSpec no_measure = Q3();
  no_measure.agg = AggKind::kSum;
  EXPECT_FALSE(engine_.Execute(no_measure).ok());
  CuboidSpec bad_measure = Q3();
  bad_measure.agg = AggKind::kSum;
  bad_measure.measure = "location";
  EXPECT_FALSE(engine_.Execute(bad_measure).ok());

  auto raw = Fig8RawGroups();
  SOlapEngine raw_engine(raw, reg_.get());
  CuboidSpec raw_sum;
  raw_sum.symbols = {"X"};
  raw_sum.dims = {PatternDim{"X", {"symbol", "symbol"}, {}, ""}};
  raw_sum.agg = AggKind::kSum;
  raw_sum.measure = "amount";
  EXPECT_FALSE(raw_engine.Execute(raw_sum).ok());
}

TEST_F(EngineTest, RepositoryServesRepeatedQueries) {
  auto first = engine_.Execute(Q3());
  ASSERT_TRUE(first.ok());
  uint64_t scans_before = engine_.stats().sequences_scanned;
  auto second = engine_.Execute(Q3());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->get(), second->get());  // same cached object
  EXPECT_EQ(engine_.stats().sequences_scanned, scans_before);
  EXPECT_EQ(engine_.stats().repository_hits, 1u);
}

TEST_F(EngineTest, GlobalGroupingAndSlices) {
  auto card_h = std::make_shared<ConceptHierarchy>(
      std::vector<std::string>{"card-id", "fare-group"});
  (void)card_h->SetParent(0, "688", "regular");
  (void)card_h->SetParent(0, "23456", "regular");
  (void)card_h->SetParent(0, "1012", "student");
  (void)card_h->SetParent(0, "77", "student");
  reg_->Register("card-id", card_h);

  CuboidSpec spec = Q3();
  spec.seq.group_by = {{"card-id", "fare-group"}};
  auto r = engine_.Execute(spec);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // 3D cuboid now: (fare-group, X, Y).
  EXPECT_EQ(CellByLabels(**r, {"regular", "Pentagon", "Wheaton"}), 2);
  EXPECT_EQ(CellByLabels(**r, {"student", "Clarendon", "Pentagon"}), 1);
  EXPECT_EQ(CellByLabels(**r, {"regular", "Clarendon", "Pentagon"}), -1);

  auto sliced =
      ops::SliceGlobal(spec, {"card-id", "fare-group"}, {"student"});
  ASSERT_TRUE(sliced.ok());
  auto rs = engine_.Execute(*sliced);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(CellByLabels(**rs, {"student", "Clarendon", "Pentagon"}), 1);
  EXPECT_EQ(CellByLabels(**rs, {"regular", "Pentagon", "Wheaton"}), -1);
}

TEST_F(EngineTest, IcebergFilterDropsLowSupportCells) {
  CuboidSpec spec = Q3();
  spec.iceberg_min_count = 2;
  auto r = engine_.Execute(spec);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->num_cells(), 2u);  // only the two count-2 cells survive
  EXPECT_EQ(CellByLabels(**r, {"Pentagon", "Wheaton"}), 2);
  EXPECT_EQ(CellByLabels(**r, {"Clarendon", "Pentagon"}), -1);
}

TEST_F(EngineTest, IndexReuseAcrossIterativeQueries) {
  SOlapEngine engine(table_.get(), reg_.get());
  auto q3 = engine.Execute(Q3(), ExecStrategy::kInvertedIndex);
  ASSERT_TRUE(q3.ok());
  uint64_t hits_before = engine.stats().index_cache_hits;
  // APPEND Y: (X, Y, Y) — must reuse the cached L2 as its prefix.
  auto appended = ops::Append(Q3(), "Y");
  ASSERT_TRUE(appended.ok());
  // Predicate placeholders grew; drop the predicate for this test.
  CuboidSpec q_app = *appended;
  q_app.predicate = nullptr;
  q_app.placeholders.clear();
  auto r = engine.Execute(q_app, ExecStrategy::kInvertedIndex);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(engine.stats().index_cache_hits, hits_before);
  EXPECT_EQ(CellByLabels(**r, {"Pentagon", "Wheaton"}), 2);  // (P,W,W)
}

TEST_F(EngineTest, OnlineAggregationProgressAndEarlyStop) {
  auto raw = Fig8RawGroups();
  SOlapEngine engine(raw, reg_.get());
  CuboidSpec spec;
  spec.symbols = {"X", "Y"};
  spec.dims = {PatternDim{"X", {"symbol", "symbol"}, {}, ""},
               PatternDim{"Y", {"symbol", "symbol"}, {}, ""}};

  std::vector<double> fractions;
  auto full = engine.ExecuteOnline(
      spec, 1, [&](const SCuboid& partial, double fraction) {
        fractions.push_back(fraction);
        EXPECT_LE(partial.num_cells(), 9u);
        return true;
      });
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(fractions.size(), 4u);
  EXPECT_DOUBLE_EQ(fractions.back(), 1.0);
  for (size_t i = 1; i < fractions.size(); ++i) {
    EXPECT_GT(fractions[i], fractions[i - 1]);
  }
  // The completed online run matches the offline answer.
  SOlapEngine offline(raw, reg_.get());
  auto exact = offline.Execute(spec);
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ((*full)->num_cells(), (*exact)->num_cells());

  // Early stop returns a partial cuboid and does not cache it.
  SOlapEngine engine2(raw, reg_.get());
  auto partial = engine2.ExecuteOnline(
      spec, 1, [&](const SCuboid&, double) { return false; });
  ASSERT_TRUE(partial.ok());
  EXPECT_LT((*partial)->num_cells(), (*exact)->num_cells());
  EXPECT_EQ(engine2.repository().size(), 0u);
}

TEST_F(EngineTest, IncrementalAppendMatchesRebuild) {
  auto raw = Fig8RawGroups();
  SOlapEngine engine(raw, reg_.get());
  CuboidSpec spec;
  spec.symbols = {"X", "Y"};
  spec.dims = {PatternDim{"X", {"symbol", "symbol"}, {}, ""},
               PatternDim{"Y", {"symbol", "symbol"}, {}, ""}};
  auto before = engine.Execute(spec, ExecStrategy::kInvertedIndex);
  ASSERT_TRUE(before.ok());

  // Append two new sequences; the cached complete L2 extends incrementally.
  Code p = raw->raw_dictionary().Lookup("Pentagon");
  Code w = raw->raw_dictionary().Lookup("Wheaton");
  ASSERT_TRUE(engine.AppendRawSequences(0, {{p, w, p}, {w, w}}).ok());
  auto after = engine.Execute(spec, ExecStrategy::kInvertedIndex);
  ASSERT_TRUE(after.ok());

  // A fresh engine over the extended data must agree exactly.
  SOlapEngine fresh(raw, reg_.get());
  auto rebuilt = fresh.Execute(spec, ExecStrategy::kCounterBased);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ((*after)->num_cells(), (*rebuilt)->num_cells());
  for (const auto& [key, cell] : (*rebuilt)->cells()) {
    EXPECT_EQ((*after)->CellAt(key).count, cell.count);
  }
  // (Pentagon, Wheaton) gained one sequence: 2 + 1 = 3.
  EXPECT_EQ(CellByLabels(**after, {"Pentagon", "Wheaton"}), 3);
}

TEST_F(EngineTest, TableAppendInvalidatesCaches) {
  auto r = engine_.Execute(Q3());
  ASSERT_TRUE(r.ok());
  EXPECT_GT(engine_.repository().size(), 0u);
  (void)table_->AppendRow({Value::Timestamp(MakeTimestamp(2007, 12, 26)),
                           Value::String("688"), Value::String("Wheaton"),
                           Value::String("in"), Value::Double(0)});
  engine_.NotifyTableAppend();
  EXPECT_EQ(engine_.repository().size(), 0u);
  EXPECT_EQ(engine_.IndexCacheBytes(), 0u);
  auto r2 = engine_.Execute(Q3());
  ASSERT_TRUE(r2.ok());
}

TEST_F(EngineTest, CuboidRenderingHasLabels) {
  auto r = engine_.Execute(Q3());
  ASSERT_TRUE(r.ok());
  std::string table = (*r)->ToTable(0);
  EXPECT_NE(table.find("Pentagon"), std::string::npos);
  EXPECT_NE(table.find("COUNT"), std::string::npos);
  auto top = (*r)->TopCells(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].second, 2);
}

// Cache keys render double literals exactly: two WHERE cutoffs that agree
// in their first six significant digits are different queries, and the
// second must not be answered from the first one's cached cuboid.
TEST_F(EngineTest, DoubleLiteralsPastSixDigitsKeyTheirOwnCuboids) {
  const int64_t t0 = MakeTimestamp(2007, 12, 25, 8, 0, 0);
  auto before = [&](double cutoff) {
    CuboidSpec s;
    s.seq.where = Expr::Lt(Expr::Col("time"), Expr::Lit(Value::Double(cutoff)));
    s.seq.cluster_by = {{"card-id", "card-id"}};
    s.seq.sequence_by = "time";
    s.symbols = {"X"};
    s.dims = {PatternDim{"X", {"location", "station"}, {}, ""}};
    return s;
  };
  // s1's six events, then s1 and s2's ten (events are 60 s apart).
  const CuboidSpec early = before(static_cast<double>(t0) + 300.5);
  const CuboidSpec later = before(static_cast<double>(t0) + 540.5);
  ASSERT_NE(early.CanonicalString(), later.CanonicalString());
  auto a = engine_.Execute(early, ExecStrategy::kCounterBased);
  auto b = engine_.Execute(later, ExecStrategy::kCounterBased);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a->get(), b->get());
  EXPECT_EQ(CellByLabels(**a, {"Pentagon"}), 1);
  EXPECT_EQ(CellByLabels(**b, {"Pentagon"}), 2);
  EXPECT_EQ(CellByLabels(**b, {"Wheaton"}), 2);
}

}  // namespace
}  // namespace solap
