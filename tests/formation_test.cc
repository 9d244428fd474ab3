// Sequence formation (steps 1-4 of S-cuboid construction) must give the
// same groups, sids and rows as the straightforward algorithm it replaced:
// row-at-a-time Value evaluation of the WHERE, an ordered map from cluster
// key to rows, and a stable sort of every cluster. That algorithm is kept
// here as the reference and compared exactly on seeded random tables, for
// fresh formations, retention-filtered ones and ingest extensions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "solap/engine/engine.h"
#include "solap/expr/row_predicate.h"
#include "solap/seq/sequence_query_engine.h"

namespace solap {
namespace {

/// Group key plus the rows of every sid, in group order: everything a
/// formation hands to the layers above it.
using Dump = std::vector<std::pair<CellKey, std::vector<std::vector<RowId>>>>;

Dump DumpOf(const SequenceGroupSet& set) {
  Dump out;
  for (const SequenceGroup& g : set.groups()) {
    std::vector<std::vector<RowId>> seqs;
    for (Sid s = 0; s < g.num_sequences(); ++s) {
      seqs.emplace_back(g.Rows(s).begin(), g.Rows(s).end());
    }
    out.emplace_back(g.key(), std::move(seqs));
  }
  return out;
}

/// The reference formation over rows [from_row, num_rows).
Dump ReferenceFormation(const EventTable& table, const HierarchyRegistry* reg,
                        const SequenceSpec& spec, const RowFilter* filter,
                        RowId from_row = 0) {
  ExprPtr where = spec.where != nullptr ? spec.where->Clone() : nullptr;
  if (where != nullptr) {
    EXPECT_TRUE(where->Bind(table.schema(), nullptr).ok());
  }
  auto bind = [&](const std::vector<LevelRef>& refs) {
    std::vector<DimensionBinding> out;
    for (const LevelRef& r : refs) {
      out.push_back(*DimensionBinding::MakeForTable(table, reg, r));
    }
    return out;
  };
  const std::vector<DimensionBinding> cluster = bind(spec.cluster_by);
  const std::vector<DimensionBinding> global = bind(spec.group_by);

  std::map<CellKey, std::vector<RowId>> clusters;
  CellKey ckey(cluster.size());
  for (RowId row = from_row; row < table.num_rows(); ++row) {
    if (filter != nullptr && !filter->Keep(table, row)) continue;
    if (where != nullptr && !where->EvalRow(table, row).AsBool()) continue;
    for (size_t i = 0; i < cluster.size(); ++i) {
      ckey[i] = cluster[i].CodeOf(table, row);
    }
    clusters[ckey].push_back(row);
  }
  const int col = table.schema().FieldIndex(spec.sequence_by);
  auto value = [&](RowId r) {
    return table.schema().field(col).type == ValueType::kDouble
               ? table.DoubleAt(r, col)
               : static_cast<double>(table.Int64At(r, col));
  };
  SequenceGroupSet set(&table, spec.group_by, global);
  CellKey gkey(global.size());
  for (auto& [key, rows] : clusters) {
    std::stable_sort(rows.begin(), rows.end(), [&](RowId a, RowId b) {
      return spec.ascending ? value(a) < value(b) : value(b) < value(a);
    });
    for (size_t i = 0; i < global.size(); ++i) {
      gkey[i] = global[i].CodeOf(table, rows.front());
    }
    set.GroupFor(gkey).AddSequence(rows);
  }
  return DumpOf(set);
}

constexpr int64_t kBase = 1'199'145'600;  // 2008-01-01 00:00:00 UTC
constexpr int64_t kDay = 86'400;

Schema EventSchema() {
  return Schema({{"user", ValueType::kString, FieldRole::kDimension},
                 {"city", ValueType::kString, FieldRole::kDimension},
                 {"time", ValueType::kTimestamp, FieldRole::kDimension},
                 {"score", ValueType::kDouble, FieldRole::kMeasure},
                 {"qty", ValueType::kInt64, FieldRole::kMeasure}});
}

std::shared_ptr<HierarchyRegistry> Hierarchies() {
  auto reg = std::make_shared<HierarchyRegistry>();
  auto team = std::make_shared<ConceptHierarchy>(
      std::vector<std::string>{"user", "team"});
  for (int u = 0; u < 80; ++u) {
    (void)team->SetParent(0, "u" + std::to_string(u),
                          "t" + std::to_string(u % 7));
  }
  reg->Register("user", team);
  auto region = std::make_shared<ConceptHierarchy>(
      std::vector<std::string>{"city", "region"});
  for (int c = 0; c < 12; ++c) {
    (void)region->SetParent(0, "c" + std::to_string(c),
                            "r" + std::to_string(c % 3));
  }
  reg->Register("city", region);
  return reg;
}

/// `n` random events of users u<first_user>.. over ten days. Times and
/// scores are coarse, so order values tie; users interleave, so clusters
/// are out of row order. With `monotone` time grows with the row (ties
/// included), so most clusters arrive already ordered.
std::vector<std::vector<Value>> RandomRows(std::mt19937_64& rng, size_t n,
                                           int first_user, int num_users,
                                           bool monotone) {
  std::vector<std::vector<Value>> rows;
  for (size_t i = 0; i < n; ++i) {
    const int64_t t =
        monotone ? kBase + static_cast<int64_t>(i / 8) * 1800
                 : kBase + static_cast<int64_t>(rng() % 120) * 7200;
    rows.push_back(
        {Value::String("u" + std::to_string(first_user +
                                            static_cast<int>(rng() % num_users))),
         Value::String("c" + std::to_string(rng() % 12)),
         Value::Timestamp(t),
         Value::Double(static_cast<double>(rng() % 50) / 2.0 - 5.0),
         Value::Int64(static_cast<int64_t>(rng() % 100) - 20)});
  }
  return rows;
}

ExprPtr Col(const char* name) { return Expr::Col(name); }
ExprPtr Str(const char* s) { return Expr::Lit(Value::String(s)); }

/// Formation specs covering the cluster-key, order and WHERE shapes the
/// rewrite distinguishes.
std::vector<SequenceSpec> Specs() {
  std::vector<SequenceSpec> specs;
  auto add = [&](std::vector<LevelRef> cluster, const char* order, bool asc,
                 std::vector<LevelRef> group, ExprPtr where) {
    SequenceSpec s;
    s.cluster_by = std::move(cluster);
    s.sequence_by = order;
    s.ascending = asc;
    s.group_by = std::move(group);
    s.where = std::move(where);
    specs.push_back(std::move(s));
  };
  // Plain: one string attribute, timestamp order, no WHERE.
  add({{"user", "user"}}, "time", true, {}, nullptr);
  // Multi-attribute cluster, descending double order, calendar grouping.
  add({{"user", "user"}, {"city", "city"}}, "score", false,
      {{"time", "day"}}, nullptr);
  // Hierarchy and calendar cluster keys; AND / OR / NOT with string != and
  // numeric comparisons.
  add({{"user", "team"}, {"time", "day"}}, "time", false, {{"user", "team"}},
      Expr::Or(Expr::And(Expr::Gt(Col("qty"), Expr::Lit(Value::Int64(10))),
                         Expr::Ne(Col("city"), Str("c3"))),
               Expr::Not(Expr::Lt(Col("score"),
                                  Expr::Lit(Value::Double(5.0))))));
  // A string literal absent from the dictionary, int64 order column.
  add({{"city", "region"}, {"time", "week"}}, "qty", true, {},
      Expr::Or(Expr::Eq(Col("city"), Str("nowhere")),
               Expr::Eq(Col("user"), Str("u5"))));
  add({{"user", "user"}}, "time", true, {},
      Expr::Ne(Col("city"), Str("nowhere")));
  // Numeric literals of every type against timestamp / double / int64
  // columns, literal on either side.
  add({{"user", "user"}, {"time", "month"}}, "time", true, {},
      Expr::And(
          Expr::And(Expr::Ge(Col("time"),
                             Expr::Lit(Value::Int64(kBase + 2 * kDay))),
                    Expr::Lt(Col("time"), Expr::Lit(Value::Double(
                                              kBase + 7.5 * kDay)))),
          Expr::Or(Expr::Le(Expr::Lit(Value::Timestamp(-3)), Col("score")),
                   Expr::Eq(Col("qty"), Expr::Lit(Value::Double(7.0))))));
  add({{"user", "user"}}, "score", true, {},
      Expr::Or(Expr::Ge(Col("score"), Expr::Lit(Value::Int64(10))),
               Expr::Not(Expr::Ge(Col("time"), Expr::Lit(Value::Timestamp(
                                                   kBase + 3 * kDay))))));
  // Shapes evaluated through Value: column against column, string order,
  // a bare column as a truth value, string vs number, NULL literal.
  add({{"user", "user"}}, "time", true, {},
      Expr::Or(Expr::And(Expr::Lt(Col("qty"), Col("score")), Col("qty")),
               Expr::And(Expr::Lt(Col("city"), Str("c5")),
                         Expr::Ne(Col("city"), Expr::Lit(Value::Int64(3))))));
  add({{"user", "user"}}, "time", false, {},
      Expr::Or(Expr::Eq(Col("qty"), Expr::Lit(Value::Null())),
               Expr::Ne(Col("user"), Expr::Lit(Value::Null()))));
  add({{"user", "user"}}, "time", true, {},
      Expr::And(Expr::Lit(Value::Int64(1)),
                Expr::Eq(Str("c1"), Col("city"))));
  return specs;
}

class FormationTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FormationTest, MatchesReferenceExactly) {
  std::mt19937_64 rng(GetParam());
  auto reg = Hierarchies();
  EventTable table(EventSchema());
  const bool monotone = GetParam() % 2 == 0;
  ASSERT_TRUE(table.Append(RandomRows(rng, 2500, 0, 80, monotone)).ok());
  const RowFilter retention{2, kBase + 3 * kDay};
  SequenceQueryEngine sqe(reg.get());
  size_t specs_with_rows = 0;
  for (const SequenceSpec& spec : Specs()) {
    for (const RowFilter* filter : {static_cast<const RowFilter*>(nullptr),
                                    &retention}) {
      SCOPED_TRACE(spec.CanonicalString() +
                   (filter != nullptr ? " +retention" : ""));
      auto built = sqe.Build(table, spec, filter);
      ASSERT_TRUE(built.ok()) << built.status().ToString();
      const Dump want = ReferenceFormation(table, reg.get(), spec, filter);
      EXPECT_EQ(DumpOf(**built), want);
      if (!want.empty()) ++specs_with_rows;
    }
    if (spec.where == nullptr) continue;
    // The compiled predicate alone keeps exactly the rows EvalRow accepts.
    auto pred = RowPredicate::Compile(*spec.where, table);
    ASSERT_TRUE(pred.ok()) << pred.status().ToString();
    std::vector<RowId> rows(table.num_rows());
    for (RowId r = 0; r < rows.size(); ++r) rows[r] = r;
    rows.resize(pred->Filter(rows.data(), rows.size()));
    ExprPtr bound = spec.where->Clone();
    ASSERT_TRUE(bound->Bind(table.schema(), nullptr).ok());
    std::vector<RowId> want;
    for (RowId r = 0; r < table.num_rows(); ++r) {
      if (bound->EvalRow(table, r).AsBool()) want.push_back(r);
    }
    EXPECT_EQ(rows, want) << spec.where->ToString();
  }
  EXPECT_GE(specs_with_rows, 15u);
}

TEST_P(FormationTest, IngestExtensionMatchesReference) {
  std::mt19937_64 rng(GetParam());
  auto reg = Hierarchies();
  EventTable table(EventSchema());
  ASSERT_TRUE(table.Append(RandomRows(rng, 1500, 0, 80, false)).ok());
  EngineOptions opts;
  opts.auto_delta_merge = false;
  SOlapEngine engine(&table, reg.get(), opts);
  ASSERT_TRUE(engine.EvictBefore("time", kBase + kDay).ok());
  const RowFilter retention{2, kBase + kDay};

  SequenceSpec spec;
  spec.cluster_by = {{"user", "user"}, {"time", "day"}};
  spec.sequence_by = "score";
  spec.ascending = false;
  spec.group_by = {{"user", "team"}};
  spec.where = Expr::Ne(Col("city"), Str("c4"));
  auto before = engine.GroupsFor(spec);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  Dump want = ReferenceFormation(table, reg.get(), spec, &retention);
  ASSERT_EQ(DumpOf(**before), want);

  // Brand-new users only: the cached formation is extended in place, each
  // new sequence appended at its group's tail in cluster-key order.
  const RowId from_row = static_cast<RowId>(table.num_rows());
  ASSERT_TRUE(engine.IngestRows(RandomRows(rng, 300, 1000, 40, false)).ok());
  EXPECT_EQ(engine.StatsSnapshot().formation_invalidations, 0u);
  const Dump tail =
      ReferenceFormation(table, reg.get(), spec, &retention, from_row);
  ASSERT_FALSE(tail.empty());
  for (const auto& [key, seqs] : tail) {
    auto it = std::find_if(want.begin(), want.end(),
                           [&](const auto& g) { return g.first == key; });
    if (it == want.end()) {
      want.emplace_back(key, seqs);
    } else {
      it->second.insert(it->second.end(), seqs.begin(), seqs.end());
    }
  }
  auto extended = engine.GroupsFor(spec);
  ASSERT_TRUE(extended.ok());
  EXPECT_EQ(extended->get(), before->get());  // grown in place
  EXPECT_EQ(DumpOf(**extended), want);

  // The extension holds the same sequences a rebuild forms; only the order
  // of the appended sids differs.
  auto sorted_groups = [](Dump d) {
    for (auto& [key, seqs] : d) std::sort(seqs.begin(), seqs.end());
    std::sort(d.begin(), d.end());
    return d;
  };
  EXPECT_EQ(sorted_groups(DumpOf(**extended)),
            sorted_groups(ReferenceFormation(table, reg.get(), spec,
                                             &retention)));

  // Rows of existing users splice into formed sequences: the formation is
  // invalidated and rebuilt, which matches the reference sid for sid.
  ASSERT_TRUE(engine.IngestRows(RandomRows(rng, 50, 0, 80, false)).ok());
  EXPECT_GE(engine.StatsSnapshot().formation_invalidations, 1u);
  auto rebuilt = engine.GroupsFor(spec);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(DumpOf(**rebuilt),
            ReferenceFormation(table, reg.get(), spec, &retention));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FormationTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

}  // namespace
}  // namespace solap
