// Tests for regex pattern templates (the §3.2 extension): parsing, NFA
// matching semantics, engine integration and the query-language surface.
#include <gtest/gtest.h>

#include <set>

#include "paper_fixtures.h"
#include "solap/engine/engine.h"
#include "solap/parser/parser.h"
#include "solap/pattern/regex.h"

namespace solap {
namespace {

PatternDim Dim(const std::string& symbol) {
  return PatternDim{symbol, {"symbol", "symbol"}, {}, ""};
}

TEST(RegexParseTest, AcceptsTheDocumentedSyntax) {
  EXPECT_TRUE(RegexTemplate::Parse("X Y", {Dim("X"), Dim("Y")}).ok());
  EXPECT_TRUE(RegexTemplate::Parse("X ( . )* X", {Dim("X")}).ok());
  EXPECT_TRUE(RegexTemplate::Parse("X 'Pentagon'? Y | Y X",
                                   {Dim("X"), Dim("Y")})
                  .ok());
  EXPECT_TRUE(RegexTemplate::Parse("( X | Y )+", {Dim("X"), Dim("Y")}).ok());
}

TEST(RegexParseTest, RejectsBadPatterns) {
  // Undeclared symbol.
  EXPECT_FALSE(RegexTemplate::Parse("X Z", {Dim("X")}).ok());
  // Declared but unused dimension.
  EXPECT_FALSE(RegexTemplate::Parse("X", {Dim("X"), Dim("Y")}).ok());
  // No dimensions at all.
  EXPECT_FALSE(RegexTemplate::Parse("'a'", {}).ok());
  // Unbalanced parenthesis, dangling operator, unterminated literal.
  EXPECT_FALSE(RegexTemplate::Parse("( X", {Dim("X")}).ok());
  EXPECT_FALSE(RegexTemplate::Parse("X )", {Dim("X")}).ok());
  EXPECT_FALSE(RegexTemplate::Parse("X 'oops", {Dim("X")}).ok());
  EXPECT_FALSE(RegexTemplate::Parse("X #", {Dim("X")}).ok());
  // Mixed domains.
  PatternDim other{"Y", {"symbol", "district"}, {}, ""};
  EXPECT_FALSE(RegexTemplate::Parse("X Y", {Dim("X"), other}).ok());
}

class RegexMatchTest : public ::testing::Test {
 protected:
  // Sequence over a tiny alphabet; returns distinct matches as
  // (start, end, bindings...).
  std::set<std::vector<uint32_t>> Matches(const std::string& pattern,
                                          std::vector<PatternDim> dims,
                                          const std::vector<Code>& seq) {
    auto t = RegexTemplate::Parse(pattern, std::move(dims));
    EXPECT_TRUE(t.ok()) << t.status().ToString();
    std::vector<Code> literals;
    for (const std::string& label : t->literal_labels()) {
      literals.push_back(label == "a" ? 0 : label == "b" ? 1 : 2);
    }
    BoundRegex bound(&*t, literals);
    std::set<std::vector<uint32_t>> out;
    bound.ForEachMatch(seq, [&](uint32_t s, uint32_t e, const Code* b) {
      std::vector<uint32_t> rec = {s, e};
      for (size_t d = 0; d < t->num_dims(); ++d) {
        rec.push_back(b[d]);
      }
      out.insert(rec);
      return true;
    }, [](const Code*) { return false; });
    return out;
  }
};

TEST_F(RegexMatchTest, PlainConcatenationEqualsSubstring) {
  // "X Y" over <a,b,a>: (a,b) at 0 and (b,a) at 1.
  auto m = Matches("X Y", {Dim("X"), Dim("Y")}, {0, 1, 0});
  EXPECT_EQ(m.size(), 2u);
  EXPECT_TRUE(m.count({0, 2, 0, 1}));
  EXPECT_TRUE(m.count({1, 3, 1, 0}));
}

TEST_F(RegexMatchTest, SymbolConsistencyAcrossOccurrences) {
  // "X X" over <a,a,b,b,a>: only equal adjacent pairs.
  auto m = Matches("X X", {Dim("X")}, {0, 0, 1, 1, 0});
  EXPECT_EQ(m.size(), 2u);
  EXPECT_TRUE(m.count({0, 2, 0}));
  EXPECT_TRUE(m.count({2, 4, 1}));
}

TEST_F(RegexMatchTest, KleeneStarGapsAndReturn) {
  // "X ( . )* X": return to the same value with any gap.
  // <a,b,c,a>: spans (0,4) value a; also inner none for b/c.
  auto m = Matches("X ( . )* X", {Dim("X")}, {0, 1, 2, 0});
  ASSERT_EQ(m.size(), 1u);
  EXPECT_TRUE(m.count({0, 4, 0}));
  // <a,a,a>: (0,2)a, (1,3)a, (0,3)a.
  auto m2 = Matches("X ( . )* X", {Dim("X")}, {0, 0, 0});
  EXPECT_EQ(m2.size(), 3u);
}

TEST_F(RegexMatchTest, PlusRequiresOneIteration) {
  // "X ( Y )+" with Y bound consistently: <a,b,b,c>:
  // (a, b) span (0,2); (a, b,b) span (0,3); (b,b) at (1,3); (b,c) etc.
  auto m = Matches("X ( Y )+", {Dim("X"), Dim("Y")}, {0, 1, 1, 2});
  // Enumerate: X=0: Y=1 spans (0,2) and (0,3); X=1,Y=1 span (1,3);
  // X=1,Y=2? position 2 is b then c: X=b(1) at pos 2, Y=c span (2,4);
  // X=1(pos1), Y=1(pos2) span (1,3); X=1(pos2),Y=2 span (2,4).
  EXPECT_TRUE(m.count({0, 2, 0, 1}));
  EXPECT_TRUE(m.count({0, 3, 0, 1}));
  EXPECT_TRUE(m.count({1, 3, 1, 1}));
  EXPECT_TRUE(m.count({2, 4, 1, 2}));
  // No zero-iteration match (X alone).
  for (const auto& rec : m) {
    EXPECT_GT(rec[1] - rec[0], 1u);
  }
}

TEST_F(RegexMatchTest, LiteralsAndOptional) {
  // "'a' X? 'b'" over <a,b,a,c,b>: (a,b) at 0 with X unbound; (a,c,b) at 2
  // with X=c.
  auto m = Matches("'a' X? 'b'", {Dim("X")}, {0, 1, 0, 2, 1});
  EXPECT_EQ(m.size(), 2u);
  EXPECT_TRUE(m.count({0, 2, kNullCode}));
  EXPECT_TRUE(m.count({2, 5, 2}));
}

TEST_F(RegexMatchTest, AlternationLeavesBranchDimsUnbound) {
  // "X 'b' | 'b' Y" over <a,b,c>: left arm (a,b) X=a; right arm (b,c) Y=c.
  auto m = Matches("X 'b' | 'b' Y", {Dim("X"), Dim("Y")}, {0, 1, 2});
  EXPECT_EQ(m.size(), 2u);
  EXPECT_TRUE(m.count({0, 2, 0, kNullCode}));
  EXPECT_TRUE(m.count({1, 3, kNullCode, 2}));
}

TEST_F(RegexMatchTest, EpsilonLoopsTerminate) {
  // Pathological nested quantifiers must not hang.
  auto m = Matches("( X? )* 'b'", {Dim("X")}, {0, 1});
  EXPECT_FALSE(m.empty());
}

class RegexEngineTest : public ::testing::Test {
 protected:
  RegexEngineTest()
      : set_(testing::Fig8RawGroups()),
        reg_(testing::Fig8Hierarchies()),
        engine_(set_, reg_.get()) {}

  CuboidSpec Spec(const std::string& pattern,
                  std::vector<std::string> symbols) {
    CuboidSpec s;
    s.regex = pattern;
    for (const std::string& sym : symbols) {
      s.dims.push_back(PatternDim{sym, {"symbol", "symbol"}, {}, ""});
    }
    return s;
  }

  double CellByLabels(const SCuboid& c,
                      const std::vector<std::string>& labels) {
    for (const auto& [key, cell] : c.cells()) {
      bool ok = key.size() == labels.size();
      for (size_t d = 0; ok && d < key.size(); ++d) {
        ok = c.LabelOf(d, key[d]) == labels[d];
      }
      if (ok) return cell.Value(c.agg());
    }
    return -1;
  }

  std::shared_ptr<SequenceGroupSet> set_;
  std::shared_ptr<HierarchyRegistry> reg_;
  SOlapEngine engine_;
};

TEST_F(RegexEngineTest, SimpleRegexAgreesWithSubstringTemplate) {
  auto regex = engine_.Execute(Spec("X Y", {"X", "Y"}));
  ASSERT_TRUE(regex.ok()) << regex.status().ToString();
  CuboidSpec plain;
  plain.symbols = {"X", "Y"};
  plain.dims = {PatternDim{"X", {"symbol", "symbol"}, {}, ""},
                PatternDim{"Y", {"symbol", "symbol"}, {}, ""}};
  auto tmpl = engine_.Execute(plain);
  ASSERT_TRUE(tmpl.ok());
  EXPECT_EQ((*regex)->num_cells(), (*tmpl)->num_cells());
  for (const auto& [key, cell] : (*tmpl)->cells()) {
    EXPECT_EQ((*regex)->CellAt(key).count, cell.count);
  }
}

TEST_F(RegexEngineTest, GappedRoundTrips) {
  // "X ( . )* X": who returns to a previously visited station?
  // s1 = <G,P,P,W,W,P>: P and W return. s2 = <P,W,W,P>: P, W.
  // s4 = <W,C,D,W>: W. s3 = <C,P>: none.
  auto r = engine_.Execute(Spec("X ( . )* X", {"X"}));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(CellByLabels(**r, {"Pentagon"}), 2);  // s1, s2
  EXPECT_EQ(CellByLabels(**r, {"Wheaton"}), 3);   // s1, s2, s4
  EXPECT_EQ(CellByLabels(**r, {"Clarendon"}), -1);
}

TEST_F(RegexEngineTest, RestrictionsApply) {
  // all-matched-go counts every distinct occurrence, matched-go one per
  // instantiation per sequence.
  CuboidSpec spec = Spec("X ( . )* X", {"X"});
  spec.restriction = CellRestriction::kAllMatchedGo;
  auto all = engine_.Execute(spec);
  ASSERT_TRUE(all.ok());
  // s1 = <G,P,P,W,W,P>: P spans (1,3), (1,6), (2,6); W spans (3,5) -> P:3.
  EXPECT_EQ(CellByLabels(**all, {"Pentagon"}), 3 + 1);  // s1:3 + s2:1
}

TEST_F(RegexEngineTest, SliceAndIcebergApply) {
  CuboidSpec spec = Spec("X ( . )* X", {"X"});
  spec.dims[0].fixed_labels = {"Wheaton"};
  auto r = engine_.Execute(spec);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->num_cells(), 1u);
  EXPECT_EQ(CellByLabels(**r, {"Wheaton"}), 3);

  CuboidSpec ice = Spec("X ( . )* X", {"X"});
  ice.iceberg_min_count = 3;
  auto ri = engine_.Execute(ice);
  ASSERT_TRUE(ri.ok());
  EXPECT_EQ((*ri)->num_cells(), 1u);  // only Wheaton reaches 3
}

TEST_F(RegexEngineTest, AutoStrategyRunsRegexDirectly) {
  // kAuto must not route a regex spec through the optimizer (whose cost
  // model is template-based); the regex scanner runs regardless.
  auto r = engine_.Execute(Spec("X ( . )* X", {"X"}), ExecStrategy::kAuto);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(CellByLabels(**r, {"Wheaton"}), 3);
}

TEST_F(RegexEngineTest, PredicateIsRejected) {
  CuboidSpec spec = Spec("X Y", {"X", "Y"});
  spec.placeholders = {"x1", "y1"};
  spec.predicate = Expr::Eq(Expr::PCol("x1", "action"),
                            Expr::Lit(Value::String("in")));
  auto r = engine_.Execute(spec);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotImplemented);
}

TEST(RegexParserTest, PatternKeywordEndToEnd) {
  auto table = testing::Fig8Table();
  auto reg = testing::Fig8Hierarchies();
  SOlapEngine engine(table.get(), reg.get());
  auto spec = ParseQuery(R"(
    SELECT COUNT(*) FROM Event
    CLUSTER BY card-id AT card-id
    SEQUENCE BY time ASCENDING
    CUBOID BY PATTERN "X ( . )* 'Pentagon' | X 'Wheaton'"
      WITH X AS location AT station
      LEFT-MAXIMALITY
  )");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_TRUE(spec->is_regex());
  auto r = engine.Execute(*spec);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT((*r)->num_cells(), 0u);

  // Placeholders with PATTERN are a parse error.
  EXPECT_FALSE(ParseQuery(R"(
    SELECT COUNT(*) FROM Event
    CLUSTER BY card-id AT card-id
    SEQUENCE BY time
    CUBOID BY PATTERN "X" WITH X AS location AT station
      LEFT-MAXIMALITY (x1) WITH x1.action = "in"
  )")
                   .ok());
}

}  // namespace
}  // namespace solap
