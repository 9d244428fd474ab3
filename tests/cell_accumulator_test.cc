// Equivalence of the flat cell accumulator (cube/cell_accumulator.h) and
// the regex matcher's dead-binding prune (pattern/regex.h) with the fold
// they replace: a std::unordered_map keyed by full cell keys plus a
// per-sequence std::unordered_set of instantiations, driven by the regex
// matcher's original allocate-per-start search. The reference folds are
// kept here; every cell's full state (count, sum, min, max) must match
// bit for bit, so the fold order of each cell is checked too.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "solap/cube/cell_accumulator.h"
#include "solap/engine/engine.h"
#include "solap/pattern/matcher.h"
#include "solap/pattern/regex.h"

namespace solap {
namespace {

constexpr int kPages = 12;
constexpr int kCategories = 4;

std::shared_ptr<HierarchyRegistry> PageHierarchy() {
  auto h = std::make_shared<ConceptHierarchy>(
      std::vector<std::string>{"page", "category"});
  for (int p = 0; p < kPages; ++p) {
    (void)h->SetParent(0, "p" + std::to_string(p),
                       "c" + std::to_string(p % kCategories));
  }
  auto reg = std::make_shared<HierarchyRegistry>();
  reg->Register("page", h);
  return reg;
}

Schema ClickSchema() {
  return Schema({
      {"time", ValueType::kTimestamp, FieldRole::kDimension},
      {"user", ValueType::kString, FieldRole::kDimension},
      {"page", ValueType::kString, FieldRole::kDimension},
      {"amount", ValueType::kDouble, FieldRole::kMeasure},
  });
}

// Event rows of `users` users starting at user number `first_user`, over
// two days. Amounts are irregular doubles, so a cell's sum depends on the
// order its assignments are folded in.
std::vector<std::vector<Value>> ClickRows(int first_user, int users,
                                          uint64_t seed) {
  std::mt19937_64 rng(seed);
  const int64_t day0 = MakeTimestamp(2008, 1, 7, 0, 0, 0);
  std::vector<std::vector<Value>> rows;
  for (int u = first_user; u < first_user + users; ++u) {
    int64_t t = day0 + static_cast<int64_t>(u % 2) * 86400 +
                static_cast<int64_t>(rng() % 40000);
    const int len = 2 + static_cast<int>(rng() % 8);
    for (int i = 0; i < len; ++i) {
      // Skewed pages, so sequences repeat values and bindings recur.
      const int page = static_cast<int>(std::min(rng() % kPages,
                                                 rng() % kPages));
      const double amount =
          static_cast<double>(rng() % 100000) / 997.0 - 13.7;
      rows.push_back({Value::Timestamp(t),
                      Value::String("u" + std::to_string(u)),
                      Value::String("p" + std::to_string(page)),
                      Value::Double(amount)});
      t += 1 + static_cast<int64_t>(rng() % 300);
    }
  }
  return rows;
}

std::shared_ptr<EventTable> ClickTable(int users, uint64_t seed) {
  auto table = std::make_shared<EventTable>(ClickSchema());
  for (const auto& row : ClickRows(0, users, seed)) {
    EXPECT_TRUE(table->AppendRow(row).ok());
  }
  return table;
}

CuboidSpec BaseSpec(AggKind agg, CellRestriction restriction) {
  CuboidSpec spec;
  spec.agg = agg;
  if (agg != AggKind::kCount) spec.measure = "amount";
  spec.restriction = restriction;
  spec.seq.cluster_by = {{"user", "user"}};
  spec.seq.sequence_by = "time";
  spec.seq.group_by = {{"time", "day"}};
  return spec;
}

CuboidSpec TemplateSpec(AggKind agg, CellRestriction restriction,
                        PatternKind kind, std::vector<std::string> symbols,
                        const std::string& level) {
  CuboidSpec spec = BaseSpec(agg, restriction);
  spec.kind = kind;
  for (const std::string& sym : symbols) {
    if (spec.DimIndex(sym) < 0) {
      spec.dims.push_back(PatternDim{sym, {"page", level}, {}, ""});
    }
  }
  spec.symbols = std::move(symbols);
  return spec;
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

void ExpectSameCells(const SCuboid& want, const SCuboid& got,
                     const std::string& what) {
  ASSERT_EQ(want.num_cells(), got.num_cells()) << what;
  for (const auto& [key, cell] : want.cells()) {
    auto it = got.cells().find(key);
    ASSERT_NE(it, got.cells().end()) << what;
    EXPECT_EQ(cell.count, it->second.count) << what;
    EXPECT_EQ(Bits(cell.sum), Bits(it->second.sum)) << what;
    EXPECT_EQ(Bits(cell.min), Bits(it->second.min)) << what;
    EXPECT_EQ(Bits(cell.max), Bits(it->second.max)) << what;
  }
}

double MeasureAt(const EventTable& table, int col, RowId row) {
  return table.schema().field(col).type == ValueType::kDouble
             ? table.DoubleAt(row, col)
             : static_cast<double>(table.Int64At(row, col));
}

int MeasureCol(const EventTable& table, const CuboidSpec& spec) {
  return spec.agg == AggKind::kCount
             ? -1
             : *table.schema().RequireField(spec.measure);
}

// The counter-based fold as it was: one CellKey and one map probe per
// assignment, a per-sequence set of instantiations, and the engine's
// partitioning (`pool_threads` workers, chunks merged in order).
SCuboid ReferenceCb(SOlapEngine& engine, const EventTable& table,
                    const HierarchyRegistry* reg, const CuboidSpec& spec,
                    size_t pool_threads) {
  SCuboid out({}, spec.agg);
  auto tmpl = spec.MakeTemplate();
  EXPECT_TRUE(tmpl.ok());
  auto set = engine.GroupsFor(spec.seq);
  EXPECT_TRUE(set.ok());
  const int measure_col = MeasureCol(table, spec);
  const size_t n_dims = tmpl->num_dims();
  const size_t m = tmpl->num_positions();
  for (SequenceGroup& group : (*set)->groups()) {
    auto bp = BoundPattern::Bind(&*tmpl, &group, **set, reg, spec.predicate,
                                 spec.placeholders);
    EXPECT_TRUE(bp.ok());
    auto scan = [&](Sid begin, Sid end, SCuboid* cuboid) {
      std::unordered_set<PatternKey, CodeVecHash> seen;
      PatternKey dim_codes(n_dims);
      for (Sid s = begin; s < end; ++s) {
        seen.clear();
        bp->ForEachOccurrence(s, [&](const uint32_t* idx) {
          for (size_t d = 0; d < n_dims; ++d) {
            size_t fp = static_cast<size_t>(tmpl->first_position_of(d));
            dim_codes[d] = bp->CodeAt(fp, s, idx[fp]);
          }
          if (spec.restriction != CellRestriction::kAllMatchedGo &&
              !seen.insert(dim_codes).second) {
            return true;
          }
          CellKey cell = group.key();
          cell.insert(cell.end(), dim_codes.begin(), dim_codes.end());
          if (measure_col < 0) {
            cuboid->AddCountOnly(cell);
            return true;
          }
          std::span<const RowId> rows = group.Rows(s);
          double v = 0.0;
          if (spec.restriction == CellRestriction::kLeftMaxDataGo) {
            for (RowId row : rows) v += MeasureAt(table, measure_col, row);
          } else {
            for (size_t i = 0; i < m; ++i) {
              v += MeasureAt(table, measure_col, rows[idx[i]]);
            }
          }
          cuboid->Add(cell, v);
          return true;
        });
      }
    };
    const Sid n = static_cast<Sid>(group.num_sequences());
    const size_t threads = std::min<size_t>(pool_threads, n / 1024 + 1);
    if (threads <= 1) {
      scan(0, n, &out);
      continue;
    }
    const Sid chunk = (n + static_cast<Sid>(threads) - 1) /
                      static_cast<Sid>(threads);
    for (size_t t = 0; t < threads; ++t) {
      SCuboid partial({}, spec.agg);
      const Sid begin = static_cast<Sid>(t) * chunk;
      scan(begin, std::min<Sid>(begin + chunk, n), &partial);
      for (const auto& [key, cell] : partial.cells()) out.MergeCell(key, cell);
    }
  }
  return out;
}

// The regex matcher as it was: fresh bindings, on-path marks and emitted
// records per start position, and no pruning.
template <typename Fn>
void OldForEachMatch(const RegexTemplate& tmpl,
                     const std::vector<Code>& literal_codes,
                     std::span<const Code> seq, Fn&& fn) {
  const auto& states = tmpl.states();
  for (uint32_t start = 0; start < seq.size(); ++start) {
    std::vector<Code> bindings(tmpl.num_dims(), kNullCode);
    std::vector<uint8_t> on_path(states.size() * (seq.size() + 1), 0);
    std::vector<std::pair<uint32_t, std::vector<Code>>> emitted;
    auto rec = [&](auto&& self, int state, uint32_t pos) -> void {
      if (state == tmpl.accept_state() && pos > start) {
        bool fresh = true;
        for (const auto& [e, b] : emitted) {
          if (e == pos && b == bindings) fresh = false;
        }
        if (fresh) {
          emitted.emplace_back(pos, bindings);
          fn(start, pos, bindings.data());
        }
      }
      const size_t guard =
          static_cast<size_t>(state) * (seq.size() + 1) + pos;
      if (on_path[guard]) return;
      on_path[guard] = 1;
      for (const RegexTemplate::Edge& edge : states[state]) {
        switch (edge.kind) {
          case RegexTemplate::EdgeKind::kEpsilon:
            self(self, edge.target, pos);
            break;
          case RegexTemplate::EdgeKind::kAny:
            if (pos < seq.size()) self(self, edge.target, pos + 1);
            break;
          case RegexTemplate::EdgeKind::kLiteral:
            if (pos < seq.size() && seq[pos] == literal_codes[edge.index]) {
              self(self, edge.target, pos + 1);
            }
            break;
          case RegexTemplate::EdgeKind::kSymbol: {
            if (pos >= seq.size()) break;
            Code& slot = bindings[edge.index];
            if (slot == kNullCode) {
              slot = seq[pos];
              self(self, edge.target, pos + 1);
              slot = kNullCode;
            } else if (slot == seq[pos]) {
              self(self, edge.target, pos + 1);
            }
            break;
          }
        }
      }
      on_path[guard] = 0;
    };
    rec(rec, tmpl.start_state(), start);
  }
}

// The regex scan as it was, over the old matcher.
SCuboid ReferenceRegex(SOlapEngine& engine, const EventTable& table,
                       const HierarchyRegistry* reg, const CuboidSpec& spec) {
  SCuboid out({}, spec.agg);
  auto tmpl = RegexTemplate::Parse(spec.regex, spec.dims);
  EXPECT_TRUE(tmpl.ok());
  auto set = engine.GroupsFor(spec.seq);
  EXPECT_TRUE(set.ok());
  const int measure_col = MeasureCol(table, spec);
  const size_t n_dims = tmpl->num_dims();
  auto domain = (*set)->BindDimension(reg, tmpl->domain());
  EXPECT_TRUE(domain.ok());
  std::vector<Code> literal_codes;
  for (const std::string& label : tmpl->literal_labels()) {
    literal_codes.push_back(*domain->CodeOfLabel(label));
  }
  std::vector<std::vector<Code>> allowed(n_dims);
  for (size_t d = 0; d < n_dims; ++d) {
    const PatternDim& dim = tmpl->dims()[d];
    if (dim.fixed_labels.empty()) continue;
    allowed[d] = *domain->AllowedCodes(dim.fixed_level, dim.fixed_labels);
    if (allowed[d].empty()) allowed[d].push_back(kNullCode);
  }
  for (SequenceGroup& group : (*set)->groups()) {
    const std::vector<Code>& view = group.ViewFor(*domain);
    std::unordered_set<PatternKey, CodeVecHash> seen;
    for (Sid s = 0; s < group.num_sequences(); ++s) {
      seen.clear();
      OldForEachMatch(*tmpl, literal_codes, group.Symbols(view, s),
                      [&](uint32_t start, uint32_t end, const Code* b) {
        for (size_t d = 0; d < n_dims; ++d) {
          if (!allowed[d].empty() &&
              std::find(allowed[d].begin(), allowed[d].end(), b[d]) ==
                  allowed[d].end()) {
            return;
          }
        }
        PatternKey dim_codes(b, b + n_dims);
        if (spec.restriction != CellRestriction::kAllMatchedGo &&
            !seen.insert(dim_codes).second) {
          return;
        }
        CellKey cell = group.key();
        cell.insert(cell.end(), dim_codes.begin(), dim_codes.end());
        if (measure_col < 0) {
          out.AddCountOnly(cell);
          return;
        }
        std::span<const RowId> rows = group.Rows(s);
        const bool whole =
            spec.restriction == CellRestriction::kLeftMaxDataGo;
        double v = 0.0;
        for (uint32_t i = whole ? 0 : start;
             i < (whole ? rows.size() : end); ++i) {
          v += MeasureAt(table, measure_col, rows[i]);
        }
        out.Add(cell, v);
      });
    }
  }
  return out;
}

std::string Describe(const CuboidSpec& spec) {
  return std::string(AggKindName(spec.agg)) + " " +
         CellRestrictionName(spec.restriction) + " " + spec.CanonicalString();
}

constexpr AggKind kAggs[] = {AggKind::kCount, AggKind::kSum, AggKind::kAvg,
                             AggKind::kMin, AggKind::kMax};
constexpr CellRestriction kRestrictions[] = {
    CellRestriction::kLeftMaxMatchedGo, CellRestriction::kLeftMaxDataGo,
    CellRestriction::kAllMatchedGo};

class CellAccumulatorTest : public ::testing::Test {
 protected:
  CellAccumulatorTest()
      : reg_(PageHierarchy()), table_(ClickTable(2600, 16)) {}

  std::shared_ptr<HierarchyRegistry> reg_;
  std::shared_ptr<EventTable> table_;
};

TEST_F(CellAccumulatorTest, ClaimsOncePerSequenceAndSeedsFromTarget) {
  SCuboid target({}, AggKind::kSum);
  target.Add({7, 1, 2}, 0.25);
  CellAccumulator cells(&target, {7}, 2, /*first_per_sequence=*/true);
  const Code a[] = {1, 2};
  const Code b[] = {2, 1};
  cells.NextSequence();
  CellValue* cell = cells.Claim(a);
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->count, 1);  // seeded from the target's cell
  cell->Add(0.5);
  EXPECT_EQ(cells.Claim(a), nullptr);
  EXPECT_TRUE(cells.ClaimedInSequence(a));
  EXPECT_FALSE(cells.ClaimedInSequence(b));
  cells.NextSequence();
  EXPECT_FALSE(cells.ClaimedInSequence(a));
  ASSERT_NE(cells.Claim(a), nullptr);
  // Enough bindings to grow the table several times.
  for (Code x = 0; x < 2000; ++x) {
    const Code key[] = {100 + x, x};
    cells.Claim(key)->Add(1.0);
  }
  EXPECT_EQ(cells.Claim(a), nullptr);
  cells.Flush();
  EXPECT_EQ(target.num_cells(), 2001u);
  const CellValue merged = target.CellAt({7, 1, 2});
  EXPECT_EQ(merged.count, 2);
  EXPECT_EQ(merged.sum, 0.75);  // the flush overwrote, it did not merge
  EXPECT_EQ(target.CellAt({7, 105, 5}).count, 1);
}

TEST_F(CellAccumulatorTest, CounterBasedMatchesMapFold) {
  EngineOptions pooled;
  pooled.exec_threads = 4;
  struct Shape {
    PatternKind kind;
    std::vector<std::string> symbols;
    const char* level;
  };
  const Shape shapes[] = {
      {PatternKind::kSubstring, {"X", "Y", "Z"}, "page"},
      {PatternKind::kSubstring, {"X", "Y", "X"}, "category"},
      {PatternKind::kSubsequence, {"X", "Y"}, "page"},
  };
  for (const Shape& shape : shapes) {
    for (AggKind agg : kAggs) {
      for (CellRestriction restriction : kRestrictions) {
        CuboidSpec spec = TemplateSpec(agg, restriction, shape.kind,
                                       shape.symbols, shape.level);
        for (size_t threads : {size_t{1}, size_t{4}}) {
          SOlapEngine engine(table_.get(), reg_.get(),
                             threads == 1 ? EngineOptions{} : pooled);
          auto got = engine.Execute(spec, ExecStrategy::kCounterBased);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          SCuboid want =
              ReferenceCb(engine, *table_, reg_.get(), spec, threads);
          ASSERT_GT(want.num_cells(), 0u);
          ExpectSameCells(want, **got,
                          Describe(spec) + " threads=" +
                              std::to_string(threads));
        }
      }
    }
  }
}

TEST_F(CellAccumulatorTest, CounterBasedWithPredicateAndSliceMatchesMapFold) {
  for (CellRestriction restriction : kRestrictions) {
    CuboidSpec spec =
        TemplateSpec(AggKind::kSum, restriction, PatternKind::kSubsequence,
                     {"X", "Y"}, "page");
    spec.dims[0].fixed_labels = {"c1", "c2"};
    spec.dims[0].fixed_level = "category";
    spec.placeholders = {"x1", "y1"};
    spec.predicate =
        Expr::Ne(Expr::PCol("x1", "page"), Expr::PCol("y1", "page"));
    SOlapEngine engine(table_.get(), reg_.get());
    auto got = engine.Execute(spec, ExecStrategy::kCounterBased);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    SCuboid want = ReferenceCb(engine, *table_, reg_.get(), spec, 1);
    ASSERT_GT(want.num_cells(), 0u);
    ExpectSameCells(want, **got, Describe(spec));
  }
}

TEST_F(CellAccumulatorTest, RegexMatchesMapFoldAndUnprunedMatcher) {
  struct Shape {
    const char* regex;
    std::vector<std::string> symbols;
    std::vector<std::string> slice;  // on X, at the category level
  };
  const Shape shapes[] = {
      {"X ( . )* X", {"X"}, {"c0", "c2"}},     // a slice the prune uses
      {"X ( Y | . ) X", {"X", "Y"}, {}},       // Y unbound on one arm
      {"X ( . | Y )+ X", {"X", "Y"}, {}},      // ... and bound further on
      {"X ( . )* Y", {"X", "Y"}, {}},
      {"X Y+ 'c1'", {"X", "Y"}, {}},
  };
  for (const Shape& shape : shapes) {
    for (AggKind agg : kAggs) {
      for (CellRestriction restriction : kRestrictions) {
        CuboidSpec spec = BaseSpec(agg, restriction);
        spec.regex = shape.regex;
        for (const std::string& sym : shape.symbols) {
          spec.dims.push_back(PatternDim{sym, {"page", "category"}, {}, ""});
        }
        spec.dims[0].fixed_labels = shape.slice;
        SOlapEngine engine(table_.get(), reg_.get());
        auto got = engine.Execute(spec);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        SCuboid want = ReferenceRegex(engine, *table_, reg_.get(), spec);
        ASSERT_GT(want.num_cells(), 0u) << shape.regex;
        ExpectSameCells(want, **got, Describe(spec));
      }
    }
  }
}

TEST_F(CellAccumulatorTest, IngestPatchWithSumMatchesRebuild) {
  for (CellRestriction restriction : kRestrictions) {
    CuboidSpec spec = TemplateSpec(AggKind::kSum, restriction,
                                   PatternKind::kSubstring, {"X", "Y"},
                                   "page");
    auto live = ClickTable(2600, 16);
    EngineOptions options;
    options.auto_delta_merge = false;
    SOlapEngine engine(live.get(), reg_.get(), options);
    ASSERT_TRUE(engine.Execute(spec, ExecStrategy::kCounterBased).ok());
    // New users only: the batch appends sequences, and the cached cuboid
    // is patched by scanning them onto a copy of it.
    const auto batch = ClickRows(2600, 300, 99);
    ASSERT_TRUE(engine.IngestRows(batch).ok());
    EXPECT_GT(engine.StatsSnapshot().cuboid_patches, 0u);
    auto patched = engine.Execute(spec, ExecStrategy::kCounterBased);
    ASSERT_TRUE(patched.ok());

    auto full = ClickTable(2600, 16);
    for (const auto& row : batch) ASSERT_TRUE(full->AppendRow(row).ok());
    SOlapEngine fresh(full.get(), reg_.get());
    auto rebuilt = fresh.Execute(spec, ExecStrategy::kCounterBased);
    ASSERT_TRUE(rebuilt.ok());
    ExpectSameCells(**rebuilt, **patched, Describe(spec));
  }
}

TEST_F(CellAccumulatorTest, ChunkedOnlineAggregationMatchesOneShot) {
  for (AggKind agg : kAggs) {
    for (CellRestriction restriction : kRestrictions) {
      CuboidSpec spec = TemplateSpec(agg, restriction,
                                     PatternKind::kSubsequence, {"X", "Y"},
                                     "category");
      SOlapEngine online(table_.get(), reg_.get());
      size_t reports = 0;
      auto chunked = online.ExecuteOnline(
          spec, 97, [&](const SCuboid&, double) { return ++reports > 0; });
      ASSERT_TRUE(chunked.ok()) << chunked.status().ToString();
      EXPECT_GT(reports, 10u);
      SOlapEngine once(table_.get(), reg_.get());
      auto one_shot = once.Execute(spec, ExecStrategy::kCounterBased);
      ASSERT_TRUE(one_shot.ok());
      ExpectSameCells(**one_shot, **chunked, Describe(spec));
    }
  }
}

}  // namespace
}  // namespace solap
