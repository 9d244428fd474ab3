// Integration tests: full exploratory sessions over generated workloads,
// mirroring the paper's two narratives — the WMATA transit analysis (§1,
// §3) and the Gazelle clickstream analysis (§5.1) — through the query
// language, the engine and the S-OLAP operations.
#include <gtest/gtest.h>

#include "solap/engine/engine.h"
#include "solap/engine/operations.h"
#include "solap/gen/clickstream.h"
#include "solap/gen/transit.h"
#include "solap/parser/parser.h"

namespace solap {
namespace {

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

class TransitSession : public ::testing::Test {
 protected:
  TransitSession() {
    TransitParams p;
    p.num_passengers = 400;
    p.num_days = 3;
    data_ = GenerateTransit(p);
    engine_ = std::make_unique<SOlapEngine>(data_.table.get(),
                                            data_.hierarchies.get());
  }
  TransitData data_;
  std::unique_ptr<SOlapEngine> engine_;
};

// The paper's Q1 through the parser: round-trip distribution per day and
// fare group.
TEST_F(TransitSession, Q1RoundTripsThroughTheQueryLanguage) {
  auto spec = ParseQuery(R"(
    SELECT COUNT(*) FROM Event
    CLUSTER BY card-id AT individual, time AT day
    SEQUENCE BY time ASCENDING
    SEQUENCE GROUP BY card-id AT fare-group, time AT day
    CUBOID BY SUBSTRING (X, Y, Y, X)
      WITH X AS location AT station, Y AS location AT station
      LEFT-MAXIMALITY (x1, y1, y2, x2)
      WITH x1.action = "in" AND y1.action = "out" AND
           y2.action = "in" AND x2.action = "out"
  )");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  auto cb = engine_->Execute(*spec, ExecStrategy::kCounterBased);
  ASSERT_TRUE(cb.ok()) << cb.status().ToString();
  SOlapEngine engine2(data_.table.get(), data_.hierarchies.get());
  auto ii = engine2.Execute(*spec, ExecStrategy::kInvertedIndex);
  ASSERT_TRUE(ii.ok()) << ii.status().ToString();

  // 4D cuboid: (fare-group, day, X, Y); strategies agree cell by cell.
  ASSERT_EQ((*cb)->dims().size(), 4u);
  EXPECT_GT((*cb)->num_cells(), 0u);
  EXPECT_EQ((*cb)->num_cells(), (*ii)->num_cells());
  for (const auto& [key, cell] : (*cb)->cells()) {
    EXPECT_EQ((*ii)->CellAt(key).count, cell.count);
  }
}

// The Q1 -> Q2 exploration: slice the hottest round trip, APPEND X and Z,
// and look at the follow-up trip distribution.
TEST_F(TransitSession, SliceAndAppendFollowUpTrips) {
  auto spec = ParseQuery(R"(
    SELECT COUNT(*) FROM Event
    CLUSTER BY card-id AT individual, time AT day
    SEQUENCE BY time ASCENDING
    CUBOID BY SUBSTRING (X, Y, Y, X)
      WITH X AS location AT station, Y AS location AT station
      LEFT-MAXIMALITY
  )");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  auto q1 = engine_->Execute(*spec);
  ASSERT_TRUE(q1.ok());
  CellKey top = (*q1)->ArgMaxCell();
  ASSERT_FALSE(top.empty());

  auto sliced = ops::SliceToCell(*spec, **q1, top);
  ASSERT_TRUE(sliced.ok());
  auto with_x = ops::Append(*sliced, "X");
  ASSERT_TRUE(with_x.ok());
  auto q2 = ops::Append(*with_x, "Z", {"location", "station"});
  ASSERT_TRUE(q2.ok());
  EXPECT_EQ(q2->symbols,
            (std::vector<std::string>{"X", "Y", "Y", "X", "X", "Z"}));

  auto r = engine_->Execute(*q2);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Every remaining cell keeps the sliced X and Y values.
  for (const auto& [key, cell] : (*r)->cells()) {
    EXPECT_EQ((*r)->LabelOf(0, key[0]), (*q1)->LabelOf(0, top[0]));
    EXPECT_EQ((*r)->LabelOf(1, key[1]), (*q1)->LabelOf(1, top[1]));
  }
  // Follow-up trips exist in the generator (third_trip_prob > 0) and every
  // such trip also contains the sliced round trip, so counts cannot exceed
  // the sliced cell's count.
  EXPECT_GT((*r)->num_cells(), 0u);
  double total = 0;
  for (const auto& [key, cell] : (*r)->cells()) total += cell.count;
  EXPECT_LE(total, (*q1)->CellAt(top).count);
}

// P-ROLL-UP of the destination to districts after a single-trip query.
TEST_F(TransitSession, RollUpDestinationToDistrict) {
  auto spec = ParseQuery(R"(
    SELECT COUNT(*) FROM Event
    CLUSTER BY card-id AT individual, time AT day
    SEQUENCE BY time ASCENDING
    CUBOID BY SUBSTRING (X, Y)
      WITH X AS location AT station, Y AS location AT station
      LEFT-MAXIMALITY (x1, y1)
      WITH x1.action = "in" AND y1.action = "out"
  )");
  ASSERT_TRUE(spec.ok());
  auto fine = engine_->Execute(*spec);
  ASSERT_TRUE(fine.ok());
  auto up = ops::PRollUp(*spec, "Y", *data_.hierarchies);
  ASSERT_TRUE(up.ok());
  auto coarse = engine_->Execute(*up);
  ASSERT_TRUE(coarse.ok()) << coarse.status().ToString();
  // Districts aggregate their stations: total count mass is preserved for
  // the left-maximality COUNT? No — a sequence matching two stations of the
  // same district collapses to one assignment, so coarse <= fine mass, and
  // coarse has fewer cells.
  EXPECT_LT((*coarse)->num_cells(), (*fine)->num_cells());
  double fine_mass = 0, coarse_mass = 0;
  for (const auto& [k, c] : (*fine)->cells()) fine_mass += c.count;
  for (const auto& [k, c] : (*coarse)->cells()) coarse_mass += c.count;
  EXPECT_LE(coarse_mass, fine_mass);
  EXPECT_GT(coarse_mass, 0);
}

// The §5.1 session: Qa (category pairs) -> slice + P-DRILL-DOWN -> Qb
// (product pages) -> APPEND -> Qc (comparison shopping).
TEST(ClickstreamSession, QaQbQcExploration) {
  ClickstreamParams p;
  p.num_sessions = 5000;
  ClickstreamData data = GenerateClickstream(p);
  SOlapEngine engine(data.table.get(), data.hierarchies.get());

  auto qa = ParseQuery(R"(
    SELECT COUNT(*) FROM Event
    CLUSTER BY session-id AT session-id
    SEQUENCE BY request-time ASCENDING
    CUBOID BY SUBSTRING (X, Y)
      WITH X AS page AT page-category, Y AS page AT page-category
      LEFT-MAXIMALITY (x1, y1)
  )");
  ASSERT_TRUE(qa.ok()) << qa.status().ToString();
  auto ra = engine.Execute(*qa);
  ASSERT_TRUE(ra.ok()) << ra.status().ToString();
  double hot = CellByLabels(**ra, {"Assortment", "Legwear"});
  EXPECT_GT(hot, 0);

  // Slice (Assortment -> Legwear) and P-DRILL-DOWN Y to raw pages.
  auto sliced = ops::SlicePattern(*qa, "X", {"Assortment"});
  ASSERT_TRUE(sliced.ok());
  auto sliced2 = ops::SlicePattern(*sliced, "Y", {"Legwear"});
  ASSERT_TRUE(sliced2.ok());
  auto qb = ops::PDrillDown(*sliced2, "Y", *data.hierarchies);
  ASSERT_TRUE(qb.ok());
  auto rb = engine.Execute(*qb);
  ASSERT_TRUE(rb.ok()) << rb.status().ToString();
  // Every Y cell is a Legwear product page; total equals the sliced count.
  double qb_mass = 0;
  for (const auto& [key, cell] : (*rb)->cells()) {
    EXPECT_NE((*rb)->LabelOf(1, key[1]).find("product-id-"),
              std::string::npos);
    qb_mass += cell.count;
  }
  // The drill-down re-distributes the (Assortment, Legwear) sequences over
  // product pages; a sequence may hit several product pages, so the mass
  // can exceed the category-level count, but it must cover it.
  EXPECT_GE(qb_mass, hot);

  // APPEND a comparison page and confirm both strategies agree.
  auto qc = ops::Append(*qb, "Z", {"page", "raw-page"}, "z1");
  ASSERT_TRUE(qc.ok());
  auto rc = engine.Execute(*qc, ExecStrategy::kInvertedIndex);
  ASSERT_TRUE(rc.ok()) << rc.status().ToString();
  SOlapEngine cb_engine(data.table.get(), data.hierarchies.get());
  auto rc_cb = cb_engine.Execute(*qc, ExecStrategy::kCounterBased);
  ASSERT_TRUE(rc_cb.ok());
  EXPECT_EQ((*rc)->num_cells(), (*rc_cb)->num_cells());
  for (const auto& [key, cell] : (*rc_cb)->cells()) {
    EXPECT_EQ((*rc)->CellAt(key).count, cell.count);
  }
}

// A cached filtered index may serve a P-DRILL-DOWN only if its filter is
// the query's. Query A caches a page-category index sliced on Y; query B
// slices Y at raw-page level on a page whose code happens to equal A's
// category code, so the two constraint signatures print alike. B must not
// refine A's lists (that answered 0 cells), and must agree with CB.
TEST(ClickstreamSession, SlicedDrillDownIgnoresOtherLevelSlice) {
  ClickstreamParams p;
  p.num_sessions = 1500;
  ClickstreamData data = GenerateClickstream(p);
  SOlapEngine engine(data.table.get(), data.hierarchies.get());

  auto base = ParseQuery(R"(
    SELECT COUNT(*) FROM Event
    CLUSTER BY session-id AT session-id
    SEQUENCE BY request-time ASCENDING
    CUBOID BY SUBSTRING (X, Y, Z)
      WITH X AS page AT page-category, Y AS page AT page-category,
           Z AS page AT page-category
      LEFT-MAXIMALITY
  )");
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  auto qa = ops::SlicePattern(*base, "Y", {"Account"});
  ASSERT_TRUE(qa.ok());
  auto drilled = ops::PDrillDownTo(*base, "Y", "raw-page");
  ASSERT_TRUE(drilled.ok());
  auto qb = ops::SlicePattern(*drilled, "Y", {"Assortment-page-3"});
  ASSERT_TRUE(qb.ok());

  auto ra = engine.Execute(*qa, ExecStrategy::kInvertedIndex);
  ASSERT_TRUE(ra.ok()) << ra.status().ToString();
  auto rb = engine.Execute(*qb, ExecStrategy::kInvertedIndex);
  ASSERT_TRUE(rb.ok()) << rb.status().ToString();

  SOlapEngine cb_engine(data.table.get(), data.hierarchies.get());
  auto rb_cb = cb_engine.Execute(*qb, ExecStrategy::kCounterBased);
  ASSERT_TRUE(rb_cb.ok()) << rb_cb.status().ToString();
  EXPECT_GT((*rb_cb)->num_cells(), 0u);
  EXPECT_EQ((*rb)->num_cells(), (*rb_cb)->num_cells());
  for (const auto& [key, cell] : (*rb_cb)->cells()) {
    EXPECT_EQ((*rb)->CellAt(key).count, cell.count);
  }
}

}  // namespace
}  // namespace solap
