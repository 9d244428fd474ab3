// Fault-injection tests (built only with -DSOLAP_FAILPOINTS=ON): failpoint
// registry semantics, memory-governor accounting, atomic snapshot writes
// under torn-write/sync/rename faults, IO retry, and graceful II→CB query
// degradation with bit-identical results.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "paper_fixtures.h"
#include "solap/common/failpoint.h"
#include "solap/common/mem_budget.h"
#include "solap/common/retry.h"
#include "solap/engine/engine.h"
#include "solap/gen/synthetic.h"
#include "solap/service/query_service.h"
#include "solap/storage/csv.h"
#include "solap/storage/io.h"

#ifndef SOLAP_FAILPOINTS
#error "fault_injection_test requires a -DSOLAP_FAILPOINTS=ON build"
#endif

namespace solap {
namespace {

// Every test leaves the global registry clean.
class FaultTest : public ::testing::Test {
 protected:
  void TearDown() override { FailpointRegistry::Global().DisarmAll(); }

  static FailpointConfig ReturnError(StatusCode code = StatusCode::kInternal) {
    FailpointConfig c;
    c.action = FailpointConfig::Action::kReturnError;
    c.code = code;
    return c;
  }
};

// ----------------------------------------------------------------- Registry

TEST_F(FaultTest, UnarmedFailpointIsFree) {
  EXPECT_TRUE(FailpointEval("no.such.point").ok());
  EXPECT_EQ(FailpointRegistry::Global().Evaluations("no.such.point"), 0u);
}

TEST_F(FaultTest, ArmedFailpointFiresWithNameInMessage) {
  FailpointRegistry::Global().Arm("t.always", ReturnError());
  Status s = FailpointEval("t.always");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_NE(s.message().find("t.always"), std::string::npos);
  EXPECT_EQ(FailpointRegistry::Global().Evaluations("t.always"), 1u);
  EXPECT_EQ(FailpointRegistry::Global().Fires("t.always"), 1u);

  FailpointRegistry::Global().Disarm("t.always");
  EXPECT_TRUE(FailpointEval("t.always").ok());
}

TEST_F(FaultTest, EveryNthFiresOnSchedule) {
  FailpointConfig c = ReturnError();
  c.every_nth = 3;
  FailpointRegistry::Global().Arm("t.nth", c);
  std::vector<bool> fired;
  for (int i = 0; i < 9; ++i) fired.push_back(!FailpointEval("t.nth").ok());
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, false, false, true,
                                      false, false, true}));
  EXPECT_EQ(FailpointRegistry::Global().Fires("t.nth"), 3u);
}

TEST_F(FaultTest, OneShotFiresExactlyOnce) {
  FailpointConfig c = ReturnError();
  c.one_shot = true;
  FailpointRegistry::Global().Arm("t.once", c);
  EXPECT_FALSE(FailpointEval("t.once").ok());
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(FailpointEval("t.once").ok());
  EXPECT_EQ(FailpointRegistry::Global().Fires("t.once"), 1u);
  EXPECT_EQ(FailpointRegistry::Global().Evaluations("t.once"), 11u);
}

TEST_F(FaultTest, ProbabilityIsDeterministicPerSeedAndOrdinal) {
  auto run = [](uint64_t seed) {
    FailpointConfig c;
    c.action = FailpointConfig::Action::kReturnError;
    c.probability = 0.5;
    c.seed = seed;
    FailpointRegistry::Global().Arm("t.prob", c);
    std::vector<bool> fired;
    for (int i = 0; i < 200; ++i) fired.push_back(!FailpointEval("t.prob").ok());
    FailpointRegistry::Global().Disarm("t.prob");
    return fired;
  };
  std::vector<bool> a = run(1234), b = run(1234), c = run(99);
  EXPECT_EQ(a, b) << "same seed must reproduce the same fire pattern";
  EXPECT_NE(a, c) << "different seeds should diverge";
  const size_t fires = static_cast<size_t>(std::count(a.begin(), a.end(), true));
  EXPECT_GT(fires, 60u);
  EXPECT_LT(fires, 140u);
}

TEST_F(FaultTest, DelayActionSleepsThenSucceeds) {
  FailpointConfig c;
  c.action = FailpointConfig::Action::kDelay;
  c.delay_ms = 30;
  FailpointRegistry::Global().Arm("t.delay", c);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(FailpointEval("t.delay").ok());
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, std::chrono::milliseconds(25));
}

TEST_F(FaultTest, ThrowActionThrowsBadAlloc) {
  FailpointConfig c;
  c.action = FailpointConfig::Action::kThrowBadAlloc;
  FailpointRegistry::Global().Arm("t.throw", c);
  EXPECT_THROW((void)FailpointEval("t.throw"), std::bad_alloc);
}

TEST_F(FaultTest, DisarmAllClearsEveryPoint) {
  FailpointRegistry::Global().Arm("t.a", ReturnError());
  FailpointRegistry::Global().Arm("t.b", ReturnError());
  EXPECT_EQ(FailpointRegistry::Global().ArmedNames().size(), 2u);
  FailpointRegistry::Global().DisarmAll();
  EXPECT_TRUE(FailpointRegistry::Global().ArmedNames().empty());
  EXPECT_TRUE(FailpointEval("t.a").ok());
  EXPECT_TRUE(FailpointEval("t.b").ok());
}

// ----------------------------------------------------------------- Governor

TEST_F(FaultTest, GovernorChargesReleasesAndRejects) {
  MemoryGovernor g(1000);
  EXPECT_TRUE(g.TryCharge(600, "test").ok());
  EXPECT_EQ(g.used(), 600u);
  Status reject = g.TryCharge(500, "test");
  EXPECT_EQ(reject.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(g.used(), 600u) << "a failed charge must not reserve anything";
  EXPECT_EQ(g.rejects(), 1u);
  EXPECT_TRUE(g.TryCharge(400, "test").ok());
  g.Release(1000);
  EXPECT_EQ(g.used(), 0u);
  g.Release(50);  // over-release saturates, never wraps
  EXPECT_EQ(g.used(), 0u);
}

TEST_F(FaultTest, GovernorZeroBudgetIsUnlimitedButCounted) {
  MemoryGovernor g;
  EXPECT_TRUE(g.TryCharge(size_t{1} << 40, "test").ok());
  EXPECT_EQ(g.used(), size_t{1} << 40);
  EXPECT_EQ(g.rejects(), 0u);
}

TEST_F(FaultTest, MemChargeFailpointInjectsBudgetPressure) {
  FailpointRegistry::Global().Arm(
      "mem.charge", ReturnError(StatusCode::kResourceExhausted));
  MemoryGovernor g;  // unlimited: only the failpoint can reject
  Status s = g.TryCharge(16, "test");
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(g.rejects(), 1u);
  EXPECT_EQ(g.used(), 0u);
}

// ------------------------------------------------------------ Snapshot + IO

class SnapshotFaultTest : public FaultTest {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "solap_fault_snapshot.bin";
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  void TearDown() override {
    FaultTest::TearDown();
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }

  static bool Exists(const std::string& p) {
    return std::ifstream(p, std::ios::binary).good();
  }

  std::string path_;
};

TEST_F(SnapshotFaultTest, TornWriteNeverCorruptsTheDestination) {
  auto old_table = testing::Fig8Table();
  ASSERT_TRUE(SaveTable(*old_table, path_).ok());

  // The torn-write fault leaves a half-written .tmp behind, as a crash
  // mid-write would; the destination must still hold the old snapshot.
  FailpointConfig torn = ReturnError();
  torn.one_shot = true;
  FailpointRegistry::Global().Arm("io.snapshot.write", torn);
  auto bigger = testing::Fig8Table();
  EXPECT_FALSE(SaveTable(*bigger, path_).ok());

  auto survived = LoadTable(path_);
  ASSERT_TRUE(survived.ok()) << survived.status().ToString();
  EXPECT_EQ((*survived)->num_rows(), old_table->num_rows());

  // After the fault clears, the same save goes through and replaces it.
  ASSERT_TRUE(SaveTable(*bigger, path_).ok());
  EXPECT_TRUE(LoadTable(path_).ok());
  EXPECT_FALSE(Exists(path_ + ".tmp"));
}

TEST_F(SnapshotFaultTest, SyncAndRenameFaultsLeaveNoResidue) {
  auto table = testing::Fig8Table();
  ASSERT_TRUE(SaveTable(*table, path_).ok());
  for (const char* point : {"io.snapshot.sync", "io.snapshot.rename",
                            "io.snapshot.open"}) {
    FailpointConfig c = ReturnError();
    c.one_shot = true;
    FailpointRegistry::Global().Arm(point, c);
    EXPECT_FALSE(SaveTable(*table, path_).ok()) << point;
    EXPECT_TRUE(LoadTable(path_).ok()) << point << ": destination corrupted";
    EXPECT_FALSE(Exists(path_ + ".tmp")) << point << ": stale tmp left";
  }
}

TEST_F(SnapshotFaultTest, RetryRecoversFromTransientWriteFault) {
  auto table = testing::Fig8Table();
  const uint64_t before = SnapshotIoRetries();
  FailpointConfig c = ReturnError();  // kInternal: transient
  c.one_shot = true;
  FailpointRegistry::Global().Arm("io.snapshot.sync", c);
  ASSERT_TRUE(SaveTable(*table, path_, RetryPolicy{}).ok());
  EXPECT_GE(SnapshotIoRetries(), before + 1);

  FailpointConfig r = ReturnError();
  r.one_shot = true;
  FailpointRegistry::Global().Arm("io.snapshot.read", r);
  auto loaded = LoadTable(path_, RetryPolicy{});
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->num_rows(), table->num_rows());
}

TEST_F(SnapshotFaultTest, RetryGivesUpAfterMaxAttempts) {
  auto table = testing::Fig8Table();
  FailpointRegistry::Global().Arm("io.snapshot.sync", ReturnError());
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff = std::chrono::milliseconds(1);
  EXPECT_FALSE(SaveTable(*table, path_, policy).ok());
  EXPECT_EQ(FailpointRegistry::Global().Fires("io.snapshot.sync"), 3u);
}

TEST_F(FaultTest, CsvReadFaultSurfacesMidStream) {
  FailpointConfig c = ReturnError();
  c.every_nth = 2;  // survive line 1, fail on line 2
  FailpointRegistry::Global().Arm("csv.read", c);
  Schema schema({{"t", ValueType::kInt64, FieldRole::kDimension},
                 {"x", ValueType::kString, FieldRole::kDimension}});
  std::istringstream in("t,x\n1,a\n2,b\n3,c\n");
  auto table = LoadCsv(schema, in);
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kInternal);
}

// ------------------------------------------------------ Engine degradation

class DegradeTest : public FaultTest {
 protected:
  DegradeTest() {
    SyntheticParams p;
    p.num_sequences = 2000;
    p.num_symbols = 25;
    p.seed = 7;
    data_ = GenerateSynthetic(p);
  }

  static CuboidSpec XYSpec() {
    CuboidSpec spec;
    spec.symbols = {"X", "Y"};
    spec.dims = {PatternDim{"X", {SyntheticData::kAttr, "symbol"}, {}, ""},
                 PatternDim{"Y", {SyntheticData::kAttr, "symbol"}, {}, ""}};
    return spec;
  }

  // Three positions force the L3 = L2 ⋈ L2 growth step, so the join
  // failpoints actually sit on the executed path.
  static CuboidSpec XYZSpec() {
    CuboidSpec spec = XYSpec();
    spec.symbols.push_back("Z");
    spec.dims.push_back(
        PatternDim{"Z", {SyntheticData::kAttr, "symbol"}, {}, ""});
    return spec;
  }

  std::shared_ptr<const SCuboid> Reference(const CuboidSpec& spec) {
    SOlapEngine engine(data_.groups, data_.hierarchies.get());
    auto r = engine.Execute(spec, ExecStrategy::kCounterBased);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return *r;
  }

  static void ExpectIdentical(const SCuboid& got, const SCuboid& want) {
    ASSERT_EQ(got.num_cells(), want.num_cells());
    for (const auto& [key, cell] : want.cells()) {
      EXPECT_EQ(got.CellAt(key).count, cell.count);
    }
  }

  SyntheticData data_;
};

TEST_F(DegradeTest, TransientIndexFaultDegradesToCbBitIdentically) {
  struct Case {
    const char* point;
    CuboidSpec spec;
  };
  const std::vector<Case> cases = {{"index.build", XYSpec()},
                                   {"index.join", XYZSpec()},
                                   {"join.scratch", XYZSpec()}};
  for (const Case& c : cases) {
    auto want = Reference(c.spec);
    FailpointRegistry::Global().Arm(c.point, ReturnError());
    SOlapEngine engine(data_.groups, data_.hierarchies.get());
    ScanStats stats;
    ExecControl control;
    control.stats_out = &stats;
    auto got = engine.Execute(c.spec, ExecStrategy::kInvertedIndex, control);
    ASSERT_TRUE(got.ok()) << c.point << ": " << got.status().ToString();
    EXPECT_EQ(stats.degraded_queries, 1u) << c.point;
    ExpectIdentical(**got, *want);
    FailpointRegistry::Global().DisarmAll();
  }
}

TEST_F(DegradeTest, BadAllocInsideIiDegradesToCb) {
  auto want = Reference(XYSpec());
  FailpointConfig c;
  c.action = FailpointConfig::Action::kThrowBadAlloc;
  FailpointRegistry::Global().Arm("index.build", c);
  SOlapEngine engine(data_.groups, data_.hierarchies.get());
  ScanStats stats;
  ExecControl control;
  control.stats_out = &stats;
  auto got = engine.Execute(XYSpec(), ExecStrategy::kInvertedIndex, control);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(stats.degraded_queries, 1u);
  ExpectIdentical(**got, *want);
}

TEST_F(DegradeTest, NonTransientErrorsDoNotDegrade) {
  FailpointRegistry::Global().Arm(
      "index.build", ReturnError(StatusCode::kInvalidArgument));
  SOlapEngine engine(data_.groups, data_.hierarchies.get());
  ScanStats stats;
  ExecControl control;
  control.stats_out = &stats;
  auto got = engine.Execute(XYSpec(), ExecStrategy::kInvertedIndex, control);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(stats.degraded_queries, 0u);
}

TEST_F(DegradeTest, DegradedQueriesFlowIntoServiceMetrics) {
  FailpointRegistry::Global().Arm("index.build", ReturnError());
  SOlapEngine engine(data_.groups, data_.hierarchies.get());
  QueryService service(&engine);
  SubmitOptions ii;
  ii.strategy = ExecStrategy::kInvertedIndex;
  QueryResponse resp = service.Run(XYSpec(), ii);
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  EXPECT_EQ(service.metrics().counter("degraded_queries")->Value(), 1u);
  service.RefreshResourceMetrics();
  EXPECT_NE(service.metrics().ToString().find("degraded_queries"),
            std::string::npos);
}

TEST_F(FaultTest, FormationBadAllocIsCaughtAtTheQueryBoundary) {
  // Table-backed engines run sequence formation (raw-group engines skip
  // it); a bad_alloc thrown there must surface as a per-query
  // ResourceExhausted, not a crash — and not a degraded result, since no
  // strategy can answer without the groups.
  auto table = testing::Fig8Table();
  auto reg = testing::Fig8Hierarchies();
  CuboidSpec spec;
  spec.seq.cluster_by = {{"card-id", "card-id"}};
  spec.seq.sequence_by = "time";
  spec.symbols = {"X", "Y"};
  spec.dims = {PatternDim{"X", {"location", "station"}, {}, ""},
               PatternDim{"Y", {"location", "station"}, {}, ""}};

  FailpointConfig c;
  c.action = FailpointConfig::Action::kThrowBadAlloc;
  FailpointRegistry::Global().Arm("engine.formation", c);
  SOlapEngine engine(table.get(), reg.get());
  auto got = engine.Execute(spec, ExecStrategy::kCounterBased);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kResourceExhausted);

  // Disarmed, the same engine answers normally.
  FailpointRegistry::Global().DisarmAll();
  auto ok = engine.Execute(spec, ExecStrategy::kCounterBased);
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

TEST_F(FaultTest, AutoMissFormsItsGroupsOnce) {
  // A one-byte budget refuses to cache the formation, so every GetGroups
  // forms afresh. The optimizer resolves the groups while costing the
  // query and hands them to execution: one miss, one formation.
  auto table = testing::Fig8Table();
  auto reg = testing::Fig8Hierarchies();
  CuboidSpec spec;
  spec.seq.cluster_by = {{"card-id", "card-id"}};
  spec.seq.sequence_by = "time";
  spec.symbols = {"X", "Y"};
  spec.dims = {PatternDim{"X", {"location", "station"}, {}, ""},
               PatternDim{"Y", {"location", "station"}, {}, ""}};

  FailpointConfig never;
  never.probability = 0;  // counts evaluations, never fires
  FailpointRegistry::Global().Arm("engine.formation", never);
  EngineOptions opts;
  opts.memory_budget_bytes = 1;
  SOlapEngine engine(table.get(), reg.get(), opts);
  auto got = engine.Execute(spec, ExecStrategy::kAuto);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(FailpointRegistry::Global().Evaluations("engine.formation"), 1u);
  EXPECT_EQ(FailpointRegistry::Global().Fires("engine.formation"), 0u);
  FailpointRegistry::Global().DisarmAll();

  SOlapEngine unlimited(table.get(), reg.get());
  auto want = unlimited.Execute(spec, ExecStrategy::kCounterBased);
  ASSERT_TRUE(want.ok());
  ASSERT_EQ((*got)->num_cells(), (*want)->num_cells());
  for (const auto& [key, cell] : (*want)->cells()) {
    EXPECT_EQ((*got)->CellAt(key).count, cell.count);
  }
}

TEST_F(FaultTest, SubmitFailpointShedsAtAdmission) {
  SyntheticParams p;
  p.num_sequences = 200;
  p.num_symbols = 10;
  SyntheticData data = GenerateSynthetic(p);
  SOlapEngine engine(data.groups, data.hierarchies.get());
  QueryService service(&engine);

  FailpointConfig c = ReturnError(StatusCode::kResourceExhausted);
  c.one_shot = true;
  FailpointRegistry::Global().Arm("service.submit", c);

  CuboidSpec spec;
  spec.symbols = {"X"};
  spec.dims = {PatternDim{"X", {SyntheticData::kAttr, "symbol"}, {}, ""}};
  QueryResponse shed = service.Run(spec);
  EXPECT_EQ(shed.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(service.metrics().counter("queries_shed")->Value(), 1u);

  QueryResponse ok = service.Run(spec);
  EXPECT_TRUE(ok.status.ok()) << ok.status.ToString();
}

}  // namespace
}  // namespace solap
