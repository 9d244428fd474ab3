// scan: ad-hoc queries larger than the program's caches. Every query is
// stateless: a WHERE request-time window drawn from a seeded pool and a
// template drawn from SUBSTRING of 2-3 symbols, SUBSEQUENCE and a regex
// PATTERN. The engine is a 2-shard in-process ShardedEngine (2 scatter
// threads) under a memory budget smaller than the pool's formations and a
// cuboid repository smaller than the pool's answers, so revisits miss.
// Closed loop, two clients, strategy auto.
#include <algorithm>

#include "bench.h"
#include "solap/parser/parser.h"
#include "workload_util.h"

namespace perfbench {

namespace {

constexpr size_t kSessionsTable = 30'000;  // ~225k click rows
constexpr size_t kClients = 2;
constexpr size_t kShards = 2;
/// Queries per client per second of --seconds.
constexpr double kQueriesPerClientSecond = 17.0;
constexpr size_t kWindowPool = 32;
/// Engine-wide memory budget (split evenly across the shards) and cuboid
/// repository capacity; both far below what the pool's formations and
/// answers need.
constexpr size_t kMemoryBudgetBytes = size_t{64} << 10;
constexpr size_t kRepositoryBytes = size_t{256} << 10;
/// Share of answers sampled for verification (about 20 per 10 s of
/// --seconds).
constexpr double kCheckShare = 0.06;

struct Window {
  int64_t begin = 0;
  int64_t end = 0;
};

/// Windows of 12 to 54 hours (every length equally often, so the work per
/// query does not depend on the seed) at seeded starts, on whole minutes,
/// inside the data's span.
std::vector<Window> WindowPool(const Clickstream& data, uint64_t seed) {
  Rng rng(seed ^ 0x5ca7'0000ULL);
  std::vector<Window> pool;
  const int64_t span = data.last_time - data.first_time;
  for (size_t i = 0; i < kWindowPool; ++i) {
    const int64_t len =
        std::min<int64_t>(span, (12 + 6 * static_cast<int64_t>(i % 8)) * 3600);
    const int64_t begin =
        data.first_time + rng.Below(static_cast<size_t>(span - len + 1));
    pool.push_back({begin - begin % 60, begin - begin % 60 + len});
  }
  return pool;
}

std::string QueryText(const Window& w, size_t tmpl) {
  return ClickQuery(kTemplates[tmpl], "request-time >= " +
                                          TimeLiteral(w.begin) +
                                          " AND request-time < " +
                                          TimeLiteral(w.end));
}

/// Issues `n` queries on one transport (named `client` in the recorded
/// operations): a seeded shuffle of every (window, template) pair of
/// `pool`, cycled, so each run covers the whole pool.
void IssueQueries(Transport* transport, const std::vector<Window>& pool,
                  uint64_t seed, size_t n, bool record,
                  const std::string& client, Recorder* rec) {
  Rng rng(seed);
  std::vector<std::pair<size_t, size_t>> order;
  for (size_t w = 0; w < pool.size(); ++w) {
    for (size_t t = 0; t < kNumTemplates; ++t) order.emplace_back(w, t);
  }
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.Below(i)]);
  }
  for (size_t q = 0; q < n; ++q) {
    const auto [window, tmpl] = order[q % order.size()];
    const std::string text = QueryText(pool[window], tmpl);
    auto spec = solap::ParseQuery(text);
    if (!spec.ok()) {
      rec->Fail("query does not parse: " + spec.status().ToString());
      continue;
    }
    QueryRequest req;
    req.text = text;
    req.spec = &*spec;
    ++rec->attempted;
    const std::string op = client + " query " + std::to_string(q);
    Answer a = transport->Query(req);
    if (!a.ok()) {
      rec->Fail(op + ": " + a.error);
      continue;
    }
    if (!record) continue;
    rec->RecordQuery(op, a);
    if (rng.Uniform() < kCheckShare) {
      rec->checks.push_back(CheckItem{op, *spec, std::move(a)});
    }
  }
}

class Scan : public Workload {
 public:
  const char* name() const override { return "scan"; }
  size_t clients() const override { return kClients; }
  size_t sessions() const override { return kSessionsTable; }

  solap::EngineOptions Options() const override {
    solap::EngineOptions o;
    o.default_strategy = solap::ExecStrategy::kAuto;
    o.shards = kShards;
    o.shard_by = "session-id";
    o.exec_threads = kShards;
    o.memory_budget_bytes = kMemoryBudgetBytes;
    o.repository_capacity_bytes = kRepositoryBytes;
    return o;
  }

  void WarmUp(System& system, const RunContext& ctx) override {
    auto transport = MakeHttpTransport(system.port());
    Recorder rec;
    IssueQueries(transport.get(), WindowPool(*ctx.data, ctx.seed ^ 1),
                 ctx.seed ^ 0x3a11ULL, 2 * kNumTemplates, false, "warm-up",
                 &rec);
    ExitOnWarmUpFailure(rec, name());
  }

  Recorder Run(System&, const RunContext& ctx,
               const std::function<std::unique_ptr<Transport>()>&
                   make_transport) override {
    const std::vector<Window> pool = WindowPool(*ctx.data, ctx.seed);
    const size_t per_client = static_cast<size_t>(
        std::max(1.0, kQueriesPerClientSecond * ctx.seconds));
    return RunClients(kClients, [&](size_t client, Recorder* rec) {
      auto transport = make_transport();
      IssueQueries(transport.get(), pool, ctx.seed * 1000003ULL + client,
                   per_client, true, "client " + std::to_string(client), rec);
    });
  }

  void Verify(System& system, const RunContext&, Recorder* rec) override {
    VerifyChecks(system.table(), system.hierarchies(), rec);
  }
};

}  // namespace

std::unique_ptr<Workload> MakeScan() { return std::make_unique<Scan>(); }

}  // namespace perfbench
