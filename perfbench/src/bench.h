// Shared pieces of the end-to-end benchmark: the hosted system under test,
// the transport a workload client drives it through (loopback HTTP for the
// measured runs, direct in-process calls for the traced replay), the
// per-run recorder.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "datagen.h"
#include "solap/cube/cuboid_spec.h"
#include "solap/engine/sharded_engine.h"
#include "solap/net/server.h"
#include "solap/service/query_service.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// ------------------------------------------------------------- the system

/// Query-service pool threads and HTTP worker threads: one per closed-loop
/// client (every workload has two).
inline constexpr size_t kServiceThreads = 2;

/// The program as a user reaches it: table -> ShardedEngine -> QueryService
/// -> HttpServer(BuildSolapRouter) on an ephemeral loopback port, all
/// hosted in this process. Construction is what setup_s times.
class System {
 public:
  /// Loads `clicks` into a fresh table and builds everything above it.
  System(const Clickstream& data, const std::vector<Click>& clicks,
         const solap::EngineOptions& options);
  ~System();

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  uint16_t port() const { return server_->port(); }
  solap::QueryService& service() { return *service_; }
  solap::ShardedEngine& engine() { return *engine_; }
  const solap::EventTable& table() const { return *table_; }
  const solap::HierarchyRegistry& hierarchies() const { return *hier_; }
  /// Time spent loading rows into the EventTable (storage.load_ms).
  double load_ms() const { return load_ms_; }

 private:
  std::shared_ptr<solap::HierarchyRegistry> hier_;
  std::unique_ptr<solap::EventTable> table_;
  std::unique_ptr<solap::ShardedEngine> engine_;
  std::unique_ptr<solap::QueryService> service_;
  // Declared last: the server stops before the service it routes into.
  std::unique_ptr<solap::net::HttpServer> server_;
  double load_ms_ = 0;
};

// -------------------------------------------------------------- transport

/// One /query request as a workload client issues it.
struct QueryRequest {
  /// Stateless query text, or the session-operation text when `session`
  /// is set (empty text re-runs the session's current spec).
  std::string text;
  bool open_session = false;
  uint64_t session = 0;
  /// Structured form of the session operation (in-process replay).
  solap::SessionOp op;
  /// The spec this request runs, derived client-side (verification, and
  /// the probes after the traced replay). Never sent.
  const solap::CuboidSpec* spec = nullptr;
};

/// One answer as the client sees it: the returned top cells (labels in
/// dimension order) and the cuboid's total cell count.
struct Answer {
  int status = 0;  // HTTP status; 0 = torn connection
  std::string error;
  uint64_t session = 0;
  size_t num_cells = 0;
  std::vector<std::string> dim_names;
  std::vector<std::pair<std::vector<std::string>, double>> cells;
  double exec_ms = 0;       // server-side execution time
  size_t response_bytes = 0;
  double latency_ms = 0;    // client-observed

  bool ok() const { return status == 200; }
  /// Index of the dimension named `name`, or -1.
  int DimIndex(const std::string& name) const;
};

/// Cells the server returns per answer (X-Solap-Limit default).
inline constexpr size_t kAnswerLimit = 100;

/// What a workload client drives. One instance per client thread.
class Transport {
 public:
  virtual ~Transport() = default;
  virtual Answer Query(const QueryRequest& req) = 0;
  /// POST /ingest with a {"rows":[...]} body. Returns the HTTP status
  /// (0 = torn connection) and the client-observed latency.
  virtual int Ingest(const std::string& body, double* latency_ms) = 0;
};

/// The wire bytes of a /query request (what the HTTP client sends and the
/// traced replay feeds to HttpParser).
std::string RenderQueryRequest(const QueryRequest& req);
/// The wire bytes of a /ingest request.
std::string RenderIngestRequest(const std::string& body);

/// Keep-alive loopback HTTP client transport.
std::unique_ptr<Transport> MakeHttpTransport(uint16_t port);

class TraceSink;
/// In-process transport: the calls the HTTP handlers make, traced into
/// `sink`.
std::unique_ptr<Transport> MakeInProcessTransport(System* system,
                                                  TraceSink* sink);

// -------------------------------------------------------------- recording

/// A sampled answer kept for verification against the reference engine.
struct CheckItem {
  std::string label;  // where it came from, for error messages
  solap::CuboidSpec spec;
  Answer answer;
};

/// Per-thread results of a timed phase; merged after the threads join.
struct Recorder {
  std::vector<double> query_ms;
  std::vector<double> ingest_ms;
  std::vector<size_t> response_bytes;
  /// Server-side execution time of each recorded query, keyed by the
  /// operation (who issued it, and when, in the workload's fixed order)
  /// and its answer's cell count: equal keys in two passes name the same
  /// work.
  std::map<std::string, double> exec_ms;
  /// A reader paced by a schedule (live) is busy only part of the timed
  /// phase: the seconds it spent issuing queries, else 0 (the closed-loop
  /// clients are busy for the whole phase).
  double paced_busy_s = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // first few failures, for the log
  std::vector<CheckItem> checks;

  /// Records a successful answer to the operation named `op`.
  void RecordQuery(const std::string& op, const Answer& a);
  void Fail(const std::string& what);
  void Merge(Recorder&& other);
};

// ---------------------------------------------------------------- workloads

/// Everything a workload needs to run once.
struct RunContext {
  const Clickstream* data = nullptr;
  uint64_t seed = 0;
  int seconds = 10;
  /// Set for the traced in-process replay, null for measured runs.
  TraceSink* sink = nullptr;
};

/// The workload-specific half of a run.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;
  virtual solap::EngineOptions Options() const = 0;
  /// Client threads of the timed phase (for the run header).
  virtual size_t clients() const = 0;
  /// Table size the workload generates.
  virtual size_t sessions() const = 0;
  /// The declared warm-up, counted in setup_s.
  virtual void WarmUp(System& system, const RunContext& ctx) = 0;
  /// The fixed, seeded timed work. `make_transport` gives each client
  /// thread its own transport.
  virtual Recorder Run(System& system, const RunContext& ctx,
                       const std::function<std::unique_ptr<Transport>()>&
                           make_transport) = 0;
  /// Checks the recorded samples (and any final state) against a fresh
  /// reference engine; appends mismatches to `rec` as failures.
  virtual void Verify(System& system, const RunContext& ctx,
                      Recorder* rec) = 0;
};

std::unique_ptr<Workload> MakeExplore();
std::unique_ptr<Workload> MakeScan();
std::unique_ptr<Workload> MakeLive();

// ------------------------------------------------------------ verification

/// The reference answer: a fresh monolithic engine over `table` with the CB
/// strategy, no shards, no repository, no index cache.
std::shared_ptr<const solap::SCuboid> ReferenceAnswer(
    const solap::EventTable& table, const solap::HierarchyRegistry& hier,
    const solap::CuboidSpec& spec, std::string* error);

/// Compares what the client received with the reference cuboid: cell
/// count, every returned cell's labels and value, and that the returned
/// values are the reference's top values. Returns "" on a match.
std::string CompareAnswer(const Answer& got, const solap::SCuboid& ref);

/// Verifies every CheckItem of `rec` against a reference built over
/// `table`; mismatches count as failed operations.
void VerifyChecks(const solap::EventTable& table,
                  const solap::HierarchyRegistry& hier, Recorder* rec);

/// The answer the client would have received for `cuboid` (top cells with
/// labels), built the way the /query handler renders it.
Answer AnswerFromCuboid(const solap::SCuboid& cuboid);

// ---------------------------------------------------------------- tracing

/// Accumulates the traced replay: span self-times by span name, the
/// per-query ScanStats, the benchmark's own timings of the public calls the
/// HTTP handlers make, and the specs of the queries it answered.
class TraceSink {
 public:
  /// Folds one recorded span tree (self time = duration minus the part
  /// covered by direct children). An "optimize" span's strategy note is
  /// observed as "optimizer.ii" (1 for the inverted-index strategy).
  void AddTrace(const solap::TraceContext& trace);
  /// Keeps the spec of an answered query for ProbeLayers.
  void AddSpec(const solap::CuboidSpec& spec);
  /// The specs AddSpec kept, in arrival order.
  std::vector<solap::CuboidSpec> specs() const;
  void AddStats(const solap::ScanStats& stats);
  /// Adds one observation of a benchmark-timed quantity.
  void Observe(const std::string& key, double value);

  double SpanSelfMs(const std::string& name) const;
  /// Summed wall time of the spans named `name` (children included).
  double SpanTotalMs(const std::string& name) const;
  /// "# span <name> count=<n> self_ms=<s> total_ms=<t>" per span name, in
  /// name order: the folded trace written out when the run ends.
  std::string SpanTable() const;
  size_t SpanCount(const std::string& name) const;
  /// Sum and count of Observe(key, ...).
  double Sum(const std::string& key) const;
  size_t Count(const std::string& key) const;
  solap::ScanStats stats() const;
  /// Records the formation a probe of `key` returned (in `probe_ms`);
  /// true when the probe formed the groups anew: the set differs from the
  /// last one seen for `key`, or, on the key's first sight, the probe took
  /// longer than a cache lookup can.
  bool NoteFormation(const std::string& key,
                     const std::shared_ptr<solap::SequenceGroupSet>& groups,
                     double probe_ms);

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::weak_ptr<solap::SequenceGroupSet>> formations_;
  struct SpanTotals {
    double self_ms = 0;
    double total_ms = 0;
    size_t count = 0;
  };
  std::map<std::string, SpanTotals> spans_;
  std::map<std::string, std::pair<double, size_t>> observed_;
  solap::ScanStats stats_;
  std::vector<solap::CuboidSpec> specs_;
};

/// The benchmark's own probes, run serially after the traced replay's
/// clients have joined (so neither the replay's spans nor its counters see
/// them). For an evenly spaced sample of the specs `sink` kept, in order:
/// times GroupsFor on every shard (the formation step; observed as
/// "seq.formation_ms" when the groups were formed anew, see
/// NoteFormation), StrategyOptimizer::Choose ("optimizer.choose_us"), and
/// on a sharded engine the wire codec and the gather-side merge on the
/// spec's real per-shard partials ("cube.codec_encode_us",
/// "cube.codec_decode_us", "cube.merge_us"). Observes "probe" once per
/// probed spec.
void ProbeLayers(System* system, TraceSink* sink);

/// Nearest-rank percentile of `v` (sorted copy); 0 for an empty vector.
double Percentile(std::vector<double> v, double p);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
