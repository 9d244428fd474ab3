// Perf-regression harness for the II query path (DESIGN.md "II execution").
//
// Part 1 — kernel microbenches: times each intersection kernel (linear /
// galloping / bitmap / adaptive dispatch) on synthetic sorted-sid lists
// covering the regimes the cost heuristic distinguishes: balanced pairs,
// skewed pairs, dense-list probes. The adaptive dispatcher must never lose
// to the scalar linear merge.
//
// Part 2 — query A/B timings: a QuerySet-A iterative session and a
// QuerySet-B roll-up, each run CB vs scalar-II vs adaptive-II on fresh
// engines, reproducing the paper's §5.2/§5.3 comparisons with the new
// kernels in play. The QuerySet-A entries are medians of interleaved
// repeats (min/max in the JSON), so the adaptive-vs-scalar gate compares
// medians, not single runs.
//
// Part 4 — distributed loopback (when built with SOLAP_SHARD_MAIN_PATH):
// the same sharded query answered by 2 in-process shard executors vs 2
// shard_main child processes over loopback HTTP, pricing the wire path
// (spec encode -> HTTP -> partial decode) against the function call.
//
// Part 5 — ingest throughput: streams round-trip batches into a warmed
// engine (cached formation + inverted indices, so every append pays
// incremental maintenance) with the delta merger kicked on every ingest
// vs deferred entirely, publishing events/sec for both arms
// ("ingest/merge_on", "ingest/merge_off") gated by min_events_per_sec
// floors in thresholds.json.
//
// Part 6 — formation: one WHERE-window formation over a clickstream
// ("formation/window", median of interleaved repeats; published, not yet
// gated), the step every query pays when its groups are not cached.
//
// Part 7 — scans: a counter-based SUBSEQUENCE (X, Y, Z) and a regex
// X ( . )* X over a cached clickstream formation ("cb/scan",
// "regex/scan", medians of interleaved repeats; published, not yet
// gated): the cell-accumulator fold and the regex matcher.
//
// Flags:
//   --quick           smaller data + fewer reps (the CI smoke mode)
//   --json=PATH       write all measurements as JSON (BENCH_ii.json)
//   --check=PATH      compare against a thresholds file (bench/
//                     thresholds.json); exit 1 when any benchmark runs
//                     slower than 2x its recorded baseline, or when a
//                     kernel loses to the scalar baseline / the required
//                     II speedup disappears.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <thread>

#include "bench_util.h"
#include "solap/common/timer.h"
#include "solap/common/trace.h"
#include "solap/engine/sharded_engine.h"
#include "solap/gen/clickstream.h"
#include "solap/gen/synthetic.h"
#include "solap/gen/transit.h"
#include "solap/hierarchy/concept_hierarchy.h"
#include "solap/index/bitmap.h"
#include "solap/index/intersect.h"

#ifdef SOLAP_SHARD_MAIN_PATH
#include <unistd.h>

#include <filesystem>

#include "solap/service/shard_supervisor.h"
#include "solap/storage/hierarchy_io.h"
#include "solap/storage/io.h"
#endif

namespace solap {
namespace bench {
namespace {

struct Entry {
  std::string name;
  /// The median when the entry was timed repeatedly (min_ms/max_ms > 0).
  double ms = 0;
  // Optional context: >0 means "this many times faster than the named
  // reference" (reference stored as its own entry).
  double speedup = 0;
  // Optional throughput: >0 on ingest entries; gated by
  // "min_events_per_sec/<name>" thresholds rather than the 2x ms rule.
  double events_per_sec = 0;
  // Optional spread of a repeated timing (published, never gated).
  double min_ms = 0;
  double max_ms = 0;
};

std::vector<Sid> RandomSorted(size_t n, size_t universe, std::mt19937& rng) {
  // Sample without replacement by stepping: keeps lists sorted and unique.
  std::vector<Sid> out;
  out.reserve(n);
  double p = static_cast<double>(n) / static_cast<double>(universe);
  std::uniform_real_distribution<> coin(0, 1);
  for (size_t s = 0; s < universe && out.size() < n; ++s) {
    if (coin(rng) < p) out.push_back(static_cast<Sid>(s));
  }
  return out;
}

using KernelFn = void (*)(std::span<const Sid>, std::span<const Sid>,
                          std::vector<Sid>&);

double TimeKernel(const std::vector<Sid>& a, const std::vector<Sid>& b,
                  size_t reps, KernelFn fn) {
  std::vector<Sid> out;
  out.reserve(std::min(a.size(), b.size()));
  volatile size_t sink = 0;
  Timer t;
  for (size_t r = 0; r < reps; ++r) {
    fn(a, b, out);
    sink = sink + out.size();
  }
  (void)sink;
  return t.ElapsedMs() / static_cast<double>(reps);
}

// The adaptive dispatcher as the join drives it: universe known (density
// term live) and a scratch encoding reused across repeats, the same
// amortization a join gets from its per-L2-list bitmaps. The first repeat
// pays the encoding build, so the timing includes it amortized.
double TimeAdaptive(const std::vector<Sid>& a, const std::vector<Sid>& b,
                    size_t universe, size_t reps) {
  std::vector<Sid> out;
  out.reserve(std::min(a.size(), b.size()));
  IntersectScratch scratch;
  volatile size_t sink = 0;
  Timer t;
  for (size_t r = 0; r < reps; ++r) {
    IntersectAdaptive(a, b, universe, nullptr, &scratch, out);
    sink = sink + out.size();
  }
  (void)sink;
  return t.ElapsedMs() / static_cast<double>(reps);
}

// Times the three list regimes. Appends one entry per (scenario, kernel).
void RunMicrobenches(bool quick, std::vector<Entry>* entries) {
  std::mt19937 rng(8);
  const size_t scale = quick ? 4 : 1;
  const size_t reps = (quick ? 200 : 2000);
  // The universe shrinks with the list sizes so quick mode keeps the same
  // density classes as full mode — a fixed universe turned quick's
  // "balanced" pairs sparse and flipped the kernels the heuristic picks.
  const size_t universe = (1 << 18) / scale;

  struct Scenario {
    const char* name;
    size_t a_n, b_n;
  };
  const Scenario scenarios[] = {
      {"balanced", universe / 8, universe / 8},
      {"skewed_64x", universe / 256, universe / 4},
      {"needle_4096x", 64, universe / 2},
  };
  std::printf("-- intersection kernels (%zu reps, universe %zu) --\n", reps,
              universe);
  std::printf("%-14s | %12s %12s %12s %12s\n", "scenario", "linear(ms)",
              "gallop(ms)", "bitmap(ms)", "adaptive(ms)");
  for (const Scenario& sc : scenarios) {
    std::vector<Sid> a = RandomSorted(sc.a_n, universe, rng);
    std::vector<Sid> b = RandomSorted(sc.b_n, universe, rng);
    const double linear_ms = TimeKernel(a, b, reps, IntersectLinear);
    const double gallop_ms = TimeKernel(a, b, reps, IntersectGallopingSimd);
    Bitmap bm = Bitmap::FromSids(b, universe);
    std::vector<Sid> out;
    Timer t;
    for (size_t r = 0; r < reps; ++r) IntersectBitmap(a, bm, out);
    const double bitmap_ms = t.ElapsedMs() / static_cast<double>(reps);
    const double adaptive_ms = TimeAdaptive(a, b, universe, reps);
    std::printf("%-14s | %12.4f %12.4f %12.4f %12.4f\n", sc.name, linear_ms,
                gallop_ms, bitmap_ms, adaptive_ms);
    const std::string base = std::string("kernel/") + sc.name;
    entries->push_back({base + "/linear", linear_ms, 0});
    entries->push_back({base + "/galloping", gallop_ms, linear_ms / gallop_ms});
    entries->push_back({base + "/bitmap", bitmap_ms, linear_ms / bitmap_ms});
    entries->push_back({base + "/adaptive", adaptive_ms,
                        linear_ms / adaptive_ms});
  }
}

EngineOptions WithKernels(bool adaptive) {
  EngineOptions o;
  o.default_strategy = ExecStrategy::kInvertedIndex;
  o.adaptive_join_kernels = adaptive;
  return o;
}

// Repeats of the QuerySet-A session per strategy arm.
constexpr size_t kQaRepeats = 5;

double MedianOf(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// QuerySet-A iterative session (paper §5.2) and a QuerySet-B roll-up
// (§5.3), each CB vs scalar-II vs adaptive-II on fresh engines. The QA
// session runs kQaRepeats times per arm, the arms interleaved (their order
// rotating per repeat) so a slow stretch of the machine hits all three
// alike; each query publishes its median, with min/max in the JSON.
void RunQuerysets(bool quick, std::vector<Entry>* entries) {
  SyntheticParams p;
  p.num_sequences = quick ? 6000 : 50000;
  p.num_symbols = 30;
  p.mean_length = 10;
  p.num_groups = 4;
  SyntheticData data = GenerateSynthetic(p);
  const LevelRef sym{SyntheticData::kAttr, "symbol"};
  const size_t L = quick ? 3 : 5;

  CuboidSpec qa1;
  qa1.symbols = {"X", "Y"};
  qa1.dims = {PatternDim{"X", sym, {}, ""}, PatternDim{"Y", sym, {}, ""}};

  struct Arm {
    const char* suffix;
    ExecStrategy strategy;
    bool adaptive;
    std::vector<std::vector<double>> ms;  // [query][repeat]
  };
  Arm arms[] = {{"cb", ExecStrategy::kCounterBased, true, {}},
                {"ii_scalar", ExecStrategy::kInvertedIndex, false, {}},
                {"ii", ExecStrategy::kInvertedIndex, true, {}}};
  constexpr size_t kArms = std::size(arms);
  size_t num_queries = L;
  for (size_t rep = 0; rep < kQaRepeats; ++rep) {
    for (size_t k = 0; k < kArms; ++k) {
      Arm& arm = arms[(rep + k) % kArms];
      SOlapEngine engine(data.groups, data.hierarchies.get(),
                         WithKernels(arm.adaptive));
      auto session = RunQaSession(engine, arm.strategy, qa1, L, sym);
      num_queries = std::min(num_queries, session.size());
      arm.ms.resize(std::max(arm.ms.size(), session.size()));
      for (size_t q = 0; q < session.size(); ++q) {
        arm.ms[q].push_back(session[q].runtime_ms);
      }
    }
  }
  std::printf("\n-- queryset A (L=%zu, n=%zu, median of %zu) --\n", L,
              p.num_sequences, kQaRepeats);
  std::printf("%-6s | %12s %14s %15s | %10s\n", "query", "CB(ms)",
              "II-scalar(ms)", "II-adaptive(ms)", "II-speedup");
  for (size_t q = 0; q < num_queries; ++q) {
    double median[kArms];
    for (size_t k = 0; k < kArms; ++k) median[k] = MedianOf(arms[k].ms[q]);
    const double speedup = median[2] > 0 ? median[0] / median[2] : 0;
    const std::string label = "QA" + std::to_string(q + 1);
    std::printf("%-6s | %12.2f %14.2f %15.2f | %9.2fx\n", label.c_str(),
                median[0], median[1], median[2], speedup);
    for (size_t k = 0; k < kArms; ++k) {
      const auto [lo, hi] =
          std::minmax_element(arms[k].ms[q].begin(), arms[k].ms[q].end());
      Entry e{"qa/" + label + "/" + arms[k].suffix, median[k],
              k == 2 ? speedup : 0};
      e.min_ms = *lo;
      e.max_ms = *hi;
      entries->push_back(e);
    }
  }

  // QuerySet B: fine-level query warms the cache, the coarse follow-up is
  // answered by P-ROLL-UP list merging (II) vs a fresh scan (CB).
  CuboidSpec fine = qa1;
  CuboidSpec coarse = qa1;
  coarse.dims[0].ref = {SyntheticData::kAttr, "group"};
  coarse.dims[1].ref = {SyntheticData::kAttr, "group"};
  SOlapEngine cb2(data.groups, data.hierarchies.get());
  SOlapEngine ii2(data.groups, data.hierarchies.get(), WithKernels(true));
  RunQuery(ii2, fine, ExecStrategy::kInvertedIndex, "QB-warm");
  Measurement qb_cb =
      RunQuery(cb2, coarse, ExecStrategy::kCounterBased, "QB-rollup");
  Measurement qb_ii =
      RunQuery(ii2, coarse, ExecStrategy::kInvertedIndex, "QB-rollup");
  const double qb_speedup =
      qb_ii.runtime_ms > 0 ? qb_cb.runtime_ms / qb_ii.runtime_ms : 0;
  std::printf("\n-- queryset B roll-up --\n");
  std::printf("CB %.2f ms, II (P-ROLL-UP) %.2f ms, speedup %.2fx\n",
              qb_cb.runtime_ms, qb_ii.runtime_ms, qb_speedup);
  entries->push_back({"qb/rollup/cb", qb_cb.runtime_ms, 0});
  entries->push_back({"qb/rollup/ii", qb_ii.runtime_ms, qb_speedup});
}

// Part 3 — shard-count sweep: the same balanced QuerySet-A session run on
// ShardedEngines with 1/2/4/8 shards (CB, scan-bound: the workload that
// scales with shard-local executors). Publishes per-count times, the best
// sharded speedup over 1 shard ("qa/balanced/sharded", gated by
// min_speedup in thresholds.json), a scatter/gather wall-time breakdown
// from a traced query, and "hw_threads" so the perf gate can skip the
// speedup floor on boxes without enough cores to scatter onto.
void RunShardSweep(bool quick, std::vector<Entry>* entries) {
  SyntheticParams p;
  p.num_sequences = quick ? 6000 : 50000;
  p.num_symbols = 30;
  p.mean_length = 10;
  p.num_groups = 4;
  p.seed = 43;
  SyntheticData data = GenerateSynthetic(p);
  const LevelRef sym{SyntheticData::kAttr, "symbol"};
  const size_t L = quick ? 3 : 5;

  CuboidSpec qa1;
  qa1.symbols = {"X", "Y"};
  qa1.dims = {PatternDim{"X", sym, {}, ""}, PatternDim{"Y", sym, {}, ""}};

  const size_t shard_counts[] = {1, 2, 4, 8};
  double t1 = 0, best_ms = 0, best_speedup = 0;
  size_t best_shards = 1;
  std::printf("\n-- shard-count sweep (CB session, L=%zu, n=%zu) --\n", L,
              p.num_sequences);
  std::printf("%-8s | %12s %10s\n", "shards", "time(ms)", "vs 1-shard");
  for (size_t n : shard_counts) {
    EngineOptions opts;
    opts.shards = n;
    ShardedEngine engine(data.groups, data.hierarchies.get(), opts);
    auto session =
        RunQaSession(engine, ExecStrategy::kCounterBased, qa1, L, sym);
    double total_ms = 0;
    for (const Measurement& m : session) total_ms += m.runtime_ms;
    if (n == 1) t1 = total_ms;
    const double speedup = total_ms > 0 ? t1 / total_ms : 0;
    std::printf("%-8zu | %12.2f %9.2fx\n", n, total_ms, speedup);
    entries->push_back({"qa/balanced/shards" + std::to_string(n), total_ms,
                        n == 1 ? 0 : speedup});
    if (n > 1 && (best_ms == 0 || total_ms < best_ms)) {
      best_ms = total_ms;
      best_speedup = speedup;
      best_shards = n;
    }
  }
  entries->push_back({"qa/balanced/sharded", best_ms, best_speedup});

  // Scatter/gather breakdown: one traced query on a fresh engine with the
  // winning shard count (fresh so the facade repository cannot absorb it).
  EngineOptions opts;
  opts.shards = best_shards;
  ShardedEngine traced(data.groups, data.hierarchies.get(), opts);
  TraceContext trace;
  ExecControl control;
  control.trace = &trace;
  auto r = traced.Execute(qa1, ExecStrategy::kCounterBased, control);
  if (!r.ok()) {
    std::fprintf(stderr, "traced sweep query failed: %s\n",
                 r.status().ToString().c_str());
    std::exit(1);
  }
  double scatter_ms = 0, gather_ms = 0;
  for (const auto& span : trace.Snapshot()) {
    if (span.name == "shard.scatter") scatter_ms += span.dur_ns / 1e6;
    if (span.name == "shard.gather") gather_ms += span.dur_ns / 1e6;
  }
  std::printf("best: %zu shards %.2fx (scatter %.3f ms, gather %.3f ms)\n",
              best_shards, best_speedup, scatter_ms, gather_ms);
  entries->push_back({"qa/balanced/sharded/scatter", scatter_ms, 0});
  entries->push_back({"qa/balanced/sharded/gather", gather_ms, 0});
  entries->push_back(
      {"hw_threads",
       static_cast<double>(std::thread::hardware_concurrency()), 0});
}

// Part 4 — distributed loopback: one transit FP-SUM pair query executed
// repeatedly (coordinator + shard repositories disabled, so every rep pays
// the full scatter) on (a) a 2-shard in-process engine and (b) the same
// coordinator scattering to 2 shard_main child processes over loopback
// HTTP. Publishes both wall times, the loopback/in-process ratio (as the
// "speedup" of dist/loopback — expected < 1: the wire costs something),
// and the per-query RPC overhead in ms. No threshold gates these: loopback
// latency is too environment-sensitive for a 2x floor.
#ifdef SOLAP_SHARD_MAIN_PATH
void RunDistributedLoopback(bool quick, std::vector<Entry>* entries) {
  TransitParams p;
  p.num_passengers = quick ? 2000 : 8000;
  p.num_days = quick ? 3 : 7;
  p.seed = 7;
  TransitData data = GenerateTransit(p);

  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("solap_bench_dist_" + std::to_string(::getpid())))
          .string();
  std::filesystem::create_directories(dir);
  const std::string table_path = dir + "/table.solap";
  const std::string hier_path = dir + "/hier.json";
  if (!SaveTable(*data.table, table_path).ok() ||
      !SaveHierarchies(*data.hierarchies, hier_path).ok()) {
    std::fprintf(stderr, "distributed loopback: snapshot save failed\n");
    return;
  }

  constexpr size_t kShards = 2;
  std::vector<ShardProcessSpec> specs;
  for (size_t i = 0; i < kShards; ++i) {
    ShardProcessSpec spec;
    spec.args = {SOLAP_SHARD_MAIN_PATH,
                 "--table",      table_path,
                 "--hier",       hier_path,
                 "--shard",      std::to_string(i),
                 "--num-shards", std::to_string(kShards),
                 "--shard-by",   "card-id"};
    spec.port_file = dir + "/shard" + std::to_string(i) + ".port";
    specs.push_back(std::move(spec));
  }
  ShardSupervisor supervisor(std::move(specs), {});
  Status started = supervisor.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "distributed loopback skipped: %s\n",
                 started.ToString().c_str());
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    return;
  }

  CuboidSpec spec;
  spec.agg = AggKind::kSum;
  spec.measure = "amount";
  spec.seq.cluster_by = {{"card-id", "individual"}};
  spec.seq.sequence_by = "time";
  spec.symbols = {"X", "Y"};
  spec.dims = {PatternDim{"X", {"location", "station"}, {}, ""},
               PatternDim{"Y", {"location", "station"}, {}, ""}};

  EngineOptions opts;
  opts.shards = kShards;
  opts.shard_by = "card-id";
  opts.exec_threads = kShards;
  opts.repository_capacity_bytes = 0;
  ShardedEngine in_process(data.table.get(), data.hierarchies.get(), opts);
  ShardedEngine distributed(data.table.get(), data.hierarchies.get(), opts);
  Status remote = distributed.EnableRemoteScatter(supervisor.endpoints());
  if (!remote.ok()) {
    std::fprintf(stderr, "distributed loopback skipped: %s\n",
                 remote.ToString().c_str());
    supervisor.Stop();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    return;
  }

  const size_t reps = quick ? 5 : 20;
  auto time_session = [&](ShardedEngine& engine) -> double {
    // One warm-up outside the clock (dictionary/page faults, connection
    // establishment on the remote side).
    auto warm = engine.Execute(spec, ExecStrategy::kCounterBased);
    if (!warm.ok()) {
      std::fprintf(stderr, "distributed loopback query failed: %s\n",
                   warm.status().ToString().c_str());
      return -1;
    }
    Timer t;
    for (size_t r = 0; r < reps; ++r) {
      auto res = engine.Execute(spec, ExecStrategy::kCounterBased);
      if (!res.ok()) {
        std::fprintf(stderr, "distributed loopback query failed: %s\n",
                     res.status().ToString().c_str());
        return -1;
      }
    }
    return t.ElapsedMs();
  };

  const double inproc_ms = time_session(in_process);
  const double loopback_ms = time_session(distributed);
  supervisor.Stop();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  if (inproc_ms < 0 || loopback_ms < 0) return;

  const double ratio = loopback_ms > 0 ? inproc_ms / loopback_ms : 0;
  const double overhead_ms =
      (loopback_ms - inproc_ms) / static_cast<double>(reps);
  std::printf("\n-- distributed loopback (2 shards, %zu reps, n=%zu) --\n",
              reps, p.num_passengers);
  std::printf(
      "in-process %.2f ms, loopback %.2f ms (%.2fx), rpc overhead "
      "%.3f ms/query\n",
      inproc_ms, loopback_ms, ratio, overhead_ms);
  entries->push_back({"dist/inproc", inproc_ms, 0});
  entries->push_back({"dist/loopback", loopback_ms, ratio});
  entries->push_back({"dist/loopback/rpc_overhead", overhead_ms, 0});
}
#endif  // SOLAP_SHARD_MAIN_PATH

// Part 5 — ingest throughput. One arm per merger policy, each on a fresh
// transit table (IngestRows mutates it): warm a pair query so the engine
// holds a cached formation + complete inverted indices, then stream
// round-trip batches of brand-new card-ids — the extension path every
// append-mostly workload lives on — and report events/sec. "merge_on"
// kicks the background merger after every ingest (delta_merge_bytes = 0),
// so its number prices continuous folding; "merge_off" defers all merging,
// pricing pure delta growth. A closing query on each arm keeps the run
// honest (the ingested events must be visible).
void RunIngestThroughput(bool quick, std::vector<Entry>* entries) {
  TransitParams p;
  p.num_passengers = quick ? 800 : 4000;
  p.num_days = 2;
  p.seed = 11;

  CuboidSpec spec;
  spec.seq.cluster_by = {{"card-id", "individual"}};
  spec.seq.sequence_by = "time";
  spec.symbols = {"X", "Y"};
  spec.dims = {PatternDim{"X", {"location", "station"}, {}, ""},
               PatternDim{"Y", {"location", "station"}, {}, ""}};

  const size_t batches = quick ? 250 : 2500;
  constexpr size_t kRowsPerBatch = 4;  // one round trip per new card
  const int64_t t0 = MakeTimestamp(2007, 10, 20, 6, 0, 0);  // past the window

  std::printf("\n-- ingest throughput (%zu batches x %zu events) --\n",
              batches, kRowsPerBatch);
  auto run_arm = [&](bool merge_on) -> double {
    TransitData data = GenerateTransit(p);
    EngineOptions opts;
    opts.auto_delta_merge = merge_on;
    if (merge_on) opts.delta_merge_bytes = 0;  // fold after every ingest
    SOlapEngine engine(data.table.get(), data.hierarchies.get(), opts);
    auto warm = engine.Execute(spec, ExecStrategy::kInvertedIndex);
    if (!warm.ok()) {
      std::fprintf(stderr, "ingest warm-up query failed: %s\n",
                   warm.status().ToString().c_str());
      std::exit(1);
    }
    const size_t cells_before = (*warm)->num_cells();
    Timer t;
    for (size_t b = 0; b < batches; ++b) {
      const std::string card =
          "live-" + std::to_string(merge_on) + "-" + std::to_string(b);
      const int64_t base = t0 + static_cast<int64_t>(b) * 180;
      Status s = engine.IngestRows({
          {Value::Timestamp(base), Value::String(card),
           Value::String("Pentagon"), Value::String("in"), Value::Double(0)},
          {Value::Timestamp(base + 30 * 60), Value::String(card),
           Value::String("Clarendon"), Value::String("out"),
           Value::Double(-2.0)},
          {Value::Timestamp(base + 9 * 3600), Value::String(card),
           Value::String("Clarendon"), Value::String("in"), Value::Double(0)},
          {Value::Timestamp(base + 9 * 3600 + 30 * 60), Value::String(card),
           Value::String("Pentagon"), Value::String("out"),
           Value::Double(-2.0)},
      });
      if (!s.ok()) {
        std::fprintf(stderr, "ingest failed: %s\n", s.ToString().c_str());
        std::exit(1);
      }
    }
    const double ms = t.ElapsedMs();
    auto after = engine.Execute(spec, ExecStrategy::kInvertedIndex);
    if (!after.ok() || (*after)->num_cells() < cells_before) {
      std::fprintf(stderr, "post-ingest query lost cells\n");
      std::exit(1);
    }
    const double eps =
        ms > 0 ? static_cast<double>(batches * kRowsPerBatch) / (ms / 1e3)
               : 0;
    std::printf("merge %-3s | %10.2f ms %12.0f events/s (epoch %llu)\n",
                merge_on ? "on" : "off", ms, eps,
                static_cast<unsigned long long>(engine.epoch()));
    entries->push_back({std::string("ingest/merge_") +
                            (merge_on ? "on" : "off"),
                        ms, 0, eps});
    return eps;
  };
  run_arm(true);
  run_arm(false);
}

// Part 6 — formation. SequenceQueryEngine::Build of a request-time window a
// quarter of the log's span long, clustered by session and ordered by
// request time: what a query pays when the sequence cache cannot hold its
// groups. Each repeat forms all four quarters in a rotating order, so a
// slow stretch of the machine hits every window alike; the entry is the
// median over all of them, with min/max in the JSON.
void RunFormation(bool quick, std::vector<Entry>* entries) {
  ClickstreamParams p;
  p.num_sessions = quick ? 10'000 : 40'000;
  p.mean_session_length = 8;
  ClickstreamData data = GenerateClickstream(p);
  const EventTable& table = *data.table;
  const int time_col = table.schema().FieldIndex("request-time");
  const int64_t first = table.Int64At(0, time_col);
  const int64_t quarter =
      (table.Int64At(static_cast<RowId>(table.num_rows() - 1), time_col) -
       first) / 4;
  constexpr size_t kWindows = 4;
  std::vector<SequenceSpec> specs(kWindows);
  for (size_t w = 0; w < kWindows; ++w) {
    const int64_t begin = first + static_cast<int64_t>(w) * quarter;
    specs[w].where = Expr::And(
        Expr::Ge(Expr::Col("request-time"),
                 Expr::Lit(Value::Timestamp(begin))),
        Expr::Lt(Expr::Col("request-time"),
                 Expr::Lit(Value::Timestamp(begin + quarter))));
    specs[w].cluster_by = {{"session-id", "session-id"}};
    specs[w].sequence_by = "request-time";
  }
  SequenceQueryEngine sqe(data.hierarchies.get());
  std::vector<double> ms;
  size_t sequences = 0;
  for (size_t rep = 0; rep < (quick ? 5u : 15u); ++rep) {
    for (size_t k = 0; k < kWindows; ++k) {
      Timer t;
      auto set = sqe.Build(table, specs[(rep + k) % kWindows]);
      ms.push_back(t.ElapsedMs());
      if (!set.ok()) {
        std::fprintf(stderr, "formation failed: %s\n",
                     set.status().ToString().c_str());
        std::exit(1);
      }
      sequences = (*set)->total_sequences();
    }
  }
  const auto [lo, hi] = std::minmax_element(ms.begin(), ms.end());
  Entry e{"formation/window", MedianOf(ms)};
  e.min_ms = *lo;
  e.max_ms = *hi;
  std::printf("\n-- formation (%zu rows, quarter-span window, %zu reps) --\n",
              table.num_rows(), ms.size());
  std::printf("median %.3f ms (min %.3f, max %.3f), ~%zu sequences\n", e.ms,
              e.min_ms, e.max_ms, sequences);
  entries->push_back(e);
}

// Part 7 — scans. One engine with its cuboid repository off, so every
// repeat rescans the cached formation: a counter-based SUBSEQUENCE
// (X, Y, Z) at page-category and a regex X ( . )* X at page-category, both
// LEFT-MAXIMALITY COUNT. The two queries alternate (their order flips each
// repeat) and each entry is the median of its repeats, min/max in the JSON.
void RunScans(bool quick, std::vector<Entry>* entries) {
  ClickstreamParams p;
  p.num_sessions = quick ? 10'000 : 40'000;
  p.mean_session_length = 8;
  ClickstreamData data = GenerateClickstream(p);
  EngineOptions options;
  options.repository_capacity_bytes = 0;
  SOlapEngine engine(data.table.get(), data.hierarchies.get(), options);
  auto spec_for = [](std::vector<std::string> symbols, std::string regex) {
    CuboidSpec spec;
    spec.seq.cluster_by = {{"session-id", "session-id"}};
    spec.seq.sequence_by = "request-time";
    spec.kind = PatternKind::kSubsequence;
    spec.regex = std::move(regex);
    for (const std::string& sym : symbols) {
      spec.dims.push_back(PatternDim{sym, {"page", "page-category"}, {}, ""});
    }
    if (spec.regex.empty()) spec.symbols = std::move(symbols);
    return spec;
  };
  struct Arm {
    const char* name;
    CuboidSpec spec;
    std::vector<double> ms;
    size_t cells = 0;
  };
  std::vector<Arm> arms;
  arms.push_back({"cb/scan", spec_for({"X", "Y", "Z"}, ""), {}, 0});
  arms.push_back({"regex/scan", spec_for({"X"}, "X ( . )* X"), {}, 0});
  for (Arm& arm : arms) {  // warm-up: forms and caches the groups
    if (!engine.Execute(arm.spec, ExecStrategy::kCounterBased).ok()) {
      std::fprintf(stderr, "%s failed\n", arm.name);
      std::exit(1);
    }
  }
  const size_t reps = quick ? 5 : 15;
  for (size_t rep = 0; rep < reps; ++rep) {
    for (size_t k = 0; k < arms.size(); ++k) {
      Arm& arm = arms[(rep + k) % arms.size()];
      Timer t;
      auto r = engine.Execute(arm.spec, ExecStrategy::kCounterBased);
      arm.ms.push_back(t.ElapsedMs());
      if (!r.ok()) {
        std::fprintf(stderr, "%s failed: %s\n", arm.name,
                     r.status().ToString().c_str());
        std::exit(1);
      }
      arm.cells = (*r)->num_cells();
    }
  }
  std::printf("\n-- scans (%zu rows, %zu reps each) --\n",
              data.table->num_rows(), reps);
  for (Arm& arm : arms) {
    const auto [lo, hi] = std::minmax_element(arm.ms.begin(), arm.ms.end());
    Entry e{arm.name, MedianOf(arm.ms)};
    e.min_ms = *lo;
    e.max_ms = *hi;
    std::printf("%-12s median %.3f ms (min %.3f, max %.3f), %zu cells\n",
                arm.name, e.ms, e.min_ms, e.max_ms, arm.cells);
    entries->push_back(e);
  }
}

void WriteJson(const std::string& path, const std::vector<Entry>& entries,
               bool quick) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"bench_ii_kernels\",\n  \"mode\": \""
      << (quick ? "quick" : "full") << "\",\n  \"entries\": [\n";
  for (size_t i = 0; i < entries.size(); ++i) {
    out << "    {\"name\": \"" << entries[i].name << "\", \"ms\": "
        << entries[i].ms;
    if (entries[i].speedup > 0) {
      out << ", \"speedup\": " << entries[i].speedup;
    }
    if (entries[i].events_per_sec > 0) {
      out << ", \"events_per_sec\": " << entries[i].events_per_sec;
    }
    if (entries[i].max_ms > 0) {
      out << ", \"min_ms\": " << entries[i].min_ms
          << ", \"max_ms\": " << entries[i].max_ms;
    }
    out << "}" << (i + 1 < entries.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("\nwrote %zu entries to %s\n", entries.size(), path.c_str());
}

// Ad-hoc reader for bench/thresholds.json: every `"name": number` pair is
// a baseline in ms. Good enough for a file we also generate.
bool LoadThresholds(const std::string& path,
                    std::vector<std::pair<std::string, double>>* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    size_t q1 = line.find('"');
    if (q1 == std::string::npos) continue;
    size_t q2 = line.find('"', q1 + 1);
    if (q2 == std::string::npos) continue;
    size_t colon = line.find(':', q2);
    if (colon == std::string::npos) continue;
    double v = std::strtod(line.c_str() + colon + 1, nullptr);
    if (v > 0) out->emplace_back(line.substr(q1 + 1, q2 - q1 - 1), v);
  }
  return !out->empty();
}

// Regression gate for CI. Thresholds file entries are either
//   "<entry-name>": <baseline ms>      — fail when >2x slower, or
//   "min_speedup/<entry-name>": <x>    — fail when the entry's recorded
//                                        speedup drops below x.
// Built-in rules on top: the adaptive dispatcher never loses to the scalar
// merge (>=0.9x with timing slack), adaptive-II never loses to scalar-II
// on any queryset-A query (the parallel-cutoff regression this gate
// caught), and at least one queryset II query keeps a >=2x CB speedup.
int Check(const std::string& path, const std::vector<Entry>& entries) {
  std::vector<std::pair<std::string, double>> thresholds;
  if (!LoadThresholds(path, &thresholds)) {
    std::fprintf(stderr, "cannot read thresholds from %s\n", path.c_str());
    return 1;
  }
  auto find = [&](const std::string& name) -> const Entry* {
    for (const Entry& e : entries) {
      if (e.name == name) return &e;
    }
    return nullptr;
  };
  // The sharded speedup floor only means something with cores to scatter
  // onto: a 1-2 core box runs the fan-out inline and measures ~1.0x, so
  // its floor is skipped (the sweep still runs and publishes timings).
  const Entry* hw = find("hw_threads");
  const bool enough_cores = hw == nullptr || hw->ms >= 4.0;
  int failures = 0;
  for (const auto& [name, value] : thresholds) {
    if (name.rfind("min_events_per_sec/", 0) == 0) {
      const Entry* e = find(name.substr(std::strlen("min_events_per_sec/")));
      if (e == nullptr) {
        std::fprintf(stderr, "REGRESSION %s: entry missing\n", name.c_str());
        ++failures;
      } else if (e->events_per_sec < value) {
        std::fprintf(stderr,
                     "REGRESSION %s: %.0f events/s < required %.0f\n",
                     e->name.c_str(), e->events_per_sec, value);
        ++failures;
      }
      continue;
    }
    if (name.rfind("min_speedup/", 0) == 0) {
      if (!enough_cores && name.find("/sharded") != std::string::npos) {
        std::printf("skipping %s: only %.0f hardware threads (<4)\n",
                    name.c_str(), hw->ms);
        continue;
      }
      const Entry* e = find(name.substr(std::strlen("min_speedup/")));
      if (e == nullptr) {
        std::fprintf(stderr, "REGRESSION %s: entry missing\n", name.c_str());
        ++failures;
      } else if (e->speedup < value) {
        std::fprintf(stderr, "REGRESSION %s: speedup %.2fx < required %.2fx\n",
                     e->name.c_str(), e->speedup, value);
        ++failures;
      }
      continue;
    }
    const Entry* e = find(name);
    if (e != nullptr && e->ms > 2.0 * value) {
      std::fprintf(stderr, "REGRESSION %s: %.4f ms vs baseline %.4f ms (>2x)\n",
                   name.c_str(), e->ms, value);
      ++failures;
    }
  }
  for (const Entry& e : entries) {
    if (e.name.find("/adaptive") == std::string::npos) continue;
    if (e.speedup > 0 && e.speedup < 0.9) {
      std::fprintf(stderr,
                   "REGRESSION %s: adaptive is %.2fx of linear (<0.9x)\n",
                   e.name.c_str(), e.speedup);
      ++failures;
    }
  }
  for (const Entry& e : entries) {
    if (e.name.rfind("qa/", 0) != 0 || e.name.size() < 3 ||
        e.name.compare(e.name.size() - 3, 3, "/ii") != 0) {
      continue;
    }
    const Entry* scalar = find(e.name + "_scalar");
    // Both sides are medians of interleaved repeats; the 10% slack absorbs
    // what noise remains, a real cutover bug costs more.
    if (scalar != nullptr && e.ms > 1.1 * scalar->ms) {
      std::fprintf(stderr,
                   "REGRESSION %s: adaptive II %.2f ms slower than scalar II "
                   "%.2f ms\n",
                   e.name.c_str(), e.ms, scalar->ms);
      ++failures;
    }
  }
  double best = 0;
  for (const Entry& e : entries) {
    // Sweep entries carry CB-vs-CB scaling, not II-vs-CB speedups —
    // keep them out of the best-II floor.
    if (e.name.find("/shard") != std::string::npos) continue;
    if (e.name.rfind("qa/", 0) == 0 || e.name.rfind("qb/", 0) == 0) {
      best = std::max(best, e.speedup);
    }
  }
  if (best < 2.0) {
    std::fprintf(stderr, "REGRESSION: best II-vs-CB speedup %.2fx < 2x\n",
                 best);
    ++failures;
  }
  if (failures == 0) std::printf("perf check passed (best II %.1fx)\n", best);
  return failures == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  const bool quick = FlagValue(argc, argv, "quick", "") == "1" ||
                     std::count_if(argv + 1, argv + argc, [](const char* a) {
                       return std::strcmp(a, "--quick") == 0;
                     }) > 0;
  const std::string json = FlagValue(argc, argv, "json", "");
  const std::string check = FlagValue(argc, argv, "check", "");
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg != "--quick" && arg.rfind("--json=", 0) != 0 &&
        arg.rfind("--check=", 0) != 0) {
      std::fprintf(stderr,
                   "unknown argument: %s\n"
                   "usage: bench_ii_kernels [--quick] [--json=PATH] "
                   "[--check=THRESHOLDS]\n",
                   arg.c_str());
      return 2;
    }
  }

  std::vector<Entry> entries;
  RunMicrobenches(quick, &entries);
  RunQuerysets(quick, &entries);
  RunShardSweep(quick, &entries);
#ifdef SOLAP_SHARD_MAIN_PATH
  RunDistributedLoopback(quick, &entries);
#endif
  RunIngestThroughput(quick, &entries);
  RunFormation(quick, &entries);
  RunScans(quick, &entries);
  if (!json.empty()) WriteJson(json, entries, quick);
  if (!check.empty()) return Check(check, entries);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace solap

int main(int argc, char** argv) { return solap::bench::Main(argc, argv); }
