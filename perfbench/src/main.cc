// solap_perfbench: one run of one workload.
//
//   solap_perfbench --workload explore|scan|live --seed N --seconds S
//                   --trace 0|1
//   solap_perfbench --self-test
//
// --trace 0 measures the end-to-end metrics over loopback HTTP; --trace 1
// repeats that pass untraced (for the client-side byte counts and the
// tracing-overhead baseline) and then replays the same operations
// in-process with span recording, printing the per-layer metrics. Every
// run verifies sampled answers against a fresh reference engine. The last
// line of stdout is the JSON result.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "bench.h"
#include "solap/parser/parser.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

constexpr int kSetups = 5;

/// One reported metric, printed as "<workload>/<name> <value> <unit>" and
/// in the final JSON result.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};
using Report = std::vector<Metric>;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  bool self_test = false;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: solap_perfbench --workload explore|scan|live "
               "--seed N --seconds S --trace 0|1\n       solap_perfbench "
               "--self-test\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (k == "--self-test") {
      a.self_test = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + k).c_str());
    std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atoi(v.c_str());
      if (a.seconds < 1 || a.seconds > 60) Usage("--seconds must be 1..60");
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else {
      Usage(("unknown argument " + k).c_str());
    }
  }
  if (!a.self_test && a.workload.empty()) Usage("--workload is required");
  return a;
}

// ------------------------------------------------------------ machine info

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t c = line.find(':');
      if (c != std::string::npos) return line.substr(c + 2);
    }
  }
  return "unknown";
}

/// Aggregate CPU jiffies: (steal, total) from the first line of /proc/stat.
std::pair<uint64_t, uint64_t> CpuTimes() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  uint64_t v[10] = {0}, total = 0;
  for (int i = 0; i < 10 && in >> v[i]; ++i) {
    if (i < 8) total += v[i];  // guest time is already inside user/nice
  }
  return {v[7], total};
}

/// Peak resident set since the last ResetPeakRss, in MiB.
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

/// Returns freed heap to the OS and restarts the peak-RSS watermark, so
/// the timed phase's peak is not the set-up's.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

void PrintHeader(const Args& a, const Workload& w) {
  const solap::EngineOptions o = w.Options();
  std::printf("# perfbench workload=%s seed=%" PRIu64 " seconds=%d trace=%d\n",
              w.name(), a.seed, a.seconds, a.trace ? 1 : 0);
  std::printf("# machine: nproc=%ld cpu=\"%s\" compiler=\"g++ %s\" build=%s\n",
              sysconf(_SC_NPROCESSORS_ONLN), CpuModel().c_str(), __VERSION__,
              PERFBENCH_BUILD_TYPE);
  const size_t scatter =
      o.shards > 1 ? std::min(o.exec_threads, o.shards) : 0;
  std::printf("# threads: clients=%zu shards=%zu scatter_pool=%zu "
              "service_pool=%zu http_workers=%zu\n",
              w.clients(), o.shards, scatter, kServiceThreads,
              kServiceThreads);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

void PrintResult(const char* workload, const Report& report,
                 const Recorder& rec) {
  for (const Metric& m : report) {
    std::printf("%s/%s %.6g %s\n", workload, m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& e : rec.errors) {
    std::printf("# failure: %s\n", e.c_str());
  }
  const bool correct = rec.failed == 0;
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(rec.attempted) +
                     ", \"failed\": " + std::to_string(rec.failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : report) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    if (!first) json += ", ";
    first = false;
    json += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "explore") return MakeExplore();
  if (name == "scan") return MakeScan();
  if (name == "live") return MakeLive();
  Usage(("unknown workload " + name).c_str());
}

// ---------------------------------------------------------- measured run

int MeasuredRun(const Args& args, Workload& w, const Clickstream& data) {
  RunContext ctx{&data, args.seed, args.seconds, nullptr};
  const solap::EngineOptions options = w.Options();
  std::vector<double> setup_s;
  std::unique_ptr<System> system;
  for (int k = 0; k < kSetups; ++k) {
    system.reset();
    Clock::time_point t0 = Clock::now();
    system = std::make_unique<System>(data, data.clicks, options);
    w.WarmUp(*system, ctx);
    setup_s.push_back(MsSince(t0) / 1000.0);
  }
  ResetPeakRss();
  const auto cpu0 = CpuTimes();
  Clock::time_point t0 = Clock::now();
  Recorder rec = w.Run(*system, ctx, [&] {
    return MakeHttpTransport(system->port());
  });
  const double wall_s = MsSince(t0) / 1000.0;
  const auto cpu1 = CpuTimes();
  const double rss = PeakRssMb();
  w.Verify(*system, ctx, &rec);

  const double steal =
      cpu1.second > cpu0.second
          ? 100.0 * static_cast<double>(cpu1.first - cpu0.first) /
                static_cast<double>(cpu1.second - cpu0.second)
          : 0.0;
  std::printf("# timed phase: %.2f s, %zu queries, %zu ingest batches, "
              "steal %.2f%% of CPU time\n",
              wall_s, rec.query_ms.size(), rec.ingest_ms.size(), steal);
  std::printf("# setup_s runs:");
  for (double s : setup_s) std::printf(" %.4f", s);
  std::printf("\n");
  if (rec.query_ms.size() < 200) {
    std::printf("# warning: %zu query samples; fewer than 10 lie beyond "
                "p95\n",
                rec.query_ms.size());
  }
  // Not bounded metrics (the ratio is 0 on a healthy run and ingest
  // exists only on live); printed for the reader, carried in the JSON's
  // attempted/failed fields.
  std::printf("%s/failed_ops_ratio %.6g ratio\n", w.name(),
              rec.attempted ? static_cast<double>(rec.failed) /
                                  static_cast<double>(rec.attempted)
                            : 0.0);
  if (!rec.ingest_ms.empty()) {
    std::printf("%s/ingest_p50_ms %.6g ms\n%s/ingest_p95_ms %.6g ms\n",
                w.name(), Percentile(rec.ingest_ms, 50), w.name(),
                Percentile(rec.ingest_ms, 95));
  }

  Report report;
  report.emplace_back("query_p50_ms", Percentile(rec.query_ms, 50), "ms");
  report.emplace_back("query_p95_ms", Percentile(rec.query_ms, 95), "ms");
  // Over the phase for closed-loop clients; over its busy time for a
  // reader paced by a schedule, so the rate never echoes the schedule.
  const double busy_s = rec.paced_busy_s > 0 ? rec.paced_busy_s : wall_s;
  report.emplace_back("queries_per_s",
                      static_cast<double>(rec.query_ms.size()) / busy_s, "1/s");
  report.emplace_back("setup_s", Median(setup_s), "s");
  report.emplace_back("peak_rss_mb", rss, "MB");
  system.reset();
  PrintResult(w.name(), report, rec);
  return 0;
}

// ------------------------------------------------------------ traced run

uint64_t Delta(uint64_t after, uint64_t before) {
  return after >= before ? after - before : 0;
}

int TracedRun(const Args& args, Workload& w, const Clickstream& data) {
  RunContext ctx{&data, args.seed, args.seconds, nullptr};
  solap::EngineOptions options = w.Options();

  // Pass 1: the measured HTTP path, untraced.
  auto http_system = std::make_unique<System>(data, data.clicks, options);
  w.WarmUp(*http_system, ctx);
  Recorder http = w.Run(*http_system, ctx, [&] {
    return MakeHttpTransport(http_system->port());
  });
  w.Verify(*http_system, ctx, &http);
  const double load_a = http_system->load_ms();
  http_system.reset();
  malloc_trim(0);

  // Pass 2: the same operations in-process, traced. The background delta
  // merger's work cannot be traced, so the replay runs it in the
  // foreground on the merger's own policy (live.cc).
  options.auto_delta_merge = false;
  TraceSink sink;
  System system(data, data.clicks, options);
  w.WarmUp(system, ctx);
  const solap::ScanStats before = system.engine().StatsSnapshot();
  const size_t rejects_before = system.engine().MemRejects();
  ctx.sink = &sink;
  Recorder traced = w.Run(system, ctx, [&] {
    return MakeInProcessTransport(&system, &sink);
  });
  const solap::ScanStats after = system.engine().StatsSnapshot();
  const double rejects = static_cast<double>(
      Delta(system.engine().MemRejects(), rejects_before));
  const double mem_used_mb =
      static_cast<double>(system.engine().MemUsed()) / (1 << 20);
  // The benchmark's own engine work, after every counter and span of the
  // replay has been read or folded.
  ProbeLayers(&system, &sink);
  const solap::ScanStats s = sink.stats();

  const double q = std::max<double>(1.0, sink.Count("query"));
  const double probes = std::max<double>(1.0, sink.Count("probe"));
  const double b = std::max<double>(1.0, sink.Count("batch"));
  auto per_q = [&](double v) { return v / q; };
  auto mean_of = [&](const char* key) {
    const size_t n = sink.Count(key);
    return n ? sink.Sum(key) / static_cast<double>(n) : 0.0;
  };
  auto self = [&](std::initializer_list<const char*> names) {
    double sum = 0;
    for (const char* n : names) sum += sink.SpanSelfMs(n);
    return sum;
  };
  const double index_misses = static_cast<double>(
      sink.SpanCount("ii.build_index") + sink.SpanCount("ii.join_extend") +
      sink.SpanCount("ii.rollup_merge") + sink.SpanCount("ii.drilldown_refine"));
  const double index_hits = static_cast<double>(s.index_cache_hits);
  std::vector<double> bytes(http.response_bytes.begin(),
                            http.response_bytes.end());

  Report r;
  r.emplace_back("net.http_parse_us", mean_of("net.http_parse_us"), "us");
  r.emplace_back("net.response_bytes", Mean(bytes), "bytes");
  r.emplace_back("net.json_parse_us", mean_of("net.json_parse_us"), "us");
  r.emplace_back("parser.parse_us", mean_of("parser.parse_us"), "us");
  r.emplace_back("service.queue_wait_ms", per_q(self({"service.queue_wait"})), "ms");
  r.emplace_back("optimizer.choose_us", mean_of("optimizer.choose_us"), "us");
  r.emplace_back("optimizer.ii_share", mean_of("optimizer.ii"), "ratio");
  r.emplace_back("repo.hit_ratio", per_q(static_cast<double>(s.repository_hits)),
        "ratio");
  r.emplace_back("finalize.ms", per_q(self({"finalize"})), "ms");
  r.emplace_back("seq.formation_ms", sink.Sum("seq.formation_ms") / probes,
                 "ms");
  r.emplace_back("seq.formations", sink.Count("seq.formation_ms") / probes,
                 "count");
  r.emplace_back("cb.scan_ms",
        per_q(self({"exec.cb", "cb.group", "cb.shard", "exec.degrade_cb"})),
        "ms");
  r.emplace_back("cb.sequences_scanned",
        per_q(static_cast<double>(s.sequences_scanned)), "count");
  r.emplace_back("regex.scan_ms", per_q(self({"exec.regex"})), "ms");
  r.emplace_back("index.build_ms", per_q(self({"ii.build_index", "index.build"})),
        "ms");
  r.emplace_back("index.join_ms",
        per_q(self({"ii.join_extend", "index.join", "ii.extend_scan",
                    "index.extend_scan"})),
        "ms");
  r.emplace_back("index.rollup_ms", per_q(self({"ii.rollup_merge", "index.rollup"})),
        "ms");
  r.emplace_back("index.refine_ms",
        per_q(self({"ii.drilldown_refine", "index.refine"})), "ms");
  r.emplace_back("index.count_ms", per_q(self({"ii.count", "ii.group", "exec.ii"})),
        "ms");
  r.emplace_back("index.cache_hit_ratio",
        index_hits + index_misses > 0
            ? index_hits / (index_hits + index_misses)
            : 0.0,
        "ratio");
  r.emplace_back("index.intersections",
        per_q(static_cast<double>(s.list_intersections)), "count");
  r.emplace_back("index.bytes_built", per_q(static_cast<double>(s.index_bytes_built)),
        "bytes");
  r.emplace_back("shard.scatter_ms", per_q(self({"shard.scatter", "shard.exec"})),
        "ms");
  r.emplace_back("shard.gather_ms", per_q(self({"shard.gather"})), "ms");
  r.emplace_back("shard.merged_cells",
        per_q(static_cast<double>(s.shard_merged_cells)), "count");
  r.emplace_back("shard.fallbacks", per_q(static_cast<double>(s.shard_fallbacks)),
        "count");
  r.emplace_back("cube.codec_encode_us", mean_of("cube.codec_encode_us"), "us");
  r.emplace_back("cube.codec_decode_us", mean_of("cube.codec_decode_us"), "us");
  r.emplace_back("cube.merge_us", mean_of("cube.merge_us"), "us");
  const bool ingesting = sink.Count("batch") > 0;
  auto per_b = [&](double v) { return ingesting ? v / b : 0.0; };
  r.emplace_back("ingest.append_ms", per_b(sink.SpanTotalMs("ingest.append")), "ms");
  r.emplace_back("ingest.merge_ms", per_b(sink.SpanTotalMs("ingest.merge")), "ms");
  r.emplace_back("ingest.delta_bytes", mean_of("ingest.delta_bytes"), "bytes");
  r.emplace_back("ingest.cuboid_patches",
        per_b(static_cast<double>(
            Delta(after.cuboid_patches, before.cuboid_patches))),
        "count");
  r.emplace_back("ingest.stale_invalidations",
        per_b(static_cast<double>(Delta(after.stale_cuboid_invalidations,
                                        before.stale_cuboid_invalidations))),
        "count");
  r.emplace_back("ingest.formation_invalidations",
        per_b(static_cast<double>(Delta(after.formation_invalidations,
                                        before.formation_invalidations))),
        "count");
  r.emplace_back("ingest.ack_p50_ms", Percentile(http.ingest_ms, 50), "ms");
  r.emplace_back("ingest.ack_p95_ms", Percentile(http.ingest_ms, 95), "ms");
  r.emplace_back("mem.used_mb", mem_used_mb, "MB");
  r.emplace_back("mem.rejects", per_q(rejects), "count");
  r.emplace_back("storage.load_ms", (load_a + system.load_ms()) / 2, "ms");
  // Tracing overhead: the median, over the operations that did the same
  // work in both passes (same operation, same answer size), of traced
  // minus untraced server-side execution time.
  std::vector<double> overhead;
  for (const auto& [op, ms] : traced.exec_ms) {
    auto it = http.exec_ms.find(op);
    if (it != http.exec_ms.end()) overhead.push_back(ms - it->second);
  }
  r.emplace_back("trace.overhead_ms", Median(overhead), "ms");

  std::printf("# traced replay: %zu queries, %zu ingest batches; %zu of %zu "
              "operations matched the untraced pass; %zu specs probed\n%s",
              sink.Count("query"), sink.Count("batch"), overhead.size(),
              traced.exec_ms.size(), sink.Count("probe"),
              sink.SpanTable().c_str());
  Recorder total;
  total.Merge(std::move(http));
  total.Merge(std::move(traced));
  PrintResult(w.name(), r, total);
  return 0;
}

// -------------------------------------------------------------- self-test

/// The verifier must accept a correct answer and reject perturbed ones.
int SelfTest() {
  const Clickstream data = GenerateClicks(7, 2000);
  auto hier = BuildHierarchies(data);
  auto table = LoadTable(data, data.clicks);
  auto spec = solap::ParseQuery(
      "SELECT COUNT(*) FROM Event CLUSTER BY session-id AT session-id "
      "SEQUENCE BY request-time ASCENDING CUBOID BY SUBSTRING (X, Y) WITH "
      "X AS page AT page-category, Y AS page AT page-category "
      "LEFT-MAXIMALITY");
  if (!spec.ok()) return 1;
  std::string error;
  auto ref = ReferenceAnswer(*table, *hier, *spec, &error);
  if (ref == nullptr) {
    std::printf("self-test: %s\n", error.c_str());
    return 1;
  }
  // The program's II answer through a 2-shard engine must match the
  // CB reference exactly.
  solap::EngineOptions opts;
  opts.shards = 2;
  solap::ShardedEngine engine(table.get(), hier.get(), opts);
  auto ii = engine.Execute(*spec, solap::ExecStrategy::kInvertedIndex);
  const Answer good = AnswerFromCuboid(**ii);
  int failures = 0;
  auto expect = [&](bool cond, const char* what) {
    std::printf("self-test %s: %s\n", cond ? "ok  " : "FAIL", what);
    if (!cond) ++failures;
  };
  expect(CompareAnswer(good, *ref).empty(), "accepts the correct answer");
  Answer bad = good;
  bad.cells[0].second += 1;
  expect(!CompareAnswer(bad, *ref).empty(), "rejects a perturbed cell value");
  bad = good;
  bad.cells[1].first[0] = bad.cells[1].first[0] == "Legwear" ? "Legcare"
                                                             : "Legwear";
  expect(!CompareAnswer(bad, *ref).empty(), "rejects a perturbed cell key");
  bad = good;
  bad.num_cells += 1;
  expect(!CompareAnswer(bad, *ref).empty(), "rejects a wrong cell count");
  bad = good;
  bad.cells.pop_back();
  expect(!CompareAnswer(bad, *ref).empty(), "rejects a missing cell");
  // A perturbed cuboid, not just a perturbed rendering.
  solap::SCuboid perturbed((*ii)->dims(), (*ii)->agg());
  for (const auto& [key, cell] : (*ii)->cells()) {
    perturbed.MergeCell(key, cell);
    for (size_t d = 0; d < key.size(); ++d) {
      perturbed.SetLabel(d, key[d], (*ii)->LabelOf(d, key[d]));
    }
  }
  perturbed.AddCountOnly((*ii)->ArgMaxCell());
  expect(!CompareAnswer(AnswerFromCuboid(perturbed), *ref).empty(),
         "rejects a cuboid with one extra assignment");
  std::printf("self-test %s\n", failures == 0 ? "passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = ParseArgs(argc, argv);
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "refusing to report from a %s build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  if (args.self_test) return SelfTest();
  std::unique_ptr<Workload> w = MakeWorkload(args.workload);
  PrintHeader(args, *w);
  std::fflush(stdout);
  // Input generation is the benchmark's work, outside every timing.
  const Clickstream data = GenerateClicks(args.seed, w->sessions());
  std::printf("# data: %zu sessions, %zu click rows\n", data.num_sessions,
              data.clicks.size());
  return args.trace ? TracedRun(args, *w, data) : MeasuredRun(args, *w, data);
}
