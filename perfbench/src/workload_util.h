// Small helpers shared by the workload files.
#ifndef PERFBENCH_WORKLOAD_UTIL_H_
#define PERFBENCH_WORKLOAD_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"

namespace perfbench {

/// A clickstream query: each visitor session's clicks in request-time
/// order, counted by the cuboid `cuboid_by`. A non-empty `where` condition
/// restricts the events first.
inline std::string ClickQuery(const char* cuboid_by,
                              const std::string& where = "") {
  return std::string("SELECT COUNT(*) FROM Event ") +
         (where.empty() ? "" : "WHERE " + where + " ") +
         "CLUSTER BY session-id AT session-id SEQUENCE BY request-time "
         "ASCENDING CUBOID BY " +
         cuboid_by;
}

/// The page-category cuboid templates: scan draws its ad-hoc queries from
/// them, live's dashboard is all of them, and explore's sessions start
/// from two of them. The regex cuboid is the one ingest cannot patch.
enum Template { kSubstring2, kSubstring3, kSubsequence2, kRegex, kNumTemplates };
inline constexpr const char* kTemplates[kNumTemplates] = {
    "SUBSTRING (X, Y) WITH X AS page AT page-category, "
    "Y AS page AT page-category LEFT-MAXIMALITY",
    "SUBSTRING (X, Y, Z) WITH X AS page AT page-category, "
    "Y AS page AT page-category, Z AS page AT page-category LEFT-MAXIMALITY",
    "SUBSEQUENCE (X, Y) WITH X AS page AT page-category, "
    "Y AS page AT page-category LEFT-MAXIMALITY",
    "PATTERN \"X ( . )* X\" WITH X AS page AT page-category LEFT-MAXIMALITY",
};

/// Runs `body(client, &recorder)` on `n` client threads and merges their
/// recorders in client order.
inline Recorder RunClients(size_t n,
                           const std::function<void(size_t, Recorder*)>& body) {
  std::vector<Recorder> recs(n);
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (size_t c = 0; c < n; ++c) {
    threads.emplace_back([&, c] { body(c, &recs[c]); });
  }
  for (std::thread& t : threads) t.join();
  Recorder out;
  for (Recorder& r : recs) out.Merge(std::move(r));
  return out;
}

/// A warm-up that fails means the program cannot serve the workload at
/// all; stop before reporting anything.
inline void ExitOnWarmUpFailure(const Recorder& rec, const char* workload) {
  if (rec.failed == 0) return;
  std::fprintf(stderr, "%s warm-up failed: %s\n", workload,
               rec.errors.empty() ? "?" : rec.errors.front().c_str());
  std::exit(1);
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_UTIL_H_
