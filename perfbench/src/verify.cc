// Answer verification against an independent reference, and the trace
// folding that turns span trees into per-layer self-times.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "bench.h"

namespace perfbench {

// ------------------------------------------------------------ verification

std::shared_ptr<const solap::SCuboid> ReferenceAnswer(
    const solap::EventTable& table, const solap::HierarchyRegistry& hier,
    const solap::CuboidSpec& spec, std::string* error) {
  solap::EngineOptions opts;
  opts.default_strategy = solap::ExecStrategy::kCounterBased;
  opts.repository_capacity_bytes = 0;
  opts.enable_index_cache = false;
  solap::SOlapEngine reference(&table, &hier, opts);
  auto r = reference.Execute(spec, solap::ExecStrategy::kCounterBased);
  if (!r.ok()) {
    *error = "reference failed: " + r.status().ToString();
    return nullptr;
  }
  return *r;
}

namespace {

/// A cached formation lookup takes microseconds; forming groups over even
/// the smallest workload table takes milliseconds.
constexpr double kFirstSightFormationMs = 0.2;

bool SameValue(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

}  // namespace

std::string CompareAnswer(const Answer& got, const solap::SCuboid& ref) {
  if (got.num_cells != ref.num_cells()) {
    return "num_cells " + std::to_string(got.num_cells) + " != reference " +
           std::to_string(ref.num_cells());
  }
  const size_t dims = ref.dims().size();
  if (got.dim_names.size() != dims) return "dimension count differs";
  for (size_t d = 0; d < dims; ++d) {
    if (got.dim_names[d] != ref.dims()[d].name) return "dimension names differ";
  }
  std::map<std::vector<std::string>, double> ref_cells;
  for (const auto& [key, cell] : ref.cells()) {
    std::vector<std::string> labels;
    for (size_t d = 0; d < key.size(); ++d) {
      labels.push_back(ref.LabelOf(d, key[d]));
    }
    ref_cells[std::move(labels)] = cell.Value(ref.agg());
  }
  const size_t expect = std::min(ref.num_cells(), kAnswerLimit);
  if (got.cells.size() != expect) {
    return "returned " + std::to_string(got.cells.size()) +
           " cells, expected " + std::to_string(expect);
  }
  std::vector<double> got_values;
  for (const auto& [labels, value] : got.cells) {
    auto it = ref_cells.find(labels);
    if (it == ref_cells.end()) return "cell not in reference";
    if (!SameValue(value, it->second)) {
      return "cell value " + std::to_string(value) + " != reference " +
             std::to_string(it->second);
    }
    got_values.push_back(value);
  }
  // The returned cells must be the reference's top cells (ties may order
  // differently, so compare the value multisets).
  std::vector<std::pair<solap::CellKey, double>> top =
      ref.TopCells(kAnswerLimit);
  std::sort(got_values.begin(), got_values.end());
  std::vector<double> ref_values;
  for (const auto& kv : top) ref_values.push_back(kv.second);
  std::sort(ref_values.begin(), ref_values.end());
  for (size_t i = 0; i < ref_values.size(); ++i) {
    if (!SameValue(got_values[i], ref_values[i])) {
      return "returned cells are not the reference's top cells";
    }
  }
  return "";
}

void VerifyChecks(const solap::EventTable& table,
                  const solap::HierarchyRegistry& hier, Recorder* rec) {
  for (const CheckItem& item : rec->checks) {
    std::string error;
    auto ref = ReferenceAnswer(table, hier, item.spec, &error);
    if (ref != nullptr) error = CompareAnswer(item.answer, *ref);
    if (!error.empty()) {
      rec->Fail("verify " + item.label + ": " + error + " [spec " +
                item.spec.CanonicalString() + "]");
    }
  }
}

// ---------------------------------------------------------------- tracing

void TraceSink::AddTrace(const solap::TraceContext& trace) {
  std::vector<solap::TraceContext::Span> spans = trace.Snapshot();
  std::vector<double> child_ms(spans.size(), 0.0);
  for (const auto& s : spans) {
    if (s.parent >= 0) child_ms[s.parent] += s.dur_ns / 1e6;
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < spans.size(); ++i) {
    // Children fanned out to pool threads can overlap, so their summed
    // time may exceed the parent's wall time; clamp at zero.
    const double self = std::max(0.0, spans[i].dur_ns / 1e6 - child_ms[i]);
    SpanTotals& slot = spans_[spans[i].name];
    slot.self_ms += self;
    slot.total_ms += spans[i].dur_ns / 1e6;
    slot.count += 1;
    if (spans[i].name != "optimize") continue;
    for (const auto& [key, value] : spans[i].notes) {
      if (key != "strategy") continue;
      auto& ii = observed_["optimizer.ii"];
      ii.first += value == solap::StrategyName(
                               solap::ExecStrategy::kInvertedIndex)
                      ? 1.0
                      : 0.0;
      ii.second += 1;
    }
  }
}

void TraceSink::AddSpec(const solap::CuboidSpec& spec) {
  std::lock_guard<std::mutex> lock(mu_);
  specs_.push_back(spec);
}

std::vector<solap::CuboidSpec> TraceSink::specs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return specs_;
}

void TraceSink::AddStats(const solap::ScanStats& stats) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_ += stats;
}

void TraceSink::Observe(const std::string& key, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = observed_[key];
  slot.first += value;
  slot.second += 1;
}

bool TraceSink::NoteFormation(
    const std::string& key,
    const std::shared_ptr<solap::SequenceGroupSet>& groups, double probe_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = formations_.find(key);
  if (it == formations_.end()) {
    // First sight: the warm-up may have formed (and cached) these groups
    // already, so only the probe's duration tells.
    formations_.emplace(key, groups);
    return probe_ms > kFirstSightFormationMs;
  }
  const bool formed = it->second.lock() != groups;
  it->second = groups;
  return formed;
}

double TraceSink::SpanSelfMs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = spans_.find(name);
  return it == spans_.end() ? 0.0 : it->second.self_ms;
}

double TraceSink::SpanTotalMs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = spans_.find(name);
  return it == spans_.end() ? 0.0 : it->second.total_ms;
}

std::string TraceSink::SpanTable() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, t] : spans_) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "# span %s count=%zu self_ms=%.3f total_ms=%.3f\n",
                  name.c_str(), t.count, t.self_ms, t.total_ms);
    out += line;
  }
  return out;
}

size_t TraceSink::SpanCount(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = spans_.find(name);
  return it == spans_.end() ? 0 : it->second.count;
}

double TraceSink::Sum(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = observed_.find(key);
  return it == observed_.end() ? 0.0 : it->second.first;
}

size_t TraceSink::Count(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = observed_.find(key);
  return it == observed_.end() ? 0 : it->second.second;
}

solap::ScanStats TraceSink::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace perfbench
