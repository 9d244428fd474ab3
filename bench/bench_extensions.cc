// Experiment E10 (part 1) — google-benchmark micro-ablations for the §6
// performance extensions:
//  - sorted-list intersection vs bitmap AND (the paper's "encode inverted
//    indices as bitmaps so intersection becomes bitwise-AND" idea);
//  - warm CB query vs warm II query on the synthetic workload (the
//    steady-state cost once indices exist, with the cuboid repository
//    disabled so every iteration really executes).
#include <benchmark/benchmark.h>

#include <random>

#include "solap/engine/engine.h"
#include "solap/gen/synthetic.h"
#include "solap/index/bitmap.h"

namespace solap {
namespace {

std::vector<Sid> MakeList(size_t n, size_t universe, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<Sid> pick(0,
                                          static_cast<Sid>(universe - 1));
  std::vector<Sid> out(n);
  for (Sid& s : out) s = pick(rng);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void BM_ListIntersection(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t universe = 1 << 20;
  std::vector<Sid> a = MakeList(n, universe, 1);
  std::vector<Sid> b = MakeList(n, universe, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(IntersectSorted(a, b));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(a.size() + b.size()));
}
BENCHMARK(BM_ListIntersection)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

void BM_BitmapAnd(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t universe = 1 << 20;
  Bitmap a = Bitmap::FromSids(MakeList(n, universe, 1), universe);
  Bitmap b = Bitmap::FromSids(MakeList(n, universe, 2), universe);
  for (auto _ : state) {
    Bitmap c = a;
    c.AndWith(b);
    benchmark::DoNotOptimize(c.Count());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(universe));
}
BENCHMARK(BM_BitmapAnd)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

void BM_BitmapEncodeDecode(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t universe = 1 << 20;
  std::vector<Sid> list = MakeList(n, universe, 3);
  for (auto _ : state) {
    Bitmap b = Bitmap::FromSids(list, universe);
    benchmark::DoNotOptimize(b.ToSids());
  }
}
BENCHMARK(BM_BitmapEncodeDecode)->Arg(1 << 14);

struct WarmEngines {
  WarmEngines() {
    SyntheticParams p;
    p.num_sequences = 20'000;
    p.mean_length = 12;
    data = GenerateSynthetic(p);
    spec.symbols = {"X", "Y"};
    spec.dims = {PatternDim{"X", {SyntheticData::kAttr, "symbol"}, {}, ""},
                 PatternDim{"Y", {SyntheticData::kAttr, "symbol"}, {}, ""}};
    // Repository capacity 0: every Execute really runs.
    cb = std::make_unique<SOlapEngine>(
        data.groups, data.hierarchies.get(),
        EngineOptions{ExecStrategy::kCounterBased, 0, false});
    ii = std::make_unique<SOlapEngine>(
        data.groups, data.hierarchies.get(),
        EngineOptions{ExecStrategy::kInvertedIndex, 0, true});
    // Warm the II index cache.
    (void)ii->Execute(spec, ExecStrategy::kInvertedIndex);
  }
  SyntheticData data;
  CuboidSpec spec;
  std::unique_ptr<SOlapEngine> cb, ii;
};

WarmEngines& Engines() {
  static WarmEngines* e = new WarmEngines();
  return *e;
}

void BM_WarmQueryCounterBased(benchmark::State& state) {
  WarmEngines& e = Engines();
  for (auto _ : state) {
    auto r = e.cb->Execute(e.spec, ExecStrategy::kCounterBased);
    if (!r.ok()) state.SkipWithError("CB failed");
    benchmark::DoNotOptimize((*r)->num_cells());
  }
}
BENCHMARK(BM_WarmQueryCounterBased)->Unit(benchmark::kMillisecond);

void BM_WarmQueryInvertedIndex(benchmark::State& state) {
  WarmEngines& e = Engines();
  for (auto _ : state) {
    auto r = e.ii->Execute(e.spec, ExecStrategy::kInvertedIndex);
    if (!r.ok()) state.SkipWithError("II failed");
    benchmark::DoNotOptimize((*r)->num_cells());
  }
}
BENCHMARK(BM_WarmQueryInvertedIndex)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace solap

BENCHMARK_MAIN();
