// Tour of the §6 extensions: iceberg S-cuboids, online aggregation,
// incremental update, and bitmap-encoded inverted lists.
//
//   ./build/examples/extensions_tour
#include <cstdio>

#include "solap/engine/advisor.h"
#include "solap/engine/engine.h"
#include "solap/gen/synthetic.h"
#include "solap/index/build_index.h"
#include "solap/index/container.h"
#include "solap/parser/parser.h"

using namespace solap;

int main() {
  SyntheticParams params;
  params.num_sequences = 50'000;
  std::printf("Synthetic dataset %s\n\n", params.Tag().c_str());
  SyntheticData data = GenerateSynthetic(params);
  SOlapEngine engine(data.groups, data.hierarchies.get());

  CuboidSpec spec;
  spec.symbols = {"X", "Y"};
  spec.dims = {PatternDim{"X", {SyntheticData::kAttr, "symbol"}, {}, ""},
               PatternDim{"Y", {SyntheticData::kAttr, "symbol"}, {}, ""}};

  // 1. Iceberg S-cuboids: ICEBERG in the query language keeps only cells
  //    above a minimum support (many cells are sparse — paper §6).
  auto full = engine.Execute(spec);
  CuboidSpec iceberg = spec;
  iceberg.iceberg_min_count = 500;
  auto ice = engine.Execute(iceberg);
  std::printf("1. Iceberg: %zu cells -> %zu cells with min support 500\n\n",
              (*full)->num_cells(), (*ice)->num_cells());

  // 2. Online aggregation: report what we know so far; stop at 30%% with a
  //    scaled estimate of the hottest cell.
  CellKey hot = (*full)->ArgMaxCell();
  double exact = (*full)->CellAt(hot).count;
  SOlapEngine online_engine(data.groups, data.hierarchies.get());
  std::printf("2. Online aggregation (exact hottest count = %.0f):\n",
              exact);
  (void)online_engine.ExecuteOnline(
      spec, 5000, [&](const SCuboid& partial, double fraction) {
        std::printf("   %.0f%% processed -> estimate %.0f\n",
                    fraction * 100,
                    partial.CellAt(hot).count / fraction);
        return fraction < 0.3;  // stop once we trust the estimate
      });
  std::printf("\n");

  // 3. Incremental update: a new day of sequences arrives; cached complete
  //    indices are extended by scanning only the delta.
  SOlapEngine inc_engine(data.groups, data.hierarchies.get());
  (void)inc_engine.Execute(spec, ExecStrategy::kInvertedIndex);
  uint64_t scans_before = inc_engine.stats().sequences_scanned;
  auto delta = GenerateSyntheticBatch(params, 2'000, 20071226);
  if (!inc_engine.AppendRawSequences(0, delta).ok()) return 1;
  std::printf("3. Incremental update: appended %zu sequences; index "
              "maintenance scanned %llu sequences (the delta only)\n\n",
              delta.size(),
              static_cast<unsigned long long>(
                  inc_engine.stats().sequences_scanned - scans_before));

  // 4. Materialization advisor: given tomorrow's expected workload and a
  //    storage budget, which indices should tonight's batch job build?
  {
    MaterializationAdvisor advisor(&engine);
    CuboidSpec xyz = spec;
    xyz.symbols = {"X", "Y", "Z"};
    xyz.dims.push_back(
        PatternDim{"Z", {SyntheticData::kAttr, "symbol"}, {}, ""});
    auto recs = advisor.Recommend({{spec, 10.0}, {xyz, 1.0}},
                                  size_t{32} << 20);
    if (!recs.ok()) return 1;
    std::printf("4. Materialization advisor (32 MB budget):\n");
    for (const IndexRecommendation& r : *recs) {
      std::printf("   build %s\n", r.ToString().c_str());
    }
    if (!advisor.Materialize(*recs).ok()) return 1;
    std::printf("   materialized: %.1f MB of indices now serve the "
                "workload\n\n",
                engine.IndexCacheBytes() / 1048576.0);
  }

  // 5. Bitmap-encoded inverted lists: dense chunks of every posting list
  //    are bitmap containers, intersected by word-parallel AND.
  IndexShape shape;
  shape.positions.assign(2, LevelRef{SyntheticData::kAttr, "symbol"});
  ScanStats stats;
  auto l2 = BuildIndex(&data.groups->groups()[0], *data.groups,
                       data.hierarchies.get(), shape, &stats);
  if (!l2.ok()) return 1;
  size_t kinds[3] = {0, 0, 0};  // array, bitmap, run
  for (const auto& [key, list] : (*l2)->lists()) {
    for (const SidContainer& c : list.containers()) {
      ++kinds[static_cast<size_t>(c.kind)];
    }
  }
  std::printf("5. Bitmap containers: %zu L2 lists (%.2f MB) hold %zu array, "
              "%zu bitmap and %zu run containers (domain %zu sequences)\n",
              (*l2)->num_lists(), (*l2)->ByteSize() / 1048576.0, kinds[0],
              kinds[1], kinds[2], data.groups->groups()[0].num_sequences());
  std::printf("   (bitmap containers serve the dense chunks; see "
              "bench_extensions for the intersection micro-benchmarks)\n");
  return 0;
}
