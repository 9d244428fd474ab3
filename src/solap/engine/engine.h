// The S-OLAP engine (paper §4, Fig. 6): executes S-cuboid specifications
// through the counter-based (CB) or inverted-index (II) strategy, caches
// sequence groups, inverted indices and computed cuboids, and hosts the
// §6 extensions (iceberg filtering, online aggregation, incremental update).
#ifndef SOLAP_ENGINE_ENGINE_H_
#define SOLAP_ENGINE_ENGINE_H_

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "solap/common/epoch.h"
#include "solap/common/mem_budget.h"
#include "solap/common/stats.h"
#include "solap/common/status.h"
#include "solap/common/stop.h"
#include "solap/common/thread_pool.h"
#include "solap/common/trace.h"
#include "solap/cube/cuboid.h"
#include "solap/cube/cuboid_repository.h"
#include "solap/cube/cuboid_spec.h"
#include "solap/index/index_cache.h"
#include "solap/index/index_ops.h"
#include "solap/pattern/matcher.h"
#include "solap/pattern/regex.h"
#include "solap/seq/sequence_cache.h"

namespace solap {

/// S-cuboid construction strategy (paper §4.2).
enum class ExecStrategy {
  /// Counter-based: scan every sequence of every group per query (Fig. 7).
  kCounterBased,
  /// Inverted-index: join/merge/refine cached inverted lists (Fig. 15).
  kInvertedIndex,
  /// Let the StrategyOptimizer pick per query (paper §4.2.2's "S-OLAP
  /// query optimizer" future work; see engine/optimizer.h).
  kAuto,
};

/// Stable lowercase name of a strategy, used by EXPLAIN output and spans.
inline const char* StrategyName(ExecStrategy s) {
  switch (s) {
    case ExecStrategy::kCounterBased: return "counter-based";
    case ExecStrategy::kInvertedIndex: return "inverted-index";
    case ExecStrategy::kAuto: return "auto";
  }
  return "?";
}

/// Tuning knobs of the engine.
struct EngineOptions {
  ExecStrategy default_strategy = ExecStrategy::kInvertedIndex;
  /// Byte budget of the cuboid repository (0 disables cuboid caching).
  size_t repository_capacity_bytes = size_t{64} << 20;
  /// Disables inverted-index reuse across queries — every II query then
  /// rebuilds from scratch (used by benchmarks to isolate reuse benefits).
  bool enable_index_cache = true;
  /// The one thread knob: workers in this engine's own compute pool. CB
  /// scans partition each group over it (at most one partition per 1024
  /// sequences) and II joins/merges partition their lists over it (past
  /// the kParallelMinLists / kParallelMinWork cutoffs, index/index_ops.h).
  /// 0 = hardware concurrency; 1 = no pool, everything runs on the calling
  /// thread. The pool is created lazily on first use and is distinct from
  /// any service-layer pool, so a service worker blocking in a join can
  /// never starve it. A ShardedEngine's scatter width does not depend on
  /// it: shards fan out over min(hardware threads, shards) workers.
  size_t exec_threads = 1;
  /// Per-pair intersection kernel selection (galloping for skewed pairs,
  /// bitmap kernels for bitmap containers — the §6 bitmap extension,
  /// index/container.h). false = scalar linear merges everywhere — the
  /// A/B baseline for bench_ii_kernels.
  bool adaptive_join_kernels = true;
  /// Number of shard-local executors a ShardedEngine partitions the data
  /// into (engine/sharded_engine.h). 1 = one monolithic engine, bit-identical
  /// to the legacy single-engine path. Plain SOlapEngine ignores this.
  size_t shards = 1;
  /// Table-backed sharding: the string column whose base-level code decides
  /// which shard owns a sequence. Queries whose CLUSTER BY does not include
  /// this attribute at its base level cannot be scattered (a coarser level
  /// could split one logical sequence across shards) and fall back to a
  /// monolithic engine. Empty = the table's first string column.
  std::string shard_by;
  /// Single byte budget covering everything the engine keeps resident or
  /// allocates in bulk: cached inverted indices, formed sequence groups,
  /// the cuboid repository, and transient II join scratch. When a charge
  /// would exceed it the operation gets ResourceExhausted and the engine
  /// reacts gracefully — caches skip the entry, II queries degrade to the
  /// CB path. 0 = unlimited (usage is still tracked for metrics).
  size_t memory_budget_bytes = 0;
  /// Streaming ingestion (docs/INGESTION.md): total delta-segment bytes
  /// across cached indices above which an ingest kicks the background merge
  /// immediately instead of waiting for the interval. 0 = kick after every
  /// ingest.
  size_t delta_merge_bytes = size_t{1} << 20;
  /// Background merge cadence: the merger thread wakes at least this often
  /// while deltas exist. 0 disables the periodic wake (merges then run only
  /// when kicked by the byte threshold or MergeDeltasNow).
  size_t merge_interval_ms = 200;
  /// false = never start the background merger; delta segments then persist
  /// until an explicit MergeDeltasNow() (deterministic tests, benches that
  /// A/B the two-segment read path).
  bool auto_delta_merge = true;
};

/// Per-execution control block: cooperative cancellation plus a sink for
/// the query's own statistics (the service layer reports per-query stats
/// and merges them into the engine totals atomically).
struct ExecControl {
  /// Polled by the CB scan loop, the II join loop and the regex scan.
  const StopToken* stop = nullptr;
  /// If set, receives exactly this execution's counters.
  ScanStats* stats_out = nullptr;
  /// If set, the execution records its span tree here (EXPLAIN ANALYZE,
  /// service trace sampling). nullptr = tracing off, near-zero overhead.
  TraceContext* trace = nullptr;
  /// If set, a degraded distributed scatter (engine/remote_shard.h) records
  /// the indices of shards whose slices are missing from the answer here;
  /// left empty for complete answers. Callers that pass this accept
  /// partial answers — the service layer flags them X-Solap-Partial.
  std::vector<size_t>* missing_shards = nullptr;
  /// If set, receives the engine epoch this execution's snapshot was taken
  /// at (EpochGate). Two answers reporting the same epoch saw identical
  /// engine state — the streaming-ingestion consistency contract.
  uint64_t* epoch_out = nullptr;
};

/// What a plain-template query resolves to before execution: its pattern
/// template, its formed sequence groups and the ordinals of the groups that
/// survive its global slices. The optimizer resolves this while costing a
/// query and hands it on (StrategyChoice::resolved), so a repository miss
/// forms its groups once even when the formation is not cached.
struct ResolvedQuery {
  PatternTemplate tmpl;
  /// nullptr = not resolved; execution then resolves it itself.
  std::shared_ptr<SequenceGroupSet> groups;
  std::vector<size_t> selected_groups;
};

/// \brief The S-OLAP system facade.
///
/// Construct either over an event table (+ hierarchy registry), in which
/// case S-cuboid formation steps 1-4 run through the sequence query engine,
/// or over a pre-formed raw SequenceGroupSet (synthetic workloads that have
/// no event attributes beyond the symbol stream).
///
/// Query execution (`Execute` and the offline index builders) is
/// thread-safe: the repository, sequence cache and per-group index caches
/// synchronize internally (shared-lock reads, exclusive cache-populating
/// writes), and each execution counts into a private ScanStats merged into
/// the engine totals under a mutex. Mutating calls — `IngestRows`,
/// `EvictBefore`, `AppendRawSequences`, `NotifyTableAppend`, and the
/// background delta merge — serialize against queries through the engine's
/// EpochGate (common/epoch.h): every execution holds the gate shared for
/// its whole run and observes one consistent epoch, so writers no longer
/// need the caller to quiesce (see DESIGN.md §11, docs/INGESTION.md).
class SOlapEngine {
 public:
  SOlapEngine(const EventTable* table, const HierarchyRegistry* hierarchies,
              EngineOptions options = {});
  /// Mutable-table overload: identical, but additionally enables the
  /// streaming-ingestion write path (`IngestRows`, `EvictBefore`) on this
  /// engine — the table must outlive it and must not be mutated behind the
  /// engine's back.
  SOlapEngine(EventTable* table, const HierarchyRegistry* hierarchies,
              EngineOptions options = {});
  SOlapEngine(std::shared_ptr<SequenceGroupSet> raw_groups,
              const HierarchyRegistry* hierarchies,
              EngineOptions options = {});
  ~SOlapEngine();

  SOlapEngine(const SOlapEngine&) = delete;
  SOlapEngine& operator=(const SOlapEngine&) = delete;

  // -- Query execution -----------------------------------------------------

  /// Executes `spec` with the default strategy. Results are served from the
  /// cuboid repository when the identical specification was answered before.
  Result<std::shared_ptr<const SCuboid>> Execute(const CuboidSpec& spec);
  Result<std::shared_ptr<const SCuboid>> Execute(const CuboidSpec& spec,
                                                 ExecStrategy strategy);
  /// Full-control variant: cancellation/deadline token and per-query stats.
  Result<std::shared_ptr<const SCuboid>> Execute(const CuboidSpec& spec,
                                                 ExecStrategy strategy,
                                                 const ExecControl& control);

  /// Online aggregation (paper §6): runs `spec` with the CB strategy,
  /// invoking `progress` after every `report_every` sequences with the
  /// partial cuboid and the fraction of sequences processed so far. The
  /// callback may return false to stop early, in which case the partial
  /// (approximate) cuboid is returned and *not* cached.
  using ProgressFn = std::function<bool(const SCuboid& partial,
                                        double fraction_processed)>;
  Result<std::shared_ptr<const SCuboid>> ExecuteOnline(
      const CuboidSpec& spec, size_t report_every, const ProgressFn& progress);

  // -- Offline index precomputation (paper §4.2.2) ---------------------------

  /// Builds the complete size-m inverted index whose positions all use
  /// `position_ref` for every sequence group formed by `spec`'s formation
  /// clauses (the paper precomputes size-2 indices at the finest level).
  Status PrecomputeIndex(const CuboidSpec& spec, size_t m,
                         const LevelRef& position_ref);

  /// Runs S-cuboid formation steps 1-4 for `spec` and stores the result in
  /// the sequence cache. Benchmarks call this so that query timings measure
  /// S-cuboid construction (steps 5-6), matching the paper's architecture
  /// where formation is offloaded and cached (Fig. 6).
  Status WarmSequenceCache(const SequenceSpec& spec);

  /// Builds the complete index of `shape` for every sequence group formed
  /// by `formation` and caches them (the MaterializationAdvisor's build
  /// hook; also usable directly for hand-picked shapes).
  Status MaterializeIndex(const SequenceSpec& formation,
                          const IndexShape& shape);

  // -- Incremental update (paper §6) ----------------------------------------

  /// Raw-group engines: appends new sequences (base-code streams) to group
  /// `group_idx`, extending every cached complete index of that group with
  /// the new sequences instead of rebuilding (join-derived filtered indices
  /// are dropped). Cached cuboids over the data are invalidated.
  Status AppendRawSequences(size_t group_idx,
                            const std::vector<std::vector<Code>>& sequences);

  /// Table-backed engines: must be called after rows are appended to the
  /// event table. Invalidates formed sequence groups, indices and cuboids
  /// (conservative correctness; see DESIGN.md).
  void NotifyTableAppend();

  // -- Streaming ingestion (docs/INGESTION.md) -------------------------------

  /// Appends a batch of event rows under the epoch gate and incrementally
  /// maintains every cached structure: formations whose new rows only
  /// introduce NEW cluster keys are extended in place (new sequences append
  /// at the tail, cached complete indices grow delta segments, patchable
  /// cached cuboids are delta-patched); a batch that touches an EXISTING
  /// cluster key conservatively invalidates that formation and its
  /// dependents. All-or-nothing: a validation failure rejects the whole
  /// batch and the epoch does not advance (nor for an empty batch).
  /// Requires the mutable-table constructor; InvalidArgument otherwise.
  Status IngestRows(const std::vector<std::vector<Value>>& rows,
                    TraceContext* trace = nullptr);

  /// Applies a replicated dictionary tail to the backing table under the
  /// write gate: codes [from, from+values.size()) must match the sender's.
  /// The remote-append path (net/shard_routes.cc) uses this to keep a
  /// replica's dictionaries code-identical to its coordinator slice before
  /// the replicated rows are re-encoded. Not an observable mutation — no
  /// row references the new codes yet — so the epoch does not advance.
  Status SyncTableDictionary(int col, size_t from,
                             const std::vector<std::string>& values);

  /// Time-window retention: logically evicts every row whose int64 or
  /// timestamp column `order_attr` is below `cutoff`. Formed groups,
  /// indices and cuboids are invalidated (their governor charges refunded);
  /// subsequent formations — fresh or incremental — apply the cutoff, so
  /// rebuilds and extensions agree on the visible data. Monotone: a cutoff
  /// below the current one is a no-op on the filter (epoch still advances).
  Status EvictBefore(const std::string& order_attr, int64_t cutoff);

  /// The engine epoch (EpochGate) — advances on every committed mutation,
  /// even while a writer is inside its critical section.
  uint64_t epoch() const { return gate_.epoch(); }

  /// Foreground delta merge: folds every cached index's delta segment into
  /// its base containers under the exclusive gate. Logical content is
  /// unchanged, so the epoch does not advance. The background merger calls
  /// this on its interval; tests call it for determinism.
  Status MergeDeltasNow(TraceContext* trace = nullptr);

  /// Live delta-segment footprint across all cached indices.
  struct DeltaStats {
    size_t segments = 0;  ///< cached indices currently holding a delta
    size_t bytes = 0;     ///< summed DeltaByteSize of those indices
  };
  DeltaStats DeltaSnapshot() const;

  // -- Introspection ---------------------------------------------------------

  /// Direct reference to the engine totals — single-threaded use only
  /// (benches, tests). Concurrent readers use StatsSnapshot().
  ScanStats& stats() { return stats_; }
  /// Consistent copy of the engine totals, safe under concurrent queries.
  ScanStats StatsSnapshot() const {
    std::lock_guard<std::mutex> lock(stats_mu_);
    return stats_;
  }
  const CuboidRepository& repository() const { return repository_; }
  /// Bytes of inverted indices currently cached across all groups.
  size_t IndexCacheBytes() const;
  /// The engine-wide memory budget accountant (resident caches + join
  /// scratch). Thread-safe for reads; the budget is fixed at construction.
  const MemoryGovernor& governor() const { return governor_; }

  const HierarchyRegistry* hierarchies() const { return hierarchies_; }

  // -- Introspection for the optimizer and tools ----------------------------

  /// The sequence groups `seq` resolves to (cached formation).
  Result<std::shared_ptr<SequenceGroupSet>> GroupsFor(const SequenceSpec& s) {
    return GetGroups(s);
  }
  /// Resolves a plain-template `spec`: its template, its formation (cached
  /// or formed now) and the groups surviving its global slices.
  Result<ResolvedQuery> ResolveQuery(const CuboidSpec& spec);
  /// The index cache of one group, or nullptr if none exists yet.
  const GroupIndexCache* FindIndexCache(const SequenceGroupSet& set,
                                        size_t group_idx) const;

 private:
  /// Everything resolved once per query execution.
  struct QueryContext {
    const CuboidSpec* spec = nullptr;
    PatternTemplate tmpl;    // plain templates
    RegexTemplate rtmpl;     // regex templates (spec->is_regex())
    std::shared_ptr<SequenceGroupSet> groups;
    std::vector<size_t> selected_groups;
    int measure_col = -1;
    SCuboid* cuboid = nullptr;
    /// This execution's private counters (merged into stats_ at the end).
    ScanStats* stats = nullptr;
    /// Cancellation/deadline token, nullptr when uncontrolled.
    const StopToken* stop = nullptr;
    /// Span sink of this execution, nullptr when tracing is off.
    TraceContext* trace = nullptr;
  };

  Result<std::shared_ptr<const SCuboid>> ExecuteWithStats(
      const CuboidSpec& spec, ExecStrategy strategy,
      const ExecControl& control, ScanStats* stats);
  /// ExecuteWithStats body; bad_alloc escaping it is caught at the query
  /// boundary (ExecuteWithStats) and mapped to ResourceExhausted.
  Result<std::shared_ptr<const SCuboid>> ExecuteGuarded(
      const CuboidSpec& spec, ExecStrategy strategy,
      const ExecControl& control, ScanStats* stats);
  /// Resolves `spec` into an execution context. A plain-template query
  /// takes over `resolved` when it is set (the optimizer's, same epoch
  /// snapshot) instead of forming its groups again.
  Result<QueryContext> Prepare(const CuboidSpec& spec, SCuboid* cuboid,
                               ResolvedQuery resolved = {});
  /// Applies human-readable labels to every cell of `cuboid` (shared by the
  /// query finalize step and the ingest-time cuboid patcher).
  static Status LabelCells(SCuboid* cuboid, const SequenceGroupSet& set,
                           const HierarchyRegistry* reg,
                           const std::vector<PatternDim>& dims);
  Result<std::shared_ptr<SequenceGroupSet>> GetGroups(const SequenceSpec& s);
  Result<std::vector<size_t>> SelectGroups(const SequenceGroupSet& set,
                                           const CuboidSpec& spec) const;
  std::vector<DimDescriptor> MakeDimDescriptors(const CuboidSpec& spec) const;

  /// Per-assignment measure total over the matched events (`idx`) or, for
  /// the data-go restriction, over the whole sequence.
  double ContentSum(const QueryContext& ctx, SequenceGroup& group, Sid s,
                    const uint32_t* idx, size_t m, bool whole_sequence) const;

  /// Folds one assignment into `cuboid` (II verification; the scans fold
  /// through a CellAccumulator instead).
  void AddAssignment(const QueryContext& ctx, SequenceGroup& group,
                     const BoundPattern& bp, const PatternKey& dim_codes,
                     Sid s, const uint32_t* idx, SCuboid* cuboid) const;

  // Regex templates (engine/regex_exec.cc): always a counter-based scan.
  Status RunRegex(QueryContext& ctx);

  // CB strategy (engine/counter_based.cc).
  Status RunCounterBased(QueryContext& ctx);
  /// Scans sequences [begin, end) of one group, folding assignments into
  /// `cuboid` through a CellAccumulator and counting into `stats` — the
  /// unit shared by sequential CB, multi-threaded CB (per-thread cuboids),
  /// ingest cuboid patches and online aggregation.
  Status CounterScanRange(const QueryContext& ctx, SequenceGroup& group,
                          const BoundPattern& bp, Sid begin, Sid end,
                          SCuboid* cuboid, ScanStats* stats) const;

  // II strategy (engine/query_indices.cc).
  Status RunInvertedIndex(QueryContext& ctx);
  Result<std::shared_ptr<InvertedIndex>> ObtainIndex(
      GroupIndexCache& cache, SequenceGroup& group,
      const SequenceGroupSet& set, const PatternTemplate& tmpl,
      const BoundPattern& bp, ScanStats* stats, const StopToken* stop,
      TraceContext* trace);
  /// Counting step shared by both strategies' index path (Fig. 15 l. 10-11).
  Status CountFromIndex(QueryContext& ctx, SequenceGroup& group,
                        const BoundPattern& bp, const InvertedIndex& index);

  /// Fine-to-coarse code map between two levels of a string dimension.
  Result<std::vector<Code>> LevelMapFor(const SequenceGroupSet& set,
                                        const std::string& attr,
                                        int from_level, int to_level) const;

  GroupIndexCache& CacheFor(const SequenceGroupSet& set, size_t group_idx);

  // -- Streaming-ingestion internals (engine/ingest.cc) ----------------------

  /// One group's appended-sid range within an extended formation.
  struct GroupDelta {
    size_t group_idx = 0;
    Sid old_count = 0;  ///< sids >= old_count are the appended tail
  };
  using FormationDeltas =
      std::unordered_map<const SequenceGroupSet*, std::vector<GroupDelta>>;

  /// Attempts the pattern-invariant extension of one cached formation with
  /// table rows [from_row, num_rows). Returns false when any new row maps
  /// to an existing cluster key — the caller must invalidate instead. On
  /// success records the touched groups' deltas and delta-extends their
  /// cached complete indices.
  Result<bool> TryExtendFormation(const SequenceSpec& spec,
                                  const std::shared_ptr<SequenceGroupSet>& set,
                                  RowId from_row, FormationDeltas* deltas,
                                  ScanStats* stats);

  /// Walks the cuboid repository after an append: delta-patches entries
  /// whose spec is AppendPatchable and whose formation was extended,
  /// invalidates the rest (counted in stats).
  void PatchOrInvalidateCuboids(const FormationDeltas& deltas,
                                ScanStats* stats);

  /// Drops the per-group index caches keyed by `set`'s identity.
  void DropIndexCachesFor(const SequenceGroupSet& set);

  /// Lazily starts the background merger (no-op when auto_delta_merge is
  /// off); kicks it when the delta byte threshold is exceeded.
  void EnsureMerger();
  void MaybeKickMerger();
  void MergerLoop();
  void StopMerger();

  /// The engine's lazily-created compute pool, or nullptr when
  /// options_.exec_threads resolves to a single thread. Thread-safe.
  ThreadPool* ComputePool();

  /// Join/merge execution knobs derived from options_ (includes the
  /// compute pool when one is configured).
  JoinExecOptions JoinExec();

  /// Folds one execution's counters into the engine totals.
  void MergeStats(const ScanStats& delta) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_ += delta;
  }

  const EventTable* table_ = nullptr;
  /// Non-null only via the mutable-table constructor; gates IngestRows.
  EventTable* mutable_table_ = nullptr;
  std::shared_ptr<SequenceGroupSet> raw_groups_;
  const HierarchyRegistry* hierarchies_;
  EngineOptions options_;

  /// Serializes mutations (ingest, merge, eviction, admin calls) against
  /// query executions; the source of the query-visible epoch.
  EpochGate gate_;

  /// Retention window installed by EvictBefore (read under the shared
  /// gate by formation, written under the exclusive gate).
  RowFilter retention_;

  // Background delta merger (started lazily by the first ingest).
  std::thread merger_;
  std::condition_variable merge_cv_;
  std::mutex merge_mu_;
  bool merger_started_ = false;
  bool merge_stop_ = false;
  bool merge_kick_ = false;

  // Declared before every cache that charges it: caches refund their
  // charges on destruction, so the governor must be torn down last.
  MemoryGovernor governor_;
  SequenceCache sequence_cache_;
  CuboidRepository repository_;
  // Index caches keyed by (group set, group ordinal). The map itself is
  // guarded by index_caches_mu_; each GroupIndexCache synchronizes
  // internally (references stay valid across inserts).
  std::unordered_map<std::string, GroupIndexCache> index_caches_;
  mutable std::mutex index_caches_mu_;
  // Shared intra-query compute pool (see EngineOptions::exec_threads).
  std::unique_ptr<ThreadPool> compute_pool_;
  bool compute_pool_created_ = false;
  std::mutex compute_pool_mu_;
  ScanStats stats_;
  mutable std::mutex stats_mu_;
};

}  // namespace solap

#endif  // SOLAP_ENGINE_ENGINE_H_
