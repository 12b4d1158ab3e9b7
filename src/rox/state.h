// Run-time execution state of the ROX optimizer: per-vertex materialized
// tables and samples, per-edge weights and materialized pair results.
//
// Notation mapping to the paper (§3):
//   T(v)    -> VertexState::table       (distinct nodes satisfying v)
//   S(v)    -> VertexState::sample
//   card(v) -> VertexState::card
//   w(e)    -> EdgeState::weight
//   exec(e, T(v1), T(v2)) -> RoxState::ExecuteEdge
//
// Execution model. Executing an edge materializes its *pair result*
// R_e ⊆ T(v1) × T(v2) — the paper's "partial result" — and then
// semi-join-reduces both vertex tables to the nodes that survived
// (Algorithm 1's UpdateTable, lines 14-17). Edge weights therefore
// estimate exactly |R_e|, and the cost of one execution is governed by
// the tables as they stand, never by previously joined combinations.
// After all edges are executed, AssembleFinal() joins the pair results
// into the fully joined relation of the Join Graph (the Yannakakis-
// style assembly a relational back-end performs for the plan tail);
// edges that close cycles act as filters during assembly.

#ifndef ROX_ROX_STATE_H_
#define ROX_ROX_STATE_H_

#include <optional>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/timer.h"
#include "exec/column_arena.h"
#include "exec/result_table.h"
#include "exec/result_view.h"
#include "exec/sharded_exec.h"
#include "exec/structural_join.h"
#include "graph/join_graph.h"
#include "index/corpus.h"
#include "index/sharded_corpus.h"
#include "obs/trace.h"
#include "rox/options.h"

namespace rox {

// Execution/overhead statistics of one ROX run.
struct RoxStats {
  TimeAccumulator sampling_time;   // chain sampling + weight estimation
  TimeAccumulator execution_time;  // edge executions + final assembly
  TimeAccumulator assembly_time;   // final assembly only (⊆ execution)

  uint64_t edges_executed = 0;
  uint64_t chain_sample_calls = 0;
  // Edges whose initial weight came from RoxOptions::warm_edge_weights
  // instead of Phase 1 sampling.
  uint64_t warm_started_weights = 0;
  // Timed operator selections performed (§6 extension) and how often
  // they overrode the default (smaller-input / hash-join) choice.
  uint64_t operator_selections = 0;
  uint64_t operator_overrides = 0;
  uint64_t chain_rounds = 0;
  uint64_t sampled_tuples = 0;  // tuples produced by sampled operators
  // Σ of intermediate result sizes: every |R_e| plus every intermediate
  // of the final assembly — the run's total intermediate volume.
  uint64_t cumulative_intermediate_rows = 0;
  uint64_t peak_intermediate_rows = 0;
  // Late-materialization gather counters (DESIGN.md §8).
  GatherStats gather;
  // Bytes held by the run's column arena.
  uint64_t arena_bytes = 0;
  std::vector<EdgeId> execution_order;

  // Sharded execution counters (zero/empty when the run was unsharded).
  ShardFanoutStats sharded;
};

struct VertexState {
  // T(v): sorted duplicate-free nodes, once materialized.
  std::optional<std::vector<Pre>> table;
  // S(v): up to τ sampled nodes (document order).
  std::vector<Pre> sample;
  // card(v): estimated cardinality (<0: unknown).
  double card = -1.0;
};

struct EdgeState {
  double weight = -1.0;  // w(e); <0: unweighted
  bool executed = false;
  // R_e: two columns [v1 nodes, v2 nodes] as a view (selection
  // vectors over arena-adopted base columns); absent for edges whose
  // predicate was implied by transitivity and skipped.
  std::optional<ResultView> view;

  uint64_t ResultRows() const {
    return view.has_value() ? view->NumRows() : 0;
  }
};

// Output of a sampled (cut-off) edge execution.
struct EdgeSample {
  std::vector<Pre> out_nodes;  // matched nodes in the target vertex domain
  double est = 0.0;            // extrapolated full-result cardinality
};

class RoxState {
 public:
  // The snapshot is held (pinned) for the state's lifetime: an engine-
  // issued owning snapshot keeps its corpus epoch alive even if the
  // next epoch publishes mid-query (DESIGN.md §10). Unowned snapshots
  // (implicit from a stack-owned `const Corpus&`) rely on the caller.
  RoxState(CorpusSnapshot snapshot, const JoinGraph& graph,
           const RoxOptions& options);

  // --- phase 1 -------------------------------------------------------------

  // Initializes S(v)/card(v) for index-selectable vertices and w(e) for
  // edges with at least one sampled endpoint (Algorithm 1, lines 1-4).
  void InitializeSamplesAndWeights();

  // --- phase 2 primitives ---------------------------------------------------

  // Executes edge `e` fully: initializes T of index-selectable loose
  // endpoints, materializes the pair result R_e, semi-join-reduces both
  // vertex tables, refreshes samples/cards and re-samples incident
  // weights (Algorithm 1, lines 7-19).
  Status ExecuteEdge(EdgeId e);

  // Cut-off sampled execution of edge `e` taking `input` nodes on the
  // `from` side (zero-investment operators only). `limit` is the output
  // cut-off l.
  EdgeSample SampleEdgeFrom(EdgeId e, VertexId from,
                            std::span<const Pre> input, uint64_t limit);

  // Recomputes w(e) by sampling (the EstimateCard of §3). Returns the
  // new weight, or -1 if neither endpoint is sampled yet.
  double EstimateCardinality(EdgeId e);

  // Joins all materialized pair results into the fully joined relation;
  // `columns` receives the vertex of each output column. Requires all
  // edges executed and a connected graph: AssembleFinalView over every
  // vertex, then one gather of every column.
  Result<ResultTable> AssembleFinal(std::vector<VertexId>* columns);

  // Assembles the final relation as an un-gathered view over
  // state-owned storage (valid until the state dies). `output_vertices`
  // are the vertices whose columns the caller will read — all other
  // columns may come out dead (never materialized, must not be read).
  // `columns` always receives the full column -> vertex mapping.
  Result<ResultView> AssembleFinalView(
      std::vector<VertexId>* columns,
      std::span<const VertexId> output_vertices);

  // --- accessors -------------------------------------------------------------

  const JoinGraph& graph() const { return graph_; }
  const Corpus& corpus() const { return corpus_; }
  const CorpusSnapshot& snapshot() const { return snapshot_; }
  const RoxOptions& options() const { return options_; }
  Rng& rng() { return rng_; }

  const VertexState& vstate(VertexId v) const { return vertices_[v]; }
  const EdgeState& estate(EdgeId e) const { return edges_[e]; }
  bool Executed(EdgeId e) const { return edges_[e].executed; }

  // Number of un-executed edges.
  int RemainingEdges() const;

  // The un-executed edge with the smallest weight; kInvalidEdgeId if no
  // edge has a weight yet.
  EdgeId MinWeightEdge() const;

  // Un-executed edges incident to `v`.
  std::vector<EdgeId> UnexecutedEdges(VertexId v) const;

  // Materializes T(v) from an index lookup if needed (only valid for
  // index-selectable vertices).
  Status EnsureTable(VertexId v);

  // The current sample S(v).
  std::span<const Pre> Sample(VertexId v) const { return vertices_[v].sample; }

  RoxStats& stats() { return stats_; }
  const RoxStats& stats() const { return stats_; }

  // The query's flight recorder, or null when tracing is off.
  obs::QueryTrace* query_trace() const { return options_.query_trace; }

  // The per-query column arena backing the views (see result_view.h).
  ColumnArena& arena() { return arena_; }

 private:
  // EstimateCardinality without the sampling-time accounting (used when
  // the caller already holds the timer).
  double EstimateCardinalityLocked(EdgeId e);

  // Updates the cumulative/peak intermediate-size counters.
  void RecordIntermediate(uint64_t rows);

  // True if equality of a and b is already implied by executed
  // equi-join edges (transitivity over the equivalence class).
  bool EquiJoinImplied(VertexId a, VertexId b) const;

  // Builds T(v) for an index-selectable vertex from the indexes. When
  // sharding is enabled the per-shard lookups run in parallel and
  // concatenate (shard ranges are contiguous, so the result is still
  // in document order).
  Result<std::vector<Pre>> IndexLookup(VertexId v) const;

  // The sharded-execution bundle, or null when disabled.
  const ShardedExec* Sharded() const {
    return (options_.sharded != nullptr && options_.sharded->Enabled())
               ? options_.sharded
               : nullptr;
  }

  // The element/value indexes Phase-1 sample draws come from: the
  // designated sample shard's when one is configured, the full
  // per-document indexes otherwise (ShardedExec::kSampleUnion).
  const ElementIndex& SamplingElementIndex(DocId doc) const;
  const ValueIndex& SamplingValueIndex(DocId doc) const;

  // Estimated (or exact) cardinality of the index lookup for v.
  double IndexCount(VertexId v) const;

  // Applies the vertex's value predicate and (if materialized) the
  // T(v)-membership restriction to pair results, keeping arrays synced.
  void FilterPairsForVertex(VertexId v, JoinPairs& pairs) const;

  bool NodeSatisfiesVertex(VertexId v, Pre node) const;

  // Executes `e` between materialized sides, producing R_e.
  Status ExecuteEdgeInternal(EdgeId e);

  // R_e construction: adopts the context table into the arena as the
  // base of a selection-vector column and flattens the (possibly
  // multi-lane) filtered pair parts into arena columns, offset-adjusted
  // — no merged JoinPairs, no row-copying of the context column.
  void StoreResult(EdgeId e, std::span<const Pre> ctx_base, size_t ctx_col,
                   ShardedJoinParts&& parts);

  // Post-execution bookkeeping: refresh T/S/card of the edge endpoints
  // and re-sample weights of their incident edges (lines 14-19).
  void UpdateAfterExecution(EdgeId e);

  // Chooses step spec for traversing edge `e` from side `from`.
  StepSpec StepSpecFrom(EdgeId e, VertexId from) const;

  // The physical equi-join algorithms selectable for materialized ends.
  enum class EquiAlgo : uint8_t { kHash, kMerge, kIndexNl };

  // §6 extension: times candidate context sides (for steps) on τ-sized
  // samples and returns the faster side; `def` is the size-heuristic
  // default.
  VertexId ChooseStepDirection(EdgeId e, VertexId def);
  // Ditto for equi-join algorithms when both ends are materialized.
  EquiAlgo ChooseEquiAlgorithm(EdgeId e, VertexId ctx);

  // Declared before corpus_: the reference below points into the
  // snapshot, which must be initialized (and destroyed) around it.
  CorpusSnapshot snapshot_;
  const Corpus& corpus_;
  const JoinGraph& graph_;
  RoxOptions options_;
  Rng rng_;

  std::vector<VertexState> vertices_;
  std::vector<EdgeState> edges_;
  RoxStats stats_;

  // The physical kernel the most recent ExecuteEdgeInternal ran, for
  // the trace's per-edge payload (static strings only).
  const char* last_kernel_ = "";

  // Arena backing the views (edge results, assembly intermediates).
  ColumnArena arena_;
  // Reused buffer of the sampled-execution loops (a RoxState runs one
  // query on one thread; sampled operators are never fanned out).
  JoinPairs sample_scratch_;
};

}  // namespace rox

#endif  // ROX_ROX_STATE_H_
