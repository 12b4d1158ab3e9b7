#include "classical/static_optimizer.h"

#include <algorithm>

#include "common/check.h"
#include "exec/structural_join.h"
#include "exec/value_join.h"
#include "rox/state.h"

namespace rox {

namespace {

// Exact base cardinality of a vertex (the optimizer's single-document
// statistics: element/attribute counts and value-index counts are all
// available from the indexes).
double VertexCard(const Corpus& corpus, const JoinGraph& graph, VertexId v) {
  const Vertex& vx = graph.vertex(v);
  const ElementIndex& eidx = corpus.element_index(vx.doc);
  const ValueIndex& vidx = corpus.value_index(vx.doc);
  switch (vx.type) {
    case VertexType::kRoot:
      return 1.0;
    case VertexType::kElement:
      return static_cast<double>(eidx.Count(vx.name));
    case VertexType::kText:
      switch (vx.pred.kind) {
        case ValuePredicate::Kind::kEquals:
          return static_cast<double>(vidx.TextLookup(vx.pred.equals).size());
        case ValuePredicate::Kind::kNotEquals:
          return static_cast<double>(vidx.text_node_count() -
                                     vidx.TextLookup(vx.pred.equals).size());
        case ValuePredicate::Kind::kRange:
          return static_cast<double>(vidx.TextRangeCount(vx.pred.range));
        case ValuePredicate::Kind::kAnyOf:
          return static_cast<double>(
              FilterByPredicate(corpus.doc(vx.doc), vidx.AllTextNodes(),
                                vx.pred)
                  .size());
        case ValuePredicate::Kind::kNone:
          return static_cast<double>(vidx.text_node_count());
      }
      break;
    case VertexType::kAttribute:
      return static_cast<double>(eidx.CountAttr(vx.name));
  }
  return 1.0;
}

// Exact single-step result cardinality on the *base* tables: the paper
// grants the classical optimizer accurate per-document estimation, so
// we compute the true pair count of the step between unreduced vertex
// node sets once, at "compile time".
double ExactStepCard(const Corpus& corpus, const JoinGraph& graph,
                     EdgeId e) {
  const Edge& edge = graph.edge(e);
  const Vertex& v1 = graph.vertex(edge.v1);
  const Document& doc = corpus.doc(v1.doc);
  const ElementIndex& eidx = corpus.element_index(v1.doc);
  // Materialize the context side (prefer v1); step toward v2.
  // Index-selectable contexts keep this cheap; otherwise estimate from
  // the other side.
  auto nodes_of = [&](VertexId v) -> std::vector<Pre> {
    const Vertex& vx = graph.vertex(v);
    switch (vx.type) {
      case VertexType::kRoot:
        return {0};
      case VertexType::kElement: {
        auto span = eidx.Lookup(vx.name);
        return {span.begin(), span.end()};
      }
      case VertexType::kAttribute: {
        auto span = eidx.LookupAttr(vx.name);
        return {span.begin(), span.end()};
      }
      case VertexType::kText: {
        const ValueIndex& vidx = corpus.value_index(vx.doc);
        if (vx.pred.kind == ValuePredicate::Kind::kEquals) {
          auto span = vidx.TextLookup(vx.pred.equals);
          return {span.begin(), span.end()};
        }
        if (vx.pred.kind == ValuePredicate::Kind::kRange) {
          return vidx.TextRangeLookup(vx.pred.range);
        }
        if (vx.pred.kind != ValuePredicate::Kind::kNone) {
          return FilterByPredicate(corpus.doc(vx.doc), vidx.AllTextNodes(),
                                   vx.pred);
        }
        return {};  // unrestricted text: derive from the other side
      }
    }
    return {};
  };
  VertexId from = edge.v1, to = edge.v2;
  std::vector<Pre> ctx = nodes_of(from);
  if (ctx.empty()) {
    std::swap(from, to);
    ctx = nodes_of(from);
    if (ctx.empty()) return 0.0;
  }
  Axis axis = (from == edge.v1) ? edge.axis : ReverseAxis(edge.axis);
  const Vertex& tx = graph.vertex(to);
  StepSpec spec;
  spec.axis = axis;
  switch (tx.type) {
    case VertexType::kRoot:
      spec.kind = KindTest::kDoc;
      break;
    case VertexType::kElement:
      spec.kind = KindTest::kElem;
      spec.name = tx.name;
      break;
    case VertexType::kText:
      spec.kind = KindTest::kText;
      break;
    case VertexType::kAttribute:
      spec.kind = KindTest::kAttr;
      spec.name = tx.name;
      if (spec.axis == Axis::kChild) spec.axis = Axis::kAttribute;
      break;
  }
  JoinPairs pairs = StructuralJoinPairs(doc, ctx, spec, kNoLimit, &eidx);
  // Apply the target's value predicate (part of the statistics).
  if (tx.pred.kind != ValuePredicate::Kind::kNone) {
    size_t n = 0;
    for (Pre s : pairs.right_nodes) n += tx.pred.Matches(doc, s);
    return static_cast<double>(n);
  }
  return static_cast<double>(pairs.size());
}

}  // namespace

StaticPlan PlanStatically(const Corpus& corpus, const JoinGraph& graph,
                          const StaticPlanOptions& options) {
  return PlanStatically(corpus, graph, options,
                        std::vector<bool>(graph.EdgeCount(), false),
                        std::vector<double>(graph.VertexCount(), -1.0));
}

StaticPlan PlanStatically(const Corpus& corpus, const JoinGraph& graph,
                          const StaticPlanOptions& options,
                          const std::vector<bool>& already_executed,
                          const std::vector<double>& current_cards) {
  size_t nv = graph.VertexCount(), ne = graph.EdgeCount();
  std::vector<double> card(nv);
  for (VertexId v = 0; v < nv; ++v) card[v] = VertexCard(corpus, graph, v);

  // Static per-edge estimates on base tables.
  std::vector<double> base_est(ne);
  for (EdgeId e = 0; e < ne; ++e) {
    const Edge& edge = graph.edge(e);
    if (edge.type == EdgeType::kStep) {
      base_est[e] = ExactStepCard(corpus, graph, e);
    } else {
      const Vertex& a = graph.vertex(edge.v1);
      const Vertex& b = graph.vertex(edge.v2);
      double ca = card[edge.v1], cb = card[edge.v2];
      if (edge.cmp == CmpOp::kNe) {
        // Inequality joins nearly cross-product: |A|·|B|·(1 - 1/V).
        base_est[e] = ca * cb * (1.0 - 1.0 / std::max({ca, cb, 1.0}));
      } else if (edge.cmp != CmpOp::kEq) {
        // Textbook selectivity for range theta joins: 1/3 (System R's
        // magic constant for col OP col without statistics).
        base_est[e] = ca * cb / 3.0;
      } else if (a.doc == b.doc) {
        // Same-document equi-join: grant accurate estimation by
        // treating it like a known statistic (ca·cb / max distinct).
        base_est[e] = ca * cb / std::max({ca, cb, 1.0});
      } else {
        // Cross-document: System R style independence fallback.
        base_est[e] = options.equi_fudge * ca * cb / std::max({ca, cb, 1.0});
      }
    }
  }

  // Greedy smallest-estimate-first over connected edges, with
  // multiplicative selectivity propagation (no re-observation — this is
  // exactly the compounding-error behavior run-time sampling avoids).
  // For mid-query re-planning, observed cardinalities override the
  // statistics and executed edges seed the "touched" region.
  std::vector<double> cur_card = card;
  for (VertexId v = 0; v < nv; ++v) {
    if (current_cards[v] >= 0) cur_card[v] = current_cards[v];
  }
  std::vector<bool> used = already_executed;
  std::vector<bool> touched(nv, false);
  for (EdgeId e = 0; e < ne; ++e) {
    if (used[e]) {
      touched[graph.edge(e).v1] = true;
      touched[graph.edge(e).v2] = true;
    }
  }
  StaticPlan plan;
  auto scaled_est = [&](EdgeId e) {
    const Edge& edge = graph.edge(e);
    double f1 = card[edge.v1] > 0 ? cur_card[edge.v1] / card[edge.v1] : 1.0;
    double f2 = card[edge.v2] > 0 ? cur_card[edge.v2] / card[edge.v2] : 1.0;
    return base_est[e] * f1 * f2;
  };
  for (size_t step = 0; step < ne; ++step) {
    EdgeId best = kInvalidEdgeId;
    double best_est = 0;
    bool any_touched = false;
    for (VertexId v = 0; v < nv; ++v) any_touched |= touched[v];
    for (EdgeId e = 0; e < ne; ++e) {
      if (used[e]) continue;
      const Edge& edge = graph.edge(e);
      // Prefer edges connected to the executed region (pipeline
      // shape); when nothing qualifies, any edge may start a region.
      bool connected = !any_touched || touched[edge.v1] || touched[edge.v2];
      if (!connected) continue;
      double est = scaled_est(e);
      if (best == kInvalidEdgeId || est < best_est) {
        best = e;
        best_est = est;
      }
    }
    if (best == kInvalidEdgeId) {
      // Disconnected remainder: start a new region.
      for (EdgeId e = 0; e < ne; ++e) {
        if (!used[e]) {
          best = e;
          best_est = scaled_est(e);
          break;
        }
      }
    }
    if (best == kInvalidEdgeId) break;
    used[best] = true;
    plan.order.push_back(best);
    plan.estimates.push_back(best_est);
    const Edge& edge = graph.edge(best);
    touched[edge.v1] = touched[edge.v2] = true;
    // Propagate: both endpoints shrink to at most the edge estimate.
    cur_card[edge.v1] = std::min(cur_card[edge.v1], best_est);
    cur_card[edge.v2] = std::min(cur_card[edge.v2], best_est);
  }
  return plan;
}

Result<ProgressiveResult> ExecuteProgressively(
    const Corpus& corpus, const JoinGraph& graph,
    const ProgressiveOptions& options) {
  ROX_RETURN_IF_ERROR(graph.Validate());
  RoxOptions rox_options;
  rox_options.resample_after_execute = false;
  rox_options.enable_chain_sampling = false;
  rox_options.timed_operator_selection = false;
  RoxState state(corpus, graph, rox_options);

  ProgressiveResult out;
  StaticPlan plan = PlanStatically(corpus, graph, options.planning);
  size_t idx = 0;
  std::vector<bool> executed(graph.EdgeCount(), false);
  size_t remaining = graph.EdgeCount();
  double f = std::max(options.validity_factor, 1.0);
  while (remaining > 0) {
    if (idx >= plan.order.size()) {
      return Status::Internal("progressive plan exhausted prematurely");
    }
    EdgeId e = plan.order[idx];
    double est = plan.estimates[idx];
    ++idx;
    ROX_RETURN_IF_ERROR(state.ExecuteEdge(e));
    executed[e] = true;
    --remaining;
    double observed =
        state.estate(e).view.has_value()
            ? static_cast<double>(state.estate(e).ResultRows())
            : est;  // implied-skip edges observe nothing
    // Validity range check ([25]): re-plan the rest when the observed
    // cardinality escapes [est/f, est*f].
    bool out_of_range =
        observed > est * f || (est > 0 && observed < est / f);
    if (out_of_range && remaining > 0) {
      std::vector<double> cards(graph.VertexCount(), -1.0);
      for (VertexId v = 0; v < graph.VertexCount(); ++v) {
        cards[v] = state.vstate(v).card;
      }
      plan = PlanStatically(corpus, graph, options.planning, executed, cards);
      idx = 0;
      ++out.replans;
    }
  }
  ROX_ASSIGN_OR_RETURN(out.result.table,
                       state.AssembleFinal(&out.result.columns));
  out.result.stats = state.stats();
  return out;
}

Result<RoxResult> ExecuteStaticPlan(const Corpus& corpus,
                                    const JoinGraph& graph,
                                    const StaticPlan& plan) {
  ROX_RETURN_IF_ERROR(graph.Validate());
  RoxOptions options;
  // No run-time feedback: no re-sampling, no chain sampling, no timed
  // operator selection.
  options.resample_after_execute = false;
  options.enable_chain_sampling = false;
  options.timed_operator_selection = false;
  RoxState state(corpus, graph, options);
  for (EdgeId e : plan.order) {
    ROX_RETURN_IF_ERROR(state.ExecuteEdge(e));
  }
  RoxResult out;
  ROX_ASSIGN_OR_RETURN(out.table, state.AssembleFinal(&out.columns));
  out.stats = state.stats();
  return out;
}

}  // namespace rox
