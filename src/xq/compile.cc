#include "xq/compile.h"

#include <algorithm>
#include <cmath>

#include "common/str_util.h"
#include "obs/trace.h"
#include "xq/parser.h"

namespace rox::xq {

namespace {

// Tracks compilation state: vertices created so far, per-document root
// vertices, variable bindings.
class Compiler {
 public:
  Compiler(const Corpus& corpus, const CompileOptions& options)
      : corpus_(corpus), options_(options) {}

  Result<CompiledQuery> Run(const AstQuery& q) {
    for (const AstLet& let : q.lets) {
      ROX_RETURN_IF_ERROR(CompileLet(let));
    }
    for (const AstFor& f : q.fors) {
      ROX_ASSIGN_OR_RETURN(VertexId v, CompilePath(f.domain));
      if (out_.variables.contains(f.variable)) {
        return Status::InvalidArgument(
            StrCat("variable $", f.variable, " bound twice"));
      }
      out_.variables.emplace(f.variable, v);
      out_.for_vertices.push_back(v);
    }
    for (const AstComparison& cmp : q.where) {
      ROX_ASSIGN_OR_RETURN(VertexId lhs, CompileWhereOperand(cmp.lhs));
      ROX_ASSIGN_OR_RETURN(VertexId rhs, CompileWhereOperand(cmp.rhs));
      out_.graph.AddValueJoin(lhs, rhs, cmp.op);
    }
    auto it = out_.variables.find(q.return_variable);
    if (it == out_.variables.end()) {
      return Status::InvalidArgument(
          StrCat("return variable $", q.return_variable, " is not bound"));
    }
    out_.return_vertex = it->second;
    ROX_RETURN_IF_ERROR(out_.graph.Validate());
    if (options_.add_equivalence_closure) out_.graph.AddEquivalenceClosure();
    if (options_.prune_root_edges) out_.graph.PruneRedundantRootEdges();
    return std::move(out_);
  }

 private:
  Status CompileLet(const AstLet& let) {
    if (let.value.doc_url.empty() || !let.value.steps.empty()) {
      return Status::Unimplemented(
          "let clauses must bind doc(\"...\") (path lets are future work)");
    }
    ROX_ASSIGN_OR_RETURN(VertexId root, RootFor(let.value.doc_url));
    if (out_.variables.contains(let.variable)) {
      return Status::InvalidArgument(
          StrCat("variable $", let.variable, " bound twice"));
    }
    out_.variables.emplace(let.variable, root);
    return Status::Ok();
  }

  Result<VertexId> RootFor(const std::string& url) {
    auto it = roots_.find(url);
    if (it != roots_.end()) return it->second;
    ROX_ASSIGN_OR_RETURN(DocId doc, corpus_.Resolve(url));
    VertexId root = out_.graph.AddRoot(doc, StrCat("root(", url, ")"));
    roots_.emplace(url, root);
    return root;
  }

  // Compiles a path expression; returns the vertex of its final step.
  Result<VertexId> CompilePath(const AstPathExpr& p) {
    VertexId cur;
    if (!p.doc_url.empty()) {
      ROX_ASSIGN_OR_RETURN(cur, RootFor(p.doc_url));
    } else {
      auto it = out_.variables.find(p.variable);
      if (it == out_.variables.end()) {
        return Status::InvalidArgument(
            StrCat("unbound variable $", p.variable));
      }
      cur = it->second;
    }
    for (const auto& ps : p.steps) {
      ROX_ASSIGN_OR_RETURN(
          cur, AddStepVertex(cur, ps.step, ValuePredicate::None()));
      for (const AstPredicateGroup& group : ps.predicate_groups) {
        ROX_RETURN_IF_ERROR(CompilePredicateGroup(cur, group));
      }
    }
    return cur;
  }

  // Compiles one side of a where comparison. The join edge compares
  // node *values*, so an operand ending at an element is lowered to
  // the element's text() child (XQuery atomization of element content:
  // `$a/price < $b/price` joins the price texts); roots carry no value
  // and are rejected.
  Result<VertexId> CompileWhereOperand(const AstPathExpr& p) {
    ROX_ASSIGN_OR_RETURN(VertexId v, CompilePath(p));
    switch (out_.graph.vertex(v).type) {
      case VertexType::kRoot:
        return Status::InvalidArgument(
            "where comparison operand denotes a document root, which "
            "carries no value");
      case VertexType::kElement: {
        AstStep text_step;
        text_step.axis = Axis::kChild;
        text_step.test = AstStep::Test::kText;
        return AddStepVertex(v, text_step, ValuePredicate::None());
      }
      case VertexType::kText:
      case VertexType::kAttribute:
        return v;
    }
    return v;
  }

  // Find, not Intern: compilation never mutates the shared pool. A name
  // the corpus has never seen maps to kNoSuchStringId, which stays
  // index-selectable (with an empty lookup, so ROX sees cardinality 0)
  // and never matches a node — kInvalidStringId would instead mean "no
  // name restriction" to the step executor.
  StringId FindName(std::string_view name) const {
    StringId id = corpus_.Find(name);
    return id == kInvalidStringId ? kNoSuchStringId : id;
  }

  // Adds the vertex + step edge for one location step out of `from`.
  Result<VertexId> AddStepVertex(VertexId from, const AstStep& step,
                                 const ValuePredicate& pred) {
    DocId doc = out_.graph.vertex(from).doc;
    VertexId v = kInvalidVertexId;
    switch (step.test) {
      case AstStep::Test::kElement:
        v = out_.graph.AddElement(doc, FindName(step.name), step.name);
        break;
      case AstStep::Test::kAnyElement:
        return Status::Unimplemented(
            "wildcard element tests are not index-selectable; name the "
            "element");
      case AstStep::Test::kText:
        v = out_.graph.AddText(doc, pred, DescribeTextVertex(pred));
        break;
      case AstStep::Test::kAttribute:
        v = out_.graph.AddAttribute(doc, FindName(step.name), pred,
                                    StrCat("@", step.name));
        break;
    }
    out_.graph.AddStep(from, step.axis, v);
    return v;
  }

  std::string DescribeTextVertex(const ValuePredicate& pred) {
    switch (pred.kind) {
      case ValuePredicate::Kind::kNone:
        return "text()";
      case ValuePredicate::Kind::kEquals:
      case ValuePredicate::Kind::kNotEquals: {
        const char* op =
            pred.kind == ValuePredicate::Kind::kEquals ? "=" : "!=";
        if (pred.equals >= corpus_.string_pool().size()) {
          return StrCat("text()", op, "<unseen literal>");
        }
        return StrCat("text()", op, corpus_.string_pool().Get(pred.equals));
      }
      case ValuePredicate::Kind::kRange:
        return "text() in range";
      case ValuePredicate::Kind::kAnyOf:
        return StrCat("text() or-group(", pred.any_of.size(), ")");
    }
    return "text()";
  }

  // Lowers one predicate path hanging off `anchor`, restricting its
  // final vertex by `vp` (nullopt: existence test). A comparison on an
  // element-final path becomes the element plus a predicated text()
  // child (the shape of the paper's Figure 3.1 `quantity -> text()=1`).
  Status CompilePredicatePath(VertexId anchor,
                              const std::vector<AstStep>& path,
                              const std::optional<ValuePredicate>& vp) {
    VertexId cur = anchor;
    for (size_t i = 0; i < path.size(); ++i) {
      const AstStep& step = path[i];
      bool last = i + 1 == path.size();
      if (!last || !vp.has_value()) {
        ROX_ASSIGN_OR_RETURN(
            cur, AddStepVertex(cur, step, ValuePredicate::None()));
        continue;
      }
      if (step.test == AstStep::Test::kElement) {
        ROX_ASSIGN_OR_RETURN(
            cur, AddStepVertex(cur, step, ValuePredicate::None()));
        AstStep text_step;
        text_step.axis = Axis::kChild;
        text_step.test = AstStep::Test::kText;
        ROX_ASSIGN_OR_RETURN(cur, AddStepVertex(cur, text_step, *vp));
      } else {
        ROX_ASSIGN_OR_RETURN(cur, AddStepVertex(cur, step, *vp));
      }
    }
    return Status::Ok();
  }

  // Compiles a [...] predicate group hanging off `anchor`. A single
  // `or` branch is a plain conjunction: every predicate lowers to its
  // own vertex chain. A disjunction lowers to ONE vertex chain whose
  // final vertex carries the kAnyOf predicate — which is why every
  // branch must be a single comparison on the same relative path;
  // anything else (existence branches, different paths, conjunctions
  // inside a branch) would need a union operator the join graph does
  // not have and reports Unimplemented.
  Status CompilePredicateGroup(VertexId anchor,
                               const AstPredicateGroup& group) {
    if (group.alternatives.size() == 1) {
      for (const AstPredicate& pred : group.alternatives[0]) {
        std::optional<ValuePredicate> vp;
        if (pred.op.has_value()) {
          ROX_ASSIGN_OR_RETURN(vp, MakeValuePredicate(pred));
        }
        ROX_RETURN_IF_ERROR(CompilePredicatePath(anchor, pred.path, vp));
      }
      return Status::Ok();
    }
    const std::vector<AstStep>& path = group.alternatives[0][0].path;
    std::vector<ValuePredicate> terms;
    terms.reserve(group.alternatives.size());
    for (const std::vector<AstPredicate>& branch : group.alternatives) {
      if (branch.size() != 1) {
        return Status::Unimplemented(
            "an 'or' branch that is itself a conjunction is not "
            "index-lowerable (write the conjunct as its own [..] "
            "bracket)");
      }
      const AstPredicate& alt = branch[0];
      if (!alt.op.has_value()) {
        return Status::Unimplemented(
            "every branch of an 'or' predicate needs a value comparison "
            "(existence disjunctions are not index-lowerable)");
      }
      if (!SameSteps(alt.path, path)) {
        return Status::Unimplemented(
            "'or' predicate branches must compare the same relative "
            "path");
      }
      ROX_ASSIGN_OR_RETURN(ValuePredicate term, MakeValuePredicate(alt));
      terms.push_back(std::move(term));
    }
    return CompilePredicatePath(anchor, path,
                                ValuePredicate::AnyOf(std::move(terms)));
  }

  static bool SameSteps(const std::vector<AstStep>& a,
                        const std::vector<AstStep>& b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].axis != b[i].axis || a[i].test != b[i].test ||
          a[i].name != b[i].name) {
        return false;
      }
    }
    return true;
  }

  Result<ValuePredicate> MakeValuePredicate(const AstPredicate& pred) {
    CmpOp op = *pred.op;
    if (op == CmpOp::kEq) {
      return ValuePredicate::Equals(FindName(pred.literal));
    }
    if (op == CmpOp::kNe) {
      return ValuePredicate::NotEquals(FindName(pred.literal));
    }
    if (!pred.literal_is_number) {
      return Status::Unimplemented(
          "range predicates require numeric literals");
    }
    // Full-string parse (shared with the string pool's cached numeric
    // interpretation): a lexer bug in `literal_is_number` can then never
    // silently compile a garbage-prefixed literal into a range bound.
    double v = ParseNumeric(pred.literal);
    if (std::isnan(v)) {
      return Status::InvalidArgument(
          StrCat("range predicate literal is not numeric: '", pred.literal,
                 "'"));
    }
    switch (op) {
      case CmpOp::kLt:
        return ValuePredicate::Range(NumericRange::LessThan(v));
      case CmpOp::kLe:
        return ValuePredicate::Range(NumericRange::AtMost(v));
      case CmpOp::kGt:
        return ValuePredicate::Range(NumericRange::GreaterThan(v));
      case CmpOp::kGe:
        return ValuePredicate::Range(NumericRange::AtLeast(v));
      default:
        return Status::Internal("unhandled comparison");
    }
  }

  const Corpus& corpus_;
  const CompileOptions& options_;
  CompiledQuery out_;
  std::unordered_map<std::string, VertexId> roots_;
};

}  // namespace

Result<CompiledQuery> CompileXQuery(const CorpusSnapshot& snapshot,
                                    const AstQuery& query,
                                    const CompileOptions& options) {
  Compiler compiler(*snapshot, options);
  return compiler.Run(query);
}

Result<CompiledQuery> CompileXQuery(const CorpusSnapshot& snapshot,
                                    std::string_view text,
                                    const CompileOptions& options) {
  ROX_ASSIGN_OR_RETURN(AstQuery ast, ParseXQuery(text));
  return CompileXQuery(snapshot, ast, options);
}

namespace {

// Merges the counters of a sub-run into the aggregate stats.
void MergeStats(RoxStats& into, const RoxStats& from) {
  into.sampling_time.Merge(from.sampling_time);
  into.execution_time.Merge(from.execution_time);
  into.assembly_time.Merge(from.assembly_time);
  into.warm_started_weights += from.warm_started_weights;
  into.edges_executed += from.edges_executed;
  into.chain_sample_calls += from.chain_sample_calls;
  into.chain_rounds += from.chain_rounds;
  into.sampled_tuples += from.sampled_tuples;
  into.operator_selections += from.operator_selections;
  into.operator_overrides += from.operator_overrides;
  into.cumulative_intermediate_rows += from.cumulative_intermediate_rows;
  into.peak_intermediate_rows =
      std::max(into.peak_intermediate_rows, from.peak_intermediate_rows);
  into.gather.Merge(from.gather);
  into.arena_bytes += from.arena_bytes;
  into.sharded.Merge(from.sharded);
}

}  // namespace

Result<std::vector<Pre>> RunXQuery(CorpusSnapshot snapshot,
                                   const CompiledQuery& compiled,
                                   const RoxOptions& rox_options,
                                   RoxStats* stats_out,
                                   const std::vector<double>* warm_edge_weights,
                                   std::vector<double>* learned_weights_out) {
  if (warm_edge_weights != nullptr &&
      warm_edge_weights->size() != compiled.graph.EdgeCount()) {
    warm_edge_weights = nullptr;  // stale cache entry: ignore
  }
  if (learned_weights_out != nullptr) {
    learned_weights_out->assign(compiled.graph.EdgeCount(), -1.0);
  }
  // A query whose for-variables are never joined produces a
  // disconnected graph; ROX optimizes each component separately (the
  // paper's isolated Join Graphs, §2.1) and the results combine as a
  // cross product.
  std::vector<GraphComponent> comps =
      SplitConnectedComponents(compiled.graph);
  ResultTable combined;
  std::vector<VertexId> combined_cols;  // original vertex ids
  RoxStats stats;
  GatherStats tail_gather;
  bool first = true;
  size_t comp_index = 0;
  for (const GraphComponent& comp : comps) {
    // Only components containing a for-variable contribute to the
    // result (pruned roots end up isolated and are skipped).
    bool needed = false;
    for (VertexId orig : comp.orig_vertex) {
      for (VertexId fv : compiled.for_vertices) needed |= fv == orig;
    }
    if (!needed) continue;
    if (comp.graph.EdgeCount() == 0) {
      return Status::Unimplemented(
          "for-variable bound to a bare document root is not supported");
    }
    // Gather/scatter warm weights through the component's edge mapping.
    RoxOptions comp_options = rox_options;
    std::vector<double> comp_warm;
    if (warm_edge_weights != nullptr) {
      comp_warm.reserve(comp.orig_edge.size());
      for (EdgeId orig : comp.orig_edge) {
        comp_warm.push_back((*warm_edge_weights)[orig]);
      }
      comp_options.warm_edge_weights = &comp_warm;
    }
    obs::ScopedSpan comp_span(comp_options.query_trace, "rox",
                              StrCat("component ", comp_index++));
    RoxOptimizer rox(snapshot, comp.graph, comp_options);
    // Late materialization: only the for-variable columns are ever read
    // downstream (the plan tail), so only they are requested as output
    // and gathered — every other column of the assembled relation stays
    // an un-materialized view. local_out follows for-variable
    // declaration order, so for a single-component query the gathered
    // table already IS the projected plan-tail input.
    std::vector<VertexId> local_out;
    for (VertexId fv : compiled.for_vertices) {
      for (VertexId lv = 0; lv < comp.graph.VertexCount(); ++lv) {
        if (comp.orig_vertex[lv] == fv) local_out.push_back(lv);
      }
    }
    ROX_ASSIGN_OR_RETURN(RoxViewResult vr, rox.RunView(local_out));
    MergeStats(stats, vr.stats);
    ResultTable part(local_out.size());
    std::vector<VertexId> cols;
    {
      uint64_t bytes_before = tail_gather.bytes_gathered;
      obs::ScopedSpan gather_span(comp_options.query_trace, "gather");
      for (size_t i = 0; i < local_out.size(); ++i) {
        size_t col = static_cast<size_t>(-1);
        for (size_t c = 0; c < vr.columns.size(); ++c) {
          if (vr.columns[c] == local_out[i]) col = c;
        }
        if (col == static_cast<size_t>(-1)) {
          return Status::Internal("for-variable vertex missing from result");
        }
        vr.view.GatherColumnInto(col, part.MutableCol(i), &tail_gather);
        cols.push_back(comp.orig_vertex[local_out[i]]);
      }
      if (gather_span.armed()) {
        gather_span.AttrNum("columns",
                            static_cast<double>(local_out.size()));
        gather_span.AttrNum(
            "bytes",
            static_cast<double>(tail_gather.bytes_gathered - bytes_before));
        gather_span.AttrNum("arena_bytes",
                            static_cast<double>(vr.stats.arena_bytes));
      }
    }
    if (comp_span.armed()) {
      comp_span.AttrNum("edges_executed",
                        static_cast<double>(stats.edges_executed));
      comp_span.AttrNum("chain_rounds",
                        static_cast<double>(stats.chain_rounds));
      comp_span.AttrNum("rows", static_cast<double>(part.NumRows()));
    }
    if (learned_weights_out != nullptr) {
      for (EdgeId e = 0; e < comp.orig_edge.size(); ++e) {
        (*learned_weights_out)[comp.orig_edge[e]] = vr.final_edge_weights[e];
      }
    }
    if (first) {
      combined = std::move(part);
      combined_cols = std::move(cols);
      first = false;
    } else {
      combined = CartesianProduct(combined, part);
      combined_cols.insert(combined_cols.end(), cols.begin(), cols.end());
    }
  }
  if (first) {
    return Status::FailedPrecondition("query produced no joined component");
  }
  stats.gather.Merge(tail_gather);
  if (stats_out != nullptr) *stats_out = stats;

  // Plan tail (Figure 1): π(for-vars) -> δ -> τ(sort) -> π(return var).
  obs::ScopedSpan tail_span(rox_options.query_trace, "plan_tail");
  auto column_of = [&](VertexId v) -> size_t {
    for (size_t i = 0; i < combined_cols.size(); ++i) {
      if (combined_cols[i] == v) return i;
    }
    return static_cast<size_t>(-1);
  };
  std::vector<size_t> for_cols;
  size_t return_col_in_proj = 0;
  for (size_t i = 0; i < compiled.for_vertices.size(); ++i) {
    VertexId v = compiled.for_vertices[i];
    size_t col = column_of(v);
    if (col == static_cast<size_t>(-1)) {
      return Status::Internal("for-variable vertex missing from result");
    }
    if (v == compiled.return_vertex) return_col_in_proj = i;
    for_cols.push_back(col);
  }
  // A single-component run already gathered exactly the for-variable
  // columns in declaration order — skip the copy.
  bool identity_projection = for_cols.size() == combined.NumCols();
  for (size_t i = 0; identity_projection && i < for_cols.size(); ++i) {
    identity_projection = for_cols[i] == i;
  }
  ResultTable tail = identity_projection ? std::move(combined)
                                         : combined.Project(for_cols);
  tail = tail.DistinctRows();
  std::vector<size_t> sort_keys(for_cols.size());
  for (size_t i = 0; i < sort_keys.size(); ++i) sort_keys[i] = i;
  tail = tail.SortRows(sort_keys);
  if (tail_span.armed()) {
    tail_span.AttrNum("rows", static_cast<double>(tail.NumRows()));
  }
  return tail.Col(return_col_in_proj);
}

Result<ExplainInfo> ExplainXQuery(
    CorpusSnapshot snapshot, const CompiledQuery& compiled,
    const RoxOptions& rox_options,
    const std::vector<double>* warm_edge_weights) {
  if (warm_edge_weights != nullptr &&
      warm_edge_weights->size() != compiled.graph.EdgeCount()) {
    warm_edge_weights = nullptr;  // stale cache entry: ignore
  }
  ExplainInfo info;
  info.edge_weights.assign(compiled.graph.EdgeCount(), -1.0);
  info.vertex_cards.assign(compiled.graph.VertexCount(), -1.0);
  std::vector<GraphComponent> comps =
      SplitConnectedComponents(compiled.graph);
  for (const GraphComponent& comp : comps) {
    // Same component filter as RunXQuery: only components containing a
    // for-variable contribute.
    bool needed = false;
    for (VertexId orig : comp.orig_vertex) {
      for (VertexId fv : compiled.for_vertices) needed |= fv == orig;
    }
    if (!needed) continue;
    if (comp.graph.EdgeCount() == 0) {
      return Status::Unimplemented(
          "for-variable bound to a bare document root is not supported");
    }
    RoxOptions comp_options = rox_options;
    std::vector<double> comp_warm;
    if (warm_edge_weights != nullptr) {
      comp_warm.reserve(comp.orig_edge.size());
      for (EdgeId orig : comp.orig_edge) {
        comp_warm.push_back((*warm_edge_weights)[orig]);
      }
      comp_options.warm_edge_weights = &comp_warm;
    }
    RoxOptimizer rox(snapshot, comp.graph, comp_options);
    ROX_RETURN_IF_ERROR(rox.Prepare());
    const RoxState& st = rox.state();
    for (EdgeId e = 0; e < comp.graph.EdgeCount(); ++e) {
      info.edge_weights[comp.orig_edge[e]] = st.estate(e).weight;
    }
    for (VertexId v = 0; v < comp.graph.VertexCount(); ++v) {
      info.vertex_cards[comp.orig_vertex[v]] = st.vstate(v).card;
    }
    EdgeId first = st.MinWeightEdge();
    info.predicted_first.push_back(
        first == kInvalidEdgeId ? kInvalidEdgeId : comp.orig_edge[first]);
    info.warm_started_weights += st.stats().warm_started_weights;
  }
  if (info.predicted_first.empty()) {
    return Status::FailedPrecondition("query produced no joined component");
  }
  return info;
}

}  // namespace rox::xq
