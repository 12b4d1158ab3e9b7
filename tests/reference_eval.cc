#include "tests/reference_eval.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>

#include "xq/parser.h"

namespace rox::reference {
namespace {

using xq::AstComparison;
using xq::AstPathExpr;
using xq::AstPredicate;
using xq::AstPredicateGroup;
using xq::AstQuery;
using xq::AstStep;

// A value as a comparison sees it: the string, and its numeric reading
// (NaN when the string is not a number in full).
struct Atom {
  std::string_view text;
  double number;
};

double ParseNumber(std::string_view s) {
  if (s.empty()) return std::nan("");
  std::string buf(s);
  char* end = nullptr;
  double v = std::strtod(buf.c_str(), &end);
  return end == buf.c_str() + buf.size() ? v : std::nan("");
}

Atom MakeAtom(std::string_view s) { return {s, ParseNumber(s)}; }

bool Compare(const Atom& a, CmpOp op, const Atom& b) {
  switch (op) {
    case CmpOp::kEq:
      return a.text == b.text;
    case CmpOp::kNe:
      return a.text != b.text;
    default:
      break;
  }
  if (std::isnan(a.number) || std::isnan(b.number)) return false;
  switch (op) {
    case CmpOp::kLt:
      return a.number < b.number;
    case CmpOp::kLe:
      return a.number <= b.number;
    case CmpOp::kGt:
      return a.number > b.number;
    case CmpOp::kGe:
      return a.number >= b.number;
    default:
      return false;
  }
}

bool IsAttr(const Document& d, Pre p) { return d.Kind(p) == NodeKind::kAttr; }

// True iff `anc` is a proper ancestor of `p` (subtree containment).
bool Contains(const Document& d, Pre anc, Pre p) {
  return p > anc && p <= anc + d.Size(anc);
}

bool PassesTest(const Document& d, Pre p, const AstStep& step) {
  switch (step.test) {
    case AstStep::Test::kElement:
      return d.Kind(p) == NodeKind::kElem && d.NameStr(p) == step.name;
    case AstStep::Test::kAttribute:
      return IsAttr(d, p) && d.NameStr(p) == step.name;
    case AstStep::Test::kText:
      return d.Kind(p) == NodeKind::kText;
    case AstStep::Test::kAnyElement:
      return d.Kind(p) == NodeKind::kElem;
  }
  return false;
}

// Appends the nodes on `axis` from `c`, in any order.
void AxisNodes(const Document& d, Pre c, Axis axis, std::vector<Pre>& out) {
  const Pre end = c + d.Size(c);
  const Pre parent = d.Parent(c);
  switch (axis) {
    case Axis::kSelf:
      out.push_back(c);
      return;
    case Axis::kChild:
    case Axis::kAttribute:
      for (Pre p = c + 1; p <= end; ++p) {
        if (d.Level(p) == d.Level(c) + 1 &&
            IsAttr(d, p) == (axis == Axis::kAttribute)) {
          out.push_back(p);
        }
      }
      return;
    case Axis::kDescendantOrSelf:
      if (!IsAttr(d, c)) out.push_back(c);
      [[fallthrough]];
    case Axis::kDescendant:
      for (Pre p = c + 1; p <= end; ++p) {
        if (!IsAttr(d, p)) out.push_back(p);
      }
      return;
    case Axis::kParent:
      if (parent != kInvalidPre) out.push_back(parent);
      return;
    case Axis::kAncestorOrSelf:
      out.push_back(c);
      [[fallthrough]];
    case Axis::kAncestor:
      for (Pre p = 0; p < c; ++p) {
        if (Contains(d, p, c)) out.push_back(p);
      }
      return;
    case Axis::kFollowing:
      for (Pre p = end + 1; p < d.NodeCount(); ++p) {
        if (!IsAttr(d, p)) out.push_back(p);
      }
      return;
    case Axis::kPreceding:
      for (Pre p = 0; p < c; ++p) {
        if (!IsAttr(d, p) && !Contains(d, p, c)) out.push_back(p);
      }
      return;
    case Axis::kFollowingSibling:
    case Axis::kPrecedingSibling:
      if (parent == kInvalidPre || IsAttr(d, c)) return;
      for (Pre p = parent + 1; p <= parent + d.Size(parent); ++p) {
        bool after = p > end;
        if (d.Parent(p) == parent && !IsAttr(d, p) && p != c &&
            after == (axis == Axis::kFollowingSibling)) {
          out.push_back(p);
        }
      }
      return;
  }
}

// Text/attribute values of `nodes`; an element contributes the values
// of its text() children.
std::vector<Atom> Atomize(const Document& d, const std::vector<Pre>& nodes) {
  std::vector<Atom> out;
  for (Pre n : nodes) {
    if (d.Kind(n) != NodeKind::kElem) {
      out.push_back(MakeAtom(d.ValueStr(n)));
      continue;
    }
    std::vector<Pre> children;
    AxisNodes(d, n, Axis::kChild, children);
    for (Pre t : children) {
      if (d.Kind(t) == NodeKind::kText) out.push_back(MakeAtom(d.ValueStr(t)));
    }
  }
  return out;
}

bool AnyPairMatches(const std::vector<Atom>& lhs, CmpOp op,
                    const std::vector<Atom>& rhs) {
  for (const Atom& l : lhs) {
    for (const Atom& r : rhs) {
      if (Compare(l, op, r)) return true;
    }
  }
  return false;
}

// One step over a context node set, without predicates: the sorted,
// duplicate-free result.
std::vector<Pre> Step(const Document& d, const std::vector<Pre>& context,
                      const AstStep& step) {
  std::vector<Pre> out;
  std::vector<Pre> on_axis;
  for (Pre c : context) {
    on_axis.clear();
    AxisNodes(d, c, step.axis, on_axis);
    for (Pre p : on_axis) {
      if (PassesTest(d, p, step)) out.push_back(p);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<Pre> RelativePath(const Document& d, Pre from,
                              const std::vector<AstStep>& steps) {
  std::vector<Pre> nodes = {from};
  for (const AstStep& s : steps) nodes = Step(d, nodes, s);
  return nodes;
}

bool PredicateHolds(const Document& d, Pre n, const AstPredicate& pred) {
  std::vector<Pre> nodes = RelativePath(d, n, pred.path);
  if (!pred.op.has_value()) return !nodes.empty();
  Atom literal = MakeAtom(pred.literal);
  for (const Atom& a : Atomize(d, nodes)) {
    if (Compare(a, *pred.op, literal)) return true;
  }
  return false;
}

bool GroupHolds(const Document& d, Pre n, const AstPredicateGroup& group) {
  for (const std::vector<AstPredicate>& branch : group.alternatives) {
    bool all = true;
    for (const AstPredicate& pred : branch) {
      all = all && PredicateHolds(d, n, pred);
    }
    if (all) return true;
  }
  return false;
}

// Rejects what the grammar table does not cover, and literals a range
// comparison cannot use.
Status CheckPath(const AstPathExpr& path) {
  for (const AstPathExpr::PredicatedStep& ps : path.steps) {
    if (ps.step.test == AstStep::Test::kAnyElement) {
      return Status::Unimplemented("wildcard element test");
    }
    for (const AstPredicateGroup& group : ps.predicate_groups) {
      for (const std::vector<AstPredicate>& branch : group.alternatives) {
        for (const AstPredicate& pred : branch) {
          for (const AstStep& s : pred.path) {
            if (s.test == AstStep::Test::kAnyElement) {
              return Status::Unimplemented("wildcard element test");
            }
          }
          if (!pred.op.has_value() || *pred.op == CmpOp::kEq ||
              *pred.op == CmpOp::kNe) {
            continue;
          }
          if (!pred.literal_is_number) {
            return Status::Unimplemented("range literal is not a number");
          }
          if (std::isnan(ParseNumber(pred.literal))) {
            return Status::InvalidArgument("range literal is not numeric");
          }
        }
      }
    }
  }
  return Status::Ok();
}

class Evaluator {
 public:
  Evaluator(const AstQuery& query, const DocResolver& docs)
      : query_(query), docs_(docs) {}

  Result<std::vector<Pre>> Run() {
    ROX_RETURN_IF_ERROR(Bind());
    // Conjuncts over no for-variable hold or fail once, up front.
    for (size_t c = 0; c < query_.where.size(); ++c) {
      if (ready_at_[c] < 0 && !ClauseHolds(c)) return std::vector<Pre>{};
    }
    tuple_.assign(query_.fors.size(), 0);
    Loop(0);
    std::sort(tuples_.begin(), tuples_.end());
    tuples_.erase(std::unique(tuples_.begin(), tuples_.end()), tuples_.end());
    std::vector<Pre> out;
    out.reserve(tuples_.size());
    for (const std::vector<Pre>& t : tuples_) out.push_back(t[return_index_]);
    return out;
  }

 private:
  // Where a variable points: the root of a let-bound document, or the
  // current binding of for-variable `for_index`.
  struct Var {
    const Document* doc = nullptr;
    int for_index = -1;
  };

  Result<const Document*> ResolveDoc(const std::string& url) const {
    const Document* d = docs_(url);
    if (d == nullptr) return Status::NotFound("no document '" + url + "'");
    return d;
  }

  // The document a path's nodes live in, and the for-variable its
  // source is (-1: a document root).
  Result<std::pair<const Document*, int>> Source(const AstPathExpr& p) const {
    if (!p.doc_url.empty()) {
      ROX_ASSIGN_OR_RETURN(const Document* d, ResolveDoc(p.doc_url));
      return std::make_pair(d, -1);
    }
    auto it = vars_.find(p.variable);
    if (it == vars_.end()) {
      return Status::InvalidArgument("unbound variable $" + p.variable);
    }
    return std::make_pair(it->second.doc, it->second.for_index);
  }

  Status Declare(const std::string& name, Var var) {
    if (!vars_.emplace(name, var).second) {
      return Status::InvalidArgument("variable $" + name + " bound twice");
    }
    return Status::Ok();
  }

  // Resolves every variable, document and conjunct dependency.
  Status Bind() {
    for (const xq::AstLet& let : query_.lets) {
      if (let.value.doc_url.empty() || !let.value.steps.empty()) {
        return Status::Unimplemented("let must bind doc(\"...\")");
      }
      ROX_ASSIGN_OR_RETURN(const Document* d, ResolveDoc(let.value.doc_url));
      ROX_RETURN_IF_ERROR(Declare(let.variable, {d, -1}));
    }
    for (size_t i = 0; i < query_.fors.size(); ++i) {
      const AstPathExpr& domain = query_.fors[i].domain;
      ROX_RETURN_IF_ERROR(CheckPath(domain));
      ROX_ASSIGN_OR_RETURN(auto src, Source(domain));
      domain_source_.push_back(src);
      ROX_RETURN_IF_ERROR(
          Declare(query_.fors[i].variable, {src.first, static_cast<int>(i)}));
    }
    for (const AstComparison& cmp : query_.where) {
      int ready = -1;
      std::array<std::pair<const Document*, int>, 2> sides;
      const AstPathExpr* operands[2] = {&cmp.lhs, &cmp.rhs};
      for (int s = 0; s < 2; ++s) {
        ROX_RETURN_IF_ERROR(CheckPath(*operands[s]));
        ROX_ASSIGN_OR_RETURN(sides[s], Source(*operands[s]));
        if (operands[s]->steps.empty() && sides[s].second < 0) {
          return Status::InvalidArgument("where operand is a document root");
        }
        ready = std::max(ready, sides[s].second);
      }
      clause_sides_.push_back(sides);
      ready_at_.push_back(ready);
    }
    if (query_.fors.empty()) return Status::InvalidArgument("no for clause");
    auto it = vars_.find(query_.return_variable);
    if (it == vars_.end()) {
      return Status::InvalidArgument("return variable is not bound");
    }
    if (it->second.for_index < 0) {
      return Status::Unimplemented("return variable is not a for-variable");
    }
    return_index_ = static_cast<size_t>(it->second.for_index);
    values_.resize(query_.where.size());
    return Status::Ok();
  }

  // The node of path source `for_index` (the document node for -1).
  Pre SourceNode(int for_index) const {
    return for_index < 0 ? 0 : tuple_[static_cast<size_t>(for_index)];
  }

  // Evaluates `p` (steps and predicates) from its source node.
  std::vector<Pre> EvalPath(const Document& d, const AstPathExpr& p,
                            Pre from) const {
    std::vector<Pre> nodes = {from};
    for (const AstPathExpr::PredicatedStep& ps : p.steps) {
      nodes = Step(d, nodes, ps.step);
      for (const AstPredicateGroup& group : ps.predicate_groups) {
        std::erase_if(nodes, [&](Pre n) { return !GroupHolds(d, n, group); });
      }
    }
    return nodes;
  }

  // Atomized values of side `s` of conjunct `c` for the current
  // bindings, memoized per source node.
  const std::vector<Atom>& Values(size_t c, int s) {
    const auto& [doc, for_index] = clause_sides_[c][s];
    const Pre from = SourceNode(for_index);
    auto& memo = values_[c][s];
    auto it = memo.find(from);
    if (it != memo.end()) return it->second;
    const AstComparison& cmp = query_.where[c];
    const AstPathExpr& path = s == 0 ? cmp.lhs : cmp.rhs;
    return memo.emplace(from, Atomize(*doc, EvalPath(*doc, path, from)))
        .first->second;
  }

  bool ClauseHolds(size_t c) {
    return AnyPairMatches(Values(c, 0), query_.where[c].op, Values(c, 1));
  }

  // Binds for-variable i to each node of its domain in turn, checking
  // every conjunct whose last variable is i.
  void Loop(size_t i) {
    if (i == query_.fors.size()) {
      tuples_.push_back(tuple_);
      return;
    }
    const auto& [doc, source] = domain_source_[i];
    const Pre from = SourceNode(source);
    auto it = domains_.find({i, from});
    if (it == domains_.end()) {
      it = domains_
               .emplace(std::make_pair(i, from),
                        EvalPath(*doc, query_.fors[i].domain, from))
               .first;
    }
    for (Pre n : it->second) {
      tuple_[i] = n;
      bool holds = true;
      for (size_t c = 0; c < query_.where.size() && holds; ++c) {
        if (ready_at_[c] == static_cast<int>(i)) holds = ClauseHolds(c);
      }
      if (holds) Loop(i + 1);
    }
  }

  const AstQuery& query_;
  const DocResolver& docs_;
  std::map<std::string, Var> vars_;
  std::vector<std::pair<const Document*, int>> domain_source_;
  std::vector<std::array<std::pair<const Document*, int>, 2>> clause_sides_;
  std::vector<int> ready_at_;  // for-variable completing each conjunct
  size_t return_index_ = 0;

  std::vector<Pre> tuple_;
  std::vector<std::vector<Pre>> tuples_;
  std::map<std::pair<size_t, Pre>, std::vector<Pre>> domains_;
  std::vector<std::array<std::unordered_map<Pre, std::vector<Atom>>, 2>>
      values_;
};

}  // namespace

Result<std::vector<Pre>> Evaluate(const AstQuery& query,
                                  const DocResolver& docs) {
  return Evaluator(query, docs).Run();
}

Result<std::vector<Pre>> Evaluate(std::string_view text,
                                  const DocResolver& docs) {
  ROX_ASSIGN_OR_RETURN(AstQuery query, xq::ParseXQuery(text));
  return Evaluate(query, docs);
}

bool CompareValues(std::string_view a, CmpOp op, std::string_view b) {
  return Compare(MakeAtom(a), op, MakeAtom(b));
}

}  // namespace rox::reference
