#include "oracle.h"

#include <cstdlib>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "workload/dblp.h"

namespace perfbench {
namespace {

using rox::Document;
using rox::NodeKind;
using rox::Pre;

bool IsElement(const Document& doc, Pre p, std::string_view name) {
  return doc.Kind(p) == NodeKind::kElem && doc.NameStr(p) == name;
}

// Calls fn(c) for every child node of p (attributes included).
template <typename Fn>
void ForEachChild(const Document& doc, Pre p, Fn fn) {
  const Pre end = p + doc.Size(p);
  for (Pre c = p + 1; c <= end; c += doc.Size(c) + 1) fn(c);
}

// Calls fn(d) for every element below p named `name`.
template <typename Fn>
void ForEachDescendant(const Document& doc, Pre p, std::string_view name,
                       Fn fn) {
  const Pre end = p + doc.Size(p);
  for (Pre d = p + 1; d <= end; ++d) {
    if (IsElement(doc, d, name)) fn(d);
  }
}

// Every element of the document named `name`, in document order.
std::vector<Pre> Elements(const Document& doc, std::string_view name) {
  std::vector<Pre> out;
  for (Pre p = 0; p < doc.NodeCount(); ++p) {
    if (IsElement(doc, p, name)) out.push_back(p);
  }
  return out;
}

std::vector<std::string> TextChildren(const Document& doc, Pre p) {
  std::vector<std::string> out;
  ForEachChild(doc, p, [&](Pre c) {
    if (doc.Kind(c) == NodeKind::kText) out.emplace_back(doc.ValueStr(c));
  });
  return out;
}

// Text values of the child elements of p named `name` (path p/name).
std::vector<std::string> ChildElementTexts(const Document& doc, Pre p,
                                           std::string_view name) {
  std::vector<std::string> out;
  ForEachChild(doc, p, [&](Pre c) {
    if (!IsElement(doc, c, name)) return;
    for (std::string& t : TextChildren(doc, c)) out.push_back(std::move(t));
  });
  return out;
}

// Text values of the descendant elements of p named `name` (p//name).
std::vector<std::string> DescendantTexts(const Document& doc, Pre p,
                                         std::string_view name) {
  std::vector<std::string> out;
  ForEachDescendant(doc, p, name, [&](Pre d) {
    for (std::string& t : TextChildren(doc, d)) out.push_back(std::move(t));
  });
  return out;
}

// The value of attribute `name` of element p; empty when absent.
std::string Attribute(const Document& doc, Pre p, std::string_view name) {
  std::string out;
  ForEachChild(doc, p, [&](Pre c) {
    if (doc.Kind(c) == NodeKind::kAttr && doc.NameStr(c) == name) {
      out = std::string(doc.ValueStr(c));
    }
  });
  return out;
}

bool ParseNumber(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  *out = std::strtod(s.c_str(), &end);
  return end != nullptr && *end == '\0';
}

// a OP b under the engine's rules: strings for = and !=, numbers for
// the range operators (non-numeric never matches).
bool Compare(const std::string& a, rox::CmpOp op, const std::string& b) {
  if (op == rox::CmpOp::kEq) return a == b;
  if (op == rox::CmpOp::kNe) return a != b;
  double x = 0, y = 0;
  if (!ParseNumber(a, &x) || !ParseNumber(b, &y)) return false;
  switch (op) {
    case rox::CmpOp::kLt: return x < y;
    case rox::CmpOp::kLe: return x <= y;
    case rox::CmpOp::kGt: return x > y;
    case rox::CmpOp::kGe: return x >= y;
    default: return false;
  }
}

bool AnyPair(const std::vector<std::string>& as, rox::CmpOp op,
             const std::vector<std::string>& bs) {
  for (const std::string& a : as) {
    for (const std::string& b : bs) {
      if (Compare(a, op, b)) return true;
    }
  }
  return false;
}

// Items passing [./quantity = 1].
bool PassesQuantityGuard(const Document& doc, Pre item) {
  for (const std::string& q : ChildElementTexts(doc, item, "quantity")) {
    if (q == "1") return true;
  }
  return false;
}

// `a` repeated `n` times, appended.
void AppendRepeated(std::vector<Pre>* out, Pre a, uint64_t n) {
  out->insert(out->end(), n, a);
}

}  // namespace

Q1Oracle::Q1Oracle(const Document& doc) {
  std::unordered_map<std::string, Pre> persons;  // @id -> person[.//province]
  for (Pre p : Elements(doc, "person")) {
    bool province = false;
    ForEachDescendant(doc, p, "province", [&](Pre) { province = true; });
    if (province) persons.emplace(Attribute(doc, p, "id"), p);
  }
  std::unordered_map<std::string, Pre> items;  // @id -> item[./quantity = 1]
  for (Pre i : Elements(doc, "item")) {
    if (PassesQuantityGuard(doc, i)) items.emplace(Attribute(doc, i, "id"), i);
  }
  for (Pre o : Elements(doc, "open_auction")) {
    std::unordered_set<Pre> matched_persons, matched_items;
    ForEachDescendant(doc, o, "bidder", [&](Pre b) {
      ForEachDescendant(doc, b, "personref", [&](Pre r) {
        auto it = persons.find(Attribute(doc, r, "person"));
        if (it != persons.end()) matched_persons.insert(it->second);
      });
    });
    ForEachDescendant(doc, o, "itemref", [&](Pre r) {
      auto it = items.find(Attribute(doc, r, "item"));
      if (it != items.end()) matched_items.insert(it->second);
    });
    auctions_.push_back({o, DescendantTexts(doc, o, "current"),
                         static_cast<uint64_t>(matched_persons.size()) *
                             matched_items.size()});
  }
}

std::vector<Pre> Q1Oracle::Expected(const std::string& op,
                                    const std::string& literal) const {
  std::vector<Pre> out;
  for (const Auction& a : auctions_) {
    bool keep = op.empty();
    if (op == "<") keep = AnyPair(a.prices, rox::CmpOp::kLt, {literal});
    if (op == ">") keep = AnyPair(a.prices, rox::CmpOp::kGt, {literal});
    if (op == "=") keep = AnyPair(a.prices, rox::CmpOp::kEq, {literal});
    if (keep) AppendRepeated(&out, a.pre, a.bindings);
  }
  return out;
}

std::vector<Pre> ExpectedAuthorJoin(const rox::Corpus& corpus,
                                    const std::vector<std::string>& venues) {
  std::vector<rox::DocId> docs;
  for (const std::string& v : venues) {
    auto id = corpus.Resolve(v);
    if (!id.ok()) return {};
    docs.push_back(*id);
  }
  std::vector<std::unordered_map<rox::StringId, uint64_t>> freq;
  for (size_t i = 1; i < docs.size(); ++i) {
    auto& f = freq.emplace_back();
    for (const auto& [value, count] : rox::AuthorValueHistogram(corpus, docs[i])) {
      f[value] += count;
    }
  }
  const Document& first = corpus.doc(docs[0]);
  std::vector<Pre> out;
  for (Pre a : Elements(first, "author")) {
    ForEachChild(first, a, [&](Pre c) {
      if (first.Kind(c) != NodeKind::kText) return;
      uint64_t n = 1;
      for (const auto& f : freq) {
        auto it = f.find(first.Value(c));
        n *= it == f.end() ? 0 : it->second;
      }
      AppendRepeated(&out, a, n);
    });
  }
  return out;
}

std::vector<Pre> ExpectedQuantityJoin(const Document& doc, rox::CmpOp op) {
  // Bidders grouped by their increase values: the histogram the
  // per-item counts are read from.
  std::map<std::vector<std::string>, uint64_t> increases;
  for (Pre b : Elements(doc, "bidder")) {
    ++increases[ChildElementTexts(doc, b, "increase")];
  }
  std::vector<Pre> out;
  for (Pre i : Elements(doc, "item")) {
    if (!PassesQuantityGuard(doc, i)) continue;
    std::vector<std::string> quantities =
        ChildElementTexts(doc, i, "quantity");
    uint64_t n = 0;
    for (const auto& [values, count] : increases) {
      if (AnyPair(quantities, op, values)) n += count;
    }
    AppendRepeated(&out, i, n);
  }
  return out;
}

QuantityDomain CountQuantityDomain(const Document& doc) {
  QuantityDomain d;
  for (Pre i : Elements(doc, "item")) d.items += PassesQuantityGuard(doc, i);
  d.bidders = Elements(doc, "bidder").size();
  return d;
}

std::vector<Pre> ExpectedPriceTheta(const Document& doc) {
  struct Side {
    Pre pre;
    std::vector<std::string> values;
  };
  std::vector<Side> cheap, dear;  // priced < 80 (reserves), > 170 (currents)
  for (Pre o : Elements(doc, "open_auction")) {
    std::vector<std::string> prices = DescendantTexts(doc, o, "current");
    if (AnyPair(prices, rox::CmpOp::kLt, {"80"})) {
      cheap.push_back({o, DescendantTexts(doc, o, "reserve")});
    }
    if (AnyPair(prices, rox::CmpOp::kGt, {"170"})) {
      dear.push_back({o, prices});
    }
  }
  std::vector<Pre> out;
  for (const Side& a : cheap) {
    uint64_t n = 0;
    for (const Side& b : dear) n += AnyPair(a.values, rox::CmpOp::kLe, b.values);
    AppendRepeated(&out, a.pre, n);
  }
  return out;
}

bool InDocumentOrder(const std::vector<Pre>& items) {
  for (size_t i = 1; i < items.size(); ++i) {
    if (items[i] < items[i - 1]) return false;
  }
  return true;
}

}  // namespace perfbench
