// Independent expected results for every query the benchmark runs.
//
// Nothing here calls the xq, rox or exec layers: each evaluator walks a
// Document's pre/size columns directly, with nested loops, hash maps
// and value histograms, and applies the comparison rules DESIGN.md §11
// states (`=` and `!=` compare strings; range operators compare numeric
// values, and a non-numeric value never matches).
//
// A query returns one item per distinct binding of its for-variables,
// sorted by those bindings in document order and projected onto the
// return variable; the expected sequences below are built the same way
// (the return variable is always the first for-variable).

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "index/corpus.h"
#include "index/value_index.h"

namespace perfbench {

// Brute-force evaluator of the Q1 shape (Q1Text) over the auction
// document.
class Q1Oracle {
 public:
  explicit Q1Oracle(const rox::Document& doc);

  // The result of Q1Text(op, literal).
  std::vector<rox::Pre> Expected(const std::string& op,
                                 const std::string& literal) const;

 private:
  struct Auction {
    rox::Pre pre;
    std::vector<std::string> prices;  // text() of every current below it
    uint64_t bindings;                // matching persons x matching items
  };
  std::vector<Auction> auctions_;
};

// The result of AuthorJoinText(venues): each author of the first venue,
// repeated Π_i f_i(v) times, where f_i is venue i's author-value
// histogram (AuthorValueHistogram) and v the author's name.
std::vector<rox::Pre> ExpectedAuthorJoin(
    const rox::Corpus& corpus, const std::vector<std::string>& venues);

// The result of QuantityJoinText(op), from the histogram of bidder
// increase values.
std::vector<rox::Pre> ExpectedQuantityJoin(const rox::Document& doc,
                                           rox::CmpOp op);

// |items passing the quantity = 1 guard| and |bidders|: the size of the
// quantity join's cross product.
struct QuantityDomain {
  uint64_t items = 0;
  uint64_t bidders = 0;
};
QuantityDomain CountQuantityDomain(const rox::Document& doc);

// The result of PriceThetaText().
std::vector<rox::Pre> ExpectedPriceTheta(const rox::Document& doc);

// Non-decreasing pre: document order of a result whose items may repeat
// (one per binding).
bool InDocumentOrder(const std::vector<rox::Pre>& items);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
