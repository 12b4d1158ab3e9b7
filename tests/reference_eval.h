// Reference evaluator: the ground truth engine results are tested
// against.
//
// It evaluates the XQuery subset of the README grammar table straight
// from the parsed AST over the documents' pre/size/level encoding,
// sharing no code with the engine's execution stack (no join graph,
// index, kernel, view or optimizer). Semantics, stated independently:
//
//  * A path is a node set in document order. Each step applies its axis
//    and node test to every context node; the 12 XPath axes follow
//    XPath, attributes sit only on the attribute and self axes, and the
//    document node appears on the ancestor axes. `[...]` keeps a node
//    when some `or` branch has all its conjuncts true; stacked brackets
//    conjoin.
//  * A comparison atomizes each side: a text or attribute node is its
//    value, an element is the values of its text() children. It holds
//    when SOME pair of atomized values compares true: `=` and `!=`
//    compare strings; `<`, `<=`, `>`, `>=` compare numbers, and a value
//    that does not parse in full as a number never matches.
//  * `for` variables bind by nested loops in declaration order (a domain
//    may start from an earlier variable); every `where` conjunct must
//    hold. The result is each distinct tuple of for-variable bindings,
//    sorted by pre in declaration order, projected onto the return
//    variable — so the sequence may repeat a node.
//
// The evaluator accepts a superset of what the compiler lowers (e.g.
// `or` branches over different paths); compare it only against queries
// the engine ran successfully.

#ifndef ROX_TESTS_REFERENCE_EVAL_H_
#define ROX_TESTS_REFERENCE_EVAL_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "xml/document.h"
#include "xq/ast.h"

namespace rox::reference {

// Resolves doc("url") to its document; null when no document has that
// name.
using DocResolver = std::function<const Document*(const std::string& url)>;

// A resolver over anything with Corpus's Resolve(url) / doc(id) calls
// (a Corpus or a pinned snapshot); `corpus` must outlive the resolver.
template <typename CorpusLike>
DocResolver DocsOf(const CorpusLike& corpus) {
  return [&corpus](const std::string& url) -> const Document* {
    auto id = corpus.Resolve(url);
    return id.ok() ? &corpus.doc(*id) : nullptr;
  };
}

// The result sequence of `query`: pre numbers of the return variable's
// document. Errors: NotFound for an unknown doc(), InvalidArgument for
// unbound or rebound variables and non-numeric range literals,
// Unimplemented outside the grammar table.
Result<std::vector<Pre>> Evaluate(const xq::AstQuery& query,
                                  const DocResolver& docs);

// Parses `text`, then evaluates it.
Result<std::vector<Pre>> Evaluate(std::string_view text,
                                  const DocResolver& docs);

// The comparison rule above for one pair of atomized values.
bool CompareValues(std::string_view a, CmpOp op, std::string_view b);

}  // namespace rox::reference

#endif  // ROX_TESTS_REFERENCE_EVAL_H_
