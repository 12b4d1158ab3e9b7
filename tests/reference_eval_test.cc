// The reference evaluator against hand-derived answers, so the oracle
// the differential suites trust is itself pinned down — then the
// engine against the oracle on the same queries.

#include "tests/reference_eval.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/check.h"
#include "index/corpus.h"
#include "xq/compile.h"

namespace rox {
namespace {

// Pre numbering of a.xml:
//   0 doc  1 r
//   2 p  3 @id=1  4 n  5 "x"  6 v  7 "5"
//   8 p  9 @id=2 10 n 11 "y" 12 v 13 "abc"
//  14 p 15 @id=3 16 n 17 "x" 18 v 19 "12"
// and of b.xml:
//   0 doc  1 s  2 q 3 @ref=1 4 "x"  5 q 6 @ref=3 7 "z"  8 q 9 @ref=3 10 "x"
Corpus HandCorpus() {
  Corpus corpus;
  ROX_CHECK_OK(corpus
                   .AddXml("<r><p id=\"1\"><n>x</n><v>5</v></p>"
                           "<p id=\"2\"><n>y</n><v>abc</v></p>"
                           "<p id=\"3\"><n>x</n><v>12</v></p></r>",
                           "a.xml")
                   .status());
  ROX_CHECK_OK(corpus
                   .AddXml("<s><q ref=\"1\">x</q><q ref=\"3\">z</q>"
                           "<q ref=\"3\">x</q></s>",
                           "b.xml")
                   .status());
  return corpus;
}

struct HandCase {
  const char* query;
  std::vector<Pre> expected;
};

const std::vector<HandCase>& HandCases() {
  static const std::vector<HandCase> cases = {
      // Range predicate: "abc" is not a number and never matches.
      {R"(for $p in doc("a.xml")//p[./v > 4] return $p)", {2, 14}},
      {R"(for $p in doc("a.xml")//p[./v < 10 or ./v = "abc"] return $p)",
       {2, 8}},
      {R"(for $p in doc("a.xml")//p[./n = "x"][./v >= 12] return $p)", {14}},
      {R"(for $p in doc("a.xml")//p[./n != "x" and ./v] return $p)", {8}},
      {R"(for $p in doc("a.xml")//p[./v <= 5] return $p)", {2}},
      // let, attributes, a cross-document join; the return variable
      // repeats once per distinct binding tuple.
      {R"(let $b := doc("b.xml")
          for $q in $b//q, $p in doc("a.xml")//p
          where $q/@ref = $p/@id return $p)",
       {2, 14, 14}},
      // != over atomized elements: tuples sorted by ($p, $q).
      {R"(for $p in doc("a.xml")//p, $q in doc("b.xml")//q
          where $p/n != $q return $q)",
       {5, 2, 5, 8, 5}},
      // Range join: only 5 < 12 holds among {5, abc, 12}.
      {R"(for $p in doc("a.xml")//p, $o in doc("a.xml")//p
          where $p/v < $o/v return $o)",
       {14}},
      // A domain starting from an earlier variable.
      {R"(for $p in doc("a.xml")//p, $t in $p/v/text() return $t)",
       {7, 13, 19}},
      // Axes.
      {R"(for $n in doc("a.xml")//v/preceding-sibling::n return $n)",
       {4, 10, 16}},
      {R"(for $v in doc("a.xml")//n/following-sibling::v return $v)",
       {6, 12, 18}},
      {R"(for $a in doc("a.xml")//n/parent::p/@id return $a)", {3, 9, 15}},
      {R"(for $p in doc("a.xml")//text()/ancestor::p return $p)",
       {2, 8, 14}},
      {R"(for $n in doc("a.xml")//p[./@id = "2"]/following::n return $n)",
       {16}},
      {R"(for $v in doc("a.xml")//p[./@id = "2"]/preceding::v return $v)",
       {6}},
      {R"(for $q in doc("b.xml")//q/self::q[./text() = "x"] return $q)",
       {2, 8}},
  };
  return cases;
}

TEST(ReferenceEvalTest, HandDerivedAnswers) {
  Corpus corpus = HandCorpus();
  for (const HandCase& c : HandCases()) {
    auto got = reference::Evaluate(c.query, reference::DocsOf(corpus));
    ASSERT_TRUE(got.ok()) << got.status().ToString() << "\n" << c.query;
    EXPECT_EQ(*got, c.expected) << c.query;
  }
}

TEST(ReferenceEvalTest, ReportsErrors) {
  Corpus corpus = HandCorpus();
  auto docs = reference::DocsOf(corpus);
  EXPECT_EQ(reference::Evaluate(R"(for $p in doc("zz")//p return $p)", docs)
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(reference::Evaluate(R"(for $p in $zz//p return $p)", docs)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(reference::Evaluate(R"(for $p in doc("a.xml")//* return $p)", docs)
                .status()
                .code(),
            StatusCode::kUnimplemented);
}

TEST(ReferenceEvalTest, EngineAgreesOnHandQueries) {
  Corpus corpus = HandCorpus();
  for (const HandCase& c : HandCases()) {
    auto compiled = xq::CompileXQuery(corpus, c.query);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString() << "\n"
                               << c.query;
    auto items = xq::RunXQuery(corpus, *compiled, RoxOptions{});
    ASSERT_TRUE(items.ok()) << items.status().ToString() << "\n" << c.query;
    EXPECT_EQ(*items, c.expected) << c.query;
  }
}

}  // namespace
}  // namespace rox
