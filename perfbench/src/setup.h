// The benchmark's corpus and query texts.
//
// The corpus is fixed: the generators run with their default seeds, so
// every run and every seed serve identical documents and the figures of
// two runs compare like for like. The run's --seed drives what varies:
// the optimizer's sampling stream, the order of the queries in a round,
// and the request stream of http_live (its price literals).
//
// Set-up goes through XML text on purpose: each document is generated,
// serialized, and then parsed and indexed by Corpus::AddXml, so
// `setup_s` covers the xml and index layers the way ingest does.

#ifndef PERFBENCH_SETUP_H_
#define PERFBENCH_SETUP_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "index/corpus.h"
#include "index/value_index.h"

namespace perfbench {

struct XmlText {
  std::string name;
  std::string xml;
};

// Generation parameters (recorded in README.md).
inline constexpr double kXmarkScale = 0.15;  // of XmarkGenOptions' 1/10 size
inline constexpr double kDblpTagScale = 1.0;
// The corpus serves every Table 3 venue but this one, which publishes
// add and remove.
inline constexpr const char* kPublishVenue = "ICDM";
// The price threshold P of the paper's Q1 / Qm1 pair.
inline constexpr int kPriceThreshold = 145;

// Generates every document of the corpus as XML text (the XMark
// auction document first, then the venues in Table 3 order),
// plus the text of the publish venue.
rox::Status GenerateTexts(std::vector<XmlText>* corpus_docs,
                          XmlText* publish_doc);

// Parses and indexes `docs` into a fresh corpus.
rox::Result<rox::Corpus> ParseCorpus(const std::vector<XmlText>& docs);

// --- query texts -------------------------------------------------------------

struct NamedQuery {
  std::string name;
  std::string text;
};

// Q1 of §3.2 with `op` applied to the auction price: "<" is Q1, ">" is
// Qm1, "=" the auctions priced exactly `literal`, and "" drops the
// price predicate.
std::string Q1Text(const std::string& op, const std::string& literal);

// The n-way author join over `venues`: every author of the first venue
// equal to an author of each other venue (the Figure 4 template).
std::string AuthorJoinText(const std::vector<std::string>& venues);

// Item quantities against bidder increases with the quantity = 1 guard:
// XmarkQuantityIncreaseQuery(op, 1).
std::string QuantityJoinText(rox::CmpOp op);

// Reserves of auctions priced below 80 against currents of auctions
// priced above 170: XmarkPriceThetaQuery(<=, 80, 170).
std::string PriceThetaText();

// The fixed round of each engine workload.
std::vector<NamedQuery> PaperJoinsQueries();
std::vector<NamedQuery> ThetaWideQueries();

// The repeated texts http_live replays from the result cache.
std::vector<NamedQuery> ReplayedQueries();

}  // namespace perfbench

#endif  // PERFBENCH_SETUP_H_
