#include "setup.h"

#include <cstdint>
#include <string>

#include "workload/dblp.h"
#include "workload/xmark.h"
#include "xml/parser.h"

namespace perfbench {

rox::Status GenerateTexts(std::vector<XmlText>* corpus_docs,
                          XmlText* publish_doc) {
  corpus_docs->clear();
  {
    rox::Corpus scratch;
    rox::XmarkGenOptions gen;
    gen.items = static_cast<uint32_t>(4350 * kXmarkScale);
    gen.persons = static_cast<uint32_t>(5100 * kXmarkScale);
    gen.open_auctions = static_cast<uint32_t>(2400 * kXmarkScale);
    ROX_ASSIGN_OR_RETURN(rox::DocId id,
                         rox::GenerateXmarkDocument(scratch, gen));
    corpus_docs->push_back(
        {"xmark.xml", rox::SerializeXml(scratch.doc(id))});
  }
  rox::DblpGenOptions dblp;
  dblp.tag_scale = kDblpTagScale;
  std::vector<int> all;
  for (size_t i = 0; i < rox::Table3Documents().size(); ++i) {
    all.push_back(static_cast<int>(i));
  }
  ROX_ASSIGN_OR_RETURN(rox::Corpus venues,
                       rox::GenerateDblpCorpus(dblp, all));
  for (rox::DocId id = 0; id < venues.DocCount(); ++id) {
    const rox::Document& doc = venues.doc(id);
    XmlText text{doc.name(), rox::SerializeXml(doc)};
    if (doc.name() == kPublishVenue) {
      *publish_doc = std::move(text);
    } else {
      corpus_docs->push_back(std::move(text));
    }
  }
  return rox::Status::Ok();
}

rox::Result<rox::Corpus> ParseCorpus(const std::vector<XmlText>& docs) {
  rox::Corpus corpus;
  for (const XmlText& d : docs) {
    ROX_RETURN_IF_ERROR(corpus.AddXml(d.xml, d.name).status());
  }
  return corpus;
}

std::string Q1Text(const std::string& op, const std::string& literal) {
  std::string auctions = "$d//open_auction";
  if (!op.empty()) {
    auctions += "[.//current/text() " + op + " " + literal + "]";
  }
  return "let $d := doc(\"xmark.xml\")\n"
         "for $o in " + auctions + ",\n"
         "    $p in $d//person[.//province],\n"
         "    $i in $d//item[./quantity = 1]\n"
         "where $o//bidder//personref/@person = $p/@id and\n"
         "      $o//itemref/@item = $i/@id\n"
         "return $o";
}

std::string AuthorJoinText(const std::vector<std::string>& venues) {
  std::string text = "for ";
  for (size_t i = 0; i < venues.size(); ++i) {
    if (i > 0) text += ", ";
    text += "$a" + std::to_string(i) + " in doc(\"" + venues[i] +
            "\")//author";
  }
  text += "\nwhere ";
  for (size_t i = 1; i < venues.size(); ++i) {
    if (i > 1) text += " and ";
    text += "$a0/text() = $a" + std::to_string(i) + "/text()";
  }
  return text + "\nreturn $a0";
}

std::string QuantityJoinText(rox::CmpOp op) {
  return rox::XmarkQuantityIncreaseQuery(op, 1);
}

std::string PriceThetaText() {
  return rox::XmarkPriceThetaQuery(rox::CmpOp::kLe, 80, 170);
}

std::vector<NamedQuery> PaperJoinsQueries() {
  const std::string p = std::to_string(kPriceThreshold);
  return {
      {"q1", Q1Text("<", p)},
      {"qm1", Q1Text(">", p)},
      {"fig5_authors", AuthorJoinText({"VLDB", "ICDE", "ICIP", "ADBIS"})},
      {"db_ir_authors", AuthorJoinText({"CIKM", "SIGIR", "EDBT", "ADBIS"})},
  };
}

std::vector<NamedQuery> ThetaWideQueries() {
  return {
      {"qty_lt", QuantityJoinText(rox::CmpOp::kLt)},
      {"qty_ne", QuantityJoinText(rox::CmpOp::kNe)},
      {"price_theta", PriceThetaText()},
  };
}

std::vector<NamedQuery> ReplayedQueries() {
  const std::string p = std::to_string(kPriceThreshold);
  return {
      {"q1", Q1Text("<", p)},
      {"qm1", Q1Text(">", p)},
      {"fig5_authors", AuthorJoinText({"VLDB", "ICDE", "ICIP", "ADBIS"})},
  };
}

}  // namespace perfbench
