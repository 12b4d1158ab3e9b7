// http_live: an in-process HttpServer with roxd's engine defaults (four
// query threads, query cache on) under three keep-alive clients in a
// closed loop, plus one writer that publishes beside the reads.
//
// The request stream is a fixed schedule cut into rounds of kRoundSize
// requests. Even slots are *executed* requests: Q1 with a price literal
// unique to the slot, so the cache never serves them. Odd slots are
// *replayed* requests: the few texts of ReplayedQueries(), which stay
// in the result cache. At slot kRoundSize/2 of every round the writer
// publishes: it alternately adds the publish venue's XML text and
// removes it again. A run ends at the first round boundary after
// --seconds.
//
// After the loop every response is checked: its row_count against the
// brute-force Q1 evaluator (or the replayed text's expected result),
// and against an in-process Execute of the same text on the corpus of
// its epoch. Publishes alternate, so an epoch's corpus is the first one
// (an even number of publishes after it) or the first one after an add
// (an odd number); the benchmark pins those two rather than every epoch,
// which would hold a copy of the venue per add and inflate the peak
// resident set it reports.

#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <thread>

#include "common/rng.h"
#include "engine/engine.h"
#include "layers.h"
#include "server/client.h"
#include "server/server.h"
#include "workloads.h"

namespace perfbench {
namespace {

using rox::engine::Engine;

constexpr uint64_t kRoundSize = 40;
constexpr int kClients = 3;

// One response as the client saw it.
struct Sample {
  uint64_t slot = 0;
  double ms = 0;          // client round trip
  bool ok = false;        // HTTP 200 and status OK
  uint64_t epoch = 0;
  uint64_t row_count = 0;
  bool cache_hit = false;  // stats.result_cache_hit
  double wall_ms = 0;      // stats.wall_ms: time inside Engine::Execute
  size_t bytes = 0;
};

bool Executed(uint64_t slot) { return slot % 2 == 0; }
uint64_t RoundOf(uint64_t slot) { return slot / kRoundSize; }

// The price literal of an executed slot: an integer part drawn from the
// seed, and a fraction unique to the slot.
std::string PriceLiteral(uint64_t seed, uint64_t slot) {
  rox::Rng rng(seed * 0x9e3779b97f4a7c15ULL + slot);
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%d.%07llu1",
                static_cast<int>(rng.Between(100, 189)),
                static_cast<unsigned long long>(slot));
  return buf;
}

// The number after `"key": ` in a response body (the first occurrence:
// top-level fields precede the embedded trace).
double JsonNumber(const std::string& body, const char* key) {
  std::string needle = std::string("\"") + key + "\": ";
  size_t at = body.find(needle);
  if (at == std::string::npos) return -1;
  return std::strtod(body.c_str() + at + needle.size(), nullptr);
}

bool JsonTrue(const std::string& body, const char* key) {
  return body.find(std::string("\"") + key + "\": true") != std::string::npos;
}

// Hands out request slots to the clients and ends the run at a round
// boundary. Every round start is timestamped; the publish slot of every
// round wakes the writer.
class Schedule {
 public:
  Schedule(Clock::time_point deadline, bool even_rounds)
      : deadline_(deadline), even_rounds_(even_rounds) {}

  bool Next(uint64_t* slot) {
    std::lock_guard<std::mutex> lock(mu_);
    if (next_ % kRoundSize == 0) {
      if (Clock::now() >= deadline_ &&
          (!even_rounds_ || RoundOf(next_) % 2 == 0)) {
        done_ = true;
      }
      if (done_) return false;
      round_starts_.push_back(Clock::now());
    }
    *slot = next_++;
    if (*slot % kRoundSize == kRoundSize / 2) {
      ++publishes_due_;
      cv_.notify_all();
    }
    return true;
  }

  // Blocks until a publish is due (true) or the run is over (false).
  bool WaitPublish() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return publishes_due_ > 0 || closed_; });
    if (publishes_due_ == 0) return false;
    --publishes_due_;
    return true;
  }

  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    cv_.notify_all();
  }

  std::vector<Clock::time_point> round_starts() const {
    std::lock_guard<std::mutex> lock(mu_);
    return round_starts_;
  }

 private:
  const Clock::time_point deadline_;
  const bool even_rounds_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  uint64_t next_ = 0;
  bool done_ = false;
  bool closed_ = false;
  uint64_t publishes_due_ = 0;
  std::vector<Clock::time_point> round_starts_;
};

}  // namespace

int RunHttpLive(const Args& args, Clock::time_point start, Report* report) {
  Prepared prep;
  if (rox::Status s = Prepare(&prep); !s.ok()) {
    std::fprintf(stderr, "set-up: %s\n", s.ToString().c_str());
    return 1;
  }
  rox::engine::EngineOptions options;
  options.num_threads = 4;
  options.rox.seed = args.seed;
  Engine engine(std::move(prep.corpus), options);
  rox::server::ServerOptions server_options;
  server_options.port = 0;
  server_options.max_response_rows = kServerRowCap;
  rox::server::HttpServer server(&engine, server_options);
  if (rox::Status s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "server: %s\n", s.ToString().c_str());
    return 1;
  }
  const double setup_s = MillisSince(start) / 1000;

  const std::vector<NamedQuery> replayed = ReplayedQueries();
  auto text_of = [&](uint64_t slot) {
    return Executed(slot)
               ? Q1Text("<", PriceLiteral(args.seed, slot))
               : replayed[(slot / 2) % replayed.size()].text;
  };

  // The two corpora an epoch can have: [0] without the publish venue
  // (as at start), [1] with it.
  const uint64_t first_epoch = engine.CurrentEpoch();
  std::shared_ptr<const rox::Corpus> contents[2] = {engine.CurrentSnapshot(),
                                                    nullptr};

  const uint64_t faults_before = MinorFaults();
  const Clock::time_point loop_start = Clock::now();
  Schedule schedule(loop_start + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(args.seconds)),
                    /*even_rounds=*/args.trace);

  std::vector<double> publish_add_ms, publish_remove_ms;
  uint64_t publish_failures = 0;
  std::thread writer([&] {
    for (uint64_t n = 0; schedule.WaitPublish(); ++n) {
      const Clock::time_point t0 = Clock::now();
      bool ok = true;
      if (n % 2 == 0) {
        ok = engine.AddDocuments({{kPublishVenue, prep.publish.xml}}).ok();
        publish_add_ms.push_back(MillisSince(t0));
      } else {
        ok = engine.RemoveDocument(kPublishVenue).ok();
        publish_remove_ms.push_back(MillisSince(t0));
      }
      if (!ok) ++publish_failures;
      if (n == 0) contents[1] = engine.CurrentSnapshot();
    }
  });

  std::vector<std::vector<Sample>> per_client(kClients);
  std::vector<std::thread> clients;
  std::vector<Clock::time_point> client_end(kClients, loop_start);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      rox::server::HttpClient client;
      rox::Status connected = client.Connect("127.0.0.1", server.port());
      uint64_t slot = 0;
      while (schedule.Next(&slot)) {
        Sample s;
        s.slot = slot;
        std::vector<std::pair<std::string, std::string>> headers = {
            {"X-Client-Tag", "perfbench"}};
        if (args.trace && RoundOf(slot) % 2 == 1) {
          headers.push_back({"X-Trace-Level", "spans"});
        }
        const std::string text = text_of(slot);
        const Clock::time_point t0 = Clock::now();
        auto resp = connected.ok()
                        ? client.Request("POST", "/query", headers, text)
                        : rox::Result<rox::server::HttpResponse>(connected);
        s.ms = MillisSince(t0);
        if (resp.ok()) {
          const std::string& body = resp->body;
          s.ok = resp->status == 200 &&
                 body.find("\"code\": \"OK\"") != std::string::npos;
          s.epoch = static_cast<uint64_t>(JsonNumber(body, "epoch"));
          s.row_count = static_cast<uint64_t>(JsonNumber(body, "row_count"));
          s.cache_hit = JsonTrue(body, "result_cache_hit");
          s.wall_ms = JsonNumber(body, "wall_ms");
          s.bytes = body.size();
        }
        per_client[c].push_back(s);
      }
      client_end[c] = Clock::now();
    });
  }
  for (std::thread& t : clients) t.join();
  schedule.Close();
  writer.join();
  Clock::time_point loop_end = loop_start;
  for (const auto& t : client_end) loop_end = std::max(loop_end, t);
  const uint64_t loop_faults = MinorFaults() - faults_before;
  const double peak_rss_mb = PeakRssMb();
  const rox::engine::EngineStats server_stats = engine.Stats();
  server.Stop();

  std::vector<Sample> samples;
  for (auto& v : per_client) samples.insert(samples.end(), v.begin(), v.end());
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.slot < b.slot; });
  const std::vector<Clock::time_point> round_starts = schedule.round_starts();
  const uint64_t rounds = round_starts.size();
  report->Attempt(samples.size() + publish_add_ms.size() +
                  publish_remove_ms.size());
  for (uint64_t i = 0; i < publish_failures; ++i) report->Failed("publish");
  report->Check(samples.size() == rounds * kRoundSize,
                "the loop did not run whole rounds");

  // --- checks ---------------------------------------------------------------
  const rox::Document& xmark =
      contents[0]->doc(*contents[0]->Resolve("xmark.xml"));
  const Q1Oracle q1(xmark);
  std::vector<std::vector<rox::Pre>> replayed_expected;
  for (const NamedQuery& q : replayed) {
    replayed_expected.push_back(
        ExpectedByName(q.name, *contents[0], q1));
  }
  std::vector<double> rows_per_round(rounds, 0);
  LayerTotals layers;
  // Samples by the corpus their epoch served: [publishes since start % 2].
  std::vector<const Sample*> by_content[2];
  const uint64_t publishes = publish_add_ms.size() + publish_remove_ms.size();
  for (const Sample& s : samples) {
    if (!s.ok) {
      report->Failed("request " + std::to_string(s.slot));
    } else if (s.epoch < first_epoch || s.epoch - first_epoch > publishes ||
               contents[(s.epoch - first_epoch) % 2] == nullptr) {
      report->Wrong("response on an epoch the writer never published");
    } else {
      by_content[(s.epoch - first_epoch) % 2].push_back(&s);
    }
  }
  for (int c = 0; c < 2; ++c) {
    if (by_content[c].empty()) continue;
    rox::engine::EngineOptions check_options;
    check_options.num_threads = 4;
    check_options.enable_cache = false;
    check_options.rox.seed = args.seed;
    if (args.trace) check_options.trace_level = rox::obs::TraceLevel::kSpans;
    Engine check(contents[c], check_options);
    // Executed texts are all distinct; replayed ones run once each.
    std::vector<std::string> texts;
    std::map<std::string, size_t> index;  // text -> its position in `texts`
    for (const Sample* s : by_content[c]) {
      if (index.emplace(text_of(s->slot), texts.size()).second) {
        texts.push_back(text_of(s->slot));
      }
    }
    std::vector<rox::engine::QueryResult> results = check.RunBatch(texts);
    for (const Sample* s : by_content[c]) {
      const rox::engine::QueryResult& r = results[index[text_of(s->slot)]];
      if (!r.ok()) {
        report->Wrong("in-process Execute failed: " + r.status.ToString());
        continue;
      }
      const bool executed = Executed(s->slot);
      const size_t q = (s->slot / 2) % replayed.size();
      report->Check(*r.items == (executed ? q1.Expected("<", PriceLiteral(
                                                                args.seed, s->slot))
                                          : replayed_expected[q]),
                    text_of(s->slot) + "\n: in-process result differs from "
                                       "the oracle");
      report->Check(s->row_count == r.items->size(),
                    "row_count differs from the in-process Execute");
      if (executed) {
        rows_per_round[RoundOf(s->slot)] +=
            static_cast<double>(r.rox_stats.cumulative_intermediate_rows);
        layers.Add(r);
      }
    }
  }

  // --- metrics --------------------------------------------------------------
  // Rounds alternate untraced / traced in the traced run; the figures
  // of a class come from its rounds only.
  auto untraced = [&](uint64_t round) { return !args.trace || round % 2 == 0; };
  // Untraced rounds are cut into windows (report.h); the end-to-end
  // timings come from the rounds of the faster windows.
  std::vector<double> round_ms(rounds), traced_round_ms, window_mean_ms;
  std::vector<size_t> round_window(rounds, 0);
  {
    Clock::time_point window_start = loop_start;
    double sum = 0;
    size_t n = 0;
    for (uint64_t r = 0; r < rounds; ++r) {
      const Clock::time_point end =
          r + 1 < rounds ? round_starts[r + 1] : loop_end;
      round_ms[r] =
          std::chrono::duration<double, std::milli>(end - round_starts[r])
              .count();
      if (!untraced(r)) {
        traced_round_ms.push_back(round_ms[r]);
        continue;
      }
      round_window[r] = window_mean_ms.size();
      sum += round_ms[r];
      ++n;
      if (std::chrono::duration<double, std::milli>(end - window_start)
              .count() >= kWindowMs) {
        window_mean_ms.push_back(sum / static_cast<double>(n));
        sum = 0;
        n = 0;
        window_start = end;
      }
    }
    if (n > 0) window_mean_ms.push_back(sum / static_cast<double>(n));
  }
  const std::vector<bool> fast = FastWindows(window_mean_ms);
  auto counted = [&](uint64_t r) {
    return untraced(r) && fast[round_window[r]];
  };
  std::vector<double> fast_round_ms, untraced_round_ms;
  for (uint64_t r = 0; r < rounds; ++r) {
    if (untraced(r)) untraced_round_ms.push_back(round_ms[r]);
    if (counted(r)) fast_round_ms.push_back(round_ms[r]);
  }
  std::vector<double> executed_ms, replayed_ms, overhead_ms, bytes, wall_ms;
  uint64_t replay_misses = 0, completed = 0;
  for (const Sample& s : samples) {
    if (!s.ok) continue;
    ++completed;
    if (!untraced(RoundOf(s.slot))) continue;
    overhead_ms.push_back(s.ms - s.wall_ms);
    bytes.push_back(static_cast<double>(s.bytes));
    if (Executed(s.slot)) {
      wall_ms.push_back(s.wall_ms);
      if (counted(RoundOf(s.slot))) executed_ms.push_back(s.ms);
    } else if (s.cache_hit) {
      if (counted(RoundOf(s.slot))) replayed_ms.push_back(s.ms);
    } else {
      ++replay_misses;  // the first replay after a publish executes
    }
  }
  // Publish n is due in round n; add i and remove i are publishes 2i and
  // 2i + 1, and their sample is their mean.
  std::vector<double> publish_ms;
  for (size_t i = 0; i < publish_remove_ms.size(); ++i) {
    if (untraced(2 * i)) {
      publish_ms.push_back((publish_add_ms[i] + publish_remove_ms[i]) / 2);
    }
  }
  std::printf("http_live: %llu rounds of %llu requests, %zu publishes, "
              "%llu replay misses after publishes\n",
              static_cast<unsigned long long>(rounds),
              static_cast<unsigned long long>(kRoundSize),
              publish_add_ms.size() + publish_remove_ms.size(),
              static_cast<unsigned long long>(replay_misses));
  PrintLatency("round (all untraced)", untraced_round_ms);
  PrintLatency("round (faster windows)", fast_round_ms);
  PrintWindows(window_mean_ms);
  PrintLatency("executed request (faster windows)", executed_ms);
  PrintLatency("replayed request (faster windows)", replayed_ms);
  PrintLatency("publish add/remove mean", publish_ms);

  if (args.trace) {
    layers.Emit(static_cast<double>(rounds), report);
    MeasureXmlLayers(prep.docs, report);
    std::vector<std::string> texts = {text_of(0)};
    for (const NamedQuery& q : replayed) texts.push_back(q.text);
    MeasureXqLayers(*contents[0], texts, report);
    report->Set("mem.minor_faults_per_query",
                static_cast<double>(loop_faults) /
                    static_cast<double>(std::max<uint64_t>(completed, 1)),
                "faults");
    report->Set("engine.execute_ms", Median(wall_ms), "ms");
    report->Set("engine.plan_cache_hits",
                static_cast<double>(server_stats.plan_cache_hits), "count");
    report->Set("engine.result_cache_hits",
                static_cast<double>(server_stats.result_cache_hits), "count");
    report->Set("engine.cache_invalidations",
                static_cast<double>(server_stats.cache_invalidations), "count");
    report->Set("server.overhead_ms", Median(overhead_ms), "ms");
    RenderCost render;
    {
      rox::engine::EngineOptions render_options;
      render_options.num_threads = 1;
      render_options.enable_cache = false;
      Engine renderer(contents[0], render_options);
      for (const std::string& text : texts) {
        report->Attempt();
        rox::engine::QueryRequest req;
        req.text = text;
        rox::engine::QueryResponse resp = renderer.Execute(req);
        if (!resp.ok()) {
          report->Failed("render query: " + resp.status.ToString());
          continue;
        }
        RenderCost c = MeasureRender(resp);
        render.ms += c.ms / static_cast<double>(texts.size());
      }
    }
    report->Set("server.render_ms", render.ms, "ms");
    report->Set("server.response_bytes", Median(bytes), "bytes");
    report->Set("obs.trace_overhead_pct",
                100 * (Median(traced_round_ms) / Median(untraced_round_ms) - 1),
                "%");
    MeasureClassical(*contents[0], args.seed, report);
    return 0;
  }

  // Throughput from the median round, as in the engine workloads.
  const double median_round_ms = Median(fast_round_ms);
  report->Set("setup_s", setup_s, "s");
  report->Set("throughput_qps",
              static_cast<double>(kRoundSize) / (median_round_ms / 1000),
              "queries/s");
  report->Set("round_ms", median_round_ms, "ms");
  report->Set("intermediate_rows", Median(rows_per_round), "rows/round");
  report->Set("executed_p50_ms", Median(executed_ms), "ms");
  report->Set("replayed_p50_ms", Median(replayed_ms), "ms");
  report->Set("publish_ms", ProbeCost(publish_ms), "ms");
  report->Set("peak_rss_mb", peak_rss_mb, "MB");
  return 0;
}

}  // namespace perfbench
