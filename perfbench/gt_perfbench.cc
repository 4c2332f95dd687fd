// Client and in-process replay of the serving benchmark (perfbench/README.md).
//
//   gt_perfbench load  --port P --out F [--reads R.jsonl --connections N]
//                      [--window-s W [--min-reads M]]
//                      [--batches B.txt [--gate N]] [--deadline-s S]
//       Closed-loop HTTP load against a running `graphtempo serve`: N
//       keep-alive reader connections share one request list, and an optional
//       writer connection posts ingest batches, waiting after each until
//       /stats shows the batch's new time point. Without --window-s the
//       readers send the list once; with it they cycle through the list until
//       W seconds have passed and M reads have been sent. With --gate, batch
//       b waits until the readers have completed (b + 1) * N reads, and
//       batches still waiting when the readers stop are not posted. Every
//       request is timed on the client from send to the last byte of the
//       response.
//
//   gt_perfbench refs  --graph G.tsv --requests R.jsonl --out F
//                      [--materialize a,b] [--begin i] [--end j]
//       Expected answers: runs each request in-process through the same
//       public functions the server's query handler calls.
//
//   gt_perfbench trace --graph G.tsv --port P --warmup W.jsonl
//                      --requests R.jsonl --batches B.txt --every K --out F
//                      [--materialize a,b] [--probe-attrs a,b]
//       The per-layer run: replays the requests and ingest batches one step
//       at a time, each over one kept-alive HTTP connection and then at once
//       in-process with every layer call timed, and writes per-layer
//       medians as JSON.
//
// Answers are compared as (FNV-1a digest of the body with its "route" field
// removed, route) pairs, so multi-megabyte bodies never need to be stored.

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>
#include <arpa/inet.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/aggregation.h"
#include "core/evolution.h"
#include "core/exploration.h"
#include "core/graph_io.h"
#include "engine/engine.h"
#include "engine/query_spec.h"
#include "engine/wire.h"
#include "server/ingest.h"
#include "util/json.h"

namespace gt = graphtempo;
namespace engine = graphtempo::engine;

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t Nanos(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count();
}

[[noreturn]] void Die(const std::string& message) {
  std::cerr << "gt_perfbench: " << message << "\n";
  std::exit(2);
}

// --- arguments ---------------------------------------------------------------

struct Args {
  std::map<std::string, std::string> values;

  std::string Get(const std::string& name, const std::string& fallback = "") const {
    auto it = values.find(name);
    return it == values.end() ? fallback : it->second;
  }
  std::string Need(const std::string& name) const {
    auto it = values.find(name);
    if (it == values.end()) Die("--" + name + " is required");
    return it->second;
  }
  long Int(const std::string& name, long fallback) const {
    auto it = values.find(name);
    return it == values.end() ? fallback : std::stol(it->second);
  }
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) Die("bad argument '" + key + "'");
    args.values[key.substr(2)] = argv[++i];
  }
  return args;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) Die("cannot open " + path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

/// One ingest batch: the records to post and the `num_times` /stats reports
/// once the batch is applied. File format: a `=== <num_times>` line opens
/// each batch, the record lines follow.
struct Batch {
  std::size_t num_times = 0;
  std::size_t records = 0;
  std::string body;
};

std::vector<Batch> ReadBatches(const std::string& path) {
  std::vector<Batch> batches;
  if (path.empty()) return batches;
  for (const std::string& line : ReadLines(path)) {
    if (line.rfind("=== ", 0) == 0) {
      batches.push_back(Batch{std::stoul(line.substr(4)), 0, ""});
    } else {
      if (batches.empty()) Die(path + ": record before the first === line");
      batches.back().body += line + "\n";
      ++batches.back().records;
    }
  }
  return batches;
}

// --- answers -------------------------------------------------------------------

struct Answer {
  std::uint64_t digest = 0;  // FNV-1a of the body without its route field
  std::string route;
  std::size_t bytes = 0;
};

Answer Digest(const std::string& body) {
  Answer answer;
  answer.bytes = body.size();
  std::size_t cut_begin = body.size();
  std::size_t cut_end = body.size();
  static constexpr char kKey[] = "\"route\":\"";
  std::size_t at = body.find(kKey);
  if (at != std::string::npos) {
    std::size_t value = at + sizeof(kKey) - 1;
    std::size_t close = body.find('"', value);
    if (close != std::string::npos) {
      answer.route = body.substr(value, close - value);
      cut_begin = at;
      cut_end = close + 1;
      if (cut_end < body.size() && body[cut_end] == ',') ++cut_end;
    }
  }
  std::uint64_t hash = 1469598103934665603ULL;
  for (std::size_t i = 0; i < body.size(); ++i) {
    if (i == cut_begin) i = cut_end;
    if (i >= body.size()) break;
    hash ^= static_cast<unsigned char>(body[i]);
    hash *= 1099511628211ULL;
  }
  answer.digest = hash;
  return answer;
}

std::string AnswerFields(const Answer& answer) {
  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(answer.digest));
  return std::to_string(answer.bytes) + "\t" + digest + "\t" +
         (answer.route.empty() ? "-" : answer.route);
}

// --- HTTP client -----------------------------------------------------------------

/// A minimal keep-alive HTTP/1.1 client: Content-Length framing only, which
/// is all the server emits. Kept independent of the server's own client so
/// that a change to the program's HTTP code never changes the load.
class Connection {
 public:
  explicit Connection(int port) : port_(port) {}
  ~Connection() { Close(); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// One round trip. Returns the status (0 on a transport error, after which
  /// the next call reconnects).
  int Fetch(const std::string& method, const std::string& path, const std::string& body,
            std::string* response_body) {
    response_body->clear();
    if (fd_ < 0 && !Connect()) return 0;
    std::string request = method + " " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
    if (!body.empty() || method == "POST") {
      request += "Content-Length: " + std::to_string(body.size()) + "\r\n";
    }
    request += "Connection: keep-alive\r\n\r\n";
    request += body;
    if (!SendAll(request)) return Fail();
    buffer_.clear();
    std::size_t header_end = std::string::npos;
    while ((header_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
      if (!Receive()) return Fail();
    }
    int status = 0;
    if (std::sscanf(buffer_.c_str(), "HTTP/1.%*d %d", &status) != 1) return Fail();
    std::size_t length = 0;
    std::string head = buffer_.substr(0, header_end);
    for (char& c : head) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    std::size_t at = head.find("\r\ncontent-length:");
    if (at == std::string::npos) return Fail();
    length = std::stoul(head.substr(at + 17));
    const std::size_t body_begin = header_end + 4;
    while (buffer_.size() < body_begin + length) {
      if (!Receive()) return Fail();
    }
    response_body->assign(buffer_, body_begin, length);
    if (head.find("\r\nconnection: close") != std::string::npos) Close();
    return status;
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  bool Connect() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(static_cast<std::uint16_t>(port_));
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&address), sizeof(address)) != 0) {
      Close();
      return false;
    }
    return true;
  }
  bool SendAll(const std::string& data) {
    std::size_t sent = 0;
    while (sent < data.size()) {
      ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }
  bool Receive() {
    char chunk[65536];
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
    return true;
  }
  int Fail() {
    Close();
    return 0;
  }

  int port_;
  int fd_ = -1;
  std::string buffer_;
};

/// Reads `num_times` out of a /stats body; 0 when absent.
std::size_t StatsNumTimes(const std::string& body) {
  std::size_t at = body.find("\"num_times\":");
  return at == std::string::npos ? 0 : std::stoul(body.substr(at + 12));
}

/// Posts one batch and polls /stats until it is visible. Returns the HTTP
/// status of the post (202 on success) and fills the two timestamps.
int PostBatchAndWait(Connection& conn, const Batch& batch, Clock::time_point deadline,
                     Clock::time_point* posted, Clock::time_point* visible) {
  std::string body;
  *posted = Clock::now();
  int status = conn.Fetch("POST", "/ingest", batch.body, &body);
  if (status != 202) return status;
  while (true) {
    if (conn.Fetch("GET", "/stats", "", &body) != 200) return 0;
    if (StatsNumTimes(body) >= batch.num_times) break;
    if (Clock::now() > deadline) return 0;
    std::this_thread::sleep_for(std::chrono::microseconds(1000));
  }
  *visible = Clock::now();
  return status;
}

// --- load ------------------------------------------------------------------------

int CmdLoad(const Args& args) {
  const int port = static_cast<int>(args.Int("port", 0));
  const std::vector<std::string> reads =
      args.Get("reads").empty() ? std::vector<std::string>{} : ReadLines(args.Get("reads"));
  const std::vector<Batch> batches = ReadBatches(args.Get("batches"));
  const long connections = args.Int("connections", 1);
  const double window_s = std::stod(args.Get("window-s", "0"));
  const std::size_t min_reads = static_cast<std::size_t>(args.Int("min-reads", 0));
  const std::size_t gate = static_cast<std::size_t>(args.Int("gate", 0));
  const auto start = Clock::now();
  const auto window_end =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(window_s));
  const auto deadline = start + std::chrono::seconds(args.Int("deadline-s", 120));

  // One sent read: which list entry, on which connection, and its answer.
  struct Read {
    std::size_t entry = 0;
    int conn = 0;
    int status = 0;
    std::int64_t begin_ns = 0;
    std::int64_t end_ns = 0;
    Answer answer;
  };
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> completed{0};
  std::atomic<long> readers_running{reads.empty() ? 0 : connections};
  std::vector<std::vector<Read>> results(static_cast<std::size_t>(connections));
  std::vector<std::int64_t> reader_end(static_cast<std::size_t>(connections), 0);

  std::vector<std::thread> threads;
  if (!reads.empty()) {
    for (long c = 0; c < connections; ++c) {
      threads.emplace_back([&, c] {
        Connection conn(port);
        std::string body;
        std::vector<Read>& mine = results[static_cast<std::size_t>(c)];
        while (true) {
          const auto now = Clock::now();
          if (now >= deadline) break;
          const std::size_t i = next.fetch_add(1);
          if (window_s > 0 ? now >= window_end && i >= min_reads : i >= reads.size()) break;
          Read read;
          read.entry = i % reads.size();
          read.conn = static_cast<int>(c);
          auto sent = Clock::now();
          read.status = conn.Fetch("POST", "/query", reads[read.entry], &body);
          auto done = Clock::now();
          read.begin_ns = Nanos(start, sent);
          read.end_ns = Nanos(start, done);
          if (read.status == 200) read.answer = Digest(body);
          mine.push_back(std::move(read));
          completed.fetch_add(1);
        }
        reader_end[static_cast<std::size_t>(c)] = Nanos(start, Clock::now());
        readers_running.fetch_sub(1);
      });
    }
  }
  struct Posted {
    bool sent = false;
    int status = 0;
    std::int64_t posted_ns = 0;
    std::int64_t visible_ns = 0;
  };
  std::vector<Posted> posted(batches.size());
  if (!batches.empty()) {
    threads.emplace_back([&] {
      Connection conn(port);
      for (std::size_t b = 0; b < batches.size(); ++b) {
        // Batch b goes right after the reader completes read (b + 1) * N, so
        // the next read waits out its apply, the same way on every run.
        if (gate > 0) {
          while (readers_running.load() > 0 && completed.load() < (b + 1) * gate &&
                 Clock::now() < deadline) {
            std::this_thread::sleep_for(std::chrono::microseconds(50));
          }
          if (completed.load() < (b + 1) * gate) break;
        }
        Clock::time_point post_at, visible_at;
        posted[b].sent = true;
        posted[b].status = PostBatchAndWait(conn, batches[b], deadline, &post_at, &visible_at);
        posted[b].posted_ns = Nanos(start, post_at);
        if (posted[b].status != 202) break;
        posted[b].visible_ns = Nanos(start, visible_at);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // R <seq> <entry> <conn> <status> <begin_ns> <end_ns> <bytes> <digest> <route>,
  // in send order; B <batch> <records> <status> <posted_ns> <visible_ns> for
  // each posted batch; E <ns until the last reader stopped>.
  std::vector<Read> sent;
  for (std::vector<Read>& mine : results) {
    for (Read& read : mine) sent.push_back(std::move(read));
  }
  std::sort(sent.begin(), sent.end(),
            [](const Read& a, const Read& b) { return a.begin_ns < b.begin_ns; });
  std::ofstream out(args.Need("out"));
  for (std::size_t k = 0; k < sent.size(); ++k) {
    const Read& read = sent[k];
    out << "R\t" << k << "\t" << read.entry << "\t" << read.conn << "\t" << read.status
        << "\t" << read.begin_ns << "\t" << read.end_ns << "\t" << AnswerFields(read.answer)
        << "\n";
  }
  for (std::size_t b = 0; b < batches.size(); ++b) {
    if (!posted[b].sent) continue;
    out << "B\t" << b << "\t" << batches[b].records << "\t" << posted[b].status << "\t"
        << posted[b].posted_ns << "\t" << posted[b].visible_ns << "\n";
  }
  std::int64_t readers_done = 0;
  for (std::int64_t end : reader_end) readers_done = std::max(readers_done, end);
  out << "E\t" << readers_done << "\n";
  return out.good() ? 0 : 2;
}

// --- in-process ------------------------------------------------------------------

gt::TemporalGraph LoadGraph(const std::string& path) {
  std::string error;
  std::optional<gt::TemporalGraph> graph = gt::ReadGraphFromFile(path, &error);
  if (!graph.has_value()) Die(path + ": " + error);
  return std::move(*graph);
}

std::vector<gt::AttrRef> ParseAttrs(const gt::TemporalGraph& graph, const std::string& names) {
  std::vector<gt::AttrRef> attrs;
  std::stringstream stream(names);
  for (std::string name; std::getline(stream, name, ',');) {
    std::optional<gt::AttrRef> ref = graph.FindAttribute(name);
    if (!ref.has_value()) Die("unknown attribute '" + name + "'");
    attrs.push_back(*ref);
  }
  return attrs;
}

engine::QueryEngine::Config ServeConfig() {
  // What `graphtempo serve` builds: the cost planner, default cache capacity,
  // no spill directory.
  engine::QueryEngine::Config config;
  config.planner = engine::PlannerMode::kCost;
  return config;
}

/// Per-request stage timings of the server's query handler, in nanoseconds.
struct Stages {
  std::int64_t parse = 0, bind = 0, plan = 0, execute = 0, serialize = 0;
  std::int64_t Sum() const { return parse + bind + plan + execute + serialize; }
};

/// Runs one request the way `Server::HandleQuery` does: parse, bind, plan,
/// execute, serialize (default top = all rows). Returns false when the
/// request does not parse or bind.
bool RunRequest(engine::QueryEngine& query_engine, const std::string& text, Stages* stages,
                engine::QuerySpec* spec_out, std::string* body, std::string* route) {
  const gt::TemporalGraph& graph = query_engine.graph();
  auto t0 = Clock::now();
  std::string error;
  std::optional<gt::json::Value> request = gt::json::Parse(text, &error);
  auto t1 = Clock::now();
  if (!request.has_value()) return false;
  engine::wire::RequestOptions options;
  std::optional<engine::QuerySpec> spec =
      engine::wire::BindQuerySpec(graph, *request, &options, &error);
  auto t2 = Clock::now();
  if (!spec.has_value() || options.explain) return false;
  engine::QueryPlan plan = query_engine.Plan(*spec);
  auto t3 = Clock::now();
  engine::QueryResult result = query_engine.ExecuteResult(*spec);
  auto t4 = Clock::now();
  *body = engine::wire::QueryResultToJson(graph, *spec, plan, result, options.top);
  auto t5 = Clock::now();
  *stages = Stages{Nanos(t0, t1), Nanos(t1, t2), Nanos(t2, t3), Nanos(t3, t4), Nanos(t4, t5)};
  *route = engine::PlanRouteName(plan.route);
  *spec_out = std::move(*spec);
  return true;
}

int CmdRefs(const Args& args) {
  gt::TemporalGraph graph = LoadGraph(args.Need("graph"));
  engine::QueryEngine query_engine(&graph, ServeConfig());
  if (!args.Get("materialize").empty()) {
    query_engine.EnableMaterialization(ParseAttrs(graph, args.Get("materialize")));
  }
  const std::vector<std::string> requests = ReadLines(args.Need("requests"));
  const std::size_t begin = static_cast<std::size_t>(args.Int("begin", 0));
  const std::size_t end = std::min<std::size_t>(
      requests.size(),
      static_cast<std::size_t>(args.Int("end", static_cast<long>(requests.size()))));
  std::ofstream out(args.Need("out"));
  for (std::size_t i = begin; i < end; ++i) {
    Stages stages;
    engine::QuerySpec spec;
    std::string body, route;
    if (!RunRequest(query_engine, requests[i], &stages, &spec, &body, &route)) {
      out << i << "\tERR\n";
      continue;
    }
    out << i << "\t" << AnswerFields(Digest(body)) << "\n";
  }
  return out.good() ? 0 : 2;
}

// --- trace -----------------------------------------------------------------------

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Micros(std::int64_t ns) { return static_cast<double>(ns) / 1000.0; }

/// Direct calls into the core layer, once per distinct request, timed apart
/// from the engine (which may answer from its cache or the materialized
/// store).
struct CoreSamples {
  std::vector<double> operator_us, aggregate_us, aggregate_nodes_us, view_edges;
  std::vector<double> evolution_us, explore_us;
  std::set<std::string> seen;

  void Record(const gt::TemporalGraph& graph, const std::string& request,
              const engine::QuerySpec& spec) {
    if (!seen.insert(request).second) return;
    if (spec.kind == engine::QueryKind::kEvolution) {
      auto t0 = Clock::now();
      gt::EvolutionAggregate result =
          gt::AggregateEvolution(graph, spec.t1, spec.t2, spec.attrs, spec.filter);
      evolution_us.push_back(Micros(Nanos(t0, Clock::now())));
      return;
    }
    if (spec.kind == engine::QueryKind::kExplore) {
      auto t0 = Clock::now();
      gt::ExplorationResult result = gt::Explore(graph, spec.explore);
      explore_us.push_back(Micros(Nanos(t0, Clock::now())));
      return;
    }
    gt::AggregationOptions options;
    options.semantics = spec.semantics;
    options.filter = spec.filter;
    options.grouping = spec.grouping;
    auto t0 = Clock::now();
    gt::GraphView view = engine::BuildOperatorView(graph, spec);
    auto t1 = Clock::now();
    gt::AggregateGraph full = gt::Aggregate(graph, view, spec.attrs, options);
    auto t2 = Clock::now();
    view_edges.push_back(static_cast<double>(view.EdgeCount()));
    view.edges.clear();
    auto t3 = Clock::now();
    gt::AggregateGraph nodes_only = gt::Aggregate(graph, view, spec.attrs, options);
    auto t4 = Clock::now();
    operator_us.push_back(Micros(Nanos(t0, t1)));
    aggregate_us.push_back(Micros(Nanos(t1, t2)));
    aggregate_nodes_us.push_back(Micros(Nanos(t3, t4)));
  }
};

constexpr int kFloorProbes = 500;  // GET /healthz round trips behind server.floor_us
constexpr int kGraphLoads = 3;     // TSV loads behind storage.load_s (median)
constexpr auto kTraceDeadline = std::chrono::seconds(120);

int CmdTrace(const Args& args) {
  const std::vector<std::string> warmup = ReadLines(args.Need("warmup"));
  const std::vector<std::string> requests = ReadLines(args.Need("requests"));
  const std::vector<Batch> batches = ReadBatches(args.Get("batches"));
  const std::size_t every = static_cast<std::size_t>(std::max(1L, args.Int("every", 1)));
  // The sequence: the requests, with batch b posted after request
  // (b + 1) * every - 1; batches left over go at the end.
  struct Step {
    bool is_batch = false;
    std::size_t index = 0;
  };
  std::vector<Step> steps;
  std::size_t batch_next = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    steps.push_back(Step{false, i});
    if ((i + 1) % every == 0 && batch_next < batches.size()) {
      steps.push_back(Step{true, batch_next++});
    }
  }
  while (batch_next < batches.size()) steps.push_back(Step{true, batch_next++});

  // 1. In-process set-up: the engine as `serve` builds it, then the warm-up.
  std::vector<double> load_s;
  std::optional<gt::TemporalGraph> graph;
  for (int i = 0; i < kGraphLoads; ++i) {
    graph.reset();
    auto t0 = Clock::now();
    graph.emplace(LoadGraph(args.Need("graph")));
    load_s.push_back(static_cast<double>(Nanos(t0, Clock::now())) / 1e9);
  }
  engine::QueryEngine query_engine(&*graph, ServeConfig());
  double materialize_s = 0.0;
  {
    // Served with --materialize: time the served engine's materialization.
    // Otherwise time it on a spare engine that serves nothing.
    const bool served = !args.Get("materialize").empty();
    engine::QueryEngine spare(&*graph, ServeConfig());
    engine::QueryEngine& target = served ? query_engine : spare;
    std::vector<gt::AttrRef> attrs =
        ParseAttrs(*graph, served ? args.Get("materialize") : args.Need("probe-attrs"));
    auto t0 = Clock::now();
    target.EnableMaterialization(std::move(attrs));
    materialize_s = static_cast<double>(Nanos(t0, Clock::now())) / 1e9;
  }
  Stages stages;
  engine::QuerySpec spec;
  std::string body, route;
  for (const std::string& request : warmup) {
    if (!RunRequest(query_engine, request, &stages, &spec, &body, &route)) {
      Die("warm-up request does not bind: " + request);
    }
  }

  // 2. Before any ingest: the core layer timed directly, and the route every
  //    request plans to (a later answer reporting another route is a route
  //    flip). The core pass runs apart from the staged replay below, so its
  //    scans do not evict what the next staged request finds in cache.
  CoreSamples core;
  std::vector<std::string> initial_route(requests.size());
  auto bind = [&](const std::string& text) {
    std::string error;
    std::optional<gt::json::Value> request = gt::json::Parse(text, &error);
    engine::wire::RequestOptions options;
    std::optional<engine::QuerySpec> bound;
    if (request.has_value()) {
      bound = engine::wire::BindQuerySpec(*graph, *request, &options, &error);
    }
    if (!bound.has_value()) Die("request does not bind: " + text);
    return *bound;
  };
  for (const std::string& request : warmup) core.Record(*graph, request, bind(request));
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const engine::QuerySpec bound = bind(requests[i]);
    core.Record(*graph, requests[i], bound);
    initial_route[i] = engine::PlanRouteName(query_engine.Plan(bound).route);
  }

  // 3. Over HTTP on one kept-alive connection: the warm-up, then the
  //    /healthz floor.
  std::uint64_t attempted = 0, failed = 0;
  const auto deadline = Clock::now() + kTraceDeadline;
  Connection conn(static_cast<int>(args.Int("port", 0)));
  for (const std::string& request : warmup) {
    ++attempted;
    if (conn.Fetch("POST", "/query", request, &body) != 200) ++failed;
  }
  std::vector<double> floor_us;
  for (int i = 0; i < kFloorProbes; ++i) {
    auto t0 = Clock::now();
    int status = conn.Fetch("GET", "/healthz", "", &body);
    floor_us.push_back(Micros(Nanos(t0, Clock::now())));
    ++attempted;
    if (status != 200) ++failed;
  }

  // 4. The sequence: each step over HTTP, then at once in-process, so the
  //    two timings of a request see the same host conditions.
  std::vector<double> parse_us, bind_us, plan_us, execute_us, serialize_us, overhead_us;
  std::vector<double> stage_sum_us, response_bytes;
  double sum_parse = 0, sum_bind = 0, sum_plan = 0, sum_execute = 0, sum_serialize = 0;
  std::uint64_t reads = 0, materialized = 0, route_flips = 0;
  std::vector<double> ingest_parse_us, ingest_apply_us, refresh_us;
  const engine::QueryEngine::CacheStats cache_before = query_engine.cache_stats();
  bool ingested = false;
  for (const Step& step : steps) {
    ++attempted;
    if (step.is_batch) {
      const Batch& batch = batches[step.index];
      Clock::time_point posted, visible;
      if (PostBatchAndWait(conn, batch, deadline, &posted, &visible) != 202) ++failed;
      std::string error;
      auto t0 = Clock::now();
      std::optional<std::vector<gt::server::IngestRecord>> records =
          gt::server::ParseIngestBatch(batch.body, &error);
      auto t1 = Clock::now();
      if (!records.has_value()) Die("ingest batch does not parse: " + error);
      {
        auto writer = query_engine.AcquireWriterLock();
        for (const gt::server::IngestRecord& record : *records) {
          if (!gt::server::ApplyIngestRecord(&*graph, record, &error)) {
            Die("ingest record rejected: " + error);
          }
        }
      }
      auto t2 = Clock::now();
      query_engine.Refresh();
      auto t3 = Clock::now();
      ingest_parse_us.push_back(Micros(Nanos(t0, t1)));
      ingest_apply_us.push_back(Micros(Nanos(t1, t2)));
      refresh_us.push_back(Micros(Nanos(t2, t3)));
      ingested = true;
      continue;
    }
    const std::size_t i = step.index;
    auto t0 = Clock::now();
    const int status = conn.Fetch("POST", "/query", requests[i], &body);
    const double rtt_us = Micros(Nanos(t0, Clock::now()));
    const Answer served = status == 200 ? Digest(body) : Answer{};
    if (!RunRequest(query_engine, requests[i], &stages, &spec, &body, &route)) {
      Die("request does not bind: " + requests[i]);
    }
    // The server plans before its writer's Refresh has run, so after an
    // append its reported route may differ from the in-process one; the
    // answer itself must not.
    const Answer answer = Digest(body);
    if (status != 200 || served.digest != answer.digest ||
        (!ingested && served.route != answer.route)) {
      ++failed;
    }
    if (ingested && served.route != initial_route[i]) ++route_flips;
    ++reads;
    if (route == "materialized") ++materialized;
    parse_us.push_back(Micros(stages.parse));
    bind_us.push_back(Micros(stages.bind));
    plan_us.push_back(Micros(stages.plan));
    execute_us.push_back(Micros(stages.execute));
    serialize_us.push_back(Micros(stages.serialize));
    overhead_us.push_back(rtt_us - Micros(stages.Sum()));
    stage_sum_us.push_back(Micros(stages.Sum()));
    response_bytes.push_back(static_cast<double>(answer.bytes));
    sum_parse += Micros(stages.parse);
    sum_bind += Micros(stages.bind);
    sum_plan += Micros(stages.plan);
    sum_execute += Micros(stages.execute);
    sum_serialize += Micros(stages.serialize);
  }
  std::size_t final_num_times = 0;
  if (conn.Fetch("GET", "/stats", "", &body) == 200) final_num_times = StatsNumTimes(body);
  conn.Close();

  const engine::QueryEngine::CacheStats cache_after = query_engine.cache_stats();
  const double hits = static_cast<double>(cache_after.hits - cache_before.hits);
  const double lookups = hits + static_cast<double>(cache_after.misses - cache_before.misses);

  // The server overhead is the median over the cheaper half of the requests
  // (stage sum at or below its median). On a multi-millisecond request the
  // host's speed drifts between the two timings by more than the overhead
  // itself; on movielens-cold that left the median over all requests within
  // noise of zero. The shares of request time are the in-process stage
  // totals plus this overhead once per request.
  const double stage_sum_median = Median(stage_sum_us);
  std::vector<double> cheap_overhead_us;
  for (std::size_t i = 0; i < overhead_us.size(); ++i) {
    if (stage_sum_us[i] <= stage_sum_median) cheap_overhead_us.push_back(overhead_us[i]);
  }
  const double overhead_median = Median(cheap_overhead_us);
  const double sum_overhead = overhead_median * static_cast<double>(reads);
  const double total =
      sum_overhead + sum_parse + sum_bind + sum_plan + sum_execute + sum_serialize;
  auto share = [&](double part) { return total > 0 ? part / total : 0.0; };
  std::vector<std::pair<std::string, double>> metrics = {
      {"server.floor_us", Median(floor_us)},
      {"server.overhead_us", overhead_median},
      {"server.overhead_us.share", share(sum_overhead)},
      {"wire.parse_us", Median(parse_us)},
      {"wire.parse_us.share", share(sum_parse)},
      {"wire.bind_us", Median(bind_us)},
      {"wire.bind_us.share", share(sum_bind)},
      {"engine.plan_us", Median(plan_us)},
      {"engine.plan_us.share", share(sum_plan)},
      {"engine.execute_us", Median(execute_us)},
      {"engine.execute_us.share", share(sum_execute)},
      {"wire.serialize_us", Median(serialize_us)},
      {"wire.serialize_us.share", share(sum_serialize)},
      {"wire.response_bytes", Median(response_bytes)},
      {"core.operator_us", Median(core.operator_us)},
      {"core.aggregate_us", Median(core.aggregate_us)},
      {"core.aggregate_nodes_us", Median(core.aggregate_nodes_us)},
      {"core.view_edges", Median(core.view_edges)},
      {"core.evolution_us", Median(core.evolution_us)},
      {"core.explore_us", Median(core.explore_us)},
      {"engine.cache_hit_ratio", lookups > 0 ? hits / lookups : 0.0},
      {"engine.materialized_share",
       reads > 0 ? static_cast<double>(materialized) / static_cast<double>(reads) : 0.0},
      {"engine.route_flips", static_cast<double>(route_flips)},
      {"ingest.parse_us", Median(ingest_parse_us)},
      {"ingest.apply_us", Median(ingest_apply_us)},
      {"engine.refresh_us", Median(refresh_us)},
      {"storage.load_s", Median(load_s)},
      {"storage.materialize_s", materialize_s},
  };
  std::ofstream out(args.Need("out"));
  out << "{\"attempted\":" << attempted << ",\"failed\":" << failed
      << ",\"reads\":" << reads << ",\"final_num_times\":" << final_num_times
      << ",\"engine_num_times\":" << graph->num_times() << ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.6f", metrics[i].second);
    out << (i == 0 ? "" : ",") << "\"" << metrics[i].first << "\":" << value;
  }
  out << "}}\n";
  return out.good() ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) Die("usage: gt_perfbench <load|refs|trace> --flag value ...");
  const std::string command = argv[1];
  const Args args = ParseArgs(argc, argv);
  if (command == "load") return CmdLoad(args);
  if (command == "refs") return CmdRefs(args);
  if (command == "trace") return CmdTrace(args);
  Die("unknown command '" + command + "'");
}
