#include "tools/cli.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>
#include <thread>

#include "accel/backend.h"
#include "core/aggregation.h"
#include "core/coarsen.h"
#include "core/edge_list_io.h"
#include "core/evolution.h"
#include "core/exploration.h"
#include "core/graph_io.h"
#include "core/graph_snapshot.h"
#include "core/lattice.h"
#include "core/measures.h"
#include "core/naive_exploration.h"
#include "core/operators.h"
#include "core/stats.h"
#include "core/subgraph.h"
#include "datagen/contact_gen.h"
#include "engine/engine.h"
#include "datagen/dblp_gen.h"
#include "datagen/movielens_gen.h"
#include "datagen/paper_example.h"
#include "engine/wire.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/http.h"
#include "server/server.h"
#include "util/json.h"
#include "util/parallel.h"
#include "util/string_util.h"

namespace graphtempo::cli {

namespace {

constexpr const char* kUsage = R"(graphtempo — temporal graph aggregation & evolution exploration

usage: graphtempo <command> [options]

commands:
  help                                     this message
  info <graph.tsv>                         sizes, attributes, overlap stats
  generate <dblp|movielens|contact|paper> <out>   write a dataset [--seed N]
  import <edges.tsv> <out.tsv>             convert a `src dst time` edge list
          [--static name:path[,name:path...]] [--varying name:path[,...]]
  operate <graph.tsv> --op <union|intersection|difference|project>
          --t1 a[..b] [--t2 c[..d]] [--out sub.tsv]
  aggregate <graph.tsv> --attrs a,b [--op ...] [--t1 ...] [--t2 ...]
          [--semantics dist|all] [--grouping auto|dense|hash] [--symmetric yes]
          [--materialize [yes|no]] [--explain [yes|no]] [--top N]
  evolution <graph.tsv> --attrs a,b --old a..b --new c..d [--top N]
          [--explain [yes|no]]
  measure <graph.tsv> --attrs a,b --measure <edge-attr> --fn <sum|min|max|avg|count>
          [--op ...] [--t1 ...] [--t2 ...] [--top N] [--explain [yes|no]]
  coarsen <graph.tsv> <out.tsv> --width N [--policy last|first]
  explore <graph.tsv> --event <stability|growth|shrinkage>
          --semantics <union|intersection> [--reference old|new] --k N
          [--kind nodes|edges] [--attrs g] [--src v] [--dst v] [--node v]
          [--strategy pruned|naive|both-ends]
  suggest-k <graph.tsv> --event <...> [selector options]
  stats <graph.tsv> [--t <time>] [--attr <name>]  degree/lifespan/attribute stats
  snapshot save <graph.tsv> <out.snap>     write a versioned, checksummed binary
                                           snapshot (docs/STORAGE.md) — loads
                                           much faster than TSV parsing
  snapshot load <in.snap> [--out graph.tsv]  load (validate) a binary snapshot;
                                           --out converts it back to TSV
  metrics [--format text|json]             dump the metrics registry snapshot
  backends                                 detected CPU features, compiled
                                           compute backends, dispatch choice
  serve <graph.tsv> [--port N] [--workers N] [--max-inflight N]
          [--rate-limit QPS] [--rate-burst N] [--attrs a,b [--materialize]]
          [--ingest-log path] [--duration-seconds N] [--top N]
          [--batch-window-us N]            gather concurrent queries for N µs
                                           and execute them as one engine
                                           batch (0 = off, the default)
          [--snapshot path]                boot from the binary snapshot at
                                           `path` when it exists (TSV fallback
                                           on any validation error) and write
                                           it back on clean shutdown; the
                                           ingest log is truncated after a
                                           successful save so the next boot
                                           does not double-apply
          [--spill-dir path] [--spill-layers N]  spill-to-disk cold tier for
                                           evicted roll-up layers and result-
                                           cache entries; --spill-layers caps
                                           resident layers (0 = unlimited)
          [--slow-query-ms N [--slow-log path]] [--access-log path]
          [--flight-dump path]             run the HTTP query service (docs/SERVER.md).
                                           --slow-query-ms N logs every query
                                           taking ≥ N ms as one JSON line
                                           (0 = every query); SIGUSR1 dumps
                                           the flight recorder to
                                           --flight-dump (default flight.json)
  loadgen --port N [--host IP] [--clients N] [--requests N] [--attrs a,b]
          [--keep-alive [yes|no]] [--ingest [yes|no]] [--json path]
                                           closed-loop load generator:
                                           zipfian query mix, optional live
                                           ingestion, qps + p50/p99 report.
                                           --keep-alive reuses one connection
                                           per client and reports the wire
                                           tax of reconnecting; responses are
                                           verified against a serial
                                           reference (mismatches in the JSON)
  flightrec --port N [--host IP] [--ms N] [--out path]
                                           drain a running server's always-on
                                           flight recorder (GET /debug/trace)
                                           as Chrome-trace JSON; --ms keeps
                                           only the last N milliseconds

global options (any command):
  --threads N     worker threads for parallel scans (default 1; results are
                  bit-identical at any setting)
  --perf [yes|no] after the command, print per-stage execution counters
                  (rows scanned, chunks run, merge time, pool activity);
                  bare --perf means yes
  --trace [path]  record a Chrome Trace Event JSON of the command's spans
                  (operators, aggregation, exploration, pool worker lanes)
                  to `path`; bare --trace writes trace.json. Open the file
                  in chrome://tracing or https://ui.perfetto.dev
  --backend <scalar|avx2|avx512|auto>  force the compute backend for the
                  bitset kernels (default: auto CPUID dispatch, or the
                  GT_BACKEND environment variable). Hard error when the
                  backend is not compiled in or the CPU lacks the ISA;
                  results are bit-identical on every backend
  --planner <rule|cost>  route selection for derivable queries
                  (docs/ENGINE.md §Cost model): cost (the default here and in
                  serve) prices the direct and materialized routes and takes
                  the cheaper; rule restores the historical fixed
                  derivable ⇒ materialized rule. Results are identical either
                  way — only the route (and its latency) changes

time points are labels ("2005") or indices ("5"); ranges are "2001..2004".

query-engine options (aggregate / evolution / measure; docs/ENGINE.md):
  --grouping <auto|dense|hash>  how Algorithm 2 groups tuples: auto picks the
                  dense flat-array path when the attribute domains fit, dense
                  forces it (aborts when the domain is too large), hash forces
                  the hash-map reference path (aggregate only)
  --explain [yes|no]  print the query plan — chosen route (direct kernels vs
                  materialized derivation), grouping resolution and the step
                  list — instead of executing; bare --explain means yes
  --materialize [yes|no]  build per-time-point aggregates first so derivable
                  queries take the materialized route (aggregate only);
                  bare --materialize means yes. A store that lags the graph
                  (append without refresh) degrades gracefully: the planner
                  falls back to the direct route and counts
                  engine/stale_fallback. The engine itself is safe for any
                  number of concurrent readers plus one writer; cached
                  answers are invalidated per entry, only when a time point
                  they depend on actually mutates
)";

/// Flags that may appear without a value; the default used when bare.
constexpr std::pair<const char*, const char*> kValueOptionalFlags[] = {
    {"perf", "yes"},
    {"trace", "trace.json"},
    {"explain", "yes"},
    {"materialize", "yes"},
    {"keep-alive", "yes"},
};

const char* BareFlagDefault(const std::string& name) {
  for (const auto& [flag, fallback] : kValueOptionalFlags) {
    if (name == flag) return fallback;
  }
  return nullptr;
}

bool IsCommandName(const std::string& word) {
  static const char* kCommands[] = {"help",      "info",    "generate", "import",
                                    "operate",   "aggregate", "evolution", "measure",
                                    "coarsen",   "explore", "suggest-k", "stats",
                                    "metrics",   "backends", "serve",   "loadgen",
                                    "flightrec", "snapshot"};
  return std::any_of(std::begin(kCommands), std::end(kCommands),
                     [&](const char* cmd) { return word == cmd; });
}

/// Parsed `--name value` options plus positional arguments.
struct Options {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;

  std::optional<std::string> Get(const std::string& name) const {
    auto it = flags.find(name);
    if (it == flags.end()) return std::nullopt;
    return it->second;
  }
};

bool ParseOptions(const std::vector<std::string>& args, std::size_t start,
                  Options* options, std::ostream& err) {
  for (std::size_t i = start; i < args.size(); ++i) {
    if (StartsWith(args[i], "--")) {
      std::string name = args[i].substr(2);
      // A repeated flag is an error, not a silent last-one-wins overwrite:
      // `--t1 2004 --t1 2005` almost certainly means the user edited the
      // wrong occurrence, and which one "won" was previously invisible.
      // (Also catches a global flag given both before and after the command.)
      if (options->flags.count(name) != 0) {
        err << "error: flag --" << name << " given more than once\n";
        return false;
      }
      const char* bare_default = BareFlagDefault(name);
      const bool next_is_value =
          i + 1 < args.size() && !StartsWith(args[i + 1], "--");
      if (next_is_value) {
        options->flags[name] = args[++i];
      } else if (bare_default != nullptr) {
        options->flags[name] = bare_default;  // bare --perf / --trace
      } else {
        err << "error: flag --" << name << " needs a value\n";
        return false;
      }
    } else {
      options->positional.push_back(args[i]);
    }
  }
  return true;
}

/// "2005" / "5" → TimeId. Thin shim over the shared wire parser
/// (engine/wire.h) so the CLI and the query server bind identically.
std::optional<TimeId> ParseTimePoint(const TemporalGraph& graph, const std::string& text,
                                     std::ostream& err) {
  std::string error;
  std::optional<TimeId> t = engine::wire::ParseTimePoint(graph, text, &error);
  if (!t.has_value()) err << "error: " << error << "\n";
  return t;
}

/// "a..b" or single point → IntervalSet. Delegates to the shared wire parser,
/// which short-circuits at the first bad endpoint — one malformed range
/// yields exactly one diagnostic, never one per endpoint.
std::optional<IntervalSet> ParseInterval(const TemporalGraph& graph,
                                         const std::string& text, std::ostream& err) {
  std::string error;
  std::optional<IntervalSet> interval = engine::wire::ParseInterval(graph, text, &error);
  if (!interval.has_value()) err << "error: " << error << "\n";
  return interval;
}

std::optional<std::vector<AttrRef>> ParseAttributes(const TemporalGraph& graph,
                                                    const std::string& names,
                                                    std::ostream& err) {
  std::vector<AttrRef> refs;
  for (const std::string& name : Split(names, ',')) {
    std::optional<AttrRef> ref = graph.FindAttribute(name);
    if (!ref.has_value()) {
      err << "error: unknown attribute '" << name << "'\n";
      return std::nullopt;
    }
    refs.push_back(*ref);
  }
  if (refs.empty()) {
    err << "error: --attrs needs at least one attribute\n";
    return std::nullopt;
  }
  return refs;
}

std::optional<TemporalGraph> LoadGraph(const std::string& path, std::ostream& err) {
  std::string error;
  std::optional<TemporalGraph> graph = ReadGraphFromFile(path, &error);
  if (!graph.has_value()) err << "error: " << error << "\n";
  return graph;
}

std::string IntervalLabel(const TemporalGraph& graph, const IntervalSet& interval) {
  if (interval.Empty()) return "{}";
  TimeId first = interval.First();
  TimeId last = interval.Last();
  if (first == last) return graph.time_label(first);
  return graph.time_label(first) + ".." + graph.time_label(last);
}

// --- info --------------------------------------------------------------------

int CmdInfo(const Options& options, std::ostream& out, std::ostream& err) {
  if (options.positional.size() != 1) {
    err << "usage: graphtempo info <graph.tsv>\n";
    return 1;
  }
  std::optional<TemporalGraph> graph = LoadGraph(options.positional[0], err);
  if (!graph.has_value()) return 1;

  out << "time points : " << graph->num_times() << "\n";
  out << "nodes       : " << graph->num_nodes() << "\n";
  out << "edges       : " << graph->num_edges() << "\n";
  out << "attributes  :";
  for (std::uint32_t a = 0; a < graph->num_static_attributes(); ++a) {
    out << " " << graph->static_attribute(a).name() << "(static,"
        << graph->static_attribute(a).dictionary().size() << " values)";
  }
  for (std::uint32_t a = 0; a < graph->num_time_varying_attributes(); ++a) {
    out << " " << graph->time_varying_attribute(a).name() << "(varying,"
        << graph->time_varying_attribute(a).dictionary().size() << " values)";
  }
  out << "\n\nper time point:\n";
  out << "  time  nodes  edges  avg-deg  node-overlap-with-next\n";
  for (TimeId t = 0; t < graph->num_times(); ++t) {
    SnapshotStats stats = ComputeSnapshotStats(*graph, t);
    out << "  " << graph->time_label(t) << "  " << stats.nodes << "  " << stats.edges
        << "  ";
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.2f", stats.avg_out_degree);
    out << buffer;
    if (t + 1 < graph->num_times()) {
      std::snprintf(buffer, sizeof(buffer), "%.3f",
                    SnapshotJaccard(*graph, t, t + 1, EntityKind::kNodes));
      out << "  " << buffer;
    }
    out << "\n";
  }
  return 0;
}

// --- generate ----------------------------------------------------------------

int CmdGenerate(const Options& options, std::ostream& out, std::ostream& err) {
  if (options.positional.size() != 2) {
    err << "usage: graphtempo generate <dblp|movielens|contact|paper> <out.tsv> [--seed N]\n";
    return 1;
  }
  const std::string& kind = options.positional[0];
  std::uint64_t seed = 0;
  bool have_seed = false;
  if (std::optional<std::string> raw = options.Get("seed")) {
    if (!ParseUint64(*raw, &seed)) {
      err << "error: --seed must be a non-negative integer\n";
      return 1;
    }
    have_seed = true;
  }

  std::optional<TemporalGraph> graph;
  if (kind == "dblp") {
    datagen::DblpOptions generator_options;
    if (have_seed) generator_options.seed = seed;
    graph.emplace(datagen::GenerateDblp(generator_options));
  } else if (kind == "movielens") {
    datagen::MovieLensOptions generator_options;
    if (have_seed) generator_options.seed = seed;
    graph.emplace(datagen::GenerateMovieLens(generator_options));
  } else if (kind == "contact") {
    datagen::ContactOptions generator_options;
    if (have_seed) generator_options.seed = seed;
    graph.emplace(datagen::GenerateContactNetwork(generator_options));
  } else if (kind == "paper") {
    graph.emplace(datagen::BuildPaperExampleGraph());
  } else {
    err << "error: unknown dataset '" << kind << "' (dblp|movielens|contact|paper)\n";
    return 1;
  }

  std::string error;
  if (!WriteGraphToFile(*graph, options.positional[1], &error)) {
    err << "error: " << error << "\n";
    return 1;
  }
  out << "wrote " << kind << ": " << graph->num_nodes() << " nodes, "
      << graph->num_edges() << " edges, " << graph->num_times() << " time points to "
      << options.positional[1] << "\n";
  return 0;
}

// --- import ---------------------------------------------------------------------

int CmdImport(const Options& options, std::ostream& out, std::ostream& err) {
  if (options.positional.size() != 2) {
    err << "usage: graphtempo import <edges.tsv> <out.tsv> [--static name:path,...]"
           " [--varying name:path,...]\n";
    return 1;
  }
  std::string error;
  std::optional<TemporalGraph> graph =
      ReadEdgeListFromFile(options.positional[0], &error);
  if (!graph.has_value()) {
    err << "error: " << error << "\n";
    return 1;
  }

  auto load_attributes = [&](const std::string& spec, bool is_static) -> bool {
    for (const std::string& item : Split(spec, ',')) {
      std::size_t colon = item.find(':');
      if (colon == std::string::npos) {
        err << "error: attribute spec must be name:path, got '" << item << "'\n";
        return false;
      }
      std::string name = item.substr(0, colon);
      std::string path = item.substr(colon + 1);
      std::ifstream in(path);
      if (!in) {
        err << "error: cannot open for reading: " << path << "\n";
        return false;
      }
      bool ok = is_static
                    ? ReadStaticAttributeTsv(&*graph, &in, name, &error)
                    : ReadTimeVaryingAttributeTsv(&*graph, &in, name, &error);
      if (!ok) {
        err << "error: " << path << ": " << error << "\n";
        return false;
      }
    }
    return true;
  };
  if (std::optional<std::string> spec = options.Get("static")) {
    if (!load_attributes(*spec, /*is_static=*/true)) return 1;
  }
  if (std::optional<std::string> spec = options.Get("varying")) {
    if (!load_attributes(*spec, /*is_static=*/false)) return 1;
  }

  if (!WriteGraphToFile(*graph, options.positional[1], &error)) {
    err << "error: " << error << "\n";
    return 1;
  }
  out << "imported " << graph->num_nodes() << " nodes, " << graph->num_edges()
      << " edges over " << graph->num_times() << " time points to "
      << options.positional[1] << "\n";
  return 0;
}

// --- operate / aggregate / measure shared query-spec construction --------------

/// Parses the operator half of a query — `--op`, `--t1`, `--t2` — into a
/// `QuerySpec` (attributes/semantics/grouping left at defaults). Shared by
/// every command that evaluates a temporal operator, so `operate`,
/// `aggregate` and `measure` agree on defaults (union; `--t2` falling back to
/// `--t1`, degenerating to "exists in T1").
std::optional<engine::QuerySpec> BuildSpecBase(const TemporalGraph& graph,
                                               const Options& options,
                                               std::ostream& err) {
  engine::QuerySpec spec;
  const std::string op = options.Get("op").value_or("union");
  if (op == "project") {
    spec.op = engine::TemporalOperatorKind::kProject;
  } else if (op == "union") {
    spec.op = engine::TemporalOperatorKind::kUnion;
  } else if (op == "intersection") {
    spec.op = engine::TemporalOperatorKind::kIntersection;
  } else if (op == "difference") {
    spec.op = engine::TemporalOperatorKind::kDifference;
  } else {
    err << "error: unknown --op '" << op << "' (union|intersection|difference|project)\n";
    return std::nullopt;
  }
  std::optional<std::string> t1_raw = options.Get("t1");
  if (!t1_raw.has_value()) {
    err << "error: --t1 is required\n";
    return std::nullopt;
  }
  std::optional<IntervalSet> t1 = ParseInterval(graph, *t1_raw, err);
  if (!t1.has_value()) return std::nullopt;
  spec.t1 = *t1;
  if (spec.op != engine::TemporalOperatorKind::kProject) {
    if (std::optional<std::string> t2_raw = options.Get("t2")) {
      std::optional<IntervalSet> t2 = ParseInterval(graph, *t2_raw, err);
      if (!t2.has_value()) return std::nullopt;
      spec.t2 = *t2;
    } else {
      spec.t2 = *t1;  // single-interval union/intersection degenerate to "exists in T1"
    }
  }
  return spec;
}

std::optional<GraphView> BuildView(const TemporalGraph& graph, const Options& options,
                                   std::ostream& err) {
  std::optional<engine::QuerySpec> spec = BuildSpecBase(graph, options, err);
  if (!spec.has_value()) return std::nullopt;
  return engine::BuildOperatorView(graph, *spec);
}

/// Engine configuration shared by every command that constructs a
/// `QueryEngine`. The CLI (like the server) defaults to the cost-based
/// planner; `--planner rule` restores the historical fixed rule. Garbage
/// values are hard errors, consistent with the rest of the flag policy.
std::optional<engine::QueryEngine::Config> BuildEngineConfig(const Options& options,
                                                             std::ostream& err) {
  engine::QueryEngine::Config config;
  config.planner = engine::PlannerMode::kCost;
  if (std::optional<std::string> raw = options.Get("planner")) {
    std::string error;
    if (!engine::ParsePlannerMode(*raw, &config.planner, &error)) {
      err << "error: --planner " << error << "\n";
      return std::nullopt;
    }
  }
  config.spill_dir = options.Get("spill-dir").value_or("");
  if (std::optional<std::string> raw = options.Get("spill-layers")) {
    std::uint64_t layers = 0;
    if (!ParseUint64(*raw, &layers)) {
      err << "error: --spill-layers must be a non-negative integer "
             "(0 = unlimited), got '"
          << *raw << "'\n";
      return std::nullopt;
    }
    config.max_resident_layers = static_cast<std::size_t>(layers);
  }
  return config;
}

/// Shared `--explain [yes|no]` handling: returns false on a bad value,
/// otherwise stores whether the command should print its plan and stop.
bool ParseExplainFlag(const Options& options, bool* explain, std::ostream& err) {
  const std::string raw = options.Get("explain").value_or("no");
  if (raw != "yes" && raw != "no") {
    err << "error: --explain must be yes or no (bare --explain means yes), got '" << raw
        << "'\n";
    return false;
  }
  *explain = raw == "yes";
  return true;
}

int CmdOperate(const Options& options, std::ostream& out, std::ostream& err) {
  if (options.positional.size() != 1) {
    err << "usage: graphtempo operate <graph.tsv> --op <...> --t1 <...> [--t2 <...>]\n";
    return 1;
  }
  std::optional<TemporalGraph> graph = LoadGraph(options.positional[0], err);
  if (!graph.has_value()) return 1;
  std::optional<GraphView> view = BuildView(*graph, options, err);
  if (!view.has_value()) return 1;

  out << options.Get("op").value_or("union") << " on "
      << IntervalLabel(*graph, view->times) << ": " << view->NodeCount() << " nodes, "
      << view->EdgeCount() << " edges\n";

  if (std::optional<std::string> out_path = options.Get("out")) {
    TemporalGraph sub = ExtractSubgraph(*graph, *view);
    std::string error;
    if (!WriteGraphToFile(sub, *out_path, &error)) {
      err << "error: " << error << "\n";
      return 1;
    }
    out << "wrote subgraph to " << *out_path << "\n";
  }
  return 0;
}

// --- aggregate -----------------------------------------------------------------

int CmdAggregate(const Options& options, std::ostream& out, std::ostream& err) {
  if (options.positional.size() != 1) {
    err << "usage: graphtempo aggregate <graph.tsv> --attrs a,b [--op ...] [--t1 ...]\n";
    return 1;
  }
  std::optional<TemporalGraph> graph = LoadGraph(options.positional[0], err);
  if (!graph.has_value()) return 1;

  std::optional<std::string> attr_names = options.Get("attrs");
  if (!attr_names.has_value()) {
    err << "error: --attrs is required\n";
    return 1;
  }
  std::optional<std::vector<AttrRef>> attrs = ParseAttributes(*graph, *attr_names, err);
  if (!attrs.has_value()) return 1;

  std::optional<engine::QuerySpec> spec = BuildSpecBase(*graph, options, err);
  if (!spec.has_value()) return 1;
  spec->attrs = *attrs;

  std::string semantics_raw = options.Get("semantics").value_or("dist");
  if (semantics_raw == "dist") {
    spec->semantics = AggregationSemantics::kDistinct;
  } else if (semantics_raw == "all") {
    spec->semantics = AggregationSemantics::kAll;
  } else {
    err << "error: --semantics must be dist or all\n";
    return 1;
  }

  std::string grouping_raw = options.Get("grouping").value_or("auto");
  if (grouping_raw == "auto") {
    spec->grouping = GroupingStrategy::kAuto;
  } else if (grouping_raw == "dense") {
    spec->grouping = GroupingStrategy::kDense;
  } else if (grouping_raw == "hash") {
    spec->grouping = GroupingStrategy::kHash;
  } else {
    err << "error: --grouping must be auto, dense or hash\n";
    return 1;
  }

  spec->symmetrize = options.Get("symmetric").value_or("no") == "yes";

  std::uint64_t top = 20;
  if (std::optional<std::string> top_raw = options.Get("top")) {
    if (!ParseUint64(*top_raw, &top)) {
      err << "error: --top must be a non-negative integer\n";
      return 1;
    }
  }

  const std::string materialize_raw = options.Get("materialize").value_or("no");
  if (materialize_raw != "yes" && materialize_raw != "no") {
    err << "error: --materialize must be yes or no (bare --materialize means yes), got '"
        << materialize_raw << "'\n";
    return 1;
  }
  bool explain = false;
  if (!ParseExplainFlag(options, &explain, err)) return 1;

  std::optional<engine::QueryEngine::Config> engine_config =
      BuildEngineConfig(options, err);
  if (!engine_config.has_value()) return 1;
  engine::QueryEngine engine(&*graph, *engine_config);
  if (materialize_raw == "yes") engine.EnableMaterialization(*attrs);

  if (explain) {
    out << engine.Plan(*spec).Explain();
    return 0;
  }

  const engine::QueryResult result = engine.ExecuteResult(*spec);
  const AggregateGraph& aggregate = result.aggregate();
  out << "aggregate on " << IntervalLabel(*graph, spec->EvaluationInterval()) << " ("
      << (spec->semantics == AggregationSemantics::kDistinct ? "DIST" : "ALL")
      << "): " << aggregate.NodeCount() << " aggregate nodes, " << aggregate.EdgeCount()
      << " aggregate edges\n";

  const engine::RankedRows& ranking = result.ranking();
  out << "nodes:\n";
  for (std::size_t i = 0; i < ranking.nodes.size() && i < top; ++i) {
    const auto& row = aggregate.nodes()[ranking.nodes[i]];
    out << "  (" << FormatTuple(*graph, *attrs, aggregate.NodeTuple(row.code)) << ")  "
        << row.weight << "\n";
  }
  out << "edges:\n";
  for (std::size_t i = 0; i < ranking.edges.size() && i < top; ++i) {
    const auto& row = aggregate.edges()[ranking.edges[i]];
    const AttrTuplePair pair = aggregate.EdgePair(row.code);
    out << "  (" << FormatTuple(*graph, *attrs, pair.src) << ") -> ("
        << FormatTuple(*graph, *attrs, pair.dst) << ")  " << row.weight << "\n";
  }
  return 0;
}

// --- evolution -------------------------------------------------------------------

int CmdEvolution(const Options& options, std::ostream& out, std::ostream& err) {
  if (options.positional.size() != 1) {
    err << "usage: graphtempo evolution <graph.tsv> --attrs a --old a..b --new c..d\n";
    return 1;
  }
  std::optional<TemporalGraph> graph = LoadGraph(options.positional[0], err);
  if (!graph.has_value()) return 1;

  std::optional<std::string> attr_names = options.Get("attrs");
  std::optional<std::string> old_raw = options.Get("old");
  std::optional<std::string> new_raw = options.Get("new");
  if (!attr_names || !old_raw || !new_raw) {
    err << "error: --attrs, --old and --new are required\n";
    return 1;
  }
  std::optional<std::vector<AttrRef>> attrs = ParseAttributes(*graph, *attr_names, err);
  if (!attrs.has_value()) return 1;
  std::optional<IntervalSet> old_side = ParseInterval(*graph, *old_raw, err);
  std::optional<IntervalSet> new_side = ParseInterval(*graph, *new_raw, err);
  if (!old_side || !new_side) return 1;

  std::uint64_t top = 20;
  if (std::optional<std::string> top_raw = options.Get("top")) {
    if (!ParseUint64(*top_raw, &top)) {
      err << "error: --top must be a non-negative integer\n";
      return 1;
    }
  }

  bool explain = false;
  if (!ParseExplainFlag(options, &explain, err)) return 1;

  // Evolution runs through the engine like every other query family: one
  // kEvolution spec, planned and executed (and result-cached) uniformly.
  std::optional<engine::QueryEngine::Config> engine_config =
      BuildEngineConfig(options, err);
  if (!engine_config.has_value()) return 1;
  engine::QueryEngine engine(&*graph, *engine_config);
  engine::QuerySpec spec;
  spec.kind = engine::QueryKind::kEvolution;
  spec.t1 = *old_side;
  spec.t2 = *new_side;
  spec.attrs = *attrs;

  if (explain) {
    out << engine.Plan(spec).Explain();
    return 0;
  }

  const engine::QueryResult result = engine.ExecuteResult(spec);
  const EvolutionAggregate& evolution = result.evolution();
  out << "evolution " << IntervalLabel(*graph, *old_side) << " -> "
      << IntervalLabel(*graph, *new_side) << "\n";

  const engine::RankedRows& ranking = result.ranking();
  out << "nodes (stable/new/gone):\n";
  for (std::size_t i = 0; i < ranking.nodes.size() && i < top; ++i) {
    const auto& row = evolution.nodes()[ranking.nodes[i]];
    out << "  (" << FormatTuple(*graph, *attrs, evolution.NodeTuple(row.code)) << ")  "
        << row.weight.stability << "/" << row.weight.growth << "/" << row.weight.shrinkage
        << "\n";
  }
  out << "edges (stable/new/gone):\n";
  for (std::size_t i = 0; i < ranking.edges.size() && i < top; ++i) {
    const auto& row = evolution.edges()[ranking.edges[i]];
    const AttrTuplePair pair = evolution.EdgePair(row.code);
    out << "  (" << FormatTuple(*graph, *attrs, pair.src) << ") -> ("
        << FormatTuple(*graph, *attrs, pair.dst) << ")  " << row.weight.stability << "/"
        << row.weight.growth << "/" << row.weight.shrinkage << "\n";
  }
  return 0;
}

// --- stats -----------------------------------------------------------------------

int CmdStats(const Options& options, std::ostream& out, std::ostream& err) {
  if (options.positional.size() != 1) {
    err << "usage: graphtempo stats <graph.tsv> [--t <time>] [--attr <name>]\n";
    return 1;
  }
  std::optional<TemporalGraph> graph = LoadGraph(options.positional[0], err);
  if (!graph.has_value()) return 1;

  TimeId t = 0;
  if (std::optional<std::string> raw = options.Get("t")) {
    std::optional<TimeId> parsed = ParseTimePoint(*graph, *raw, err);
    if (!parsed.has_value()) return 1;
    t = *parsed;
  }

  SnapshotStats snapshot = ComputeSnapshotStats(*graph, t);
  char buffer[64];
  out << "snapshot " << graph->time_label(t) << ": " << snapshot.nodes << " nodes, "
      << snapshot.edges << " edges";
  std::snprintf(buffer, sizeof(buffer), ", avg out-degree %.2f, max %zu, density %.4f",
                snapshot.avg_out_degree, snapshot.max_out_degree, snapshot.density);
  out << buffer << "\n";

  out << "out-degree histogram (degree: nodes):";
  for (const auto& [degree, count] : OutDegreeHistogram(*graph, t)) {
    out << " " << degree << ":" << count;
  }
  out << "\n";

  out << "node lifespans (#time points: entities):";
  for (const auto& [span, count] : LifespanHistogram(*graph, EntityKind::kNodes)) {
    out << " " << span << ":" << count;
  }
  out << "\nedge lifespans (#time points: entities):";
  for (const auto& [span, count] : LifespanHistogram(*graph, EntityKind::kEdges)) {
    out << " " << span << ":" << count;
  }
  out << "\n";

  if (std::optional<std::string> attr_name = options.Get("attr")) {
    std::optional<AttrRef> attr = graph->FindAttribute(*attr_name);
    if (!attr.has_value()) {
      err << "error: unknown attribute '" << *attr_name << "'\n";
      return 1;
    }
    out << *attr_name << " distribution at " << graph->time_label(t) << ":";
    for (const auto& [value, count] : AttributeDistribution(*graph, *attr, t)) {
      out << " " << value << ":" << count;
    }
    out << "\n";
  }
  return 0;
}

// --- measure ---------------------------------------------------------------------

int CmdMeasure(const Options& options, std::ostream& out, std::ostream& err) {
  if (options.positional.size() != 1) {
    err << "usage: graphtempo measure <graph.tsv> --attrs a --measure <edge-attr>"
           " --fn <sum|min|max|avg|count>\n";
    return 1;
  }
  std::optional<TemporalGraph> graph = LoadGraph(options.positional[0], err);
  if (!graph.has_value()) return 1;

  std::optional<std::string> attr_names = options.Get("attrs");
  std::optional<std::string> measure_name = options.Get("measure");
  if (!attr_names || !measure_name) {
    err << "error: --attrs and --measure are required\n";
    return 1;
  }
  std::optional<std::vector<AttrRef>> attrs = ParseAttributes(*graph, *attr_names, err);
  if (!attrs.has_value()) return 1;
  std::optional<EdgeAttrRef> measure_attr = graph->FindEdgeAttribute(*measure_name);
  if (!measure_attr.has_value()) {
    err << "error: unknown edge attribute '" << *measure_name << "'\n";
    return 1;
  }

  std::string fn_name = options.Get("fn").value_or("sum");
  MeasureFunction function;
  if (fn_name == "sum") {
    function = MeasureFunction::kSum;
  } else if (fn_name == "min") {
    function = MeasureFunction::kMin;
  } else if (fn_name == "max") {
    function = MeasureFunction::kMax;
  } else if (fn_name == "avg") {
    function = MeasureFunction::kAvg;
  } else if (fn_name == "count") {
    function = MeasureFunction::kCount;
  } else {
    err << "error: --fn must be sum, min, max, avg or count\n";
    return 1;
  }

  std::optional<engine::QuerySpec> spec = BuildSpecBase(*graph, options, err);
  if (!spec.has_value()) return 1;
  spec->attrs = *attrs;

  bool explain = false;
  if (!ParseExplainFlag(options, &explain, err)) return 1;
  if (explain) {
    // Measures aggregate something other than COUNT over the same operator
    // view; the plan shown is the view/grouping half the engine would run.
    std::optional<engine::QueryEngine::Config> engine_config =
        BuildEngineConfig(options, err);
    if (!engine_config.has_value()) return 1;
    engine::QueryEngine engine(&*graph, *engine_config);
    out << engine.Plan(*spec).Explain();
    return 0;
  }

  GraphView view = engine::BuildOperatorView(*graph, *spec);

  std::uint64_t top = 20;
  if (std::optional<std::string> top_raw = options.Get("top")) {
    if (!ParseUint64(*top_raw, &top)) {
      err << "error: --top must be a non-negative integer\n";
      return 1;
    }
  }

  EdgeMeasureMap measures =
      AggregateEdgeMeasure(*graph, view, *attrs, *measure_attr, function);
  out << fn_name << "(" << *measure_name << ") on "
      << IntervalLabel(*graph, view.times) << ", " << measures.size()
      << " aggregate edge group(s):\n";
  std::vector<std::pair<AttrTuplePair, MeasureValue>> rows(measures.begin(),
                                                           measures.end());
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.second.value > b.second.value; });
  for (std::size_t i = 0; i < rows.size() && i < top; ++i) {
    char value[32];
    std::snprintf(value, sizeof(value), "%g", rows[i].second.value);
    out << "  (" << FormatTuple(*graph, *attrs, rows[i].first.src) << ") -> ("
        << FormatTuple(*graph, *attrs, rows[i].first.dst) << ")  " << value << "  ("
        << rows[i].second.samples << " samples)\n";
  }
  return 0;
}

// --- coarsen ---------------------------------------------------------------------

int CmdCoarsen(const Options& options, std::ostream& out, std::ostream& err) {
  if (options.positional.size() != 2) {
    err << "usage: graphtempo coarsen <graph.tsv> <out.tsv> --width N"
           " [--policy last|first]\n";
    return 1;
  }
  std::optional<TemporalGraph> graph = LoadGraph(options.positional[0], err);
  if (!graph.has_value()) return 1;

  std::uint64_t width = 0;
  if (!ParseUint64(options.Get("width").value_or(""), &width) || width == 0) {
    err << "error: --width must be a positive integer\n";
    return 1;
  }
  std::string policy_name = options.Get("policy").value_or("last");
  CoarsenPolicy policy;
  if (policy_name == "last") {
    policy = CoarsenPolicy::kLast;
  } else if (policy_name == "first") {
    policy = CoarsenPolicy::kFirst;
  } else {
    err << "error: --policy must be last or first\n";
    return 1;
  }

  TemporalGraph coarse =
      CoarsenTime(*graph, UniformGrouping(*graph, width), policy);
  std::string error;
  if (!WriteGraphToFile(coarse, options.positional[1], &error)) {
    err << "error: " << error << "\n";
    return 1;
  }
  out << "coarsened " << graph->num_times() << " time points into "
      << coarse.num_times() << " (width " << width << "); wrote "
      << coarse.num_nodes() << " nodes, " << coarse.num_edges() << " edges to "
      << options.positional[1] << "\n";
  return 0;
}

// --- explore / suggest-k -----------------------------------------------------------

std::optional<EventType> ParseEvent(const Options& options, std::ostream& err) {
  std::optional<std::string> raw = options.Get("event");
  if (!raw.has_value()) {
    err << "error: --event is required (stability|growth|shrinkage)\n";
    return std::nullopt;
  }
  if (*raw == "stability") return EventType::kStability;
  if (*raw == "growth") return EventType::kGrowth;
  if (*raw == "shrinkage") return EventType::kShrinkage;
  err << "error: unknown --event '" << *raw << "'\n";
  return std::nullopt;
}

std::optional<EntitySelector> ParseSelector(const TemporalGraph& graph,
                                            const Options& options, std::ostream& err) {
  EntitySelector selector;
  std::string kind = options.Get("kind").value_or("edges");
  if (kind == "edges") {
    selector.kind = EntitySelector::Kind::kEdges;
  } else if (kind == "nodes") {
    selector.kind = EntitySelector::Kind::kNodes;
  } else {
    err << "error: --kind must be nodes or edges\n";
    return std::nullopt;
  }
  if (std::optional<std::string> attr_names = options.Get("attrs")) {
    std::optional<std::vector<AttrRef>> attrs = ParseAttributes(graph, *attr_names, err);
    if (!attrs.has_value()) return std::nullopt;
    selector.attrs = *attrs;
  }
  auto parse_tuple = [&](const std::string& values) -> std::optional<AttrTuple> {
    std::vector<std::string> parts = Split(values, ',');
    if (selector.attrs.empty() || parts.size() != selector.attrs.size()) {
      err << "error: tuple '" << values << "' does not match --attrs arity\n";
      return std::nullopt;
    }
    AttrTuple tuple;
    for (std::size_t i = 0; i < parts.size(); ++i) {
      std::optional<AttrValueId> code = graph.FindValueCode(selector.attrs[i], parts[i]);
      if (!code.has_value()) {
        err << "error: attribute value '" << parts[i] << "' not found\n";
        return std::nullopt;
      }
      tuple.Append(*code);
    }
    return tuple;
  };
  if (std::optional<std::string> node = options.Get("node")) {
    std::optional<AttrTuple> tuple = parse_tuple(*node);
    if (!tuple.has_value()) return std::nullopt;
    selector.node_tuple = *tuple;
  }
  std::optional<std::string> src = options.Get("src");
  std::optional<std::string> dst = options.Get("dst");
  if (src.has_value() != dst.has_value()) {
    err << "error: --src and --dst must be given together\n";
    return std::nullopt;
  }
  if (src.has_value()) {
    std::optional<AttrTuple> src_tuple = parse_tuple(*src);
    std::optional<AttrTuple> dst_tuple = parse_tuple(*dst);
    if (!src_tuple || !dst_tuple) return std::nullopt;
    selector.src_tuple = *src_tuple;
    selector.dst_tuple = *dst_tuple;
  }
  return selector;
}

int CmdExplore(const Options& options, std::ostream& out, std::ostream& err) {
  if (options.positional.size() != 1) {
    err << "usage: graphtempo explore <graph.tsv> --event <...> --semantics <...> --k N\n";
    return 1;
  }
  std::optional<TemporalGraph> graph = LoadGraph(options.positional[0], err);
  if (!graph.has_value()) return 1;

  ExplorationSpec spec;
  std::optional<EventType> event = ParseEvent(options, err);
  if (!event.has_value()) return 1;
  spec.event = *event;

  std::string semantics = options.Get("semantics").value_or("union");
  if (semantics == "union") {
    spec.semantics = ExtensionSemantics::kUnion;
  } else if (semantics == "intersection") {
    spec.semantics = ExtensionSemantics::kIntersection;
  } else {
    err << "error: --semantics must be union or intersection\n";
    return 1;
  }

  std::string reference = options.Get("reference").value_or("old");
  if (reference == "old") {
    spec.reference = ReferenceEnd::kOld;
  } else if (reference == "new") {
    spec.reference = ReferenceEnd::kNew;
  } else {
    err << "error: --reference must be old or new\n";
    return 1;
  }

  std::uint64_t k = 1;
  if (std::optional<std::string> k_raw = options.Get("k")) {
    if (!ParseUint64(*k_raw, &k) || k == 0) {
      err << "error: --k must be a positive integer\n";
      return 1;
    }
  }
  spec.k = static_cast<Weight>(k);

  std::optional<EntitySelector> selector = ParseSelector(*graph, options, err);
  if (!selector.has_value()) return 1;
  spec.selector = *selector;

  std::string strategy = options.Get("strategy").value_or("pruned");
  ExplorationResult result;
  if (strategy == "pruned") {
    // The default strategy runs through the engine as a kExplore spec, so
    // CLI explorations share the planner, spans and result cache with the
    // server's wire-served ones. The alternative strategies stay direct
    // calls — they exist to cross-check the pruned sweep.
    std::optional<engine::QueryEngine::Config> engine_config =
        BuildEngineConfig(options, err);
    if (!engine_config.has_value()) return 1;
    engine::QueryEngine engine(&*graph, *engine_config);
    engine::QuerySpec query;
    query.kind = engine::QueryKind::kExplore;
    query.explore = spec;
    query.t1 = IntervalSet::All(graph->num_times());
    query.attrs = spec.selector.attrs;
    result = engine.ExecuteResult(query).exploration();
  } else if (strategy == "naive") {
    result = ExploreNaive(*graph, spec);
  } else if (strategy == "both-ends") {
    result = ExploreBothEnds(*graph, spec);
  } else {
    err << "error: --strategy must be pruned, naive or both-ends\n";
    return 1;
  }

  out << (spec.semantics == ExtensionSemantics::kUnion ? "minimal" : "maximal")
      << " interval pairs with >= " << spec.k << " " << EventTypeName(spec.event)
      << " events (" << result.evaluations << " evaluations):\n";
  for (const IntervalPair& pair : result.pairs) {
    out << "  old [" << graph->time_label(pair.old_range.first) << ".."
        << graph->time_label(pair.old_range.last) << "]  new ["
        << graph->time_label(pair.new_range.first) << ".."
        << graph->time_label(pair.new_range.last) << "]  events " << pair.count << "\n";
  }
  if (result.pairs.empty()) out << "  (none)\n";
  return 0;
}

int CmdSuggestK(const Options& options, std::ostream& out, std::ostream& err) {
  if (options.positional.size() != 1) {
    err << "usage: graphtempo suggest-k <graph.tsv> --event <...> [selector options]\n";
    return 1;
  }
  std::optional<TemporalGraph> graph = LoadGraph(options.positional[0], err);
  if (!graph.has_value()) return 1;
  std::optional<EventType> event = ParseEvent(options, err);
  if (!event.has_value()) return 1;
  std::optional<EntitySelector> selector = ParseSelector(*graph, options, err);
  if (!selector.has_value()) return 1;

  ThresholdSuggestion suggestion = SuggestThreshold(*graph, *event, *selector);
  out << EventTypeName(*event) << " events over consecutive time-point pairs: min "
      << suggestion.min_weight << ", max " << suggestion.max_weight << "\n"
      << "suggested starting k: " << suggestion.max_weight
      << " (decrease gradually for decreasing configurations; start from "
      << suggestion.min_weight << " and increase otherwise)\n";
  return 0;
}

// --- snapshot --------------------------------------------------------------------

int CmdSnapshot(const Options& options, std::ostream& out, std::ostream& err) {
  const char* usage =
      "usage: graphtempo snapshot save <graph.tsv> <out.snap>\n"
      "       graphtempo snapshot load <in.snap> [--out graph.tsv]\n";
  if (options.positional.empty()) {
    err << usage;
    return 1;
  }
  const std::string& verb = options.positional[0];
  std::string error;
  if (verb == "save") {
    if (options.positional.size() != 3) {
      err << usage;
      return 1;
    }
    std::optional<TemporalGraph> graph = LoadGraph(options.positional[1], err);
    if (!graph.has_value()) return 1;
    if (!SaveGraphSnapshot(*graph, options.positional[2], &error)) {
      err << "error: " << error << "\n";
      return 1;
    }
    out << "wrote snapshot: " << graph->num_nodes() << " nodes, "
        << graph->num_edges() << " edges, " << graph->num_times()
        << " time points to " << options.positional[2] << "\n";
    return 0;
  }
  if (verb == "load") {
    if (options.positional.size() != 2) {
      err << usage;
      return 1;
    }
    std::optional<TemporalGraph> graph =
        LoadGraphSnapshot(options.positional[1], &error);
    if (!graph.has_value()) {
      err << "error: " << error << "\n";
      return 1;
    }
    out << "loaded snapshot: " << graph->num_nodes() << " nodes, "
        << graph->num_edges() << " edges, " << graph->num_times()
        << " time points (generation " << graph->mutation_generation() << ")\n";
    if (std::optional<std::string> out_path = options.Get("out")) {
      if (!WriteGraphToFile(*graph, *out_path, &error)) {
        err << "error: " << error << "\n";
        return 1;
      }
      out << "wrote TSV to " << *out_path << "\n";
    }
    return 0;
  }
  err << usage;
  return 1;
}

// --- serve / loadgen -------------------------------------------------------------

/// Parses an optional non-negative numeric flag; false + diagnostic when the
/// flag is present but malformed.
bool ParseOptionalUint(const Options& options, const std::string& name,
                       std::uint64_t* value, std::ostream& err) {
  std::optional<std::string> raw = options.Get(name);
  if (!raw.has_value()) return true;
  if (!ParseUint64(*raw, value)) {
    err << "error: --" << name << " must be a non-negative integer, got '" << *raw
        << "'\n";
    return false;
  }
  return true;
}

/// Set by the SIGUSR1 handler, polled (and cleared) by the serve loop.
volatile std::sig_atomic_t g_flight_dump_requested = 0;

int CmdServe(const Options& options, std::ostream& out, std::ostream& err) {
  if (options.positional.size() != 1) {
    err << "usage: graphtempo serve <graph.tsv> [--port N] [--workers N] ...\n";
    return 1;
  }
  // Boot tier order: the binary snapshot when --snapshot names an existing
  // file (fast path, preserves cache generations), the TSV otherwise. Any
  // snapshot validation failure prints one diagnostic and falls back — a
  // corrupt snapshot must never take the server down.
  const std::string snapshot_path = options.Get("snapshot").value_or("");
  std::optional<TemporalGraph> graph;
  if (!snapshot_path.empty()) {
    std::ifstream probe(snapshot_path, std::ios::binary);
    if (probe.is_open()) {
      probe.close();
      std::string snapshot_error;
      graph = LoadGraphSnapshot(snapshot_path, &snapshot_error);
      if (graph.has_value()) {
        out << "booted from snapshot " << snapshot_path << "\n";
      } else {
        err << "warning: " << snapshot_error << "; falling back to "
            << options.positional[0] << "\n";
      }
    }
  }
  if (!graph.has_value()) graph = LoadGraph(options.positional[0], err);
  if (!graph.has_value()) return 1;

  server::ServerConfig config;
  std::uint64_t port = 0;
  if (!ParseOptionalUint(options, "port", &port, err)) return 1;
  if (port > 65535) {
    err << "error: --port must be at most 65535\n";
    return 1;
  }
  config.port = static_cast<int>(port);

  // Worker-pool sizing shares the CLI's central thread-count validation.
  if (std::optional<std::string> raw = options.Get("workers")) {
    std::string error;
    if (!ParseThreadCount(*raw, &config.worker_threads, &error)) {
      err << "error: --workers " << error << "\n";
      return 1;
    }
  }
  std::uint64_t max_inflight = config.max_inflight;
  if (!ParseOptionalUint(options, "max-inflight", &max_inflight, err)) return 1;
  if (max_inflight == 0) {
    err << "error: --max-inflight must be a positive integer\n";
    return 1;
  }
  config.max_inflight = static_cast<std::size_t>(max_inflight);
  if (std::optional<std::string> raw = options.Get("rate-limit")) {
    config.rate_limit_qps = std::atof(raw->c_str());
    if (config.rate_limit_qps <= 0) {
      err << "error: --rate-limit must be a positive number of queries/second\n";
      return 1;
    }
  }
  if (std::optional<std::string> raw = options.Get("rate-burst")) {
    config.rate_limit_burst = std::atof(raw->c_str());
    if (config.rate_limit_burst <= 0) {
      err << "error: --rate-burst must be a positive number\n";
      return 1;
    }
  }
  std::uint64_t top = 0;
  if (!ParseOptionalUint(options, "top", &top, err)) return 1;
  config.default_top = static_cast<std::size_t>(top);
  config.ingest_log_path = options.Get("ingest-log").value_or("");
  std::uint64_t duration_seconds = 0;
  if (!ParseOptionalUint(options, "duration-seconds", &duration_seconds, err)) return 1;

  // Slow-query logging: off by default; 0 is a valid threshold meaning "log
  // every executed query" (used by CI to exercise the record pipeline).
  if (std::optional<std::string> raw = options.Get("slow-query-ms")) {
    std::uint64_t slow_ms = 0;
    if (!ParseUint64(*raw, &slow_ms)) {
      err << "error: --slow-query-ms must be a non-negative integer number of "
             "milliseconds (0 logs every query), got '"
          << *raw << "'\n";
      return 1;
    }
    config.slow_query_ms = static_cast<std::int64_t>(slow_ms);
  }
  config.slow_log_path = options.Get("slow-log").value_or("");
  config.access_log_path = options.Get("access-log").value_or("");
  const std::string flight_dump_path =
      options.Get("flight-dump").value_or("flight.json");

  // Batch gather window: 0 (default) keeps the one-query-one-execution path.
  if (std::optional<std::string> raw = options.Get("batch-window-us")) {
    std::uint64_t window_us = 0;
    if (!ParseUint64(*raw, &window_us)) {
      err << "error: --batch-window-us must be a non-negative integer number of "
             "microseconds (0 disables batching), got '"
          << *raw << "'\n";
      return 1;
    }
    config.batch_window_us = static_cast<std::int64_t>(window_us);
  }

  std::optional<engine::QueryEngine::Config> engine_config =
      BuildEngineConfig(options, err);
  if (!engine_config.has_value()) return 1;
  engine::QueryEngine engine(&*graph, *engine_config);
  const std::string materialize_raw = options.Get("materialize").value_or("no");
  if (materialize_raw != "yes" && materialize_raw != "no") {
    err << "error: --materialize must be yes or no (bare --materialize means yes), got '"
        << materialize_raw << "'\n";
    return 1;
  }
  if (materialize_raw == "yes") {
    std::optional<std::string> attr_names = options.Get("attrs");
    if (!attr_names.has_value()) {
      err << "error: --materialize needs --attrs to know what to materialize\n";
      return 1;
    }
    std::optional<std::vector<AttrRef>> attrs =
        ParseAttributes(*graph, *attr_names, err);
    if (!attrs.has_value()) return 1;
    engine.EnableMaterialization(*attrs);
  }

  server::Server server(&*graph, &engine, config);
  std::string error;
  if (!server.Start(&error)) {
    err << "error: " << error << "\n";
    return 1;
  }
  out << "serving " << options.positional[0] << " on 127.0.0.1:" << server.port()
      << " (" << config.worker_threads << " workers";
  if (duration_seconds > 0) out << ", for " << duration_seconds << "s";
  out << "; POST /shutdown to stop)\n";
  out.flush();

  // SIGUSR1 dumps the always-on flight recorder to disk — the incident
  // workflow when the HTTP port is saturated or unreachable. The handler only
  // sets a flag; the serve loop below does the IO.
  g_flight_dump_requested = 0;
  std::signal(SIGUSR1, [](int) { g_flight_dump_requested = 1; });

  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::seconds(duration_seconds);
  while (!server.shutdown_requested()) {
    if (duration_seconds > 0 && std::chrono::steady_clock::now() >= deadline) break;
    if (g_flight_dump_requested != 0) {
      g_flight_dump_requested = 0;
      std::string dump_error;
      if (obs::WriteFlightJsonFile(flight_dump_path, 0, &dump_error)) {
        out << "flight recorder dumped to " << flight_dump_path << "\n";
      } else {
        err << "flight dump failed: " << dump_error << "\n";
      }
      out.flush();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::signal(SIGUSR1, SIG_DFL);
  server.Shutdown();
  if (!snapshot_path.empty()) {
    // Drain-time snapshot: the graph now includes everything the ingest log
    // replayed plus live ingestion. A successful save supersedes the log, so
    // truncate it — replaying it on top of the snapshot would double-apply
    // (and duplicate time labels abort the boot).
    std::string snapshot_error;
    if (SaveGraphSnapshot(*graph, snapshot_path, &snapshot_error)) {
      out << "wrote snapshot " << snapshot_path << "\n";
      if (!config.ingest_log_path.empty()) {
        std::ofstream truncate_log(config.ingest_log_path, std::ios::trunc);
      }
    } else {
      err << "warning: snapshot save failed: " << snapshot_error << "\n";
    }
  }
  out << "served " << server.requests_served() << " requests; shut down cleanly\n";
  return 0;
}

/// Drains a running server's flight recorder over HTTP — the remote face of
/// `GET /debug/trace` (the local face is SIGUSR1 on the serve process).
int CmdFlightrec(const Options& options, std::ostream& out, std::ostream& err) {
  std::uint64_t port = 0;
  if (!ParseOptionalUint(options, "port", &port, err)) return 1;
  if (port == 0 || port > 65535) {
    err << "usage: graphtempo flightrec --port N [--host IP] [--ms N] [--out path]\n";
    return 1;
  }
  const std::string host = options.Get("host").value_or("127.0.0.1");
  std::uint64_t ms = 0;
  if (!ParseOptionalUint(options, "ms", &ms, err)) return 1;
  std::string path = "/debug/trace";
  if (ms > 0) path += "?ms=" + std::to_string(ms);

  std::string error;
  std::optional<server::HttpResponse> response =
      server::HttpFetch(host, static_cast<int>(port), "GET", path, "", &error);
  if (!response.has_value()) {
    err << "error: " << error << "\n";
    return 1;
  }
  if (response->status != 200) {
    err << "error: server answered " << response->status << ": " << response->body
        << "\n";
    return 1;
  }
  if (std::optional<std::string> out_path = options.Get("out")) {
    std::ofstream file(*out_path);
    if (!file.is_open()) {
      err << "error: cannot open for writing: " << *out_path << "\n";
      return 1;
    }
    file << response->body << "\n";
    out << "wrote flight trace to " << *out_path << "\n";
  } else {
    out << response->body << "\n";
  }
  return 0;
}

/// xorshift64* — a tiny deterministic PRNG so the load mix is reproducible.
std::uint64_t NextRandom(std::uint64_t* state) {
  std::uint64_t x = *state;
  x ^= x >> 12;
  x ^= x << 25;
  x ^= x >> 27;
  *state = x;
  return x * 0x2545F4914F6CDD1DULL;
}

int CmdLoadgen(const Options& options, std::ostream& out, std::ostream& err) {
  std::uint64_t port = 0;
  if (!ParseOptionalUint(options, "port", &port, err)) return 1;
  if (port == 0 || port > 65535) {
    err << "error: --port is required (the serve command prints it)\n";
    return 1;
  }
  const std::string host = options.Get("host").value_or("127.0.0.1");
  std::size_t clients = 4;
  if (std::optional<std::string> raw = options.Get("clients")) {
    std::string error;
    if (!ParseThreadCount(*raw, &clients, &error)) {
      err << "error: --clients " << error << "\n";
      return 1;
    }
  }
  std::uint64_t requests = 200;
  if (!ParseOptionalUint(options, "requests", &requests, err)) return 1;
  if (requests == 0) {
    err << "error: --requests must be a positive integer\n";
    return 1;
  }
  const std::string ingest_raw = options.Get("ingest").value_or("no");
  if (ingest_raw != "yes" && ingest_raw != "no") {
    err << "error: --ingest must be yes or no\n";
    return 1;
  }
  const bool ingest = ingest_raw == "yes";
  const std::string keep_alive_raw = options.Get("keep-alive").value_or("no");
  if (keep_alive_raw != "yes" && keep_alive_raw != "no") {
    err << "error: --keep-alive must be yes or no (bare --keep-alive means yes), got '"
        << keep_alive_raw << "'\n";
    return 1;
  }
  const bool keep_alive = keep_alive_raw == "yes";

  // Discover the served graph's shape so the spec mix stays in-domain.
  std::string error;
  std::optional<server::HttpResponse> stats =
      server::HttpFetch(host, static_cast<int>(port), "GET", "/stats", "", &error);
  if (!stats.has_value() || stats->status != 200) {
    err << "error: cannot reach server at " << host << ":" << port << ": "
        << (stats.has_value() ? "HTTP " + std::to_string(stats->status) : error)
        << "\n";
    return 1;
  }
  std::optional<json::Value> stats_json = json::Parse(stats->body, &error);
  if (!stats_json.has_value()) {
    err << "error: malformed /stats response: " << error << "\n";
    return 1;
  }
  const json::Value* num_times_value = stats_json->Find("num_times");
  std::uint64_t num_times =
      num_times_value != nullptr ? num_times_value->AsUint64().value_or(0) : 0;
  if (num_times == 0) {
    err << "error: served graph has no time points\n";
    return 1;
  }

  std::optional<std::string> attr_names = options.Get("attrs");
  if (!attr_names.has_value()) {
    err << "error: --attrs is required (comma-separated attribute names)\n";
    return 1;
  }
  std::vector<std::string> attrs = Split(*attr_names, ',');

  // The query mix: a handful of spec templates over the *initial* time
  // domain, ranked zipfian (weight 1/rank) — a head of hot repeated specs
  // exercising the cache and a tail of distinct ones. Ingestion (when on)
  // only appends new time points, so every one of these intervals stays
  // disjoint from the mutations and no cached answer is ever invalidated.
  struct Template {
    std::string op;
    std::string t1;
    std::string t2;  // "" = omit
  };
  std::vector<Template> mix;
  std::string last = std::to_string(num_times - 1);
  mix.push_back({"union", "0.." + last, ""});
  mix.push_back({"intersection", "0", last});
  if (num_times >= 2) {
    mix.push_back({"difference", last, std::to_string(num_times - 2)});
    mix.push_back({"union", "0..1", ""});
  }
  for (std::uint64_t t = 0; t < num_times; ++t) {
    mix.push_back({"project", std::to_string(t), ""});
  }
  std::vector<double> cumulative(mix.size());
  double total_weight = 0;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    total_weight += 1.0 / static_cast<double>(i + 1);  // zipf s=1
    cumulative[i] = total_weight;
  }

  auto request_body = [&](const Template& t) {
    json::Value body = json::Value::Object();
    body.Set("op", json::Value::String(t.op));
    body.Set("t1", json::Value::String(t.t1));
    if (!t.t2.empty()) body.Set("t2", json::Value::String(t.t2));
    json::Value attr_list = json::Value::Array();
    for (const std::string& name : attrs) {
      attr_list.Append(json::Value::String(name));
    }
    body.Set("attrs", std::move(attr_list));
    body.Set("top", json::Value::Number(static_cast<std::uint64_t>(8)));
    return body.Serialize();
  };

  // Serial reference answers, one per template: with a static graph (no
  // ingestion) every concurrent/batched answer must be byte-identical to
  // these — `mismatches` in the report counts violations, and the CI batch
  // gate asserts it stays zero.
  std::vector<std::string> reference(mix.size());
  if (!ingest) {
    for (std::size_t i = 0; i < mix.size(); ++i) {
      std::string ref_error;
      std::optional<server::HttpResponse> ref =
          server::HttpFetch(host, static_cast<int>(port), "POST", "/query",
                            request_body(mix[i]), &ref_error);
      if (ref.has_value() && ref->status == 200) reference[i] = ref->body;
    }
  }

  // Closed loop: each client thread fires its share of requests back to
  // back; the optional feeder appends one time point per batch while queries
  // are in flight, exercising the reader/writer protocol end to end. With
  // --keep-alive each client holds one persistent connection (the server
  // honours Connection: keep-alive); otherwise every request reconnects.
  std::atomic<std::uint64_t> sent{0}, ok{0}, rejected{0}, failed{0};
  std::atomic<std::uint64_t> mismatches{0}, connects{0};
  auto started = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  pool.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    std::uint64_t share = requests / clients + (c < requests % clients ? 1 : 0);
    pool.emplace_back([&, c, share] {
      std::uint64_t rng = 0x9E3779B97F4A7C15ULL * (c + 1);
      server::HttpClient client(host, static_cast<int>(port));
      for (std::uint64_t i = 0; i < share; ++i) {
        double pick = static_cast<double>(NextRandom(&rng) >> 11) /
                      static_cast<double>(1ULL << 53) * total_weight;
        std::size_t choice = 0;
        while (choice + 1 < cumulative.size() && cumulative[choice] < pick) ++choice;
        const std::string body = request_body(mix[choice]);
        std::string fetch_error;
        std::optional<server::HttpResponse> response =
            keep_alive ? client.Fetch("POST", "/query", body, &fetch_error)
                       : server::HttpFetch(host, static_cast<int>(port), "POST",
                                           "/query", body, &fetch_error);
        if (!keep_alive) connects.fetch_add(1);
        sent.fetch_add(1);
        if (!response.has_value()) {
          failed.fetch_add(1);
        } else if (response->status == 200) {
          ok.fetch_add(1);
          if (!ingest && !reference[choice].empty() &&
              response->body != reference[choice]) {
            mismatches.fetch_add(1);
          }
        } else if (response->status == 429 || response->status == 503) {
          rejected.fetch_add(1);
        } else {
          failed.fetch_add(1);
        }
      }
      if (keep_alive) connects.fetch_add(client.connects());
    });
  }
  std::thread feeder;
  std::atomic<bool> feeding{ingest};
  if (ingest) {
    feeder = std::thread([&] {
      std::uint64_t appended = 0;
      while (feeding.load()) {
        // Append-only: one new time point plus a few edges at it. Old
        // intervals never mutate, so cached answers stay valid.
        std::string label = "load" + std::to_string(appended++);
        std::string batch = "t " + label + "\n";
        batch += "e lg_a lg_b " + label + "\n";
        batch += "e lg_b lg_c " + label + "\n";
        std::string ingest_error;
        server::HttpFetch(host, static_cast<int>(port), "POST", "/ingest", batch,
                          &ingest_error);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    });
  }
  for (std::thread& client : pool) client.join();
  feeding.store(false);
  if (feeder.joinable()) feeder.join();
  double elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();

  // Fold-sharing burst: pairs of *distinct* cold specs whose operator views
  // fold the presence index over the same interval — `union 0..k` reduces
  // UnionFold(0..k), and `intersection 0..k ∩ 0` computes the same fold for
  // its left side. Fired simultaneously so a server gathering
  // (--batch-window-us > 0) lands each pair in one engine batch, where the
  // second spec reuses the first's fold (engine/batch_fold_hits — the
  // counter the CI batch gate asserts on). The result cache makes every
  // distinct spec miss at most once, so only fresh pairs like these can
  // demonstrate intra-batch fold sharing; with gathering off the burst is a
  // handful of harmless extra queries. k stops short of the full domain:
  // `union 0..last` is the mix's head template and already cached.
  if (num_times >= 3) {
    std::uint64_t burst_pairs = std::min<std::uint64_t>(8, num_times - 2);
    for (std::uint64_t k = 1; k <= burst_pairs; ++k) {
      auto burst_body = [&](const char* op, const std::string& t1,
                            const std::string& t2) {
        json::Value body = json::Value::Object();
        body.Set("op", json::Value::String(op));
        body.Set("t1", json::Value::String(t1));
        if (!t2.empty()) body.Set("t2", json::Value::String(t2));
        json::Value attr_list = json::Value::Array();
        for (const std::string& name : attrs) {
          attr_list.Append(json::Value::String(name));
        }
        body.Set("attrs", std::move(attr_list));
        body.Set("top", json::Value::Number(static_cast<std::uint64_t>(8)));
        return body.Serialize();
      };
      const std::string body_a = burst_body("union", "0.." + std::to_string(k), "");
      const std::string body_b =
          burst_body("intersection", "0.." + std::to_string(k), "0");
      std::atomic<int> armed{0};
      auto fire = [&](const std::string& body) {
        armed.fetch_add(1);
        while (armed.load() < 2) {
        }  // release both sends together so they share a gather window
        std::string burst_error;
        server::HttpFetch(host, static_cast<int>(port), "POST", "/query", body,
                          &burst_error);
      };
      std::thread left([&] { fire(body_a); });
      std::thread right([&] { fire(body_b); });
      left.join();
      right.join();
    }
  }

  // Latency and engine counters come from the server's own obs registry —
  // the histograms the /metrics endpoint snapshots.
  std::optional<server::HttpResponse> metrics =
      server::HttpFetch(host, static_cast<int>(port), "GET", "/metrics", "", &error);
  if (!metrics.has_value() || metrics->status != 200) {
    err << "error: cannot fetch /metrics after the run\n";
    return 1;
  }
  std::optional<json::Value> metrics_json = json::Parse(metrics->body, &error);
  if (!metrics_json.has_value()) {
    err << "error: malformed /metrics response: " << error << "\n";
    return 1;
  }
  auto counter = [&](const char* name) -> std::uint64_t {
    const json::Value* counters = metrics_json->Find("counters");
    if (counters == nullptr) return 0;
    const json::Value* value = counters->Find(name);
    return value != nullptr ? value->AsUint64().value_or(0) : 0;
  };
  auto histogram_quantile = [&](const char* name, const char* quantile) -> double {
    const json::Value* histograms = metrics_json->Find("histograms");
    if (histograms == nullptr) return 0;
    const json::Value* entry = histograms->Find(name);
    if (entry == nullptr) return 0;
    const json::Value* value = entry->Find(quantile);
    return value != nullptr ? value->AsDouble() : 0;
  };
  double p50_ms = histogram_quantile("server/query_latency_us", "p50") / 1000.0;
  double p99_ms = histogram_quantile("server/query_latency_us", "p99") / 1000.0;
  double qps = elapsed_seconds > 0
                   ? static_cast<double>(ok.load()) / elapsed_seconds
                   : 0;

  // The route behind the worst observed latency, from the slow-query ring
  // ("" when the server logged no slow queries during the run).
  std::string p99_route;
  {
    std::string slow_error;
    std::optional<server::HttpResponse> slow = server::HttpFetch(
        host, static_cast<int>(port), "GET", "/debug/slow", "", &slow_error);
    if (slow.has_value() && slow->status == 200) {
      std::optional<json::Value> records = json::Parse(slow->body, &slow_error);
      if (records.has_value() && records->is_array()) {
        std::uint64_t worst_us = 0;
        for (const json::Value& record : records->AsArray()) {
          const json::Value* total = record.Find("total_us");
          const json::Value* route = record.Find("route");
          if (total == nullptr || route == nullptr || !route->is_string()) continue;
          std::uint64_t total_us = total->AsUint64().value_or(0);
          if (total_us >= worst_us) {
            worst_us = total_us;
            p99_route = route->AsString();
          }
        }
      }
    }
  }

  // Wire-tax probe: the same request over fresh connections vs one reused
  // connection. The mean latency delta is the per-request cost of the
  // connect/teardown handshake that --keep-alive removes.
  double wire_tax_us = 0;
  {
    constexpr int kProbes = 16;
    const std::string probe_body = request_body(mix[0]);
    auto mean_us = [&](auto&& fetch_once) -> double {
      double total_us = 0;
      int measured = 0;
      for (int i = 0; i < kProbes; ++i) {
        auto t0 = std::chrono::steady_clock::now();
        std::optional<server::HttpResponse> probe = fetch_once();
        auto t1 = std::chrono::steady_clock::now();
        if (!probe.has_value() || probe->status != 200) continue;
        total_us +=
            std::chrono::duration<double, std::micro>(t1 - t0).count();
        ++measured;
      }
      return measured > 0 ? total_us / measured : 0;
    };
    std::string probe_error;
    double fresh_us = mean_us([&] {
      return server::HttpFetch(host, static_cast<int>(port), "POST", "/query",
                               probe_body, &probe_error);
    });
    server::HttpClient reused(host, static_cast<int>(port));
    double reused_us = mean_us([&] {
      return reused.Fetch("POST", "/query", probe_body, &probe_error);
    });
    if (fresh_us > 0 && reused_us > 0) wire_tax_us = fresh_us - reused_us;
  }

  char line[1280];
  std::snprintf(
      line, sizeof(line),
      "{\"bench\":\"server_loadgen\",\"clients\":%zu,\"requests\":%llu,"
      "\"ok\":%llu,\"rejected\":%llu,\"failed\":%llu,\"elapsed_s\":%.3f,"
      "\"qps\":%.1f,\"latency_p50_ms\":%.3f,\"latency_p99_ms\":%.3f,"
      "\"cache_hits\":%llu,\"cache_misses\":%llu,\"stale_fallbacks\":%llu,"
      "\"cache_invalidations\":%llu,\"ingest_records\":%llu,"
      "\"slow_queries\":%llu,\"p99_route\":\"%s\","
      "\"keep_alive\":%s,\"connects\":%llu,\"wire_tax_us\":%.1f,"
      "\"mismatches\":%llu,\"batch_windows\":%llu,\"batch_merged\":%llu,"
      "\"batch_fold_hits\":%llu,\"batch_fold_misses\":%llu}",
      clients, static_cast<unsigned long long>(sent.load()),
      static_cast<unsigned long long>(ok.load()),
      static_cast<unsigned long long>(rejected.load()),
      static_cast<unsigned long long>(failed.load()), elapsed_seconds, qps, p50_ms,
      p99_ms, static_cast<unsigned long long>(counter("engine/cache_hit")),
      static_cast<unsigned long long>(counter("engine/cache_miss")),
      static_cast<unsigned long long>(counter("engine/stale_fallback")),
      static_cast<unsigned long long>(counter("engine/cache_invalidate")),
      static_cast<unsigned long long>(counter("server/ingest_records")),
      static_cast<unsigned long long>(counter("server/slow_queries")),
      p99_route.c_str(), keep_alive ? "true" : "false",
      static_cast<unsigned long long>(connects.load()), wire_tax_us,
      static_cast<unsigned long long>(mismatches.load()),
      static_cast<unsigned long long>(counter("server/batch_windows")),
      static_cast<unsigned long long>(counter("engine/batch_merged")),
      static_cast<unsigned long long>(counter("engine/batch_fold_hits")),
      static_cast<unsigned long long>(counter("engine/batch_fold_misses")));
  out << line << "\n";
  if (std::optional<std::string> json_path = options.Get("json")) {
    std::ofstream file(*json_path);
    if (!file.is_open()) {
      err << "error: cannot open for writing: " << *json_path << "\n";
      return 1;
    }
    file << line << "\n";
  }
  return failed.load() == 0 ? 0 : 1;
}

// --- metrics ---------------------------------------------------------------------

int CmdBackends(const Options& options, std::ostream& out, std::ostream&) {
  out << "cpu features:";
  for (const std::string& feature : accel::DetectedCpuFeatures()) {
    out << " " << feature;
  }
  out << "\n";
  out << "backends:\n";
  const std::string active = accel::ActiveBackendName();
  for (const accel::BackendInfo& info : accel::ListBackends()) {
    out << "  " << info.name << (std::string(info.name).size() < 6 ? "  " : "")
        << "  compiled=" << (info.compiled ? "yes" : "no")
        << " supported=" << (info.supported ? "yes" : "no")
        << (active == info.name ? "  [active]" : "") << "\n";
  }
  // Why this backend: a --backend flag beats GT_BACKEND beats CPUID auto.
  const char* env = std::getenv("GT_BACKEND");
  out << "active: " << active << " (";
  if (options.Get("backend").has_value()) {
    out << "forced via --backend";
  } else if (env != nullptr && *env != '\0') {
    out << "forced via GT_BACKEND=" << env;
  } else {
    out << "auto CPUID dispatch";
  }
  out << ")\n";
  return 0;
}

int CmdMetrics(const Options& options, std::ostream& out, std::ostream& err) {
  std::string format = options.Get("format").value_or("text");
  obs::MetricsSnapshot snapshot = obs::Registry::Instance().Snapshot();
  if (format == "text") {
    out << snapshot.ToText();
  } else if (format == "json") {
    out << snapshot.ToJson() << "\n";
  } else {
    err << "error: --format must be text or json\n";
    return 1;
  }
  return 0;
}

}  // namespace

int RunCli(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) {
  // Global execution options may precede the command:
  //   graphtempo --threads 8 --perf aggregate ...
  //   graphtempo --trace out.json explore ...
  // (they are also accepted after it, like any other flag). `--perf` and
  // `--trace` may appear bare; the token after them is treated as their value
  // only when it is neither a flag nor a command name.
  Options options;
  std::size_t command_index = 0;
  while (command_index < args.size() &&
         (args[command_index] == "--threads" || args[command_index] == "--perf" ||
          args[command_index] == "--trace" || args[command_index] == "--backend" ||
          args[command_index] == "--planner")) {
    std::string name = args[command_index].substr(2);
    if (options.flags.count(name) != 0) {
      err << "error: flag --" << name << " given more than once\n";
      return 1;
    }
    const char* bare_default = BareFlagDefault(name);
    const bool next_is_value = command_index + 1 < args.size() &&
                               !StartsWith(args[command_index + 1], "--") &&
                               !IsCommandName(args[command_index + 1]);
    if (next_is_value) {
      options.flags[name] = args[command_index + 1];
      command_index += 2;
    } else if (bare_default != nullptr) {
      options.flags[name] = bare_default;
      command_index += 1;
    } else {
      err << "error: flag --" << name << " needs a value\n";
      return 1;
    }
  }
  if (command_index >= args.size() || args[command_index] == "help" ||
      args[command_index] == "--help") {
    out << kUsage;
    return command_index >= args.size() ? 1 : 0;
  }
  if (!ParseOptions(args, command_index + 1, &options, err)) return 1;

  // Global execution options, honored by every command. Thread-count
  // validation is centralized in util/parallel (ParseThreadCount) and shared
  // with the server's worker-pool configuration.
  if (std::optional<std::string> threads_raw = options.Get("threads")) {
    std::size_t threads = 0;
    std::string error;
    if (!ParseThreadCount(*threads_raw, &threads, &error)) {
      err << "error: --threads " << error << "\n";
      return 1;
    }
    SetParallelism(threads);
  }
  // --backend forces the compute backend for the whole command (serve and
  // loadgen included). Unknown/uncompiled/unsupported names are hard errors:
  // silently falling back would make perf numbers lie about what ran.
  if (std::optional<std::string> backend_raw = options.Get("backend")) {
    std::string error;
    if (!accel::SetActiveBackend(*backend_raw, &error)) {
      err << "error: --backend " << error << "\n";
      return 1;
    }
  }
  // --planner is consumed per-command (BuildEngineConfig), but garbage values
  // are rejected up front so `--planner bogus` fails on every command, not
  // only the engine-constructing ones.
  if (std::optional<std::string> planner_raw = options.Get("planner")) {
    engine::PlannerMode mode;
    std::string error;
    if (!engine::ParsePlannerMode(*planner_raw, &mode, &error)) {
      err << "error: --planner " << error << "\n";
      return 1;
    }
  }
  const std::string perf_raw = options.Get("perf").value_or("no");
  if (perf_raw != "yes" && perf_raw != "no") {
    err << "error: --perf must be yes or no (bare --perf means yes), got '"
        << perf_raw << "'\n";
    return 1;
  }
  const bool perf = perf_raw == "yes";
  if (perf) ResetExecCounters();

  // --trace records every instrumented span of the command into a Chrome
  // Trace Event file (one lane per thread, workers included).
  std::optional<std::string> trace_path = options.Get("trace");
  std::optional<obs::TraceSession> trace_session;
  if (trace_path.has_value()) {
    if (trace_path->empty()) {
      err << "error: --trace needs a non-empty path\n";
      return 1;
    }
    trace_session.emplace();
  }

  auto finish = [&](int code) {
    if (trace_session.has_value()) {
      trace_session->Stop();
      std::string error;
      if (!trace_session->WriteJsonFile(*trace_path, &error)) {
        err << "error: " << error << "\n";
        if (code == 0) code = 1;
      } else {
        out << "trace: wrote " << trace_session->event_count() << " spans ("
            << trace_session->dropped() << " dropped) to " << *trace_path << "\n";
      }
    }
    if (perf && code == 0) {
      ExecCounters counters = GetExecCounters();
      char merge_ms[32];
      std::snprintf(merge_ms, sizeof(merge_ms), "%.3f",
                    static_cast<double>(counters.agg_merge_nanos) / 1e6);
      out << "perf: threads=" << GetParallelism()
          << " backend=" << counters.backend
          << " agg_rows=" << counters.agg_rows_scanned
          << " agg_chunks=" << counters.agg_chunks << " agg_merge_ms=" << merge_ms
          << " explore_evals=" << counters.explore_evaluations
          << " kernel_words=" << counters.kernel_words
          << " interval_hits=" << counters.interval_index_hits
          << " interval_misses=" << counters.interval_index_misses
          << " dense_groups=" << counters.agg_dense_groups
          << " hash_groups=" << counters.agg_hash_groups
          << " pool_jobs=" << counters.pool_jobs
          << " pool_chunks=" << counters.pool_chunks << "\n";
    }
    return code;
  };

  const std::string& command = args[command_index];
  if (command == "info") return finish(CmdInfo(options, out, err));
  if (command == "generate") return finish(CmdGenerate(options, out, err));
  if (command == "import") return finish(CmdImport(options, out, err));
  if (command == "operate") return finish(CmdOperate(options, out, err));
  if (command == "aggregate") return finish(CmdAggregate(options, out, err));
  if (command == "evolution") return finish(CmdEvolution(options, out, err));
  if (command == "measure") return finish(CmdMeasure(options, out, err));
  if (command == "coarsen") return finish(CmdCoarsen(options, out, err));
  if (command == "explore") return finish(CmdExplore(options, out, err));
  if (command == "suggest-k") return finish(CmdSuggestK(options, out, err));
  if (command == "stats") return finish(CmdStats(options, out, err));
  if (command == "metrics") return finish(CmdMetrics(options, out, err));
  if (command == "backends") return finish(CmdBackends(options, out, err));
  if (command == "serve") return finish(CmdServe(options, out, err));
  if (command == "loadgen") return finish(CmdLoadgen(options, out, err));
  if (command == "flightrec") return finish(CmdFlightrec(options, out, err));
  if (command == "snapshot") return finish(CmdSnapshot(options, out, err));
  err << "error: unknown command '" << command << "' (try: graphtempo help)\n";
  return 1;
}

}  // namespace graphtempo::cli
