#include "engine/wire.h"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <span>
#include <string_view>
#include <unordered_map>

#include "util/check.h"
#include "util/string_util.h"

namespace graphtempo::engine::wire {

namespace {

// The response writers below append straight into one std::string: no
// json::Value tree, no per-row copies. Their bytes are exactly what the DOM
// renderers in tests/reference_impl.h produce (pinned by wire_test).

std::string FingerprintHex(std::uint64_t fingerprint) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "0x%016" PRIx64, fingerprint);
  return buffer;
}

std::string IntervalLabel(const TemporalGraph& graph, const IntervalSet& interval) {
  if (interval.Empty()) return "{}";
  TimeId first = interval.First();
  TimeId last = interval.Last();
  if (first == last) return graph.time_label(first);
  return graph.time_label(first) + ".." + graph.time_label(last);
}

/// `text` as a JSON string literal.
void AppendQuoted(std::string_view text, std::string* out) {
  out->push_back('"');
  json::EscapeString(text, out);
  out->push_back('"');
}

/// `,"key":` — every member after an object's first.
void AppendKey(std::string_view key, std::string* out) {
  out->append(",\"");
  out->append(key);
  out->append("\":");
}

template <typename Int>
void AppendInt(Int value, std::string* out) {
  char buffer[24];
  const std::to_chars_result result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  out->append(buffer, result.ptr);
}

/// Rows a section writes: all of them when `top` is 0, else the first `top`.
std::size_t RowLimit(std::size_t top, std::size_t rows) {
  return top == 0 ? rows : std::min(top, rows);
}

/// Writes `count` comma-separated rows through `write_row(i)`. Once a sample
/// of rows shows their average size, it reserves the rest of the section in
/// one step: a multi-megabyte answer then costs one allocation instead of a
/// doubling series whose last step briefly holds the body twice.
template <typename WriteRow>
void AppendRows(std::size_t count, std::string* out, WriteRow write_row) {
  constexpr std::size_t kSample = 32;
  const std::size_t start = out->size();
  for (std::size_t i = 0; i < count; ++i) {
    if (i == kSample) {
      const std::size_t per_row = (out->size() - start) / kSample + 1;
      const std::size_t rest = per_row * (count - kSample);
      out->reserve(out->size() + rest + rest / 8 + 64);
    }
    if (i != 0) out->push_back(',');
    write_row(i);
  }
}

/// Renders the tuple literals of one response. Each node code's literal is
/// rendered the first time it appears and copied after that, and within it
/// each (attribute position, value) label is escaped once per response.
class TupleLiterals {
 public:
  TupleLiterals(const TemporalGraph& graph, std::span<const AttrRef> attrs,
                const TupleCodec& codec)
      : graph_(graph),
        attrs_(attrs),
        codec_(codec),
        labels_(attrs.size()) {}

  const std::string& Get(std::uint64_t code) {
    if (code < kDenseCodes && code >= dense_.size()) dense_.resize(code + 1);
    std::string& literal = code < kDenseCodes ? dense_[code] : sparse_[code];
    if (!literal.empty()) return literal;
    const AttrTuple tuple = codec_.Decode(code);
    GT_DCHECK(tuple.size() <= attrs_.size());
    literal.push_back('[');
    for (std::size_t i = 0; i < tuple.size(); ++i) {
      if (i != 0) literal.push_back(',');
      literal.append(tuple[i] == kNoValue ? std::string_view("null")
                                          : std::string_view(Label(i, tuple[i])));
    }
    literal.push_back(']');
    return literal;
  }

 private:
  /// Codes below this index a flat table; the rest a hash map.
  static constexpr std::uint64_t kDenseCodes = 4096;

  const std::string& Label(std::size_t position, AttrValueId code) {
    std::vector<std::string>& cache = labels_[position];
    if (code >= cache.size()) cache.resize(static_cast<std::size_t>(code) + 1);
    std::string& label = cache[code];
    // Never empty once filled: a quoted literal carries its quotes.
    if (label.empty()) AppendQuoted(graph_.ValueName(attrs_[position], code), &label);
    return label;
  }

  const TemporalGraph& graph_;
  std::span<const AttrRef> attrs_;
  const TupleCodec& codec_;
  std::vector<std::vector<std::string>> labels_;  ///< [position][value]
  std::vector<std::string> dense_;                ///< [code], code < kDenseCodes
  std::unordered_map<std::uint64_t, std::string> sparse_;
};

void AppendWeights(Weight weight, std::string* out) {
  out->append(",\"weight\":");
  AppendInt(weight, out);
}

void AppendWeights(const EvolutionWeights& weights, std::string* out) {
  out->append(",\"stability\":");
  AppendInt(weights.stability, out);
  out->append(",\"growth\":");
  AppendInt(weights.growth, out);
  out->append(",\"shrinkage\":");
  AppendInt(weights.shrinkage, out);
}

/// `"fingerprint":…,"route":…` — members every response carries first
/// (after `"kind"`, for the kinds that have one).
void AppendHeader(const QueryPlan& plan, std::string* out) {
  out->append("\"fingerprint\":");
  AppendQuoted(FingerprintHex(plan.fingerprint), out);
  AppendKey("route", out);
  AppendQuoted(PlanRouteName(plan.route), out);
}

/// `,"node_count":…,"edge_count":…,"nodes":[…],"edges":[…]}` for an
/// aggregate or evolution answer in the order of `rows`; `top` caps each
/// list to a prefix.
template <typename W>
void AppendGraphBody(const TemporalGraph& graph, const QuerySpec& spec,
                     const CodedGraph<W>& answer, const RankedRows& rows, std::size_t top,
                     std::string* out) {
  AppendKey("node_count", out);
  AppendInt(static_cast<std::uint64_t>(rows.nodes.size()), out);
  AppendKey("edge_count", out);
  AppendInt(static_cast<std::uint64_t>(rows.edges.size()), out);
  TupleLiterals literals(graph, spec.attrs, answer.codec());
  const std::span<const GroupRow<W>> nodes = answer.nodes();
  AppendKey("nodes", out);
  out->push_back('[');
  AppendRows(RowLimit(top, rows.nodes.size()), out, [&](std::size_t i) {
    const GroupRow<W>& row = nodes[rows.nodes[i]];
    out->append("{\"tuple\":");
    out->append(literals.Get(row.code));
    AppendWeights(row.weight, out);
    out->push_back('}');
  });
  out->push_back(']');
  const std::uint64_t cells = answer.codec().cells();
  const std::span<const GroupRow<W>> edges = answer.edges();
  AppendKey("edges", out);
  out->push_back('[');
  AppendRows(RowLimit(top, rows.edges.size()), out, [&](std::size_t i) {
    const GroupRow<W>& row = edges[rows.edges[i]];
    out->append("{\"src\":");
    out->append(literals.Get(row.code / cells));
    out->append(",\"dst\":");
    out->append(literals.Get(row.code % cells));
    AppendWeights(row.weight, out);
    out->push_back('}');
  });
  out->append("]}");
}

std::string WriteAggregate(const TemporalGraph& graph, const QuerySpec& spec,
                           const QueryPlan& plan, const AggregateGraph& answer,
                           const RankedRows& rows, std::size_t top) {
  std::string out = "{";
  AppendHeader(plan, &out);
  AppendKey("interval", &out);
  AppendQuoted(IntervalLabel(graph, spec.EvaluationInterval()), &out);
  AppendKey("semantics", &out);
  AppendQuoted(spec.semantics == AggregationSemantics::kDistinct ? "DIST" : "ALL", &out);
  AppendGraphBody(graph, spec, answer, rows, top, &out);
  return out;
}

std::string WriteEvolution(const TemporalGraph& graph, const QuerySpec& spec,
                           const QueryPlan& plan, const EvolutionAggregate& answer,
                           const RankedRows& rows, std::size_t top) {
  std::string out = "{\"kind\":\"evolution\",";
  AppendHeader(plan, &out);
  AppendKey("old", &out);
  AppendQuoted(IntervalLabel(graph, spec.t1), &out);
  AppendKey("new", &out);
  AppendQuoted(IntervalLabel(graph, spec.t2), &out);
  AppendGraphBody(graph, spec, answer, rows, top, &out);
  return out;
}

/// Shared `"attrs"` parsing: an array of known attribute names, at most
/// kMaxAttrs. `required` distinguishes aggregate/evolution (≥1 name) from
/// explore (raw-entity counting when omitted).
bool ParseAttrsField(const TemporalGraph& graph, const json::Value& request,
                     bool required, std::vector<AttrRef>* attrs, std::string* error) {
  const json::Value* field = request.Find("attrs");
  if (field == nullptr || !field->is_array() || field->AsArray().empty()) {
    if (!required && (field == nullptr ||
                      (field->is_array() && field->AsArray().empty()))) {
      return true;
    }
    *error = "'attrs' is required (a non-empty array of attribute names)";
    return false;
  }
  for (const json::Value& name : field->AsArray()) {
    if (!name.is_string()) {
      *error = "'attrs' entries must be strings";
      return false;
    }
    std::optional<AttrRef> ref = graph.FindAttribute(name.AsString());
    if (!ref.has_value()) {
      *error = "unknown attribute '" + name.AsString() + "'";
      return false;
    }
    if (attrs->size() >= AttrTuple::kMaxAttrs) {
      *error = "too many attributes (max " + std::to_string(AttrTuple::kMaxAttrs) + ")";
      return false;
    }
    attrs->push_back(*ref);
  }
  return true;
}

/// Shared `"explain"` / `"top"` parsing.
bool ParseRequestOptions(const json::Value& request, RequestOptions* options,
                         std::string* error) {
  if (options == nullptr) return true;
  *options = RequestOptions{};
  if (const json::Value* value = request.Find("explain")) {
    if (!value->is_bool()) {
      *error = "'explain' must be a bool";
      return false;
    }
    options->explain = value->AsBool();
  }
  if (const json::Value* value = request.Find("top")) {
    std::optional<std::uint64_t> top = value->AsUint64();
    if (!top.has_value()) {
      *error = "'top' must be a non-negative integer";
      return false;
    }
    options->top = static_cast<std::size_t>(*top);
  }
  return true;
}

/// Required-interval field helper: missing/ill-typed fields are hard errors.
std::optional<IntervalSet> ParseIntervalField(const TemporalGraph& graph,
                                              const json::Value& request,
                                              const char* name, std::string* error) {
  const json::Value* field = request.Find(name);
  if (field == nullptr || !field->is_string()) {
    *error = std::string("'") + name +
             "' is required (a time point or \"a..b\" range string)";
    return std::nullopt;
  }
  return ParseInterval(graph, field->AsString(), error);
}

std::optional<QuerySpec> BindEvolutionSpec(const TemporalGraph& graph,
                                           const json::Value& request,
                                           RequestOptions* options,
                                           std::string* error) {
  QuerySpec spec;
  spec.kind = QueryKind::kEvolution;
  std::optional<IntervalSet> t1 = ParseIntervalField(graph, request, "t1", error);
  if (!t1.has_value()) return std::nullopt;
  spec.t1 = *t1;
  std::optional<IntervalSet> t2 = ParseIntervalField(graph, request, "t2", error);
  if (!t2.has_value()) return std::nullopt;
  spec.t2 = *t2;
  if (!ParseAttrsField(graph, request, /*required=*/true, &spec.attrs, error)) {
    return std::nullopt;
  }
  if (!ParseRequestOptions(request, options, error)) return std::nullopt;
  return spec;
}

std::optional<QuerySpec> BindExploreSpec(const TemporalGraph& graph,
                                         const json::Value& request,
                                         RequestOptions* options, std::string* error) {
  QuerySpec spec;
  spec.kind = QueryKind::kExplore;
  // The exploration sweep reads every time point; bind t1 to the full domain
  // so DependencyInterval covers exactly what the answer depends on.
  spec.t1 = IntervalSet::All(graph.num_times());

  const json::Value* event = request.Find("event");
  if (event == nullptr || !event->is_string()) {
    *error = "'event' is required (stability|growth|shrinkage)";
    return std::nullopt;
  }
  const std::string event_name = event->AsString();
  if (event_name == "stability") {
    spec.explore.event = EventType::kStability;
  } else if (event_name == "growth") {
    spec.explore.event = EventType::kGrowth;
  } else if (event_name == "shrinkage") {
    spec.explore.event = EventType::kShrinkage;
  } else {
    *error = "unknown event '" + event_name + "' (stability|growth|shrinkage)";
    return std::nullopt;
  }

  std::string extension = "union";
  if (const json::Value* value = request.Find("extension")) {
    if (!value->is_string()) {
      *error = "'extension' must be a string";
      return std::nullopt;
    }
    extension = value->AsString();
  }
  if (extension == "union") {
    spec.explore.semantics = ExtensionSemantics::kUnion;
  } else if (extension == "intersection") {
    spec.explore.semantics = ExtensionSemantics::kIntersection;
  } else {
    *error = "'extension' must be union or intersection, got '" + extension + "'";
    return std::nullopt;
  }

  std::string reference = "new";
  if (const json::Value* value = request.Find("reference")) {
    if (!value->is_string()) {
      *error = "'reference' must be a string";
      return std::nullopt;
    }
    reference = value->AsString();
  }
  if (reference == "old") {
    spec.explore.reference = ReferenceEnd::kOld;
  } else if (reference == "new") {
    spec.explore.reference = ReferenceEnd::kNew;
  } else {
    *error = "'reference' must be old or new, got '" + reference + "'";
    return std::nullopt;
  }

  std::string select = "edges";
  if (const json::Value* value = request.Find("select")) {
    if (!value->is_string()) {
      *error = "'select' must be a string";
      return std::nullopt;
    }
    select = value->AsString();
  }
  if (select == "nodes") {
    spec.explore.selector.kind = EntitySelector::Kind::kNodes;
  } else if (select == "edges") {
    spec.explore.selector.kind = EntitySelector::Kind::kEdges;
  } else {
    *error = "'select' must be nodes or edges, got '" + select + "'";
    return std::nullopt;
  }

  if (const json::Value* value = request.Find("k")) {
    std::optional<std::uint64_t> k = value->AsUint64();
    if (!k.has_value()) {
      *error = "'k' must be a non-negative integer";
      return std::nullopt;
    }
    spec.explore.k = static_cast<Weight>(*k);
  }

  if (!ParseAttrsField(graph, request, /*required=*/false,
                       &spec.explore.selector.attrs, error)) {
    return std::nullopt;
  }
  spec.attrs = spec.explore.selector.attrs;  // mirrored for uniform rendering
  if (!ParseRequestOptions(request, options, error)) return std::nullopt;
  return spec;
}

}  // namespace

std::optional<TimeId> ParseTimePoint(const TemporalGraph& graph, const std::string& text,
                                     std::string* error) {
  if (std::optional<TimeId> t = graph.FindTime(text)) return t;
  std::uint64_t index = 0;
  if (ParseUint64(text, &index) && index < graph.num_times()) {
    return static_cast<TimeId>(index);
  }
  if (error != nullptr) *error = "unknown time point '" + text + "'";
  return std::nullopt;
}

std::optional<IntervalSet> ParseInterval(const TemporalGraph& graph,
                                         const std::string& text, std::string* error) {
  std::size_t dots = text.find("..");
  if (dots == std::string::npos) {
    std::optional<TimeId> t = ParseTimePoint(graph, text, error);
    if (!t.has_value()) return std::nullopt;
    return IntervalSet::Point(graph.num_times(), *t);
  }
  // Short-circuit on the first bad endpoint: one malformed range must produce
  // exactly one diagnostic, not one per endpoint.
  std::optional<TimeId> first = ParseTimePoint(graph, text.substr(0, dots), error);
  if (!first.has_value()) return std::nullopt;
  std::optional<TimeId> last = ParseTimePoint(graph, text.substr(dots + 2), error);
  if (!last.has_value()) return std::nullopt;
  if (*first > *last) {
    if (error != nullptr) *error = "inverted range '" + text + "'";
    return std::nullopt;
  }
  return IntervalSet::Range(graph.num_times(), *first, *last);
}

std::optional<QuerySpec> BindQuerySpec(const TemporalGraph& graph,
                                       const json::Value& request,
                                       RequestOptions* options, std::string* error) {
  if (!request.is_object()) {
    *error = "request must be a JSON object";
    return std::nullopt;
  }

  QuerySpec spec;

  std::string kind = "aggregate";
  if (const json::Value* value = request.Find("kind")) {
    if (!value->is_string()) {
      *error = "'kind' must be a string";
      return std::nullopt;
    }
    kind = value->AsString();
  }
  if (kind == "evolution") {
    return BindEvolutionSpec(graph, request, options, error);
  }
  if (kind == "explore") {
    return BindExploreSpec(graph, request, options, error);
  }
  if (kind != "aggregate") {
    *error = "unknown kind '" + kind + "' (aggregate|evolution|explore)";
    return std::nullopt;
  }

  std::string op = "union";
  if (const json::Value* value = request.Find("op")) {
    if (!value->is_string()) {
      *error = "'op' must be a string";
      return std::nullopt;
    }
    op = value->AsString();
  }
  if (op == "project") {
    spec.op = TemporalOperatorKind::kProject;
  } else if (op == "union") {
    spec.op = TemporalOperatorKind::kUnion;
  } else if (op == "intersection") {
    spec.op = TemporalOperatorKind::kIntersection;
  } else if (op == "difference") {
    spec.op = TemporalOperatorKind::kDifference;
  } else {
    *error = "unknown op '" + op + "' (union|intersection|difference|project)";
    return std::nullopt;
  }

  std::optional<IntervalSet> t1_parsed = ParseIntervalField(graph, request, "t1", error);
  if (!t1_parsed.has_value()) return std::nullopt;
  spec.t1 = *t1_parsed;

  if (spec.op != TemporalOperatorKind::kProject) {
    if (const json::Value* t2 = request.Find("t2")) {
      if (!t2->is_string()) {
        *error = "'t2' must be a string";
        return std::nullopt;
      }
      std::optional<IntervalSet> t2_parsed = ParseInterval(graph, t2->AsString(), error);
      if (!t2_parsed.has_value()) return std::nullopt;
      spec.t2 = *t2_parsed;
    } else {
      spec.t2 = *t1_parsed;  // like the CLI: --t2 falls back to --t1
    }
  }

  if (!ParseAttrsField(graph, request, /*required=*/true, &spec.attrs, error)) {
    return std::nullopt;
  }

  std::string semantics = "dist";
  if (const json::Value* value = request.Find("semantics")) {
    if (!value->is_string()) {
      *error = "'semantics' must be a string";
      return std::nullopt;
    }
    semantics = value->AsString();
  }
  if (semantics == "dist") {
    spec.semantics = AggregationSemantics::kDistinct;
  } else if (semantics == "all") {
    spec.semantics = AggregationSemantics::kAll;
  } else {
    *error = "'semantics' must be dist or all, got '" + semantics + "'";
    return std::nullopt;
  }

  std::string grouping = "auto";
  if (const json::Value* value = request.Find("grouping")) {
    if (!value->is_string()) {
      *error = "'grouping' must be a string";
      return std::nullopt;
    }
    grouping = value->AsString();
  }
  if (grouping == "auto") {
    spec.grouping = GroupingStrategy::kAuto;
  } else if (grouping == "dense") {
    spec.grouping = GroupingStrategy::kDense;
  } else if (grouping == "hash") {
    spec.grouping = GroupingStrategy::kHash;
  } else {
    *error = "'grouping' must be auto, dense or hash, got '" + grouping + "'";
    return std::nullopt;
  }

  if (const json::Value* value = request.Find("symmetrize")) {
    if (!value->is_bool()) {
      *error = "'symmetrize' must be a bool";
      return std::nullopt;
    }
    spec.symmetrize = value->AsBool();
  }

  if (!ParseRequestOptions(request, options, error)) return std::nullopt;
  return spec;
}

std::string ResultToJson(const TemporalGraph& graph, const QuerySpec& spec,
                         const QueryPlan& plan, const AggregateGraph& result,
                         std::size_t top) {
  return WriteAggregate(graph, spec, plan, result, RankRows(result), top);
}

std::string EvolutionToJson(const TemporalGraph& graph, const QuerySpec& spec,
                            const QueryPlan& plan, const EvolutionAggregate& result,
                            std::size_t top) {
  return WriteEvolution(graph, spec, plan, result, RankRows(result), top);
}

std::string ExplorationToJson(const TemporalGraph& graph, const QuerySpec& spec,
                              const QueryPlan& plan, const ExplorationResult& result,
                              std::size_t top) {
  std::string out = "{\"kind\":\"explore\",";
  AppendHeader(plan, &out);
  AppendKey("event", &out);
  AppendQuoted(EventTypeName(spec.explore.event), &out);
  AppendKey("extension", &out);
  AppendQuoted(spec.explore.semantics == ExtensionSemantics::kUnion ? "union"
                                                                     : "intersection",
               &out);
  AppendKey("reference", &out);
  AppendQuoted(spec.explore.reference == ReferenceEnd::kOld ? "old" : "new", &out);
  AppendKey("k", &out);
  AppendInt(static_cast<std::uint64_t>(spec.explore.k), &out);
  AppendKey("pair_count", &out);
  AppendInt(static_cast<std::uint64_t>(result.pairs.size()), &out);
  AppendKey("evaluations", &out);
  AppendInt(static_cast<std::uint64_t>(result.evaluations), &out);

  auto range_label = [&](TimeRange range) {
    if (range.first == range.last) return graph.time_label(range.first);
    return graph.time_label(range.first) + ".." + graph.time_label(range.last);
  };
  AppendKey("pairs", &out);
  out.push_back('[');
  AppendRows(RowLimit(top, result.pairs.size()), &out, [&](std::size_t i) {
    const IntervalPair& pair = result.pairs[i];
    out.append("{\"old\":");
    AppendQuoted(range_label(pair.old_range), &out);
    out.append(",\"new\":");
    AppendQuoted(range_label(pair.new_range), &out);
    out.append(",\"count\":");
    AppendInt(pair.count, &out);
    out.push_back('}');
  });
  out.append("]}");
  return out;
}

std::string QueryResultToJson(const TemporalGraph& graph, const QuerySpec& spec,
                              const QueryPlan& plan, const QueryResult& result,
                              std::size_t top) {
  switch (result.kind()) {
    case QueryKind::kAggregate:
      return WriteAggregate(graph, spec, plan, result.aggregate(), result.ranking(), top);
    case QueryKind::kEvolution:
      return WriteEvolution(graph, spec, plan, result.evolution(), result.ranking(), top);
    case QueryKind::kExplore:
      return ExplorationToJson(graph, spec, plan, result.exploration(), top);
  }
  return "{}";
}

std::string PlanToJson(const QueryPlan& plan) {
  std::string out = "{";
  AppendHeader(plan, &out);
  AppendKey("cacheable", &out);
  out.append(plan.cacheable ? "true" : "false");
  AppendKey("stale_fallback", &out);
  out.append(plan.stale_fallback ? "true" : "false");
  AppendKey("planner", &out);
  AppendQuoted(PlannerModeName(plan.planner), &out);
  AppendKey("cost_direct_us", &out);
  json::AppendNumber(plan.cost.direct_us, &out);
  AppendKey("cost_materialized_us", &out);
  if (plan.cost.materialized_us >= 0.0) {
    json::AppendNumber(plan.cost.materialized_us, &out);
  } else {
    out.append("null");
  }
  AppendKey("steps", &out);
  out.push_back('[');
  AppendRows(plan.steps.size(), &out, [&](std::size_t i) {
    out.append("{\"kind\":");
    AppendQuoted(plan.steps[i].kind, &out);
    out.append(",\"detail\":");
    AppendQuoted(plan.steps[i].detail, &out);
    out.push_back('}');
  });
  out.push_back(']');
  AppendKey("explain", &out);
  AppendQuoted(plan.Explain(), &out);
  out.push_back('}');
  return out;
}

}  // namespace graphtempo::engine::wire
