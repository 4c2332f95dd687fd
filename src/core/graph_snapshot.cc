#include "core/graph_snapshot.h"

#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/grouping_internal.h"

#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/compressed_bitset.h"
#include "storage/snapshot.h"
#include "util/check.h"

namespace graphtempo {

namespace {

using storage::ByteReader;
using storage::ByteWriter;
using storage::CompressedBitset;
using storage::SectionTag;
using storage::SnapshotSection;

constexpr std::uint32_t kTagTime = SectionTag("TIME");
constexpr std::uint32_t kTagNode = SectionTag("NODE");
constexpr std::uint32_t kTagEdge = SectionTag("EDGE");
constexpr std::uint32_t kTagNodePresence = SectionTag("NPRS");
constexpr std::uint32_t kTagEdgePresence = SectionTag("EPRS");
constexpr std::uint32_t kTagNodeStaticAttrs = SectionTag("NSAT");
constexpr std::uint32_t kTagNodeVaryingAttrs = SectionTag("NVAT");
constexpr std::uint32_t kTagEdgeStaticAttrs = SectionTag("ESAT");
constexpr std::uint32_t kTagEdgeVaryingAttrs = SectionTag("EVAT");

obs::Counter& SnapshotSaveCounter() {
  static obs::Counter& counter =
      obs::Registry::Instance().GetCounter("storage/snapshot_save");
  return counter;
}

obs::Counter& SnapshotBytesCounter() {
  static obs::Counter& counter =
      obs::Registry::Instance().GetCounter("storage/snapshot_bytes");
  return counter;
}

obs::Counter& SnapshotLoadCounter() {
  static obs::Counter& counter =
      obs::Registry::Instance().GetCounter("storage/snapshot_load");
  return counter;
}

obs::Counter& SnapshotLoadErrorCounter() {
  static obs::Counter& counter =
      obs::Registry::Instance().GetCounter("storage/snapshot_load_errors");
  return counter;
}

void EncodeDictionary(const Dictionary& dict, ByteWriter* out) {
  out->U32(static_cast<std::uint32_t>(dict.size()));
  for (const std::string& value : dict.values()) out->Str(value);
}

bool DecodeDictionaryValues(ByteReader* in, std::vector<std::string>* values) {
  std::uint32_t count = 0;
  if (!in->U32(&count)) return false;
  values->clear();
  values->reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string value;
    if (!in->Str(&value)) return false;
    values->push_back(std::move(value));
  }
  return true;
}

void EncodeCodes(const std::vector<AttrValueId>& codes, ByteWriter* out) {
  out->U64(codes.size());
  for (AttrValueId code : codes) out->U32(code);
}

bool DecodeCodes(ByteReader* in, std::vector<AttrValueId>* codes) {
  std::uint64_t count = 0;
  if (!in->U64(&count)) return false;
  if (count > in->remaining() / sizeof(AttrValueId)) return false;
  codes->clear();
  codes->reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    AttrValueId code = 0;
    if (!in->U32(&code)) return false;
    codes->push_back(code);
  }
  return true;
}

/// One static-column table (node or edge): u32 column count, then per column
/// name + dictionary + raw codes.
std::string EncodeStaticColumns(const std::vector<StaticColumn>& columns) {
  ByteWriter out;
  out.U32(static_cast<std::uint32_t>(columns.size()));
  for (const StaticColumn& column : columns) {
    out.Str(column.name());
    EncodeDictionary(column.dictionary(), &out);
    EncodeCodes(column.codes(), &out);
  }
  return out.Take();
}

bool DecodeStaticColumns(std::string_view bytes, std::size_t entities,
                         std::vector<StaticColumn>* columns) {
  ByteReader in(bytes);
  std::uint32_t count = 0;
  if (!in.U32(&count)) return false;
  columns->clear();
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string name;
    std::vector<std::string> dict_values;
    std::vector<AttrValueId> codes;
    if (!in.Str(&name) || !DecodeDictionaryValues(&in, &dict_values) ||
        !DecodeCodes(&in, &codes)) {
      return false;
    }
    if (codes.size() != entities) return false;
    StaticColumn column(std::move(name));
    if (!column.Restore(std::move(dict_values), std::move(codes))) return false;
    columns->push_back(std::move(column));
  }
  return in.AtEnd();
}

std::string EncodeVaryingColumns(const std::vector<TimeVaryingColumn>& columns) {
  ByteWriter out;
  out.U32(static_cast<std::uint32_t>(columns.size()));
  for (const TimeVaryingColumn& column : columns) {
    out.Str(column.name());
    out.U32(static_cast<std::uint32_t>(column.num_times()));
    EncodeDictionary(column.dictionary(), &out);
    // The bytes stay entity-major (entity · num_times + t), as the format
    // has always stored them; the column is time-major, so transpose.
    std::vector<const AttrValueId*> by_time;
    for (std::size_t t = 0; t < column.num_times(); ++t) {
      by_time.push_back(column.CodesAt(t).data());
    }
    out.U64(column.size() * by_time.size());
    for (std::size_t entity = 0; entity < column.size(); ++entity) {
      for (const AttrValueId* codes : by_time) out.U32(codes[entity]);
    }
  }
  return out.Take();
}

bool DecodeVaryingColumns(std::string_view bytes, std::size_t entities,
                          std::size_t num_times,
                          std::vector<TimeVaryingColumn>* columns) {
  ByteReader in(bytes);
  std::uint32_t count = 0;
  if (!in.U32(&count)) return false;
  columns->clear();
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string name;
    std::uint32_t column_times = 0;
    std::vector<std::string> dict_values;
    std::vector<AttrValueId> codes;
    if (!in.Str(&name) || !in.U32(&column_times) ||
        !DecodeDictionaryValues(&in, &dict_values) || !DecodeCodes(&in, &codes)) {
      return false;
    }
    if (column_times != num_times || codes.size() != entities * num_times) {
      return false;
    }
    std::vector<std::vector<AttrValueId>> by_time(num_times,
                                                  std::vector<AttrValueId>(entities));
    for (std::size_t entity = 0; entity < entities; ++entity) {
      for (std::size_t t = 0; t < num_times; ++t) {
        by_time[t][entity] = codes[entity * num_times + t];
      }
    }
    TimeVaryingColumn column(std::move(name), num_times);
    if (!column.Restore(std::move(dict_values), entities, std::move(by_time))) return false;
    columns->push_back(std::move(column));
  }
  return in.AtEnd();
}

/// One presence index: u32 num_times, u64 entities, then per time point one
/// compressed column.
std::string EncodePresence(const PresenceIndex& index) {
  ByteWriter out;
  out.U32(static_cast<std::uint32_t>(index.num_times()));
  out.U64(index.num_entities());
  for (std::size_t t = 0; t < index.num_times(); ++t) {
    CompressedBitset::Compress(index.Column(t)).EncodeTo(&out);
  }
  return out.Take();
}

bool DecodePresence(std::string_view bytes, std::size_t num_times,
                    std::size_t* entities, std::vector<CompressedBitset>* columns) {
  ByteReader in(bytes);
  std::uint32_t column_count = 0;
  std::uint64_t entity_count = 0;
  if (!in.U32(&column_count) || !in.U64(&entity_count)) return false;
  if (column_count != num_times) return false;
  columns->clear();
  columns->reserve(column_count);
  for (std::uint32_t t = 0; t < column_count; ++t) {
    CompressedBitset column;
    if (!CompressedBitset::DecodeFrom(&in, &column)) return false;
    if (column.size_bits() != entity_count) return false;
    columns->push_back(std::move(column));
  }
  if (!in.AtEnd()) return false;
  *entities = static_cast<std::size_t>(entity_count);
  return true;
}

void EncodeTuple(const AttrTuple& tuple, ByteWriter* out) {
  out->U8(static_cast<std::uint8_t>(tuple.size()));
  for (std::size_t i = 0; i < tuple.size(); ++i) out->U32(tuple[i]);
}

bool DecodeTuple(ByteReader* in, AttrTuple* tuple) {
  std::uint8_t size = 0;
  if (!in->U8(&size)) return false;
  if (size > AttrTuple::kMaxAttrs) return false;
  *tuple = AttrTuple();
  for (std::uint8_t i = 0; i < size; ++i) {
    AttrValueId code = 0;
    if (!in->U32(&code)) return false;
    tuple->Append(code);
  }
  return true;
}

}  // namespace

/// Befriended by TemporalGraph: the only code that reads/writes its private
/// representation wholesale.
struct GraphSnapshotAccess {
  static std::vector<SnapshotSection> Serialize(const TemporalGraph& g) {
    std::vector<SnapshotSection> sections;

    ByteWriter time;
    time.U64(g.mutation_generation_);
    time.U32(static_cast<std::uint32_t>(g.time_labels_.size()));
    for (std::size_t t = 0; t < g.time_labels_.size(); ++t) {
      time.Str(g.time_labels_[t]);
      time.U64(g.time_mutation_generations_[t]);
    }
    sections.push_back({kTagTime, time.Take()});

    ByteWriter nodes;
    nodes.U32(static_cast<std::uint32_t>(g.node_labels_.size()));
    for (const std::string& label : g.node_labels_) nodes.Str(label);
    sections.push_back({kTagNode, nodes.Take()});

    ByteWriter edges;
    edges.U32(static_cast<std::uint32_t>(g.edge_endpoints_.size()));
    for (const auto& [src, dst] : g.edge_endpoints_) {
      edges.U32(src);
      edges.U32(dst);
    }
    sections.push_back({kTagEdge, edges.Take()});

    sections.push_back({kTagNodePresence, EncodePresence(g.node_index_cols_)});
    sections.push_back({kTagEdgePresence, EncodePresence(g.edge_index_cols_)});
    sections.push_back({kTagNodeStaticAttrs, EncodeStaticColumns(g.static_attrs_)});
    sections.push_back({kTagNodeVaryingAttrs, EncodeVaryingColumns(g.varying_attrs_)});
    sections.push_back({kTagEdgeStaticAttrs, EncodeStaticColumns(g.static_edge_attrs_)});
    sections.push_back({kTagEdgeVaryingAttrs, EncodeVaryingColumns(g.varying_edge_attrs_)});
    return sections;
  }

  static std::optional<TemporalGraph> Deserialize(
      const std::vector<SnapshotSection>& sections, const std::string& path,
      std::string* error) {
    auto fail = [&](const std::string& what) -> std::optional<TemporalGraph> {
      *error = path + ": " + what;
      return std::nullopt;
    };
    auto find = [&](std::uint32_t tag) -> const SnapshotSection* {
      for (const SnapshotSection& section : sections) {
        if (section.tag == tag) return &section;
      }
      return nullptr;
    };
    const SnapshotSection* required[] = {
        find(kTagTime),           find(kTagNode),
        find(kTagEdge),           find(kTagNodePresence),
        find(kTagEdgePresence),   find(kTagNodeStaticAttrs),
        find(kTagNodeVaryingAttrs), find(kTagEdgeStaticAttrs),
        find(kTagEdgeVaryingAttrs)};
    for (const SnapshotSection* section : required) {
      if (section == nullptr) return fail("missing snapshot section");
    }

    // TIME — the time domain plus the cache-validity generations.
    ByteReader time(required[0]->payload);
    std::uint64_t mutation_generation = 0;
    std::uint32_t num_times = 0;
    if (!time.U64(&mutation_generation) || !time.U32(&num_times)) {
      return fail("corrupt TIME section");
    }
    if (num_times == 0) return fail("snapshot has an empty time domain");
    std::vector<std::string> time_labels;
    std::vector<std::uint64_t> time_generations;
    time_labels.reserve(num_times);
    time_generations.reserve(num_times);
    for (std::uint32_t t = 0; t < num_times; ++t) {
      std::string label;
      std::uint64_t generation = 0;
      if (!time.Str(&label) || !time.U64(&generation)) {
        return fail("corrupt TIME section");
      }
      time_labels.push_back(std::move(label));
      time_generations.push_back(generation);
    }
    if (!time.AtEnd()) return fail("corrupt TIME section");
    for (std::size_t t = 0; t < time_labels.size(); ++t) {
      for (std::size_t u = t + 1; u < time_labels.size(); ++u) {
        if (time_labels[t] == time_labels[u]) return fail("duplicate time label");
      }
    }

    // NODE / EDGE — labels, endpoints, and the derived lookup maps.
    ByteReader nodes(required[1]->payload);
    std::uint32_t num_nodes = 0;
    if (!nodes.U32(&num_nodes)) return fail("corrupt NODE section");
    std::vector<std::string> node_labels;
    std::unordered_map<std::string, NodeId> node_index;
    node_labels.reserve(num_nodes);
    node_index.reserve(num_nodes);
    for (std::uint32_t n = 0; n < num_nodes; ++n) {
      std::string label;
      if (!nodes.Str(&label)) return fail("corrupt NODE section");
      node_labels.push_back(std::move(label));
      if (!node_index.emplace(node_labels.back(), n).second) {
        return fail("duplicate node label");
      }
    }
    if (!nodes.AtEnd()) return fail("corrupt NODE section");

    ByteReader edges(required[2]->payload);
    std::uint32_t num_edges = 0;
    if (!edges.U32(&num_edges)) return fail("corrupt EDGE section");
    std::vector<std::pair<NodeId, NodeId>> edge_endpoints;
    std::unordered_map<std::uint64_t, EdgeId> edge_index;
    edge_endpoints.reserve(num_edges);
    edge_index.reserve(num_edges);
    for (std::uint32_t e = 0; e < num_edges; ++e) {
      std::uint32_t src = 0, dst = 0;
      if (!edges.U32(&src) || !edges.U32(&dst)) return fail("corrupt EDGE section");
      if (src >= num_nodes || dst >= num_nodes) {
        return fail("edge endpoint out of range");
      }
      edge_endpoints.emplace_back(src, dst);
      if (!edge_index.emplace(TemporalGraph::EdgeKey(src, dst), e).second) {
        return fail("duplicate edge");
      }
    }
    if (!edges.AtEnd()) return fail("corrupt EDGE section");

    // Presence — compressed columns, validated against the counts above.
    std::size_t node_entities = 0, edge_entities = 0;
    std::vector<CompressedBitset> node_columns, edge_columns;
    if (!DecodePresence(required[3]->payload, num_times, &node_entities,
                        &node_columns)) {
      return fail("corrupt NPRS section");
    }
    if (node_entities != num_nodes) return fail("node presence count mismatch");
    if (!DecodePresence(required[4]->payload, num_times, &edge_entities,
                        &edge_columns)) {
      return fail("corrupt EPRS section");
    }
    if (edge_entities != num_edges) return fail("edge presence count mismatch");

    // Attributes — dictionaries + raw code arrays.
    std::vector<StaticColumn> static_attrs, static_edge_attrs;
    std::vector<TimeVaryingColumn> varying_attrs, varying_edge_attrs;
    if (!DecodeStaticColumns(required[5]->payload, num_nodes, &static_attrs)) {
      return fail("corrupt NSAT section");
    }
    if (!DecodeVaryingColumns(required[6]->payload, num_nodes, num_times,
                              &varying_attrs)) {
      return fail("corrupt NVAT section");
    }
    if (!DecodeStaticColumns(required[7]->payload, num_edges, &static_edge_attrs)) {
      return fail("corrupt ESAT section");
    }
    if (!DecodeVaryingColumns(required[8]->payload, num_edges, num_times,
                              &varying_edge_attrs)) {
      return fail("corrupt EVAT section");
    }

    // Everything validated — assemble. The presence indexes keep the
    // compressed columns and decode each on first touch.
    TemporalGraph g(std::move(time_labels));
    g.mutation_generation_ = mutation_generation;
    g.time_mutation_generations_ = std::move(time_generations);
    g.node_labels_ = std::move(node_labels);
    g.node_index_ = std::move(node_index);
    g.edge_endpoints_ = std::move(edge_endpoints);
    g.edge_index_ = std::move(edge_index);

    g.node_index_cols_.RestoreCompressed(num_nodes, std::move(node_columns));
    g.edge_index_cols_.RestoreCompressed(num_edges, std::move(edge_columns));

    g.static_attrs_ = std::move(static_attrs);
    g.varying_attrs_ = std::move(varying_attrs);
    g.static_edge_attrs_ = std::move(static_edge_attrs);
    g.varying_edge_attrs_ = std::move(varying_edge_attrs);
    return g;
  }
};

bool SaveGraphSnapshot(const TemporalGraph& graph, const std::string& path,
                       std::string* error) {
  GT_SPAN("storage/snapshot_save", {{"times", graph.num_times()}});
  std::vector<SnapshotSection> sections = GraphSnapshotAccess::Serialize(graph);
  if (!storage::WriteSnapshotFile(path, sections, error)) return false;
  std::size_t bytes = 0;
  for (const SnapshotSection& section : sections) bytes += section.payload.size();
  SnapshotSaveCounter().Increment();
  SnapshotBytesCounter().Add(bytes);
  return true;
}

std::optional<TemporalGraph> LoadGraphSnapshot(const std::string& path,
                                               std::string* error) {
  GT_SPAN("storage/snapshot_load");
  std::optional<std::vector<SnapshotSection>> sections =
      storage::ReadSnapshotFile(path, error);
  std::optional<TemporalGraph> graph;
  if (sections.has_value()) {
    graph = GraphSnapshotAccess::Deserialize(*sections, path, error);
  }
  if (graph.has_value()) {
    SnapshotLoadCounter().Increment();
  } else {
    SnapshotLoadErrorCounter().Increment();
  }
  return graph;
}

namespace {

template <typename Row>
void EncodeRows(std::span<const Row> rows, ByteWriter* out) {
  out->U64(rows.size());
  for (const Row& row : rows) {
    out->U64(row.code);
    out->U64(static_cast<std::uint64_t>(row.weight));
  }
}

bool DecodeRows(ByteReader* in, std::vector<GroupRow<Weight>>* rows) {
  std::uint64_t count = 0;
  if (!in->U64(&count) || count > in->remaining() / 16) return false;
  rows->resize(count);
  for (GroupRow<Weight>& row : *rows) {
    std::uint64_t weight = 0;
    if (!in->U64(&row.code) || !in->U64(&weight)) return false;
    row.weight = static_cast<Weight>(weight);
  }
  return true;
}

std::optional<TupleCodec> DecodeCodec(ByteReader* in) {
  std::uint8_t packed = 0, arity = 0;
  if (!in->U8(&packed) || !in->U8(&arity) || arity > AttrTuple::kMaxAttrs) {
    return std::nullopt;
  }
  if (packed != 0) {
    std::vector<std::uint64_t> radices(arity);
    for (std::uint64_t& radix : radices) {
      if (!in->U64(&radix)) return std::nullopt;
    }
    return TupleCodec::Packed(radices, internal_grouping::NodeCodes::kHidden);
  }
  std::uint64_t count = 0;
  if (!in->U64(&count) || count > in->remaining()) return std::nullopt;
  std::vector<AttrTuple> tuples(count);
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    if (!DecodeTuple(in, &tuples[i]) || tuples[i].size() != arity ||
        (i > 0 && !(tuples[i - 1] < tuples[i]))) {
      return std::nullopt;
    }
  }
  return TupleCodec::Numbered(std::move(tuples));
}

}  // namespace

std::string EncodeAggregateGraphs(const std::vector<AggregateGraph>& layers) {
  ByteWriter out;
  out.U64(layers.size());
  for (const AggregateGraph& layer : layers) {
    const TupleCodec& codec = layer.codec();
    out.U8(codec.packed() ? 1 : 0);
    out.U8(static_cast<std::uint8_t>(codec.arity()));
    if (codec.packed()) {
      for (std::size_t i = 0; i < codec.arity(); ++i) out.U64(codec.radix(i));
    } else {
      out.U64(codec.tuples().size());
      for (const AttrTuple& tuple : codec.tuples()) EncodeTuple(tuple, &out);
    }
    EncodeRows(layer.nodes(), &out);
    EncodeRows(layer.edges(), &out);
  }
  return out.Take();
}

bool DecodeAggregateGraphs(std::string_view bytes,
                           std::vector<AggregateGraph>* out, std::string* error) {
  ByteReader in(bytes);
  std::uint64_t layer_count = 0;
  std::vector<AggregateGraph> layers;
  bool ok = in.U64(&layer_count);
  for (std::uint64_t l = 0; ok && l < layer_count; ++l) {
    std::optional<TupleCodec> codec = DecodeCodec(&in);
    std::vector<GroupRow<Weight>> nodes, edges;
    ok = codec.has_value() && DecodeRows(&in, &nodes) && DecodeRows(&in, &edges);
    if (!ok) break;
    // Rows out of code order or outside the codec would read as wrong
    // tuples: a miss instead.
    ok = AggregateGraph::WellFormed(*codec, nodes, edges);
    if (ok) layers.emplace_back(std::move(*codec), std::move(nodes), std::move(edges));
  }
  if (!ok || layers.size() != layer_count || !in.AtEnd()) {
    *error = "corrupt aggregate-graph encoding";
    return false;
  }
  *out = std::move(layers);
  return true;
}

}  // namespace graphtempo
