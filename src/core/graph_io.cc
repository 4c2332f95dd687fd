#include "core/graph_io.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "obs/trace.h"
#include "storage/tsv.h"
#include "util/check.h"
#include "util/string_util.h"

namespace graphtempo {

namespace {

std::string PresenceString(const PresenceIndex& presence, std::size_t entity) {
  std::string bits(presence.num_times(), '0');
  for (std::size_t t = 0; t < presence.num_times(); ++t) {
    if (presence.Column(t).Test(entity)) bits[t] = '1';
  }
  return bits;
}

/// Parser state machine over the section headers.
struct Section {
  enum class Kind { kNone, kTimes, kNodes, kEdges, kStatic, kVarying, kEdgeStatic, kEdgeVarying };
  Kind kind = Kind::kNone;
  std::uint32_t attr_index = 0;  // for kStatic / kVarying
};

bool Fail(std::string* error, std::size_t line, const std::string& message) {
  std::ostringstream out;
  out << "line " << line << ": " << message;
  *error = out.str();
  return false;
}

}  // namespace

void WriteGraph(const TemporalGraph& graph, std::ostream* out) {
  GT_SPAN("io/write_graph", {{"nodes", graph.num_nodes()}, {"edges", graph.num_edges()}});
  TsvWriter writer(out);
  writer.WriteComment("GraphTempo temporal attributed graph");
  writer.WriteRow({"!format", "graphtempo", "1"});

  writer.WriteRow({"!section", "times"});
  for (TimeId t = 0; t < graph.num_times(); ++t) {
    writer.WriteRow({graph.time_label(t)});
  }

  writer.WriteRow({"!section", "nodes"});
  for (NodeId n = 0; n < graph.num_nodes(); ++n) {
    writer.WriteRow({graph.node_label(n), PresenceString(graph.node_presence_index(), n)});
  }

  writer.WriteRow({"!section", "edges"});
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    auto [src, dst] = graph.edge(e);
    writer.WriteRow({graph.node_label(src), graph.node_label(dst),
                     PresenceString(graph.edge_presence_index(), e)});
  }

  for (std::uint32_t a = 0; a < graph.num_static_attributes(); ++a) {
    const StaticColumn& column = graph.static_attribute(a);
    writer.WriteRow({"!section", "static", column.name()});
    for (NodeId n = 0; n < graph.num_nodes(); ++n) {
      if (column.CodeAt(n) == kNoValue) continue;
      writer.WriteRow({graph.node_label(n), column.ValueAt(n)});
    }
  }

  for (std::uint32_t a = 0; a < graph.num_time_varying_attributes(); ++a) {
    const TimeVaryingColumn& column = graph.time_varying_attribute(a);
    writer.WriteRow({"!section", "varying", column.name()});
    for (NodeId n = 0; n < graph.num_nodes(); ++n) {
      for (TimeId t = 0; t < graph.num_times(); ++t) {
        if (column.CodeAt(n, t) == kNoValue) continue;
        writer.WriteRow({graph.node_label(n), graph.time_label(t), column.ValueAt(n, t)});
      }
    }
  }

  for (std::uint32_t a = 0; a < graph.num_static_edge_attributes(); ++a) {
    const StaticColumn& column = graph.static_edge_attribute(a);
    writer.WriteRow({"!section", "estatic", column.name()});
    for (EdgeId e = 0; e < graph.num_edges(); ++e) {
      if (column.CodeAt(e) == kNoValue) continue;
      auto [src, dst] = graph.edge(e);
      writer.WriteRow({graph.node_label(src), graph.node_label(dst), column.ValueAt(e)});
    }
  }

  for (std::uint32_t a = 0; a < graph.num_time_varying_edge_attributes(); ++a) {
    const TimeVaryingColumn& column = graph.time_varying_edge_attribute(a);
    writer.WriteRow({"!section", "evarying", column.name()});
    for (EdgeId e = 0; e < graph.num_edges(); ++e) {
      auto [src, dst] = graph.edge(e);
      for (TimeId t = 0; t < graph.num_times(); ++t) {
        if (column.CodeAt(e, t) == kNoValue) continue;
        writer.WriteRow({graph.node_label(src), graph.node_label(dst),
                         graph.time_label(t), column.ValueAt(e, t)});
      }
    }
  }
}

std::optional<TemporalGraph> ReadGraph(std::istream* in, std::string* error) {
  GT_SPAN("io/read_graph");
  GT_CHECK(error != nullptr);
  TsvReader reader(in);

  auto header = reader.ReadRow();
  if (!header.has_value() || header->size() != 3 || (*header)[0] != "!format" ||
      (*header)[1] != "graphtempo" || (*header)[2] != "1") {
    Fail(error, reader.line_number(), "missing or unsupported !format header");
    return std::nullopt;
  }

  // First pass requirement: the times section must precede entity sections,
  // because presence strings are validated against the domain size.
  std::vector<std::string> time_labels;
  std::optional<TemporalGraph> graph;
  Section section;

  auto require_graph = [&](std::size_t line) -> bool {
    if (graph.has_value()) return true;
    if (time_labels.empty()) {
      return Fail(error, line, "entity section before a non-empty times section");
    }
    graph.emplace(time_labels);
    return true;
  };

  auto parse_presence = [&](const std::string& bits, std::size_t line,
                            std::vector<TimeId>* times) -> bool {
    if (bits.size() != time_labels.size()) {
      return Fail(error, line, "presence string length != number of time points");
    }
    for (std::size_t t = 0; t < bits.size(); ++t) {
      if (bits[t] == '1') {
        times->push_back(static_cast<TimeId>(t));
      } else if (bits[t] != '0') {
        return Fail(error, line, "presence string must contain only 0/1");
      }
    }
    return true;
  };

  while (auto row_opt = reader.ReadRow()) {
    const std::vector<std::string>& row = *row_opt;
    const std::size_t line = reader.line_number();

    if (row[0] == "!section") {
      if (row.size() < 2) {
        Fail(error, line, "!section needs a name");
        return std::nullopt;
      }
      const std::string& name = row[1];
      if (name == "times") {
        if (graph.has_value()) {
          Fail(error, line, "times section must come before entity sections");
          return std::nullopt;
        }
        section.kind = Section::Kind::kTimes;
      } else if (name == "nodes") {
        if (!require_graph(line)) return std::nullopt;
        section.kind = Section::Kind::kNodes;
      } else if (name == "edges") {
        if (!require_graph(line)) return std::nullopt;
        section.kind = Section::Kind::kEdges;
      } else if (name == "estatic" || name == "evarying") {
        if (!require_graph(line)) return std::nullopt;
        if (row.size() != 3) {
          Fail(error, line, "attribute section needs a name field");
          return std::nullopt;
        }
        std::optional<EdgeAttrRef> existing = graph->FindEdgeAttribute(row[2]);
        if (name == "estatic") {
          section.kind = Section::Kind::kEdgeStatic;
          if (existing.has_value()) {
            if (existing->kind != EdgeAttrRef::Kind::kStatic) {
              Fail(error, line, "edge attribute kind mismatch: " + row[2]);
              return std::nullopt;
            }
            section.attr_index = existing->index;
          } else {
            section.attr_index = graph->AddStaticEdgeAttribute(row[2]);
          }
        } else {
          section.kind = Section::Kind::kEdgeVarying;
          if (existing.has_value()) {
            if (existing->kind != EdgeAttrRef::Kind::kTimeVarying) {
              Fail(error, line, "edge attribute kind mismatch: " + row[2]);
              return std::nullopt;
            }
            section.attr_index = existing->index;
          } else {
            section.attr_index = graph->AddTimeVaryingEdgeAttribute(row[2]);
          }
        }
      } else if (name == "static" || name == "varying") {
        if (!require_graph(line)) return std::nullopt;
        if (row.size() != 3) {
          Fail(error, line, "attribute section needs a name field");
          return std::nullopt;
        }
        std::optional<AttrRef> existing = graph->FindAttribute(row[2]);
        if (name == "static") {
          section.kind = Section::Kind::kStatic;
          if (existing.has_value()) {
            if (existing->kind != AttrRef::Kind::kStatic) {
              Fail(error, line, "attribute kind mismatch: " + row[2]);
              return std::nullopt;
            }
            section.attr_index = existing->index;
          } else {
            section.attr_index = graph->AddStaticAttribute(row[2]);
          }
        } else {
          section.kind = Section::Kind::kVarying;
          if (existing.has_value()) {
            if (existing->kind != AttrRef::Kind::kTimeVarying) {
              Fail(error, line, "attribute kind mismatch: " + row[2]);
              return std::nullopt;
            }
            section.attr_index = existing->index;
          } else {
            section.attr_index = graph->AddTimeVaryingAttribute(row[2]);
          }
        }
      } else {
        Fail(error, line, "unknown section: " + name);
        return std::nullopt;
      }
      continue;
    }

    switch (section.kind) {
      case Section::Kind::kNone:
        Fail(error, line, "data row before any section");
        return std::nullopt;
      case Section::Kind::kTimes:
        if (row.size() != 1) {
          Fail(error, line, "times row must have one field");
          return std::nullopt;
        }
        // Validate here: the TemporalGraph constructor treats duplicates as a
        // programmer error (GT_CHECK), but on parse they are bad input.
        if (std::find(time_labels.begin(), time_labels.end(), row[0]) !=
            time_labels.end()) {
          Fail(error, line, "duplicate time label: " + row[0]);
          return std::nullopt;
        }
        time_labels.push_back(row[0]);
        break;
      case Section::Kind::kNodes: {
        if (row.size() != 2) {
          Fail(error, line, "nodes row must be: label, presence");
          return std::nullopt;
        }
        std::vector<TimeId> times;
        if (!parse_presence(row[1], line, &times)) return std::nullopt;
        NodeId n = graph->GetOrAddNode(row[0]);
        for (TimeId t : times) graph->SetNodePresent(n, t);
        break;
      }
      case Section::Kind::kEdges: {
        if (row.size() != 3) {
          Fail(error, line, "edges row must be: src, dst, presence");
          return std::nullopt;
        }
        std::vector<TimeId> times;
        if (!parse_presence(row[2], line, &times)) return std::nullopt;
        NodeId src = graph->GetOrAddNode(row[0]);
        NodeId dst = graph->GetOrAddNode(row[1]);
        EdgeId e = graph->GetOrAddEdge(src, dst);
        for (TimeId t : times) graph->SetEdgePresent(e, t);
        break;
      }
      case Section::Kind::kStatic: {
        if (row.size() != 2) {
          Fail(error, line, "static attribute row must be: node, value");
          return std::nullopt;
        }
        NodeId n = graph->GetOrAddNode(row[0]);
        graph->SetStaticValue(section.attr_index, n, row[1]);
        break;
      }
      case Section::Kind::kVarying: {
        if (row.size() != 3) {
          Fail(error, line, "varying attribute row must be: node, time, value");
          return std::nullopt;
        }
        NodeId n = graph->GetOrAddNode(row[0]);
        std::optional<TimeId> t = graph->FindTime(row[1]);
        if (!t.has_value()) {
          Fail(error, line, "unknown time label: " + row[1]);
          return std::nullopt;
        }
        graph->SetTimeVaryingValue(section.attr_index, n, *t, row[2]);
        break;
      }
      case Section::Kind::kEdgeStatic: {
        if (row.size() != 3) {
          Fail(error, line, "static edge attribute row must be: src, dst, value");
          return std::nullopt;
        }
        NodeId src = graph->GetOrAddNode(row[0]);
        NodeId dst = graph->GetOrAddNode(row[1]);
        EdgeId e = graph->GetOrAddEdge(src, dst);
        graph->SetStaticEdgeValue(section.attr_index, e, row[2]);
        break;
      }
      case Section::Kind::kEdgeVarying: {
        if (row.size() != 4) {
          Fail(error, line, "varying edge attribute row must be: src, dst, time, value");
          return std::nullopt;
        }
        NodeId src = graph->GetOrAddNode(row[0]);
        NodeId dst = graph->GetOrAddNode(row[1]);
        EdgeId e = graph->GetOrAddEdge(src, dst);
        std::optional<TimeId> t = graph->FindTime(row[2]);
        if (!t.has_value()) {
          Fail(error, line, "unknown time label: " + row[2]);
          return std::nullopt;
        }
        graph->SetTimeVaryingEdgeValue(section.attr_index, e, *t, row[3]);
        break;
      }
    }
  }

  if (!graph.has_value()) {
    if (time_labels.empty()) {
      Fail(error, reader.line_number(), "file has no times section");
      return std::nullopt;
    }
    graph.emplace(time_labels);
  }
  return graph;
}

bool WriteGraphToFile(const TemporalGraph& graph, const std::string& path,
                      std::string* error) {
  GT_CHECK(error != nullptr);
  std::ofstream out(path);
  if (!out) {
    *error = "cannot open for writing: " + path;
    return false;
  }
  WriteGraph(graph, &out);
  out.flush();
  if (!out) {
    *error = "write failed: " + path;
    return false;
  }
  return true;
}

std::optional<TemporalGraph> ReadGraphFromFile(const std::string& path,
                                               std::string* error) {
  GT_CHECK(error != nullptr);
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open for reading: " + path;
    return std::nullopt;
  }
  return ReadGraph(&in, error);
}

}  // namespace graphtempo
