#include "core/subgraph.h"

#include <string>
#include <vector>

#include "util/check.h"

namespace graphtempo {

TemporalGraph ExtractSubgraph(const TemporalGraph& graph, const GraphView& view) {
  GT_CHECK_EQ(view.times.domain_size(), graph.num_times())
      << "view interval over a different time domain";

  std::vector<std::string> time_labels;
  time_labels.reserve(graph.num_times());
  for (TimeId t = 0; t < graph.num_times(); ++t) {
    time_labels.push_back(graph.time_label(t));
  }
  TemporalGraph result(std::move(time_labels));

  // Attribute schema first, so columns cover nodes as they are added.
  for (std::uint32_t a = 0; a < graph.num_static_attributes(); ++a) {
    result.AddStaticAttribute(graph.static_attribute(a).name());
  }
  for (std::uint32_t a = 0; a < graph.num_time_varying_attributes(); ++a) {
    result.AddTimeVaryingAttribute(graph.time_varying_attribute(a).name());
  }
  for (std::uint32_t a = 0; a < graph.num_static_edge_attributes(); ++a) {
    result.AddStaticEdgeAttribute(graph.static_edge_attribute(a).name());
  }
  for (std::uint32_t a = 0; a < graph.num_time_varying_edge_attributes(); ++a) {
    result.AddTimeVaryingEdgeAttribute(graph.time_varying_edge_attribute(a).name());
  }

  // Nodes: presence restricted to the view interval, attributes copied.
  for (NodeId n : view.nodes) {
    NodeId copy = result.AddNode(graph.node_label(n));
    view.times.ForEach([&](TimeId t) {
      if (graph.NodePresentAt(n, t)) result.SetNodePresent(copy, t);
    });
    for (std::uint32_t a = 0; a < graph.num_static_attributes(); ++a) {
      AttrValueId code = graph.static_attribute(a).CodeAt(n);
      if (code == kNoValue) continue;
      result.SetStaticValue(a, copy, graph.static_attribute(a).dictionary().ValueOf(code));
    }
    for (std::uint32_t a = 0; a < graph.num_time_varying_attributes(); ++a) {
      const TimeVaryingColumn& column = graph.time_varying_attribute(a);
      for (TimeId t = 0; t < graph.num_times(); ++t) {
        if (!view.times.Contains(t)) continue;
        AttrValueId code = column.CodeAt(n, t);
        if (code == kNoValue) continue;
        result.SetTimeVaryingValue(a, copy, t, column.dictionary().ValueOf(code));
      }
    }
  }

  // Edges. SetEdgePresent would force endpoints present, which is already
  // guaranteed: an edge exists only where both endpoints exist (Def 2.1
  // invariant, maintained by TemporalGraph) and the view keeps whole rows.
  for (EdgeId e : view.edges) {
    auto [src, dst] = graph.edge(e);
    std::optional<NodeId> copy_src = result.FindNode(graph.node_label(src));
    std::optional<NodeId> copy_dst = result.FindNode(graph.node_label(dst));
    GT_CHECK(copy_src.has_value() && copy_dst.has_value())
        << "view has an edge whose endpoint is not in the view";
    EdgeId copy = result.GetOrAddEdge(*copy_src, *copy_dst);
    view.times.ForEach([&](TimeId t) {
      if (graph.EdgePresentAt(e, t)) result.SetEdgePresent(copy, t);
    });
    for (std::uint32_t a = 0; a < graph.num_static_edge_attributes(); ++a) {
      AttrValueId code = graph.static_edge_attribute(a).CodeAt(e);
      if (code == kNoValue) continue;
      result.SetStaticEdgeValue(a, copy,
                                graph.static_edge_attribute(a).dictionary().ValueOf(code));
    }
    for (std::uint32_t a = 0; a < graph.num_time_varying_edge_attributes(); ++a) {
      const TimeVaryingColumn& column = graph.time_varying_edge_attribute(a);
      for (TimeId t = 0; t < graph.num_times(); ++t) {
        if (!view.times.Contains(t)) continue;
        AttrValueId code = column.CodeAt(e, t);
        if (code == kNoValue) continue;
        result.SetTimeVaryingEdgeValue(a, copy, t, column.dictionary().ValueOf(code));
      }
    }
  }

  return result;
}

}  // namespace graphtempo
