#include "core/coarsen.h"

#include <algorithm>
#include <vector>

#include "core/interval.h"
#include "util/check.h"

namespace graphtempo {

namespace {

/// The member time point supplying a time-varying value under `policy`:
/// last/first point of `range` at which `entity` is present and the
/// attribute cell is assigned. Returns false if no such point.
template <typename CellSetFn>
bool PickObservation(const PresenceIndex& presence, std::size_t entity, TimeRange range,
                     CoarsenPolicy policy, const CellSetFn& cell_set, TimeId* picked) {
  if (policy == CoarsenPolicy::kLast) {
    for (TimeId t = range.last;; --t) {
      if (presence.Column(t).Test(entity) && cell_set(t)) {
        *picked = t;
        return true;
      }
      if (t == range.first) break;
    }
  } else {
    for (TimeId t = range.first; t <= range.last; ++t) {
      if (presence.Column(t).Test(entity) && cell_set(t)) {
        *picked = t;
        return true;
      }
    }
  }
  return false;
}

}  // namespace

std::vector<TimeGroup> UniformGrouping(const TemporalGraph& graph, std::size_t width) {
  GT_CHECK_GE(width, 1u) << "group width must be positive";
  std::vector<TimeGroup> groups;
  const std::size_t n = graph.num_times();
  for (std::size_t first = 0; first < n; first += width) {
    TimeRange range{static_cast<TimeId>(first),
                    static_cast<TimeId>(std::min(n - 1, first + width - 1))};
    std::string label = graph.time_label(range.first);
    if (range.last != range.first) label += ".." + graph.time_label(range.last);
    groups.push_back(TimeGroup{std::move(label), range});
  }
  return groups;
}

TemporalGraph CoarsenTime(const TemporalGraph& graph,
                          const std::vector<TimeGroup>& groups, CoarsenPolicy policy) {
  GT_CHECK(!groups.empty()) << "coarsening needs at least one group";
  std::vector<std::string> labels;
  labels.reserve(groups.size());
  for (std::size_t i = 0; i < groups.size(); ++i) {
    GT_CHECK_LE(groups[i].range.first, groups[i].range.last) << "inverted group range";
    GT_CHECK_LT(groups[i].range.last, graph.num_times()) << "group outside time domain";
    if (i > 0) {
      GT_CHECK_LT(groups[i - 1].range.last, groups[i].range.first)
          << "groups must be ordered and non-overlapping";
    }
    labels.push_back(groups[i].label);
  }

  TemporalGraph coarse(std::move(labels));
  for (std::uint32_t a = 0; a < graph.num_static_attributes(); ++a) {
    coarse.AddStaticAttribute(graph.static_attribute(a).name());
  }
  for (std::uint32_t a = 0; a < graph.num_time_varying_attributes(); ++a) {
    coarse.AddTimeVaryingAttribute(graph.time_varying_attribute(a).name());
  }
  for (std::uint32_t a = 0; a < graph.num_static_edge_attributes(); ++a) {
    coarse.AddStaticEdgeAttribute(graph.static_edge_attribute(a).name());
  }
  for (std::uint32_t a = 0; a < graph.num_time_varying_edge_attributes(); ++a) {
    coarse.AddTimeVaryingEdgeAttribute(graph.time_varying_edge_attribute(a).name());
  }

  // Per group, the nodes and edges present at some member point.
  const PresenceIndex& node_presence = graph.node_presence_index();
  const PresenceIndex& edge_presence = graph.edge_presence_index();
  std::vector<DynamicBitset> group_nodes, group_edges;
  for (const TimeGroup& group : groups) {
    group_nodes.push_back(node_presence.UnionRange(group.range.first, group.range.last));
    group_edges.push_back(edge_presence.UnionRange(group.range.first, group.range.last));
  }

  // Nodes kept if present in any group (others would be isolated phantoms).
  std::vector<NodeId> node_map(graph.num_nodes(), 0);
  std::vector<bool> node_kept(graph.num_nodes(), false);
  for (NodeId n = 0; n < graph.num_nodes(); ++n) {
    if (std::none_of(group_nodes.begin(), group_nodes.end(),
                     [&](const DynamicBitset& nodes) { return nodes.Test(n); })) {
      continue;
    }
    NodeId copy = coarse.AddNode(graph.node_label(n));
    node_map[n] = copy;
    node_kept[n] = true;
    for (std::uint32_t a = 0; a < graph.num_static_attributes(); ++a) {
      AttrValueId code = graph.static_attribute(a).CodeAt(n);
      if (code == kNoValue) continue;
      coarse.SetStaticValue(a, copy, graph.static_attribute(a).dictionary().ValueOf(code));
    }
  }

  for (TimeId g = 0; g < groups.size(); ++g) {
    const TimeRange range = groups[g].range;
    for (NodeId n = 0; n < graph.num_nodes(); ++n) {
      if (!node_kept[n] || !group_nodes[g].Test(n)) continue;
      NodeId copy = node_map[n];
      coarse.SetNodePresent(copy, g);
      for (std::uint32_t a = 0; a < graph.num_time_varying_attributes(); ++a) {
        const TimeVaryingColumn& column = graph.time_varying_attribute(a);
        TimeId picked = 0;
        if (PickObservation(node_presence, n, range, policy,
                            [&](TimeId t) { return column.CodeAt(n, t) != kNoValue; },
                            &picked)) {
          coarse.SetTimeVaryingValue(a, copy, g, column.ValueAt(n, picked));
        }
      }
    }
  }

  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    auto [src, dst] = graph.edge(e);
    std::optional<EdgeId> copy;
    for (TimeId g = 0; g < groups.size(); ++g) {
      const TimeRange range = groups[g].range;
      if (!group_edges[g].Test(e)) continue;
      if (!copy.has_value()) {
        copy = coarse.GetOrAddEdge(node_map[src], node_map[dst]);
        for (std::uint32_t a = 0; a < graph.num_static_edge_attributes(); ++a) {
          AttrValueId code = graph.static_edge_attribute(a).CodeAt(e);
          if (code == kNoValue) continue;
          coarse.SetStaticEdgeValue(
              a, *copy, graph.static_edge_attribute(a).dictionary().ValueOf(code));
        }
      }
      coarse.SetEdgePresent(*copy, g);
      for (std::uint32_t a = 0; a < graph.num_time_varying_edge_attributes(); ++a) {
        const TimeVaryingColumn& column = graph.time_varying_edge_attribute(a);
        TimeId picked = 0;
        if (PickObservation(edge_presence, e, range, policy,
                            [&](TimeId t) { return column.CodeAt(e, t) != kNoValue; },
                            &picked)) {
          coarse.SetTimeVaryingEdgeValue(a, *copy, g, column.ValueAt(e, picked));
        }
      }
    }
  }

  return coarse;
}

}  // namespace graphtempo
