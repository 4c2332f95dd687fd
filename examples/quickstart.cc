/// Quickstart: builds the paper's running example (Fig 1) through the public
/// API, then walks every major feature once — temporal operators, DIST/ALL
/// aggregation, the evolution graph, threshold exploration, materialization
/// and (de)serialization. Run it with no arguments; it prints the same
/// numbers the paper's Figures 2–4 show.

#include <cstdio>
#include <sstream>

#include "core/evolution.h"
#include "core/exploration.h"
#include "core/graph_io.h"
#include "core/materialization.h"
#include "core/operators.h"

namespace gt = graphtempo;

namespace {

gt::TemporalGraph BuildFigure1Graph() {
  gt::TemporalGraph graph(std::vector<std::string>{"t0", "t1", "t2"});
  std::uint32_t gender = graph.AddStaticAttribute("gender");
  std::uint32_t pubs = graph.AddTimeVaryingAttribute("publications");

  auto author = [&](const char* label, const char* g) {
    gt::NodeId n = graph.AddNode(label);
    graph.SetStaticValue(gender, n, g);
    return n;
  };
  gt::NodeId u1 = author("u1", "m");
  gt::NodeId u2 = author("u2", "f");
  gt::NodeId u3 = author("u3", "f");
  gt::NodeId u4 = author("u4", "f");
  gt::NodeId u5 = author("u5", "m");

  auto present = [&](gt::NodeId n, gt::TimeId t, const char* publications) {
    graph.SetNodePresent(n, t);
    graph.SetTimeVaryingValue(pubs, n, t, publications);
  };
  present(u1, 0, "3");
  present(u1, 1, "1");
  present(u2, 0, "1");
  present(u2, 1, "1");
  present(u2, 2, "1");
  present(u3, 0, "1");
  present(u4, 0, "2");
  present(u4, 1, "1");
  present(u4, 2, "1");
  present(u5, 2, "3");

  auto collab = [&](gt::NodeId a, gt::NodeId b, std::initializer_list<int> times) {
    gt::EdgeId e = graph.GetOrAddEdge(a, b);
    for (int t : times) graph.SetEdgePresent(e, static_cast<gt::TimeId>(t));
  };
  collab(u1, u2, {0, 1});
  collab(u1, u3, {0});
  collab(u2, u4, {0, 1, 2});
  collab(u3, u4, {0});
  collab(u1, u4, {1});
  collab(u4, u5, {2});
  collab(u2, u5, {2});
  return graph;
}

void PrintAggregate(const gt::TemporalGraph& graph, std::span<const gt::AttrRef> attrs,
                    const gt::AggregateGraph& aggregate, const char* title) {
  std::printf("%s\n", title);
  aggregate.ForEachNode([&](const gt::AttrTuple& tuple, gt::Weight weight) {
    std::printf("  node (%s)  weight %lld\n",
                gt::FormatTuple(graph, attrs, tuple).c_str(),
                static_cast<long long>(weight));
  });
  aggregate.ForEachEdge(
      [&](const gt::AttrTuple& src, const gt::AttrTuple& dst, gt::Weight weight) {
        std::printf("  edge (%s) -> (%s)  weight %lld\n",
                    gt::FormatTuple(graph, attrs, src).c_str(),
                    gt::FormatTuple(graph, attrs, dst).c_str(),
                    static_cast<long long>(weight));
      });
}

}  // namespace

int main() {
  gt::TemporalGraph graph = BuildFigure1Graph();
  const std::size_t n = graph.num_times();
  std::printf("Fig 1 graph: %zu nodes, %zu edges, %zu time points\n\n",
              graph.num_nodes(), graph.num_edges(), n);

  // --- Temporal operators (Section 2.1) ---------------------------------------
  gt::IntervalSet t0 = gt::IntervalSet::Point(n, 0);
  gt::IntervalSet t1 = gt::IntervalSet::Point(n, 1);
  gt::GraphView union_view = gt::UnionOp(graph, t0, t1);
  std::printf("Union [t0,t1] (Fig 2): %zu nodes, %zu edges\n", union_view.NodeCount(),
              union_view.EdgeCount());
  gt::GraphView inter_view = gt::IntersectionOp(graph, t0, t1);
  std::printf("Intersection (t0,t1):  %zu nodes, %zu edges\n", inter_view.NodeCount(),
              inter_view.EdgeCount());
  gt::GraphView shrink_view = gt::DifferenceOp(graph, t0, t1);
  gt::GraphView grow_view = gt::DifferenceOp(graph, t1, t0);
  std::printf("Difference t0-t1:      %zu nodes, %zu edges (deletions)\n",
              shrink_view.NodeCount(), shrink_view.EdgeCount());
  std::printf("Difference t1-t0:      %zu nodes, %zu edges (additions)\n\n",
              grow_view.NodeCount(), grow_view.EdgeCount());

  // --- Aggregation (Section 2.2, Fig 3d/3e) ------------------------------------
  std::vector<gt::AttrRef> attrs = gt::ResolveAttributes(graph, {"gender", "publications"});
  PrintAggregate(graph, attrs,
                 gt::Aggregate(graph, union_view, attrs,
                               gt::AggregationSemantics::kDistinct),
                 "DIST aggregation of the union graph (Fig 3d):");
  PrintAggregate(graph, attrs,
                 gt::Aggregate(graph, union_view, attrs, gt::AggregationSemantics::kAll),
                 "\nALL aggregation of the union graph (Fig 3e):");

  // --- Evolution graph (Section 2.3, Fig 4) -------------------------------------
  gt::EvolutionAggregate evolution = gt::AggregateEvolution(graph, t0, t1, attrs);
  std::printf("\nEvolution t0 -> t1 (Fig 4b):\n");
  evolution.ForEachNode([&](const gt::AttrTuple& tuple,
                            const gt::EvolutionWeights& weights) {
    std::printf("  node (%s)  stability %lld  growth %lld  shrinkage %lld\n",
                gt::FormatTuple(graph, attrs, tuple).c_str(),
                static_cast<long long>(weights.stability),
                static_cast<long long>(weights.growth),
                static_cast<long long>(weights.shrinkage));
  });

  // --- Exploration (Section 3) ---------------------------------------------------
  gt::EntitySelector ff_edges;
  ff_edges.kind = gt::EntitySelector::Kind::kEdges;
  ff_edges.attrs = gt::ResolveAttributes(graph, {"gender"});
  gt::AttrTuple female;
  female.Append(*graph.FindValueCode(ff_edges.attrs[0], "f"));
  ff_edges.src_tuple = female;
  ff_edges.dst_tuple = female;

  gt::ExplorationSpec spec;
  spec.event = gt::EventType::kStability;
  spec.semantics = gt::ExtensionSemantics::kIntersection;  // maximal pairs
  spec.reference = gt::ReferenceEnd::kOld;
  spec.selector = ff_edges;
  spec.k = 1;
  gt::ExplorationResult result = gt::Explore(graph, spec);
  std::printf("\nMaximal intervals with >= %lld stable f-f collaborations:\n",
              static_cast<long long>(spec.k));
  for (const gt::IntervalPair& pair : result.pairs) {
    std::printf("  old [%s..%s]  new [%s..%s]  count %lld\n",
                graph.time_label(pair.old_range.first).c_str(),
                graph.time_label(pair.old_range.last).c_str(),
                graph.time_label(pair.new_range.first).c_str(),
                graph.time_label(pair.new_range.last).c_str(),
                static_cast<long long>(pair.count));
  }

  // --- Materialization (Section 4.3) ----------------------------------------------
  gt::MaterializationStore store(&graph, attrs);
  store.MaterializeAllTimePoints();
  gt::AggregateGraph combined =
      store.UnionAllAggregate(gt::IntervalSet::Range(n, 0, 1));
  std::printf("\nUnion-ALL aggregate from per-time-point cache: %zu aggregate nodes\n",
              combined.NodeCount());

  // --- Serialization ----------------------------------------------------------------
  std::ostringstream out;
  gt::WriteGraph(graph, &out);
  std::istringstream in(out.str());
  std::string error;
  std::optional<gt::TemporalGraph> restored = gt::ReadGraph(&in, &error);
  if (!restored.has_value()) {
    std::fprintf(stderr, "round trip failed: %s\n", error.c_str());
    return 1;
  }
  std::printf("Serialized to %zu bytes and restored %zu nodes / %zu edges.\n",
              out.str().size(), restored->num_nodes(), restored->num_edges());
  return 0;
}
