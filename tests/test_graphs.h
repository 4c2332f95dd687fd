#ifndef GRAPHTEMPO_TESTS_TEST_GRAPHS_H_
#define GRAPHTEMPO_TESTS_TEST_GRAPHS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/temporal_graph.h"
#include "datagen/paper_example.h"
#include "datagen/random.h"

/// \file
/// Shared graph fixtures for the test suite.

namespace graphtempo::testing {

/// The running example of the paper (Figure 1 / Table 2): a collaboration
/// graph over T = {t0, t1, t2} with five authors, the static attribute
/// `gender` and the time-varying attribute `publications`.
///
/// Presence (Table 2):            Attributes:
///   u1: t0 t1      gender m       publications 3,1,-
///   u2: t0 t1 t2   gender f       publications 1,1,1
///   u3: t0         gender f       publications 1,-,-
///   u4: t0 t1 t2   gender f       publications 2,1,1
///   u5:       t2   gender m       publications -,-,3
///
/// Edges (as drawn in Fig 1):
///   (u1,u2): t0 t1      (u1,u3): t0       (u2,u4): t0 t1 t2
///   (u3,u4): t0         (u1,u4): t1       (u4,u5): t2       (u2,u5): t2
///
/// The aggregate weights of Figures 2–4 quoted in the paper all hold on this
/// graph (e.g. union [t0,t1] gives node (f,1) DIST weight 3 and ALL weight 4).
inline TemporalGraph BuildPaperGraph() { return datagen::BuildPaperExampleGraph(); }

/// A random temporal attributed graph for property tests: `num_nodes` nodes
/// over `num_times` time points, one static attribute `color` (domain size
/// `colors`) and one time-varying attribute `level` (domain size `levels`).
/// Each node/edge is present at each time with probability `presence_p`
/// (edges only where both endpoints are — SetEdgePresent enforces it anyway,
/// but we sample within present pairs to keep densities independent).
inline TemporalGraph BuildRandomGraph(std::uint64_t seed, std::size_t num_nodes,
                                      std::size_t num_times, double presence_p = 0.5,
                                      std::size_t colors = 3, std::size_t levels = 4,
                                      double edge_p = 0.2) {
  datagen::Pcg32 rng(seed);
  std::vector<std::string> labels;
  for (std::size_t t = 0; t < num_times; ++t) labels.push_back("t" + std::to_string(t));
  TemporalGraph graph(std::move(labels));
  std::uint32_t color = graph.AddStaticAttribute("color");
  std::uint32_t level = graph.AddTimeVaryingAttribute("level");

  for (std::size_t i = 0; i < num_nodes; ++i) {
    NodeId n = graph.AddNode("n" + std::to_string(i));
    graph.SetStaticValue(color, n, "c" + std::to_string(rng.NextBelow(
                                             static_cast<std::uint32_t>(colors))));
    bool any = false;
    for (TimeId t = 0; t < num_times; ++t) {
      if (rng.NextBool(presence_p)) {
        graph.SetNodePresent(n, t);
        any = true;
      }
    }
    if (!any) graph.SetNodePresent(n, static_cast<TimeId>(rng.NextBelow(
                                          static_cast<std::uint32_t>(num_times))));
    for (TimeId t = 0; t < num_times; ++t) {
      if (graph.NodePresentAt(n, t)) {
        graph.SetTimeVaryingValue(
            level, n, t,
            "l" + std::to_string(rng.NextBelow(static_cast<std::uint32_t>(levels))));
      }
    }
  }

  for (NodeId u = 0; u < num_nodes; ++u) {
    for (NodeId v = 0; v < num_nodes; ++v) {
      if (u == v || !rng.NextBool(edge_p)) continue;
      EdgeId e = 0;
      bool created = false;
      for (TimeId t = 0; t < num_times; ++t) {
        if (graph.NodePresentAt(u, t) && graph.NodePresentAt(v, t) &&
            rng.NextBool(presence_p)) {
          if (!created) {
            e = graph.GetOrAddEdge(u, v);
            created = true;
          }
          graph.SetEdgePresent(e, t);
        }
      }
    }
  }
  return graph;
}

/// The shape of a BuildShapedGraph graph.
struct Shape {
  std::size_t nodes = 0;
  std::size_t times = 0;
  std::size_t edges = 0;
  std::uint32_t colors = 4;
  std::uint32_t levels = 4;
  /// Distinct values of each `wide_*` attribute (node i gets value i mod wide,
  /// permuted per attribute; keep it coprime to 7, 11 and 13).
  std::size_t wide = 8;
};

/// `prefix` followed by `n` in decimal, e.g. Label("t", 3) == "t3".
inline std::string Label(const char* prefix, std::uint64_t n) {
  std::string label = prefix;
  label += std::to_string(n);
  return label;
}

/// A random graph of `shape` with static `color` and `wide_a` … `wide_d`, and
/// time-varying `level` / `mood`. About 10% of colors and of present-time
/// levels are left unset (kNoValue), and edge presence marks endpoints
/// present at times they carry no level, so kNoValue reaches edge keys too.
inline TemporalGraph BuildShapedGraph(std::uint64_t seed, const Shape& shape) {
  datagen::Pcg32 rng(seed);
  std::vector<std::string> labels;
  for (std::size_t t = 0; t < shape.times; ++t) labels.push_back(Label("t", t));
  TemporalGraph graph(std::move(labels));
  const std::uint32_t color = graph.AddStaticAttribute("color");
  const std::uint32_t wide_a = graph.AddStaticAttribute("wide_a");
  const std::uint32_t wide_b = graph.AddStaticAttribute("wide_b");
  const std::uint32_t wide_c = graph.AddStaticAttribute("wide_c");
  const std::uint32_t wide_d = graph.AddStaticAttribute("wide_d");
  const std::uint32_t level = graph.AddTimeVaryingAttribute("level");
  const std::uint32_t mood = graph.AddTimeVaryingAttribute("mood");

  for (std::size_t i = 0; i < shape.nodes; ++i) {
    const NodeId n = graph.AddNode(Label("n", i));
    if (!rng.NextBool(0.1)) {
      graph.SetStaticValue(color, n, Label("c", rng.NextBelow(shape.colors)));
    }
    graph.SetStaticValue(wide_a, n, Label("a", i % shape.wide));
    graph.SetStaticValue(wide_b, n, Label("b", (i * 7) % shape.wide));
    graph.SetStaticValue(wide_c, n, Label("c", (i * 13) % shape.wide));
    graph.SetStaticValue(wide_d, n, Label("d", (i * 11) % shape.wide));
    for (TimeId t = 0; t < shape.times; ++t) {
      if (!rng.NextBool(0.4)) continue;
      graph.SetNodePresent(n, t);
      if (!rng.NextBool(0.1)) {
        graph.SetTimeVaryingValue(level, n, t,
                                  Label("l", rng.NextBelow(shape.levels)));
      }
      graph.SetTimeVaryingValue(mood, n, t, rng.NextBool(0.5) ? "up" : "down");
    }
  }
  const auto nodes = static_cast<std::uint32_t>(shape.nodes);
  for (std::size_t i = 0; i < shape.edges; ++i) {
    const NodeId u = rng.NextBelow(nodes);
    const NodeId v = rng.NextBelow(nodes);
    if (u == v) continue;
    const EdgeId e = graph.GetOrAddEdge(u, v);
    for (TimeId t = 0; t < shape.times; ++t) {
      if (rng.NextBool(0.3)) graph.SetEdgePresent(e, t);
    }
  }
  return graph;
}

}  // namespace graphtempo::testing

#endif  // GRAPHTEMPO_TESTS_TEST_GRAPHS_H_
