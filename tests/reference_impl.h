#ifndef GRAPHTEMPO_TESTS_REFERENCE_IMPL_H_
#define GRAPHTEMPO_TESTS_REFERENCE_IMPL_H_

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <initializer_list>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/aggregation.h"
#include "core/evolution.h"
#include "core/exploration.h"
#include "core/operators.h"
#include "core/temporal_graph.h"
#include "engine/plan.h"
#include "engine/query_spec.h"
#include "util/check.h"
#include "util/json.h"

/// \file
/// Literal, definition-by-definition reference implementations of the
/// paper's operators and aggregation, written for obviousness rather than
/// speed: τ as std::set<TimeId>, set algebra spelled out, no bit tricks, no
/// fast paths. Answers are built as tuple-keyed maps (`RefGroups`), with
/// tuple-keyed `RollUp`, symmetrization and weight sums beside them. The differential
/// test suites (`reference_test.cc`, `operator_kernel_test.cc`,
/// `aggregation_kernel_test.cc`, `answer_kernel_test.cc`,
/// `evolution_kernel_test.cc`, `exploration_kernel_test.cc`, `wire_test.cc`)
/// check the optimized library against these on randomized graphs; the
/// kernel ablations of the benchmarks time the per-entity operators.
///
/// The last section holds the reference response renderers: the query
/// service's JSON bodies built as a `json::Value` tree from the answer's
/// groups decoded into tuple-keyed maps and sorted by tuple, then
/// serialized — the wire format by definition, against which the library's
/// direct writers are pinned.

namespace graphtempo::testing {

/// τu(u) as an ordered set (Def 2.1).
inline std::set<TimeId> NodeTau(const TemporalGraph& graph, NodeId n) {
  std::set<TimeId> tau;
  for (TimeId t = 0; t < graph.num_times(); ++t) {
    if (graph.NodePresentAt(n, t)) tau.insert(t);
  }
  return tau;
}

/// τe(e) as an ordered set (Def 2.1).
inline std::set<TimeId> EdgeTau(const TemporalGraph& graph, EdgeId e) {
  std::set<TimeId> tau;
  for (TimeId t = 0; t < graph.num_times(); ++t) {
    if (graph.EdgePresentAt(e, t)) tau.insert(t);
  }
  return tau;
}

inline std::set<TimeId> ToSet(const IntervalSet& interval) {
  std::set<TimeId> result;
  interval.ForEach([&](TimeId t) { result.insert(t); });
  return result;
}

inline bool IntersectsSet(const std::set<TimeId>& a, const std::set<TimeId>& b) {
  return std::any_of(a.begin(), a.end(), [&](TimeId t) { return b.count(t) != 0; });
}

inline bool SubsetOfSet(const std::set<TimeId>& sub, const std::set<TimeId>& super) {
  return std::all_of(sub.begin(), sub.end(),
                     [&](TimeId t) { return super.count(t) != 0; });
}

/// Def 2.2 — projection: V₁ = {u : T₁ ⊆ τu(u)}, E₁ = {e : T₁ ⊆ τe(e)}.
inline GraphView RefProject(const TemporalGraph& graph, const IntervalSet& t1) {
  GraphView view;
  view.times = t1;
  std::set<TimeId> interval = ToSet(t1);
  for (NodeId n = 0; n < graph.num_nodes(); ++n) {
    if (SubsetOfSet(interval, NodeTau(graph, n))) view.nodes.push_back(n);
  }
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    if (SubsetOfSet(interval, EdgeTau(graph, e))) view.edges.push_back(e);
  }
  return view;
}

/// Def 2.3 — union: τ ∩ T₁ ≠ ∅ or τ ∩ T₂ ≠ ∅, defined on T₁ ∪ T₂.
inline GraphView RefUnion(const TemporalGraph& graph, const IntervalSet& t1,
                          const IntervalSet& t2) {
  GraphView view;
  view.times = t1 | t2;
  std::set<TimeId> s1 = ToSet(t1);
  std::set<TimeId> s2 = ToSet(t2);
  for (NodeId n = 0; n < graph.num_nodes(); ++n) {
    std::set<TimeId> tau = NodeTau(graph, n);
    if (IntersectsSet(tau, s1) || IntersectsSet(tau, s2)) view.nodes.push_back(n);
  }
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    std::set<TimeId> tau = EdgeTau(graph, e);
    if (IntersectsSet(tau, s1) || IntersectsSet(tau, s2)) view.edges.push_back(e);
  }
  return view;
}

/// Def 2.4 — intersection: τ ∩ T₁ ≠ ∅ and τ ∩ T₂ ≠ ∅, defined on T₁ ∪ T₂.
inline GraphView RefIntersection(const TemporalGraph& graph, const IntervalSet& t1,
                                 const IntervalSet& t2) {
  GraphView view;
  view.times = t1 | t2;
  std::set<TimeId> s1 = ToSet(t1);
  std::set<TimeId> s2 = ToSet(t2);
  for (NodeId n = 0; n < graph.num_nodes(); ++n) {
    std::set<TimeId> tau = NodeTau(graph, n);
    if (IntersectsSet(tau, s1) && IntersectsSet(tau, s2)) view.nodes.push_back(n);
  }
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    std::set<TimeId> tau = EdgeTau(graph, e);
    if (IntersectsSet(tau, s1) && IntersectsSet(tau, s2)) view.edges.push_back(e);
  }
  return view;
}

/// Def 2.5 — difference T₁ − T₂: E₋ = {e : τe ∩ T₁ ≠ ∅ ∧ τe ∩ T₂ = ∅};
/// V₋ = {u : τu ∩ T₁ ≠ ∅ ∧ (τu ∩ T₂ = ∅ ∨ ∃(u,v) ∈ E₋)}, defined on T₁.
inline GraphView RefDifference(const TemporalGraph& graph, const IntervalSet& t1,
                               const IntervalSet& t2) {
  GraphView view;
  view.times = t1;
  std::set<TimeId> s1 = ToSet(t1);
  std::set<TimeId> s2 = ToSet(t2);
  std::set<NodeId> difference_endpoints;
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    std::set<TimeId> tau = EdgeTau(graph, e);
    if (IntersectsSet(tau, s1) && !IntersectsSet(tau, s2)) {
      view.edges.push_back(e);
      auto [src, dst] = graph.edge(e);
      difference_endpoints.insert(src);
      difference_endpoints.insert(dst);
    }
  }
  for (NodeId n = 0; n < graph.num_nodes(); ++n) {
    std::set<TimeId> tau = NodeTau(graph, n);
    if (!IntersectsSet(tau, s1)) continue;
    if (!IntersectsSet(tau, s2) || difference_endpoints.count(n) != 0) {
      view.nodes.push_back(n);
    }
  }
  return view;
}

// --- Per-entity operators --------------------------------------------------------------
//
// The four operators entity at a time: one presence predicate per node or
// edge over the interval's time points, read through NodePresentAt /
// EdgePresentAt. Quicker than the set-based Ref* above, they are the
// reference of operator_kernel_test.cc and the row-scan baseline of the
// `kernel` field of the fig5/fig6/fig7 benchmarks.

/// The time points of `interval`, ascending.
inline std::vector<TimeId> TimesOf(const IntervalSet& interval) {
  std::vector<TimeId> times;
  interval.ForEach([&](TimeId t) { times.push_back(t); });
  return times;
}

/// Ids in [0, count) whose `present(id, t)` holds at some (`all`: every)
/// time point of `times`, ascending.
template <typename Present>
std::vector<std::uint32_t> EntitiesPresent(std::size_t count,
                                           const std::vector<TimeId>& times, bool all,
                                           const Present& present) {
  std::vector<std::uint32_t> ids;
  for (std::uint32_t id = 0; id < count; ++id) {
    auto at = [&](TimeId t) { return present(id, t); };
    if (all ? std::all_of(times.begin(), times.end(), at)
            : std::any_of(times.begin(), times.end(), at)) {
      ids.push_back(id);
    }
  }
  return ids;
}

inline std::vector<std::uint32_t> NodesPresent(const TemporalGraph& graph,
                                               const IntervalSet& interval, bool all) {
  return EntitiesPresent(graph.num_nodes(), TimesOf(interval), all,
                         [&](NodeId n, TimeId t) { return graph.NodePresentAt(n, t); });
}

inline std::vector<std::uint32_t> EdgesPresent(const TemporalGraph& graph,
                                               const IntervalSet& interval, bool all) {
  return EntitiesPresent(graph.num_edges(), TimesOf(interval), all,
                         [&](EdgeId e, TimeId t) { return graph.EdgePresentAt(e, t); });
}

/// Ids in both ascending id lists.
inline std::vector<std::uint32_t> BothOf(const std::vector<std::uint32_t>& a,
                                         const std::vector<std::uint32_t>& b) {
  std::vector<std::uint32_t> both;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(both));
  return both;
}

/// Def 2.2 — nodes and edges present at every time point of T₁.
inline GraphView ProjectRowScan(const TemporalGraph& graph, const IntervalSet& t1) {
  GT_CHECK(!t1.Empty()) << "projection interval must be non-empty";
  GraphView view;
  view.times = t1;
  view.nodes = NodesPresent(graph, t1, /*all=*/true);
  view.edges = EdgesPresent(graph, t1, /*all=*/true);
  return view;
}

/// Def 2.3 — present at some time point of T₁ ∪ T₂.
inline GraphView UnionOpRowScan(const TemporalGraph& graph, const IntervalSet& t1,
                                const IntervalSet& t2) {
  GraphView view;
  view.times = t1 | t2;
  view.nodes = NodesPresent(graph, view.times, /*all=*/false);
  view.edges = EdgesPresent(graph, view.times, /*all=*/false);
  return view;
}

/// Def 2.4 — present at some point of T₁ and at some point of T₂.
inline GraphView IntersectionOpRowScan(const TemporalGraph& graph, const IntervalSet& t1,
                                       const IntervalSet& t2) {
  GraphView view;
  view.times = t1 | t2;
  view.nodes = BothOf(NodesPresent(graph, t1, false), NodesPresent(graph, t2, false));
  view.edges = BothOf(EdgesPresent(graph, t1, false), EdgesPresent(graph, t2, false));
  return view;
}

/// Def 2.5 — edges present in T₁ and absent from T₂; nodes present in T₁
/// that are absent from T₂ or an endpoint of such an edge.
inline GraphView DifferenceOpRowScan(const TemporalGraph& graph, const IntervalSet& t1,
                                     const IntervalSet& t2) {
  GraphView view;
  view.times = t1;
  const std::vector<std::uint32_t> edges_in_t2 = EdgesPresent(graph, t2, false);
  for (EdgeId e : EdgesPresent(graph, t1, false)) {
    if (!std::binary_search(edges_in_t2.begin(), edges_in_t2.end(), e)) {
      view.edges.push_back(e);
    }
  }
  std::vector<char> difference_endpoint(graph.num_nodes(), 0);
  for (EdgeId e : view.edges) {
    difference_endpoint[graph.edge(e).first] = 1;
    difference_endpoint[graph.edge(e).second] = 1;
  }
  const std::vector<std::uint32_t> nodes_in_t2 = NodesPresent(graph, t2, false);
  for (NodeId n : NodesPresent(graph, t1, false)) {
    if (difference_endpoint[n] != 0 ||
        !std::binary_search(nodes_in_t2.begin(), nodes_in_t2.end(), n)) {
      view.nodes.push_back(n);
    }
  }
  return view;
}

// --- Tuple-keyed answers ------------------------------------------------------------

/// An answer as tuple-keyed weights: the definition-level form the
/// library's code-ordered rows (CodedGraph) are checked against.
template <typename W>
struct RefGroups {
  std::unordered_map<AttrTuple, W, AttrTupleHash> nodes;
  std::unordered_map<AttrTuplePair, W, AttrTuplePairHash> edges;
};

/// `groups` as a library answer, under the numbered codec of its tuples.
template <typename Graph, typename W>
Graph ToCodedGraph(const RefGroups<W>& groups) {
  std::vector<AttrTuple> tuples;
  for (const auto& [tuple, weight] : groups.nodes) tuples.push_back(tuple);
  for (const auto& [pair, weight] : groups.edges) {
    tuples.push_back(pair.src);
    tuples.push_back(pair.dst);
  }
  TupleCodec codec = TupleCodec::Numbered(tuples);
  std::vector<GroupRow<W>> nodes, edges;
  for (const auto& [tuple, weight] : groups.nodes) {
    nodes.push_back({*codec.Encode(tuple), weight});
  }
  for (const auto& [pair, weight] : groups.edges) {
    const std::uint64_t code =
        *codec.Encode(pair.src) * codec.cells() + *codec.Encode(pair.dst);
    edges.push_back({code, weight});
  }
  auto by_code = [](const GroupRow<W>& a, const GroupRow<W>& b) {
    return a.code < b.code;
  };
  std::sort(nodes.begin(), nodes.end(), by_code);
  std::sort(edges.begin(), edges.end(), by_code);
  return Graph(std::move(codec), std::move(nodes), std::move(edges));
}

/// A hand-built aggregate: node and edge weights by tuple (repeats sum).
inline AggregateGraph MakeAggregate(
    std::initializer_list<std::pair<AttrTuple, Weight>> nodes,
    std::initializer_list<std::pair<AttrTuplePair, Weight>> edges = {}) {
  RefGroups<Weight> groups;
  for (const auto& [tuple, weight] : nodes) groups.nodes[tuple] += weight;
  for (const auto& [pair, weight] : edges) groups.edges[pair] += weight;
  return ToCodedGraph<AggregateGraph>(groups);
}

/// An answer's groups, tuple-keyed (decoded through its codec).
template <typename W>
RefGroups<W> ToRefGroups(const CodedGraph<W>& graph) {
  RefGroups<W> groups;
  graph.ForEachNode([&](const AttrTuple& tuple, const W& weight) {
    groups.nodes[tuple] = weight;
  });
  graph.ForEachEdge([&](const AttrTuple& src, const AttrTuple& dst, const W& weight) {
    groups.edges[AttrTuplePair{src, dst}] = weight;
  });
  return groups;
}

/// `RollUp` on tuples: project every tuple to `keep`, sum by projection.
inline AggregateGraph RefRollUp(const AggregateGraph& aggregate,
                                std::span<const std::size_t> keep) {
  auto project = [&](const AttrTuple& tuple) {
    AttrTuple kept;
    for (std::size_t position : keep) kept.Append(tuple[position]);
    return kept;
  };
  RefGroups<Weight> groups;
  aggregate.ForEachNode([&](const AttrTuple& tuple, Weight weight) {
    groups.nodes[project(tuple)] += weight;
  });
  aggregate.ForEachEdge([&](const AttrTuple& src, const AttrTuple& dst, Weight weight) {
    groups.edges[AttrTuplePair{project(src), project(dst)}] += weight;
  });
  return ToCodedGraph<AggregateGraph>(groups);
}

/// `SymmetrizeAggregate` on tuples: (a, b) and (b, a) sum under the lower
/// tuple first.
inline AggregateGraph RefSymmetrize(const AggregateGraph& aggregate) {
  RefGroups<Weight> groups;
  aggregate.ForEachNode([&](const AttrTuple& tuple, Weight weight) {
    groups.nodes[tuple] += weight;
  });
  aggregate.ForEachEdge([&](const AttrTuple& src, const AttrTuple& dst, Weight weight) {
    groups.edges[dst < src ? AttrTuplePair{dst, src} : AttrTuplePair{src, dst}] += weight;
  });
  return ToCodedGraph<AggregateGraph>(groups);
}

/// `SumAggregates` on tuples: the weight-sum per tuple / tuple pair.
inline AggregateGraph RefSumAggregates(std::span<const AggregateGraph> parts) {
  RefGroups<Weight> groups;
  for (const AggregateGraph& part : parts) {
    part.ForEachNode([&](const AttrTuple& tuple, Weight weight) {
      groups.nodes[tuple] += weight;
    });
    part.ForEachEdge([&](const AttrTuple& src, const AttrTuple& dst, Weight weight) {
      groups.edges[AttrTuplePair{src, dst}] += weight;
    });
  }
  return ToCodedGraph<AggregateGraph>(groups);
}

/// Def 2.6 / Algorithm 2, literal form: unpivot every (entity, time)
/// appearance within the view interval, deduplicate per entity for DIST,
/// group-count. std::set keyed by value vectors — slow and obvious. With a
/// `filter`, a node appearance counts only if the filter passes it, and an
/// edge appearance only if it passes both endpoints at that time.
inline AggregateGraph RefAggregate(const TemporalGraph& graph, const GraphView& view,
                                   const std::vector<AttrRef>& attrs,
                                   AggregationSemantics semantics,
                                   const NodeTimeFilter* filter = nullptr) {
  RefGroups<Weight> result;
  std::set<TimeId> interval = ToSet(view.times);

  auto tuple_at = [&](NodeId n, TimeId t) {
    std::vector<AttrValueId> values;
    for (const AttrRef& ref : attrs) values.push_back(graph.ValueCodeAt(ref, n, t));
    return values;
  };
  auto to_attr_tuple = [](const std::vector<AttrValueId>& values) {
    AttrTuple tuple;
    for (AttrValueId value : values) tuple.Append(value);
    return tuple;
  };

  for (NodeId n : view.nodes) {
    std::set<std::vector<AttrValueId>> seen;
    for (TimeId t : interval) {
      if (!graph.NodePresentAt(n, t)) continue;
      if (filter != nullptr && !(*filter)(n, t)) continue;
      std::vector<AttrValueId> tuple = tuple_at(n, t);
      if (semantics == AggregationSemantics::kDistinct) {
        if (!seen.insert(tuple).second) continue;
      }
      result.nodes[to_attr_tuple(tuple)] += 1;
    }
  }
  for (EdgeId e : view.edges) {
    auto [src, dst] = graph.edge(e);
    std::set<std::pair<std::vector<AttrValueId>, std::vector<AttrValueId>>> seen;
    for (TimeId t : interval) {
      if (!graph.EdgePresentAt(e, t)) continue;
      if (filter != nullptr && (!(*filter)(src, t) || !(*filter)(dst, t))) continue;
      auto pair = std::make_pair(tuple_at(src, t), tuple_at(dst, t));
      if (semantics == AggregationSemantics::kDistinct) {
        if (!seen.insert(pair).second) continue;
      }
      const AttrTuplePair key{to_attr_tuple(pair.first), to_attr_tuple(pair.second)};
      ++result.edges[key];
    }
  }
  return ToCodedGraph<AggregateGraph>(result);
}

// --- Evolution (Def 2.7, Fig 4b) ----------------------------------------------------

/// Distinct tuples an entity carries within `interval`: for a node, the tuple
/// at each (present, unfiltered) time; for an edge, the endpoint tuple pair.
/// `present(t)` says whether the entity exists at t.
template <typename TupleType, typename PresentFn, typename TupleAtFn>
std::vector<TupleType> RefDistinctTuplesIn(const PresentFn& present,
                                           const IntervalSet& interval,
                                           const TupleAtFn& tuple_at) {
  std::vector<TupleType> tuples;
  interval.ForEach([&](TimeId t) {
    if (!present(t)) return;
    std::optional<TupleType> tuple = tuple_at(t);
    if (!tuple.has_value()) return;
    if (std::find(tuples.begin(), tuples.end(), *tuple) == tuples.end()) {
      tuples.push_back(*tuple);
    }
  });
  return tuples;
}

/// Adds `value` to the `event` weight of `weights`.
inline void RefAdd(EvolutionWeights& weights, EventType event, Weight value) {
  switch (event) {
    case EventType::kStability:
      weights.stability += value;
      break;
    case EventType::kGrowth:
      weights.growth += value;
      break;
    case EventType::kShrinkage:
      weights.shrinkage += value;
      break;
  }
}

/// Classifies old-vs-new tuple sets: a tuple on both sides is stable, one
/// only on the old side shrinks, one only on the new side grows.
template <typename TupleType, typename BumpFn>
void RefClassifyTransitions(const std::vector<TupleType>& old_tuples,
                            const std::vector<TupleType>& new_tuples, const BumpFn& bump) {
  for (const TupleType& tuple : old_tuples) {
    bool survived =
        std::find(new_tuples.begin(), new_tuples.end(), tuple) != new_tuples.end();
    bump(tuple, survived ? EventType::kStability : EventType::kShrinkage);
  }
  for (const TupleType& tuple : new_tuples) {
    bool existed =
        std::find(old_tuples.begin(), old_tuples.end(), tuple) != old_tuples.end();
    if (!existed) bump(tuple, EventType::kGrowth);
  }
}

/// `AggregateEvolution` entity by entity: every node and edge of the graph,
/// two tuple vectors per entity, hashed weights. No fold, no packing, serial.
inline EvolutionAggregate RefAggregateEvolution(const TemporalGraph& graph,
                                                const IntervalSet& t_old,
                                                const IntervalSet& t_new,
                                                std::span<const AttrRef> attrs,
                                                const NodeTimeFilter* filter = nullptr) {
  RefGroups<EvolutionWeights> result;
  for (NodeId n = 0; n < graph.num_nodes(); ++n) {
    auto tuple_at = [&](TimeId t) -> std::optional<AttrTuple> {
      if (filter != nullptr && !(*filter)(n, t)) return std::nullopt;
      return TupleAt(graph, attrs, n, t);
    };
    auto present = [&](TimeId t) { return graph.NodePresentAt(n, t); };
    std::vector<AttrTuple> old_tuples =
        RefDistinctTuplesIn<AttrTuple>(present, t_old, tuple_at);
    std::vector<AttrTuple> new_tuples =
        RefDistinctTuplesIn<AttrTuple>(present, t_new, tuple_at);
    RefClassifyTransitions<AttrTuple>(
        old_tuples, new_tuples, [&](const AttrTuple& tuple, EventType event) {
          RefAdd(result.nodes[tuple], event, 1);
        });
  }
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    auto [src, dst] = graph.edge(e);
    auto pair_at = [&](TimeId t) -> std::optional<AttrTuplePair> {
      if (filter != nullptr && (!(*filter)(src, t) || !(*filter)(dst, t))) {
        return std::nullopt;
      }
      return AttrTuplePair{TupleAt(graph, attrs, src, t), TupleAt(graph, attrs, dst, t)};
    };
    auto present = [&](TimeId t) { return graph.EdgePresentAt(e, t); };
    std::vector<AttrTuplePair> old_pairs =
        RefDistinctTuplesIn<AttrTuplePair>(present, t_old, pair_at);
    std::vector<AttrTuplePair> new_pairs =
        RefDistinctTuplesIn<AttrTuplePair>(present, t_new, pair_at);
    RefClassifyTransitions<AttrTuplePair>(
        old_pairs, new_pairs, [&](const AttrTuplePair& pair, EventType event) {
          RefAdd(result.edges[pair], event, 1);
        });
  }
  return ToCodedGraph<EvolutionAggregate>(result);
}

/// Aggregates the evolution graph component-wise (paper: "considering each
/// such graph separately"): the intersection and the two difference graphs
/// are each aggregated with `options` and overlaid into one structure. Unlike
/// `AggregateEvolution`, component aggregates follow the operator node rules
/// verbatim (Def 2.5's endpoint rule included) and support ALL semantics.
inline EvolutionAggregate AggregateEvolutionComponents(const TemporalGraph& graph,
                                                       const IntervalSet& t_old,
                                                       const IntervalSet& t_new,
                                                       std::span<const AttrRef> attrs,
                                                       const AggregationOptions& options) {
  EvolutionGraph evolution = MakeEvolutionGraph(graph, t_old, t_new);
  RefGroups<EvolutionWeights> result;
  for (EventType event :
       {EventType::kStability, EventType::kGrowth, EventType::kShrinkage}) {
    AggregateGraph component = Aggregate(graph, evolution.ForEvent(event), attrs, options);
    component.ForEachNode([&](const AttrTuple& tuple, Weight weight) {
      RefAdd(result.nodes[tuple], event, weight);
    });
    component.ForEachEdge([&](const AttrTuple& src, const AttrTuple& dst, Weight weight) {
      RefAdd(result.edges[AttrTuplePair{src, dst}], event, weight);
    });
  }
  return ToCodedGraph<EvolutionAggregate>(result);
}

// --- Exploration (Section 3, Table 1) -----------------------------------------

/// Whether an entity with lifespan `tau` belongs to a side: present at ≥1
/// point of `side` (union semantics) or at every point (intersection).
inline bool RefInSide(const std::set<TimeId>& tau, TimeRange side,
                      ExtensionSemantics semantics) {
  bool any = false;
  bool all = true;
  for (TimeId t = side.first; t <= side.last; ++t) {
    const bool present = tau.count(t) != 0;
    any = any || present;
    all = all && present;
  }
  return semantics == ExtensionSemantics::kUnion ? any : all;
}

/// The event graph between two sides as a view, composing Section 2's
/// operators with Section 3.1's side semantics: stability — in the old and
/// the new side, defined on O ∪ N; growth — in the new side and not the old,
/// defined on N; shrinkage — its mirror, defined on O. Growth and shrinkage
/// keep Def 2.5's node rule: a surviving node joins as the endpoint of a
/// difference edge.
inline GraphView RefEventView(const TemporalGraph& graph, TimeRange old_range,
                              TimeRange new_range, ExtensionSemantics semantics,
                              EventType event) {
  const std::size_t n = graph.num_times();
  const IntervalSet old_side = IntervalSet::Of(n, old_range);
  const IntervalSet new_side = IntervalSet::Of(n, new_range);
  GraphView view;
  view.times = event == EventType::kStability ? old_side | new_side
               : event == EventType::kGrowth  ? new_side
                                              : old_side;
  auto member = [&](bool in_old, bool in_new) {
    switch (event) {
      case EventType::kStability:
        return in_old && in_new;
      case EventType::kGrowth:
        return in_new && !in_old;
      case EventType::kShrinkage:
        return in_old && !in_new;
    }
    return false;
  };
  std::set<NodeId> difference_endpoints;
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    const std::set<TimeId> tau = EdgeTau(graph, e);
    if (!member(RefInSide(tau, old_range, semantics),
                RefInSide(tau, new_range, semantics))) {
      continue;
    }
    view.edges.push_back(e);
    if (event == EventType::kStability) continue;
    auto [src, dst] = graph.edge(e);
    difference_endpoints.insert(src);
    difference_endpoints.insert(dst);
  }
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    const std::set<TimeId> tau = NodeTau(graph, v);
    const bool in_old = RefInSide(tau, old_range, semantics);
    const bool in_new = RefInSide(tau, new_range, semantics);
    const bool on_changing_side = event == EventType::kGrowth ? in_new : in_old;
    if (member(in_old, in_new) ||
        (event != EventType::kStability && on_changing_side &&
         difference_endpoints.count(v) != 0)) {
      view.nodes.push_back(v);
    }
  }
  return view;
}

/// `result(G)` of one candidate pair by definition: the event view,
/// aggregated with `RefAggregate` under the selector, read as one total or
/// one group's weight. Raw selectors count the view's entities.
inline Weight RefCountEvents(const TemporalGraph& graph, TimeRange old_range,
                             TimeRange new_range, ExtensionSemantics semantics,
                             EventType event, const EntitySelector& selector) {
  const GraphView view = RefEventView(graph, old_range, new_range, semantics, event);
  const bool nodes = selector.kind == EntitySelector::Kind::kNodes;
  if (selector.attrs.empty()) {
    return static_cast<Weight>(nodes ? view.nodes.size() : view.edges.size());
  }
  const AggregateGraph aggregate =
      RefAggregate(graph, view, selector.attrs, selector.semantics);
  if (nodes) {
    return selector.node_tuple.has_value() ? aggregate.NodeWeight(*selector.node_tuple)
                                           : aggregate.TotalNodeWeight();
  }
  return selector.src_tuple.has_value()
             ? aggregate.EdgeWeight(*selector.src_tuple, *selector.dst_tuple)
             : aggregate.TotalEdgeWeight();
}

/// U-/I-Explore over `num_times` time points with candidate counts from
/// `count(old_range, new_range)`. `pruned` follows Table 1 the way `Explore`
/// does (per reference: the first qualifying extension where the count
/// grows, the shortest only where it shrinks; for maximal pairs the longest
/// only where it grows, extension while it qualifies where it shrinks);
/// otherwise every extension is evaluated, as `ExploreNaive` does, and the
/// shortest (union) or longest (intersection) qualifying one is kept.
template <typename CountFn>
ExplorationResult RefExplore(std::size_t num_times, const ExplorationSpec& spec,
                             bool pruned, const CountFn& count) {
  const bool from_old = spec.reference == ReferenceEnd::kOld;
  const bool minimal = spec.semantics == ExtensionSemantics::kUnion;
  const bool increasing =
      IsMonotonicallyIncreasing(spec.event, spec.reference, spec.semantics);
  auto pair_at = [&](TimeId ref, std::size_t len) -> std::pair<TimeRange, TimeRange> {
    if (from_old) {
      return {TimeRange{ref, ref}, TimeRange{ref + 1, static_cast<TimeId>(ref + len)}};
    }
    return {TimeRange{static_cast<TimeId>(ref - len), static_cast<TimeId>(ref - 1)},
            TimeRange{ref, ref}};
  };
  ExplorationResult result;
  for (TimeId ref = from_old ? 0 : 1; ref < (from_old ? num_times - 1 : num_times); ++ref) {
    const std::size_t max_len = from_old ? num_times - 1 - ref : ref;
    std::vector<std::size_t> lengths;
    if (!pruned || (minimal && increasing) || (!minimal && !increasing)) {
      for (std::size_t len = 1; len <= max_len; ++len) lengths.push_back(len);
    } else {
      lengths.push_back(minimal ? 1 : max_len);
    }
    std::optional<IntervalPair> chosen;
    for (std::size_t len : lengths) {
      auto [old_range, new_range] = pair_at(ref, len);
      ++result.evaluations;
      const Weight weight = count(old_range, new_range);
      if (weight < spec.k) {
        if (pruned && !minimal) break;  // I-Explore: the first failure ends it
        continue;
      }
      if (!minimal || !chosen.has_value()) {
        chosen = IntervalPair{old_range, new_range, weight};
      }
      if (pruned && minimal) break;  // U-Explore: the first success ends it
    }
    if (chosen.has_value()) result.pairs.push_back(*chosen);
  }
  return result;
}

// --- Reference response renderers (engine/wire.h formats) --------------------

/// Tuple codes ascending; a shorter tuple orders before its extensions.
inline int RefCompareTuples(const AttrTuple& a, const AttrTuple& b) {
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  return 0;
}

/// One attribute tuple as an array of labels, `null` for kNoValue.
inline json::Value RefTupleToJson(const TemporalGraph& graph,
                                  std::span<const AttrRef> attrs, const AttrTuple& tuple) {
  json::Value array = json::Value::Array();
  for (std::size_t i = 0; i < tuple.size(); ++i) {
    if (tuple[i] == kNoValue) {
      array.Append(json::Value::Null());
    } else {
      array.Append(json::Value::String(graph.ValueName(attrs[i], tuple[i])));
    }
  }
  return array;
}

inline std::string RefFingerprintHex(std::uint64_t fingerprint) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "0x%016" PRIx64, fingerprint);
  return buffer;
}

inline std::string RefIntervalLabel(const TemporalGraph& graph,
                                    const IntervalSet& interval) {
  if (interval.Empty()) return "{}";
  TimeId first = interval.First();
  TimeId last = interval.Last();
  if (first == last) return graph.time_label(first);
  return graph.time_label(first) + ".." + graph.time_label(last);
}

/// Copies `map`'s rows and sorts them by `weight_of` descending, then tuple
/// codes ascending (kNoValue, the largest code, last).
template <typename Map, typename WeightOf>
std::vector<std::pair<typename Map::key_type, typename Map::mapped_type>> RefSortedRows(
    const Map& map, WeightOf weight_of) {
  std::vector<std::pair<typename Map::key_type, typename Map::mapped_type>> rows(
      map.begin(), map.end());
  std::sort(rows.begin(), rows.end(), [&](const auto& a, const auto& b) {
    if (weight_of(a.second) != weight_of(b.second)) {
      return weight_of(a.second) > weight_of(b.second);
    }
    if constexpr (std::is_same_v<typename Map::key_type, AttrTuple>) {
      return RefCompareTuples(a.first, b.first) < 0;
    } else {
      int src = RefCompareTuples(a.first.src, b.first.src);
      if (src != 0) return src < 0;
      return RefCompareTuples(a.first.dst, b.first.dst) < 0;
    }
  });
  return rows;
}

inline std::size_t RefRowLimit(std::size_t top, std::size_t rows) {
  return top == 0 ? rows : std::min(top, rows);
}

/// Reference for `wire::ResultToJson`.
inline std::string RefResultToJson(const TemporalGraph& graph, const engine::QuerySpec& spec,
                                   const engine::QueryPlan& plan,
                                   const AggregateGraph& result, std::size_t top) {
  auto weight = [](Weight w) { return w; };
  const RefGroups<Weight> groups = ToRefGroups(result);
  const auto nodes = RefSortedRows(groups.nodes, weight);
  const auto edges = RefSortedRows(groups.edges, weight);

  json::Value response = json::Value::Object();
  response.Set("fingerprint", json::Value::String(RefFingerprintHex(plan.fingerprint)));
  response.Set("route", json::Value::String(engine::PlanRouteName(plan.route)));
  response.Set("interval",
               json::Value::String(RefIntervalLabel(graph, spec.EvaluationInterval())));
  response.Set("semantics",
               json::Value::String(
                   spec.semantics == AggregationSemantics::kDistinct ? "DIST" : "ALL"));
  response.Set("node_count", json::Value::Number(static_cast<std::uint64_t>(nodes.size())));
  response.Set("edge_count", json::Value::Number(static_cast<std::uint64_t>(edges.size())));

  json::Value node_rows = json::Value::Array();
  for (std::size_t i = 0; i < RefRowLimit(top, nodes.size()); ++i) {
    json::Value row = json::Value::Object();
    row.Set("tuple", RefTupleToJson(graph, spec.attrs, nodes[i].first));
    row.Set("weight", json::Value::Number(static_cast<std::int64_t>(nodes[i].second)));
    node_rows.Append(std::move(row));
  }
  response.Set("nodes", std::move(node_rows));

  json::Value edge_rows = json::Value::Array();
  for (std::size_t i = 0; i < RefRowLimit(top, edges.size()); ++i) {
    json::Value row = json::Value::Object();
    row.Set("src", RefTupleToJson(graph, spec.attrs, edges[i].first.src));
    row.Set("dst", RefTupleToJson(graph, spec.attrs, edges[i].first.dst));
    row.Set("weight", json::Value::Number(static_cast<std::int64_t>(edges[i].second)));
    edge_rows.Append(std::move(row));
  }
  response.Set("edges", std::move(edge_rows));
  return response.Serialize();
}

/// Reference for `wire::EvolutionToJson`.
inline std::string RefEvolutionToJson(const TemporalGraph& graph,
                                      const engine::QuerySpec& spec,
                                      const engine::QueryPlan& plan,
                                      const EvolutionAggregate& result, std::size_t top) {
  auto total = [](const EvolutionWeights& w) { return w.stability + w.growth + w.shrinkage; };
  const RefGroups<EvolutionWeights> groups = ToRefGroups(result);
  const auto nodes = RefSortedRows(groups.nodes, total);
  const auto edges = RefSortedRows(groups.edges, total);

  json::Value response = json::Value::Object();
  response.Set("kind", json::Value::String("evolution"));
  response.Set("fingerprint", json::Value::String(RefFingerprintHex(plan.fingerprint)));
  response.Set("route", json::Value::String(engine::PlanRouteName(plan.route)));
  response.Set("old", json::Value::String(RefIntervalLabel(graph, spec.t1)));
  response.Set("new", json::Value::String(RefIntervalLabel(graph, spec.t2)));
  response.Set("node_count", json::Value::Number(static_cast<std::uint64_t>(nodes.size())));
  response.Set("edge_count", json::Value::Number(static_cast<std::uint64_t>(edges.size())));

  auto weights_fields = [](json::Value* row, const EvolutionWeights& w) {
    row->Set("stability", json::Value::Number(static_cast<std::int64_t>(w.stability)));
    row->Set("growth", json::Value::Number(static_cast<std::int64_t>(w.growth)));
    row->Set("shrinkage", json::Value::Number(static_cast<std::int64_t>(w.shrinkage)));
  };

  json::Value node_rows = json::Value::Array();
  for (std::size_t i = 0; i < RefRowLimit(top, nodes.size()); ++i) {
    json::Value row = json::Value::Object();
    row.Set("tuple", RefTupleToJson(graph, spec.attrs, nodes[i].first));
    weights_fields(&row, nodes[i].second);
    node_rows.Append(std::move(row));
  }
  response.Set("nodes", std::move(node_rows));

  json::Value edge_rows = json::Value::Array();
  for (std::size_t i = 0; i < RefRowLimit(top, edges.size()); ++i) {
    json::Value row = json::Value::Object();
    row.Set("src", RefTupleToJson(graph, spec.attrs, edges[i].first.src));
    row.Set("dst", RefTupleToJson(graph, spec.attrs, edges[i].first.dst));
    weights_fields(&row, edges[i].second);
    edge_rows.Append(std::move(row));
  }
  response.Set("edges", std::move(edge_rows));
  return response.Serialize();
}

/// Reference for `wire::ExplorationToJson`.
inline std::string RefExplorationToJson(const TemporalGraph& graph,
                                        const engine::QuerySpec& spec,
                                        const engine::QueryPlan& plan,
                                        const ExplorationResult& result, std::size_t top) {
  json::Value response = json::Value::Object();
  response.Set("kind", json::Value::String("explore"));
  response.Set("fingerprint", json::Value::String(RefFingerprintHex(plan.fingerprint)));
  response.Set("route", json::Value::String(engine::PlanRouteName(plan.route)));
  response.Set("event", json::Value::String(EventTypeName(spec.explore.event)));
  response.Set("extension",
               json::Value::String(spec.explore.semantics == ExtensionSemantics::kUnion
                                       ? "union"
                                       : "intersection"));
  response.Set("reference",
               json::Value::String(spec.explore.reference == ReferenceEnd::kOld
                                       ? "old"
                                       : "new"));
  response.Set("k", json::Value::Number(static_cast<std::uint64_t>(spec.explore.k)));
  response.Set("pair_count",
               json::Value::Number(static_cast<std::uint64_t>(result.pairs.size())));
  response.Set("evaluations",
               json::Value::Number(static_cast<std::uint64_t>(result.evaluations)));

  auto range_label = [&](TimeRange range) {
    if (range.first == range.last) return graph.time_label(range.first);
    return graph.time_label(range.first) + ".." + graph.time_label(range.last);
  };
  json::Value pair_rows = json::Value::Array();
  for (std::size_t i = 0; i < RefRowLimit(top, result.pairs.size()); ++i) {
    const IntervalPair& pair = result.pairs[i];
    json::Value row = json::Value::Object();
    row.Set("old", json::Value::String(range_label(pair.old_range)));
    row.Set("new", json::Value::String(range_label(pair.new_range)));
    row.Set("count", json::Value::Number(static_cast<std::int64_t>(pair.count)));
    pair_rows.Append(std::move(row));
  }
  response.Set("pairs", std::move(pair_rows));
  return response.Serialize();
}

/// Reference for `wire::PlanToJson`.
inline std::string RefPlanToJson(const engine::QueryPlan& plan) {
  json::Value response = json::Value::Object();
  response.Set("fingerprint", json::Value::String(RefFingerprintHex(plan.fingerprint)));
  response.Set("route", json::Value::String(engine::PlanRouteName(plan.route)));
  response.Set("cacheable", json::Value::Bool(plan.cacheable));
  response.Set("stale_fallback", json::Value::Bool(plan.stale_fallback));
  response.Set("planner", json::Value::String(engine::PlannerModeName(plan.planner)));
  response.Set("cost_direct_us", json::Value::Number(plan.cost.direct_us));
  if (plan.cost.materialized_us >= 0.0) {
    response.Set("cost_materialized_us", json::Value::Number(plan.cost.materialized_us));
  } else {
    response.Set("cost_materialized_us", json::Value::Null());
  }
  json::Value steps = json::Value::Array();
  for (const engine::PlanStep& step : plan.steps) {
    json::Value row = json::Value::Object();
    row.Set("kind", json::Value::String(step.kind));
    row.Set("detail", json::Value::String(step.detail));
    steps.Append(std::move(row));
  }
  response.Set("steps", std::move(steps));
  response.Set("explain", json::Value::String(plan.Explain()));
  return response.Serialize();
}

}  // namespace graphtempo::testing

#endif  // GRAPHTEMPO_TESTS_REFERENCE_IMPL_H_
