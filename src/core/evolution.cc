#include "core/evolution.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/grouping_internal.h"
#include "obs/trace.h"
#include "util/parallel.h"

namespace graphtempo {

const char* EventTypeName(EventType event) {
  switch (event) {
    case EventType::kStability:
      return "stability";
    case EventType::kGrowth:
      return "growth";
    case EventType::kShrinkage:
      return "shrinkage";
  }
  GT_CHECK(false) << "invalid event type";
  __builtin_unreachable();
}

const GraphView& EvolutionGraph::ForEvent(EventType event) const {
  switch (event) {
    case EventType::kStability:
      return stability;
    case EventType::kGrowth:
      return growth;
    case EventType::kShrinkage:
      return shrinkage;
  }
  GT_CHECK(false) << "invalid event type";
  __builtin_unreachable();
}

EvolutionGraph MakeEvolutionGraph(const TemporalGraph& graph, const IntervalSet& t_old,
                                  const IntervalSet& t_new) {
  EvolutionGraph evolution;
  evolution.stability = IntersectionOp(graph, t_old, t_new);
  evolution.shrinkage = DifferenceOp(graph, t_old, t_new);
  evolution.growth = DifferenceOp(graph, t_new, t_old);
  return evolution;
}

Weight EvolutionWeights::ForEvent(EventType event) const {
  switch (event) {
    case EventType::kStability:
      return stability;
    case EventType::kGrowth:
      return growth;
    case EventType::kShrinkage:
      return shrinkage;
  }
  GT_CHECK(false) << "invalid event type";
  __builtin_unreachable();
}

namespace {

using internal_grouping::GroupWeights;
using internal_grouping::kGroupMinPerChunk;
using internal_grouping::NodeCodes;

void Bump(EvolutionWeights& weights, EventType event) {
  switch (event) {
    case EventType::kStability:
      ++weights.stability;
      break;
    case EventType::kGrowth:
      ++weights.growth;
      break;
    case EventType::kShrinkage:
      ++weights.shrinkage;
      break;
  }
}

/// The event of a group seen on the old side, the new side, or both.
EventType SideEvent(bool in_old, bool in_new) {
  if (in_old) return in_new ? EventType::kStability : EventType::kShrinkage;
  return EventType::kGrowth;
}

/// Calls `fn(entity, in_old, in_new)` for every entity of
/// `old_fold | new_fold` in [begin, end). `begin` is a multiple of 64, and
/// `end` is one too unless it is the set's size (ParallelPartition with
/// alignment 64), so whole words are visited.
template <typename Fn>
void ForEachInFolds(const DynamicBitset& old_fold, const DynamicBitset& new_fold,
                    std::size_t begin, std::size_t end, const Fn& fn) {
  const std::uint64_t* old_words = old_fold.word_data();
  const std::uint64_t* new_words = new_fold.word_data();
  for (std::size_t w = begin / 64; w < (end + 63) / 64; ++w) {
    for (std::uint64_t any = old_words[w] | new_words[w]; any != 0; any &= any - 1) {
      const int bit = std::countr_zero(any);
      fn(w * 64 + static_cast<std::size_t>(bit), ((old_words[w] >> bit) & 1) != 0,
         ((new_words[w] >> bit) & 1) != 0);
    }
  }
}

/// One distinct group code of an entity and the intervals it appeared in.
struct CodeSides {
  std::uint64_t code;
  bool in_old = false;
  bool in_new = false;
};

/// Runs the scan of one side (nodes or edges) on the pool, one private
/// GroupWeights per chunk (ScanChunks). With `static_codes`,
/// `code_of(entity)` is the entity's one code and fold membership decides
/// its event. Otherwise the appearances at `times` (T_old ∪ T_new, read off
/// the presence columns a word of entities at a time by SlotColumns) collect
/// each entity's distinct `code_at(entity, t)` (nullopt: hidden by the
/// filter) with the sides each appeared on — the per-entity DIST rule: a
/// code on both sides is stable, one only on the old side shrinks, one only
/// on the new side grows.
template <typename CodeOf, typename CodeAt>
std::vector<GroupWeights<EvolutionWeights>> ScanSide(
    const char* span_name, const PresenceIndex& presence, const DynamicBitset& old_fold,
    const DynamicBitset& new_fold, const IntervalSet& t_old, const IntervalSet& t_new,
    std::span<const TimeId> times, bool static_codes, std::uint64_t codes,
    std::size_t dense_max, const CodeOf& code_of, const CodeAt& code_at) {
  const std::size_t entities = old_fold.size();
  ParallelPartition partition(entities, kGroupMinPerChunk, /*alignment=*/64);
  GT_SPAN(span_name, {{"entities", entities}, {"chunks", partition.num_chunks()}});
  const internal_grouping::SlotColumns columns(presence, times);
  std::vector<char> slot_in_old(times.size()), slot_in_new(times.size());
  for (std::size_t s = 0; s < times.size(); ++s) {
    slot_in_old[s] = t_old.Contains(times[s]);
    slot_in_new[s] = t_new.Contains(times[s]);
  }
  const std::uint64_t* old_words = old_fold.word_data();
  const std::uint64_t* new_words = new_fold.word_data();
  auto scan_chunk = [&](std::size_t begin, std::size_t end, const auto& cell) {
    if (static_codes) {
      ForEachInFolds(old_fold, new_fold, begin, end,
                     [&](std::size_t entity, bool in_old, bool in_new) {
                       Bump(cell(code_of(entity)), SideEvent(in_old, in_new));
                     });
      return;
    }
    internal_grouping::EntityCodes<CodeSides> met(times.size());
    for (std::size_t w = begin / 64; w < (end + 63) / 64; ++w) {
      const std::uint64_t chosen = old_words[w] | new_words[w];
      if (chosen == 0) continue;
      met.Clear();
      columns.ForEachAppearance(w, chosen, [&](std::size_t i, std::size_t slot) {
        const std::optional<std::uint64_t> code = code_at(w * 64 + i, times[slot]);
        if (!code.has_value()) return;
        CodeSides& entry = *met.FindOrAdd(i, *code).first;
        entry.in_old |= slot_in_old[slot] != 0;
        entry.in_new |= slot_in_new[slot] != 0;
      });
      for (std::uint64_t bits = chosen; bits != 0; bits &= bits - 1) {
        for (const CodeSides& entry : met.Of(std::countr_zero(bits))) {
          Bump(cell(entry.code), SideEvent(entry.in_old, entry.in_new));
        }
      }
    }
  };
  return internal_grouping::ScanChunks<EvolutionWeights>(partition, codes <= dense_max,
                                                         codes, scan_chunk);
}

}  // namespace

EvolutionAggregate AggregateEvolution(const TemporalGraph& graph, const IntervalSet& t_old,
                                      const IntervalSet& t_new,
                                      std::span<const AttrRef> attrs,
                                      const NodeTimeFilter* filter) {
  GT_CHECK(!attrs.empty()) << "evolution aggregation needs at least one attribute";

  // Fold first: only entities present in T_old ∪ T_new can carry a tuple.
  DynamicBitset old_nodes, new_nodes, old_edges, new_edges;
  {
    GT_SPAN("evo/fold");
    old_nodes = graph.node_presence_index().UnionOver(t_old.bits());
    new_nodes = graph.node_presence_index().UnionOver(t_new.bits());
    old_edges = graph.edge_presence_index().UnionOver(t_old.bits());
    new_edges = graph.edge_presence_index().UnionOver(t_new.bits());
  }

  // With static attributes and no filter a node's tuple cannot change, so
  // each entity has one code and its event follows from the folds alone:
  // stability = old ∧ new, shrinkage = old − new, growth = new − old.
  const bool static_codes =
      filter == nullptr &&
      std::all_of(attrs.begin(), attrs.end(),
                  [](const AttrRef& ref) { return ref.kind == AttrRef::Kind::kStatic; });
  std::vector<TimeId> times;
  if (!static_codes) (t_old | t_new).ForEach([&](TimeId t) { times.push_back(t); });
  if (!static_codes && times.empty()) return EvolutionAggregate{};
  const NodeCodes codes(graph, attrs, times, filter, "evo/codes");
  const std::uint64_t cells = codes.cells();
  const std::span<const std::pair<NodeId, NodeId>> endpoints = graph.edge_endpoints();

  // Group by code (edge code: code(src) · cells + code(dst)), densely within
  // Algorithm 2's thresholds.
  std::vector<GroupWeights<EvolutionWeights>> node_parts = ScanSide(
      "evo/nodes_scan", graph.node_presence_index(), old_nodes, new_nodes, t_old, t_new,
      times, static_codes, cells, kDenseNodeCellsMax,
      [&](std::size_t n) { return codes.At(static_cast<NodeId>(n)); },
      [&](std::size_t n, TimeId t) -> std::optional<std::uint64_t> {
        const std::uint32_t code = codes.At(static_cast<NodeId>(n), t);
        if (code == NodeCodes::kHidden) return std::nullopt;
        return code;
      });
  std::vector<GroupWeights<EvolutionWeights>> edge_parts = ScanSide(
      "evo/edges_scan", graph.edge_presence_index(), old_edges, new_edges, t_old, t_new,
      times, static_codes, cells * cells, kDenseEdgePairsMax,
      [&](std::size_t e) {
        return codes.At(endpoints[e].first) * cells + codes.At(endpoints[e].second);
      },
      [&](std::size_t e, TimeId t) -> std::optional<std::uint64_t> {
        const std::uint32_t src = codes.At(endpoints[e].first, t);
        const std::uint32_t dst = codes.At(endpoints[e].second, t);
        if (src == NodeCodes::kHidden || dst == NodeCodes::kHidden) return std::nullopt;
        return src * cells + dst;
      });

  // Merge the chunks in ascending chunk order into code-ordered rows.
  GT_SPAN("evo/merge", {{"node_chunks", node_parts.size()},
                        {"edge_chunks", edge_parts.size()}});
  return EvolutionAggregate(codes.codec(),
                            internal_grouping::MergeChunks(node_parts).Rows(),
                            internal_grouping::MergeChunks(edge_parts).Rows());
}

namespace {

/// The groups of `rows` with a positive `event` weight, weight-descending
/// then code-ascending (tuple order), at most `top_k` of them.
std::vector<GroupRow<Weight>> TopRows(std::span<const GroupRow<EvolutionWeights>> rows,
                                      EventType event, std::size_t top_k) {
  std::vector<GroupRow<Weight>> top;
  for (const GroupRow<EvolutionWeights>& row : rows) {
    const Weight weight = row.weight.ForEvent(event);
    if (weight > 0) top.push_back({row.code, weight});
  }
  std::stable_sort(top.begin(), top.end(), [](const auto& a, const auto& b) {
    return a.weight > b.weight;
  });
  if (top.size() > top_k) top.resize(top_k);
  return top;
}

}  // namespace

TopEventGroups RankEventGroups(const TemporalGraph& graph, const IntervalSet& t_old,
                               const IntervalSet& t_new, std::span<const AttrRef> attrs,
                               EventType event, std::size_t top_k,
                               const NodeTimeFilter* filter) {
  const EvolutionAggregate evolution =
      AggregateEvolution(graph, t_old, t_new, attrs, filter);
  TopEventGroups top;
  for (const GroupRow<Weight>& row : TopRows(evolution.nodes(), event, top_k)) {
    top.nodes.push_back(RankedNodeGroup{evolution.NodeTuple(row.code), row.weight});
  }
  for (const GroupRow<Weight>& row : TopRows(evolution.edges(), event, top_k)) {
    top.edges.push_back(RankedEdgeGroup{evolution.EdgePair(row.code), row.weight});
  }
  return top;
}

}  // namespace graphtempo
