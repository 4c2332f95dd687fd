#include "engine/result.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <numeric>
#include <span>
#include <utility>

#include "util/check.h"

namespace graphtempo::engine {

namespace {

Weight RankWeight(Weight weight) { return weight; }

Weight RankWeight(const EvolutionWeights& weights) {
  return weights.stability + weights.growth + weights.shrinkage;
}

/// The rows arrive in code order, so a stable sort of their indices by
/// weight descending ranks them: an LSD radix sort on (max − weight), 11 bits
/// a pass, and as many passes as the weight range needs (one for weights
/// below 2048). Linear where a comparison sort of 50k rows costs several ms.
template <typename W>
std::vector<std::uint32_t> Rank(std::span<const GroupRow<W>> rows) {
  GT_CHECK_LE(rows.size(), std::size_t{UINT32_MAX}) << "too many rows to rank";
  Weight lo = 0, hi = 0;
  for (const GroupRow<W>& row : rows) {
    lo = std::min(lo, RankWeight(row.weight));
    hi = std::max(hi, RankWeight(row.weight));
  }
  std::vector<std::uint64_t> keys(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    keys[i] = static_cast<std::uint64_t>(hi - RankWeight(rows[i].weight));
  }
  const std::uint64_t range = static_cast<std::uint64_t>(hi - lo);
  constexpr int kBits = 11;
  constexpr std::uint64_t kMask = (std::uint64_t{1} << kBits) - 1;
  std::vector<std::uint32_t> order(rows.size()), scratch(rows.size());
  std::iota(order.begin(), order.end(), 0u);
  for (int shift = 0; shift < 64 && (range >> shift) != 0; shift += kBits) {
    std::array<std::uint32_t, kMask + 2> start = {};
    for (std::uint32_t i : order) ++start[((keys[i] >> shift) & kMask) + 1];
    for (std::size_t d = 0; d <= kMask; ++d) start[d + 1] += start[d];
    for (std::uint32_t i : order) scratch[start[(keys[i] >> shift) & kMask]++] = i;
    order.swap(scratch);
  }
  return order;
}

}  // namespace

RankedRows RankRows(const AggregateGraph& graph) {
  return {Rank(graph.nodes()), Rank(graph.edges())};
}

RankedRows RankRows(const EvolutionAggregate& graph) {
  return {Rank(graph.nodes()), Rank(graph.edges())};
}

QueryResult::QueryResult() {
  static const std::shared_ptr<const Answer> kEmpty = std::make_shared<const Answer>();
  answer_ = kEmpty;
}

QueryResult::QueryResult(AggregateGraph aggregate) {
  auto answer = std::make_shared<Answer>();
  answer->kind = QueryKind::kAggregate;
  answer->aggregate = std::move(aggregate);
  answer->ranking = RankRows(answer->aggregate);
  answer_ = std::move(answer);
}

QueryResult::QueryResult(EvolutionAggregate evolution) {
  auto answer = std::make_shared<Answer>();
  answer->kind = QueryKind::kEvolution;
  answer->evolution = std::move(evolution);
  answer->ranking = RankRows(answer->evolution);
  answer_ = std::move(answer);
}

QueryResult::QueryResult(ExplorationResult exploration) {
  auto answer = std::make_shared<Answer>();
  answer->kind = QueryKind::kExplore;
  answer->exploration = std::move(exploration);
  answer_ = std::move(answer);
}

}  // namespace graphtempo::engine
