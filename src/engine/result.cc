#include "engine/result.h"

#include <algorithm>
#include <utility>

namespace graphtempo::engine {

namespace {

/// Tuple codes ascending; a shorter tuple orders before its extensions.
int CompareKeys(const AttrTuple& a, const AttrTuple& b) {
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  return 0;
}

int CompareKeys(const AttrTuplePair& a, const AttrTuplePair& b) {
  const int src = CompareKeys(a.src, b.src);
  return src != 0 ? src : CompareKeys(a.dst, b.dst);
}

Weight RankWeight(Weight weight) { return weight; }

Weight RankWeight(const EvolutionWeights& weights) {
  return weights.stability + weights.growth + weights.shrinkage;
}

template <typename Map>
std::vector<const typename Map::value_type*> Rank(const Map& map) {
  std::vector<const typename Map::value_type*> rows;
  rows.reserve(map.size());
  for (const auto& row : map) rows.push_back(&row);
  std::sort(rows.begin(), rows.end(), [](const auto* a, const auto* b) {
    const Weight wa = RankWeight(a->second);
    const Weight wb = RankWeight(b->second);
    if (wa != wb) return wa > wb;
    return CompareKeys(a->first, b->first) < 0;
  });
  return rows;
}

}  // namespace

RankedRows<AggregateGraph> RankRows(const AggregateGraph& graph) {
  return {Rank(graph.nodes()), Rank(graph.edges())};
}

RankedRows<EvolutionAggregate> RankRows(const EvolutionAggregate& graph) {
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
  answer->aggregate_rows = RankRows(answer->aggregate);
  answer_ = std::move(answer);
}

QueryResult::QueryResult(EvolutionAggregate evolution) {
  auto answer = std::make_shared<Answer>();
  answer->kind = QueryKind::kEvolution;
  answer->evolution = std::move(evolution);
  answer->evolution_rows = RankRows(answer->evolution);
  answer_ = std::move(answer);
}

QueryResult::QueryResult(ExplorationResult exploration) {
  auto answer = std::make_shared<Answer>();
  answer->kind = QueryKind::kExplore;
  answer->exploration = std::move(exploration);
  answer_ = std::move(answer);
}

QueryResult QueryResult::Unranked(AggregateGraph aggregate) {
  auto answer = std::make_shared<Answer>();
  answer->aggregate = std::move(aggregate);
  answer->unranked = true;
  return QueryResult(std::shared_ptr<const Answer>(std::move(answer)));
}

AggregateGraph QueryResult::TakeAggregate() && {
  if (answer_->unranked) {
    // No other handle exists, and the answer was created non-const by
    // make_shared, so moving out of it is sound. (A ranked answer whose
    // use_count() reads 1 may still be racing a reader that just released
    // it; only construction can prove exclusivity.)
    return std::move(const_cast<Answer&>(*answer_).aggregate);
  }
  return answer_->aggregate;
}

}  // namespace graphtempo::engine
