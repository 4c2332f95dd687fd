#ifndef GRAPHTEMPO_ENGINE_RESULT_H_
#define GRAPHTEMPO_ENGINE_RESULT_H_

#include <memory>
#include <vector>

#include "core/aggregation.h"
#include "core/evolution.h"
#include "core/exploration.h"
#include "engine/query_spec.h"

/// \file
/// `QueryResult`: a cheap, copyable handle to one executed answer.
///
/// An answer is built once — where the engine computes it, or where it is
/// reloaded from the spill tier — and is immutable from then on. It holds the
/// result of its kind together with that result's *ranking*: the rows in
/// wire order (engine/wire.h), as pointers into the answer's own maps, 8
/// bytes a row. The result cache, every cache hit, every batch rider and every
/// response writer share the one object; copying a `QueryResult` copies a
/// pointer, never a hash map, and a response capped by `top` writes a prefix
/// of the ranking instead of sorting again.

namespace graphtempo::engine {

/// The rows of an aggregate or evolution graph in wire order, as pointers
/// into the graph's own maps (valid while the graph is alive and unchanged).
/// Order: weight descending — for evolution, stability + growth + shrinkage
/// — then tuple codes ascending (src before dst for edges), a total order.
template <typename Graph>
struct RankedRows {
  std::vector<const typename Graph::NodeMap::value_type*> nodes;
  std::vector<const typename Graph::EdgeMap::value_type*> edges;
};

RankedRows<AggregateGraph> RankRows(const AggregateGraph& graph);
RankedRows<EvolutionAggregate> RankRows(const EvolutionAggregate& graph);

class QueryResult {
 public:
  /// An empty aggregate answer (one shared instance; no allocation).
  QueryResult();

  /// Takes ownership of an executed result and ranks it.
  explicit QueryResult(AggregateGraph aggregate);
  explicit QueryResult(EvolutionAggregate evolution);
  explicit QueryResult(ExplorationResult exploration);

  /// Mirrors the spec's kind; selects the populated member below (the other
  /// two are empty).
  QueryKind kind() const { return answer_->kind; }
  const AggregateGraph& aggregate() const { return answer_->aggregate; }
  const EvolutionAggregate& evolution() const { return answer_->evolution; }
  const ExplorationResult& exploration() const { return answer_->exploration; }

  /// The ranking of `aggregate()` / `evolution()`; empty for other kinds.
  /// Exploration pairs need none: they are already ordered by reference time
  /// point.
  const RankedRows<AggregateGraph>& aggregate_rows() const {
    return answer_->aggregate_rows;
  }
  const RankedRows<EvolutionAggregate>& evolution_rows() const {
    return answer_->evolution_rows;
  }

 private:
  friend class QueryEngine;

  struct Answer {
    QueryKind kind = QueryKind::kAggregate;
    AggregateGraph aggregate;
    EvolutionAggregate evolution;
    ExplorationResult exploration;
    RankedRows<AggregateGraph> aggregate_rows;
    RankedRows<EvolutionAggregate> evolution_rows;
    /// Built by `Unranked`: never ranked, never shared.
    bool unranked = false;
  };

  /// `QueryEngine::Execute`'s bypass path: an aggregate the caller takes
  /// straight back out, so it is left unranked. It is never cached or
  /// serialized, so the handle returned here stays its only one.
  static QueryResult Unranked(AggregateGraph aggregate);

  /// The aggregate: moved out of an `Unranked` answer (its only handle is
  /// this one), copied out of a ranked one (which the cache may share).
  AggregateGraph TakeAggregate() &&;

  explicit QueryResult(std::shared_ptr<const Answer> answer) : answer_(std::move(answer)) {}

  std::shared_ptr<const Answer> answer_;
};

}  // namespace graphtempo::engine

#endif  // GRAPHTEMPO_ENGINE_RESULT_H_
