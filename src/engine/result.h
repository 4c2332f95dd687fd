#ifndef GRAPHTEMPO_ENGINE_RESULT_H_
#define GRAPHTEMPO_ENGINE_RESULT_H_

#include <cstdint>
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
/// wire order (engine/wire.h), as indices into the answer's own code-ordered
/// rows, 4 bytes a row. The result cache, every cache hit, every batch rider
/// and every response writer share the one object; copying a `QueryResult`
/// copies a pointer, never the rows, and a response capped by `top` writes a
/// prefix of the ranking instead of sorting again.

namespace graphtempo::engine {

/// The rows of an aggregate or evolution answer in wire order, as indices
/// into its code-ordered `nodes()` / `edges()`. Order: weight descending —
/// for evolution, stability + growth + shrinkage — then code ascending, which
/// is tuple order (src before dst for edges): a total order.
struct RankedRows {
  std::vector<std::uint32_t> nodes;
  std::vector<std::uint32_t> edges;
};

RankedRows RankRows(const AggregateGraph& graph);
RankedRows RankRows(const EvolutionAggregate& graph);

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

  /// The ranking of `aggregate()` or `evolution()`, whichever the kind
  /// selects; empty for exploration, whose pairs are already ordered by
  /// reference time point.
  const RankedRows& ranking() const { return answer_->ranking; }

 private:
  struct Answer {
    QueryKind kind = QueryKind::kAggregate;
    AggregateGraph aggregate;
    EvolutionAggregate evolution;
    ExplorationResult exploration;
    RankedRows ranking;
  };

  std::shared_ptr<const Answer> answer_;
};

}  // namespace graphtempo::engine

#endif  // GRAPHTEMPO_ENGINE_RESULT_H_
