#include "core/operators.h"

#include <algorithm>
#include <deque>
#include <span>
#include <utility>

#include "accel/backend.h"
#include "core/stats.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/parallel.h"

namespace graphtempo {

namespace {

void CheckDomain(const TemporalGraph& graph, const IntervalSet& interval) {
  GT_CHECK_EQ(interval.domain_size(), graph.num_times())
      << "interval defined over a different time domain than the graph";
}

/// Words per chunk below which bitset→index extraction runs inline.
/// Extraction is one countr_zero per set bit, so chunks must be sizeable.
constexpr std::size_t kExtractMinWordsPerChunk = 2048;

/// Materializes the set bits of `bits` as ascending entity ids.
///
/// Parallelized over disjoint 64-bit *word* ranges: each chunk extracts its
/// words into a private vector and the per-chunk vectors are concatenated in
/// chunk order. Within a word bits come out in ascending order and chunks own
/// ascending, disjoint word ranges, so the result is bit-identical to a
/// serial scan at any thread count.
std::vector<std::uint32_t> ExtractIndices(const DynamicBitset& bits) {
  const std::size_t words = bits.num_words();
  GT_SPAN("operators/extract", {{"words", words}});
  internal_counters::AddKernelWords(words);
  // One backend dispatch per extraction, not per chunk/word range.
  const accel::KernelBackend& backend = accel::ActiveBackend();
  const std::uint64_t* word_data = bits.word_data();
  ParallelPartition partition(words, kExtractMinWordsPerChunk, /*alignment=*/1);
  if (partition.num_chunks() == 1) {
    std::vector<std::uint32_t> out;
    out.reserve(backend.popcount(word_data, words));
    backend.extract_indices(word_data, 0, words, out);
    return out;
  }
  std::vector<std::vector<std::uint32_t>> parts(partition.num_chunks());
  partition.Run([&](std::size_t chunk, std::size_t begin, std::size_t end) {
    parts[chunk].reserve(backend.popcount(word_data + begin, end - begin));
    backend.extract_indices(word_data, begin, end, parts[chunk]);
  });
  std::size_t total = 0;
  for (const auto& part : parts) total += part.size();
  std::vector<std::uint32_t> out;
  out.reserve(total);
  for (const auto& part : parts) out.insert(out.end(), part.begin(), part.end());
  return out;
}

}  // namespace

// --- Kernel path ---------------------------------------------------------------
//
// The four operators run on the column-major PresenceIndex as pure bitset
// algebra over entity sets (docs/KERNELS.md):
//
//   Project(T₁)           = AND of the T₁ columns
//   Union(T₁, T₂)         = OR of the (T₁ ∪ T₂) columns
//   Intersection(T₁, T₂)  = OR(T₁) & OR(T₂)
//   Difference(T₁, T₂)    = OR(T₁) −E OR(T₂), plus the endpoint fix-up on V
//
// Contiguous intervals fold in two column ops via the sparse-table interval
// index; the folds and the final id extraction are word-parallel and
// chunk-ordered, so results are bit-identical at any thread count and to the
// per-entity references in tests/reference_impl.h.

namespace {

/// The provider behind the classic (provider-less) operator entry points:
/// computes every fold fresh, parking results in a deque so references stay
/// stable for the duration of one operator call. This keeps the provider
/// overloads the single implementation of the operator algebra — the classic
/// spellings are exact delegations, bit-identical to what they always did.
class TransientFoldProvider final : public PresenceFoldProvider {
 public:
  const DynamicBitset& UnionFold(const PresenceIndex& index,
                                 const DynamicBitset& times) override {
    storage_.push_back(index.UnionOver(times));
    return storage_.back();
  }
  const DynamicBitset& IntersectionFold(const PresenceIndex& index,
                                        const DynamicBitset& times) override {
    storage_.push_back(index.IntersectionOver(times));
    return storage_.back();
  }

 private:
  std::deque<DynamicBitset> storage_;
};

}  // namespace

GraphView Project(const TemporalGraph& graph, const IntervalSet& t1) {
  TransientFoldProvider folds;
  return Project(graph, t1, folds);
}

GraphView Project(const TemporalGraph& graph, const IntervalSet& t1,
                  PresenceFoldProvider& folds) {
  CheckDomain(graph, t1);
  GT_CHECK(!t1.Empty()) << "projection interval must be non-empty";
  GT_SPAN("operators/project", {{"times", t1.Count()}});
  GraphView view;
  view.times = t1;
  view.nodes = ExtractIndices(folds.IntersectionFold(graph.node_presence_index(), t1.bits()));
  view.edges = ExtractIndices(folds.IntersectionFold(graph.edge_presence_index(), t1.bits()));
  return view;
}

GraphView UnionOp(const TemporalGraph& graph, const IntervalSet& t1,
                  const IntervalSet& t2) {
  TransientFoldProvider folds;
  return UnionOp(graph, t1, t2, folds);
}

GraphView UnionOp(const TemporalGraph& graph, const IntervalSet& t1,
                  const IntervalSet& t2, PresenceFoldProvider& folds) {
  CheckDomain(graph, t1);
  CheckDomain(graph, t2);
  GT_SPAN("operators/union", {{"times", t1.Count() + t2.Count()}});
  GraphView view;
  view.times = t1 | t2;
  const DynamicBitset& mask = view.times.bits();
  view.nodes = ExtractIndices(folds.UnionFold(graph.node_presence_index(), mask));
  view.edges = ExtractIndices(folds.UnionFold(graph.edge_presence_index(), mask));
  return view;
}

GraphView IntersectionOp(const TemporalGraph& graph, const IntervalSet& t1,
                         const IntervalSet& t2) {
  TransientFoldProvider folds;
  return IntersectionOp(graph, t1, t2, folds);
}

GraphView IntersectionOp(const TemporalGraph& graph, const IntervalSet& t1,
                         const IntervalSet& t2, PresenceFoldProvider& folds) {
  CheckDomain(graph, t1);
  CheckDomain(graph, t2);
  GT_SPAN("operators/intersection", {{"times", t1.Count() + t2.Count()}});
  GraphView view;
  view.times = t1 | t2;
  const PresenceIndex& nodes = graph.node_presence_index();
  view.nodes =
      ExtractIndices(folds.UnionFold(nodes, t1.bits()) & folds.UnionFold(nodes, t2.bits()));
  const PresenceIndex& edges = graph.edge_presence_index();
  view.edges =
      ExtractIndices(folds.UnionFold(edges, t1.bits()) & folds.UnionFold(edges, t2.bits()));
  return view;
}

GraphView DifferenceOp(const TemporalGraph& graph, const IntervalSet& t1,
                       const IntervalSet& t2) {
  TransientFoldProvider folds;
  return DifferenceOp(graph, t1, t2, folds);
}

GraphView DifferenceOp(const TemporalGraph& graph, const IntervalSet& t1,
                       const IntervalSet& t2, PresenceFoldProvider& folds) {
  CheckDomain(graph, t1);
  CheckDomain(graph, t2);
  GT_SPAN("operators/difference", {{"times", t1.Count() + t2.Count()}});
  GraphView view;
  view.times = t1;  // Def 2.5: the result is defined on T₁ (τu_(u) = τu(u) ∩ T₁).

  // E₋ first: nodes depend on it (a surviving node still joins V₋ when it is
  // an endpoint of a deleted edge).
  const PresenceIndex& edges = graph.edge_presence_index();
  view.edges =
      ExtractIndices(folds.UnionFold(edges, t1.bits()) - folds.UnionFold(edges, t2.bits()));

  // V₋ = (V(T₁) − V(T₂)) ∪ (V(T₁) ∩ endpoints(E₋)). Only survivors, the
  // nodes of V(T₁) ∩ V(T₂), can join through the second term: mark those
  // among the endpoints of E₋, and stop once every survivor is marked.
  const PresenceIndex& nodes = graph.node_presence_index();
  const DynamicBitset& n1 = folds.UnionFold(nodes, t1.bits());
  const DynamicBitset& n2 = folds.UnionFold(nodes, t2.bits());
  DynamicBitset members = n1 - n2;
  DynamicBitset survivors = n1 & n2;
  std::size_t unmarked = survivors.Count();
  std::uint64_t* survivor_words = survivors.word_data();
  std::uint64_t* member_words = members.word_data();
  auto mark = [&](NodeId v) {
    const std::uint64_t bit = std::uint64_t{1} << (v % 64);
    if ((survivor_words[v / 64] & bit) == 0) return;
    survivor_words[v / 64] &= ~bit;
    member_words[v / 64] |= bit;
    --unmarked;
  };
  const std::span<const std::pair<NodeId, NodeId>> endpoints = graph.edge_endpoints();
  for (std::size_t i = 0; i < view.edges.size() && unmarked > 0; ++i) {
    const auto [src, dst] = endpoints[view.edges[i]];
    mark(src);
    mark(dst);
  }
  view.nodes = ExtractIndices(members);
  return view;
}

}  // namespace graphtempo
