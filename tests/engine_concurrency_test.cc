/// Concurrency suite for the query engine's readers/writer contract
/// (engine.h file comment, docs/ENGINE.md §3): any number of concurrent
/// `Execute` callers, one graph writer under `AcquireWriterLock()`.
///
/// Built with the `sanitize` ctest label so the CI thread-sanitizer job
/// (`-DGT_SANITIZE=thread`) runs every test here under TSan. The tests are
/// deliberately structured so assertions happen on the main thread after
/// joins; worker threads only count mismatches into atomics.

#include "engine/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "core/aggregation.h"
#include "core/operators.h"
#include "engine/wire.h"
#include "test_graphs.h"
#include "util/parallel.h"

namespace graphtempo {
namespace {

using engine::PlanRoute;
using engine::QueryEngine;
using engine::QuerySpec;
using engine::TemporalOperatorKind;
using testing::BuildPaperGraph;
using testing::BuildRandomGraph;

/// Ground truth: the spec evaluated straight through the core API.
AggregateGraph DirectReference(const TemporalGraph& graph, const QuerySpec& spec) {
  GraphView view = engine::BuildOperatorView(graph, spec);
  AggregationOptions options;
  options.semantics = spec.semantics;
  options.filter = spec.filter;
  options.grouping = spec.grouping;
  AggregateGraph agg = Aggregate(graph, view, spec.attrs, options);
  if (spec.symmetrize) return SymmetrizeAggregate(agg);
  return agg;
}

QuerySpec MakeSpec(TemporalOperatorKind op, IntervalSet t1, IntervalSet t2,
                   std::vector<AttrRef> attrs, AggregationSemantics semantics) {
  QuerySpec spec;
  spec.op = op;
  spec.t1 = std::move(t1);
  spec.t2 = std::move(t2);
  spec.attrs = std::move(attrs);
  spec.semantics = semantics;
  return spec;
}

/// A mixed corpus over a 6-point random graph: direct-only ops, derivable
/// union/ALL specs (exercising subset layers), single-point projections, and
/// fingerprint-hint variants — enough shapes that a small cache churns.
std::vector<QuerySpec> StressCorpus(const TemporalGraph& graph,
                                    const std::vector<AttrRef>& base) {
  const std::size_t n = graph.num_times();
  const IntervalSet empty(n);
  using K = TemporalOperatorKind;
  using S = AggregationSemantics;

  std::vector<QuerySpec> corpus;
  corpus.push_back(MakeSpec(K::kUnion, IntervalSet::All(n), empty, base, S::kAll));
  corpus.push_back(MakeSpec(K::kUnion, IntervalSet::All(n), empty, {base[0]}, S::kAll));
  corpus.push_back(MakeSpec(K::kUnion, IntervalSet::Of(n, {1, 3, 4}), empty,
                            {base[1]}, S::kAll));
  corpus.push_back(MakeSpec(K::kUnion, IntervalSet::Of(n, {0, 2}), empty, base,
                            S::kDistinct));
  corpus.push_back(MakeSpec(K::kProject, IntervalSet::Point(n, 2), empty,
                            {base[0]}, S::kDistinct));
  corpus.push_back(MakeSpec(K::kProject, IntervalSet::Of(n, {1, 2, 3}), empty, base,
                            S::kDistinct));
  corpus.push_back(MakeSpec(K::kIntersection, IntervalSet::Of(n, {2, 3}), empty,
                            base, S::kAll));
  corpus.push_back(MakeSpec(K::kDifference, IntervalSet::Point(n, 0),
                            IntervalSet::Of(n, {4, 5}), {base[0]}, S::kAll));
  // A hash-grouping hint twin of corpus[1]: same fingerprint, shares an entry.
  QuerySpec hinted = corpus[1];
  hinted.grouping = GroupingStrategy::kHash;
  corpus.push_back(std::move(hinted));
  return corpus;
}

/// N readers hammer a static graph through one engine with a tiny cache
/// (constant hit/miss/eviction churn) and memoizing subset layers. Every
/// result must stay bit-identical to the single-threaded reference.
TEST(EngineConcurrencyTest, ManyReadersMixedSpecs) {
  TemporalGraph graph = BuildRandomGraph(101, 40, 6);
  std::vector<AttrRef> base = ResolveAttributes(graph, {"color", "level"});

  QueryEngine::Config config;
  config.cache_capacity = 3;  // force sloppy-LRU evictions under contention
  QueryEngine engine(&graph, config);
  engine.EnableMaterialization(base);

  const std::vector<QuerySpec> corpus = StressCorpus(graph, base);
  std::vector<AggregateGraph> expected;
  expected.reserve(corpus.size());
  for (const QuerySpec& spec : corpus) {
    expected.push_back(DirectReference(graph, spec));
  }

  SetParallelism(2);  // engine queries may fan out through the shared pool
  constexpr std::size_t kReaders = 6;
  constexpr std::size_t kIterations = 25;
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      for (std::size_t i = 0; i < kIterations; ++i) {
        const std::size_t pick = (r + i) % corpus.size();
        AggregateGraph got = engine.Execute(corpus[pick]);
        if (!(got == expected[pick])) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : readers) t.join();
  SetParallelism(1);

  EXPECT_EQ(mismatches.load(), 0u);
  const QueryEngine::CacheStats stats = engine.cache_stats();
  // Every execution is cacheable: the ledger must balance exactly.
  EXPECT_EQ(stats.hits + stats.misses, kReaders * kIterations);
  EXPECT_EQ(stats.bypasses, 0u);
  EXPECT_GT(stats.evictions, 0u);  // capacity 3 over a 9-spec corpus churns
  EXPECT_EQ(stats.invalidations, 0u);  // static graph: nothing ever staled
}

/// Cache hits hand every reader the same immutable answer. Readers render
/// responses from their handles while a two-entry cache evicts and refills
/// around them; a handle keeps its answer alive past eviction, and every
/// body must equal the serial render. TSan checks that the sharing is
/// race-free.
TEST(EngineConcurrencyTest, HitsShareOneAnswerAcrossThreads) {
  TemporalGraph graph = BuildRandomGraph(202, 40, 6);
  std::vector<AttrRef> base = ResolveAttributes(graph, {"color", "level"});
  const std::vector<QuerySpec> corpus = StressCorpus(graph, base);

  QueryEngine shared(&graph);
  const engine::QueryResult first = shared.ExecuteResult(corpus[3]);
  EXPECT_EQ(&shared.ExecuteResult(corpus[3]).aggregate(), &first.aggregate())
      << "a cache hit must share the cached answer, not copy it";

  QueryEngine::Config config;
  config.cache_capacity = 2;
  QueryEngine engine(&graph, config);
  std::vector<engine::QueryPlan> plans;
  std::vector<std::string> expected;
  for (const QuerySpec& spec : corpus) {
    plans.push_back(engine.Plan(spec));
    expected.push_back(engine::wire::ResultToJson(graph, spec, plans.back(),
                                                  DirectReference(graph, spec), 0));
  }

  constexpr std::size_t kReaders = 6;
  constexpr std::size_t kIterations = 30;
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      for (std::size_t i = 0; i < kIterations; ++i) {
        // Half the requests go to one hot spec, so hits on it overlap.
        const std::size_t pick = i % 2 == 0 ? 3 : (r + i) % corpus.size();
        const engine::QueryResult result = engine.ExecuteResult(corpus[pick]);
        const std::string body =
            engine::wire::QueryResultToJson(graph, corpus[pick], plans[pick], result, 0);
        if (body != expected[pick]) mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(engine.cache_stats().hits, 0u);
  EXPECT_GT(engine.cache_stats().evictions, 0u);
}

/// Readers keep executing while a writer mutates presence at *existing* time
/// points under AcquireWriterLock(). No torn reads (TSan-checked), and the
/// per-entry sweep retires every answer whose dependency points were touched.
TEST(EngineConcurrencyTest, ReadersVersusInDomainWriter) {
  TemporalGraph graph = BuildRandomGraph(102, 30, 5);
  std::vector<AttrRef> attrs = ResolveAttributes(graph, {"color"});
  QueryEngine engine(&graph);

  const std::size_t n = graph.num_times();
  std::vector<QuerySpec> corpus;
  corpus.push_back(MakeSpec(TemporalOperatorKind::kUnion, IntervalSet::All(n),
                            IntervalSet(n), attrs, AggregationSemantics::kAll));
  corpus.push_back(MakeSpec(TemporalOperatorKind::kProject, IntervalSet::Point(n, 1),
                            IntervalSet(n), attrs, AggregationSemantics::kDistinct));
  corpus.push_back(MakeSpec(TemporalOperatorKind::kIntersection,
                            IntervalSet::Of(n, {1, 2}), IntervalSet(n), attrs,
                            AggregationSemantics::kAll));

  // Cache every spec before the threads start: otherwise a writer that
  // finishes before any reader stores an answer leaves nothing to retire.
  for (const QuerySpec& spec : corpus) engine.Execute(spec);

  constexpr std::size_t kReaders = 4;
  constexpr std::size_t kIterations = 40;
  constexpr std::size_t kMutations = 12;
  std::vector<std::thread> threads;
  threads.reserve(kReaders + 1);
  for (std::size_t r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      for (std::size_t i = 0; i < kIterations; ++i) {
        // Results change under the writer's feet; correctness of the final
        // state is asserted after the join. Here we only require that every
        // Execute returns *some* complete answer without racing the writer.
        AggregateGraph got = engine.Execute(corpus[(r + i) % corpus.size()]);
        (void)got;
      }
    });
  }
  threads.emplace_back([&] {
    for (std::size_t i = 0; i < kMutations; ++i) {
      auto writer = engine.AcquireWriterLock();
      const NodeId node = static_cast<NodeId>(i % graph.num_nodes());
      graph.SetNodePresent(node, static_cast<TimeId>(i % n));
    }
  });
  for (std::thread& t : threads) t.join();

  // Quiesced: every spec must now reflect the fully-mutated graph.
  for (const QuerySpec& spec : corpus) {
    EXPECT_EQ(engine.Execute(spec), DirectReference(graph, spec));
  }
  EXPECT_GE(engine.cache_stats().invalidations, 1u);
}

/// The append-only ingestion pattern from ISSUE acceptance: readers keep
/// hitting old-interval cache entries while a writer appends a new time point
/// and Refresh()es. Per-entry validity means *zero* invalidations — append
/// never touches the old points the cached answers depend on.
TEST(EngineConcurrencyTest, ReadersSurviveAppendAndRefresh) {
  TemporalGraph graph = BuildPaperGraph();
  std::vector<AttrRef> base = ResolveAttributes(graph, {"gender", "publications"});
  QueryEngine engine(&graph);
  engine.EnableMaterialization(base);

  const std::size_t n = graph.num_times();  // 3
  std::vector<QuerySpec> corpus;
  corpus.push_back(MakeSpec(TemporalOperatorKind::kUnion, IntervalSet::All(n),
                            IntervalSet(n), base, AggregationSemantics::kAll));
  corpus.push_back(MakeSpec(TemporalOperatorKind::kUnion, IntervalSet::Of(n, {0, 1}),
                            IntervalSet(n), {base[0]}, AggregationSemantics::kAll));
  corpus.push_back(MakeSpec(TemporalOperatorKind::kProject, IntervalSet::Point(n, 2),
                            IntervalSet(n), {base[1]}, AggregationSemantics::kDistinct));

  // Pre-warm every reader spec (and pin the expected answers): old snapshots
  // are immutable under append-only growth, so these references stay correct
  // even after the writer lands t3.
  std::vector<AggregateGraph> expected;
  expected.reserve(corpus.size());
  for (const QuerySpec& spec : corpus) {
    expected.push_back(engine.Execute(spec));
  }
  ASSERT_EQ(engine.cache_stats().misses, corpus.size());

  const NodeId u1 = *graph.FindNode("u1");
  constexpr std::size_t kReaders = 4;
  constexpr std::size_t kIterations = 60;
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kReaders + 1);
  for (std::size_t r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      for (std::size_t i = 0; i < kIterations; ++i) {
        if (!(engine.Execute(corpus[(r + i) % corpus.size()]) ==
              expected[(r + i) % corpus.size()])) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  threads.emplace_back([&] {
    {
      auto writer = engine.AcquireWriterLock();
      graph.AppendTimePoint("t3");
      graph.SetNodePresent(u1, 3);
    }  // release before Refresh — it takes the writer lock itself
    engine.Refresh();
  });
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(mismatches.load(), 0u);
  const QueryEngine::CacheStats stats = engine.cache_stats();
  // Every concurrent read was a hit on a pre-warmed entry, and none of those
  // entries went stale: append-only growth leaves old intervals untouched.
  EXPECT_EQ(stats.hits, kReaders * kIterations);
  EXPECT_EQ(stats.misses, corpus.size());
  EXPECT_EQ(stats.invalidations, 0u);

  // The grown domain answers correctly too (store was Refresh()ed).
  QuerySpec grown = MakeSpec(TemporalOperatorKind::kUnion, IntervalSet::All(4),
                             IntervalSet(4), base, AggregationSemantics::kAll);
  ASSERT_TRUE(engine.Derivable(grown));
  EXPECT_EQ(engine.Execute(grown), DirectReference(graph, grown));
}

/// Concurrent first-touch of the same derivable subset: the layer must be
/// built once (insert-once under the subset mutex) and all racers must agree.
TEST(EngineConcurrencyTest, SubsetLayerFirstTouchRace) {
  TemporalGraph graph = BuildRandomGraph(103, 30, 5);
  std::vector<AttrRef> base = ResolveAttributes(graph, {"color", "level"});
  QueryEngine::Config config;
  config.cache_capacity = 0;  // force every Execute through the derivation
  QueryEngine engine(&graph, config);
  engine.EnableMaterialization(base);

  QuerySpec spec = MakeSpec(TemporalOperatorKind::kUnion, IntervalSet::All(5),
                            IntervalSet(5), {base[0]}, AggregationSemantics::kAll);
  const AggregateGraph expected = DirectReference(graph, spec);
  QueryEngine::PlanOptions materialized;
  materialized.force_route = PlanRoute::kMaterializedDerivation;

  constexpr std::size_t kRacers = 6;
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> racers;
  racers.reserve(kRacers);
  for (std::size_t r = 0; r < kRacers; ++r) {
    racers.emplace_back([&] {
      if (!(engine.Execute(spec, materialized) == expected)) {
        mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : racers) t.join();

  EXPECT_EQ(mismatches.load(), 0u);
  // Racers that lost the insert race may each have rolled up a redundant
  // layer (built outside the lock, discarded on insert), but at most one
  // layer's worth each — and the memoized layer serves everyone afterwards.
  const QueryEngine::DerivationStats stats = engine.derivation_stats();
  EXPECT_GE(stats.rollups, 5u);
  EXPECT_LE(stats.rollups, 5u * kRacers);
  engine.Execute(spec, materialized);
  EXPECT_GE(engine.derivation_stats().rollup_hits, 5u);
}

}  // namespace
}  // namespace graphtempo
