#include "core/lattice.h"

#include "core/exploration_internal.h"
#include "util/check.h"

namespace graphtempo {

IntervalLattice::IntervalLattice(std::size_t domain_size) : domain_size_(domain_size) {
  GT_CHECK_GE(domain_size, 1u) << "lattice needs at least one time point";
}

void IntervalLattice::CheckRange(TimeRange range) const {
  GT_CHECK_LE(range.first, range.last) << "inverted range";
  GT_CHECK_LT(range.last, domain_size_) << "range outside the time domain";
}

std::vector<TimeRange> IntervalLattice::RangesAtLevel(std::size_t level) const {
  GT_CHECK_LT(level, num_levels()) << "level out of range";
  std::vector<TimeRange> ranges;
  const std::size_t length = level + 1;
  for (std::size_t first = 0; first + length <= domain_size_; ++first) {
    ranges.push_back(TimeRange{static_cast<TimeId>(first),
                               static_cast<TimeId>(first + length - 1)});
  }
  return ranges;
}

std::vector<TimeRange> IntervalLattice::AllRanges() const {
  std::vector<TimeRange> ranges;
  ranges.reserve(domain_size_ * (domain_size_ + 1) / 2);
  for (std::size_t level = 0; level < num_levels(); ++level) {
    for (TimeRange range : RangesAtLevel(level)) ranges.push_back(range);
  }
  return ranges;
}

std::optional<TimeRange> IntervalLattice::ExtendLeft(TimeRange range) const {
  CheckRange(range);
  if (range.first == 0) return std::nullopt;
  return TimeRange{static_cast<TimeId>(range.first - 1), range.last};
}

std::optional<TimeRange> IntervalLattice::ExtendRight(TimeRange range) const {
  CheckRange(range);
  if (range.last + 1 >= domain_size_) return std::nullopt;
  return TimeRange{range.first, static_cast<TimeId>(range.last + 1)};
}

std::optional<TimeRange> IntervalLattice::ShrinkLeft(TimeRange range) const {
  CheckRange(range);
  if (range.first == range.last) return std::nullopt;
  return TimeRange{static_cast<TimeId>(range.first + 1), range.last};
}

std::optional<TimeRange> IntervalLattice::ShrinkRight(TimeRange range) const {
  CheckRange(range);
  if (range.first == range.last) return std::nullopt;
  return TimeRange{range.first, static_cast<TimeId>(range.last - 1)};
}

std::vector<std::pair<TimeRange, TimeRange>> IntervalLattice::AdjacentPairs() const {
  std::vector<std::pair<TimeRange, TimeRange>> pairs;
  for (TimeId boundary = 1; boundary < domain_size_; ++boundary) {
    for (TimeId old_first = 0; old_first < boundary; ++old_first) {
      for (TimeId new_last = boundary;
           new_last < static_cast<TimeId>(domain_size_); ++new_last) {
        pairs.emplace_back(TimeRange{old_first, static_cast<TimeId>(boundary - 1)},
                           TimeRange{boundary, new_last});
      }
    }
  }
  return pairs;
}

bool PairContainedIn(const std::pair<TimeRange, TimeRange>& inner,
                     const std::pair<TimeRange, TimeRange>& outer) {
  auto range_contained = [](TimeRange a, TimeRange b) {
    return b.first <= a.first && a.last <= b.last;
  };
  return range_contained(inner.first, outer.first) &&
         range_contained(inner.second, outer.second);
}

ExplorationResult ExploreBothEnds(const TemporalGraph& graph,
                                  const ExplorationSpec& spec) {
  GT_CHECK_GE(spec.k, 1) << "threshold k must be positive";
  GT_CHECK_GE(graph.num_times(), 2u) << "exploration needs at least two time points";

  IntervalLattice lattice(graph.num_times());
  ExplorationResult result;

  struct Candidate {
    std::pair<TimeRange, TimeRange> pair;
    Weight count;
  };
  std::vector<Candidate> qualifying;
  const internal_exploration::EventEngine engine(graph, spec.selector);
  for (const auto& pair : lattice.AdjacentPairs()) {
    ++result.evaluations;
    Weight count = engine.Count(pair.first, pair.second, spec.semantics, spec.event);
    if (count >= spec.k) qualifying.push_back(Candidate{pair, count});
  }

  const bool minimal_goal = spec.semantics == ExtensionSemantics::kUnion;
  for (const Candidate& candidate : qualifying) {
    bool dominated = false;
    for (const Candidate& other : qualifying) {
      if (other.pair == candidate.pair) continue;
      if (minimal_goal ? PairContainedIn(other.pair, candidate.pair)
                       : PairContainedIn(candidate.pair, other.pair)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) {
      result.pairs.push_back(
          IntervalPair{candidate.pair.first, candidate.pair.second, candidate.count});
    }
  }
  return result;
}

}  // namespace graphtempo
