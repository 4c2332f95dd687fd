#include "core/measures.h"

#include <algorithm>
#include <cstdlib>

#include "util/check.h"

namespace graphtempo {

namespace {

double ParseNumeric(const std::string& text) {
  char* end = nullptr;
  double value = std::strtod(text.c_str(), &end);
  GT_CHECK(end != text.c_str() && *end == '\0')
      << "measure attribute value is not numeric: '" << text << "'";
  return value;
}

/// Streaming accumulator for one group.
struct Accumulator {
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::int64_t samples = 0;

  void Add(double value) {
    if (samples == 0) {
      min = max = value;
    } else {
      min = std::min(min, value);
      max = std::max(max, value);
    }
    sum += value;
    ++samples;
  }

  MeasureValue Finish(MeasureFunction function) const {
    MeasureValue result;
    result.samples = samples;
    switch (function) {
      case MeasureFunction::kSum:
        result.value = sum;
        break;
      case MeasureFunction::kMin:
        result.value = min;
        break;
      case MeasureFunction::kMax:
        result.value = max;
        break;
      case MeasureFunction::kAvg:
        result.value = samples == 0 ? 0.0 : sum / static_cast<double>(samples);
        break;
      case MeasureFunction::kCount:
        result.value = static_cast<double>(samples);
        break;
    }
    return result;
  }
};

}  // namespace

const char* MeasureFunctionName(MeasureFunction function) {
  switch (function) {
    case MeasureFunction::kSum:
      return "sum";
    case MeasureFunction::kMin:
      return "min";
    case MeasureFunction::kMax:
      return "max";
    case MeasureFunction::kAvg:
      return "avg";
    case MeasureFunction::kCount:
      return "count";
  }
  GT_CHECK(false) << "invalid measure function";
  __builtin_unreachable();
}

NodeMeasureMap AggregateNodeMeasure(const TemporalGraph& graph, const GraphView& view,
                                    std::span<const AttrRef> group_attrs,
                                    AttrRef measure_attr, MeasureFunction function) {
  GT_CHECK(!group_attrs.empty()) << "measure aggregation needs grouping attributes";
  std::unordered_map<AttrTuple, Accumulator, AttrTupleHash> groups;
  for (NodeId n : view.nodes) {
    view.times.ForEach([&](TimeId t) {
      if (!graph.NodePresentAt(n, t)) return;
      AttrValueId code = graph.ValueCodeAt(measure_attr, n, t);
      if (code == kNoValue) return;  // no observation at this appearance
      groups[TupleAt(graph, group_attrs, n, t)].Add(
          ParseNumeric(graph.ValueName(measure_attr, code)));
    });
  }
  NodeMeasureMap result;
  result.reserve(groups.size());
  for (const auto& [tuple, accumulator] : groups) {
    result.emplace(tuple, accumulator.Finish(function));
  }
  return result;
}

EdgeMeasureMap AggregateEdgeMeasure(const TemporalGraph& graph, const GraphView& view,
                                    std::span<const AttrRef> group_attrs,
                                    EdgeAttrRef measure_attr, MeasureFunction function) {
  GT_CHECK(!group_attrs.empty()) << "measure aggregation needs grouping attributes";
  std::unordered_map<AttrTuplePair, Accumulator, AttrTuplePairHash> groups;
  for (EdgeId e : view.edges) {
    auto [src, dst] = graph.edge(e);
    view.times.ForEach([&](TimeId t) {
      if (!graph.EdgePresentAt(e, t)) return;
      AttrValueId code = graph.EdgeValueCodeAt(measure_attr, e, t);
      if (code == kNoValue) return;
      AttrTuplePair pair{TupleAt(graph, group_attrs, src, t),
                         TupleAt(graph, group_attrs, dst, t)};
      groups[pair].Add(ParseNumeric(graph.EdgeValueName(measure_attr, code)));
    });
  }
  EdgeMeasureMap result;
  result.reserve(groups.size());
  for (const auto& [pair, accumulator] : groups) {
    result.emplace(pair, accumulator.Finish(function));
  }
  return result;
}

}  // namespace graphtempo
