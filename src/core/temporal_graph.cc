#include "core/temporal_graph.h"

#include "util/check.h"

namespace graphtempo {

TemporalGraph::TemporalGraph(std::vector<std::string> time_labels)
    : time_labels_(std::move(time_labels)),
      node_index_cols_(time_labels_.size()),
      edge_index_cols_(time_labels_.size()) {
  GT_CHECK(!time_labels_.empty()) << "time domain must be non-empty";
  time_mutation_generations_.assign(time_labels_.size(), 0);
  for (std::size_t t = 0; t < time_labels_.size(); ++t) {
    bool inserted =
        time_index_.emplace(time_labels_[t], static_cast<TimeId>(t)).second;
    GT_CHECK(inserted) << "duplicate time label: " << time_labels_[t];
  }
}

const std::string& TemporalGraph::time_label(TimeId t) const {
  GT_CHECK_LT(t, time_labels_.size()) << "time out of range";
  return time_labels_[t];
}

std::optional<TimeId> TemporalGraph::FindTime(std::string_view label) const {
  auto it = time_index_.find(std::string(label));
  if (it == time_index_.end()) return std::nullopt;
  return it->second;
}

TimeId TemporalGraph::AppendTimePoint(std::string_view label) {
  ++mutation_generation_;
  TimeId id = static_cast<TimeId>(time_labels_.size());
  time_labels_.emplace_back(label);
  // Only the new point is stamped: append-only growth leaves every existing
  // time point's data — and therefore every answer over it — untouched.
  time_mutation_generations_.push_back(mutation_generation_);
  bool inserted = time_index_.emplace(time_labels_.back(), id).second;
  GT_CHECK(inserted) << "duplicate time label: " << label;
  node_index_cols_.AddTimePoints(1);
  edge_index_cols_.AddTimePoints(1);
  for (auto& column : varying_attrs_) column.AppendTimes(1);
  for (auto& column : varying_edge_attrs_) column.AppendTimes(1);
  return id;
}

void TemporalGraph::MarkTimeMutated(TimeId t) {
  GT_CHECK_LT(t, time_mutation_generations_.size()) << "time out of range";
  time_mutation_generations_[t] = mutation_generation_;
}

void TemporalGraph::MarkAllTimesMutated() {
  for (std::uint64_t& generation : time_mutation_generations_) {
    generation = mutation_generation_;
  }
}

std::uint64_t TemporalGraph::time_mutation_generation(TimeId t) const {
  GT_CHECK_LT(t, time_mutation_generations_.size()) << "time out of range";
  return time_mutation_generations_[t];
}

bool TemporalGraph::IntervalUnchangedSince(const IntervalSet& interval,
                                           std::uint64_t generation) const {
  GT_CHECK_LE(interval.domain_size(), num_times())
      << "interval domain exceeds the graph's time domain";
  bool unchanged = true;
  interval.ForEach([&](TimeId t) {
    if (time_mutation_generations_[t] > generation) unchanged = false;
  });
  return unchanged;
}

NodeId TemporalGraph::AddNode(std::string_view label) {
  ++mutation_generation_;
  GT_CHECK(node_index_.find(std::string(label)) == node_index_.end())
      << "duplicate node label: " << label;
  NodeId id = static_cast<NodeId>(node_labels_.size());
  node_labels_.emplace_back(label);
  node_index_.emplace(node_labels_.back(), id);
  node_index_cols_.AddEntities(1);
  for (auto& column : static_attrs_) column.Resize(node_labels_.size());
  for (auto& column : varying_attrs_) column.Resize(node_labels_.size());
  return id;
}

NodeId TemporalGraph::GetOrAddNode(std::string_view label) {
  auto it = node_index_.find(std::string(label));
  if (it != node_index_.end()) return it->second;
  return AddNode(label);
}

EdgeId TemporalGraph::GetOrAddEdge(NodeId src, NodeId dst) {
  GT_CHECK_LT(src, num_nodes()) << "edge source out of range";
  GT_CHECK_LT(dst, num_nodes()) << "edge target out of range";
  std::uint64_t key = EdgeKey(src, dst);
  auto it = edge_index_.find(key);
  if (it != edge_index_.end()) return it->second;
  ++mutation_generation_;
  EdgeId id = static_cast<EdgeId>(edge_endpoints_.size());
  edge_endpoints_.emplace_back(src, dst);
  edge_index_.emplace(key, id);
  edge_index_cols_.AddEntities(1);
  for (auto& column : static_edge_attrs_) column.Resize(edge_endpoints_.size());
  for (auto& column : varying_edge_attrs_) column.Resize(edge_endpoints_.size());
  return id;
}

void TemporalGraph::SetNodePresent(NodeId n, TimeId t) {
  ++mutation_generation_;
  MarkTimeMutated(t);
  node_index_cols_.Set(n, t);
}

void TemporalGraph::SetEdgePresent(EdgeId e, TimeId t) {
  ++mutation_generation_;
  MarkTimeMutated(t);
  edge_index_cols_.Set(e, t);
  auto [src, dst] = edge(e);
  node_index_cols_.Set(src, t);
  node_index_cols_.Set(dst, t);
}

std::uint32_t TemporalGraph::AddStaticAttribute(std::string name) {
  ++mutation_generation_;
  GT_CHECK(!FindAttribute(name).has_value()) << "duplicate attribute: " << name;
  static_attrs_.emplace_back(std::move(name));
  static_attrs_.back().Resize(num_nodes());
  return static_cast<std::uint32_t>(static_attrs_.size() - 1);
}

std::uint32_t TemporalGraph::AddTimeVaryingAttribute(std::string name) {
  ++mutation_generation_;
  GT_CHECK(!FindAttribute(name).has_value()) << "duplicate attribute: " << name;
  varying_attrs_.emplace_back(std::move(name), num_times());
  varying_attrs_.back().Resize(num_nodes());
  return static_cast<std::uint32_t>(varying_attrs_.size() - 1);
}

void TemporalGraph::SetStaticValue(std::uint32_t attr, NodeId n, std::string_view value) {
  ++mutation_generation_;
  MarkAllTimesMutated();  // the value is visible at every time the node exists
  GT_CHECK_LT(attr, static_attrs_.size()) << "static attribute index out of range";
  static_attrs_[attr].Set(n, value);
}

void TemporalGraph::SetTimeVaryingValue(std::uint32_t attr, NodeId n, TimeId t,
                                        std::string_view value) {
  ++mutation_generation_;
  MarkTimeMutated(t);
  GT_CHECK_LT(attr, varying_attrs_.size()) << "time-varying attribute index out of range";
  varying_attrs_[attr].Set(n, t, value);
}

std::uint32_t TemporalGraph::AddStaticEdgeAttribute(std::string name) {
  ++mutation_generation_;
  GT_CHECK(!FindEdgeAttribute(name).has_value()) << "duplicate edge attribute: " << name;
  static_edge_attrs_.emplace_back(std::move(name));
  static_edge_attrs_.back().Resize(num_edges());
  return static_cast<std::uint32_t>(static_edge_attrs_.size() - 1);
}

std::uint32_t TemporalGraph::AddTimeVaryingEdgeAttribute(std::string name) {
  ++mutation_generation_;
  GT_CHECK(!FindEdgeAttribute(name).has_value()) << "duplicate edge attribute: " << name;
  varying_edge_attrs_.emplace_back(std::move(name), num_times());
  varying_edge_attrs_.back().Resize(num_edges());
  return static_cast<std::uint32_t>(varying_edge_attrs_.size() - 1);
}

void TemporalGraph::SetStaticEdgeValue(std::uint32_t attr, EdgeId e,
                                       std::string_view value) {
  ++mutation_generation_;
  MarkAllTimesMutated();  // the value is visible at every time the edge exists
  GT_CHECK_LT(attr, static_edge_attrs_.size())
      << "static edge attribute index out of range";
  static_edge_attrs_[attr].Set(e, value);
}

void TemporalGraph::SetTimeVaryingEdgeValue(std::uint32_t attr, EdgeId e, TimeId t,
                                            std::string_view value) {
  ++mutation_generation_;
  MarkTimeMutated(t);
  GT_CHECK_LT(attr, varying_edge_attrs_.size())
      << "time-varying edge attribute index out of range";
  varying_edge_attrs_[attr].Set(e, t, value);
}

std::optional<NodeId> TemporalGraph::FindNode(std::string_view label) const {
  auto it = node_index_.find(std::string(label));
  if (it == node_index_.end()) return std::nullopt;
  return it->second;
}

const std::string& TemporalGraph::node_label(NodeId n) const {
  GT_CHECK_LT(n, node_labels_.size()) << "node out of range";
  return node_labels_[n];
}

std::optional<EdgeId> TemporalGraph::FindEdge(NodeId src, NodeId dst) const {
  auto it = edge_index_.find(EdgeKey(src, dst));
  if (it == edge_index_.end()) return std::nullopt;
  return it->second;
}

std::pair<NodeId, NodeId> TemporalGraph::edge(EdgeId e) const {
  GT_CHECK_LT(e, edge_endpoints_.size()) << "edge out of range";
  return edge_endpoints_[e];
}

IntervalSet TemporalGraph::NodeTimes(NodeId n) const {
  GT_CHECK_LT(n, num_nodes()) << "node out of range";
  IntervalSet result(num_times());
  for (TimeId t = 0; t < num_times(); ++t) {
    if (NodePresentAt(n, t)) result.Add(t);
  }
  return result;
}

IntervalSet TemporalGraph::EdgeTimes(EdgeId e) const {
  GT_CHECK_LT(e, num_edges()) << "edge out of range";
  IntervalSet result(num_times());
  for (TimeId t = 0; t < num_times(); ++t) {
    if (EdgePresentAt(e, t)) result.Add(t);
  }
  return result;
}

std::optional<AttrRef> TemporalGraph::FindAttribute(std::string_view name) const {
  for (std::size_t i = 0; i < static_attrs_.size(); ++i) {
    if (static_attrs_[i].name() == name) {
      return AttrRef{AttrRef::Kind::kStatic, static_cast<std::uint32_t>(i)};
    }
  }
  for (std::size_t i = 0; i < varying_attrs_.size(); ++i) {
    if (varying_attrs_[i].name() == name) {
      return AttrRef{AttrRef::Kind::kTimeVarying, static_cast<std::uint32_t>(i)};
    }
  }
  return std::nullopt;
}

const StaticColumn& TemporalGraph::static_attribute(std::uint32_t index) const {
  GT_CHECK_LT(index, static_attrs_.size()) << "static attribute index out of range";
  return static_attrs_[index];
}

const TimeVaryingColumn& TemporalGraph::time_varying_attribute(std::uint32_t index) const {
  GT_CHECK_LT(index, varying_attrs_.size())
      << "time-varying attribute index out of range";
  return varying_attrs_[index];
}

const std::string& TemporalGraph::attribute_name(AttrRef ref) const {
  if (ref.kind == AttrRef::Kind::kStatic) return static_attribute(ref.index).name();
  return time_varying_attribute(ref.index).name();
}

AttrValueId TemporalGraph::ValueCodeAt(AttrRef ref, NodeId n, TimeId t) const {
  if (ref.kind == AttrRef::Kind::kStatic) return static_attribute(ref.index).CodeAt(n);
  return time_varying_attribute(ref.index).CodeAt(n, t);
}

const std::string& TemporalGraph::ValueName(AttrRef ref, AttrValueId code) const {
  if (ref.kind == AttrRef::Kind::kStatic) {
    return static_attribute(ref.index).dictionary().ValueOf(code);
  }
  return time_varying_attribute(ref.index).dictionary().ValueOf(code);
}

std::optional<AttrValueId> TemporalGraph::FindValueCode(AttrRef ref,
                                                        std::string_view value) const {
  if (ref.kind == AttrRef::Kind::kStatic) {
    return static_attribute(ref.index).dictionary().Find(value);
  }
  return time_varying_attribute(ref.index).dictionary().Find(value);
}

std::optional<EdgeAttrRef> TemporalGraph::FindEdgeAttribute(std::string_view name) const {
  for (std::size_t i = 0; i < static_edge_attrs_.size(); ++i) {
    if (static_edge_attrs_[i].name() == name) {
      return EdgeAttrRef{EdgeAttrRef::Kind::kStatic, static_cast<std::uint32_t>(i)};
    }
  }
  for (std::size_t i = 0; i < varying_edge_attrs_.size(); ++i) {
    if (varying_edge_attrs_[i].name() == name) {
      return EdgeAttrRef{EdgeAttrRef::Kind::kTimeVarying, static_cast<std::uint32_t>(i)};
    }
  }
  return std::nullopt;
}

const StaticColumn& TemporalGraph::static_edge_attribute(std::uint32_t index) const {
  GT_CHECK_LT(index, static_edge_attrs_.size())
      << "static edge attribute index out of range";
  return static_edge_attrs_[index];
}

const TimeVaryingColumn& TemporalGraph::time_varying_edge_attribute(
    std::uint32_t index) const {
  GT_CHECK_LT(index, varying_edge_attrs_.size())
      << "time-varying edge attribute index out of range";
  return varying_edge_attrs_[index];
}

const std::string& TemporalGraph::edge_attribute_name(EdgeAttrRef ref) const {
  if (ref.kind == EdgeAttrRef::Kind::kStatic) {
    return static_edge_attribute(ref.index).name();
  }
  return time_varying_edge_attribute(ref.index).name();
}

AttrValueId TemporalGraph::EdgeValueCodeAt(EdgeAttrRef ref, EdgeId e, TimeId t) const {
  if (ref.kind == EdgeAttrRef::Kind::kStatic) {
    return static_edge_attribute(ref.index).CodeAt(e);
  }
  return time_varying_edge_attribute(ref.index).CodeAt(e, t);
}

const std::string& TemporalGraph::EdgeValueName(EdgeAttrRef ref, AttrValueId code) const {
  if (ref.kind == EdgeAttrRef::Kind::kStatic) {
    return static_edge_attribute(ref.index).dictionary().ValueOf(code);
  }
  return time_varying_edge_attribute(ref.index).dictionary().ValueOf(code);
}

std::size_t TemporalGraph::NodesAt(TimeId t) const {
  GT_CHECK_LT(t, num_times()) << "time out of range";
  return node_index_cols_.CountAt(t);  // column popcount, not a row scan
}

std::size_t TemporalGraph::EdgesAt(TimeId t) const {
  GT_CHECK_LT(t, num_times()) << "time out of range";
  return edge_index_cols_.CountAt(t);
}

}  // namespace graphtempo
