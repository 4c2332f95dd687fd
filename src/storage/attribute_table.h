#ifndef GRAPHTEMPO_STORAGE_ATTRIBUTE_TABLE_H_
#define GRAPHTEMPO_STORAGE_ATTRIBUTE_TABLE_H_

#include <string>
#include <string_view>
#include <vector>

#include "storage/dictionary.h"

/// \file
/// Columnar attribute storage: the labeled arrays **S** (static attributes)
/// and **A_i** (time-varying attributes) of the paper's Section 4.
///
/// Both columns are dictionary-encoded. A `StaticColumn` holds one code per
/// entity; a `TimeVaryingColumn` holds one such array per time point, with
/// `kNoValue` marking (entity, time) cells where the attribute is undefined
/// (normally: times at which the entity does not exist — the '-' cells of the
/// paper's Table 2).

namespace graphtempo {

/// A static (time-invariant) attribute column, e.g. "gender".
class StaticColumn {
 public:
  explicit StaticColumn(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Grows the column to `count` entities, filling new cells with kNoValue.
  void Resize(std::size_t count) { codes_.resize(count, kNoValue); }

  std::size_t size() const { return codes_.size(); }

  /// Assigns `value` (dictionary-encoded) to `entity`.
  void Set(std::size_t entity, std::string_view value);

  /// Dictionary code at `entity`; kNoValue if never assigned.
  AttrValueId CodeAt(std::size_t entity) const;

  /// String value at `entity`; GT_CHECKs the value was assigned.
  const std::string& ValueAt(std::size_t entity) const;

  const Dictionary& dictionary() const { return dict_; }
  Dictionary& dictionary() { return dict_; }

  /// Raw code array (snapshot save).
  const std::vector<AttrValueId>& codes() const { return codes_; }

  /// Rebuilds the column from serialized dictionary values + raw codes
  /// (snapshot load). Returns false — leaving the column unchanged — when
  /// the dictionary has duplicates or any code is out of range and not
  /// kNoValue.
  bool Restore(std::vector<std::string> dict_values, std::vector<AttrValueId> codes);

 private:
  std::string name_;
  Dictionary dict_;
  std::vector<AttrValueId> codes_;
};

/// A time-varying attribute column, e.g. "#publications per year".
///
/// Stored time-major, like the paper's labeled arrays A_i: one code array
/// per time point, each with one cell per entity. Appending a time point
/// pushes one array and leaves the others in place.
class TimeVaryingColumn {
 public:
  /// `num_times` is the time domain of the graph at construction; it grows
  /// only through AppendTimes.
  TimeVaryingColumn(std::string name, std::size_t num_times)
      : name_(std::move(name)), by_time_(num_times) {}

  const std::string& name() const { return name_; }
  std::size_t num_times() const { return by_time_.size(); }

  /// Grows to `count` entities, new cells kNoValue at all times:
  /// O(new cells) amortized.
  void Resize(std::size_t count);

  /// Appends `count` time points (new cells kNoValue for every entity):
  /// O(entities · count), independent of the existing time points.
  void AppendTimes(std::size_t count = 1);

  std::size_t size() const { return entities_; }

  /// Assigns `value` to `entity` at time `t`.
  void Set(std::size_t entity, std::size_t t, std::string_view value);

  /// Dictionary code at (entity, t); kNoValue if unassigned.
  AttrValueId CodeAt(std::size_t entity, std::size_t t) const;

  /// String value at (entity, t); GT_CHECKs the value was assigned.
  const std::string& ValueAt(std::size_t entity, std::size_t t) const;

  const Dictionary& dictionary() const { return dict_; }
  Dictionary& dictionary() { return dict_; }

  /// The codes of every entity at time `t`, indexed by entity (kernels and
  /// snapshot save).
  const std::vector<AttrValueId>& CodesAt(std::size_t t) const;

  /// Rebuilds the column from serialized dictionary values + one code array
  /// per time point (snapshot load). Returns false — leaving the column
  /// unchanged — when the dictionary has duplicates, `by_time` does not hold
  /// `num_times()` arrays of `entities` codes each, or any code is out of
  /// range and not kNoValue.
  bool Restore(std::vector<std::string> dict_values, std::size_t entities,
               std::vector<std::vector<AttrValueId>> by_time);

 private:
  std::string name_;
  std::size_t entities_ = 0;
  Dictionary dict_;
  std::vector<std::vector<AttrValueId>> by_time_;  // [t][entity]
};

}  // namespace graphtempo

#endif  // GRAPHTEMPO_STORAGE_ATTRIBUTE_TABLE_H_
