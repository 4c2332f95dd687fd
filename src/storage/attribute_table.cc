#include "storage/attribute_table.h"

#include "util/check.h"

namespace graphtempo {

void StaticColumn::Set(std::size_t entity, std::string_view value) {
  GT_CHECK_LT(entity, codes_.size()) << "entity out of range for attribute " << name_;
  codes_[entity] = dict_.GetOrAdd(value);
}

AttrValueId StaticColumn::CodeAt(std::size_t entity) const {
  GT_CHECK_LT(entity, codes_.size()) << "entity out of range for attribute " << name_;
  return codes_[entity];
}

const std::string& StaticColumn::ValueAt(std::size_t entity) const {
  AttrValueId code = CodeAt(entity);
  GT_CHECK_NE(code, kNoValue) << "attribute " << name_ << " unset for entity " << entity;
  return dict_.ValueOf(code);
}

namespace {

bool CodesInRange(const std::vector<AttrValueId>& codes, std::size_t dict_size) {
  for (AttrValueId code : codes) {
    if (code != kNoValue && code >= dict_size) return false;
  }
  return true;
}

}  // namespace

bool StaticColumn::Restore(std::vector<std::string> dict_values,
                           std::vector<AttrValueId> codes) {
  if (!CodesInRange(codes, dict_values.size())) return false;
  Dictionary dict;
  if (!dict.Restore(std::move(dict_values))) return false;
  dict_ = std::move(dict);
  codes_ = std::move(codes);
  return true;
}

bool TimeVaryingColumn::Restore(std::vector<std::string> dict_values, std::size_t entities,
                                std::vector<std::vector<AttrValueId>> by_time) {
  if (by_time.size() != by_time_.size()) return false;
  for (const std::vector<AttrValueId>& codes : by_time) {
    if (codes.size() != entities || !CodesInRange(codes, dict_values.size())) return false;
  }
  Dictionary dict;
  if (!dict.Restore(std::move(dict_values))) return false;
  dict_ = std::move(dict);
  entities_ = entities;
  by_time_ = std::move(by_time);
  return true;
}

void TimeVaryingColumn::Resize(std::size_t count) {
  entities_ = count;
  for (std::vector<AttrValueId>& codes : by_time_) codes.resize(count, kNoValue);
}

void TimeVaryingColumn::AppendTimes(std::size_t count) {
  by_time_.resize(by_time_.size() + count, std::vector<AttrValueId>(entities_, kNoValue));
}

const std::vector<AttrValueId>& TimeVaryingColumn::CodesAt(std::size_t t) const {
  GT_CHECK_LT(t, by_time_.size()) << "time out of range for attribute " << name_;
  return by_time_[t];
}

void TimeVaryingColumn::Set(std::size_t entity, std::size_t t, std::string_view value) {
  GT_CHECK_LT(t, by_time_.size()) << "time out of range for attribute " << name_;
  GT_CHECK_LT(entity, entities_) << "entity out of range for attribute " << name_;
  by_time_[t][entity] = dict_.GetOrAdd(value);
}

AttrValueId TimeVaryingColumn::CodeAt(std::size_t entity, std::size_t t) const {
  const std::vector<AttrValueId>& codes = CodesAt(t);
  GT_CHECK_LT(entity, entities_) << "entity out of range for attribute " << name_;
  return codes[entity];
}

const std::string& TimeVaryingColumn::ValueAt(std::size_t entity, std::size_t t) const {
  AttrValueId code = CodeAt(entity, t);
  GT_CHECK_NE(code, kNoValue) << "attribute " << name_ << " unset for entity " << entity
                              << " at time " << t;
  return dict_.ValueOf(code);
}

}  // namespace graphtempo
