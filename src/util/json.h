#ifndef GRAPHTEMPO_UTIL_JSON_H_
#define GRAPHTEMPO_UTIL_JSON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

/// \file
/// A minimal JSON value: parse, inspect, serialize. Powers the query server's
/// wire format (docs/SERVER.md) — request bodies in, results and metrics out —
/// and the load generator's metrics scraping. Deliberately small:
///
///   * numbers are held as `double` plus the original text (so 64-bit counter
///     values survive a parse→serialize round trip unchanged);
///   * object member order is preserved (serialization is deterministic);
///   * no comments, no trailing commas, UTF-8 passed through verbatim except
///     for the escapes JSON requires.
///
/// Like the rest of util/, this depends on nothing but the standard library.

namespace graphtempo::json {

class Value;

/// Object members as an order-preserving vector of (key, value).
using Member = std::pair<std::string, Value>;

/// One JSON value of any type. Copyable; cheap to move.
class Value {
 public:
  enum class Type : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() : type_(Type::kNull) {}
  static Value Null() { return Value(); }
  static Value Bool(bool value);
  static Value Number(double value);
  static Value Number(std::uint64_t value);
  static Value Number(std::int64_t value);
  static Value String(std::string value);
  static Value Array(std::vector<Value> items = {});
  static Value Object(std::vector<Member> members = {});

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; GT_CHECK on type mismatch.
  bool AsBool() const;
  double AsDouble() const;
  /// Integer value when the number is integral and fits; nullopt otherwise.
  std::optional<std::uint64_t> AsUint64() const;
  const std::string& AsString() const;
  const std::vector<Value>& AsArray() const;
  const std::vector<Member>& AsObject() const;

  /// Object member lookup (first match); nullptr when absent or not an object.
  const Value* Find(std::string_view key) const;

  /// Appends to an array / object under construction; GT_CHECKs the type.
  void Append(Value item);
  void Set(std::string key, Value value);

  /// Compact serialization (no whitespace). Numbers parsed from text
  /// round-trip verbatim; programmatic doubles print shortest-exact.
  std::string Serialize() const;
  void SerializeTo(std::string* out) const;

 private:
  Type type_;
  bool bool_ = false;
  double number_ = 0;
  std::string text_;  // string payload, or the number's original spelling
  std::vector<Value> items_;
  std::vector<Member> members_;
};

/// Parses `text` as one JSON document (surrounding whitespace allowed).
/// Returns nullopt and sets `*error` (with a byte offset) on malformed input.
std::optional<Value> Parse(std::string_view text, std::string* error);

/// Escapes `text` as the *contents* of a JSON string (no surrounding quotes).
void EscapeString(std::string_view text, std::string* out);

/// Appends `value` exactly as `Value::Number(value)` serializes it: integral
/// values below 1e15 as integers, everything else with 17 significant digits.
/// For writers that emit JSON without building a `Value`.
void AppendNumber(double value, std::string* out);

}  // namespace graphtempo::json

#endif  // GRAPHTEMPO_UTIL_JSON_H_
