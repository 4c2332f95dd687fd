#include "util/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/check.h"

namespace graphtempo::json {

Value Value::Bool(bool value) {
  Value v;
  v.type_ = Type::kBool;
  v.bool_ = value;
  return v;
}

Value Value::Number(double value) {
  Value v;
  v.type_ = Type::kNumber;
  v.number_ = value;
  return v;
}

Value Value::Number(std::uint64_t value) {
  Value v;
  v.type_ = Type::kNumber;
  v.number_ = static_cast<double>(value);
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%llu", static_cast<unsigned long long>(value));
  v.text_ = buffer;
  return v;
}

Value Value::Number(std::int64_t value) {
  Value v;
  v.type_ = Type::kNumber;
  v.number_ = static_cast<double>(value);
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%lld", static_cast<long long>(value));
  v.text_ = buffer;
  return v;
}

Value Value::String(std::string value) {
  Value v;
  v.type_ = Type::kString;
  v.text_ = std::move(value);
  return v;
}

Value Value::Array(std::vector<Value> items) {
  Value v;
  v.type_ = Type::kArray;
  v.items_ = std::move(items);
  return v;
}

Value Value::Object(std::vector<Member> members) {
  Value v;
  v.type_ = Type::kObject;
  v.members_ = std::move(members);
  return v;
}

bool Value::AsBool() const {
  GT_CHECK(is_bool()) << "JSON value is not a bool";
  return bool_;
}

double Value::AsDouble() const {
  GT_CHECK(is_number()) << "JSON value is not a number";
  return number_;
}

std::optional<std::uint64_t> Value::AsUint64() const {
  if (!is_number()) return std::nullopt;
  // Prefer the original spelling: doubles lose precision beyond 2^53.
  if (!text_.empty() && text_.find_first_of(".eE-") == std::string::npos) {
    std::uint64_t value = 0;
    auto [ptr, ec] = std::from_chars(text_.data(), text_.data() + text_.size(), value);
    if (ec == std::errc() && ptr == text_.data() + text_.size()) return value;
    return std::nullopt;
  }
  if (number_ < 0 || std::floor(number_) != number_ || number_ > 1.8e19) {
    return std::nullopt;
  }
  return static_cast<std::uint64_t>(number_);
}

const std::string& Value::AsString() const {
  GT_CHECK(is_string()) << "JSON value is not a string";
  return text_;
}

const std::vector<Value>& Value::AsArray() const {
  GT_CHECK(is_array()) << "JSON value is not an array";
  return items_;
}

const std::vector<Member>& Value::AsObject() const {
  GT_CHECK(is_object()) << "JSON value is not an object";
  return members_;
}

const Value* Value::Find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const Member& member : members_) {
    if (member.first == key) return &member.second;
  }
  return nullptr;
}

void Value::Append(Value item) {
  GT_CHECK(is_array()) << "Append on a non-array JSON value";
  items_.push_back(std::move(item));
}

void Value::Set(std::string key, Value value) {
  GT_CHECK(is_object()) << "Set on a non-object JSON value";
  members_.emplace_back(std::move(key), std::move(value));
}

void EscapeString(std::string_view text, std::string* out) {
  for (char c : text) {
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\b': out->append("\\b"); break;
      case '\f': out->append("\\f"); break;
      case '\n': out->append("\\n"); break;
      case '\r': out->append("\\r"); break;
      case '\t': out->append("\\t"); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out->append(buffer);
        } else {
          out->push_back(c);
        }
    }
  }
}

void AppendNumber(double value, std::string* out) {
  char buffer[32];
  if (std::floor(value) == value && std::abs(value) < 1e15) {
    std::snprintf(buffer, sizeof(buffer), "%lld", static_cast<long long>(value));
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  }
  out->append(buffer);
}

void Value::SerializeTo(std::string* out) const {
  switch (type_) {
    case Type::kNull:
      out->append("null");
      return;
    case Type::kBool:
      out->append(bool_ ? "true" : "false");
      return;
    case Type::kNumber:
      if (!text_.empty()) {
        out->append(text_);
      } else {
        AppendNumber(number_, out);
      }
      return;
    case Type::kString:
      out->push_back('"');
      EscapeString(text_, out);
      out->push_back('"');
      return;
    case Type::kArray: {
      out->push_back('[');
      bool first = true;
      for (const Value& item : items_) {
        if (!first) out->push_back(',');
        first = false;
        item.SerializeTo(out);
      }
      out->push_back(']');
      return;
    }
    case Type::kObject: {
      out->push_back('{');
      bool first = true;
      for (const Member& member : members_) {
        if (!first) out->push_back(',');
        first = false;
        out->push_back('"');
        EscapeString(member.first, out);
        out->append("\":");
        member.second.SerializeTo(out);
      }
      out->push_back('}');
      return;
    }
  }
}

std::string Value::Serialize() const {
  std::string out;
  SerializeTo(&out);
  return out;
}

namespace {

/// Recursive-descent parser over a string_view with a cursor.
class Parser {
 public:
  Parser(std::string_view text, std::string* error) : text_(text), error_(error) {}

  std::optional<Value> ParseDocument() {
    SkipWhitespace();
    std::optional<Value> value = ParseValue(/*depth=*/0);
    if (!value.has_value()) return std::nullopt;
    SkipWhitespace();
    if (pos_ != text_.size()) {
      Fail("trailing characters after JSON document");
      return std::nullopt;
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  void Fail(const std::string& message) {
    if (error_ != nullptr && error_->empty()) {
      *error_ = message + " at byte " + std::to_string(pos_);
    }
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char expected) {
    if (pos_ < text_.size() && text_[pos_] == expected) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) == literal) {
      pos_ += literal.size();
      return true;
    }
    return false;
  }

  std::optional<Value> ParseValue(int depth) {
    if (depth > kMaxDepth) {
      Fail("nesting too deep");
      return std::nullopt;
    }
    if (pos_ >= text_.size()) {
      Fail("unexpected end of input");
      return std::nullopt;
    }
    switch (text_[pos_]) {
      case 'n':
        if (ConsumeLiteral("null")) return Value::Null();
        break;
      case 't':
        if (ConsumeLiteral("true")) return Value::Bool(true);
        break;
      case 'f':
        if (ConsumeLiteral("false")) return Value::Bool(false);
        break;
      case '"':
        return ParseString();
      case '[':
        return ParseArray(depth);
      case '{':
        return ParseObject(depth);
      default:
        if (text_[pos_] == '-' || (text_[pos_] >= '0' && text_[pos_] <= '9')) {
          return ParseNumber();
        }
        break;
    }
    Fail(std::string("unexpected character '") + text_[pos_] + "'");
    return std::nullopt;
  }

  std::optional<Value> ParseNumber() {
    std::size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (Consume('.')) {
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    std::string spelling(text_.substr(start, pos_ - start));
    char* end = nullptr;
    double parsed = std::strtod(spelling.c_str(), &end);
    if (spelling.empty() || end != spelling.c_str() + spelling.size()) {
      pos_ = start;
      Fail("malformed number");
      return std::nullopt;
    }
    return NumberWithSpelling(parsed, std::move(spelling));
  }

  static Value NumberWithSpelling(double parsed, std::string spelling) {
    // Route through the uint64/int64 constructors when the spelling is a
    // plain integer so AsUint64 stays exact; otherwise keep the double.
    if (spelling.find_first_of(".eE") == std::string::npos) {
      if (!spelling.empty() && spelling[0] == '-') {
        long long signed_value = 0;
        auto [ptr, ec] = std::from_chars(spelling.data(),
                                         spelling.data() + spelling.size(), signed_value);
        if (ec == std::errc() && ptr == spelling.data() + spelling.size()) {
          return Value::Number(static_cast<std::int64_t>(signed_value));
        }
      } else {
        std::uint64_t unsigned_value = 0;
        auto [ptr, ec] = std::from_chars(
            spelling.data(), spelling.data() + spelling.size(), unsigned_value);
        if (ec == std::errc() && ptr == spelling.data() + spelling.size()) {
          return Value::Number(unsigned_value);
        }
      }
    }
    return Value::Number(parsed);
  }

  std::optional<Value> ParseString() {
    if (!Consume('"')) {
      Fail("expected '\"'");
      return std::nullopt;
    }
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return Value::String(std::move(out));
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      char escape = text_[pos_++];
      switch (escape) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            Fail("truncated \\u escape");
            return std::nullopt;
          }
          unsigned int code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned int>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned int>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned int>(h - 'A' + 10);
            } else {
              Fail("malformed \\u escape");
              return std::nullopt;
            }
          }
          // Encode the code point as UTF-8 (surrogate pairs not recombined —
          // the wire format never emits them).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          Fail(std::string("unknown escape '\\") + escape + "'");
          return std::nullopt;
      }
    }
    Fail("unterminated string");
    return std::nullopt;
  }

  std::optional<Value> ParseArray(int depth) {
    Consume('[');
    Value array = Value::Array();
    SkipWhitespace();
    if (Consume(']')) return array;
    while (true) {
      SkipWhitespace();
      std::optional<Value> item = ParseValue(depth + 1);
      if (!item.has_value()) return std::nullopt;
      array.Append(std::move(*item));
      SkipWhitespace();
      if (Consume(']')) return array;
      if (!Consume(',')) {
        Fail("expected ',' or ']' in array");
        return std::nullopt;
      }
    }
  }

  std::optional<Value> ParseObject(int depth) {
    Consume('{');
    Value object = Value::Object();
    SkipWhitespace();
    if (Consume('}')) return object;
    while (true) {
      SkipWhitespace();
      std::optional<Value> key = ParseString();
      if (!key.has_value()) return std::nullopt;
      SkipWhitespace();
      if (!Consume(':')) {
        Fail("expected ':' after object key");
        return std::nullopt;
      }
      SkipWhitespace();
      std::optional<Value> value = ParseValue(depth + 1);
      if (!value.has_value()) return std::nullopt;
      object.Set(key->AsString(), std::move(*value));
      SkipWhitespace();
      if (Consume('}')) return object;
      if (!Consume(',')) {
        Fail("expected ',' or '}' in object");
        return std::nullopt;
      }
    }
  }

  std::string_view text_;
  std::string* error_;
  std::size_t pos_ = 0;
};

}  // namespace

std::optional<Value> Parse(std::string_view text, std::string* error) {
  std::string local_error;
  Parser parser(text, error != nullptr ? error : &local_error);
  if (error != nullptr) error->clear();
  return parser.ParseDocument();
}

}  // namespace graphtempo::json
