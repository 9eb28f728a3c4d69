#include "nfv/obs/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ostream>

#include "nfv/common/error.h"

namespace nfv::obs {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

JsonWriter::JsonWriter(std::ostream& os, int indent)
    : os_(os), indent_width_(indent) {}

void JsonWriter::newline() {
  if (indent_width_ <= 0) return;
  os_ << '\n';
  for (std::size_t i = 0; i < stack_.size(); ++i) {
    for (int j = 0; j < indent_width_; ++j) os_ << ' ';
  }
}

void JsonWriter::before_value() {
  if (stack_.empty()) return;  // top-level value
  if (stack_.back() == Frame::kObject) {
    NFV_CHECK(pending_key_);  // object members need key() first
    pending_key_ = false;
    return;
  }
  if (has_members_.back()) os_ << ',';
  has_members_.back() = true;
  newline();
}

void JsonWriter::begin_object() {
  before_value();
  os_ << '{';
  stack_.push_back(Frame::kObject);
  has_members_.push_back(false);
}

void JsonWriter::end_object() {
  NFV_CHECK(!stack_.empty() && stack_.back() == Frame::kObject);
  NFV_CHECK(!pending_key_);
  const bool had = has_members_.back();
  stack_.pop_back();
  has_members_.pop_back();
  if (had) newline();
  os_ << '}';
}

void JsonWriter::begin_array() {
  before_value();
  os_ << '[';
  stack_.push_back(Frame::kArray);
  has_members_.push_back(false);
}

void JsonWriter::end_array() {
  NFV_CHECK(!stack_.empty() && stack_.back() == Frame::kArray);
  const bool had = has_members_.back();
  stack_.pop_back();
  has_members_.pop_back();
  if (had) newline();
  os_ << ']';
}

void JsonWriter::key(std::string_view k) {
  NFV_CHECK(!stack_.empty() && stack_.back() == Frame::kObject);
  NFV_CHECK(!pending_key_);
  if (has_members_.back()) os_ << ',';
  has_members_.back() = true;
  newline();
  os_ << '"' << json_escape(k) << "\": ";
  pending_key_ = true;
}

void JsonWriter::value(std::string_view v) {
  before_value();
  os_ << '"' << json_escape(v) << '"';
}

void JsonWriter::value(double v) {
  before_value();
  if (!std::isfinite(v)) {
    os_ << "null";  // JSON has no NaN/Infinity
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  os_ << buf;
}

void JsonWriter::value(std::int64_t v) {
  before_value();
  os_ << v;
}

void JsonWriter::value(std::uint64_t v) {
  before_value();
  os_ << v;
}

void JsonWriter::value(bool v) {
  before_value();
  os_ << (v ? "true" : "false");
}

void JsonWriter::null() {
  before_value();
  os_ << "null";
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

namespace {

class Parser {
 public:
  Parser(std::string_view text, std::string* error)
      : text_(text), error_(error) {}

  std::optional<JsonValue> run() {
    skip_ws();
    auto v = parse_value();
    if (!v) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing characters after document");
      return std::nullopt;
    }
    return v;
  }

 private:
  void fail(const std::string& what) {
    if (error_ != nullptr && error_->empty()) {
      *error_ = what + " at byte " + std::to_string(pos_);
    }
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  [[nodiscard]] bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  [[nodiscard]] bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  std::optional<JsonValue> parse_value() {
    if (depth_ > kMaxDepth) {
      fail("nesting too deep");
      return std::nullopt;
    }
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return std::nullopt;
    }
    const char c = text_[pos_];
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') {
      auto s = parse_string();
      if (!s) return std::nullopt;
      return JsonValue(std::move(*s));
    }
    if (literal("true")) return JsonValue(true);
    if (literal("false")) return JsonValue(false);
    if (literal("null")) return JsonValue(nullptr);
    return parse_number();
  }

  std::optional<JsonValue> parse_object() {
    ++depth_;
    ++pos_;  // '{'
    JsonValue::Object obj;
    skip_ws();
    if (consume('}')) {
      --depth_;
      return obj;
    }
    while (true) {
      skip_ws();
      auto key = parse_string();
      if (!key) return std::nullopt;
      skip_ws();
      if (!consume(':')) {
        fail("expected ':' in object");
        return std::nullopt;
      }
      skip_ws();
      auto val = parse_value();
      if (!val) return std::nullopt;
      obj.insert_or_assign(std::move(*key), std::move(*val));
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) break;
      fail("expected ',' or '}' in object");
      return std::nullopt;
    }
    --depth_;
    return obj;
  }

  std::optional<JsonValue> parse_array() {
    ++depth_;
    ++pos_;  // '['
    JsonValue::Array arr;
    skip_ws();
    if (consume(']')) {
      --depth_;
      return arr;
    }
    while (true) {
      skip_ws();
      auto val = parse_value();
      if (!val) return std::nullopt;
      arr.push_back(std::move(*val));
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) break;
      fail("expected ',' or ']' in array");
      return std::nullopt;
    }
    --depth_;
    return arr;
  }

  std::optional<std::string> parse_string() {
    if (!consume('"')) {
      fail("expected string");
      return std::nullopt;
    }
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            fail("truncated \\u escape");
            return std::nullopt;
          }
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') {
              cp |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              cp |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              cp |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape");
              return std::nullopt;
            }
          }
          // UTF-8 encode the basic-plane code point (the emitters only
          // produce \u for control characters; surrogate pairs are passed
          // through as two 3-byte sequences, which is lossy but safe).
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default:
          fail("bad escape character");
          return std::nullopt;
      }
    }
    fail("unterminated string");
    return std::nullopt;
  }

  std::optional<JsonValue> parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      fail("expected a value");
      return std::nullopt;
    }
    const std::string copy(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double d = std::strtod(copy.c_str(), &end);
    if (end != copy.c_str() + copy.size()) {
      fail("malformed number");
      return std::nullopt;
    }
    return JsonValue(d);
  }

  static constexpr int kMaxDepth = 128;

  std::string_view text_;
  std::string* error_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  const auto& obj = as_object();
  const auto it = obj.find(key);
  return it == obj.end() ? nullptr : &it->second;
}

double JsonValue::number_or(std::string_view key, double fallback) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->is_number()) ? v->as_number() : fallback;
}

std::string JsonValue::string_or(std::string_view key,
                                 std::string fallback) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->is_string()) ? v->as_string()
                                          : std::move(fallback);
}

std::optional<JsonValue> parse_json(std::string_view text,
                                    std::string* error) {
  if (error != nullptr) error->clear();
  return Parser(text, error).run();
}

}  // namespace nfv::obs
