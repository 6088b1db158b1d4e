#include "util/json.h"

#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "util/logging.h"

namespace xstream {

void JsonWriter::MaybeComma() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // value follows its key, never a comma
  }
  if (!has_elem_.empty()) {
    if (has_elem_.back()) {
      out_.push_back(',');
    }
    has_elem_.back() = true;
  }
}

JsonWriter& JsonWriter::BeginObject() {
  MaybeComma();
  out_.push_back('{');
  has_elem_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  XS_CHECK(!has_elem_.empty());
  has_elem_.pop_back();
  out_.push_back('}');
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  MaybeComma();
  out_.push_back('[');
  has_elem_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  XS_CHECK(!has_elem_.empty());
  has_elem_.pop_back();
  out_.push_back(']');
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  MaybeComma();
  out_.push_back('"');
  out_.append(Escape(key));
  out_.append("\":");
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::Value(std::string_view v) {
  MaybeComma();
  out_.push_back('"');
  out_.append(Escape(v));
  out_.push_back('"');
  return *this;
}

JsonWriter& JsonWriter::Value(bool v) {
  MaybeComma();
  out_.append(v ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::Value(double v) {
  MaybeComma();
  if (!std::isfinite(v)) {
    // JSON has no NaN/Inf; null keeps the document valid and the hole visible.
    out_.append("null");
    return *this;
  }
  // Shortest form that parses back (strtod) to the same bits.
  char buf[32];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  XS_CHECK(ec == std::errc());
  out_.append(buf, end);
  return *this;
}

JsonWriter& JsonWriter::Value(int64_t v) {
  MaybeComma();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  out_.append(buf);
  return *this;
}

JsonWriter& JsonWriter::Value(uint64_t v) {
  MaybeComma();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out_.append(buf);
  return *this;
}

JsonWriter& JsonWriter::Raw(std::string_view json) {
  MaybeComma();
  out_.append(json);
  return *this;
}

std::string JsonWriter::Escape(std::string_view v) {
  std::string out;
  out.reserve(v.size());
  for (unsigned char c : v) {
    switch (c) {
      case '"':
        out.append("\\\"");
        break;
      case '\\':
        out.append("\\\\");
        break;
      case '\n':
        out.append("\\n");
        break;
      case '\r':
        out.append("\\r");
        break;
      case '\t':
        out.append("\\t");
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out.append(buf);
        } else {
          out.push_back(static_cast<char>(c));
        }
    }
  }
  return out;
}

const std::string& JsonValue::as_string() const {
  static const std::string kEmpty;
  return is_string() ? string_ : kEmpty;
}

const std::vector<JsonValue>& JsonValue::as_array() const {
  static const std::vector<JsonValue> kEmpty;
  return is_array() ? array_ : kEmpty;
}

const std::map<std::string, JsonValue>& JsonValue::as_object() const {
  static const std::map<std::string, JsonValue> kEmpty;
  return is_object() ? object_ : kEmpty;
}

const JsonValue* JsonValue::Get(const std::string& key) const {
  if (!is_object()) {
    return nullptr;
  }
  auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

JsonValue JsonValue::Bool(bool v) {
  JsonValue out;
  out.type_ = Type::kBool;
  out.bool_ = v;
  return out;
}

JsonValue JsonValue::Number(double v) {
  JsonValue out;
  out.type_ = Type::kNumber;
  out.number_ = v;
  return out;
}

JsonValue JsonValue::String(std::string v) {
  JsonValue out;
  out.type_ = Type::kString;
  out.string_ = std::move(v);
  return out;
}

JsonValue JsonValue::Array(std::vector<JsonValue> v) {
  JsonValue out;
  out.type_ = Type::kArray;
  out.array_ = std::move(v);
  return out;
}

JsonValue JsonValue::Object(std::map<std::string, JsonValue> v) {
  JsonValue out;
  out.type_ = Type::kObject;
  out.object_ = std::move(v);
  return out;
}

namespace {

// Recursive-descent parser over a string_view. Strict by construction: every
// deviation from RFC 8259 sets `error` with the byte offset where parsing
// stopped. Depth is capped so a few KB of '[' cannot overflow the stack.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  bool Parse(JsonValue* out, std::string* error) {
    SkipWs();
    bool ok = ParseValue(out, 0);
    if (ok) {
      SkipWs();
      if (pos_ != text_.size()) {
        ok = Fail("trailing characters after document");
      }
    }
    if (!ok && error != nullptr) {
      *error = "offset " + std::to_string(error_pos_) + ": " + error_;
    }
    return ok;
  }

 private:
  static constexpr int kMaxDepth = 64;

  bool Fail(const char* reason) {
    // Keep the first (innermost) failure; callers unwind through Fail too.
    if (error_.empty()) {
      error_ = reason;
      error_pos_ = pos_;
    }
    return false;
  }

  void SkipWs() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
        break;
      }
      ++pos_;
    }
  }

  bool Literal(std::string_view word) {
    if (text_.compare(pos_, word.size(), word) != 0) {
      return Fail("invalid literal");
    }
    pos_ += word.size();
    return true;
  }

  bool ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) {
      return Fail("nesting too deep");
    }
    if (pos_ >= text_.size()) {
      return Fail("unexpected end of input");
    }
    switch (text_[pos_]) {
      case 'n':
        if (!Literal("null")) return false;
        *out = JsonValue::Null();
        return true;
      case 't':
        if (!Literal("true")) return false;
        *out = JsonValue::Bool(true);
        return true;
      case 'f':
        if (!Literal("false")) return false;
        *out = JsonValue::Bool(false);
        return true;
      case '"': {
        std::string s;
        if (!ParseString(&s)) return false;
        *out = JsonValue::String(std::move(s));
        return true;
      }
      case '[':
        return ParseArray(out, depth);
      case '{':
        return ParseObject(out, depth);
      default:
        return ParseNumber(out);
    }
  }

  bool ParseArray(JsonValue* out, int depth) {
    ++pos_;  // '['
    std::vector<JsonValue> elems;
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      *out = JsonValue::Array(std::move(elems));
      return true;
    }
    while (true) {
      JsonValue elem;
      SkipWs();
      if (!ParseValue(&elem, depth + 1)) return false;
      elems.push_back(std::move(elem));
      SkipWs();
      if (pos_ >= text_.size()) return Fail("unterminated array");
      char c = text_[pos_++];
      if (c == ']') break;
      if (c != ',') {
        --pos_;
        return Fail("expected ',' or ']' in array");
      }
    }
    *out = JsonValue::Array(std::move(elems));
    return true;
  }

  bool ParseObject(JsonValue* out, int depth) {
    ++pos_;  // '{'
    std::map<std::string, JsonValue> members;
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      *out = JsonValue::Object(std::move(members));
      return true;
    }
    while (true) {
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected string key in object");
      }
      std::string key;
      if (!ParseString(&key)) return false;
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Fail("expected ':' after object key");
      }
      ++pos_;
      SkipWs();
      JsonValue value;
      if (!ParseValue(&value, depth + 1)) return false;
      members[std::move(key)] = std::move(value);  // last duplicate wins
      SkipWs();
      if (pos_ >= text_.size()) return Fail("unterminated object");
      char c = text_[pos_++];
      if (c == '}') break;
      if (c != ',') {
        --pos_;
        return Fail("expected ',' or '}' in object");
      }
    }
    *out = JsonValue::Object(std::move(members));
    return true;
  }

  bool ParseString(std::string* out) {
    ++pos_;  // opening '"'
    out->clear();
    while (true) {
      if (pos_ >= text_.size()) return Fail("unterminated string");
      unsigned char c = static_cast<unsigned char>(text_[pos_++]);
      if (c == '"') return true;
      if (c < 0x20) {
        --pos_;
        return Fail("raw control character in string");
      }
      if (c != '\\') {
        out->push_back(static_cast<char>(c));  // UTF-8 bytes pass through
        continue;
      }
      if (pos_ >= text_.size()) return Fail("unterminated escape");
      char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          unsigned code = 0;
          if (!ParseHex4(&code)) return false;
          if (code >= 0xD800 && code <= 0xDBFF) {
            // High surrogate: require the low half and combine.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' || text_[pos_ + 1] != 'u') {
              return Fail("unpaired surrogate");
            }
            pos_ += 2;
            unsigned low = 0;
            if (!ParseHex4(&low)) return false;
            if (low < 0xDC00 || low > 0xDFFF) {
              return Fail("invalid low surrogate");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            return Fail("unpaired surrogate");
          }
          AppendUtf8(out, code);
          break;
        }
        default:
          pos_ -= 1;
          return Fail("invalid escape");
      }
    }
  }

  bool ParseHex4(unsigned* out) {
    if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      char c = text_[pos_ + static_cast<size_t>(i)];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        return Fail("bad hex digit in \\u escape");
      }
    }
    pos_ += 4;
    *out = value;
    return true;
  }

  static void AppendUtf8(std::string* out, unsigned code) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (code >> 18)));
      out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  bool ParseNumber(JsonValue* out) {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    // Integer part: a lone 0 or a nonzero-led digit run (leading zeros are
    // invalid JSON).
    if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
      pos_ = start;
      return Fail("invalid value");
    }
    if (text_[pos_] == '0') {
      ++pos_;
    } else {
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      size_t frac_start = pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
      if (pos_ == frac_start) return Fail("digits required after decimal point");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      size_t exp_start = pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
      if (pos_ == exp_start) return Fail("digits required in exponent");
    }
    // The slice is validated above, so strtod consumes exactly this range.
    std::string digits(text_.substr(start, pos_ - start));
    *out = JsonValue::Number(std::strtod(digits.c_str(), nullptr));
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
  std::string error_;
  size_t error_pos_ = 0;
};

}  // namespace

bool ParseJson(std::string_view text, JsonValue* out, std::string* error) {
  return JsonParser(text).Parse(out, error);
}

bool WriteJsonFile(const std::string& path, const std::string& json) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    XS_LOG(Error) << "cannot open " << path << " for writing";
    return false;
  }
  bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  ok = std::fputc('\n', f) != EOF && ok;
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    XS_LOG(Error) << "short write to " << path;
  }
  return ok;
}

}  // namespace xstream
