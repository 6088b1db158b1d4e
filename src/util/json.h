// Minimal JSON support: a streaming writer (the single JSON emitter shared
// by the metrics registry snapshot, the Chrome trace exporter,
// RunStats::ToJson and the bench --json=FILE mode) and a strict recursive-
// descent parser (ParseJson) that the serve daemon uses to decode request
// bodies. Both are dependency-free; the parser is strict RFC 8259 — no
// comments, no trailing commas, UTF-8 passed through verbatim — and depth-
// capped so hostile input cannot blow the stack.
#ifndef XSTREAM_UTIL_JSON_H_
#define XSTREAM_UTIL_JSON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace xstream {

class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();

  // Key for the next value inside an object.
  JsonWriter& Key(std::string_view key);

  JsonWriter& Value(std::string_view v);
  JsonWriter& Value(const char* v) { return Value(std::string_view(v)); }
  JsonWriter& Value(bool v);
  JsonWriter& Value(double v);
  JsonWriter& Value(int64_t v);
  JsonWriter& Value(uint64_t v);
  JsonWriter& Value(int v) { return Value(static_cast<int64_t>(v)); }
  JsonWriter& Value(unsigned v) { return Value(static_cast<uint64_t>(v)); }

  // Key + value in one call.
  template <typename T>
  JsonWriter& Field(std::string_view key, T v) {
    Key(key);
    return Value(v);
  }

  // Splices pre-serialized JSON in value position (e.g. a nested document
  // produced by another JsonWriter). The caller guarantees validity.
  JsonWriter& Raw(std::string_view json);

  const std::string& str() const { return out_; }
  std::string TakeString() { return std::move(out_); }

  // Escapes `v` per RFC 8259 (quotes, backslash, control characters).
  static std::string Escape(std::string_view v);

 private:
  void MaybeComma();

  std::string out_;
  // One entry per open container: true once the first element was written.
  std::vector<bool> has_elem_;
  bool pending_key_ = false;
};

// Writes `json` to `path` (with a trailing newline). Returns false and logs
// on I/O failure.
bool WriteJsonFile(const std::string& path, const std::string& json);

// One parsed JSON value. Objects keep their members in a sorted map (the
// consumers look fields up by name; source order never matters here).
// Numbers are stored as double — the writer emits each double in the
// shortest form that reads back to it (std::to_chars), so a write → parse
// round trip is bit-exact, which the serve tests rely on.
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;  // null

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  // Typed accessors return the natural default (false / 0.0 / "" / empty)
  // when the value holds a different type — callers validate with is_*()
  // first where the distinction matters.
  bool as_bool() const { return is_bool() && bool_; }
  double as_double() const { return is_number() ? number_ : 0.0; }
  int64_t as_int() const { return static_cast<int64_t>(as_double()); }
  const std::string& as_string() const;
  const std::vector<JsonValue>& as_array() const;
  const std::map<std::string, JsonValue>& as_object() const;

  // Object member lookup; returns nullptr when this is not an object or the
  // key is absent. `value.Get("params")` chains naturally with `?:` guards.
  const JsonValue* Get(const std::string& key) const;

  // Construction (used by the parser; handy for tests).
  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool v);
  static JsonValue Number(double v);
  static JsonValue String(std::string v);
  static JsonValue Array(std::vector<JsonValue> v);
  static JsonValue Object(std::map<std::string, JsonValue> v);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

// Strict RFC 8259 parse of `text` (one document, trailing whitespace only).
// On success returns true and fills `out`; on failure returns false and
// fills `error` (when non-null) with a byte offset + reason. Nesting deeper
// than 64 containers is rejected.
bool ParseJson(std::string_view text, JsonValue* out, std::string* error = nullptr);

}  // namespace xstream

#endif  // XSTREAM_UTIL_JSON_H_
