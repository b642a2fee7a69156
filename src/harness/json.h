// JSON support for the harness: sweep export, shared emit helpers, and a
// small parser.
//
// The sweep exporter emits a self-describing document: experiment metadata
// plus one object per point with per-scheme statistics (mean, ci95,
// min/max, switches, misses). No external JSON dependency; the emitter
// escapes strings and prints numbers round-trippably. The same escape /
// number helpers back every other JSON writer in the tree (obs/ metrics
// and Chrome traces).
//
// The parser reads any JSON text into a JsonValue tree. It exists for
// round-trip validation — tests parse the documents the writers emit
// (sweep JSON, metrics snapshots, Chrome traces) back and inspect them —
// and for tools that consume the repo's own JSON artifacts. It accepts
// standard JSON (no comments, no trailing commas) and throws
// paserta::Error with a byte offset on malformed input.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.h"

namespace paserta {

struct JsonExportOptions {
  std::string experiment_id;   // e.g. "fig4a"
  std::string caption;
  std::string x_name = "x";    // "load" or "alpha"
};

void write_sweep_json(std::ostream& os, const std::vector<SweepPoint>& points,
                      const JsonExportOptions& options);

std::string sweep_to_json(const std::vector<SweepPoint>& points,
                          const JsonExportOptions& options);

/// Escapes a string for embedding between JSON double quotes (quotes,
/// backslashes, and control characters).
std::string json_escape(const std::string& s);

/// Round-trippable JSON number (12 significant digits); non-finite values
/// become "null" (JSON has no NaN/Inf).
std::string json_num(double v);

/// Streaming JSON writer shared by every emitter in the tree (sweep
/// export, metrics snapshots, Chrome traces, serve responses). Handles
/// comma placement, string escaping (json_escape) and number formatting
/// (json_num) so callers never hand-roll separators. With indent == 0 the
/// output is compact (single line); with indent > 0 objects and arrays
/// are pretty-printed one member per line.
///
/// Usage:
///   JsonWriter w(os);
///   w.begin_object().key("a").value(1.0).key("b").begin_array()
///       .value("x").end_array().end_object();
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os, int indent = 0)
      : os_(os), indent_(indent) {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Emits an object member key; the next value/begin_* call is its value.
  JsonWriter& key(const std::string& k);

  JsonWriter& value(const std::string& s);
  JsonWriter& value(const char* s);
  JsonWriter& value(double v);
  // long long is the canonical integer overload (int64_t's underlying
  // type varies across LP64/LLP64); the narrower types forward.
  JsonWriter& value(long long v);
  JsonWriter& value(unsigned long long v);
  JsonWriter& value(int v) { return value(static_cast<long long>(v)); }
  JsonWriter& value(unsigned v) {
    return value(static_cast<unsigned long long>(v));
  }
  JsonWriter& value(long v) { return value(static_cast<long long>(v)); }
  JsonWriter& value(unsigned long v) {
    return value(static_cast<unsigned long long>(v));
  }
  JsonWriter& value(bool v);
  JsonWriter& null();

  /// Splices pre-rendered JSON verbatim in value position (e.g. a
  /// sub-document rendered elsewhere whose bytes must be preserved).
  JsonWriter& raw(const std::string& json);

  /// True once every begin_* has been matched by its end_* and one
  /// top-level value was written.
  bool balanced() const { return stack_.empty() && wrote_top_; }

 private:
  struct Frame {
    char kind;         // '{' or '['
    bool has_items = false;
    bool key_pending = false;
  };

  void before_value();  // separator + indentation management
  void newline_indent(std::size_t depth);

  std::ostream& os_;
  int indent_;
  bool wrote_top_ = false;
  std::vector<Frame> stack_;
};

/// A parsed JSON document node. Object member order is preserved.
struct JsonValue {
  enum class Type { Null, Bool, Number, String, Array, Object };

  Type type = Type::Null;
  bool boolean = false;
  double number = 0.0;
  /// A String's value; a Number's token as written, which stays exact
  /// where `number` rounds (integers past 2^53).
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_null() const { return type == Type::Null; }
  bool is_object() const { return type == Type::Object; }
  bool is_array() const { return type == Type::Array; }

  /// Object member lookup; null when absent or not an object.
  const JsonValue* find(const std::string& key) const;
  /// find() that throws paserta::Error when the key is absent.
  const JsonValue& at(const std::string& key) const;
};

/// Parses one JSON document (throws paserta::Error on malformed input or
/// trailing garbage).
JsonValue json_parse(const std::string& text);

}  // namespace paserta
