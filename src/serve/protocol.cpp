#include "serve/protocol.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/error.h"
#include "common/time.h"
#include "common/version.h"
#include "harness/json.h"
#include "power/level_table.h"

namespace paserta {
namespace {

/// Re-renders a parsed "id" member for the response echo. Only scalar ids
/// are accepted — an object/array id smells like a confused client.
std::string render_id(const JsonValue& v) {
  std::ostringstream os;
  JsonWriter w(os);
  switch (v.type) {
    case JsonValue::Type::String: w.value(v.str); break;
    case JsonValue::Type::Number: w.value(v.number); break;
    case JsonValue::Type::Bool: w.value(v.boolean); break;
    case JsonValue::Type::Null: w.null(); break;
    default:
      PASERTA_REQUIRE(false, "request id must be a scalar");
  }
  return os.str();
}

int int_field(const JsonValue& v, const char* name, int lo, int hi,
              int fallback) {
  const JsonValue* f = v.find(name);
  if (f == nullptr) return fallback;
  PASERTA_REQUIRE(f->type == JsonValue::Type::Number,
                  "request field '" << name << "' must be a number");
  const double d = f->number;
  PASERTA_REQUIRE(std::isfinite(d) && d == std::floor(d) && d >= lo &&
                      d <= hi,
                  "request field '" << name << "' must be an integer in ["
                                    << lo << ", " << hi << "]");
  return static_cast<int>(d);
}

}  // namespace

std::string hash_hex(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

SimRequest parse_request(const std::string& line, const ServeLimits& limits) {
  PASERTA_REQUIRE(line.size() <= limits.max_request_bytes,
                  "request too large: " << line.size() << " bytes (limit "
                                        << limits.max_request_bytes << ")");
  const JsonValue doc = json_parse(line);
  PASERTA_REQUIRE(doc.is_object(), "request must be a JSON object");

  SimRequest req;
  if (const JsonValue* id = doc.find("id")) req.id_json = render_id(*id);

  if (const JsonValue* cmd = doc.find("cmd")) {
    PASERTA_REQUIRE(cmd->type == JsonValue::Type::String,
                    "request field 'cmd' must be a string");
    PASERTA_REQUIRE(cmd->str == "hello" || cmd->str == "simulate",
                    "unknown cmd '" << cmd->str
                                    << "' (use hello or simulate)");
    req.command = cmd->str;
  }
  if (req.command == "hello") return req;

  const JsonValue* graph = doc.find("graph");
  PASERTA_REQUIRE(graph != nullptr, "simulate request needs a 'graph'");
  if (graph->type == JsonValue::Type::String) {
    PASERTA_REQUIRE(!graph->str.empty() && graph->str[0] == '@',
                    "string 'graph' must name a builtin (@atr, @synthetic, "
                    "@mpeg); send inline text as {\"text\": ...}");
    req.graph = graph->str;
  } else if (graph->is_object()) {
    const JsonValue& text = graph->at("text");
    PASERTA_REQUIRE(text.type == JsonValue::Type::String,
                    "graph 'text' must be a string");
    PASERTA_REQUIRE(text.str.size() <= limits.max_graph_text_bytes,
                    "graph text too large: " << text.str.size()
                                             << " bytes (limit "
                                             << limits.max_graph_text_bytes
                                             << ")");
    req.graph = text.str;
    req.graph_is_text = true;
  } else {
    PASERTA_REQUIRE(false, "'graph' must be a builtin name or {\"text\": ...}");
  }

  if (const JsonValue* t = doc.find("table")) {
    PASERTA_REQUIRE(t->type == JsonValue::Type::String,
                    "request field 'table' must be a string");
    (void)LevelTable::from_name(t->str);  // validates the name
    req.table = t->str;
  }
  req.cpus = int_field(doc, "cpus", 1, limits.max_cpus, req.cpus);
  req.runs = int_field(doc, "runs", 1, limits.max_runs, req.runs);

  if (const JsonValue* h = doc.find("heuristic")) {
    PASERTA_REQUIRE(h->type == JsonValue::Type::String,
                    "request field 'heuristic' must be a string");
    req.heuristic = heuristic_from_name(h->str);
  }
  if (const JsonValue* s = doc.find("schemes")) {
    PASERTA_REQUIRE(s->is_array() && !s->array.empty(),
                    "request field 'schemes' must be a non-empty array");
    for (const JsonValue& e : s->array) {
      PASERTA_REQUIRE(e.type == JsonValue::Type::String,
                      "scheme names must be strings");
      req.schemes.push_back(scheme_from_name(e.str));
    }
  }
  if (const JsonValue* s = doc.find("seed")) {
    // Read from the number as written: its double rounds past 2^53, where
    // 9007199254740993 would silently run as 9007199254740992. The cap
    // keeps every accepted seed exact in any JSON reader.
    std::uint64_t seed = 0;
    const char* const end = s->str.data() + s->str.size();
    const auto [stop, ec] = std::from_chars(s->str.data(), end, seed);
    PASERTA_REQUIRE(s->type == JsonValue::Type::Number && ec == std::errc{} &&
                        stop == end && seed <= (std::uint64_t{1} << 53),
                    "request field 'seed' must be an integer in [0, 2^53]");
    req.seed = seed;
  }

  if (const JsonValue* st = doc.find("stream")) {
    PASERTA_REQUIRE(st->type == JsonValue::Type::Bool,
                    "request field 'stream' must be a boolean");
    req.stream = st->boolean;
  }

  const JsonValue* load = doc.find("load");
  const JsonValue* dms = doc.find("deadline_ms");
  PASERTA_REQUIRE(load == nullptr || dms == nullptr,
                  "give either 'load' or 'deadline_ms', not both");
  if (load != nullptr) {
    PASERTA_REQUIRE(load->type == JsonValue::Type::Number &&
                        std::isfinite(load->number) && load->number > 0.0 &&
                        load->number <= 1.0,
                    "request field 'load' must be in (0, 1]");
    req.load = load->number;
  }
  if (dms != nullptr) {
    const std::optional<SimTime> d =
        dms->type == JsonValue::Type::Number
            ? SimTime::try_from_ms(dms->number)
            : std::nullopt;
    PASERTA_REQUIRE(d && *d > SimTime::zero(),
                    "request field 'deadline_ms' must be positive and below "
                    "2^63 ps (about 9.2e6 ms)");
    req.deadline_ms = dms->number;
  }
  return req;
}

std::string render_error(const std::string& id_json, const std::string& code,
                         const std::string& message) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  if (!id_json.empty()) w.key("id").raw(id_json);
  w.key("type").value("error").key("code").value(code)
      .key("message").value(message).end_object();
  return os.str();
}

std::string render_hello(const std::string& id_json) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  if (!id_json.empty()) w.key("id").raw(id_json);
  w.key("type").value("hello").key("server").value("paserta")
      .key("git_rev").value(build_git_rev()).key("build").value(build_type())
      .key("proto").value(1).end_object();
  return os.str();
}

std::string render_progress(const std::string& id_json, std::uint64_t done,
                            std::uint64_t total, const std::string& phase,
                            double elapsed_ms, std::uint64_t cycles,
                            std::uint64_t instructions) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  if (!id_json.empty()) w.key("id").raw(id_json);
  w.key("event").value("progress")
      .key("done").value(done)
      .key("total").value(total)
      .key("phase").value(phase)
      .key("elapsed_ms").value(elapsed_ms)
      .key("cycles").value(cycles)
      .key("instructions").value(instructions)
      .end_object();
  return os.str();
}

std::string render_result(const std::string& id_json,
                          std::uint64_t graph_hash, std::uint64_t coalesced,
                          double elapsed_ms,
                          const std::string& experiment_json) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  if (!id_json.empty()) w.key("id").raw(id_json);
  w.key("type").value("result")
      .key("graph_hash").value(hash_hex(graph_hash))
      .key("coalesced").value(coalesced)
      .key("elapsed_ms").value(elapsed_ms)
      .key("experiment").raw(experiment_json)
      .end_object();
  return os.str();
}

}  // namespace paserta
