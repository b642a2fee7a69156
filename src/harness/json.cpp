#include "harness/json.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "common/error.h"

namespace paserta {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream oss;
  oss << std::setprecision(12) << v;
  return oss.str();
}

// ---- writer -----------------------------------------------------------

void JsonWriter::newline_indent(std::size_t depth) {
  if (indent_ <= 0) return;
  os_ << '\n';
  for (std::size_t i = 0; i < depth * static_cast<std::size_t>(indent_); ++i)
    os_ << ' ';
}

void JsonWriter::before_value() {
  if (stack_.empty()) {
    PASERTA_ASSERT(!wrote_top_, "JsonWriter: multiple top-level values");
    wrote_top_ = true;
    return;
  }
  Frame& top = stack_.back();
  if (top.kind == '{') {
    // Values inside objects are introduced by key(); the separator was
    // already emitted there.
    PASERTA_ASSERT(top.key_pending, "JsonWriter: value in object needs key()");
    top.key_pending = false;
    return;
  }
  if (top.has_items) os_ << ',';
  top.has_items = true;
  newline_indent(stack_.size());
}

JsonWriter& JsonWriter::key(const std::string& k) {
  PASERTA_ASSERT(!stack_.empty() && stack_.back().kind == '{',
                 "JsonWriter: key() outside object");
  Frame& top = stack_.back();
  PASERTA_ASSERT(!top.key_pending, "JsonWriter: key() twice without value");
  if (top.has_items) os_ << ',';
  top.has_items = true;
  newline_indent(stack_.size());
  os_ << '"' << json_escape(k) << "\":";
  if (indent_ > 0) os_ << ' ';
  top.key_pending = true;
  return *this;
}

JsonWriter& JsonWriter::begin_object() {
  before_value();
  stack_.push_back(Frame{'{'});
  os_ << '{';
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  PASERTA_ASSERT(!stack_.empty() && stack_.back().kind == '{' &&
                     !stack_.back().key_pending,
                 "JsonWriter: unbalanced end_object()");
  const bool had_items = stack_.back().has_items;
  stack_.pop_back();
  if (had_items) newline_indent(stack_.size());
  os_ << '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  before_value();
  stack_.push_back(Frame{'['});
  os_ << '[';
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  PASERTA_ASSERT(!stack_.empty() && stack_.back().kind == '[',
                 "JsonWriter: unbalanced end_array()");
  const bool had_items = stack_.back().has_items;
  stack_.pop_back();
  if (had_items) newline_indent(stack_.size());
  os_ << ']';
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& s) {
  before_value();
  os_ << '"' << json_escape(s) << '"';
  return *this;
}

JsonWriter& JsonWriter::value(const char* s) { return value(std::string(s)); }

JsonWriter& JsonWriter::value(double v) {
  before_value();
  os_ << json_num(v);
  return *this;
}

JsonWriter& JsonWriter::value(long long v) {
  before_value();
  os_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(unsigned long long v) {
  before_value();
  os_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  before_value();
  os_ << (v ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::null() {
  before_value();
  os_ << "null";
  return *this;
}

JsonWriter& JsonWriter::raw(const std::string& json) {
  before_value();
  os_ << json;
  return *this;
}

// ---- sweep export -----------------------------------------------------

namespace {

inline std::string escape(const std::string& s) { return json_escape(s); }
inline std::string num(double v) { return json_num(v); }

void write_stat(std::ostream& os, const char* key, const RunningStat& st) {
  os << "\"" << key << "\":{\"mean\":" << num(st.mean())
     << ",\"ci95\":" << num(st.ci95_halfwidth()) << ",\"min\":"
     << num(st.min()) << ",\"max\":" << num(st.max()) << ",\"n\":"
     << st.count() << "}";
}

}  // namespace

void write_sweep_json(std::ostream& os, const std::vector<SweepPoint>& points,
                      const JsonExportOptions& opt) {
  os << "{\"experiment\":\"" << escape(opt.experiment_id) << "\","
     << "\"caption\":\"" << escape(opt.caption) << "\","
     << "\"x_name\":\"" << escape(opt.x_name) << "\",\"points\":[";
  for (std::size_t p = 0; p < points.size(); ++p) {
    const SweepPoint& pt = points[p];
    if (p) os << ",";
    // A deadline sweep's x is the deadline itself: one key, not two.
    os << "{\"" << escape(opt.x_name) << "\":" << num(pt.x);
    if (opt.x_name != "deadline_ms")
      os << ",\"deadline_ms\":" << num(pt.deadline.ms());
    os << ",\"worst_makespan_ms\":" << num(pt.worst_makespan.ms()) << ",";
    write_stat(os, "npm_energy_joules", pt.npm_energy);
    os << ",\"schemes\":{";
    for (std::size_t s = 0; s < pt.stats.size(); ++s) {
      const SchemeStats& st = pt.stats[s];
      if (s) os << ",";
      os << "\"" << to_string(st.scheme) << "\":{";
      write_stat(os, "norm_energy", st.norm_energy);
      os << ",";
      write_stat(os, "speed_changes", st.speed_changes);
      os << ",";
      write_stat(os, "finish_frac", st.finish_frac);
      os << ",\"deadline_misses\":" << st.deadline_misses
         << ",\"verify_failures\":" << st.verify_failures << "}";
    }
    os << "}}";
  }
  os << "]}";
}

std::string sweep_to_json(const std::vector<SweepPoint>& points,
                          const JsonExportOptions& options) {
  std::ostringstream oss;
  write_sweep_json(oss, points, options);
  return oss.str();
}

// ---- parser -----------------------------------------------------------

const JsonValue* JsonValue::find(const std::string& key) const {
  if (type != Type::Object) return nullptr;
  for (const auto& [k, v] : object)
    if (k == key) return &v;
  return nullptr;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const JsonValue* v = find(key);
  PASERTA_REQUIRE(v != nullptr, "JSON key '" << key << "' not found");
  return *v;
}

namespace {

/// Recursive-descent parser over the whole input string. Depth-limited so
/// adversarial nesting cannot blow the stack.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = value(0);
    skip_ws();
    PASERTA_REQUIRE(pos_ == text_.size(),
                    "trailing garbage after JSON document at byte " << pos_);
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  [[noreturn]] void fail(const char* what) const {
    PASERTA_REQUIRE(false, "malformed JSON: " << what << " at byte " << pos_);
    std::abort();  // unreachable
  }

  /// number = [-] int [frac] [exp]; int = "0" / digit1-9 *digit;
  /// frac = "." 1*digit; exp = ("e"/"E") ["+"/"-"] 1*digit
  static bool valid_number_token(const std::string& t) {
    std::size_t i = 0;
    const auto digit = [&](std::size_t k) {
      return k < t.size() && t[k] >= '0' && t[k] <= '9';
    };
    if (i < t.size() && t[i] == '-') ++i;
    if (!digit(i)) return false;
    if (t[i] == '0') ++i;
    else
      while (digit(i)) ++i;
    if (i < t.size() && t[i] == '.') {
      ++i;
      if (!digit(i)) return false;
      while (digit(i)) ++i;
    }
    if (i < t.size() && (t[i] == 'e' || t[i] == 'E')) {
      ++i;
      if (i < t.size() && (t[i] == '+' || t[i] == '-')) ++i;
      if (!digit(i)) return false;
      while (digit(i)) ++i;
    }
    return i == t.size();
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t n = std::string(lit).size();
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  std::string string_body() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        // RFC 8259: control characters must arrive escaped. Untrusted
        // input (the serve daemon) leans on this check.
        if (static_cast<unsigned char>(c) < 0x20) {
          --pos_;
          fail("unescaped control character in string");
        }
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code += static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code += static_cast<unsigned>(h - 'A' + 10);
            else fail("bad hex digit in \\u escape");
          }
          // UTF-8 encode the BMP code point (surrogate pairs are rare in
          // our documents; a lone surrogate is passed through encoded).
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
        default: fail("unknown escape character");
      }
    }
  }

  JsonValue value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_ws();
    JsonValue v;
    const char c = peek();
    if (c == '{') {
      ++pos_;
      v.type = JsonValue::Type::Object;
      skip_ws();
      if (peek() == '}') {
        ++pos_;
        return v;
      }
      for (;;) {
        skip_ws();
        std::string key = string_body();
        skip_ws();
        expect(':');
        v.object.emplace_back(std::move(key), value(depth + 1));
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect('}');
        return v;
      }
    }
    if (c == '[') {
      ++pos_;
      v.type = JsonValue::Type::Array;
      skip_ws();
      if (peek() == ']') {
        ++pos_;
        return v;
      }
      for (;;) {
        v.array.push_back(value(depth + 1));
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect(']');
        return v;
      }
    }
    if (c == '"') {
      v.type = JsonValue::Type::String;
      v.str = string_body();
      return v;
    }
    if (consume_literal("true")) {
      v.type = JsonValue::Type::Bool;
      v.boolean = true;
      return v;
    }
    if (consume_literal("false")) {
      v.type = JsonValue::Type::Bool;
      v.boolean = false;
      return v;
    }
    if (consume_literal("null")) return v;
    if (c == '-' || (c >= '0' && c <= '9')) {
      const std::size_t start = pos_;
      if (peek() == '-') ++pos_;
      while (pos_ < text_.size() &&
             (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
              text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
              text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      std::string tok = text_.substr(start, pos_ - start);
      // Strict RFC 8259 number grammar before handing the token to
      // strtod: rejects the lenient shapes strtod would accept ("01",
      // "1.", "1e", hex), which matters once input is untrusted.
      if (!valid_number_token(tok)) {
        pos_ = start;
        fail("malformed number");
      }
      v.type = JsonValue::Type::Number;
      v.number = std::strtod(tok.c_str(), nullptr);
      v.str = std::move(tok);
      return v;
    }
    fail("unexpected character");
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue json_parse(const std::string& text) {
  return JsonParser(text).parse();
}

}  // namespace paserta
