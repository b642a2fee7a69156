#include "graph/text_format.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <istream>
#include <iterator>
#include <ostream>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/error.h"
#include "graph/program_impl.h"

namespace paserta {
namespace {

// --------------------------------------------------------------- tokenizer

/// One line that holds tokens: its 1-based number in the text and its
/// tokens, a range of the parser's token array.
struct Line {
  int number = 0;
  std::uint32_t first = 0;
  std::uint32_t count = 0;
};

/// The bytes `std::istream >> std::string` skips in the classic locale.
bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

[[noreturn]] void syntax_error(const Line& line, const std::string& what) {
  PASERTA_REQUIRE(false, "workload line " << line.number << ": " << what);
  std::abort();  // unreachable
}

std::string quoted(std::string_view tok) {
  return "'" + std::string(tok) + "'";
}

/// The number `tok` spells, with exactly std::stod's acceptance: strtod
/// must consume the whole token and must not report ERANGE.
double parse_number(const Line& line, std::string_view tok, const char* what) {
  // strtod needs a terminated copy; an embedded NUL then ends the parse
  // early and fails the whole-token check, as it does for stod.
  char small[64];
  std::string large;
  const char* str = small;
  if (tok.size() < sizeof small) {
    std::memcpy(small, tok.data(), tok.size());
    small[tok.size()] = '\0';
  } else {
    large.assign(tok);
    str = large.c_str();
  }
  const int saved_errno = errno;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(str, &end);
  const bool out_of_range = errno == ERANGE;
  errno = saved_errno;
  if (end != str + tok.size() || out_of_range)
    syntax_error(line, std::string("invalid ") + what + " " + quoted(tok));
  return v;
}

/// A time in milliseconds at f_max. Rejects what SimTime cannot hold (and
/// NaN) here, with the line number, instead of handing SimTime::from_ms a
/// value whose integer conversion overflows.
SimTime parse_time(const Line& line, std::string_view tok, const char* what) {
  const std::optional<SimTime> t =
      SimTime::try_from_ms(parse_number(line, tok, what));
  if (!t)
    syntax_error(line, std::string("invalid ") + what + " " + quoted(tok));
  return *t;
}

// ------------------------------------------------------------------ parser

/// Splits the text once into token views (no per-line copies), then parses
/// the line sequence recursively.
class Parser {
 public:
  explicit Parser(std::string_view text) { tokenize(text); }

  ParsedWorkload parse() {
    ParsedWorkload out;
    out.name = "workload";
    if (!eof() && keyword(peek()) == "app") {
      const Line& line = next();
      if (line.count != 2) syntax_error(line, "expected: app <name>");
      out.name = tok(line, 1);
    }
    out.program = parse_program(/*stop_at_end=*/false);
    return out;
  }

 private:
  /// One pass over the text with std::getline's line numbering: each '\n'
  /// ends a line, and a last line without one still counts. '#' starts a
  /// comment that runs to the end of its line; lines without tokens are
  /// dropped.
  void tokenize(std::string_view text) {
    std::size_t pos = 0;
    int number = 0;
    while (pos < text.size()) {
      ++number;
      std::size_t eol = text.find('\n', pos);
      if (eol == std::string_view::npos) eol = text.size();
      const std::size_t hash = text.substr(pos, eol - pos).find('#');
      const std::size_t stop =
          hash == std::string_view::npos ? eol : pos + hash;
      const auto first = static_cast<std::uint32_t>(tokens_.size());
      while (true) {
        while (pos < stop && is_space(text[pos])) ++pos;
        if (pos == stop) break;
        const std::size_t start = pos;
        while (pos < stop && !is_space(text[pos])) ++pos;
        tokens_.push_back(text.substr(start, pos - start));
      }
      const auto count = static_cast<std::uint32_t>(tokens_.size()) - first;
      if (count > 0) lines_.push_back({number, first, count});
      pos = eol + 1;
    }
  }

  std::string_view tok(const Line& line, std::size_t i) const {
    return tokens_[line.first + i];
  }
  std::string_view keyword(const Line& line) const { return tok(line, 0); }

  bool eof() const { return pos_ >= lines_.size(); }
  const Line& peek() const { return lines_[pos_]; }
  const Line& next() { return lines_[pos_++]; }

  /// Parses segments until EOF (top level) or a matching 'end'.
  Program parse_program(bool stop_at_end) {
    Program p;
    while (!eof()) {
      const Line& line = peek();
      const std::string_view kw = keyword(line);
      if (kw == "end") {
        if (!stop_at_end) syntax_error(line, "unexpected 'end'");
        next();
        return p;
      }
      if (kw == "task") {
        p.section(SectionSpec{{parse_task(next())}, {}});
      } else if (kw == "section") {
        p.section(parse_section(next()));
      } else if (kw == "branch") {
        parse_branch(p);
      } else if (kw == "loop") {
        parse_loop(p);
      } else {
        syntax_error(line, "unknown keyword " + quoted(kw));
      }
    }
    if (stop_at_end)
      PASERTA_REQUIRE(false, "workload ended inside a block (missing 'end')");
    return p;
  }

  /// `task <name> <wcet_ms> <acet_ms>`, fields checked in reading order.
  TaskSpec parse_task(const Line& l) const {
    if (l.count != 4)
      syntax_error(l, "expected: task <name> <wcet_ms> <acet_ms>");
    return {std::string(tok(l, 1)), parse_time(l, tok(l, 2), "wcet"),
            parse_time(l, tok(l, 3), "acet")};
  }

  SectionSpec parse_section(const Line& header) {
    if (header.count != 1) syntax_error(header, "expected: section");
    SectionSpec sec;
    // Task name -> index in `sec.tasks`. Sections do not nest, so one map
    // serves every section of the text.
    index_.clear();
    while (true) {
      if (eof()) syntax_error(header, "'section' without matching 'end'");
      const Line& l = next();
      const std::string_view kw = keyword(l);
      if (kw == "end") break;
      if (kw == "task") {
        if (l.count == 4 &&
            !index_.emplace(tok(l, 1), sec.tasks.size()).second)
          syntax_error(l,
                       "duplicate task " + quoted(tok(l, 1)) + " in section");
        sec.tasks.push_back(parse_task(l));
      } else if (kw == "edge") {
        if (l.count != 3) syntax_error(l, "expected: edge <from> <to>");
        const auto from = index_.find(tok(l, 1));
        const auto to = index_.find(tok(l, 2));
        if (from == index_.end())
          syntax_error(l, "edge references unknown task " + quoted(tok(l, 1)));
        if (to == index_.end())
          syntax_error(l, "edge references unknown task " + quoted(tok(l, 2)));
        sec.edges.push_back({from->second, to->second});
      } else {
        syntax_error(l, "unexpected " + quoted(kw) + " inside section");
      }
    }
    return sec;
  }

  void parse_branch(Program& p) {
    const Line header = next();
    if (header.count != 2) syntax_error(header, "expected: branch <name>");
    std::vector<std::pair<double, Program>> alts;
    while (true) {
      if (eof()) syntax_error(header, "'branch' without matching 'end'");
      const Line& l = next();
      if (keyword(l) == "end") break;
      if (keyword(l) != "alt")
        syntax_error(l, "expected 'alt <probability>' or 'end' in branch");
      if (l.count != 2) syntax_error(l, "expected: alt <probability>");
      const double prob = parse_number(l, tok(l, 1), "probability");
      alts.emplace_back(prob, parse_program(/*stop_at_end=*/true));
    }
    if (alts.empty()) syntax_error(header, "branch needs alternatives");
    p.branch(std::string(tok(header, 1)), std::move(alts));
  }

  void parse_loop(Program& p) {
    const Line header = next();
    if (header.count < 3)
      syntax_error(header, "expected: loop <name> [collapse] <p1> <p2> ...");
    std::size_t first_prob = 2;
    LoopMode mode = LoopMode::Unroll;
    if (tok(header, 2) == "collapse") {
      mode = LoopMode::Collapse;
      first_prob = 3;
    }
    std::vector<double> probs;
    for (std::size_t i = first_prob; i < header.count; ++i)
      probs.push_back(parse_number(header, tok(header, i), "probability"));
    if (probs.empty()) syntax_error(header, "loop needs probabilities");
    Program body = parse_program(/*stop_at_end=*/true);
    p.loop(std::string(tok(header, 1)), std::move(body), std::move(probs),
           mode);
  }

  std::vector<std::string_view> tokens_;
  std::vector<Line> lines_;
  std::size_t pos_ = 0;
  std::unordered_map<std::string_view, std::size_t> index_;
};

ParsedWorkload parse_text(std::string_view text) {
  ParsedWorkload out = Parser(text).parse();
  PASERTA_REQUIRE(!out.program.empty(), "workload defines no segments");
  return out;
}

// ------------------------------------------------------------------ writer

/// Shortest decimal that parses back to exactly the same double, so that
/// serialize -> parse -> serialize is a fixed point and probability sums
/// survive the round-trip bit-exactly.
std::string fmt_exact(double v) {
  if (v == static_cast<double>(static_cast<std::int64_t>(v))) {
    std::ostringstream oss;
    oss << static_cast<std::int64_t>(v);
    return oss.str();
  }
  for (int precision = 6; precision <= 17; ++precision) {
    std::ostringstream oss;
    oss << std::setprecision(precision) << v;
    if (std::stod(oss.str()) == v) return oss.str();
  }
  std::ostringstream oss;
  oss << std::setprecision(17) << v;
  return oss.str();
}

std::string fmt_ms(SimTime t) { return fmt_exact(t.ms()); }

std::string fmt_prob(double p) { return fmt_exact(p); }

void write_program(std::ostream& os, const Program& p, int indent);

void write_section(std::ostream& os, const SectionSpec& sec, int indent) {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  if (sec.tasks.size() == 1 && sec.edges.empty()) {
    const TaskSpec& t = sec.tasks[0];
    os << pad << "task " << t.name << " " << fmt_ms(t.wcet) << " "
       << fmt_ms(t.acet) << "\n";
    return;
  }
  os << pad << "section\n";
  for (const TaskSpec& t : sec.tasks)
    os << pad << "  task " << t.name << " " << fmt_ms(t.wcet) << " "
       << fmt_ms(t.acet) << "\n";
  for (const auto& [from, to] : sec.edges)
    os << pad << "  edge " << sec.tasks[from].name << " "
       << sec.tasks[to].name << "\n";
  os << pad << "end\n";
}

void write_program(std::ostream& os, const Program& p, int indent) {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  for (const auto& seg : p.impl().segs) {
    if (const auto* sec = std::get_if<SectionSpec>(&seg)) {
      write_section(os, *sec, indent);
    } else if (const auto* br = std::get_if<Program::Impl::BranchSeg>(&seg)) {
      os << pad << "branch " << br->name << "\n";
      for (const auto& [prob, prog] : br->alts) {
        os << pad << "  alt " << fmt_prob(prob) << "\n";
        write_program(os, prog, indent + 4);
        os << pad << "  end\n";
      }
      os << pad << "end\n";
    } else {
      const auto& lp = std::get<Program::Impl::LoopSeg>(seg);
      os << pad << "loop " << lp.name;
      if (lp.mode == LoopMode::Collapse) os << " collapse";
      for (double prob : lp.iter_prob) os << " " << fmt_prob(prob);
      os << "\n";
      write_program(os, lp.body, indent + 2);
      os << pad << "end\n";
    }
  }
}

}  // namespace

ParsedWorkload parse_workload(std::istream& in) {
  const std::string text{std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>()};
  return parse_text(text);
}

ParsedWorkload parse_workload_string(const std::string& text) {
  return parse_text(text);
}

Application load_application(std::istream& in) {
  ParsedWorkload w = parse_workload(in);
  return build_application(std::move(w.name), w.program);
}

Application load_application_string(const std::string& text) {
  ParsedWorkload w = parse_text(text);
  return build_application(std::move(w.name), w.program);
}

void write_workload(std::ostream& os, const std::string& name,
                    const Program& program) {
  os << "app " << name << "\n";
  write_program(os, program, 0);
}

std::string workload_to_string(const std::string& name,
                               const Program& program) {
  std::ostringstream oss;
  write_workload(oss, name, program);
  return oss.str();
}

}  // namespace paserta
