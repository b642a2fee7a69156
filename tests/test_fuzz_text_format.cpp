// Seeded fuzz driver for the workload loader (graph/text_format).
//
// Inputs come from a grammar-aware generator and from byte mutations of a
// corpus (the example workloads and rendered random_app programs). The
// property, for every input: loading either throws paserta::Error, or it
// yields an Application that validates, and whose program serializes to
// text that loads back to the same graph and hierarchy digests (and
// serializes to the same text again). Any other exception, a crash, or an
// internal assertion fails the run. Runs a fixed number of inputs from a
// fixed seed, so a failure reproduces by its input index.
//
// Loop expansion multiplies: an input whose loops could expand to more
// than kMaxLoopFactor body copies is skipped before loading. Bounding the
// expanded size of admitted graphs is a separate concern of the loader's
// callers.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "apps/random_app.h"
#include "cold_path_digest.h"
#include "common/error.h"
#include "common/rng.h"
#include "graph/text_format.h"

namespace paserta {
namespace {

constexpr int kGrammarInputs = 8000;
constexpr int kMutantInputs = 16000;
constexpr std::uint64_t kMaxLoopFactor = 64;

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Seed texts: the example workloads and a few small random programs.
std::vector<std::string> corpus() {
  std::vector<std::string> texts;
  const auto dir =
      std::filesystem::path(PASERTA_SOURCE_DIR) / "examples" / "workloads";
  for (const char* file : {"request_pipeline.workload",
                           "sensor_fusion.workload", "videopipe.workload"})
    texts.push_back(read_file(dir / file));
  apps::RandomAppConfig cfg;
  cfg.max_depth = 2;
  cfg.max_section_tasks = 5;
  cfg.max_loop_iters = 3;
  cfg.loop_prob = 0.25;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    Rng rng(0xF022ULL + seed);
    texts.push_back(
        workload_to_string("seed" + std::to_string(seed),
                           apps::random_program(rng, cfg)));
  }
  return texts;
}

/// Random workload text from the format's grammar, with deliberately bad
/// tokens, arities and structure mixed in.
class GrammarGen {
 public:
  explicit GrammarGen(Rng& rng) : rng_(rng) {}

  std::string text() {
    out_.clear();
    names_ = 0;
    if (chance(0.8)) line("app " + name());
    program(0, 0);
    if (chance(0.01)) line("end");
    return out_;
  }

 private:
  bool chance(double p) { return rng_.next_double() < p; }
  std::uint64_t below(std::uint64_t n) { return rng_.next_below(n); }

  template <std::size_t N>
  const char* pick(const char* const (&options)[N]) {
    return options[below(N)];
  }

  std::string name() {
    static constexpr const char* kOdd[] = {"end", "task", "alt", "x#y",
                                           "collapse", "a\tb", "\xC3\xA9"};
    if (chance(0.01)) return pick(kOdd);
    return "n" + std::to_string(names_++);
  }

  /// An odd time token: signs, hex, bare dots, exponents, huge, tiny,
  /// non-finite and malformed values.
  std::string odd_time() {
    static constexpr const char* kOdd[] = {
        "0",    "-1",    "+5",     "0x10",  ".5",    "5.",    "1e-3",
        "inf",  "nan",   "1e999",  "1e-400", "9.2e9", "9.3e9", "1e300",
        "abc",  "2e",    "1e-9",   "4.5e6", "123456.789123", "0x1p3"};
    return pick(kOdd);
  }

  std::string odd_prob() {
    static constexpr const char* kOdd[] = {"0", "1", "1.5", "-0.5", "nan",
                                           "0x1p-1", "1e999", ".5", "x"};
    return pick(kOdd);
  }

  /// Probabilities that usually sum to 1 (tenths).
  std::vector<std::string> probs(int n) {
    std::vector<std::string> out;
    int left = 10;
    for (int i = 0; i < n; ++i) {
      const int share =
          i + 1 == n ? left
                     : 1 + static_cast<int>(below(static_cast<std::uint64_t>(
                               std::max(1, left - (n - i - 1)))));
      left -= share;
      out.push_back(chance(0.01) ? odd_prob() : share == 10
                                                ? std::string("1")
                                                : "0." + std::to_string(share));
    }
    return out;
  }

  void line(const std::string& s) {
    static constexpr const char* kPad[] = {"", " ", "  ", "\t"};
    static constexpr const char* kEol[] = {"\n", "\n", "\n", "\r\n",
                                           "  # note\n", "#\n", "\n\n"};
    out_ += pick(kPad);
    out_ += s;
    out_ += pick(kEol);
  }

  /// A task line, usually with 0 < acet <= wcet.
  void task_line() {
    const std::uint64_t wcet = 1 + below(20);
    const std::uint64_t acet = 1 + below(wcet);
    std::string s = "task " + name() + " " +
                    (chance(0.01) ? odd_time() : std::to_string(wcet)) + " " +
                    (chance(0.01) ? odd_time()
                                  : std::to_string(acet) +
                                        (acet < wcet && chance(0.5) ? ".5" : ""));
    if (chance(0.01)) s += " 1";
    line(s);
  }

  void section() {
    line(chance(0.01) ? "section x" : "section");
    const int tasks = 1 + static_cast<int>(below(5));
    const int first = names_;
    for (int i = 0; i < tasks; ++i) task_line();
    // Forward edges between the section's tasks; now and then a self edge
    // or an edge to a task outside the section.
    const int edges = tasks > 1 ? static_cast<int>(below(4)) : 0;
    for (int e = 0; e < edges; ++e) {
      const auto span = static_cast<std::uint64_t>(tasks + (chance(0.02) ? 1 : 0));
      const int a = first + static_cast<int>(below(span));
      const int b = first + static_cast<int>(below(span));
      if (a == b && !chance(0.05)) continue;
      line("edge n" + std::to_string(std::min(a, b)) + " n" +
           std::to_string(std::max(a, b)));
    }
    if (!chance(0.01)) line("end");
  }

  void program(int depth, int loop_depth) {
    const int segments = 1 + static_cast<int>(below(3));
    for (int s = 0; s < segments; ++s) {
      const double roll = rng_.next_double();
      if (depth < 3 && roll < 0.25) {
        line("branch " + name());
        const int alts = static_cast<int>(chance(0.02) ? 0 : 1 + below(3));
        for (const std::string& p : probs(std::max(alts, 1))) {
          if (alts == 0) break;
          line("alt " + p);
          if (chance(0.8)) program(depth + 1, loop_depth);
          line("end");
        }
        line("end");
      } else if (depth < 3 && loop_depth < 2 && roll < 0.4) {
        // At most two nested loops of at most three iterations each.
        std::string header = "loop " + name();
        if (chance(0.3)) header += " collapse";
        for (const std::string& p : probs(1 + static_cast<int>(below(3))))
          header += " " + p;
        line(header);
        program(depth + 1, loop_depth + 1);
        line("end");
      } else if (roll < 0.7) {
        task_line();
      } else {
        section();
      }
    }
  }

  Rng& rng_;
  std::string out_;
  int names_ = 0;
};

/// One to four byte- and line-level mutations of `text`.
std::string mutate(std::string text, Rng& rng) {
  static constexpr char kBytes[] = {'0', '1', '5', '9', '.', 'e', '-', '+',
                                    'x', ' ', '\t', '\n', '\r', '#', '\0',
                                    'a', 'z', '\x7F', '\xFF'};
  static constexpr const char* kChunks[] = {
      "end\n",  "alt 0.5\n", "loop L 1\n", "task X 1 1\n", "edge t0 t1\n",
      "section\n", "branch B\n", " 1e999", "#", "\r\n", " inf", " nan"};
  const int n = 1 + static_cast<int>(rng.next_below(4));
  for (int i = 0; i < n; ++i) {
    const std::size_t size = text.size();
    const std::size_t at = size == 0 ? 0 : rng.next_below(size);
    switch (rng.next_below(6)) {
      case 0:  // overwrite one byte
        if (size > 0) text[at] = kBytes[rng.next_below(std::size(kBytes))];
        break;
      case 1:  // insert one byte
        text.insert(text.begin() + static_cast<std::ptrdiff_t>(at),
                    kBytes[rng.next_below(std::size(kBytes))]);
        break;
      case 2:  // delete a short range
        text.erase(at, 1 + rng.next_below(8));
        break;
      case 3: {  // duplicate a short range
        const std::string piece = text.substr(at, 1 + rng.next_below(32));
        text.insert(at, piece);
        break;
      }
      case 4:  // insert a grammar chunk
        text.insert(at, kChunks[rng.next_below(std::size(kChunks))]);
        break;
      default: {  // delete one whole line
        const std::size_t start = text.rfind('\n', at);
        const std::size_t from = start == std::string::npos ? 0 : start + 1;
        const std::size_t end = text.find('\n', at);
        text.erase(from, end == std::string::npos ? std::string::npos
                                                  : end - from + 1);
        break;
      }
    }
  }
  return text;
}

/// Upper bound on the body copies loop unrolling can make: the product of
/// every unrolled loop's probability count, as if all loops were nested.
std::uint64_t loop_factor(std::string_view text) {
  std::uint64_t factor = 1;
  std::istringstream in{std::string(text)};
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream words(line.substr(0, line.find('#')));
    std::string word;
    if (!(words >> word) || word != "loop" || !(words >> word)) continue;
    std::uint64_t probs = 0;
    bool collapse = false;
    while (words >> word) {
      collapse = collapse || (probs == 0 && word == "collapse");
      ++probs;
    }
    if (!collapse) factor *= std::max<std::uint64_t>(probs, 1);
    if (factor > kMaxLoopFactor) break;
  }
  return factor;
}

struct Tally {
  int rejected = 0;
  int accepted = 0;
};

/// Checks the loader property on one input; returns false (with a gtest
/// failure naming `label`) when it does not hold.
bool check(const std::string& text, const std::string& label, Tally& tally) {
  if (loop_factor(text) > kMaxLoopFactor) return true;
  ParsedWorkload w;
  Application app;
  try {
    w = parse_workload_string(text);
    app = build_application(w.name, w.program);
  } catch (const Error&) {
    ++tally.rejected;
    return true;
  } catch (const std::exception& e) {
    ADD_FAILURE() << label << ": non-Error exception: " << e.what();
    return false;
  }
  ++tally.accepted;
  try {
    app.graph.validate();
    const std::string again = workload_to_string(w.name, w.program);
    const ParsedWorkload w2 = parse_workload_string(again);
    const Application app2 = build_application(w2.name, w2.program);
    const bool same =
        w2.name == w.name &&
        digest::graph_digest(app2.graph) == digest::graph_digest(app.graph) &&
        digest::structure_digest(app2.structure) ==
            digest::structure_digest(app.structure) &&
        workload_to_string(w2.name, w2.program) == again;
    if (!same)
      ADD_FAILURE() << label << ": round trip changed the application\n"
                    << "input:\n" << text << "\nserialized:\n" << again;
    return same;
  } catch (const std::exception& e) {
    ADD_FAILURE() << label << ": accepted input failed its round trip: "
                  << e.what() << "\ninput:\n" << text;
    return false;
  }
}

TEST(FuzzTextFormat, GrammarInputs) {
  Rng rng(0x6A4A11ULL);
  GrammarGen gen(rng);
  Tally tally;
  for (int i = 0; i < kGrammarInputs; ++i)
    if (!check(gen.text(), "grammar input " + std::to_string(i), tally)) break;
  // Both outcomes must be exercised, or the generator has drifted.
  EXPECT_GT(tally.accepted, kGrammarInputs / 10);
  EXPECT_GT(tally.rejected, kGrammarInputs / 10);
}

TEST(FuzzTextFormat, MutatedCorpus) {
  const std::vector<std::string> seeds = corpus();
  Rng rng(0x3D7A7EULL);
  Tally tally;
  for (const std::string& seed : seeds)
    ASSERT_TRUE(check(seed, "corpus seed", tally));
  for (int i = 0; i < kMutantInputs; ++i) {
    const std::string& seed = seeds[rng.next_below(seeds.size())];
    if (!check(mutate(seed, rng), "mutant " + std::to_string(i), tally)) break;
  }
  EXPECT_GT(tally.accepted, kMutantInputs / 20);
  EXPECT_GT(tally.rejected, kMutantInputs / 10);
}

}  // namespace
}  // namespace paserta
