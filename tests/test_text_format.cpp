// Tests for the workload text format: parsing, error reporting, writing,
// and parse/serialize round-trips (including over random programs).
#include <gtest/gtest.h>

#include "apps/random_app.h"
#include "apps/synthetic.h"
#include "common/error.h"
#include "core/offline.h"
#include "graph/text_format.h"

namespace paserta {
namespace {

TEST(TextFormat, ParseMinimal) {
  const auto w = parse_workload_string("app demo\ntask T 4 2\n");
  EXPECT_EQ(w.name, "demo");
  const Application app = build_application(w.name, w.program);
  ASSERT_EQ(app.graph.size(), 1u);
  EXPECT_EQ(app.graph.node(NodeId{0}).wcet, SimTime::from_ms(4));
  EXPECT_EQ(app.graph.node(NodeId{0}).acet, SimTime::from_ms(2));
}

TEST(TextFormat, DefaultNameWhenAppLineMissing) {
  const auto w = parse_workload_string("task T 1 1\n");
  EXPECT_EQ(w.name, "workload");
}

TEST(TextFormat, SectionWithEdges) {
  const char* text = R"(app s
section
  task A 8 5
  task B 5 3
  task C 4 2
  edge A B
  edge A C
end
)";
  const Application app = load_application_string(text);
  const NodeId a = *app.graph.find("A");
  EXPECT_EQ(app.graph.node(a).succs.size(), 2u);
}

TEST(TextFormat, BranchWithEmptyAlt) {
  const char* text = R"(
task pre 2 1
branch opt
  alt 0.4
    task work 6 3
  end
  alt 0.6
  end
end
)";
  const Application app = load_application_string(text);
  EXPECT_EQ(app.or_fork_count(), 1u);
  // The empty alternative flattens to one skip dummy.
  std::size_t and_nodes = 0;
  for (NodeId id : app.graph.all_nodes())
    if (app.graph.node(id).kind == NodeKind::AndNode) ++and_nodes;
  EXPECT_EQ(and_nodes, 1u);
}

TEST(TextFormat, LoopUnrollAndCollapse) {
  const Application unrolled = load_application_string(
      "loop L 0.5 0.5\n  task body 2 1\nend\n");
  EXPECT_EQ(unrolled.graph.task_count(), 2u);

  const Application collapsed = load_application_string(
      "loop L collapse 0.5 0.5\n  task body 2 1\nend\n");
  ASSERT_EQ(collapsed.graph.size(), 1u);
  EXPECT_EQ(collapsed.graph.node(NodeId{0}).wcet, SimTime::from_ms(4));
}

TEST(TextFormat, CommentsAndBlankLines) {
  const char* text = R"(
# a full-line comment

app commented   # trailing comment
task T 1 0.5    # times are milliseconds
)";
  const auto w = parse_workload_string(text);
  EXPECT_EQ(w.name, "commented");
  const Application app = build_application(w.name, w.program);
  EXPECT_EQ(app.graph.node(NodeId{0}).acet, SimTime::from_us(500));
}

TEST(TextFormat, NestedStructures) {
  const char* text = R"(app nested
task pre 1 1
branch outer
  alt 0.5
    loop inner 0.5 0.5
      task it 2 1
    end
  end
  alt 0.5
    branch deep
      alt 0.3
        task d1 1 1
      end
      alt 0.7
        task d2 2 1
      end
    end
  end
end
)";
  const Application app = load_application_string(text);
  app.graph.validate();
  EXPECT_EQ(app.or_fork_count(), 3u);  // outer + inner loop exit + deep
}

// --------------------------------------------------------- error reporting

TEST(TextFormat, ErrorsCarryLineNumbers) {
  try {
    parse_workload_string("app x\ntask broken 1\n");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST(TextFormat, RejectsMalformedInput) {
  EXPECT_THROW(parse_workload_string(""), Error);              // empty
  EXPECT_THROW(parse_workload_string("app x\n"), Error);       // no segments
  EXPECT_THROW(parse_workload_string("bogus T 1 1\n"), Error); // keyword
  EXPECT_THROW(parse_workload_string("task T 1 abc\n"), Error);
  EXPECT_THROW(parse_workload_string("section\n task A 1 1\n"), Error);
  EXPECT_THROW(parse_workload_string("end\n"), Error);
  EXPECT_THROW(
      parse_workload_string("section\n task A 1 1\n edge A B\nend\n"), Error);
  EXPECT_THROW(
      parse_workload_string("branch b\n  alt 0.5\n  end\nend\n"),
      Error);  // probabilities sum to 0.5
  EXPECT_THROW(parse_workload_string("loop L\n task t 1 1\nend\n"), Error);
}

TEST(TextFormat, DuplicateTaskInSectionRejected) {
  EXPECT_THROW(parse_workload_string(
                   "section\n task A 1 1\n task A 2 1\nend\n"),
               Error);
}

/// The message of the Error `text` raises when loaded, or "" if it loads.
std::string load_error(const std::string& text) {
  try {
    load_application_string(text);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(TextFormat, RejectsTimesSimTimeCannotHold) {
  // Times are converted to int64 picoseconds; values that are not finite
  // or overflow that range are rejected with the line number instead of
  // reaching an undefined double -> int64 conversion.
  const struct {
    const char* text;
    const char* message;
  } cases[] = {
      {"task A 1e300 1\n", "workload line 1: invalid wcet '1e300'"},
      {"task A inf 1\n", "workload line 1: invalid wcet 'inf'"},
      {"task A -inf 1\n", "workload line 1: invalid wcet '-inf'"},
      {"task A nan 1\n", "workload line 1: invalid wcet 'nan'"},
      {"task A 9.3e9 1\n", "workload line 1: invalid wcet '9.3e9'"},
      {"task A 5 -1e300\n", "workload line 1: invalid acet '-1e300'"},
      {"app x\nsection\n task A 5 NAN\nend\n",
       "workload line 3: invalid acet 'NAN'"},
  };
  for (const auto& c : cases) {
    const std::string error = load_error(c.text);
    EXPECT_EQ(error.rfind(c.message, 0), 0u) << c.text << " -> " << error;
  }
}

TEST(TextFormat, LargestTimesStillParse) {
  const Application app = load_application_string("task A 9.2e9 9.2e9\n");
  EXPECT_EQ(app.graph.node(NodeId{0}).wcet.ps, 9'200'000'000'000'000'000);
  // Representable but non-positive times still reach the graph's own check.
  EXPECT_NE(load_error("task A -5 1\n").find("needs positive WCET"),
            std::string::npos);
}

TEST(TextFormat, CollapsedLoopBeyondTimeRangeRejected) {
  const std::string error =
      load_error("loop L collapse 0.5 0.5\n  task b 9e9 1\nend\n");
  EXPECT_NE(error.find("loop 'L'"), std::string::npos) << error;
}

// --------------------------------------------------------------- round-trip

/// Flattened graphs of two programs must be structurally identical.
void expect_same_flatten(const Program& a, const Program& b) {
  const Application fa = build_application("a", a);
  const Application fb = build_application("b", b);
  ASSERT_EQ(fa.graph.size(), fb.graph.size());
  for (NodeId id : fa.graph.all_nodes()) {
    const Node& na = fa.graph.node(id);
    const Node& nb = fb.graph.node(id);
    EXPECT_EQ(na.kind, nb.kind);
    EXPECT_EQ(na.name, nb.name);
    EXPECT_EQ(na.wcet, nb.wcet);
    EXPECT_EQ(na.acet, nb.acet);
    EXPECT_EQ(na.succs, nb.succs);
    EXPECT_EQ(na.succ_prob, nb.succ_prob);
  }
}

TEST(TextFormat, RoundTripSynthetic) {
  const Program original = apps::synthetic_program();
  const std::string text = workload_to_string("synthetic", original);
  const auto parsed = parse_workload_string(text);
  EXPECT_EQ(parsed.name, "synthetic");
  expect_same_flatten(original, parsed.program);
}

TEST(TextFormat, RoundTripRandomPrograms) {
  apps::RandomAppConfig cfg;
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    Rng rng(seed);
    const Program original = apps::random_program(rng, cfg);
    const std::string text = workload_to_string("r", original);
    const auto parsed = parse_workload_string(text);
    expect_same_flatten(original, parsed.program);
    // And the serialization is a fixed point.
    EXPECT_EQ(text, workload_to_string("r", parsed.program)) << "seed "
                                                             << seed;
  }
}

TEST(TextFormat, RoundTripPreservesSchedules) {
  // Stronger than structure: the offline analysis of the round-tripped
  // program is identical.
  const Program original = apps::synthetic_program();
  const auto parsed =
      parse_workload_string(workload_to_string("synthetic", original));
  const Application a = build_application("x", original);
  const Application b = build_application("x", parsed.program);
  OfflineOptions o;
  o.cpus = 2;
  o.deadline = SimTime::from_ms(200);
  const OfflineResult ra = analyze_offline(a, o);
  const OfflineResult rb = analyze_offline(b, o);
  EXPECT_EQ(ra.worst_makespan(), rb.worst_makespan());
  EXPECT_EQ(ra.average_makespan(), rb.average_makespan());
  for (NodeId id : a.graph.all_nodes()) {
    EXPECT_EQ(ra.eo(id), rb.eo(id));
    EXPECT_EQ(ra.lst(id), rb.lst(id));
  }
}

}  // namespace
}  // namespace paserta
