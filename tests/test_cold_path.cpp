// Pins what the cold graph path produces — workload text in, flat graph,
// hierarchy and offline tables out — as content digests, plus a grammar
// table of token cases the loader accepts or rejects. The digests were
// taken before the loader, the validator and the canonical list scheduler
// were rewritten for speed, so any behavioural drift in those rewrites
// fails here.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "apps/atr.h"
#include "apps/mpeg.h"
#include "apps/random_app.h"
#include "apps/synthetic.h"
#include "cold_path_digest.h"
#include "common/error.h"
#include "graph/text_format.h"

namespace paserta {
namespace {

using namespace std::string_view_literals;

struct Pinned {
  const char* input;
  std::uint64_t graph;
  std::uint64_t structure;
  std::uint64_t offline;
};

// clang-format off
constexpr Pinned kPinned[] = {
    {"workloads/request_pipeline.workload", 0x76CC29DF561A7875ULL, 0xE75E753E75D1A413ULL,
     0x575BA13709981281ULL},
    {"workloads/sensor_fusion.workload", 0xB275CBC6256E7515ULL, 0xB1EBCFB86738C2A2ULL,
     0x8DD445EB8B0509A7ULL},
    {"workloads/videopipe.workload", 0x80ED62DEA786D02CULL, 0x6223EB7217834ECBULL,
     0x7F8F689EB1E45054ULL},
    {"random/00", 0xF19DB35B01E666E4ULL, 0x78BD7CBF982678B4ULL,
     0xFE3FB20ABD1E976BULL},
    {"random/01", 0x25C9E7170DE4EE62ULL, 0x7B4E90DD90DE62A4ULL,
     0xF48916C682935F9CULL},
    {"random/02", 0xC3F09320FD65B3AEULL, 0x83B681E745F9643AULL,
     0x3F4759383926D3DBULL},
    {"random/03", 0x0C2C352C145D6725ULL, 0x8F787D2CC7C9252BULL,
     0xB061CD010858F59EULL},
    {"random/04", 0x27FB0D6F197EF4A9ULL, 0xB9299FD2A80B6AFFULL,
     0xEC88EB1A055BCB08ULL},
    {"random/05", 0xF7497B15E3E4908DULL, 0xB0335FB24DDB2C77ULL,
     0xE1239D81D54CB277ULL},
    {"random/06", 0x4E6F7E52391D38B0ULL, 0x07A36E1543D669BAULL,
     0xA4D8AE7F703B6020ULL},
    {"random/07", 0x4C24DF494A273B54ULL, 0xE34C8DF7DC4379CFULL,
     0xC5B89496C89BA929ULL},
    {"random/08", 0xCCADA97E93546F14ULL, 0x96066C33917DC334ULL,
     0x37B89B65EC064BDDULL},
    {"random/09", 0x95EC6EB19A2E68E1ULL, 0x336D3342B0895F94ULL,
     0x3F2E7E9D15CA615DULL},
    {"random/10", 0x4D1428356264A116ULL, 0xFA6BC174698766C9ULL,
     0x729888402371C9FBULL},
    {"random/11", 0x931FBA219A9D6A45ULL, 0x2AAF91AF1E367F49ULL,
     0x4D2CC80DDB7B1063ULL},
    {"random/12", 0x3B7EAA76246181B3ULL, 0x26DAB14FFE25C655ULL,
     0x851EA6CA87AC3756ULL},
    {"random/13", 0xC4A0C061A9B12E5EULL, 0x04B3AF1FD28C2478ULL,
     0x31352C3AB40774D0ULL},
    {"random/14", 0x320184DD1748CC2EULL, 0xD49202069A3F595EULL,
     0x2C943248FC660E66ULL},
    {"random/15", 0xE08A0A46677CEB51ULL, 0x563185F1A29CD045ULL,
     0x6A6958F9D37A46F0ULL},
    {"random/16", 0x977808684AABAAD3ULL, 0x5F22FBFCEC544FBDULL,
     0xA3F16121EDA5A8EAULL},
    {"random/17", 0x3FD4B128EFD6F401ULL, 0x5B113CC66C57BD65ULL,
     0xE0D005EB0773516CULL},
    {"random/18", 0x5CCD55B43D49DC55ULL, 0x80452F5E40204C93ULL,
     0xB92033271D52A2BBULL},
    {"random/19", 0x3F32B7C1CD41E396ULL, 0x2DCDD7595B28A6AFULL,
     0x740305399389DBC2ULL},
    {"random/20", 0x5E4EC679F8CA214EULL, 0x83C0B29B38B6E40CULL,
     0x4F0C405A4B753262ULL},
    {"random/21", 0x6BAF6C7336982968ULL, 0xA3F7D902C37B5D17ULL,
     0xF1FFFEEE71705507ULL},
    {"random/22", 0xECB529C81BE6879CULL, 0x94D4D8AF66243E10ULL,
     0xB90606914091D453ULL},
    {"random/23", 0x6FABB8FFC8269669ULL, 0x3304718132EE6A86ULL,
     0x266B44244A77E85EULL},
    {"random/24", 0xED4AF1EA1115153AULL, 0x445CC3AC0C574E7DULL,
     0x68FC5B4F4F6A6229ULL},
    {"random/25", 0x1327F1366B116048ULL, 0x97EDD82A2C86E856ULL,
     0xCBE9DF75D44219F1ULL},
    {"random/26", 0x07D8985C4ED59E00ULL, 0x65B80957A79F0720ULL,
     0xFEA69280A299530CULL},
    {"random/27", 0xBF5F7D7B37A129DCULL, 0x19457D7E0E453F5BULL,
     0x8CF8D4B62C1F242AULL},
    {"random/28", 0xBE7CF4BC1EA30A57ULL, 0x31C90FB890812E47ULL,
     0xBE1CE3546301194CULL},
    {"random/29", 0x2C2D7A4513F7AD57ULL, 0x4299E036A42BF8C0ULL,
     0x59E2455ECC31180EULL},
    {"random/30", 0xAACE747AA84BE3B4ULL, 0x1B415A634D4BADEDULL,
     0x8C0F1265CFC77C18ULL},
    {"random/31", 0x8286A5319FF9AC67ULL, 0xE2FF8CD035ABD4E4ULL,
     0x342EFA44F2D3113BULL},
    {"random/32", 0x5D08C69CF4F42307ULL, 0x199A87108AD4ECA9ULL,
     0x7FDB8B13BF1DDF75ULL},
    {"random/33", 0x0BDB4959A813F78EULL, 0x4D3905184E2330B3ULL,
     0x485DFAE645F24A65ULL},
    {"random/34", 0x0F965E7B3C183D9DULL, 0x1B8C9BDB8F1C8DBEULL,
     0x5E10F6BF6D3A37A4ULL},
    {"random/35", 0xAF1DCBDDE1D96110ULL, 0xFBA830602B0DFB39ULL,
     0xD1B70A2EDCC9E258ULL},
    {"random/36", 0xEFDD79DD60F8E0BFULL, 0xF03165F4705FA05CULL,
     0xFE428A12B6CAB0F9ULL},
    {"random/37", 0x2F5996598CD81100ULL, 0x8A55477C5C68B5CFULL,
     0xAF709BF2CE46946EULL},
    {"random/38", 0xDC0AD108B1C3E8DFULL, 0x5091600927DF8A8BULL,
     0x492E6AA4C1305DECULL},
    {"random/39", 0x37017E06D7802D33ULL, 0x4431413FD09F7970ULL,
     0x6561ADB668E47EDAULL},
    {"random/40", 0x9619B278E62B2FFCULL, 0x200439EFD2619C6AULL,
     0x1943DFE0A6BE07D0ULL},
    {"random/41", 0x31F4F4E955D79D2BULL, 0x07701C811B2F3115ULL,
     0x62C276B6D6D174C7ULL},
    {"random/42", 0x189CE6C393FC7701ULL, 0x0C35FB9A609B696BULL,
     0x308FFDEB36211895ULL},
    {"random/43", 0xC0DCC5B9DEEBDB2FULL, 0x0E2160CD9BC9FF60ULL,
     0xE0C11C6509C1A728ULL},
    {"random/44", 0x8BDEEED5EA9F8DB9ULL, 0x7EC61E2FA69697F1ULL,
     0xD8D1CE6332C1D5E8ULL},
    {"random/45", 0x8CD20AF4AFAF9DD4ULL, 0x590A04B167B0EB51ULL,
     0x2044BB7D7069DDC6ULL},
    {"random/46", 0xA6C53B00DEC60768ULL, 0x450910AF376E75E8ULL,
     0x117AF37560E8FC5CULL},
    {"random/47", 0x965C66A1823DF4EDULL, 0x955284668356F8A8ULL,
     0xB56EAD41E7281EA8ULL},
    {"random/48", 0xA2331F13B84B5384ULL, 0xCAD740C6B5D01765ULL,
     0x99024E0A97700921ULL},
    {"random/49", 0xAE365F7D0BB1EC52ULL, 0xDFAE683B5A614592ULL,
     0x722F70695411AF71ULL},
    {"random/50", 0xBB9B07D119CD8327ULL, 0xA5FDCA1332714484ULL,
     0x9A455A35D7B5F979ULL},
    {"random/51", 0x5B2BC446F1692659ULL, 0x3EDAE80CD8AFCB78ULL,
     0x76D29C78B3686B01ULL},
    {"random/52", 0xE0D494BA892FF8C3ULL, 0xAE04505480D127B1ULL,
     0x667B856E879E18B3ULL},
    {"random/53", 0x8A4B8861812BEE8CULL, 0x04B7D8B26E2D89B9ULL,
     0x16E39FED2EE67EEAULL},
    {"random/54", 0xC6789B4A826F3454ULL, 0x9C45231FC65478B0ULL,
     0xBD530969AB86C7F4ULL},
    {"random/55", 0x61DC964EAF91C07FULL, 0xCF876CBE643B1C5FULL,
     0xC87A2201204CF1B7ULL},
    {"random/56", 0xF3510E04D09960D3ULL, 0x723885C5C2E0EF6DULL,
     0xE2C512714BC340DEULL},
    {"random/57", 0xBB0CBBBCFE418355ULL, 0x77910540F7A9C9A6ULL,
     0x66D8E51551314C6EULL},
    {"random/58", 0x4FC843BC604A3AF7ULL, 0x082300829B2D51D0ULL,
     0xE5417B54990D0781ULL},
    {"random/59", 0x00C104DEC09BA4FCULL, 0x248FC5E9AFFC9715ULL,
     0x2AB7BE519BB36C4FULL},
    {"builtin/atr", 0x06219B59B6036D67ULL, 0xA8EE5CCC440445F6ULL,
     0xF434EEB1E515ECF0ULL},
    {"builtin/mpeg", 0xB41352BDEEF8B4A7ULL, 0xF349522A07EEAA9AULL,
     0xC331A2FACAAA6DB3ULL},
    {"builtin/synthetic", 0x1930616AA0CC3EDCULL, 0x6F6F538E73AF9849ULL,
     0x31251E4C7623E6E8ULL},
};
// clang-format on

std::filesystem::path workloads_dir() {
  return std::filesystem::path(PASERTA_SOURCE_DIR) / "examples" / "workloads";
}

/// The random_explore ladder's generator settings at level `k` of six:
/// nesting depth 2..4, sections of up to 6..12 tasks, loops and branches.
apps::RandomAppConfig ladder_config(int k) {
  apps::RandomAppConfig c;
  c.max_depth = 2 + k / 2;
  c.max_section_tasks = 6 + (6 * k) / 5;
  c.max_segments = 4;
  c.branch_prob = 0.35;
  c.loop_prob = 0.2;
  c.max_loop_iters = 3;
  return c;
}

/// Workload text of random program `i`: ladder level i % 6, drawn from its
/// own stream until its expansion lies in the level's node band.
std::string random_text(int i) {
  constexpr int kBands[6][2] = {{100, 230}, {230, 360}, {360, 490},
                                {490, 620}, {620, 760}, {760, 900}};
  const int level = i % 6;
  Rng rng(0xC01DULL + static_cast<std::uint64_t>(i));
  const std::string name = "cold" + std::to_string(i);
  for (;;) {
    const Program prog = apps::random_program(rng, ladder_config(level));
    const auto n = static_cast<int>(build_application(name, prog).graph.size());
    if (n >= kBands[level][0] && n < kBands[level][1])
      return workload_to_string(name, prog);
  }
}

struct Input {
  std::string name;
  Application app;
};

std::vector<Input> cold_path_inputs() {
  std::vector<Input> out;
  for (const char* file : {"request_pipeline.workload", "sensor_fusion.workload",
                           "videopipe.workload"}) {
    std::ifstream in(workloads_dir() / file);
    EXPECT_TRUE(in.good()) << file;
    out.push_back({std::string("workloads/") + file, load_application(in)});
  }
  for (int i = 0; i < 60; ++i) {
    std::ostringstream name;
    name << "random/" << std::setw(2) << std::setfill('0') << i;
    out.push_back({name.str(), load_application_string(random_text(i))});
  }
  out.push_back({"builtin/atr", apps::build_atr()});
  out.push_back({"builtin/mpeg", apps::build_mpeg()});
  out.push_back({"builtin/synthetic", apps::build_synthetic()});
  return out;
}

std::string hex(std::uint64_t v) {
  std::ostringstream oss;
  oss << "0x" << std::hex << std::uppercase << std::setw(16)
      << std::setfill('0') << v << "ULL";
  return oss.str();
}

TEST(ColdPath, OutputsMatchPinnedDigests) {
  const std::vector<Input> inputs = cold_path_inputs();
  ASSERT_EQ(inputs.size(), std::size(kPinned));
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const Input& in = inputs[i];
    const std::uint64_t g = digest::graph_digest(in.app.graph);
    const std::uint64_t s = digest::structure_digest(in.app.structure);
    const std::uint64_t o = digest::offline_digest(in.app);
    const Pinned& want = kPinned[i];
    EXPECT_EQ(in.name, want.input);
    EXPECT_TRUE(g == want.graph && s == want.structure && o == want.offline)
        << "digest drift; this input now reads\n    {\"" << in.name << "\", "
        << hex(g) << ", " << hex(s) << ", " << hex(o) << "},";
  }
}

// ------------------------------------------------------------ grammar table

/// One token case: either accepted, with the first node's name and times,
/// or rejected, with the error message up to its source location.
struct GrammarCase {
  const char* label;
  std::string_view text;
  std::string_view name;
  std::int64_t wcet_ps = 0;
  std::int64_t acet_ps = 0;
  const char* error = nullptr;
};

constexpr std::int64_t kMs = 1'000'000'000;

const GrammarCase kGrammar[] = {
    {"plus sign", "task A +5 3\n", "A", 5 * kMs, 3 * kMs},
    {"hex integer", "task A 0x10 3\n", "A", 16 * kMs, 3 * kMs},
    {"hex float", "task A 0x1p3 0x1p1\n", "A", 8 * kMs, 2 * kMs},
    {"trailing dot", "task A 5. 3\n", "A", 5 * kMs, 3 * kMs},
    {"leading dot", "task A .5 .25\n", "A", kMs / 2, kMs / 4},
    {"exponent", "task A 2.5e0 25e-1\n", "A", 5 * kMs / 2, 5 * kMs / 2},
    {"tab separators", "task\tA\t5\t3\n", "A", 5 * kMs, 3 * kMs},
    {"vertical tab and form feed", "task\vA\f5 \t 3\n", "A", 5 * kMs, 3 * kMs},
    {"CRLF", "app x\r\ntask A 5 3\r\n", "A", 5 * kMs, 3 * kMs},
    {"CRLF section",
     "section\r\n task A 5 3\r\n task B 4 2\r\n edge A B\r\nend\r\n", "A",
     5 * kMs, 3 * kMs},
    {"no trailing newline", "app x\ntask A 5 3", "A", 5 * kMs, 3 * kMs},
    {"comment glued to a token", "task A 5 3#c\n", "A", 5 * kMs, 3 * kMs},
    {"comment glued to a name", "task A#B 5 3\n", "", 0, 0,
     "workload line 1: expected: task <name> <wcet_ms> <acet_ms>"},
    {"embedded NUL in a name", "task A\0B 5 3\n"sv, "A\0B"sv, 5 * kMs, 3 * kMs},
    {"embedded NUL in a number", "task A 5\0 3\n"sv, "", 0, 0,
     "workload line 1: invalid wcet '5"},
    {"overflow", "app x\ntask A 1e999 3\n", "", 0, 0,
     "workload line 2: invalid wcet '1e999'"},
    {"underflow", "\n\ntask A 5 1e-400\n", "", 0, 0,
     "workload line 3: invalid acet '1e-400'"},
    {"probability overflow", "branch b\nalt 1e999\nend\nend\n", "", 0, 0,
     "workload line 2: invalid probability '1e999'"},
    {"incomplete exponent", "task A 5e 3\n", "", 0, 0,
     "workload line 1: invalid wcet '5e'"},
    {"not a number", "task A five 3\n", "", 0, 0,
     "workload line 1: invalid wcet 'five'"},
    {"extra token", "task A 5 3 4\n", "", 0, 0,
     "workload line 1: expected: task <name> <wcet_ms> <acet_ms>"},
    {"unknown keyword", "app x\n\ttsk A 5 3\n", "", 0, 0,
     "workload line 2: unknown keyword 'tsk'"},
    {"duplicate task", "section\ntask A 5 3\ntask A 4 2\nend\n", "", 0, 0,
     "workload line 3: duplicate task 'A' in section"},
    {"unknown edge end", "section\ntask A 5 3\nedge A B\nend\n", "", 0, 0,
     "workload line 3: edge references unknown task 'B'"},
    {"unclosed section", "section\ntask A 5 3\n", "", 0, 0,
     "workload line 1: 'section' without matching 'end'"},
    {"stray end", "task A 5 3\nend\n", "", 0, 0,
     "workload line 2: unexpected 'end'"},
    {"app line arity", "app\ntask A 5 3\n", "", 0, 0,
     "workload line 1: expected: app <name>"},
    {"only comments", "# nothing\n  # here\n", "", 0, 0,
     "workload defines no segments"},
};

TEST(ColdPath, GrammarTable) {
  for (const GrammarCase& c : kGrammar) {
    SCOPED_TRACE(c.label);
    try {
      const Application app = load_application_string(std::string(c.text));
      ASSERT_EQ(c.error, nullptr) << "accepted input expected to fail";
      const Node& first = app.graph.node(NodeId{0});
      EXPECT_EQ(first.name, c.name);
      EXPECT_EQ(first.wcet.ps, c.wcet_ps);
      EXPECT_EQ(first.acet.ps, c.acet_ps);
    } catch (const Error& e) {
      ASSERT_NE(c.error, nullptr) << "rejected: " << e.what();
      EXPECT_STREQ(e.what(), c.error);
    }
  }
}

}  // namespace
}  // namespace paserta
