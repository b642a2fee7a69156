// The benchmark program. run.py builds it and runs
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --cli PATH --out-dir DIR
//
// and turns its last stdout line into the benchmark's result. With
// --digest it prints the digests of the inputs the seed generates instead
// of running anything; with --self-test it checks the benchmark's own
// arithmetic and prints "ok".
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include <sys/stat.h>

#include "util.h"
#include "workloads.h"

namespace {

using perfbench::Options;

[[noreturn]] void usage(const std::string& msg) {
  std::cerr << "perfbench: " << msg << "\n"
            << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--cli PATH] [--out-dir DIR] [--digest] "
               "[--self-test]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--digest") {
      o.digest = true;
      continue;
    }
    if (flag == "--self-test") {
      o.self_test = true;
      continue;
    }
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") o.workload = v;
      else if (flag == "--seed") o.seed = std::stoull(v);
      else if (flag == "--seconds") o.seconds = std::stod(v);
      else if (flag == "--trace") o.trace = std::stoi(v) != 0;
      else if (flag == "--cli") o.cli = v;
      else if (flag == "--out-dir") o.out_dir = v;
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

/// Checks of the benchmark's own arithmetic; returns the number of failed
/// checks, each named on stderr.
int self_test() {
  using perfbench::Rung;
  int failed = 0;
  const auto expect = [&](const char* what, double got, double want) {
    if (std::abs(got - want) <= 1e-9 * std::max(1.0, std::abs(want))) return;
    std::cerr << "self-test " << what << ": got " << got << ", want " << want
              << "\n";
    ++failed;
  };
  const auto rung = [](double rate, double p99, bool clean) {
    Rung r;
    r.rate = rate;
    r.p99_ms = p99;
    r.clean = clean;
    return r;
  };
  using perfbench::staircase_max_rps;
  const double lim = 200.0;
  expect("staircase: no rung", staircase_max_rps({}, lim), 0.0);
  expect("staircase: every rung passed",
         staircase_max_rps({rung(400, 10, true), rung(440, 20, true)}, lim),
         440.0);
  expect("staircase: p99 at the limit passes",
         staircase_max_rps({rung(400, 200, true)}, lim), 400.0);
  expect("staircase: the rungs after the first failing one",
         staircase_max_rps({rung(400, 10, true), rung(480, 300, true),
                            rung(440, 150, true), rung(480, 250, true),
                            rung(440, 20, true)},
                           lim),
         std::cbrt(440.0 * 480.0 * 440.0));
  expect("staircase: a rung with p99 in the limit fails on errors",
         staircase_max_rps({rung(400, 10, true), rung(480, 20, false),
                            rung(440, 30, true), rung(480, 40, true)},
                           lim),
         std::sqrt(440.0 * 480.0));
  expect("staircase: the first failing rung is the last",
         staircase_max_rps({rung(400, 10, true), rung(480, 300, true)}, lim),
         480.0);
  expect("staircase: the first rung failed",
         staircase_max_rps({rung(400, 250, true), rung(370, 90, true),
                            rung(400, 90, true)},
                           lim),
         std::sqrt(370.0 * 400.0));
  expect("quantile: median of even count",
         perfbench::quantile({4, 1, 3, 2}, 0.5), 2.5);
  expect("quantile: p99 interpolates",
         perfbench::quantile({0, 100}, 0.99), 99.0);
  expect("quantile: empty", perfbench::quantile({}, 0.5), 0.0);
  return failed;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  try {
    if (o.self_test) {
      if (self_test() != 0) return 1;
      std::cout << "ok\n";
      return 0;
    }
    if (o.digest) {
      std::uint64_t graphs = perfbench::fnv1a("");
      for (const std::string& t : perfbench::explore_graph_texts(o.seed))
        graphs = perfbench::fnv1a(t, graphs);
      std::uint64_t requests = perfbench::fnv1a("");
      for (const std::string& l :
           perfbench::serve_request_lines(o.seed, 400))
        requests = perfbench::fnv1a(l, requests);
      std::cout << "{\"graph_set\":\"" << perfbench::hex64(graphs)
                << "\",\"request_stream\":\"" << perfbench::hex64(requests)
                << "\"}\n";
      return 0;
    }
    ::mkdir(o.out_dir.c_str(), 0755);
    perfbench::Result r;
    if (o.workload == "fig4a_sweep") {
      r = perfbench::run_sweep_workload(o, /*discrete=*/false);
    } else if (o.workload == "discrete_replay") {
      r = perfbench::run_sweep_workload(o, /*discrete=*/true);
    } else if (o.workload == "random_explore") {
      r = perfbench::run_random_explore(o);
    } else if (o.workload == "serve_mix") {
      if (o.cli.empty()) usage("serve_mix needs --cli");
      r = perfbench::run_serve_mix(o);
    } else {
      usage("unknown workload '" + o.workload + "'");
    }
    std::cerr << "notes " << perfbench::notes_json(r) << "\n";
    std::cout << perfbench::result_json(r) << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
