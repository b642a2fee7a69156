// The benchmark's workloads. Each runs set-up, a timed window of
// Options::seconds, and its output checks, and returns the result line;
// with Options::trace it returns the per-layer metrics instead of the
// end-to-end ones.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util.h"

namespace perfbench {

/// fig4a_sweep (discrete = false) and discrete_replay (discrete = true).
Result run_sweep_workload(const Options& o, bool discrete);

/// random_explore.
Result run_random_explore(const Options& o);

/// serve_mix.
Result run_serve_mix(const Options& o);

/// One rung of serve_mix's max_rps staircase.
struct Rung {
  double rate = 0.0;    // offered, requests per second
  double p99_ms = 0.0;  // from each request's scheduled send time
  bool clean = true;    // no failed request, and the backlog drained
};

/// A rung passes when it is clean and its p99 is within `limit_ms`.
bool rung_passes(const Rung& rung, double limit_ms);

/// max_rps from the staircase's rungs, in the order they ran. Each rung
/// after a passing one is faster and each after a failing one slower (by
/// one factor once a rung has failed), so from its first failing rung on
/// the staircase steps about the rate at which a rung passes half the
/// time. That rate is estimated as the
/// geometric mean of the rates from the first failing rung on. When no
/// rung failed it is the last rung's rate, a floor; 0 without rungs.
double staircase_max_rps(const std::vector<Rung>& rungs, double limit_ms);

/// The workload text of random_explore's graph set for `seed`.
std::vector<std::string> explore_graph_texts(std::uint64_t seed);

/// The NDJSON request stream serve_mix sends for `seed`, in send order.
std::vector<std::string> serve_request_lines(std::uint64_t seed,
                                             std::size_t count);

}  // namespace perfbench
