#include "regression.h"

#include <cmath>
#include <iomanip>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>

#include "common/error.h"

namespace paserta {
namespace {

std::string exact(double v) {
  std::ostringstream oss;
  oss << std::setprecision(17) << v;
  return oss.str();
}

struct Key {
  std::string x;
  std::string scheme;
  bool operator<(const Key& o) const {
    if (x != o.x) return x < o.x;
    return scheme < o.scheme;
  }
};

struct Row {
  double norm_energy = 0.0;
  double speed_changes = 0.0;
  std::uint32_t misses = 0;
};

std::map<Key, Row> rows_of(const std::vector<SweepPoint>& points) {
  std::map<Key, Row> rows;
  for (const SweepPoint& p : points) {
    for (const SchemeStats& st : p.stats) {
      rows[Key{exact(p.x), to_string(st.scheme)}] =
          Row{st.norm_energy.mean(), st.speed_changes.mean(),
              st.deadline_misses};
    }
  }
  return rows;
}

}  // namespace

void write_baseline(std::ostream& os, const std::vector<SweepPoint>& points) {
  os << "x,scheme,norm_energy,speed_changes,misses\n";
  for (const auto& [key, row] : rows_of(points)) {
    os << key.x << "," << key.scheme << "," << exact(row.norm_energy) << ","
       << exact(row.speed_changes) << "," << row.misses << "\n";
  }
}

BaselineDiff check_baseline(std::istream& baseline,
                            const std::vector<SweepPoint>& points,
                            double tolerance) {
  BaselineDiff diff;
  const std::map<Key, Row> fresh = rows_of(points);
  std::map<Key, Row> stored;

  std::string line;
  std::getline(baseline, line);  // header
  PASERTA_REQUIRE(line.rfind("x,scheme,", 0) == 0,
                  "not a baseline file (bad header)");
  int lineno = 1;
  while (std::getline(baseline, line)) {
    ++lineno;
    if (line.empty()) continue;
    std::istringstream iss(line);
    std::string x, scheme, e, sw, misses;
    PASERTA_REQUIRE(std::getline(iss, x, ',') &&
                        std::getline(iss, scheme, ',') &&
                        std::getline(iss, e, ',') &&
                        std::getline(iss, sw, ',') &&
                        std::getline(iss, misses, ','),
                    "baseline line " << lineno << " malformed");
    stored[Key{x, scheme}] = Row{std::stod(e), std::stod(sw),
                                 static_cast<std::uint32_t>(
                                     std::stoul(misses))};
  }

  auto close = [&](double a, double b) {
    if (a == b) return true;
    const double denom = std::max(std::fabs(a), std::fabs(b));
    return denom > 0.0 && std::fabs(a - b) / denom <= tolerance;
  };

  for (const auto& [key, want] : stored) {
    const auto it = fresh.find(key);
    if (it == fresh.end()) {
      diff.ok = false;
      diff.mismatches.push_back("missing result for x=" + key.x +
                                " scheme=" + key.scheme);
      continue;
    }
    const Row& got = it->second;
    if (!close(got.norm_energy, want.norm_energy))
      diff.mismatches.push_back(
          "x=" + key.x + " " + key.scheme + ": norm_energy " +
          exact(got.norm_energy) + " != baseline " +
          exact(want.norm_energy));
    if (!close(got.speed_changes, want.speed_changes))
      diff.mismatches.push_back("x=" + key.x + " " + key.scheme +
                                ": speed_changes drifted");
    if (got.misses != want.misses)
      diff.mismatches.push_back("x=" + key.x + " " + key.scheme +
                                ": deadline misses changed");
  }
  for (const auto& [key, unused] : fresh) {
    (void)unused;
    if (!stored.contains(key)) {
      diff.mismatches.push_back("baseline lacks x=" + key.x +
                                " scheme=" + key.scheme);
    }
  }
  diff.ok = diff.mismatches.empty();
  return diff;
}

}  // namespace paserta
