#include "power/level_table.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace paserta {

LevelTable::LevelTable(std::string name, std::vector<Level> levels)
    : name_(std::move(name)), levels_(std::move(levels)) {
  PASERTA_REQUIRE(!levels_.empty(), "level table '" << name_ << "' is empty");
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    PASERTA_REQUIRE(levels_[i].freq > 0 && levels_[i].volts > 0.0,
                    "level table '" << name_ << "': level " << i
                                    << " has non-positive freq/voltage");
    if (i > 0) {
      PASERTA_REQUIRE(levels_[i].freq > levels_[i - 1].freq,
                      "level table '" << name_
                                      << "': frequencies must be strictly "
                                         "increasing");
      PASERTA_REQUIRE(levels_[i].volts >= levels_[i - 1].volts,
                      "level table '" << name_
                                      << "': voltage must be non-decreasing "
                                         "with frequency");
    }
  }
}

std::size_t LevelTable::index_of(Freq f) const {
  for (std::size_t i = 0; i < levels_.size(); ++i)
    if (levels_[i].freq == f) return i;
  PASERTA_REQUIRE(false, "frequency " << f << " Hz not in table '" << name_
                                      << "'");
  return 0;  // unreachable
}

LevelTable LevelTable::transmeta_tm5400() {
  // 16 settings, 200..700 MHz / 1.10..1.65 V, uniform steps.
  std::vector<Level> lv;
  constexpr int kN = 16;
  for (int i = 0; i < kN; ++i) {
    const double frac = static_cast<double>(i) / (kN - 1);
    const double mhz = 200.0 + frac * 500.0;
    const double v = 1.10 + frac * 0.55;
    lv.push_back(Level{static_cast<Freq>(mhz * 1e6 + 0.5), v});
  }
  return LevelTable("TransmetaTM5400", std::move(lv));
}

LevelTable LevelTable::intel_xscale() {
  return LevelTable("IntelXScale",
                    {Level{150 * kMHz, 0.75}, Level{400 * kMHz, 1.0},
                     Level{600 * kMHz, 1.3}, Level{800 * kMHz, 1.6},
                     Level{1000 * kMHz, 1.8}});
}

LevelTable LevelTable::from_name(std::string_view name) {
  if (name == "transmeta") return transmeta_tm5400();
  if (name == "xscale") return intel_xscale();
  PASERTA_REQUIRE(false,
                  "unknown table '" << name << "' (use transmeta or xscale)");
  return transmeta_tm5400();  // unreachable
}

LevelTable LevelTable::synthetic(std::string name, std::size_t n, Freq f_min,
                                 Freq f_max, double v_min, double v_max) {
  PASERTA_REQUIRE(n >= 1, "synthetic table needs at least one level");
  PASERTA_REQUIRE(f_min <= f_max && v_min <= v_max,
                  "synthetic table bounds out of order");
  std::vector<Level> lv;
  if (n == 1) {
    lv.push_back(Level{f_max, v_max});
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      const double frac = static_cast<double>(i) / static_cast<double>(n - 1);
      const auto f = static_cast<Freq>(
          std::round(static_cast<double>(f_min) +
                     frac * static_cast<double>(f_max - f_min)));
      lv.push_back(Level{f, v_min + frac * (v_max - v_min)});
    }
  }
  return LevelTable(std::move(name), std::move(lv));
}

LevelTable LevelTable::ideal_continuous(Freq f_min, Freq f_max, double v_min,
                                        double v_max) {
  return synthetic("IdealContinuous", 200, f_min, f_max, v_min, v_max);
}

}  // namespace paserta
