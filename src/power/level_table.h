// Discrete voltage/frequency level tables (paper §2.3, Tables 1 & 2).
#pragma once

#include <algorithm>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.h"

namespace paserta {

/// One DVS operating point.
struct Level {
  Freq freq = 0;       // Hz
  double volts = 0.0;  // supply voltage

  bool operator==(const Level&) const = default;
};

/// An ordered set of operating points for one processor model.
///
/// Levels are sorted by ascending frequency; `quantize_up` implements the
/// deadline-safe rounding used throughout the paper: the slowest level that
/// is at least as fast as the desired frequency.
class LevelTable {
 public:
  LevelTable(std::string name, std::vector<Level> levels);

  const std::string& name() const { return name_; }
  std::size_t size() const { return levels_.size(); }
  const Level& level(std::size_t i) const { return levels_.at(i); }
  const std::vector<Level>& levels() const { return levels_; }

  const Level& min_level() const { return levels_.front(); }
  const Level& max_level() const { return levels_.back(); }
  Freq f_min() const { return levels_.front().freq; }
  Freq f_max() const { return levels_.back().freq; }

  /// Index of the slowest level with freq >= desired; clamps to the extreme
  /// levels (below f_min -> index 0, above f_max -> last index). This is the
  /// "minimal speed limitation" central to the paper's findings. Inline:
  /// the engine quantizes once per dynamic dispatch, and tables are small
  /// enough that the call overhead would rival the search.
  std::size_t quantize_up(Freq desired) const {
    const auto it = std::lower_bound(
        levels_.begin(), levels_.end(), desired,
        [](const Level& l, Freq f) { return l.freq < f; });
    if (it == levels_.end()) return levels_.size() - 1;
    return static_cast<std::size_t>(it - levels_.begin());
  }

  /// Index of the fastest level with freq <= desired; clamps to the extreme
  /// levels. Deadline-UNSAFE for required speeds — used only for
  /// speculative floors, which the greedy component backstops.
  std::size_t quantize_down(Freq desired) const {
    const auto it = std::upper_bound(
        levels_.begin(), levels_.end(), desired,
        [](Freq f, const Level& l) { return f < l.freq; });
    if (it == levels_.begin()) return 0;
    return static_cast<std::size_t>(it - levels_.begin()) - 1;
  }

  /// Index of the level with exactly this frequency; throws if absent.
  std::size_t index_of(Freq f) const;

  // ---- Built-in tables -----------------------------------------------

  /// Transmeta Crusoe TM5400 (paper Table 1): 16 levels, 200 MHz @ 1.10 V
  /// to 700 MHz @ 1.65 V. The paper's table print is corrupted in our
  /// source; frequencies step uniformly by ~33 MHz and voltages by
  /// ~0.0367 V across the published range, matching the authors' other
  /// publications of the same table.
  static LevelTable transmeta_tm5400();

  /// Intel XScale 80200 (paper Table 2): 150/400/600/800/1000 MHz at
  /// 0.75/1.0/1.3/1.6/1.8 V — few levels, wide gaps.
  static LevelTable intel_xscale();

  /// The paper's table a front end names: "transmeta" (TM5400) or
  /// "xscale". Throws paserta::Error naming the valid names otherwise.
  static LevelTable from_name(std::string_view name);

  /// A synthetic table with `n` levels spaced uniformly in frequency
  /// between f_min and f_max, with voltage linear in frequency between
  /// v_min and v_max. Used for the min-speed and level-count ablations the
  /// paper lists as future work.
  static LevelTable synthetic(std::string name, std::size_t n, Freq f_min,
                              Freq f_max, double v_min, double v_max);

  /// A near-continuous table (200 levels) emulating the "infinite levels"
  /// assumption of earlier DVS papers; for comparison experiments.
  static LevelTable ideal_continuous(Freq f_min, Freq f_max, double v_min,
                                     double v_max);

 private:
  std::string name_;
  std::vector<Level> levels_;
};

}  // namespace paserta
