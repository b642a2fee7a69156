// Speed-selection policies: the six schemes evaluated in the paper.
//
//  NPM — no power management: every task at f_max (the normalization base).
//  SPM — static power management: one application-wide level derived from
//        the canonical worst-case makespan W and the deadline D (§5).
//  GSS — greedy slack sharing (§3): per-task speed from the latest start
//        time; uses all slack available at dispatch.
//  SS1 — static speculation, single speed (§4.1): a statistical floor
//        f_max * A / D under which GSS never drops.
//  SS2 — static speculation, two speeds (§4.1): floor f_l before the
//        computed switch point theta, f_h after.
//  AS  — adaptive speculation (§4.2): the floor is re-derived from the
//        expected remaining work after every OR node.
//
// Static policies (NPM/SPM) never touch the DVS hardware at run time and
// therefore pay no speed-computation or transition overheads; dynamic
// policies pay 'compute' per dispatch and 'switch' whenever the chosen
// level differs from the processor's current one (the engine charges both).
#pragma once

#include <memory>
#include <string>

#include "core/offline.h"
#include "power/power_model.h"

namespace paserta {

enum class Scheme { NPM, SPM, GSS, SS1, SS2, AS };

const char* to_string(Scheme s);

class SpeedPolicy {
 public:
  enum class Kind {
    Static,   // fixed level, no runtime PMPs
    Dynamic,  // per-task GSS speed, optionally raised to a floor
  };

  virtual ~SpeedPolicy() = default;

  virtual const char* name() const = 0;
  virtual Kind kind() const = 0;

  /// Called once per run before simulation starts.
  virtual void reset(const OfflineResult& off, const PowerModel& pm) = 0;

  /// Static policies: the level index every task runs at.
  virtual std::size_t static_level() const { return 0; }

  /// Dynamic policies: the speculative frequency floor active at time `t`
  /// (0 = pure greedy). Always a table frequency or 0.
  virtual Freq floor_freq(SimTime t) const {
    (void)t;
    return 0;
  }

  /// Dynamic policies: notification that an OR node fired. `chosen_alt` is
  /// the selected alternative index for forks and -1 for joins.
  virtual void on_or_fired(NodeId node, int chosen_alt, SimTime now,
                           const OfflineResult& off, const PowerModel& pm) {
    (void)node;
    (void)chosen_alt;
    (void)now;
    (void)off;
    (void)pm;
  }
};

/// Options for the speculative schemes. The paper's print is ambiguous on
/// whether a speculated speed between two levels rounds to the higher or
/// lower one for SS1/AS; both are safe (the greedy component guarantees
/// the deadline either way), so the choice is exposed and measured (the
/// `rounding` study of `paserta_cli reproduce`). Default: round up, which
/// needs fewer corrective switches later.
struct PolicyOptions {
  enum class SpecRounding { Up, Down };
  SpecRounding spec_rounding = SpecRounding::Up;
};

/// Factory for the paper's schemes.
std::unique_ptr<SpeedPolicy> make_policy(Scheme s,
                                         const PolicyOptions& options = {});

/// A static policy pinned to one level. Building block for the clairvoyant
/// oracle (core/oracle.h) and for custom what-if experiments.
class FixedLevelPolicy final : public SpeedPolicy {
 public:
  explicit FixedLevelPolicy(std::size_t level) : level_(level) {}
  const char* name() const override { return "FIXED"; }
  Kind kind() const override { return Kind::Static; }
  void reset(const OfflineResult&, const PowerModel& pm) override;
  std::size_t static_level() const override { return level_; }

 private:
  std::size_t level_;
};

/// SS1 and SS2 (paper §4.1). Exposed concretely — make_policy returns this
/// type for Scheme::SS1/SS2 — so tests can pin the speculation internals
/// (the bracket frequencies and the switch point theta) exactly.
class StaticSpecPolicy final : public SpeedPolicy {
 public:
  StaticSpecPolicy(bool two_speeds, PolicyOptions::SpecRounding rounding)
      : two_speeds_(two_speeds), rounding_(rounding) {}

  const char* name() const override { return two_speeds_ ? "SS2" : "SS1"; }
  Kind kind() const override { return Kind::Dynamic; }
  void reset(const OfflineResult& off, const PowerModel& pm) override;

  Freq floor_freq(SimTime now) const override {
    return (two_speeds_ && now < theta_) ? f_low_ : f_high_;
  }

  SimTime theta() const { return theta_; }
  Freq f_low() const { return f_low_; }
  Freq f_high() const { return f_high_; }

 private:
  bool two_speeds_;
  PolicyOptions::SpecRounding rounding_;
  Freq f_low_ = 0;
  Freq f_high_ = 0;
  SimTime theta_{};
};

/// Frequency needed to fit `work` (time at f_max) into `avail`:
/// ceil(f_max * work / avail), the deadline-safe direction. Returns f_max
/// when avail <= 0. Inline — the engine calls it once per dynamic
/// dispatch. Fast path mirroring scale_time: when f_max * work + avail - 1
/// fits in 64 bits (every workload in the paper), one hardware divide
/// replaces the libgcc 128-bit division; both paths compute the identical
/// quotient.
inline Freq required_freq(Freq f_max, SimTime work, SimTime avail) {
  if (avail <= SimTime::zero()) return f_max;
  if (work <= SimTime::zero()) return 0;
  const auto w = static_cast<std::uint64_t>(work.ps);
  const auto d = static_cast<std::uint64_t>(avail.ps);
  const std::uint64_t limit = ~std::uint64_t{0} - (d - 1);
  if (w <= limit / f_max) {
    const std::uint64_t f = (f_max * w + (d - 1)) / d;
    return f >= f_max ? f_max : static_cast<Freq>(f);
  }
  const auto num =
      static_cast<__int128>(f_max) * static_cast<__int128>(work.ps);
  const auto den = static_cast<__int128>(avail.ps);
  const __int128 f = (num + den - 1) / den;
  if (f >= static_cast<__int128>(f_max)) return f_max;
  return static_cast<Freq>(f);
}

}  // namespace paserta
