#include "core/policy.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace paserta {

const char* to_string(Scheme s) {
  switch (s) {
    case Scheme::NPM: return "NPM";
    case Scheme::SPM: return "SPM";
    case Scheme::GSS: return "GSS";
    case Scheme::SS1: return "SS1";
    case Scheme::SS2: return "SS2";
    case Scheme::AS: return "AS";
  }
  return "?";
}

Scheme scheme_from_name(std::string_view name) {
  if (name == "npm") return Scheme::NPM;
  if (name == "spm") return Scheme::SPM;
  if (name == "gss") return Scheme::GSS;
  if (name == "ss1") return Scheme::SS1;
  if (name == "ss2") return Scheme::SS2;
  if (name == "as") return Scheme::AS;
  PASERTA_REQUIRE(false, "unknown scheme '" << name
                                             << "' (use npm, spm, gss, ss1, "
                                                "ss2 or as)");
  return Scheme::NPM;  // unreachable
}

namespace {

/// Speculative speed f_max * work / horizon, rounded to a table level per
/// the policy options and clamped to [f_min, f_max] (paper §4). Returns the
/// level's frequency.
Freq speculate_level_freq(const PowerModel& pm, SimTime work, SimTime horizon,
                          PolicyOptions::SpecRounding rounding) {
  const LevelTable& t = pm.table();
  const Freq desired = required_freq(t.f_max(), work, horizon);
  const std::size_t idx = rounding == PolicyOptions::SpecRounding::Up
                              ? t.quantize_up(desired)
                              : t.quantize_down(desired);
  return t.level(idx).freq;
}

class NpmPolicy final : public SpeedPolicy {
 public:
  const char* name() const override { return "NPM"; }
  Kind kind() const override { return Kind::Static; }
  void reset(const OfflineResult&, const PowerModel& pm) override {
    level_ = pm.table().size() - 1;
  }
  std::size_t static_level() const override { return level_; }

 private:
  std::size_t level_ = 0;
};

class SpmPolicy final : public SpeedPolicy {
 public:
  const char* name() const override { return "SPM"; }
  Kind kind() const override { return Kind::Static; }
  void reset(const OfflineResult& off, const PowerModel& pm) override {
    // Stretch the canonical longest path to the deadline: f = f_max * W / D,
    // rounded up to the next level so the stretched schedule still fits.
    const Freq desired = required_freq(pm.table().f_max(), off.worst_makespan(),
                                       off.deadline());
    level_ = pm.table().quantize_up(desired);
  }
  std::size_t static_level() const override { return level_; }

 private:
  std::size_t level_ = 0;
};

class GssPolicy final : public SpeedPolicy {
 public:
  const char* name() const override { return "GSS"; }
  Kind kind() const override { return Kind::Dynamic; }
  void reset(const OfflineResult&, const PowerModel&) override {}
};

/// AS (paper §4.2): re-speculate after every OR node from the expected
/// average-case remaining time.
class AdaptiveSpecPolicy final : public SpeedPolicy {
 public:
  explicit AdaptiveSpecPolicy(PolicyOptions::SpecRounding rounding)
      : rounding_(rounding) {}

  const char* name() const override { return "AS"; }
  Kind kind() const override { return Kind::Dynamic; }

  void reset(const OfflineResult& off, const PowerModel& pm) override {
    floor_ = speculate_level_freq(pm, off.average_makespan(), off.deadline(),
                                  rounding_);
  }

  Freq floor_freq(SimTime) const override { return floor_; }

  void on_or_fired(NodeId node, int chosen_alt, SimTime now,
                   const OfflineResult& off, const PowerModel& pm) override {
    const SimTime horizon = off.deadline() - now;
    SimTime rem{};
    if (chosen_alt >= 0 && off.has_fork_profile(node)) {
      rem = off.fork_profile(node)
                .rem_a_alt[static_cast<std::size_t>(chosen_alt)];
    } else {
      rem = off.rem_a_after(node);
    }
    floor_ = speculate_level_freq(pm, rem, horizon, rounding_);
  }

 private:
  PolicyOptions::SpecRounding rounding_;
  Freq floor_ = 0;
};

}  // namespace

void FixedLevelPolicy::reset(const OfflineResult&, const PowerModel& pm) {
  PASERTA_REQUIRE(level_ < pm.table().size(),
                  "fixed level " << level_ << " out of range for table '"
                                 << pm.table().name() << "'");
}

void StaticSpecPolicy::reset(const OfflineResult& off, const PowerModel& pm) {
  const LevelTable& t = pm.table();
  const Freq raw =
      required_freq(t.f_max(), off.average_makespan(), off.deadline());
  const std::size_t hi = t.quantize_up(raw);
  if (!two_speeds_ || hi == 0 || t.level(hi).freq == raw ||
      raw <= t.f_min()) {
    // Single-speed speculation (or the speculated speed is exactly a
    // level / below the minimum level): one constant floor, rounded per
    // the policy options.
    const std::size_t idx =
        rounding_ == PolicyOptions::SpecRounding::Up ? hi
                                                     : t.quantize_down(raw);
    f_low_ = f_high_ = t.level(idx).freq;
    theta_ = SimTime::zero();
    return;
  }
  f_low_ = t.level(hi - 1).freq;
  f_high_ = t.level(hi).freq;
  // Run at f_low until theta, f_high afterwards, such that the two-speed
  // profile does the same expected work as running at `raw` for D:
  //   theta = D * (f_high - raw) / (f_high - f_low),
  // rounded to the nearest picosecond (truncation would bias theta low by
  // up to 1 ps whenever the product is not exactly representable).
  const double frac = static_cast<double>(f_high_ - raw) /
                      static_cast<double>(f_high_ - f_low_);
  theta_ = SimTime{static_cast<std::int64_t>(
      std::llround(frac * static_cast<double>(off.deadline().ps)))};
}

std::unique_ptr<SpeedPolicy> make_policy(Scheme s,
                                         const PolicyOptions& options) {
  switch (s) {
    case Scheme::NPM: return std::make_unique<NpmPolicy>();
    case Scheme::SPM: return std::make_unique<SpmPolicy>();
    case Scheme::GSS: return std::make_unique<GssPolicy>();
    case Scheme::SS1:
      return std::make_unique<StaticSpecPolicy>(false, options.spec_rounding);
    case Scheme::SS2:
      return std::make_unique<StaticSpecPolicy>(true, options.spec_rounding);
    case Scheme::AS:
      return std::make_unique<AdaptiveSpecPolicy>(options.spec_rounding);
  }
  PASERTA_ASSERT(false, "unknown scheme");
  return nullptr;
}

}  // namespace paserta
