// Fixed-point simulation time for paserta.
//
// All schedule arithmetic (canonical schedules, latest start times, slack)
// is performed on integer picoseconds so that offline analysis and the
// online simulator agree bit-for-bit; floating point is used only for
// energy bookkeeping and statistics.
#pragma once

#include <cstdint>
#include <compare>
#include <limits>
#include <optional>
#include <string>

namespace paserta {

/// Processor frequency in Hz.
using Freq = std::uint64_t;

constexpr Freq kMHz = 1'000'000ULL;
constexpr Freq kGHz = 1'000'000'000ULL;

/// A point in (or span of) simulated time, in integer picoseconds.
///
/// int64 picoseconds cover ~106 days, far beyond any frame deadline in the
/// paper's workloads (milliseconds). A strong type keeps Freq/time/cycle
/// quantities from mixing accidentally.
struct SimTime {
  std::int64_t ps{0};

  constexpr SimTime() = default;
  constexpr explicit SimTime(std::int64_t picoseconds) : ps(picoseconds) {}

  static constexpr SimTime zero() { return SimTime{0}; }
  static constexpr SimTime max() {
    return SimTime{std::numeric_limits<std::int64_t>::max()};
  }

  static constexpr SimTime from_ns(double ns) {
    return SimTime{static_cast<std::int64_t>(ns * 1e3 + 0.5)};
  }
  static constexpr SimTime from_us(double us) {
    return SimTime{static_cast<std::int64_t>(us * 1e6 + 0.5)};
  }
  static constexpr SimTime from_ms(double ms) {
    return SimTime{static_cast<std::int64_t>(ms * 1e9 + 0.5)};
  }
  /// from_ms for untrusted input: nullopt unless ms * 1e9 + 0.5, the value
  /// from_ms truncates toward zero, lies in [-2^63, 2^63), the range where
  /// that conversion is defined (NaN and the infinities fail).
  static constexpr std::optional<SimTime> try_from_ms(double ms) {
    const double ps = ms * 1e9 + 0.5;
    if (!(ps >= -0x1p63 && ps < 0x1p63)) return std::nullopt;
    return SimTime{static_cast<std::int64_t>(ps)};
  }
  static constexpr SimTime from_sec(double s) {
    return SimTime{static_cast<std::int64_t>(s * 1e12 + 0.5)};
  }

  constexpr double ns() const { return static_cast<double>(ps) / 1e3; }
  constexpr double us() const { return static_cast<double>(ps) / 1e6; }
  constexpr double ms() const { return static_cast<double>(ps) / 1e9; }
  constexpr double sec() const { return static_cast<double>(ps) / 1e12; }

  constexpr bool is_zero() const { return ps == 0; }
  constexpr bool is_negative() const { return ps < 0; }

  constexpr auto operator<=>(const SimTime&) const = default;

  constexpr SimTime& operator+=(SimTime o) {
    ps += o.ps;
    return *this;
  }
  constexpr SimTime& operator-=(SimTime o) {
    ps -= o.ps;
    return *this;
  }
};

constexpr SimTime operator+(SimTime a, SimTime b) { return SimTime{a.ps + b.ps}; }
constexpr SimTime operator-(SimTime a, SimTime b) { return SimTime{a.ps - b.ps}; }
constexpr SimTime operator*(SimTime a, std::int64_t k) { return SimTime{a.ps * k}; }
constexpr SimTime operator*(std::int64_t k, SimTime a) { return SimTime{a.ps * k}; }

/// ceil(t * num / den) with a 128-bit intermediate; exact for all inputs the
/// simulator produces. Used to stretch execution times across frequencies:
/// a task needing `t` at `f_max` needs `scale_time(t, f_max, f)` at `f`.
///
/// Fast path: when `t.ps * num + den - 1` fits in 64 bits — true for every
/// workload in the paper (sub-second times, sub-GHz frequencies) — the
/// ceil-divide is one hardware divide instead of a libgcc __udivti3 call.
/// Both paths compute the identical quotient.
constexpr SimTime scale_time(SimTime t, std::uint64_t num, std::uint64_t den) {
  if (t.ps >= 0 && num > 0) {
    const auto a = static_cast<std::uint64_t>(t.ps);
    const std::uint64_t limit = ~std::uint64_t{0} - (den - 1);
    if (a <= limit / num) {
      const std::uint64_t q = (a * num + (den - 1)) / den;
      return SimTime{static_cast<std::int64_t>(q)};
    }
  }
  const auto wide = static_cast<__int128>(t.ps) * static_cast<__int128>(num);
  const auto d = static_cast<__int128>(den);
  const __int128 q = (wide + d - 1) / d;
  return SimTime{static_cast<std::int64_t>(q)};
}

/// Time taken by `cycles` processor cycles at frequency `f` (rounded up).
/// Same 64-bit fast path as scale_time.
constexpr SimTime cycles_to_time(std::uint64_t cycles, Freq f) {
  constexpr std::uint64_t kPsPerSec = 1'000'000'000'000ULL;
  const std::uint64_t limit = ~std::uint64_t{0} - (f - 1);
  if (cycles <= limit / kPsPerSec) {
    const std::uint64_t q = (cycles * kPsPerSec + (f - 1)) / f;
    return SimTime{static_cast<std::int64_t>(q)};
  }
  const auto wide = static_cast<__int128>(cycles) * 1'000'000'000'000LL;
  const auto d = static_cast<__int128>(f);
  return SimTime{static_cast<std::int64_t>((wide + d - 1) / d)};
}

/// Number of cycles executed in time `t` at frequency `f` (rounded down).
constexpr std::uint64_t time_to_cycles(SimTime t, Freq f) {
  const auto wide = static_cast<__int128>(t.ps) * static_cast<__int128>(f);
  return static_cast<std::uint64_t>(wide / 1'000'000'000'000LL);
}

std::string to_string(SimTime t);

}  // namespace paserta
