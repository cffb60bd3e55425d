#pragma once

#include <compare>
#include <cstdint>
#include <string>

namespace sixg {

/// Simulated duration with nanosecond resolution. A thin strong type over
/// int64 ticks: cheap to copy, totally ordered, and immune to the
/// unit-confusion bugs that plague latency code (ms vs us vs ns).
class Duration {
 public:
  constexpr Duration() = default;

  [[nodiscard]] static constexpr Duration nanos(std::int64_t n) {
    return Duration{n};
  }
  [[nodiscard]] static constexpr Duration micros(std::int64_t us) {
    return Duration{us * 1000};
  }
  [[nodiscard]] static constexpr Duration millis(std::int64_t ms) {
    return Duration{ms * 1'000'000};
  }
  [[nodiscard]] static constexpr Duration seconds(std::int64_t s) {
    return Duration{s * 1'000'000'000};
  }
  /// Fractional constructors used by analytic latency models.
  [[nodiscard]] static constexpr Duration from_seconds_f(double s) {
    return Duration{static_cast<std::int64_t>(s * 1e9)};
  }
  [[nodiscard]] static constexpr Duration from_millis_f(double ms) {
    return Duration{static_cast<std::int64_t>(ms * 1e6)};
  }
  [[nodiscard]] static constexpr Duration from_micros_f(double us) {
    return Duration{static_cast<std::int64_t>(us * 1e3)};
  }

  [[nodiscard]] constexpr std::int64_t ns() const { return ticks_; }
  [[nodiscard]] constexpr double us() const { return double(ticks_) / 1e3; }
  [[nodiscard]] constexpr double ms() const { return double(ticks_) / 1e6; }
  [[nodiscard]] constexpr double sec() const { return double(ticks_) / 1e9; }

  [[nodiscard]] constexpr bool is_zero() const { return ticks_ == 0; }
  [[nodiscard]] constexpr bool is_negative() const { return ticks_ < 0; }

  friend constexpr auto operator<=>(Duration, Duration) = default;

  constexpr Duration& operator+=(Duration d) {
    ticks_ += d.ticks_;
    return *this;
  }
  constexpr Duration& operator-=(Duration d) {
    ticks_ -= d.ticks_;
    return *this;
  }
  friend constexpr Duration operator+(Duration a, Duration b) {
    return Duration{a.ticks_ + b.ticks_};
  }
  friend constexpr Duration operator-(Duration a, Duration b) {
    return Duration{a.ticks_ - b.ticks_};
  }
  friend constexpr Duration operator*(Duration a, std::int64_t k) {
    return Duration{a.ticks_ * k};
  }
  friend constexpr Duration operator*(std::int64_t k, Duration a) {
    return a * k;
  }
  // Plain-int overloads keep `d * 2` unambiguous against the double form.
  friend constexpr Duration operator*(Duration a, int k) {
    return a * std::int64_t(k);
  }
  friend constexpr Duration operator*(int k, Duration a) {
    return a * std::int64_t(k);
  }
  friend constexpr Duration operator*(Duration a, double k) {
    return Duration{static_cast<std::int64_t>(double(a.ticks_) * k)};
  }
  friend constexpr double operator/(Duration a, Duration b) {
    return double(a.ticks_) / double(b.ticks_);
  }
  friend constexpr Duration operator/(Duration a, std::int64_t k) {
    return Duration{a.ticks_ / k};
  }

  /// Human-readable rendering with an auto-selected unit, e.g. "12.3 ms".
  [[nodiscard]] std::string str() const;

 private:
  constexpr explicit Duration(std::int64_t t) : ticks_(t) {}
  std::int64_t ticks_ = 0;
};

/// Absolute simulated time (ns since simulation start).
class TimePoint {
 public:
  constexpr TimePoint() = default;
  [[nodiscard]] static constexpr TimePoint from_ns(std::int64_t n) {
    return TimePoint{n};
  }

  [[nodiscard]] constexpr std::int64_t ns() const { return ticks_; }
  [[nodiscard]] constexpr double ms() const { return double(ticks_) / 1e6; }
  [[nodiscard]] constexpr double sec() const { return double(ticks_) / 1e9; }

  friend constexpr auto operator<=>(TimePoint, TimePoint) = default;

  friend constexpr TimePoint operator+(TimePoint t, Duration d) {
    return TimePoint{t.ticks_ + d.ns()};
  }
  friend constexpr TimePoint operator-(TimePoint t, Duration d) {
    return TimePoint{t.ticks_ - d.ns()};
  }
  friend constexpr Duration operator-(TimePoint a, TimePoint b) {
    return Duration::nanos(a.ticks_ - b.ticks_);
  }

 private:
  constexpr explicit TimePoint(std::int64_t t) : ticks_(t) {}
  std::int64_t ticks_ = 0;
};

namespace literals {
constexpr Duration operator""_ns(unsigned long long v) {
  return Duration::nanos(static_cast<std::int64_t>(v));
}
constexpr Duration operator""_us(unsigned long long v) {
  return Duration::micros(static_cast<std::int64_t>(v));
}
constexpr Duration operator""_ms(unsigned long long v) {
  return Duration::millis(static_cast<std::int64_t>(v));
}
constexpr Duration operator""_s(unsigned long long v) {
  return Duration::seconds(static_cast<std::int64_t>(v));
}
constexpr Duration operator""_ms(long double v) {
  return Duration::from_millis_f(static_cast<double>(v));
}
constexpr Duration operator""_us(long double v) {
  return Duration::from_micros_f(static_cast<double>(v));
}
constexpr Duration operator""_s(long double v) {
  return Duration::from_seconds_f(static_cast<double>(v));
}
}  // namespace literals

}  // namespace sixg
