/// @file net_leg.hpp — one-way network-leg sampler for the serving
/// engines, as a small closed variant instead of an opaque closure.
///
/// A NetLeg names its structure — "radio access then wired path",
/// "wired path then radio", "wired only" — and pins the RNG draw order
/// of each: the engines draw one leg per request on a stream dedicated
/// to that direction, bit-identically to the closures these kinds
/// replaced. Arbitrary callables still convert implicitly (the kFn
/// kind).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <type_traits>
#include <utility>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "radio/conditions.hpp"
#include "radio/link_model.hpp"
#include "topo/compiled_path.hpp"

namespace sixg::edgeai {

class NetLeg {
 public:
  using Fn = std::function<Duration(Rng&)>;

  NetLeg() = default;

  /// Opaque-callable leg (tests, synthetic hops).
  /// An empty std::function converts to a null leg, matching the old
  /// "null sampler means the hop does not exist" convention.
  NetLeg(Fn fn) : kind_(fn ? Kind::kFn : Kind::kNull), fn_(std::move(fn)) {}
  template <class F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, NetLeg> &&
             !std::is_same_v<std::remove_cvref_t<F>, Fn> &&
             std::is_invocable_r_v<Duration, F&, Rng&>)
  NetLeg(F&& fn) : kind_(Kind::kFn), fn_(std::forward<F>(fn)) {}

  /// Wired-only leg: one `path.sample_one_way(rng)` per draw.
  [[nodiscard]] static NetLeg wired(topo::CompiledPath path) {
    NetLeg leg;
    leg.kind_ = Kind::kWired;
    leg.path_ = std::move(path);
    return leg;
  }

  /// Request leg: radio uplink into the access network, then the wired
  /// path to the serving site. `radio` is borrowed — the caller keeps it
  /// alive (same contract the capturing lambdas had).
  [[nodiscard]] static NetLeg radio_then_path(
      const radio::RadioLinkModel& radio, radio::CellConditions conditions,
      topo::CompiledPath path) {
    NetLeg leg;
    leg.kind_ = Kind::kRadioThenPath;
    leg.radio_ = &radio;
    leg.conditions_ = conditions;
    leg.path_ = std::move(path);
    return leg;
  }

  /// Response leg: wired path back, then the radio downlink to the UE.
  [[nodiscard]] static NetLeg path_then_radio(
      const radio::RadioLinkModel& radio, radio::CellConditions conditions,
      topo::CompiledPath path) {
    NetLeg leg = radio_then_path(radio, conditions, std::move(path));
    leg.kind_ = Kind::kPathThenRadio;
    return leg;
  }

  [[nodiscard]] explicit operator bool() const {
    return kind_ != Kind::kNull;
  }

  /// One draw, identical order and arithmetic to the closure it replaced.
  [[nodiscard]] Duration operator()(Rng& rng) const;

  /// Kept for sixg_e2ebench's net-leg probe: one operator() call per slot.
  void sample_into(std::span<Duration> out, Rng& rng,
                   topo::PathBatchScratch& /*unused*/) const {
    for (Duration& d : out) d = (*this)(rng);
  }

 private:
  enum class Kind : std::uint8_t {
    kNull,           ///< hop does not exist (on-device serving)
    kFn,             ///< opaque callable
    kWired,          ///< compiled path one-way
    kRadioThenPath,  ///< radio uplink + path one-way (request leg)
    kPathThenRadio,  ///< path one-way + radio downlink (response leg)
  };

  Kind kind_ = Kind::kNull;
  const radio::RadioLinkModel* radio_ = nullptr;
  radio::CellConditions conditions_{};
  topo::CompiledPath path_;
  Fn fn_;
};

}  // namespace sixg::edgeai
