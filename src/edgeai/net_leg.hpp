/// @file net_leg.hpp — one-way network-leg sampler for the serving
/// engines, as a small closed variant instead of an opaque closure.
///
/// A `std::function<Duration(Rng&)>` leg hides its structure, which
/// forces the engines to draw it one request at a time. A NetLeg keeps
/// the structure visible — "radio access then wired path", "wired path
/// then radio", "wired only" — so the engines can pre-draw whole blocks
/// through the batched path lane (topo::CompiledPath's two-phase
/// sampler) while producing bit-identical Durations in the identical
/// RNG draw order. Arbitrary callables still convert implicitly (the
/// kFn kind), they just stay on the scalar path.
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

  /// Opaque-callable leg (tests, synthetic hops): scalar-only sampling.
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

  /// True when `sample_into` has a batched implementation.
  [[nodiscard]] bool batchable() const {
    return kind_ != Kind::kNull && kind_ != Kind::kFn;
  }

  /// True when this leg and `other` consume RNG draws identically and
  /// map every word sequence to the same Durations — the gate for
  /// serving several servers' legs from one pre-drawn block.
  [[nodiscard]] bool same_draws_as(const NetLeg& other) const;

  /// Block draw: `out[i]` is bit-identical to the i-th `(*this)(rng)`
  /// call, consuming the RNG identically. The radio share (data-dependent
  /// draw count: HARQ/spike branches) is drawn scalar per request in
  /// phase 1; the wired path's logs evaluate as one block in phase 2.
  void sample_into(std::span<Duration> out, Rng& rng,
                   topo::PathBatchScratch& scratch) const;

 private:
  enum class Kind : std::uint8_t {
    kNull,           ///< hop does not exist (on-device serving)
    kFn,             ///< opaque callable, scalar-only
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
