#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "stats/summary.hpp"

namespace sixg::apps {

/// The paper's use case (Section IV-A): a distributed AR dodgeball game.
/// Two players in different locations wear AR headsets; three cooperating
/// services keep their views consistent:
///
///   * VideoStreamingService — the bidirectional view-enhancing stream,
///     paced at the frame rate (60 FPS -> 16.6 ms frame interval);
///   * RemoteControllerService — aim/trigger events from the controller;
///   * TrajectoryService — applies a throw event to the stream and
///     renders the ball's flight.
///
/// A frame is *consistent* when the opponent's state that it displays is
/// no older than the motion-to-photon budget (20 ms RTT per [15]);
/// otherwise the player can be "hit" by a ball their view had not shown
/// yet — the mis-registration event the paper calls out.
class ArGameSession {
 public:
  /// Samples one network round trip between the two players' service
  /// attachment points (injected so the same game runs over measured 5G,
  /// simulated 6G, wired, ...).
  using RttSampler = std::function<Duration(Rng&)>;

  static constexpr double kFrameRateHz = 60.0;
  static constexpr double kThrowsPerSecond = 0.8;  ///< controller events

  struct Config {
    std::uint32_t frames = 36000;  ///< 10 minutes at 60 FPS
    std::uint64_t seed = 0xa59a;

    /// Optional inference-backed frame loop (edge AI): each frame's scene
    /// understanding (detection/pose for the overlay) must return within
    /// the same budget, so its per-request serving latency adds to the
    /// frame's network loop. Null (the default) reproduces the original
    /// pure-transport game: no extra RNG draws, identical results.
    RttSampler inference;
  };

  ArGameSession(RttSampler rtt, Config config);

  struct Report {
    stats::Summary frame_age_ms;   ///< displayed-state age per frame
    stats::Summary event_m2p_ms;   ///< throw event motion-to-photon
    double consistent_frame_share = 0.0;  ///< frames within budget
    double mis_registration_share = 0.0;  ///< throws displayed too late
    std::uint32_t frames = 0;
    std::uint32_t throws = 0;

    /// The paper's verdict: playable when nearly every frame is
    /// consistent (we use 99 %).
    [[nodiscard]] bool playable() const {
      return consistent_frame_share >= 0.99;
    }
  };

  /// Simulate the session frame by frame.
  [[nodiscard]] Report run() const;

 private:
  RttSampler rtt_;
  Config config_;
};

}  // namespace sixg::apps
