#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "common/time.hpp"

namespace sixg::apps {

/// Application-layer IoT messaging protocols. Per the survey the paper
/// cites ([14]), these stacks add roughly 5-8 ms on top of the network
/// RTT (broker dispatch, ack bookkeeping, serialisation).
enum class IotProtocol : std::uint8_t {
  kMqtt,  ///< broker-based pub/sub over TCP
  kAmqp,  ///< heavier broker with per-message settlement
  kCoap,  ///< UDP request/response, lightest of the three
  kRawUdp,  ///< no application protocol (reference)
};

[[nodiscard]] const char* to_string(IotProtocol p);

/// Per-message application-layer overhead model.
class ProtocolOverheadModel {
 public:
  /// One-way overhead of handing a message through the protocol stack
  /// (and broker, where there is one).
  [[nodiscard]] static Duration sample_overhead(IotProtocol protocol,
                                                Rng& rng);

  /// Expected overhead (deterministic mean).
  [[nodiscard]] static Duration expected_overhead(IotProtocol protocol);
};

}  // namespace sixg::apps
