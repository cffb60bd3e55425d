#include "apps/protocols.hpp"

#include "stats/distributions.hpp"

namespace sixg::apps {

namespace {
struct Overhead {
  double median_ms;
  double sigma;
};

constexpr Overhead params_of(IotProtocol p) {
  switch (p) {
    case IotProtocol::kMqtt:
      return {5.6, 0.30};
    case IotProtocol::kAmqp:
      return {7.4, 0.35};
    case IotProtocol::kCoap:
      return {4.8, 0.25};
    case IotProtocol::kRawUdp:
      return {0.15, 0.20};
  }
  return {5.0, 0.3};
}
}  // namespace

const char* to_string(IotProtocol p) {
  switch (p) {
    case IotProtocol::kMqtt:
      return "MQTT";
    case IotProtocol::kAmqp:
      return "AMQP";
    case IotProtocol::kCoap:
      return "CoAP";
    case IotProtocol::kRawUdp:
      return "raw UDP";
  }
  return "?";
}

Duration ProtocolOverheadModel::sample_overhead(IotProtocol protocol,
                                                Rng& rng) {
  const Overhead o = params_of(protocol);
  return Duration::from_millis_f(
      stats::Lognormal::from_median(o.median_ms, o.sigma).sample(rng));
}

Duration ProtocolOverheadModel::expected_overhead(IotProtocol protocol) {
  const Overhead o = params_of(protocol);
  return Duration::from_millis_f(
      stats::Lognormal::from_median(o.median_ms, o.sigma).mean());
}

}  // namespace sixg::apps
