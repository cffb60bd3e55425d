#include "measurement/ping.hpp"

namespace sixg::meas {

PingMeasurement::PingMeasurement(const topo::Network& net, topo::NodeId src,
                                 topo::NodeId dst)
    : path_(net.find_path(src, dst)), compiled_(net.compile(path_)) {}

PingMeasurement::PingMeasurement(const topo::Network& net, topo::NodeId src,
                                 topo::NodeId dst,
                                 const radio::RadioLinkModel& radio,
                                 radio::CellConditions conditions)
    : path_(net.find_path(src, dst)),
      compiled_(net.compile(path_)),
      radio_(&radio),
      conditions_(conditions) {}

double PingMeasurement::sample_ms(Rng& rng) const {
  Duration rtt = compiled_.sample_rtt(rng);
  if (radio_ != nullptr) rtt += radio_->sample_rtt(conditions_, rng);
  return rtt.ms();
}

PingMeasurement::Result PingMeasurement::run(std::uint32_t count,
                                             Rng& rng) const {
  Result result;
  for (std::uint32_t i = 0; i < count; ++i)
    result.summary_ms.add(sample_ms(rng));
  return result;
}

}  // namespace sixg::meas
