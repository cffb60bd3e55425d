#include "measurement/ping.hpp"

#include <algorithm>

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
  if (radio_ == nullptr) {
    // Wired endpoint: batch the draws through the compiled path's
    // vectorized lane. The RNG consumption and the per-sample add order
    // are identical to the scalar loop, so results are byte-equal at any
    // chunk size. One scratch for the whole run: sized on the first
    // chunk, reused for every refill.
    double chunk[256];
    topo::PathBatchScratch scratch;
    std::uint32_t done = 0;
    while (done < count) {
      const std::uint32_t n =
          std::min<std::uint32_t>(256, count - done);
      compiled_.sample_rtt_into({chunk, n}, rng, scratch);
      for (std::uint32_t i = 0; i < n; ++i) result.summary_ms.add(chunk[i]);
      done += n;
    }
    return result;
  }
  for (std::uint32_t i = 0; i < count; ++i)
    result.summary_ms.add(sample_ms(rng));
  return result;
}

}  // namespace sixg::meas
