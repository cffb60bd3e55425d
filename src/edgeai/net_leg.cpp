#include "edgeai/net_leg.hpp"

#include "common/assert.hpp"

namespace sixg::edgeai {

Duration NetLeg::operator()(Rng& rng) const {
  switch (kind_) {
    case Kind::kNull:
      break;
    case Kind::kFn:
      return fn_(rng);
    case Kind::kWired:
      return path_.sample_one_way(rng);
    // The closures these kinds replaced evaluated `radio + path` (and
    // `path + radio`) with unsequenced operands, and the byte-replay
    // record inherited the order GCC chose: RIGHT operand first. The
    // explicit sequencing below pins that order — the kind names state
    // traversal composition, the draw order is the opposite.
    case Kind::kRadioThenPath: {
      const Duration path = path_.sample_one_way(rng);
      return radio_->sample_uplink(conditions_, rng) + path;
    }
    case Kind::kPathThenRadio: {
      const Duration radio = radio_->sample_downlink(conditions_, rng);
      return path_.sample_one_way(rng) + radio;
    }
  }
  SIXG_ASSERT(false, "sampling a null NetLeg");
  return Duration{};
}

}  // namespace sixg::edgeai
