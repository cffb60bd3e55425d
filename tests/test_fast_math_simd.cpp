/// @file test_fast_math_simd.cpp — the sampling kernels' bit-equality
/// contract: the one log kernel's golden bit patterns, the FP-contract
/// probe, the block draws the serving engines pre-draw arrivals with
/// (Rng::fill, ShiftedExponential::sample_into), and
/// edgeai::NetLeg::sample_into. Every assertion here is exact:
/// EXPECT_EQ on bit patterns and integer nanoseconds, never a tolerance
/// — drawing a block at a time can never change a byte of any replay.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "edgeai/net_leg.hpp"
#include "radio/link_model.hpp"
#include "radio/profile.hpp"
#include "stats/distributions.hpp"
#include "stats/fast_math.hpp"
#include "topo/network.hpp"

namespace sixg {
namespace {

using topo::CompiledPath;
using topo::LinkRelation;
using topo::Network;
using topo::NodeId;
using topo::NodeKind;

std::uint64_t bits(double x) {
  std::uint64_t b;
  std::memcpy(&b, &x, 8);
  return b;
}

double from_bits(std::uint64_t b) {
  double x;
  std::memcpy(&x, &b, 8);
  return x;
}

// ------------------------------------------------------------- fast_log

// Pinned input/output bit patterns of the log kernel (the committed
// table makes these identical across libc versions and platforms). Any
// drift here — a retuned polynomial, a reassociated sum, an FMA that
// slipped in — breaks every recorded replay, so the exact bits are frozen.
struct GoldenLog {
  std::uint64_t x;
  std::uint64_t y;
};
constexpr GoldenLog kGoldenLogs[] = {
    {0x3ca0000000000000ULL, 0xc0425e4f7b2737faULL},  // x = 2^-53 (min input)
    {0x3fd0000000000000ULL, 0xbff62e42fefa39efULL},  // x = 0.25
    {0x3fe6000000000000ULL, 0xbfd7fafa3bd8151cULL},  // x = 0.6875 (cell edge)
    {0x3fefffffffffffffULL, 0xbcaff00000000000ULL},  // x = 1 - 2^-53
    {0x3ff0000000000000ULL, 0x3c65000000000000ULL},  // x = 1.0
    {0x3fe0000000000000ULL, 0xbfe62e42fefa39efULL},  // x = 0.5
    {0x3fe75c28f5c28f5cULL, 0xbfd42438893252f6ULL},  // x = 0.73
    {0x3fefffffe0000000ULL, 0xbe70000007bfc000ULL},  // x = 1 - 2^-24
};

TEST(FastLog, GoldenBitPatterns) {
  for (const GoldenLog& g : kGoldenLogs) {
    const double x = from_bits(g.x);
    EXPECT_EQ(bits(stats::fast_log_positive_normal(x)), g.y)
        << "kernel drifted at x=" << x;
  }
}

// ------------------------------------------------------- FP contract gate

// The golden digests die if the compiler contracts a*b + c into an FMA
// anywhere on the sampling path; the project pins -ffp-contract=off.
// These operands distinguish the two
// roundings: a*b = (1 + 2^-27)(1 - 2^-27) = 1 - 2^-54, which rounds to
// 1.0 under separate rounding (round-to-even at the halfway point), so
// a*b + c == 0.0 exactly — while fma(a, b, c) keeps the exact product
// and returns -2^-54. A nonzero probe means the flag set regressed.
TEST(FpContract, ProbeRoundsMultiplyAndAddSeparately) {
  const double a = 1.0 + 0x1p-27;
  const double b = 1.0 - 0x1p-27;
  const double c = -1.0;
  EXPECT_EQ(stats::fp_contract_probe(a, b, c), 0.0);
  EXPECT_NE(std::fma(a, b, c), 0.0);  // sanity: the operands do distinguish
}

// ---------------------------------------------------------------- Rng::fill

TEST(RngFill, MatchesOperatorWordForWord) {
  for (std::uint64_t seed : {1ull, 42ull, 0xdeadbeefull, 977ull}) {
    for (std::size_t n : {0ull, 1ull, 2ull, 63ull, 256ull, 1000ull}) {
      Rng a{seed};
      Rng b{seed};
      std::vector<std::uint64_t> block(n);
      a.fill(block);
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(block[i], b()) << "seed=" << seed << " i=" << i;
      // Same state out: scalar and block callers interleave freely.
      EXPECT_EQ(a(), b());
    }
  }
}

TEST(RngFill, InterleavesWithScalarDraws) {
  Rng a{7};
  Rng b{7};
  std::uint64_t block[5];
  (void)a();
  a.fill(block);
  const std::uint64_t tail_a = a();
  (void)b();
  for (std::uint64_t& w : block) {
    const std::uint64_t expect = b();
    ASSERT_EQ(w, expect);
  }
  EXPECT_EQ(tail_a, b());
}

// --------------------------------------- ShiftedExponential::sample_into

TEST(ShiftedExponentialBatch, BitEqualToScalar) {
  const stats::ShiftedExponential dist{1.5, 0.25};
  // Lengths straddling the internal 256-word chunk.
  const std::size_t lengths[] = {1, 7, 255, 256, 257, 600};
  for (std::uint64_t seed : {3ull, 11ull, 2026ull}) {
    for (std::size_t n : lengths) {
      Rng batch_rng{seed};
      Rng scalar_rng{seed};
      std::vector<double> out(n);
      dist.sample_into(out, batch_rng);
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(bits(out[i]), bits(dist.sample(scalar_rng)))
            << "seed=" << seed << " n=" << n << " i=" << i;
      // Exactly n words consumed either way.
      EXPECT_EQ(batch_rng(), scalar_rng());
    }
  }
}

// ------------------------------------------------------- edgeai::NetLeg

/// Chain of `hops` intra-AS links with varied utilisation, including a
/// zero-load and a near-saturated link (mirrors tests/test_topo.cpp).
Network chain_net(int hops) {
  Network net;
  const topo::AsId as = net.add_as(1, "chain");
  std::vector<NodeId> nodes;
  const geo::LatLon base{46.6, 14.3};
  for (int i = 0; i <= hops; ++i) {
    nodes.push_back(net.add_node("c" + std::to_string(i),
                                 "ip" + std::to_string(i), NodeKind::kRouter,
                                 as,
                                 {base.lat_deg + 0.02 * double(i),
                                  base.lon_deg}));
  }
  for (int i = 0; i < hops; ++i) {
    Network::LinkOptions options;
    options.utilization =
        (i == 0) ? 0.0 : (i == 1 ? 0.997 : 0.1 + 0.07 * double(i % 11));
    net.add_link(nodes[std::size_t(i)], nodes[std::size_t(i) + 1],
                 LinkRelation::kIntraAs, options);
  }
  return net;
}

CompiledPath compile_chain(const Network& net, int hops) {
  const topo::Path path = net.find_path(NodeId{0}, NodeId{std::uint32_t(hops)});
  return net.compile(path);
}

radio::RadioLinkModel test_radio() {
  return radio::RadioLinkModel{radio::AccessProfile::sixg()};
}

radio::CellConditions test_conditions() {
  radio::CellConditions c;
  c.load = 0.55;
  c.quality = 0.7;
  c.bler = 0.12;
  c.spike_rate = 0.03;
  return c;
}

// Every NetLeg kind: sample_into equals as many operator() calls and
// leaves the RNG on the same word. sixg_e2ebench's net-leg probe times
// the engine's legs through it, so its draws must be the engine's.
TEST(NetLeg, SampleIntoEqualsOperatorCallsForEveryKind) {
  const Network net = chain_net(7);
  const CompiledPath compiled = compile_chain(net, 7);
  const radio::RadioLinkModel radio_model = test_radio();
  const radio::CellConditions conditions = test_conditions();

  const edgeai::NetLeg legs[] = {
      edgeai::NetLeg::wired(compiled),
      edgeai::NetLeg::radio_then_path(radio_model, conditions, compiled),
      edgeai::NetLeg::path_then_radio(radio_model, conditions, compiled),
      edgeai::NetLeg{[](Rng& rng) {
        return Duration::micros(std::int64_t(rng() % 1000));
      }},
  };
  for (const edgeai::NetLeg& leg : legs) {
    ASSERT_TRUE(leg);
    for (std::uint64_t seed : {5ull, 123ull, 98765ull}) {
      Rng block_rng{seed};
      Rng scalar_rng{seed};
      Duration out[257];
      topo::PathBatchScratch scratch;
      leg.sample_into(out, block_rng, scratch);
      for (int i = 0; i < 257; ++i)
        ASSERT_EQ(out[i].ns(), leg(scalar_rng).ns())
            << "seed=" << seed << " i=" << i;
      ASSERT_EQ(block_rng(), scalar_rng());
    }
  }
}

}  // namespace
}  // namespace sixg
