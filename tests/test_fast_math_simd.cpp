/// @file test_fast_math_simd.cpp — the batch sampling lane's
/// bit-equality contract (stats/fast_math.hpp, and its consumers up
/// through topo::CompiledPath and edgeai::NetLeg). Every assertion here
/// is exact: EXPECT_EQ on bit patterns and integer nanoseconds, never a
/// tolerance — the lane's whole claim is that drawing a block at a time
/// can never change a single byte of any replay.

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
using topo::PathBatchScratch;

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

// ------------------------------------------- CompiledPath batched sampling

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

// The lane's contract: for every hop count 0..12 and 32 seeds, the
// batched RTT sampler consumes the RNG exactly like the scalar sampler
// and produces bit-identical milliseconds. 200 draws per (hops, seed)
// pair fire the 2 % spike branch thousands of times across the sweep,
// so both the common path and the rare branch are pinned.
TEST(CompiledPathBatch, RttBitEqualAcrossSeedsAndHopCounts) {
  for (int hops = 0; hops <= 12; ++hops) {
    const Network net = chain_net(hops);
    const CompiledPath compiled = compile_chain(net, hops);
    ASSERT_TRUE(compiled.valid());
    PathBatchScratch scratch;
    for (std::uint64_t seed = 1; seed <= 32; ++seed) {
      Rng batch_rng{seed * 977};
      Rng scalar_rng{seed * 977};
      double out[200];
      compiled.sample_rtt_into(out, batch_rng, scratch);
      for (int draw = 0; draw < 200; ++draw)
        ASSERT_EQ(bits(out[draw]), bits(compiled.sample_rtt(scalar_rng).ms()))
            << "hops=" << hops << " seed=" << seed << " draw=" << draw;
      ASSERT_EQ(batch_rng(), scalar_rng());
    }
  }
}

TEST(CompiledPathBatch, ThreadLocalScratchOverloadMatches) {
  const Network net = chain_net(6);
  const CompiledPath compiled = compile_chain(net, 6);
  Rng a{55};
  Rng b{55};
  double with_tl[300];
  double with_own[300];
  PathBatchScratch scratch;
  compiled.sample_rtt_into(with_tl, a);  // thread_local scratch
  compiled.sample_rtt_into(with_own, b, scratch);
  for (int i = 0; i < 300; ++i) ASSERT_EQ(bits(with_tl[i]), bits(with_own[i]));
  EXPECT_EQ(a(), b());
}

TEST(CompiledPathBatch, QueueingBitEqualToScalarOneWay) {
  const Network net = chain_net(9);
  const CompiledPath compiled = compile_chain(net, 9);
  Rng batch_rng{31337};
  Rng scalar_rng{31337};
  std::int64_t queue_ns[400];
  PathBatchScratch scratch;
  compiled.sample_queueing_into(queue_ns, batch_rng, scratch);
  const std::int64_t base = compiled.base_one_way().ns();
  for (int i = 0; i < 400; ++i)
    ASSERT_EQ(base + queue_ns[i], compiled.sample_one_way(scalar_rng).ns())
        << "i=" << i;
  ASSERT_EQ(batch_rng(), scalar_rng());
}

// Shadow replay of the documented draw contract against the *batched*
// sampler: phase 1 must pull, per hop, a queueing word, a spike-chance
// word, and (spike only) a magnitude word — landing on exactly the same
// stream position as a hand-rolled replay, with the branch actually
// firing during the sweep.
TEST(CompiledPathBatch, SpikeBranchFiresAndConsumesDrawsInBatchLane) {
  const int hops = 12;
  const Network net = chain_net(hops);
  const CompiledPath compiled = compile_chain(net, hops);
  Rng shadow{977};
  Rng actual{977};
  std::uint64_t spikes = 0;
  for (int draw = 0; draw < 200; ++draw)
    for (int dir = 0; dir < 2; ++dir)
      for (int h = 0; h < hops; ++h) {
        (void)shadow.uniform();  // queueing draw
        if (shadow.chance(0.02)) {
          ++spikes;
          (void)shadow.uniform();  // spike magnitude draw
        }
      }
  double out[200];
  PathBatchScratch scratch;
  compiled.sample_rtt_into(out, actual, scratch);
  EXPECT_GT(spikes, 0u);
  EXPECT_EQ(shadow(), actual());
}

// ------------------------------------------------------- edgeai::NetLeg

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

// Every structured NetLeg kind: the batched sample_into must be
// bit-identical to a loop of scalar operator() calls and leave the RNG
// on the same word — including the radio kinds, whose phase 1
// interleaves the (scalar, data-dependent) radio draws with the path's
// staged draws in the pinned per-request order.
TEST(NetLegBatch, SampleIntoBitEqualToScalarCalls) {
  const Network net = chain_net(7);
  const CompiledPath compiled = compile_chain(net, 7);
  const radio::RadioLinkModel radio_model = test_radio();
  const radio::CellConditions conditions = test_conditions();

  const edgeai::NetLeg legs[] = {
      edgeai::NetLeg::wired(compiled),
      edgeai::NetLeg::radio_then_path(radio_model, conditions, compiled),
      edgeai::NetLeg::path_then_radio(radio_model, conditions, compiled),
  };
  for (const edgeai::NetLeg& leg : legs) {
    ASSERT_TRUE(leg.batchable());
    for (std::uint64_t seed : {5ull, 123ull, 98765ull}) {
      Rng batch_rng{seed};
      Rng scalar_rng{seed};
      Duration out[257];
      PathBatchScratch scratch;
      leg.sample_into(out, batch_rng, scratch);
      for (int i = 0; i < 257; ++i)
        ASSERT_EQ(out[i].ns(), leg(scalar_rng).ns())
            << "seed=" << seed << " i=" << i;
      ASSERT_EQ(batch_rng(), scalar_rng());
    }
  }
}

TEST(NetLegBatch, OpaqueClosureFallsBackToScalar) {
  const edgeai::NetLeg leg{
      [](Rng& rng) { return Duration::micros(std::int64_t(rng() % 1000)); }};
  ASSERT_TRUE(leg);
  EXPECT_FALSE(leg.batchable());
  Rng batch_rng{9};
  Rng scalar_rng{9};
  Duration out[10];
  PathBatchScratch scratch;
  leg.sample_into(out, batch_rng, scratch);
  for (int i = 0; i < 10; ++i) ASSERT_EQ(out[i].ns(), leg(scalar_rng).ns());
  EXPECT_EQ(batch_rng(), scalar_rng());
}

TEST(NetLegBatch, SameDrawsAsGatesBlockSharing) {
  const Network net = chain_net(4);
  const CompiledPath compiled = compile_chain(net, 4);
  const Network other_net = chain_net(5);  // different hop parameters
  const CompiledPath other = compile_chain(other_net, 5);
  const radio::RadioLinkModel radio_model = test_radio();
  const radio::CellConditions conditions = test_conditions();

  const edgeai::NetLeg wired_a = edgeai::NetLeg::wired(compiled);
  const edgeai::NetLeg wired_b = edgeai::NetLeg::wired(compiled);
  const edgeai::NetLeg wired_c = edgeai::NetLeg::wired(other);
  EXPECT_TRUE(wired_a.same_draws_as(wired_b));
  EXPECT_FALSE(wired_a.same_draws_as(wired_c));

  const edgeai::NetLeg up =
      edgeai::NetLeg::radio_then_path(radio_model, conditions, compiled);
  const edgeai::NetLeg up_same =
      edgeai::NetLeg::radio_then_path(radio_model, conditions, compiled);
  radio::CellConditions hotter = conditions;
  hotter.load = 0.9;
  const edgeai::NetLeg up_hot =
      edgeai::NetLeg::radio_then_path(radio_model, hotter, compiled);
  EXPECT_TRUE(up.same_draws_as(up_same));
  EXPECT_FALSE(up.same_draws_as(up_hot));
  EXPECT_FALSE(up.same_draws_as(wired_a));  // different kinds

  // Opaque closures can never prove equivalence — even to themselves.
  const edgeai::NetLeg fn{[](Rng& rng) {
    return Duration::micros(std::int64_t(rng() % 100));
  }};
  EXPECT_FALSE(fn.same_draws_as(fn));
}

}  // namespace
}  // namespace sixg
