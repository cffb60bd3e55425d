#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "core/campaign.hpp"
#include "core/registry.hpp"
#include "netsim/sharded.hpp"

namespace sixg::core {
namespace {

RunContext make_ctx(std::uint64_t seed, unsigned threads) {
  RunContext ctx;
  ctx.seed = seed;
  ctx.threads = threads;
  return ctx;
}

// ---------------------------------------------------------------- sweep

TEST(Campaign, SweepSeedsMatchTheClassicHandRolledDerivation) {
  // The migration contract: Campaign{ctx, salt}.sweep must hand job i
  // the seed ctx.seed_for(derive_seed(salt, i)) — what every scenario
  // sweep computed by hand before the engine existed.
  const RunContext ctx = make_ctx(42, 1);
  const Campaign campaign{ctx, 0xba7c};
  const auto seeds = campaign.sweep<std::uint64_t>(
      8, [](std::size_t, std::uint64_t seed) { return seed; });
  ASSERT_EQ(seeds.size(), 8u);
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(seeds[i], ctx.seed_for(derive_seed(0xba7c, i))) << i;
  }
}

TEST(Campaign, SweepResultsLandAtTheirOwnIndex) {
  const RunContext ctx = make_ctx(1, 4);
  const Campaign campaign{ctx, 7};
  const auto values = campaign.sweep<int>(
      100, [](std::size_t i, std::uint64_t) { return int(i * i); });
  for (int i = 0; i < 100; ++i) EXPECT_EQ(values[std::size_t(i)], i * i);
}

TEST(Campaign, SweepIsThreadCountInvariant) {
  const auto run_with = [](unsigned threads) {
    const RunContext ctx = make_ctx(99, threads);
    const Campaign campaign{ctx, 0xfeed};
    return campaign.sweep<double>(64, [](std::size_t, std::uint64_t seed) {
      Rng rng{seed};
      double acc = 0.0;
      for (int k = 0; k < 100; ++k) acc += rng.uniform();
      return acc;
    });
  };
  EXPECT_EQ(run_with(1), run_with(4));
}

TEST(Campaign, ShardStreamsNeverCollideWithReplicationStreams) {
  // The sharded kernel derives shard-local seeds through a dedicated
  // salt stream (netsim::shard_seed); campaign sweeps derive job seeds
  // as ctx.seed_for(derive_seed(salt, index)). A collision would
  // correlate a shard's timeline with a replication — check the two
  // families are disjoint (and internally duplicate-free) across 64
  // base seeds, 16 shards and 16 jobs of the fleet campaign salts,
  // including the per-shard model streams the fleet engine derives.
  std::set<std::uint64_t> seen;
  std::size_t inserted = 0;
  const auto put = [&](std::uint64_t s) {
    seen.insert(s);
    ++inserted;
  };
  for (std::uint64_t base = 1; base <= 64; ++base) {
    const RunContext ctx = make_ctx(base, 1);
    for (const std::uint64_t salt : {0xc17e, 0xf1d5}) {  // fleet campaigns
      const Campaign campaign{ctx, salt};
      for (std::uint64_t j = 0; j < 16; ++j) put(campaign.seed_for_job(j));
    }
    for (std::uint32_t shard = 1; shard < 16; ++shard) {
      const std::uint64_t shard_base = netsim::shard_seed(base, shard);
      put(shard_base);
      for (const std::uint64_t salt : {0xf1ee, 0xf0b1, 0xfd01, 0xf95e}) {
        put(derive_seed(shard_base, salt));  // the engine's model streams
      }
    }
  }
  EXPECT_EQ(seen.size(), inserted);
}

}  // namespace
}  // namespace sixg::core
