#include <gtest/gtest.h>

#include <set>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/time.hpp"
#include "common/units.hpp"

namespace sixg {
namespace {

using namespace sixg::literals;

// ---------------------------------------------------------------- Duration

TEST(Duration, FactoryUnitsAgree) {
  EXPECT_EQ(Duration::millis(1).ns(), 1'000'000);
  EXPECT_EQ(Duration::micros(1).ns(), 1'000);
  EXPECT_EQ(Duration::seconds(1).ns(), 1'000'000'000);
  EXPECT_DOUBLE_EQ(Duration::millis(5).ms(), 5.0);
  EXPECT_DOUBLE_EQ(Duration::seconds(2).sec(), 2.0);
}

TEST(Duration, FractionalFactories) {
  EXPECT_EQ(Duration::from_millis_f(1.5).ns(), 1'500'000);
  EXPECT_EQ(Duration::from_micros_f(0.5).ns(), 500);
  EXPECT_EQ(Duration::from_seconds_f(1e-9).ns(), 1);
}

TEST(Duration, Literals) {
  EXPECT_EQ((5_ms).ns(), 5'000'000);
  EXPECT_EQ((10_us).ns(), 10'000);
  EXPECT_EQ((1_s).ns(), 1'000'000'000);
  EXPECT_EQ((1.5_ms).ns(), 1'500'000);
}

TEST(Duration, Arithmetic) {
  EXPECT_EQ((3_ms + 2_ms).ns(), (5_ms).ns());
  EXPECT_EQ((3_ms - 5_ms).ns(), -2'000'000);
  EXPECT_EQ((2_ms * 3).ns(), (6_ms).ns());
  EXPECT_EQ((2_ms * std::int64_t{4}).ns(), (8_ms).ns());
  EXPECT_EQ((4_ms * 0.5).ns(), (2_ms).ns());
  EXPECT_DOUBLE_EQ(6_ms / 2_ms, 3.0);
  EXPECT_EQ((6_ms / 2).ns(), (3_ms).ns());
}

TEST(Duration, CompoundAssignment) {
  Duration d = 1_ms;
  d += 2_ms;
  EXPECT_EQ(d, 3_ms);
  d -= 1_ms;
  EXPECT_EQ(d, 2_ms);
}

TEST(Duration, Ordering) {
  EXPECT_LT(1_us, 1_ms);
  EXPECT_GT(1_s, 999_ms);
  EXPECT_EQ(1000_us, 1_ms);
  EXPECT_TRUE((0_ms).is_zero());
  EXPECT_TRUE((0_ms - 1_ms).is_negative());
}

TEST(Duration, HumanReadableString) {
  EXPECT_EQ((12_ns).str(), "12 ns");
  EXPECT_NE((12.5_us).str().find("us"), std::string::npos);
  EXPECT_NE((3_ms).str().find("ms"), std::string::npos);
  EXPECT_NE((2_s).str().find("s"), std::string::npos);
}

TEST(TimePoint, ArithmeticWithDuration) {
  const TimePoint t0;
  const TimePoint t1 = t0 + 5_ms;
  EXPECT_EQ((t1 - t0).ns(), (5_ms).ns());
  EXPECT_EQ((t1 - 2_ms).ns(), (3_ms).ns());
  EXPECT_LT(t0, t1);
}

// ---------------------------------------------------------------- StrongId

struct FooTag {};
struct BarTag {};
using FooId = StrongId<FooTag>;
using BarId = StrongId<BarTag>;

TEST(StrongId, DefaultIsInvalid) {
  FooId id;
  EXPECT_FALSE(id.valid());
  EXPECT_TRUE(FooId{3}.valid());
}

TEST(StrongId, Comparisons) {
  EXPECT_EQ(FooId{1}, FooId{1});
  EXPECT_NE(FooId{1}, FooId{2});
  EXPECT_LT(FooId{1}, FooId{2});
}

TEST(StrongId, DistinctTagsAreDistinctTypes) {
  static_assert(!std::is_same_v<FooId, BarId>);
  static_assert(!std::is_convertible_v<FooId, BarId>);
}

TEST(StrongId, Hashable) {
  std::set<FooId> ids{FooId{1}, FooId{2}};
  EXPECT_EQ(ids.size(), 2u);
  EXPECT_EQ(std::hash<FooId>{}(FooId{7}), std::hash<FooId>{}(FooId{7}));
}

// ---------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSeed) {
  Rng a{123};
  Rng b{123};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a{1};
  Rng b{2};
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng{7};
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespected) {
  Rng rng{8};
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(5.0, 6.0);
    EXPECT_GE(u, 5.0);
    EXPECT_LT(u, 6.0);
  }
}

TEST(Rng, UniformIntBounds) {
  Rng rng{9};
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t v = rng.uniform_int(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues reached
}

TEST(Rng, UniformIntIsRoughlyUniform) {
  Rng rng{10};
  std::array<int, 4> counts{};
  constexpr int kDraws = 40000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.uniform_int(4)];
  for (int c : counts) {
    EXPECT_NEAR(double(c) / kDraws, 0.25, 0.02);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng{11};
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, SplitStreamsAreIndependentAndDeterministic) {
  const Rng base{42};
  Rng child_a = base.split(0);
  Rng child_b = base.split(1);
  Rng child_a2 = base.split(0);
  int equal_ab = 0;
  for (int i = 0; i < 64; ++i) {
    const auto va = child_a();
    const auto vb = child_b();
    EXPECT_EQ(va, child_a2());
    if (va == vb) ++equal_ab;
  }
  EXPECT_LT(equal_ab, 2);
}

TEST(Rng, DeriveSeedIsPure) {
  EXPECT_EQ(derive_seed(1, 2), derive_seed(1, 2));
  EXPECT_NE(derive_seed(1, 2), derive_seed(1, 3));
  EXPECT_NE(derive_seed(1, 2), derive_seed(2, 2));
}

// ---------------------------------------------------------------- units

TEST(DataSize, Conversions) {
  EXPECT_EQ(DataSize::bytes(1).bit_count(), 8);
  EXPECT_EQ(DataSize::kilobytes(1).bit_count(), 8000);
  EXPECT_DOUBLE_EQ(DataSize::megabytes(2).byte_count(), 2e6);
  EXPECT_DOUBLE_EQ(DataSize::terabytes(4).byte_count(), 4e12);
}

TEST(DataSize, Arithmetic) {
  EXPECT_EQ(DataSize::bytes(1) + DataSize::bytes(2), DataSize::bytes(3));
  EXPECT_EQ(DataSize::bytes(8) * 2, DataSize::bytes(16));
  DataSize s = DataSize::bytes(1);
  s += DataSize::bytes(1);
  EXPECT_EQ(s, DataSize::bytes(2));
}

TEST(DataRate, TransmissionTime) {
  // 1 MB at 8 Mbps = 1 second.
  const Duration t =
      DataRate::mbps(8).transmission_time(DataSize::megabytes(1));
  EXPECT_NEAR(t.sec(), 1.0, 1e-9);
  EXPECT_TRUE(DataRate::bps(0).transmission_time(DataSize::bytes(1)).is_zero());
}

TEST(DataRate, HumanReadableStrings) {
  EXPECT_NE(DataRate::mbps(100).str().find("Mbps"), std::string::npos);
  EXPECT_NE(DataRate::tbps(1).str().find("Tbps"), std::string::npos);
  EXPECT_NE(DataSize::terabytes(4).str().find("TB"), std::string::npos);
}

// ---------------------------------------------------------------- TextTable

TEST(TextTable, RendersAlignedColumns) {
  TextTable t{{"name", "value"}};
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string s = t.str();
  EXPECT_NE(s.find("| name  |"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TextTable, BufferAppendMatchesStr) {
  TextTable t{{"name", "value", "note"}};
  t.set_align(1, TextTable::Align::kLeft);
  t.add_row({"alpha", "1", "left-padded"});
  t.add_row({"a-much-longer-name", "22222", "x"});
  std::string buf = "before\n";
  t.to(buf);
  EXPECT_EQ(buf, "before\n" + t.str());
}

TEST(TextTable, NumberFormatting) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::num(2.0, 0), "2");
  EXPECT_EQ(TextTable::integer(-42), "-42");
}

}  // namespace
}  // namespace sixg
