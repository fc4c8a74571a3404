// Unit tests for the common module: units, RNG, descriptive statistics,
// dense linear algebra, and table formatting.
#include <gtest/gtest.h>
#include <pthread.h>
#include <sched.h>

#include <cmath>
#include <numeric>
#include <thread>

#include <unordered_map>

#include "common/cpus.hpp"
#include "common/flat_hash.hpp"
#include "common/interner.hpp"
#include "common/matrix.hpp"
#include "common/pool.hpp"
#include "common/rng.hpp"
#include "common/stats_util.hpp"
#include "common/error.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace hps {
namespace {

TEST(Units, SecondsRoundTrip) {
  EXPECT_EQ(seconds_to_time(1.0), kSecond);
  EXPECT_DOUBLE_EQ(time_to_seconds(kSecond), 1.0);
  EXPECT_EQ(seconds_to_time(0.5), 500 * kMillisecond);
  EXPECT_EQ(seconds_to_time(1e-9), 1);
}

TEST(Units, BandwidthConversion) {
  EXPECT_DOUBLE_EQ(gbps_to_Bps(8.0), 1e9);
  EXPECT_DOUBLE_EQ(Bps_to_gbps(1e9), 8.0);
  EXPECT_DOUBLE_EQ(Bps_to_gbps(gbps_to_Bps(35.0)), 35.0);
}

TEST(Units, TransferTimeRoundsUp) {
  // 1 byte at 1 GB/s = 1 ns exactly.
  EXPECT_EQ(transfer_time(1, 1e9), 1);
  // A fraction of a nanosecond still costs one.
  EXPECT_EQ(transfer_time(1, 2e9), 1);
  EXPECT_EQ(transfer_time(0, 1e9), 0);
  // Large transfer: 1 MiB at 1 GiB/s is ~1 ms.
  const SimTime t = transfer_time(MiB, 1024.0 * MiB);
  EXPECT_NEAR(static_cast<double>(t), 1e9 / 1024.0, 2.0);
}

TEST(Units, TransferTimeZeroBandwidthIsHuge) {
  EXPECT_GT(transfer_time(1, 0.0), kSecond * 1000000LL);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a(), b());
  Rng a2(42);
  std::uint64_t first = a2();
  Rng c2(43);
  EXPECT_NE(first, c2());
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformU64InRange) {
  Rng r(9);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(r.uniform_u64(17), 17u);
}

TEST(Rng, UniformU64CoversRange) {
  Rng r(10);
  std::vector<int> seen(8, 0);
  for (int i = 0; i < 8000; ++i) ++seen[r.uniform_u64(8)];
  for (int c : seen) EXPECT_GT(c, 700);  // ~1000 expected per bucket
}

TEST(Rng, NormalMoments) {
  Rng r(11);
  double sum = 0, ss = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal();
    sum += x;
    ss += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(ss / n, 1.0, 0.03);
}

TEST(Rng, LognormalMedian) {
  Rng r(12);
  std::vector<double> xs;
  for (int i = 0; i < 50001; ++i) xs.push_back(r.lognormal_median(5.0, 0.5));
  EXPECT_NEAR(median(xs), 5.0, 0.15);
}

TEST(Rng, WeightedPickRespectsWeights) {
  Rng r(13);
  std::vector<double> w = {1.0, 0.0, 3.0};
  std::vector<int> count(3, 0);
  for (int i = 0; i < 40000; ++i) ++count[r.weighted_pick(w)];
  EXPECT_EQ(count[1], 0);
  EXPECT_NEAR(static_cast<double>(count[2]) / count[0], 3.0, 0.3);
}

TEST(Rng, ShufflePreservesElements) {
  Rng r(14);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto copy = v;
  r.shuffle(v);
  EXPECT_NE(v, copy);  // overwhelmingly likely
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, copy);
}

TEST(Rng, MixSeedDiffers) {
  EXPECT_NE(mix_seed(1, 2), mix_seed(2, 1));
  EXPECT_NE(mix_seed(1, 2), mix_seed(1, 3));
}

TEST(StatsUtil, MeanAndStddev) {
  const std::vector<double> xs = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(mean(xs), 5.0);
  EXPECT_NEAR(stddev(xs), 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
  EXPECT_DOUBLE_EQ(stddev(std::vector<double>{3.0}), 0.0);
}

TEST(StatsUtil, MedianAndPercentile) {
  const std::vector<double> xs = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(median(xs), 2.5);
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 4.0);
  EXPECT_DOUBLE_EQ(percentile(std::vector<double>{5.0}, 50), 5.0);
}

TEST(StatsUtil, TrimmedMeanDiscardsTails) {
  std::vector<double> xs(100, 1.0);
  xs[0] = -1000;
  xs[1] = 1000;
  // 2% trim removes exactly the two outliers.
  EXPECT_DOUBLE_EQ(trimmed_mean(xs, 0.02), 1.0);
  // No trim keeps them.
  EXPECT_NE(trimmed_mean(xs, 0.0), 1.0);
}

TEST(StatsUtil, CdfAt) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(cdf_at(xs, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf_at(xs, 3.0), 0.6);
  EXPECT_DOUBLE_EQ(cdf_at(xs, 10.0), 1.0);
}

TEST(StatsUtil, HistogramBuckets) {
  const std::vector<double> xs = {0.5, 1.5, 1.6, 2.5, 99.0};
  const std::vector<double> edges = {0, 1, 2, 3};
  const auto h = histogram(xs, edges);
  ASSERT_EQ(h.size(), 3u);
  EXPECT_EQ(h[0].count, 1u);
  EXPECT_EQ(h[1].count, 2u);
  EXPECT_EQ(h[2].count, 2u);  // 2.5 plus the clamped 99.0
}

TEST(StatsUtil, PearsonCorrelation) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  const std::vector<double> ys = {2, 4, 6, 8, 10};
  EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
  const std::vector<double> zs = {10, 8, 6, 4, 2};
  EXPECT_NEAR(pearson(xs, zs), -1.0, 1e-12);
  const std::vector<double> c = {3, 3, 3, 3, 3};
  EXPECT_DOUBLE_EQ(pearson(xs, c), 0.0);
}

TEST(StatsUtil, Summarize) {
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(i);
  const Summary s = summarize(xs);
  EXPECT_EQ(s.n, 100u);
  EXPECT_DOUBLE_EQ(s.min, 1);
  EXPECT_DOUBLE_EQ(s.max, 100);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_NEAR(s.median, 50.5, 1e-9);
}

TEST(Matrix, MultiplyIdentity) {
  Matrix a(2, 3);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(0, 2) = 3;
  a(1, 0) = 4;
  a(1, 1) = 5;
  a(1, 2) = 6;
  const Matrix r = Matrix::identity(2).multiply(a);
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(r(i, j), a(i, j));
}

TEST(Matrix, TransposeShape) {
  Matrix a(2, 3, 1.0);
  a(0, 2) = 7;
  const Matrix t = a.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 0), 7.0);
}

TEST(Matrix, CholeskySolveSpd) {
  // A = [[4,2],[2,3]], b = [6,5] -> x = [1,1].
  Matrix a(2, 2);
  a(0, 0) = 4;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 3;
  const auto x = cholesky_solve(a, std::vector<double>{6, 5});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 1.0, 1e-12);
}

TEST(Matrix, CholeskyRejectsIndefinite) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 1;  // eigenvalues 3 and -1
  EXPECT_THROW(cholesky_solve(a, std::vector<double>{1, 1}), Error);
}

TEST(Matrix, LuSolveGeneral) {
  Matrix a(3, 3);
  const double vals[9] = {0, 2, 1, 1, -2, -3, -1, 1, 2};
  for (int i = 0; i < 9; ++i) a(static_cast<std::size_t>(i / 3),
                                static_cast<std::size_t>(i % 3)) = vals[i];
  const auto x = lu_solve(a, std::vector<double>{-8, 0, 3});
  // Verify by substitution.
  const auto back = a.multiply_vec(x);
  EXPECT_NEAR(back[0], -8, 1e-9);
  EXPECT_NEAR(back[1], 0, 1e-9);
  EXPECT_NEAR(back[2], 3, 1e-9);
}

TEST(Matrix, LuSolveRejectsSingular) {
  Matrix a(2, 2, 1.0);  // rank 1
  EXPECT_THROW(lu_solve(a, std::vector<double>{1, 1}), Error);
}

TEST(Table, RendersAlignedColumns) {
  TextTable t;
  t.set_header({"a", "long-header"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "2"});
  const std::string out = t.render();
  EXPECT_NE(out.find("long-header"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  // Header underline present.
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Table, Formatters) {
  EXPECT_EQ(fmt_percent(0.932), "93.2%");
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_si_bytes(1536), "1.5 KiB");
  EXPECT_EQ(fmt_time_s(1.5, 1), "1.5 s");
}

TEST(FlatMap, BasicInsertFindErase) {
  FlatMap<std::uint64_t, int, Mix64Hash> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(5), nullptr);
  m[5] = 50;
  m[6] = 60;
  EXPECT_EQ(m.size(), 2u);
  ASSERT_NE(m.find(5), nullptr);
  EXPECT_EQ(*m.find(5), 50);
  EXPECT_EQ(m.at(6), 60);
  EXPECT_TRUE(m.erase(5));
  EXPECT_FALSE(m.erase(5));
  EXPECT_EQ(m.find(5), nullptr);
  EXPECT_EQ(m.size(), 1u);
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(6), nullptr);
}

TEST(FlatMap, DifferentialAgainstUnorderedMap) {
  // Randomized insert/overwrite/erase/lookup churn: the backward-shift
  // deletion must keep every lookup agreeing with std::unordered_map. Keys
  // are drawn from a small range so chains collide and shift often.
  FlatMap<std::uint64_t, std::uint64_t, Mix64Hash> m;
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  Rng rng(99);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t key = rng.uniform_u64(512);
    switch (rng.uniform_u64(4)) {
      case 0:
      case 1: {
        const std::uint64_t val = rng.uniform_u64(1 << 30);
        m[key] = val;
        ref[key] = val;
        break;
      }
      case 2: {
        const bool a = m.erase(key);
        const bool b = ref.erase(key) > 0;
        ASSERT_EQ(a, b) << "erase divergence on key " << key;
        break;
      }
      default: {
        const std::uint64_t* v = m.find(key);
        const auto it = ref.find(key);
        ASSERT_EQ(v != nullptr, it != ref.end()) << "find divergence on key " << key;
        if (v != nullptr) {
          ASSERT_EQ(*v, it->second);
        }
        break;
      }
    }
    ASSERT_EQ(m.size(), ref.size());
  }
  for (const auto& [k, v] : ref) {
    const std::uint64_t* got = m.find(k);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(*got, v);
  }
}

TEST(StringInterner, DenseStableIds) {
  StringInterner in;
  const std::uint32_t a = in.id("alpha");
  const std::uint32_t b = in.id("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(in.id("alpha"), a);  // repeat lookups are stable
  EXPECT_EQ(in.str(a), "alpha");
  EXPECT_EQ(in.str(b), "beta");
  EXPECT_EQ(in.size(), 2u);
  const std::string& canon = in.intern("alpha");
  EXPECT_EQ(&canon, &in.intern("alpha"));  // one canonical copy
  // References stay valid across growth. (Concatenation built piecewise to
  // dodge GCC 12's std::string operator+ -Wrestrict false positive,
  // PR105651.)
  const std::string& first = in.str(a);
  for (int i = 0; i < 1000; ++i) {
    std::string key = "k";
    key += std::to_string(i);
    in.id(key);
  }
  EXPECT_EQ(first, "alpha");
}

TEST(IndexPool, RecyclesSlotsLifo) {
  IndexPool<int> pool;
  const std::uint32_t a = pool.alloc();
  const std::uint32_t b = pool.alloc();
  pool[a] = 1;
  pool[b] = 2;
  EXPECT_EQ(pool.live(), 2u);
  pool.release(a);
  EXPECT_EQ(pool.live(), 1u);
  const std::uint32_t c = pool.alloc();
  EXPECT_EQ(c, a);  // LIFO free list reuses the hottest slot
  EXPECT_EQ(pool.live(), 2u);
  EXPECT_EQ(pool[b], 2);
  EXPECT_GE(pool.capacity(), 2u);
}

}  // namespace
TEST(Cpus, ParseCpuMax) {
  EXPECT_EQ(parse_cpu_max("max 100000\n"), std::nullopt);
  EXPECT_EQ(parse_cpu_max("200000 100000\n"), 2);
  EXPECT_EQ(parse_cpu_max("150000 100000"), 2);  // a part CPU rounds up
  EXPECT_EQ(parse_cpu_max("50000 100000"), 1);
  EXPECT_EQ(parse_cpu_max("1 100000"), 1);
  EXPECT_EQ(parse_cpu_max("400000 100000 \n"), 4);
  EXPECT_EQ(parse_cpu_max(""), std::nullopt);
  EXPECT_EQ(parse_cpu_max("100000"), std::nullopt);
  EXPECT_EQ(parse_cpu_max("100000 0"), std::nullopt);
  EXPECT_EQ(parse_cpu_max("0 100000"), std::nullopt);
  EXPECT_EQ(parse_cpu_max("-1 100000"), std::nullopt);
  EXPECT_EQ(parse_cpu_max("12x 100000"), std::nullopt);
}

TEST(Cpus, AffinityCountsAThreadPinnedToOneCpu) {
  int pinned = 0;
  int before = 0;
  std::thread t([&] {
    cpu_set_t set;
    CPU_ZERO(&set);
    ASSERT_EQ(sched_getaffinity(0, sizeof set, &set), 0);
    before = affinity_cpus();
    int cpu = 0;
    while (!CPU_ISSET(cpu, &set)) ++cpu;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    ASSERT_EQ(pthread_setaffinity_np(pthread_self(), sizeof set, &set), 0);
    pinned = affinity_cpus();
  });
  t.join();
  EXPECT_EQ(pinned, 1);
  EXPECT_GE(before, 1);
  EXPECT_LE(before, static_cast<int>(std::max(1u, std::thread::hardware_concurrency())));
  // The process figure is this (unpinned) thread's mask at most.
  EXPECT_GE(usable_cpus(), 1);
  EXPECT_LE(usable_cpus(), before);
}

}  // namespace hps
