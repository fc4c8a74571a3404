// Tests for the workload generators: every app produces a structurally
// valid trace at several rank counts (a parameterized sweep runs the full
// validator), determinism per seed, knob behavior, ground-truth plausibility
// and corpus construction matching Table I(a).
#include "common/error.hpp"
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "trace/validate.hpp"
#include "workloads/corpus.hpp"
#include "workloads/generators.hpp"
#include "workloads/ground_truth.hpp"
#include "workloads/pattern_helpers.hpp"

namespace hps::workloads {
namespace {

TEST(Helpers, GridFactorizations) {
  EXPECT_EQ(grid2d(64), (std::array<int, 2>{8, 8}));
  EXPECT_EQ(grid2d(12), (std::array<int, 2>{4, 3}));
  EXPECT_EQ(grid2d(7), (std::array<int, 2>{7, 1}));
  const auto g = grid3d(64);
  EXPECT_EQ(g[0] * g[1] * g[2], 64);
  EXPECT_EQ(g, (std::array<int, 3>{4, 4, 4}));
  const auto h = grid3d(100);
  EXPECT_EQ(h[0] * h[1] * h[2], 100);
}

TEST(Helpers, IntegerRoots) {
  EXPECT_EQ(isqrt_floor(63), 7);
  EXPECT_EQ(isqrt_floor(64), 8);
  EXPECT_EQ(icbrt_floor(63), 3);
  EXPECT_EQ(icbrt_floor(64), 4);
  EXPECT_TRUE(is_square(1024));
  EXPECT_FALSE(is_square(1000));
  EXPECT_TRUE(is_cube(1728));
  EXPECT_FALSE(is_cube(1729));
  EXPECT_TRUE(is_pow2(512));
  EXPECT_FALSE(is_pow2(513));
}

TEST(Helpers, Neighbors3dSymmetric) {
  for (int r = 0; r < 24; ++r) {
    const auto nb = neighbors3d(r, 4, 3, 2);
    for (const Rank n : nb) {
      const auto back = neighbors3d(n, 4, 3, 2);
      EXPECT_NE(std::find(back.begin(), back.end(), static_cast<Rank>(r)), back.end())
          << "asymmetric neighbor relation between " << r << " and " << n;
    }
  }
}

TEST(Helpers, ComputeModelSkewPersists) {
  ComputeModel cm(8, 1000000, 0.3, 0.01, 42);
  // Two samples from the same rank should be close (small noise), while the
  // cross-rank spread reflects the persistent skew.
  for (Rank r = 0; r < 8; ++r) {
    const double a = static_cast<double>(cm.sample(r));
    const double b = static_cast<double>(cm.sample(r));
    EXPECT_NEAR(a / b, 1.0, 0.1);
  }
}

TEST(GroundTruth, CostsScaleWithSize) {
  GroundTruthParams p;
  GroundTruth gt(p, 1);
  EXPECT_GT(gt.send(1000000), gt.send(1000));
  EXPECT_GT(gt.recv(1000000), gt.recv(1000));
  EXPECT_GT(gt.collective(trace::OpType::kAllreduce, 64, 1 << 20),
            gt.collective(trace::OpType::kAllreduce, 64, 64));
}

TEST(GroundTruth, InflationRaisesCosts) {
  GroundTruthParams p;
  p.noise_sigma = 0.0;
  GroundTruth a(p, 1);
  p.contention_inflation = 2.0;
  GroundTruth b(p, 1);
  EXPECT_GT(b.recv(100000), a.recv(100000) * 3 / 2);
}

TEST(Generators, RegistryComplete) {
  const auto names = all_app_names();
  EXPECT_EQ(names.size(), 19u);  // 9 NPB + 10 DOE
  for (const auto& n : names) EXPECT_EQ(generator_by_name(n).name(), n);
  EXPECT_THROW(generator_by_name("NoSuchApp"), Error);
}

TEST(Generators, RankShapeConstraints) {
  EXPECT_TRUE(generator_by_name("FT").supports_ranks(256));
  EXPECT_FALSE(generator_by_name("FT").supports_ranks(100));
  EXPECT_TRUE(generator_by_name("CG").supports_ranks(144));
  EXPECT_FALSE(generator_by_name("CG").supports_ranks(128));
  EXPECT_TRUE(generator_by_name("LULESH").supports_ranks(216));
  EXPECT_FALSE(generator_by_name("LULESH").supports_ranks(200));
  EXPECT_TRUE(generator_by_name("EP").supports_ranks(97));
}

TEST(Generators, PickRanksWithinBucket) {
  const auto& lulesh = generator_by_name("LULESH");
  EXPECT_EQ(lulesh.pick_ranks(129, 256), 216);
  EXPECT_EQ(lulesh.pick_ranks(217, 300), -1);
  const auto& ft = generator_by_name("FT");
  EXPECT_EQ(ft.pick_ranks(65, 128), 128);
}

struct GenCase {
  std::string app;
  Rank ranks;
};

// Without a printer gtest dumps the raw bytes, which include the heap address
// of the string buffer; that dump ends up in the ctest name, so the names
// would change on every rebuild.
void PrintTo(const GenCase& c, std::ostream* os) { *os << c.app << '/' << c.ranks; }

class AllGenerators : public ::testing::TestWithParam<GenCase> {};

TEST_P(AllGenerators, ProducesValidNonTrivialTrace) {
  GenParams p;
  p.ranks = GetParam().ranks;
  p.seed = 77;
  p.iter_factor = 0.3;  // keep the sweep fast
  const trace::Trace t = generate_app(GetParam().app, p);
  EXPECT_EQ(t.nranks(), p.ranks);
  EXPECT_TRUE(trace::validate(t).empty());
  EXPECT_GT(t.total_events(), static_cast<std::uint64_t>(p.ranks));
  EXPECT_GT(t.measured_total(), 0);
  // Every rank does something.
  for (Rank r = 0; r < t.nranks(); ++r) EXPECT_FALSE(t.rank(r).events.empty());
}

std::vector<GenCase> generator_cases() {
  std::vector<GenCase> cases;
  std::set<std::pair<std::string, Rank>> seen;
  for (const auto& app : all_app_names()) {
    const auto& gen = generator_by_name(app);
    for (const Rank want : {16, 64, 90}) {
      const Rank r = gen.pick_ranks(8, want);
      if (r > 0 && seen.insert({app, r}).second) cases.push_back({app, r});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Apps, AllGenerators, ::testing::ValuesIn(generator_cases()),
                         [](const ::testing::TestParamInfo<GenCase>& info) {
                           return info.param.app + "_" + std::to_string(info.param.ranks);
                         });

TEST(Generators, DeterministicPerSeed) {
  GenParams p;
  p.ranks = 16;
  p.seed = 5;
  p.iter_factor = 0.2;
  const auto a = generate_app("MiniFE", p);
  const auto b = generate_app("MiniFE", p);
  EXPECT_EQ(a.total_events(), b.total_events());
  EXPECT_EQ(a.measured_total(), b.measured_total());
  p.seed = 6;
  const auto c = generate_app("MiniFE", p);
  EXPECT_NE(a.measured_total(), c.measured_total());
}

TEST(Generators, IterFactorScalesLength) {
  GenParams p;
  p.ranks = 16;
  p.seed = 5;
  p.iter_factor = 0.25;
  const auto short_t = generate_app("Nekbone", p);
  p.iter_factor = 1.0;
  const auto long_t = generate_app("Nekbone", p);
  EXPECT_GT(long_t.total_events(), 2 * short_t.total_events());
}

TEST(Generators, SizeFactorScalesVolume) {
  GenParams p;
  p.ranks = 16;
  p.seed = 5;
  p.iter_factor = 0.2;
  p.size_factor = 0.5;
  const auto small = generate_app("FT", p);
  p.size_factor = 2.0;
  const auto big = generate_app("FT", p);
  const auto ssmall = trace::compute_stats(small);
  const auto sbig = trace::compute_stats(big);
  EXPECT_GT(sbig.bytes_total, 2 * ssmall.bytes_total);
}

TEST(Generators, MachineAffectsMeasuredTimes) {
  GenParams p;
  p.ranks = 16;
  p.seed = 5;
  p.iter_factor = 0.2;
  p.machine = "cielito";  // 10 Gbps
  const auto slow = generate_app("CR", p);
  p.machine = "hopper";  // 35 Gbps
  const auto fast = generate_app("CR", p);
  EXPECT_GT(slow.measured_comm_mean(), fast.measured_comm_mean());
}

TEST(Corpus, MatchesTable1aDistribution) {
  const auto specs = build_corpus_specs({});
  EXPECT_EQ(specs.size(), 235u);
  std::map<int, int> bucket_count;
  for (const auto& s : specs) {
    int b = 0;
    for (const auto& bucket : table1a_buckets()) {
      if (s.params.ranks >= bucket.lo && s.params.ranks <= bucket.hi) break;
      ++b;
    }
    ++bucket_count[b];
  }
  const auto buckets = table1a_buckets();
  for (std::size_t i = 0; i < buckets.size(); ++i)
    EXPECT_EQ(bucket_count[static_cast<int>(i)], buckets[i].count) << "bucket " << i;
}

TEST(Corpus, SpecsAreDiverse) {
  const auto specs = build_corpus_specs({});
  std::set<std::string> apps;
  std::set<std::string> machines;
  std::set<std::uint64_t> seeds;
  for (const auto& s : specs) {
    apps.insert(s.app);
    machines.insert(s.params.machine);
    seeds.insert(s.params.seed);
  }
  EXPECT_GE(apps.size(), 15u);
  EXPECT_EQ(machines.size(), 3u);
  EXPECT_EQ(seeds.size(), specs.size()) << "seeds must be unique per trace";
}

TEST(Corpus, LimitOption) {
  workloads::CorpusOptions opts;
  opts.limit = 7;
  EXPECT_EQ(build_corpus_specs(opts).size(), 7u);
}

TEST(Corpus, SpecsGenerateValidTraces) {
  workloads::CorpusOptions opts;
  opts.limit = 4;
  opts.duration_scale = 0.15;
  for (const auto& spec : build_corpus_specs(opts)) {
    const auto t = generate_spec(spec);
    EXPECT_EQ(t.nranks(), spec.params.ranks);
    EXPECT_TRUE(trace::validate(t).empty());
  }
}

TEST(Calibration, MeasuredRankTotalsBalanceUnderSync) {
  // Apps with a per-iteration global collective fold each rank's wait into
  // the measured collective duration, so per-rank measured totals should be
  // close even under compute imbalance (what real MPI profiles show).
  GenParams p;
  p.seed = 21;
  p.iter_factor = 0.3;
  for (const char* app : {"CG", "MultiGrid", "CMC", "LULESH"}) {
    p.ranks = generator_by_name(app).pick_ranks(25, 40);  // 36/32/32/27
    ASSERT_GT(p.ranks, 0) << app;
    const trace::Trace t = generate_app(app, p);
    SimTime min_total = kSimTimeMax, max_total = 0;
    for (Rank r = 0; r < t.nranks(); ++r) {
      SimTime total = 0;
      for (const auto& e : t.rank(r).events) total += e.duration;
      min_total = std::min(min_total, total);
      max_total = std::max(max_total, total);
    }
    EXPECT_LT(static_cast<double>(max_total) / static_cast<double>(min_total), 1.25)
        << app << ": measured rank totals should be balanced by folded-in waits";
  }
}

TEST(Calibration, CommIntensitySpectrumCovered) {
  // At 64 ranks the family must span compute-bound to comm-dominated.
  GenParams p;
  p.ranks = 64;
  p.seed = 22;
  p.iter_factor = 0.3;
  double min_frac = 1.0, max_frac = 0.0;
  for (const auto& app : all_app_names()) {
    const auto& gen = generator_by_name(app);
    if (!gen.supports_ranks(64)) continue;
    const auto t = generate_app(app, p);
    const auto st = trace::compute_stats(t);
    min_frac = std::min(min_frac, st.comm_fraction());
    max_frac = std::max(max_frac, st.comm_fraction());
  }
  EXPECT_LT(min_frac, 0.02) << "need a computation-bound extreme (EP)";
  EXPECT_GT(max_frac, 0.40) << "need a communication-dominated extreme";
}

TEST(Calibration, StrongScalingRaisesCommShare) {
  // The same code at 4x the ranks must be more communication-intensive —
  // the axis along which the corpus spreads Table I(b).
  GenParams small;
  small.ranks = 64;
  small.seed = 23;
  small.iter_factor = 0.3;
  GenParams big = small;
  big.ranks = 256;
  for (const char* app : {"MiniFE", "Nekbone", "MG"}) {
    const auto ts = generate_app(app, small);
    const auto tb = generate_app(app, big);
    EXPECT_GT(trace::compute_stats(tb).comm_fraction(),
              trace::compute_stats(ts).comm_fraction())
        << app;
  }
}

}  // namespace
}  // namespace hps::workloads
