// The bench scaffolding: bench::World runs its campaigns in an order fixed
// by the code, not by the compiler (fork_rng() hands out substreams in call
// order, so the order in which coverage() triggers the two campaigns is
// part of every fig06/tab05 figure), and an unusable CGN_BENCH_SCALE runs
// and records the default world.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "test_temp.hpp"

namespace cgn {
namespace {

/// Sets (or, for nullptr, unsets) an environment variable for one scope.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    if (value)
      setenv(name, value, 1);
    else
      unsetenv(name);
  }
  ~ScopedEnv() {
    if (saved_)
      setenv(name_, saved_->c_str(), 1);
    else
      unsetenv(name_);
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

TEST(BenchWorld, CoverageRunsNetalyzrBeforeBittorrent) {
  std::optional<ScopedEnv> scale(std::in_place, "CGN_BENCH_SCALE", "0.03");

  obs::PhaseProfiler::global().reset();
  {
    bench::World world;
    (void)world.coverage();
  }
  const std::vector<obs::PhaseProfiler::Phase> phases =
      obs::PhaseProfiler::global().phases();
  const auto at = [&](const std::string& path) {
    return std::find_if(phases.begin(), phases.end(),
                        [&](const auto& p) { return p.path == path; });
  };
  const auto nz = at("campaign.netalyzr");
  const auto bt = at("campaign.bittorrent");

  scale.reset();

  ASSERT_NE(nz, phases.end());
  ASSERT_NE(bt, phases.end());
  EXPECT_LT(nz - phases.begin(), bt - phases.begin())
      << "campaign.netalyzr must run before campaign.bittorrent";
}

TEST(BenchWorld, NegativeScaleRunsAndRecordsTheDefaultWorld) {
  // A negative scale once reached static_cast<std::size_t>(n * scale).
  scenario::InternetConfig want;
  {
    const ScopedEnv unset("CGN_BENCH_SCALE", nullptr);
    want = scenario::scaled_config();
  }
  const std::string dir = test::temp_path("bench_world_scale");
  std::filesystem::create_directories(dir);
  const ScopedEnv json_dir("CGN_BENCH_JSON_DIR", dir.c_str());
  const ScopedEnv negative("CGN_BENCH_SCALE", "-1");
  const scenario::InternetConfig got = scenario::scaled_config();
  EXPECT_EQ(got.routed_ases, want.routed_ases);
  EXPECT_EQ(got.pbl_eyeballs, want.pbl_eyeballs);
  EXPECT_EQ(got.apnic_eyeballs, want.apnic_eyeballs);
  EXPECT_EQ(got.cellular_ases, want.cellular_ases);
  EXPECT_EQ(got.seed, want.seed);

  bench::write_bench_json("negative_scale", {});
  std::ifstream in(dir + "/BENCH_negative_scale.json");
  const std::string json((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(json.find("\"scale\":0.4,"), std::string::npos)
      << json.substr(0, 80);
}

}  // namespace
}  // namespace cgn
