// bench::World runs its campaigns in an order fixed by the code, not by the
// compiler: fork_rng() hands out substreams in call order, so the order in
// which coverage() triggers the two campaigns is part of every fig06/tab05
// figure.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "bench/common.hpp"

namespace cgn {
namespace {

TEST(BenchWorld, CoverageRunsNetalyzrBeforeBittorrent) {
  const char* old_scale = std::getenv("CGN_BENCH_SCALE");
  const std::optional<std::string> saved =
      old_scale ? std::optional<std::string>(old_scale) : std::nullopt;
  ASSERT_EQ(setenv("CGN_BENCH_SCALE", "0.03", 1), 0);

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

  if (saved)
    setenv("CGN_BENCH_SCALE", saved->c_str(), 1);
  else
    unsetenv("CGN_BENCH_SCALE");

  ASSERT_NE(nz, phases.end());
  ASSERT_NE(bt, phases.end());
  EXPECT_LT(nz - phases.begin(), bt - phases.begin())
      << "campaign.netalyzr must run before campaign.bittorrent";
}

}  // namespace
}  // namespace cgn
