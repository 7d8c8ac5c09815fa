// Unit tests for the cgn::obs layer: metric semantics, JSON export,
// phase-profiler nesting and the trace ring. Everything instantiates its
// own MetricsRegistry / PhaseProfiler so the process-global instances the
// instrumented subsystems use stay untouched.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "test_metrics.hpp"

namespace cgn::test {
namespace {

// Minimal structural JSON check: balanced {}/[] outside string literals and
// no trailing garbage — enough to catch broken escaping or a missing comma
// brace without pulling in a JSON parser.
bool json_well_formed(const std::string& s) {
  int depth = 0;
  bool in_string = false, escaped = false;
  for (char c : s) {
    if (in_string) {
      if (escaped)
        escaped = false;
      else if (c == '\\')
        escaped = true;
      else if (c == '"')
        in_string = false;
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{':
      case '[': ++depth; break;
      case '}':
      case ']':
        if (--depth < 0) return false;
        break;
      default: break;
    }
  }
  return depth == 0 && !in_string;
}

TEST(ObsCounter, AccumulatesAndResets) {
  CGN_SKIP_IF_METRICS_DISABLED();
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(ObsGauge, AddSubSetStaySigned) {
  CGN_SKIP_IF_METRICS_DISABLED();
  obs::Gauge g;
  g.add(5);
  g.sub(8);
  EXPECT_EQ(g.value(), -3) << "gauges must dip below zero without wrapping";
  g.set(100);
  EXPECT_EQ(g.value(), 100);
}

TEST(ObsHistogram, BucketPlacementIsLowerBoundInclusive) {
  CGN_SKIP_IF_METRICS_DISABLED();
  obs::Histogram h({1, 2, 4, 8});
  // Bucket i counts v <= bounds[i]; the implicit last bucket overflows.
  h.observe(0.5);  // -> bucket 0 (<=1)
  h.observe(1.0);  // -> bucket 0 (inclusive upper bound)
  h.observe(1.5);  // -> bucket 1 (<=2)
  h.observe(8.0);  // -> bucket 3 (<=8)
  h.observe(9.0);  // -> bucket 4 (overflow)
  EXPECT_EQ(h.bucket_counts(), (std::vector<std::uint64_t>{2, 1, 0, 1, 1}));
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 8.0 + 9.0);
  EXPECT_DOUBLE_EQ(h.mean(), h.sum() / 5.0);
}

TEST(ObsHistogram, ObserveSmallMatchesObserve) {
  CGN_SKIP_IF_METRICS_DISABLED();
  obs::Histogram a({1, 2, 4, 8, 16, 32});
  obs::Histogram b({1, 2, 4, 8, 16, 32});
  // The integer fast path must land every value — below, at, and beyond the
  // precomputed table — in the same bucket as the double path.
  for (std::uint32_t v : {0u, 1u, 2u, 3u, 7u, 8u, 9u, 33u, 64u, 65u, 1000u}) {
    a.observe(static_cast<double>(v));
    b.observe_small(v);
  }
  EXPECT_EQ(a.bucket_counts(), b.bucket_counts());
  EXPECT_EQ(a.count(), b.count());
  EXPECT_DOUBLE_EQ(a.sum(), b.sum());
}

TEST(ObsRegistry, SameNameReturnsSameHandle) {
  CGN_SKIP_IF_METRICS_DISABLED();
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("x");
  obs::Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  a.inc();
  EXPECT_EQ(b.value(), 1u);
  // First histogram registration wins; later bounds are ignored.
  obs::Histogram& h1 = reg.histogram("h", {1, 2});
  obs::Histogram& h2 = reg.histogram("h", {99});
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.bounds(), (std::vector<double>{1, 2}));
}

TEST(ObsRegistry, JsonExportRoundTrip) {
  CGN_SKIP_IF_METRICS_DISABLED();
  obs::MetricsRegistry reg;
  reg.counter("sim.sent\"quoted\"").inc(3);
  reg.gauge("depth").set(-2);
  reg.histogram("hops", {1, 4}).observe(2);
  reg.register_probe("util", [] { return 0.25; });
  std::ostringstream os;
  reg.export_json(os);
  const std::string j = os.str();
  EXPECT_TRUE(json_well_formed(j)) << j;
  EXPECT_NE(j.find("\"sim.sent\\\"quoted\\\"\":3"), std::string::npos) << j;
  EXPECT_NE(j.find("\"depth\":-2"), std::string::npos) << j;
  EXPECT_NE(j.find("\"bounds\":[1,4]"), std::string::npos) << j;
  EXPECT_NE(j.find("\"buckets\":[0,1,0]"), std::string::npos) << j;
  EXPECT_NE(j.find("\"util\":0.25"), std::string::npos) << j;

  // The dashboard renders the same registry without touching values.
  std::ostringstream dash;
  reg.print_dashboard(dash);
  EXPECT_NE(dash.str().find("depth"), std::string::npos);
  EXPECT_EQ(reg.counter("sim.sent\"quoted\"").value(), 3u);
}

TEST(ObsProfiler, NestedPhasesRecordSlashJoinedPaths) {
  obs::PhaseProfiler prof;
  {
    obs::ScopedPhase outer("build", prof);
    { obs::ScopedPhase inner("routes", prof); }
    { obs::ScopedPhase inner("routes", prof); }
  }
  { obs::ScopedPhase again("build", prof); }
  auto phases = prof.phases();
  ASSERT_EQ(phases.size(), 2u);
  // Phases record when they first *end*, so the inner one comes first.
  auto find = [&](std::string_view path) -> const obs::PhaseProfiler::Phase& {
    for (const auto& p : phases)
      if (p.path == path) return p;
    ADD_FAILURE() << "no phase " << path;
    return phases.front();
  };
  const auto& outer = find("build");
  const auto& inner = find("build/routes");
  EXPECT_EQ(outer.depth, 0);
  EXPECT_EQ(outer.count, 2u);
  EXPECT_EQ(inner.depth, 1);
  EXPECT_EQ(inner.count, 2u);
  EXPECT_GE(outer.wall_s, inner.wall_s)
      << "the outer phase encloses the inner one";

  std::ostringstream os;
  prof.export_json(os);
  EXPECT_TRUE(json_well_formed(os.str())) << os.str();
  EXPECT_NE(os.str().find("\"build/routes\""), std::string::npos);

  prof.reset();
  EXPECT_TRUE(prof.phases().empty());
  EXPECT_EQ(prof.open_depth(), 0);
}

TEST(ObsProfiler, EndWithoutBeginThrows) {
  obs::PhaseProfiler prof;
  EXPECT_THROW(prof.end(), std::logic_error);
}

TEST(ObsTraceRing, OverwritesOldestAtCapacity) {
  obs::TraceRing ring(3);
  for (std::uint32_t i = 0; i < 5; ++i)
    ring.push({.node = i, .ttl = 0, .kind = 0, .code = 0, .time = 0.0});
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.total_pushed(), 5u);
  auto events = ring.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].node, 2u);  // oldest retained
  EXPECT_EQ(events[2].node, 4u);  // newest
  ring.clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.total_pushed(), 0u);
}

}  // namespace
}  // namespace cgn::test
