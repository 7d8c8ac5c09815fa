#include <gtest/gtest.h>

#include <sstream>

#include "report/report.hpp"
#include "survey/survey.hpp"

namespace cgn {
namespace {

TEST(Report, TableAlignsColumns) {
  report::Table t({"a", "column-b"});
  t.add_row({"1", "2"});
  t.add_row({"longer-cell", "x"});
  std::ostringstream os;
  t.print(os);
  std::string out = os.str();
  EXPECT_NE(out.find("a"), std::string::npos);
  EXPECT_NE(out.find("longer-cell"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
  // Every line has the same structure (header, rule, rows).
  int lines = 0;
  for (char c : out) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 4);
}

TEST(Report, TablePadsShortRows) {
  report::Table t({"a", "b", "c"});
  t.add_row({"only-one"});
  std::ostringstream os;
  EXPECT_NO_THROW(t.print(os));
}

TEST(Report, NumberFormatting) {
  EXPECT_EQ(report::pct(0.1234), "12.3%");
  EXPECT_EQ(report::pct(1.0), "100.0%");
  EXPECT_EQ(report::num(3.14159, 2), "3.14");
  EXPECT_EQ(report::count(0), "0");
  EXPECT_EQ(report::count(999), "999");
  EXPECT_EQ(report::count(1000), "1,000");
  EXPECT_EQ(report::count(21500000), "21,500,000");
}

TEST(Report, BarChartScalesToMax) {
  std::ostringstream os;
  report::bar_chart(os, {"x", "y"}, {50.0, 100.0}, 10, "%");
  std::string out = os.str();
  EXPECT_NE(out.find("##########"), std::string::npos);  // the max bar
  EXPECT_NE(out.find("#####"), std::string::npos);
  EXPECT_NE(out.find("100.0%"), std::string::npos);
}

TEST(Report, BarChartHandlesAllZero) {
  std::ostringstream os;
  EXPECT_NO_THROW(report::bar_chart(os, {"x"}, {0.0}, 10));
}

TEST(Report, StackedBarsSumToWidth) {
  std::ostringstream os;
  report::stacked_bars(os, {"row"}, {"s1", "s2"}, {{0.5, 0.5}}, 20);
  std::string out = os.str();
  EXPECT_NE(out.find("##########"), std::string::npos);
  EXPECT_NE(out.find("=========="), std::string::npos);
  EXPECT_NE(out.find("legend"), std::string::npos);
}

TEST(Report, ScatterHandlesEmptyAndPoints) {
  std::ostringstream os;
  report::scatter_loglog(os, {}, 5, 5);
  EXPECT_NE(os.str().find("no data"), std::string::npos);
  std::ostringstream os2;
  report::scatter_loglog(os2, {{1, 1}, {100, 100}, {100, 100}}, 5, 5, 30, 10);
  std::string out = os2.str();
  EXPECT_NE(out.find('.'), std::string::npos);   // single point
  EXPECT_NE(out.find('o'), std::string::npos);   // doubled point
  EXPECT_NE(out.find('|'), std::string::npos);   // boundary
}

TEST(Report, CsvWritesHeaderAndRows) {
  std::ostringstream os;
  report::write_csv(os, {"a", "b"}, {{"1", "2"}, {"3", "4"}});
  EXPECT_EQ(os.str(), "a,b\n1,2\n3,4\n");
}

TEST(Report, BoxplotLineContainsAllNumbers) {
  std::ostringstream os;
  report::boxplot_line(os, "label", 1, 2, 3, 4, 5, 42);
  std::string out = os.str();
  for (const char* needle : {"min=1.0", "q1=2.0", "med=3.0", "q3=4.0",
                             "max=5.0", "n=42"})
    EXPECT_NE(out.find(needle), std::string::npos) << needle;
}

TEST(Survey, MarginalsTrackPaperPercentages) {
  sim::Rng rng(123);
  auto responses = survey::generate_responses(20000, rng);
  auto t = survey::tabulate(responses);
  EXPECT_NEAR(t.cgn_deployed, 0.38, 0.02);
  EXPECT_NEAR(t.cgn_considering, 0.12, 0.02);
  EXPECT_NEAR(t.cgn_no_plans, 0.50, 0.02);
  EXPECT_NEAR(t.ipv6_most, 0.32, 0.02);
  EXPECT_NEAR(t.ipv6_some, 0.35, 0.02);
  EXPECT_NEAR(t.scarcity_facing, 0.42, 0.02);
  EXPECT_NEAR(t.concern_price, 0.60, 0.02);
  // Shares within each question sum to one.
  EXPECT_NEAR(t.cgn_deployed + t.cgn_considering + t.cgn_no_plans, 1.0, 1e-9);
  EXPECT_NEAR(t.ipv6_most + t.ipv6_some + t.ipv6_soon + t.ipv6_no_plans, 1.0,
              1e-9);
}

TEST(Survey, InternalScarcityImpliesCgn) {
  sim::Rng rng(5);
  auto responses = survey::generate_responses(5000, rng);
  for (const auto& r : responses)
    if (r.faces_internal_scarcity) {
      EXPECT_EQ(r.cgn, survey::CgnStatus::deployed)
          << "internal-space scarcity only arises in CGN deployments";
    }
}

TEST(Survey, TabulateEmptyIsAllZero) {
  auto t = survey::tabulate({});
  EXPECT_EQ(t.n, 0u);
  EXPECT_EQ(t.cgn_deployed, 0.0);
}

TEST(Survey, DeterministicForSeed) {
  sim::Rng a(9), b(9);
  auto ra = survey::generate_responses(75, a);
  auto rb = survey::generate_responses(75, b);
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].cgn, rb[i].cgn);
    EXPECT_EQ(ra[i].ipv6, rb[i].ipv6);
  }
}

TEST(Survey, EnumStringsAreStable) {
  EXPECT_EQ(survey::to_string(survey::CgnStatus::deployed),
            "yes, already deployed");
  EXPECT_EQ(survey::to_string(survey::Ipv6Status::no_plans),
            "no plans to deploy");
  EXPECT_EQ(survey::to_string(survey::ScarcityStatus::looming),
            "scarcity looming");
}

}  // namespace
}  // namespace cgn
