// Figure 1 — ISP survey: status of CGN deployment and IPv6 deployment,
// plus the §2 scarcity / address-market statistics.
#include <iostream>

#include "bench/common.hpp"
#include "survey/survey.hpp"

int main() {
  using namespace cgn;
  bench::print_header("Figure 1 (+ §2)", "operator survey tabulation");

  sim::Rng rng(scenario::bench_seed());
  auto responses = survey::generate_responses(75, rng);
  auto t = survey::tabulate(responses);

  std::cout << "(a) Carrier-Grade NAT deployment (n=" << t.n << ")\n";
  report::bar_chart(std::cout,
                    {"yes, already deployed   [38%]",
                     "considering deployment  [12%]",
                     "no plans to deploy      [50%]"},
                    {t.cgn_deployed * 100, t.cgn_considering * 100,
                     t.cgn_no_plans * 100},
                    40, "%");

  std::cout << "\n(b) IPv6 deployment\n";
  report::bar_chart(std::cout,
                    {"yes, most/all subscribers [32%]",
                     "yes, some subscribers     [35%]",
                     "plans to deploy soon      [11%]",
                     "no plans to deploy        [22%]"},
                    {t.ipv6_most * 100, t.ipv6_some * 100, t.ipv6_soon * 100,
                     t.ipv6_no_plans * 100},
                    40, "%");

  std::cout << "\nIPv4 scarcity and markets (paper §2 text)\n";
  report::Table table({"statistic", "measured", "paper"});
  table.add_row({"facing IPv4 scarcity", report::pct(t.scarcity_facing),
                 ">40%"});
  table.add_row({"scarcity looming", report::pct(t.scarcity_looming), "~10%"});
  table.add_row({"internal address scarcity", report::pct(t.internal_scarcity),
                 "3 ISPs (4%)"});
  table.add_row({"bought IPv4 addresses", report::pct(t.bought), "3 ISPs (4%)"});
  table.add_row({"considered buying", report::pct(t.considered_buying),
                 "15 ISPs (20%)"});
  table.add_row({"concern: price", report::pct(t.concern_price), "60%"});
  table.add_row({"concern: polluted blocks", report::pct(t.concern_polluted),
                 "44%"});
  table.add_row({"concern: ownership", report::pct(t.concern_ownership),
                 "42%"});
  table.print(std::cout);

  bench::write_bench_json(
      "fig01_survey",
      {{"respondents", static_cast<double>(t.n)},
       {"cgn_deployed", t.cgn_deployed},
       {"cgn_considering", t.cgn_considering},
       {"ipv6_most", t.ipv6_most},
       {"scarcity_facing", t.scarcity_facing}});
  return 0;
}
