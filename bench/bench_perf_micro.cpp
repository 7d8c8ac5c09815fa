// Micro-benchmarks (google-benchmark) for the core data-path operations:
// NAT translation, LPM routing lookups, DHT find_nodes handling and
// routing-table churn, end-to-end packet delivery, leakage-graph clustering,
// and the obs metrics hot path.
//
// After the google-benchmark suite, main() hand-times the NAT444 echo
// round trip and the Netalyzr campaign's thread scaling and writes
// BENCH_perf_micro.json.
#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#ifdef __linux__
#include <sched.h>
#include <sys/resource.h>
#endif

#include "analysis/union_find.hpp"
#include "bench/common.hpp"
#include "dht/dht_node.hpp"
#include "nat/nat_device.hpp"
#include "netalyzr/session.hpp"
#include "netcore/routing_table.hpp"
#include "obs/metrics.hpp"
#include "observatory/http.hpp"
#include "sim/network.hpp"

namespace {

using namespace cgn;

/// Cores this process can actually run on (the affinity mask, not the
/// machine total): bench_compare.py uses this to decide whether wall-clock
/// parallel speedup is even physically expressible on the runner.
double usable_cores() {
#ifdef __linux__
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    return static_cast<double>(CPU_COUNT(&set));
#endif
  return static_cast<double>(std::thread::hardware_concurrency());
}

/// Process CPU seconds (user + system) so far; the per-leg delta measures
/// work burned, not wall waited — a work-conserving scheduler keeps the
/// 4-worker campaign's CPU time equal to the serial one's.
double process_cpu_s() {
#ifdef __linux__
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) == 0)
    return static_cast<double>(ru.ru_utime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec) +
           static_cast<double>(ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_stime.tv_usec);
#endif
  return 0.0;
}

std::vector<netcore::Ipv4Address> make_pool(int n) {
  std::vector<netcore::Ipv4Address> pool;
  for (int i = 0; i < n; ++i)
    pool.push_back(netcore::Ipv4Address(16, 1, 0, static_cast<std::uint8_t>(i)));
  return pool;
}

void BM_NatOutboundTranslate(benchmark::State& state) {
  nat::NatConfig cfg;
  cfg.port_allocation = static_cast<nat::PortAllocation>(state.range(0));
  cfg.udp_timeout_s = 1e9;
  nat::NatDevice nat(cfg, make_pool(8), sim::Rng(1));
  std::uint32_t i = 0;
  for (auto _ : state) {
    sim::Packet p = sim::Packet::udp(
        {netcore::Ipv4Address(10, 0, static_cast<std::uint8_t>(i >> 8),
                              static_cast<std::uint8_t>(i)),
         static_cast<std::uint16_t>(2000 + (i % 50000))},
        {netcore::Ipv4Address(16, 9, 9, 9), 80});
    benchmark::DoNotOptimize(nat.process_outbound(p, 0.0));
    i = (i + 1) % 30000;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NatOutboundTranslate)
    ->Arg(0)  // preservation
    ->Arg(1)  // sequential
    ->Arg(2); // random

void BM_NatMappingHit(benchmark::State& state) {
  nat::NatConfig cfg;
  cfg.udp_timeout_s = 1e9;
  nat::NatDevice nat(cfg, make_pool(1), sim::Rng(1));
  sim::Packet out = sim::Packet::udp({netcore::Ipv4Address(10, 0, 0, 1), 5000},
                                     {netcore::Ipv4Address(16, 9, 9, 9), 80});
  (void)nat.process_outbound(out, 0.0);
  for (auto _ : state) {
    sim::Packet in = sim::Packet::udp({netcore::Ipv4Address(16, 9, 9, 9), 80},
                                      out.src);
    benchmark::DoNotOptimize(nat.process_inbound(in, 1.0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NatMappingHit);

void BM_RoutingLookup(benchmark::State& state) {
  netcore::RoutingTable rt;
  sim::Rng rng(7);
  for (int i = 0; i < state.range(0); ++i) {
    auto addr = static_cast<std::uint32_t>(rng.uniform(0x10000000, 0x1FFFFFFF));
    rt.announce(netcore::Ipv4Prefix(netcore::Ipv4Address(addr), 20),
                static_cast<netcore::Asn>(i));
  }
  std::uint32_t x = 0x10000000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rt.lookup(netcore::Ipv4Address(x)));
    x = 0x10000000 | ((x + 16411) & 0x0FFFFFFF);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RoutingLookup)->Arg(1000)->Arg(10000)->Arg(50000);

/// The 10-hop delivery fixture shared by the google-benchmark case and the
/// hand-timed overhead estimate below.
struct DeliveryFixture {
  sim::Clock clock;
  sim::Network net{clock};
  sim::NodeId host = 0, server = 0;
  netcore::Ipv4Address addr_a{16, 0, 0, 1}, addr_b{16, 0, 0, 2};

  DeliveryFixture() {
    sim::NodeId ra = net.add_router_chain(net.root(), 4, "a");
    host = net.add_node(ra, "host");
    net.register_address(addr_a, host, net.root());
    sim::NodeId rb = net.add_router_chain(net.root(), 4, "b");
    server = net.add_node(rb, "server");
    net.register_address(addr_b, server, net.root());
  }

  auto send_one() {
    return net.send(sim::Packet::udp({addr_a, 1}, {addr_b, 2}), host);
  }
};

void BM_EndToEndDelivery(benchmark::State& state) {
  DeliveryFixture fx;
  for (auto _ : state) {
    auto r = fx.send_one();
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * 10);  // ~10 hops per send
  state.SetLabel("10-hop path");
}
BENCHMARK(BM_EndToEndDelivery);

void BM_ObsCounterInc(benchmark::State& state) {
  obs::Counter& c = obs::counter("perf.counter_probe");
  for (auto _ : state) c.inc();
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(obs::kMetricsEnabled ? "enabled" : "compiled out");
}
BENCHMARK(BM_ObsCounterInc);

void BM_ObsHistogramObserve(benchmark::State& state) {
  obs::Histogram& h =
      obs::histogram("perf.histogram_probe", {1, 2, 4, 8, 16, 32});
  double x = 0;
  for (auto _ : state) {
    h.observe(x);
    x = x >= 40 ? 0 : x + 1;
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(obs::kMetricsEnabled ? "enabled" : "compiled out");
}
BENCHMARK(BM_ObsHistogramObserve);

/// A DHT node with a table of `n` contacts on one host of a bare network.
struct DhtTableFixture {
  sim::Clock clock;
  sim::Network net{clock};
  sim::Rng rng{3};
  std::unique_ptr<dht::DhtNode> node;

  DhtTableFixture(std::size_t n, dht::DhtNodeConfig cfg) {
    cfg.table_capacity = n;
    const netcore::Ipv4Address addr(16, 0, 0, 1);
    sim::NodeId host = net.add_node(net.root(), "h");
    net.register_address(addr, host, net.root());
    node = std::make_unique<dht::DhtNode>(dht::NodeId160::random(rng),
                                          netcore::Endpoint{addr, 6881}, host,
                                          cfg, sim::Rng(4));
    for (std::size_t i = 0; i < n; ++i) node->learn_contact(fresh_contact(i));
  }

  dht::Contact fresh_contact(std::size_t i) {
    return {dht::NodeId160::random(rng),
            {netcore::Ipv4Address(16, 1, static_cast<std::uint8_t>(i >> 8),
                                  static_cast<std::uint8_t>(i)),
             6881}};
  }
};

/// One find_nodes query through DhtNode::handle: sender refresh, closest-k
/// over the full table, and the (unroutable, dropped) nodes reply.
void BM_DhtClosestK(benchmark::State& state) {
  dht::DhtNodeConfig cfg;
  cfg.validate_before_propagate = false;  // every entry is eligible
  DhtTableFixture fx(static_cast<std::size_t>(state.range(0)), cfg);
  sim::Packet query = sim::Packet::udp(
      {netcore::Ipv4Address(16, 2, 0, 1), 6881}, fx.node->local_endpoint());
  const dht::NodeId160 sender = dht::NodeId160::random(fx.rng);
  std::uint64_t tx = 0;
  for (auto _ : state) {
    query.payload = dht::Message{
        dht::FindNodesMsg{++tx, sender, dht::NodeId160::random(fx.rng)}};
    fx.node->handle(fx.net, query);
    benchmark::DoNotOptimize(fx.node->stats().find_nodes_received);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DhtClosestK)->Arg(64)->Arg(128)->Arg(256);

/// learn_contact of a never-seen contact into a full table: a lookup miss
/// over every slot, then an eviction scan.
void BM_DhtTableChurn(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  DhtTableFixture fx(n, {});
  std::vector<dht::Contact> fresh;
  for (std::size_t i = 0; i < 4096; ++i)
    fresh.push_back(fx.fresh_contact(n + i));
  std::size_t next = 0;
  for (auto _ : state) {
    fx.node->learn_contact(fresh[next]);
    benchmark::DoNotOptimize(fx.node->table_size());
    next = (next + 1) % fresh.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DhtTableChurn)->Arg(64)->Arg(200)->Arg(256);

void BM_UnionFindClustering(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  sim::Rng rng(5);
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  for (std::size_t i = 0; i < n * 2; ++i)
    edges.emplace_back(rng.index(n), rng.index(n));
  for (auto _ : state) {
    analysis::DynamicUnionFind uf;
    for (std::size_t i = 0; i < n; ++i) uf.add_vertex();
    for (auto [a, b] : edges) uf.unite(a, b);
    benchmark::DoNotOptimize(uf.find(0));
  }
  state.SetItemsProcessed(state.iterations() * edges.size());
}
BENCHMARK(BM_UnionFindClustering)->Arg(1000)->Arg(100000);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  {
    cgn::obs::ScopedPhase phase("perf.google_benchmark");
    benchmark::RunSpecifiedBenchmarks();
  }

  // Hand-timed campaign hot loop: bench::time_echo_roundtrip's warmed
  // NAT444 echo. (The metrics cost on this path is measured by building the
  // same binary with -DCGN_OBS=OFF; BM_ObsCounterInc and
  // BM_ObsHistogramObserve time the primitives.)
  cgn::bench::EchoTiming echo;
  double delivery_idle_endpoint_ns = 0;
  {
    cgn::obs::ScopedPhase phase("perf.overhead_estimate");
    cgn::scenario::InternetConfig cfg;
    cfg.seed = 42;
    cfg.routed_ases = 80;
    cfg.pbl_eyeballs = 40;
    cfg.apnic_eyeballs = 40;
    cfg.cellular_ases = 10;
    auto internet = cgn::scenario::build_internet(cfg);
    echo = cgn::bench::time_echo_roundtrip(*internet);

    // The observatory endpoint's idle cost on the same hot path: an
    // HttpServer blocked in accept() shares no state with the sim, so the
    // round trip must not move beyond noise. 0 when the sandbox can't bind
    // a loopback socket.
    cgn::observatory::HttpServer server;
    if (server.start(
            0,
            [](const std::string&) {
              return cgn::observatory::HttpResponse{};
            },
            nullptr)) {
      delivery_idle_endpoint_ns = cgn::bench::time_echo_roundtrip(*internet).ns;
      server.stop();
    }
  }
  std::cout << "\nEcho round trip (metrics "
            << (cgn::obs::kMetricsEnabled ? "enabled" : "compiled out")
            << ", " << (echo.nat444 ? "CPE+CGN line" : "fallback line")
            << "):\n"
            << "  echo round trip (CPE+CGN): " << echo.ns << " ns\n"
            << "  echo round trip with idle observatory endpoint: "
            << delivery_idle_endpoint_ns << " ns\n";

  // Thread scaling of the Netalyzr campaign: the same world (fresh build,
  // same seed) runs its campaign at 1, 2 and 4 workers. The session
  // fingerprints must agree bit for bit — that is cgn::par's determinism
  // guarantee — while wall clock shrinks with available cores (on a
  // single-core host the worker counts tie; the identity check still
  // exercises the full parallel machinery).
  constexpr std::size_t kWorkerCounts[] = {1, 2, 4};
  constexpr int kScalingRuns = int(std::size(kWorkerCounts));
  double campaign_s[kScalingRuns] = {};
  double campaign_cpu_s[kScalingRuns] = {};
  std::uint64_t fp[kScalingRuns] = {};
  {
    cgn::obs::ScopedPhase phase("perf.thread_scaling");
    for (int i = 0; i < kScalingRuns; ++i) {
      cgn::scenario::InternetConfig cfg;
      cfg.seed = 42;
      cfg.routed_ases = 240;
      cfg.pbl_eyeballs = 120;
      cfg.apnic_eyeballs = 120;
      cfg.cellular_ases = 30;
      auto internet = cgn::scenario::build_internet(cfg);
      cgn::scenario::NetalyzrCampaignConfig cc;
      cc.threads = kWorkerCounts[i];
      const double cpu0 = process_cpu_s();
      auto t0 = std::chrono::steady_clock::now();
      auto sessions = cgn::scenario::run_netalyzr_campaign(*internet, cc);
      auto t1 = std::chrono::steady_clock::now();
      campaign_s[i] = std::chrono::duration<double>(t1 - t0).count();
      campaign_cpu_s[i] = process_cpu_s() - cpu0;
      fp[i] = cgn::netalyzr::fingerprint(sessions);
    }
  }
  const bool parallel_identical = fp[0] == fp[1] && fp[1] == fp[2];
  const double speedup_4t =
      campaign_s[2] > 0 ? campaign_s[0] / campaign_s[2] : 0.0;
  // Work conservation: CPU seconds burned at 4 workers vs serial. Unlike
  // wall-clock speedup this is machine-class-independent — a pool that
  // spins or duplicates work drags it below 1 even on a 1-core runner
  // where wall speedup is pinned at ~1.
  const double cpu_efficiency_4t =
      campaign_cpu_s[2] > 0 ? campaign_cpu_s[0] / campaign_cpu_s[2] : 0.0;
  const double cores = usable_cores();
  std::cout << "\nNetalyzr campaign thread scaling (same seed, fresh world "
            << "per run):\n";
  for (int i = 0; i < kScalingRuns; ++i)
    std::cout << "  " << kWorkerCounts[i] << " worker(s): " << campaign_s[i]
              << " s wall, " << campaign_cpu_s[i] << " s cpu\n";
  std::cout << "  speedup at 4 workers: " << speedup_4t << "x on " << cores
            << " usable core(s)\n"
            << "  cpu efficiency at 4 workers (cpu_1t/cpu_4t): "
            << cpu_efficiency_4t << '\n'
            << "  results identical across worker counts: "
            << (parallel_identical ? "yes" : "NO — DETERMINISM BROKEN")
            << '\n';

  cgn::bench::write_bench_json(
      "perf_micro",
      {{"echo_roundtrip_ns", echo.ns},
       {"echo_roundtrip_idle_endpoint_ns", delivery_idle_endpoint_ns},
       {"metrics_enabled", cgn::obs::kMetricsEnabled ? 1.0 : 0.0},
       {"netalyzr_campaign_s_1t", campaign_s[0]},
       {"netalyzr_campaign_s_2t", campaign_s[1]},
       {"netalyzr_campaign_s_4t", campaign_s[2]},
       {"netalyzr_speedup_4t", speedup_4t},
       {"netalyzr_cpu_s_1t", campaign_cpu_s[0]},
       {"netalyzr_cpu_s_4t", campaign_cpu_s[2]},
       {"netalyzr_cpu_efficiency_4t", cpu_efficiency_4t},
       {"hardware_cores", cores},
       {"parallel_identical", parallel_identical ? 1.0 : 0.0}});
  return 0;
}
