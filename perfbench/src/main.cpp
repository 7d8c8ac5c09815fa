// perfbench_driver — runs one benchmark workload in this process and prints
// its metrics as one JSON object on the last line of stdout.
//
//   perfbench_driver --workload <bt_crawl|netalyzr_battery|observatory_push>
//                    --seed N --seconds S --trace 0|1
//                    [--tiny] [--trace-out FILE]
//
// After one untimed warm-up, the workload repeats its timed section until S
// seconds have passed and reports medians over the repetitions. Untraced, the metrics are the
// end-to-end ones; traced, iterations alternate traced and untraced, the
// metrics are the per-layer ones, and the spans go to --trace-out. The
// process is one workload only, so its peak RSS and CPU time are its own.
// perfbench/run.py builds this binary and checks its figure hashes.
#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/network.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

constexpr double kScrapeHz = 100.0;  // open-loop scrape rate, all endpoints
// Scrape percentiles are taken per window, then the median over windows:
// 200 samples a window leave 10 beyond its p95, and a stall of the shared
// host moves a few windows instead of the whole run's tail.
constexpr double kScrapeWindowS = 2.0;

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload W "
               "--seed N --seconds S --trace 0|1 [--tiny] "
               "[--trace-out FILE]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed") o.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (a == "--seconds") o.seconds = std::atof(value().c_str());
    else if (a == "--trace") o.trace = value() != "0";
    else if (a == "--tiny") o.tiny = true;
    else if (a == "--trace-out") o.trace_out = value();
    else usage(("unknown argument " + a).c_str());
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  return o;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::atof(line.c_str() + 6) / 1024.0;  // kB
  return 0.0;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
  return cpus;
}

/// Pins the calling thread to `cpus` (all of them when it holds several).
void pin_thread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof set, &set);
}

struct WindowedLatency {
  double p50 = 0.0;
  double p95 = 0.0;
  std::size_t windows = 0;
};

/// Median over full kScrapeWindowS windows of each window's p50 and p95;
/// pooled percentiles when the run was shorter than one window.
WindowedLatency windowed(const ScrapeStats& stats) {
  std::map<long, std::vector<double>> by_window;
  for (const ScrapeSample& s : stats.samples)
    by_window[static_cast<long>(s.due_s / kScrapeWindowS)].push_back(
        s.latency_ms);
  const auto full = static_cast<std::size_t>(0.9 * kScrapeWindowS * kScrapeHz);
  WindowedLatency out;
  std::vector<double> p50, p95;
  for (const auto& [w, v] : by_window) {
    if (v.size() < full) continue;
    p50.push_back(quantile(v, 0.50));
    p95.push_back(quantile(v, 0.95));
  }
  out.windows = p50.size();
  if (p50.empty()) {
    const std::vector<double> all = stats.latencies();
    out.p50 = quantile(all, 0.50);
    out.p95 = quantile(all, 0.95);
  } else {
    out.p50 = median(p50);
    out.p95 = median(p95);
  }
  return out;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

void json_metrics(std::ostream& os, const Metrics& m) {
  os << '{';
  bool first = true;
  for (const auto& [name, value] : m) {
    os << (first ? "" : ",") << '"' << name << "\":" << value;
    first = false;
  }
  os << '}';
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const std::size_t nproc =
      std::max<unsigned>(1, std::thread::hardware_concurrency());
  WorkloadOptions wopt;
  wopt.seed = opt.seed;
  wopt.tiny = opt.tiny;
  // At most four workers, and one CPU left for the main thread.
  wopt.max_workers = std::clamp<std::size_t>(nproc - 1, 1, 4);

  {
    // Registers the simulator's metrics (the tracer samples its hop
    // histogram) before any span opens.
    cgn::sim::Clock clock;
    cgn::sim::Network registers_metrics(clock);
  }

  try {
    std::unique_ptr<Workload> w = make_workload(opt.workload, wopt);
    if (!w) usage(("unknown workload " + opt.workload).c_str());

    Tracer tracer(opt.trace);
    std::vector<double> setup_s;
    w->prepare(tracer, setup_s);

    // Seeded phase of the open-loop schedule: first request within one
    // period of the start.
    const double phase_s =
        static_cast<double>((opt.seed * 0x9e3779b97f4a7c15ull) >> 11) *
        0x1.0p-53 / kScrapeHz;
    std::unique_ptr<OpenLoopScraper> scraper;
    if (const auto targets = w->scrape_targets(); !targets.empty())
      scraper = std::make_unique<OpenLoopScraper>(w->http_port(), targets,
                                                  kScrapeHz, phase_s);

    auto iterate = [&](int run_id, bool traced) {
      Iteration it;
      it.run_id = run_id;
      it.traced = traced;
      tracer.set_enabled(traced);
      tracer.set_run(run_id);
      if (w->setup_per_iteration()) {
        const Clock::time_point t0 = Clock::now();
        {
          Span s(tracer, "setup");
          w->setup(tracer);
        }
        it.setup_s = seconds_since(t0);
      }
      const double cpu0 = process_cpu_s();
      const Clock::time_point t0 = Clock::now();
      {
        Span s(tracer, "run");
        w->run(tracer, it);
      }
      it.run_s = seconds_since(t0);
      it.cpu_s = process_cpu_s() - cpu0;
      w->teardown();
      // Hand freed memory back, so that each iteration starts from a heap
      // like a fresh process's and peak RSS is one iteration's, not the
      // fragmentation of many.
      malloc_trim(0);
      return it;
    };

    // One untimed warm-up iteration; its outputs are still checked. The
    // threads the library starts (the par pool) start here, free to run on
    // every CPU.
    const Iteration warmup = iterate(-1000, false);

    // The CPUs of a shared host run at different speeds, and the scheduler
    // keeps a thread on one CPU for seconds at a time. So the main thread
    // visits every allowed CPU in turn, one iteration (one traced/untraced
    // pair when tracing) each, and the run ends on a whole round: every
    // run samples all CPUs alike.
    const std::vector<int> cpus = allowed_cpus();
    const std::size_t per_cpu = opt.trace ? 2 : 1;
    const std::size_t round = std::max<std::size_t>(1, cpus.size()) * per_cpu;
    std::vector<Iteration> its;
    const Clock::time_point loop_start = Clock::now();
    do {
      const int run_id = static_cast<int>(its.size());
      if (!cpus.empty())
        pin_thread({cpus[(its.size() / per_cpu) % cpus.size()]});
      // Traced runs alternate traced and untraced iterations; the
      // difference between the two is the tracing overhead.
      its.push_back(iterate(run_id, opt.trace && run_id % 2 == 0));
      if (w->setup_per_iteration()) setup_s.push_back(its.back().setup_s);
    } while (seconds_since(loop_start) < opt.seconds ||
             its.size() % round != 0);
    pin_thread(cpus);
    ScrapeStats scrape;
    if (scraper) {
      scraper->stop();
      scrape = scraper->stats();
    }

    // --- totals and correctness ----------------------------------------------
    Iteration totals;
    totals.figure_hash = warmup.figure_hash;
    totals.fingerprint = warmup.fingerprint;
    totals.attempted = warmup.attempted;
    totals.failed = warmup.failed;
    std::uint64_t inconsistent = 0;
    for (const Iteration& it : its) {
      totals.attempted += it.attempted;
      totals.failed += it.failed;
      if (it.figure_hash != totals.figure_hash ||
          it.fingerprint != totals.fingerprint)
        ++inconsistent;
    }
    totals.failed += inconsistent;
    Metrics extra;
    w->finish(extra, totals);
    totals.attempted += scrape.attempted;
    totals.failed += scrape.failed;

    // --- metrics ---------------------------------------------------------------
    std::vector<double> run_s, cpu_s, traced_run_s, untraced_run_s;
    for (const Iteration& it : its) {
      run_s.push_back(it.run_s);
      cpu_s.push_back(it.cpu_s);
      (it.traced ? traced_run_s : untraced_run_s).push_back(it.run_s);
    }
    const WindowedLatency scrape_ms = windowed(scrape);

    Metrics metrics;
    if (!opt.trace) {
      metrics["setup_s"] = median(setup_s);
      metrics["run_s"] = median(run_s);
      metrics["cpu_s"] = median(cpu_s);
      metrics["peak_rss_mib"] = peak_rss_mib();
    } else {
      std::map<std::string, std::vector<double>> samples;
      for (const Iteration& it : its) {
        if (!it.traced) continue;
        Metrics m = it.layers;
        if (it.packets) {
          m["sim.packets_per_s"] = static_cast<double>(it.packets) / it.run_s;
          m["sim.cpu_ns_per_packet"] =
              1e9 * it.cpu_s / static_cast<double>(it.packets);
        }
        if (it.events)
          m["observatory.ingest_events_per_s"] =
              static_cast<double>(it.events) / it.run_s;
        m["par.workers"] = static_cast<double>(it.workers);
        m["par.cpu_efficiency"] =
            it.cpu_s / (it.run_s * static_cast<double>(it.workers));
        m["trace.unattributed_s"] = tracer.self_s(it.run_id, "run");
        for (const auto& [k, v] : m) samples[k].push_back(v);
      }
      for (const std::string& name : layer_metric_names())
        metrics[name] = median(samples[name]);
      for (const auto& [k, v] : extra) metrics[k] = v;
      for (std::size_t i = 0; i < scrape.labels.size(); ++i)
        metrics["observatory.scrape_ms_p50." + scrape.labels[i]] =
            quantile(scrape.latencies(i), 0.50);
      metrics["observatory.scrape_ms_p50"] = scrape_ms.p50;
      metrics["observatory.scrape_ms_p95"] = scrape_ms.p95;
      metrics["observatory.scrape_late_ms_max"] = scrape.late_ms_max;
      metrics["trace.overhead_pct"] =
          untraced_run_s.empty()
              ? 0.0
              : 100.0 * (median(traced_run_s) / median(untraced_run_s) - 1.0);
      if (!opt.trace_out.empty()) {
        std::ofstream out(opt.trace_out);
        tracer.write_report(out);
        if (!out) {
          std::fprintf(stderr, "perfbench_driver: cannot write %s\n",
                       opt.trace_out.c_str());
          return 1;
        }
      }
    }

    std::ostringstream os;
    os.precision(17);
    os << "{\"workload\":\"" << opt.workload << "\",\"seed\":" << opt.seed
       << ",\"trace\":" << (opt.trace ? 1 : 0) << ",\"tiny\":"
       << (opt.tiny ? "true" : "false") << ",\"iterations\":" << its.size()
       << ",\"setups\":" << setup_s.size() << ",\"figure_hash\":\""
       << hex(totals.figure_hash) << "\",\"fingerprint\":\""
       << hex(totals.fingerprint) << "\",\"inconsistent_iterations\":"
       << inconsistent << ",\"attempted\":" << totals.attempted
       << ",\"failed\":" << totals.failed << ",\"metrics\":";
    json_metrics(os, metrics);
    os << ",\"scrape\":{\"rate_hz\":" << kScrapeHz
       << ",\"samples\":" << scrape.samples.size()
       << ",\"window_s\":" << kScrapeWindowS
       << ",\"windows\":" << scrape_ms.windows
       << ",\"late_ms_max\":" << scrape.late_ms_max << "}"
       << ",\"env\":{\"nproc\":" << nproc
       << ",\"workers\":" << its.front().workers
       << ",\"connections\":" << w->connections()
       << ",\"build_type\":\"" << PERFBENCH_BUILD_TYPE << "\",\"cgn_obs\":"
       << (cgn::obs::kMetricsEnabled ? "true" : "false") << "}}";
    std::cout << os.str() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
