// cgn_observatoryd — the live observatory daemon.
//
// Builds the CGN_BENCH_SCALE/CGN_BENCH_SEED world, streams the BitTorrent
// crawl and Netalyzr campaigns through the incremental detectors, and
// serves /metrics, /figures, /health and /trace over HTTP while doing so.
// All campaign knobs come from the same CGN_* environment the bench
// binaries read (scenario/env_config.hpp), so the figures it converges on
// are byte-identical to BENCH_fig04_clusters.json / BENCH_fig05_*.json.
//
// Flags:
//   --port N                listen port (0 = ephemeral; default
//                           CGN_OBSERVATORY_PORT or 9464)
//   --pace-us N             wall-clock pause between ingested events
//   --abort-after-shards N  Netalyzr campaign kill-switch (checkpoint
//                           drill; exits 3 on the resulting abort)
//   --exit-after-stream     exit once the stream completes instead of
//                           serving forever
//   --ingest-port N         also listen for push-ingestion connections
//                           (cgn_feeder / PushClient; 0 = ephemeral;
//                           default CGN_OBSERVATORY_INGEST_PORT, unset =
//                           no ingest listener)
//   --ingest-queue N        bounded ingest queue capacity (default 4096,
//                           at most 1048576)
//   --no-stream             skip the in-process StreamDriver: the daemon
//                           builds the world (the detectors need its
//                           routes) and serves push campaigns only
//
// Numeric flags must be whole decimal numbers within their field's range;
// anything else is a usage error (exit 2), never a wrapped value.
//
// Exit codes: 0 stream complete, 2 usage/bind error, 3 campaign aborted
// (kill-switch; rerun with the same CGN_SUPER_CHECKPOINT_DIR to resume).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>
#include <thread>

#include "observatory/ingest.hpp"
#include "observatory/observatory.hpp"
#include "observatory/stream_driver.hpp"
#include "scenario/env_config.hpp"
#include "super/supervisor.hpp"

namespace {

/// Largest --ingest-queue: the queue's whole point is a memory bound.
constexpr std::uint64_t kMaxIngestQueue = 1u << 20;
constexpr std::uint64_t kMaxPort = 65535;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--port N] [--pace-us N]\n"
               "          [--abort-after-shards N] [--exit-after-stream]\n"
               "          [--ingest-port N] [--ingest-queue N] [--no-stream]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cgn;

  auto port = static_cast<std::uint16_t>(
      scenario::env_u64("CGN_OBSERVATORY_PORT", 9464, kMaxPort));
  std::size_t abort_after_shards = 0;
  bool exit_after_stream = false;
  bool no_stream = false;
  int pace_us = 0;
  bool ingest_enabled = false;
  auto ingest_port = static_cast<std::uint16_t>(
      scenario::env_u64("CGN_OBSERVATORY_INGEST_PORT", 0, kMaxPort));
  if (std::getenv("CGN_OBSERVATORY_INGEST_PORT") != nullptr)
    ingest_enabled = true;
  observatory::IngestConfig ingest_cfg;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // The flag's value, parsed whole and at most `max`; nullopt when it is
    // missing or malformed.
    auto number = [&](std::uint64_t max) {
      return scenario::parse_u64(i + 1 < argc ? argv[++i] : nullptr, max);
    };
    if (arg == "--port") {
      const auto v = number(kMaxPort);
      if (!v) return usage(argv[0]);
      port = static_cast<std::uint16_t>(*v);
    } else if (arg == "--pace-us") {
      const auto v = number(std::numeric_limits<int>::max());
      if (!v) return usage(argv[0]);
      pace_us = static_cast<int>(*v);
    } else if (arg == "--abort-after-shards") {
      const auto v = number(std::numeric_limits<std::size_t>::max());
      if (!v) return usage(argv[0]);
      abort_after_shards = static_cast<std::size_t>(*v);
    } else if (arg == "--exit-after-stream") {
      exit_after_stream = true;
    } else if (arg == "--ingest-port") {
      const auto v = number(kMaxPort);
      if (!v) return usage(argv[0]);
      ingest_port = static_cast<std::uint16_t>(*v);
      ingest_enabled = true;
    } else if (arg == "--ingest-queue") {
      const auto v = number(kMaxIngestQueue);
      if (!v) return usage(argv[0]);
      ingest_cfg.queue_capacity = static_cast<std::size_t>(*v);
    } else if (arg == "--no-stream") {
      no_stream = true;
    } else {
      return usage(argv[0]);
    }
  }

  auto driver_cfg = observatory::stream_driver_config_from_env();
  driver_cfg.netalyzr.supervise.abort_after_shards = abort_after_shards;
  driver_cfg.pace_us = pace_us;

  observatory::StreamDriver driver(driver_cfg);
  observatory::Observatory obs(driver.routes(), driver.registry());

  std::string error;
  if (!obs.serve(port, &error)) {
    std::fprintf(stderr, "observatory: cannot serve: %s\n", error.c_str());
    return 2;
  }
  // The scripts parse this line to find an ephemeral port; keep its shape.
  std::printf("observatory: listening on 127.0.0.1:%u\n",
              static_cast<unsigned>(obs.port()));
  std::fflush(stdout);

  if (ingest_enabled) {
    if (!obs.serve_ingest(ingest_port, ingest_cfg, &error)) {
      std::fprintf(stderr, "observatory: cannot serve ingest: %s\n",
                   error.c_str());
      return 2;
    }
    // Parsed by scripts too — same shape as the HTTP announce line.
    std::printf("observatory: ingest on 127.0.0.1:%u\n",
                static_cast<unsigned>(obs.ingest_port()));
    std::fflush(stdout);
  }

  if (!no_stream) {
    try {
      driver.run(obs);
    } catch (const super::CampaignAborted& e) {
      std::fprintf(stderr,
                   "observatory: campaign aborted: %s (rerun with the same "
                   "CGN_SUPER_CHECKPOINT_DIR to resume)\n",
                   e.what());
      return 3;
    }

    std::printf("observatory: stream complete (%llu events)\n",
                static_cast<unsigned long long>(driver.events_emitted()));
    std::fflush(stdout);

    if (exit_after_stream) return 0;
  }
  for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
}
