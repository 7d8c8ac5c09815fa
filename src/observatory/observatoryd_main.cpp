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
//   --ingest-queue N        bounded ingest queue capacity (default 4096)
//   --no-stream             skip the in-process StreamDriver: the daemon
//                           builds the world (the detectors need its
//                           routes) and serves push campaigns only
//
// Exit codes: 0 stream complete, 2 usage/bind error, 3 campaign aborted
// (kill-switch; rerun with the same CGN_SUPER_CHECKPOINT_DIR to resume).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include "observatory/ingest.hpp"
#include "observatory/observatory.hpp"
#include "observatory/stream_driver.hpp"
#include "scenario/env_config.hpp"
#include "super/supervisor.hpp"

namespace {

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
      scenario::env_u64("CGN_OBSERVATORY_PORT", 9464));
  std::size_t abort_after_shards = 0;
  bool exit_after_stream = false;
  bool no_stream = false;
  int pace_us = 0;
  bool ingest_enabled = false;
  auto ingest_port = static_cast<std::uint16_t>(
      scenario::env_u64("CGN_OBSERVATORY_INGEST_PORT", 0));
  if (std::getenv("CGN_OBSERVATORY_INGEST_PORT") != nullptr)
    ingest_enabled = true;
  observatory::IngestConfig ingest_cfg;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--port") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      port = static_cast<std::uint16_t>(std::atoi(v));
    } else if (arg == "--pace-us") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      pace_us = std::atoi(v);
    } else if (arg == "--abort-after-shards") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      abort_after_shards = static_cast<std::size_t>(std::atoll(v));
    } else if (arg == "--exit-after-stream") {
      exit_after_stream = true;
    } else if (arg == "--ingest-port") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      ingest_port = static_cast<std::uint16_t>(std::atoi(v));
      ingest_enabled = true;
    } else if (arg == "--ingest-queue") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      ingest_cfg.queue_capacity = static_cast<std::size_t>(std::atoll(v));
    } else if (arg == "--no-stream") {
      no_stream = true;
    } else {
      return usage(argv[0]);
    }
  }

  observatory::StreamDriverConfig driver_cfg;
  driver_cfg.world = scenario::scaled_config();
  driver_cfg.crawl.crawl.retry = scenario::retry_policy_from_env();
  driver_cfg.crawl.supervise =
      scenario::supervisor_config_from_env("crawl_ping");
  driver_cfg.netalyzr.retry = scenario::retry_policy_from_env();
  // In a v6-transition world (CGN_V6_TRANSITION=1) sessions run the
  // Big-NAT battery, which makes /figures grow the fig14_transition set.
  driver_cfg.netalyzr.transition_battery = driver_cfg.world.v6.enabled;
  driver_cfg.netalyzr.supervise =
      scenario::supervisor_config_from_env("netalyzr");
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
