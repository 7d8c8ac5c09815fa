// cgn_feeder — external push-ingestion feeder for a running observatory.
//
// Rebuilds the exact deterministic campaign the daemon's in-process
// StreamDriver would run — same CGN_* environment, same worlds, same
// Rng::fork substreams — and pushes every observation over the framed
// ingest protocol (observatory/ingest.hpp) instead of ingesting it
// in-process. Because the StreamDriver writes through the EventSink
// interface, the bytes a push campaign converges on at /figures/<name>
// are the same bytes the daemon's own stream or the bench binaries
// produce.
//
// A feeder killed mid-stream (kill -9 included) reruns cheaply: shard
// checkpoints (CGN_SUPER_CHECKPOINT_DIR) resume the campaign regeneration,
// and the server's hello reply carries its resume cursor, so the client
// skips every event the observatory already holds — the channel ends up
// byte-identical to an uninterrupted push.
//
// Flags:
//   --connect N                 ingest port (required)
//   --host H                    ingest host (default 127.0.0.1)
//   --campaign NAME             campaign channel name (default "push")
//   --policy park|shed          overload policy (default park)
//   --pace-us N                 wall-clock pause between events
//   --fault-max-write N         chunk sends to at most N bytes
//   --fault-write-delay-us N    pause between chunked sends (slow writer)
//   --fault-disconnect-after N  hard-close the socket after N sent bytes
//
// Numeric flags must be whole decimal numbers within their field's range;
// anything else is a usage error (exit 2), never a wrapped value.
//
// Exit codes: 0 stream pushed and done-acked, 2 usage error, 3 campaign
// aborted (kill-switch), 4 push connection failed.
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include "observatory/ingest.hpp"
#include "observatory/stream_driver.hpp"
#include "scenario/env_config.hpp"
#include "super/supervisor.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --connect PORT [--host H] [--campaign NAME]\n"
      "          [--policy park|shed] [--pace-us N] [--fault-max-write N]\n"
      "          [--fault-write-delay-us N] [--fault-disconnect-after N]\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cgn;

  observatory::PushClientConfig client_cfg;
  int pace_us = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    // The flag's value, parsed whole and at most `max`; nullopt when it is
    // missing or malformed.
    auto number = [&](std::uint64_t max) {
      return scenario::parse_u64(next(), max);
    };
    if (arg == "--connect") {
      const auto v = number(65535);
      if (!v) return usage(argv[0]);
      client_cfg.port = static_cast<std::uint16_t>(*v);
    } else if (arg == "--host") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      client_cfg.host = v;
    } else if (arg == "--campaign") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      client_cfg.campaign = v;
    } else if (arg == "--policy") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      if (std::strcmp(v, "park") == 0) {
        client_cfg.policy = observatory::IngestOverloadPolicy::park;
      } else if (std::strcmp(v, "shed") == 0) {
        client_cfg.policy = observatory::IngestOverloadPolicy::shed;
      } else {
        return usage(argv[0]);
      }
    } else if (arg == "--pace-us") {
      const auto v = number(std::numeric_limits<int>::max());
      if (!v) return usage(argv[0]);
      pace_us = static_cast<int>(*v);
    } else if (arg == "--fault-max-write") {
      const auto v = number(std::numeric_limits<std::size_t>::max());
      if (!v) return usage(argv[0]);
      client_cfg.faults.max_write_bytes = static_cast<std::size_t>(*v);
    } else if (arg == "--fault-write-delay-us") {
      const auto v = number(std::numeric_limits<int>::max());
      if (!v) return usage(argv[0]);
      client_cfg.faults.write_delay_us = static_cast<int>(*v);
    } else if (arg == "--fault-disconnect-after") {
      const auto v = number(std::numeric_limits<std::uint64_t>::max());
      if (!v) return usage(argv[0]);
      client_cfg.faults.disconnect_after_bytes = *v;
    } else {
      return usage(argv[0]);
    }
  }
  if (client_cfg.port == 0) return usage(argv[0]);

  auto driver_cfg = observatory::stream_driver_config_from_env();
  driver_cfg.pace_us = pace_us;

  client_cfg.world_seed = driver_cfg.world.seed;
  client_cfg.plan_hash = driver_cfg.world.fault_plan.hash();

  observatory::PushClient client(client_cfg);
  try {
    client.connect();
  } catch (const observatory::IngestError& e) {
    std::fprintf(stderr, "feeder: %s\n", e.what());
    return 4;
  }
  std::printf("feeder: connected to %s:%u (campaign %s, resume cursor %llu)\n",
              client_cfg.host.c_str(),
              static_cast<unsigned>(client_cfg.port),
              client_cfg.campaign.c_str(),
              static_cast<unsigned long long>(client.resume_cursor()));
  std::fflush(stdout);

  observatory::StreamDriver driver(driver_cfg);
  try {
    driver.run(client);
  } catch (const super::CampaignAborted& e) {
    std::fprintf(stderr,
                 "feeder: campaign aborted: %s (rerun with the same "
                 "CGN_SUPER_CHECKPOINT_DIR to resume)\n",
                 e.what());
    return 3;
  } catch (const observatory::IngestError& e) {
    std::fprintf(stderr, "feeder: push failed: %s (rerun to resume from the "
                         "server's cursor)\n",
                 e.what());
    return 4;
  }

  std::printf("feeder: done (%llu events sent, %llu replay-skipped)\n",
              static_cast<unsigned long long>(client.events_sent()),
              static_cast<unsigned long long>(client.events_skipped()));
  return 0;
}
