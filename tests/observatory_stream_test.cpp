// Differential tests for the observatory streaming path: after ingesting a
// full campaign stream, the observatory's figure JSON must be byte-identical
// to the batch pipeline's — serially, at 4 workers, and across a
// kill -> checkpoint-resume drill (the acceptance bar of the streaming
// engine).
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>

#include "analysis/bt_detector.hpp"
#include "analysis/figures.hpp"
#include "analysis/netalyzr_detector.hpp"
#include "observatory/observatory.hpp"
#include "observatory/stream_driver.hpp"
#include "scenario/campaign.hpp"
#include "scenario/internet.hpp"
#include "super/supervisor.hpp"
#include "test_temp.hpp"

namespace cgn {
namespace {

/// Small world with enough leakage and Netalyzr coverage to make the
/// figures non-trivial while keeping each campaign in test time.
scenario::InternetConfig tiny_config() {
  scenario::InternetConfig cfg;
  cfg.seed = 11;
  cfg.routed_ases = 240;
  cfg.pbl_eyeballs = 46;
  cfg.apnic_eyeballs = 50;
  cfg.cellular_ases = 8;
  cfg.nz_eyeball_coverage = 0.6;
  cfg.nz_sessions_lo = 6;
  cfg.nz_sessions_hi = 14;
  return cfg;
}

std::string render(const analysis::Figures& figures) {
  std::ostringstream os;
  analysis::render_figures_json(os, figures);
  return os.str();
}

struct BatchFigures {
  std::string fig04;
  std::string fig05;
};

/// The batch pipeline exactly as bench_fig04 / bench_fig05 run it: one
/// world per bench, campaign, batch detector, shared figure extraction.
const BatchFigures& batch_figures() {
  static const BatchFigures batch = [] {
    BatchFigures out;
    {
      auto world = scenario::build_internet(tiny_config());
      scenario::run_bittorrent_phase(*world);
      auto crawler = scenario::run_crawl_phase(*world);
      out.fig04 = render(analysis::fig04_figures(
          analysis::BtDetector().analyze(crawler->dataset(), world->routes)));
    }
    {
      auto world = scenario::build_internet(tiny_config());
      scenario::NetalyzrCampaignConfig cc;
      cc.enum_fraction = 0.0;
      cc.stun_fraction = 0.0;
      const auto sessions = scenario::run_netalyzr_campaign(*world, cc);
      out.fig05 = render(analysis::fig05_figures(
          analysis::NetalyzrDetector().analyze(sessions, world->routes)));
    }
    return out;
  }();
  return batch;
}

void expect_stream_matches_batch(const observatory::Observatory& obs) {
  const auto sets = obs.figure_sets();
  EXPECT_EQ(render(sets.at("fig04_clusters")), batch_figures().fig04);
  EXPECT_EQ(render(sets.at("fig05_netalyzr_candidates")),
            batch_figures().fig05);
}

TEST(ObservatoryStream, SerialStreamMatchesBatchFigures) {
  observatory::StreamDriverConfig cfg;
  cfg.world = tiny_config();
  observatory::StreamDriver driver(cfg);
  observatory::Observatory obs(driver.routes(), driver.registry());
  driver.run(obs);

  EXPECT_GT(driver.events_emitted(), 0u);
  EXPECT_EQ(obs.events_ingested(), driver.events_emitted());
  EXPECT_EQ(obs.stream_total(), obs.events_ingested()) << "lag drains to 0";
  EXPECT_TRUE(obs.stream_done());
  expect_stream_matches_batch(obs);

  // Both campaign reports arrived and the stream carried supervision state.
  const std::string health = obs.handle("/health").body;
  EXPECT_NE(health.find("\"crawl_ping\""), std::string::npos) << health;
  EXPECT_NE(health.find("\"netalyzr\""), std::string::npos);
  EXPECT_NE(health.find("\"status\":\"complete\""), std::string::npos);
}

TEST(ObservatoryStream, FourWorkerStreamMatchesBatchFigures) {
  observatory::StreamDriverConfig cfg;
  cfg.world = tiny_config();
  cfg.crawl.threads = 4;
  cfg.netalyzr.threads = 4;
  observatory::StreamDriver driver(cfg);
  observatory::Observatory obs(driver.routes(), driver.registry());
  driver.run(obs);
  expect_stream_matches_batch(obs);
}

TEST(ObservatoryStream, KillAndCheckpointResumeMatchesBatchFigures) {
  const std::filesystem::path dir = test::temp_path("observatory_ckpt");
  std::filesystem::create_directories(dir);
  const std::string ckpt = (dir / "netalyzr.ckpt").string();

  // Leg 1: the campaign dies mid-stream at a checkpoint boundary.
  {
    observatory::StreamDriverConfig cfg;
    cfg.world = tiny_config();
    cfg.netalyzr.supervise.checkpoint_path = ckpt;
    cfg.netalyzr.supervise.abort_after_shards = 2;
    observatory::StreamDriver driver(cfg);
    observatory::Observatory obs(driver.routes(), driver.registry());
    EXPECT_THROW(driver.run(obs), super::CampaignAborted);
    // The crawl half of the stream was already ingested when the kill hit.
    EXPECT_GT(obs.events_ingested(), 0u);
    EXPECT_FALSE(obs.stream_done());
  }
  EXPECT_TRUE(std::filesystem::exists(ckpt));

  // Leg 2: rerun against the same checkpoint, resharded to 4 workers. The
  // resumed stream must still converge on the batch bytes.
  {
    observatory::StreamDriverConfig cfg;
    cfg.world = tiny_config();
    cfg.crawl.threads = 4;
    cfg.netalyzr.threads = 4;
    cfg.netalyzr.supervise.checkpoint_path = ckpt;
    observatory::StreamDriver driver(cfg);
    observatory::Observatory obs(driver.routes(), driver.registry());
    driver.run(obs);
    EXPECT_TRUE(obs.stream_done());
    EXPECT_GE(driver.nz_report().count(super::ShardStatus::resumed), 1u)
        << "at least the two pre-kill shards restore from the checkpoint";
    expect_stream_matches_batch(obs);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace cgn
