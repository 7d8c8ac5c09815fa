// Push-ingestion tests: wire codec round-trips, the malformed-frame
// corpus (every rejected frame lands in exactly one counter and the daemon
// stays healthy), bounded-queue backpressure and shedding, reconnect-and-
// resume figure equality, the batched wire contract (frames split across
// and packed into recv() calls, what sends a batch), and the hardened
// HttpServer parsing limits.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "netcore/as_registry.hpp"
#include "observatory/http.hpp"
#include "observatory/ingest.hpp"
#include "observatory/observatory.hpp"
#include "super/wire.hpp"

namespace cgn {
namespace {

using netcore::Ipv4Address;
using netcore::Ipv4Prefix;
using netcore::RoutingTable;
using observatory::IngestFrameType;
using observatory::StreamEvent;

RoutingTable two_as_routes() {
  RoutingTable routes;
  routes.announce(Ipv4Prefix::parse("16.0.0.0/8"), 1);
  routes.announce(Ipv4Prefix::parse("17.0.0.0/8"), 2);
  return routes;
}

dht::Contact contact(std::uint8_t a, std::uint8_t b, std::uint8_t c,
                     std::uint8_t d, std::uint16_t port = 6881) {
  dht::Contact out;
  out.endpoint = {Ipv4Address(a, b, c, d), port};
  return out;
}

netalyzr::SessionResult session(netcore::Asn asn, std::uint8_t dev_octet,
                                std::uint8_t pub_octet, bool translated) {
  netalyzr::SessionResult s;
  s.asn = asn;
  s.ip_dev = Ipv4Address(192, 168, 1, dev_octet);
  s.ip_pub = Ipv4Address(16, 0, pub_octet, 1);
  s.ip_cpe = translated ? Ipv4Address(10, 64, dev_octet, 1) : *s.ip_pub;
  return s;
}

/// A deterministic mixed event stream that exercises every event kind and
/// produces nontrivial fig04/fig05 figure sets.
std::vector<StreamEvent> synthetic_stream() {
  std::vector<StreamEvent> events;
  const dht::Contact shared = contact(10, 0, 0, 7);
  for (std::uint8_t i = 1; i <= 6; ++i) {
    const dht::Contact leaker = contact(16, 0, 0, i);
    StreamEvent q;
    q.kind = StreamEvent::Kind::bt_queried;
    q.contact = leaker;
    events.push_back(q);
    StreamEvent l;
    l.kind = StreamEvent::Kind::bt_leak;
    l.contact = leaker;
    l.internal = shared;
    events.push_back(l);
    l.internal = contact(10, 0, 1, i);
    events.push_back(l);
    StreamEvent p;
    p.kind = StreamEvent::Kind::bt_ping_response;
    p.contact = leaker;
    events.push_back(p);
  }
  for (std::uint8_t i = 0; i < 12; ++i) {
    StreamEvent e;
    e.kind = StreamEvent::Kind::nz_session;
    e.session = session(1, i, static_cast<std::uint8_t>(i % 7), true);
    events.push_back(e);
  }
  for (std::size_t i = 0; i < events.size(); ++i)
    events[i].time = static_cast<double>(i + 1);
  return events;
}

/// Raw client socket for hand-crafted (including malformed) frames.
class RawIngestClient {
 public:
  explicit RawIngestClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    EXPECT_EQ(
        ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr),
        0);
  }
  ~RawIngestClient() { close(); }

  void close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  void send_bytes(std::string_view bytes) {
    ASSERT_GT(::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL), 0);
  }

  /// Reads until the peer closes (or times out); returns everything.
  std::string drain() {
    std::string out;
    char buf[1024];
    timeval tv{};
    tv.tv_sec = 5;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n <= 0) break;
      out.append(buf, static_cast<std::size_t>(n));
    }
    return out;
  }

 private:
  int fd_ = -1;
};

std::string hello_frame(const std::string& campaign,
                        observatory::IngestOverloadPolicy policy =
                            observatory::IngestOverloadPolicy::park,
                        std::uint64_t world_seed = 1,
                        std::uint64_t plan_hash = 2,
                        std::uint32_t proto = observatory::
                            kIngestProtocolVersion) {
  super::wire::Writer w;
  w.u32(proto);
  w.str(campaign);
  w.u8(static_cast<std::uint8_t>(policy));
  w.u64(world_seed);
  w.u64(plan_hash);
  return observatory::ingest_frame(IngestFrameType::hello, w.bytes());
}

std::string event_frame(std::uint64_t seq, const StreamEvent& e) {
  super::wire::Writer w;
  w.u64(seq);
  observatory::put_stream_event(w, e);
  return observatory::ingest_frame(IngestFrameType::event, w.bytes());
}

/// Polls `cond` for up to 5 seconds.
template <typename F>
bool eventually(F cond) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return cond();
}

// --- wire codec -------------------------------------------------------------

TEST(ObservatoryIngestCodec, StreamEventRoundTripsEveryKind) {
  std::vector<StreamEvent> events = synthetic_stream();
  for (const StreamEvent& in : events) {
    super::wire::Writer w;
    observatory::put_stream_event(w, in);
    super::wire::Reader r(w.bytes());
    StreamEvent out;
    ASSERT_TRUE(observatory::get_stream_event(r, out));
    EXPECT_TRUE(r.done());
    EXPECT_EQ(out.kind, in.kind);
    EXPECT_EQ(out.time, in.time);
    // Re-encoding must reproduce the exact bytes (the byte-identity
    // contract rides on this).
    super::wire::Writer w2;
    observatory::put_stream_event(w2, out);
    EXPECT_EQ(w.bytes(), w2.bytes());
  }
}

TEST(ObservatoryIngestCodec, RejectsUnknownEventKind) {
  super::wire::Writer w;
  w.u8(observatory::kStreamEventKindMax + 1);
  w.f64(1.0);
  super::wire::Reader r(w.bytes());
  StreamEvent out;
  EXPECT_FALSE(observatory::get_stream_event(r, out));
}

TEST(ObservatoryIngestCodec, CampaignReportRoundTrips) {
  super::CampaignReport in;
  in.shards.resize(3);
  in.shards[0].status = super::ShardStatus::completed;
  in.shards[0].attempts = 1;
  in.shards[0].elapsed_s = 0.25;
  in.shards[1].status = super::ShardStatus::recovered;
  in.shards[1].attempts = 2;
  in.shards[1].error = "transient";
  in.shards[2].status = super::ShardStatus::quarantined;
  in.shards[2].attempts = 3;
  in.shards[2].error = "boom";

  super::wire::Writer w;
  observatory::put_campaign_report(w, in);
  super::wire::Reader r(w.bytes());
  super::CampaignReport out;
  ASSERT_TRUE(observatory::get_campaign_report(r, out));
  EXPECT_TRUE(r.done());
  ASSERT_EQ(out.shards.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(out.shards[i].status, in.shards[i].status);
    EXPECT_EQ(out.shards[i].attempts, in.shards[i].attempts);
    EXPECT_EQ(out.shards[i].elapsed_s, in.shards[i].elapsed_s);
    EXPECT_EQ(out.shards[i].error, in.shards[i].error);
  }
}

TEST(ObservatoryIngestCodec, CampaignReportRejectsUnknownShardStatus) {
  // quarantined is the last ShardStatus; anything past it (including the
  // retired deadline_aborted byte 5) is a malformed report.
  super::wire::Writer w;
  w.u32(1);
  w.u8(static_cast<std::uint8_t>(super::ShardStatus::quarantined) + 1);
  w.u32(1);
  w.f64(0.0);
  w.str("");
  super::wire::Reader r(w.bytes());
  super::CampaignReport out;
  EXPECT_FALSE(observatory::get_campaign_report(r, out));
}

TEST(ObservatoryIngestCodec, FrameHeaderChecksumsPayload) {
  const std::string frame =
      observatory::ingest_frame(IngestFrameType::done, "xyz");
  ASSERT_EQ(frame.size(), observatory::kIngestHeaderBytes + 4);
  super::wire::Reader r(frame);
  EXPECT_EQ(r.u32(), observatory::kIngestMagic);
  EXPECT_EQ(r.u32(), 4u);
  const std::uint64_t sum = r.u64();
  EXPECT_EQ(sum, super::wire::fnv1a(frame.substr(
                     observatory::kIngestHeaderBytes)));
}

// --- malformed-frame corpus over a real socket ------------------------------

class ObservatoryIngestServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    routes_ = two_as_routes();
    obs_ = std::make_unique<observatory::Observatory>(routes_, registry_);
    observatory::IngestConfig cfg;
    cfg.queue_capacity = 4;
    std::string error;
    ASSERT_TRUE(obs_->serve_ingest(0, cfg, &error)) << error;
    server_ = obs_->ingest_server();
  }

  /// The same events through the in-process default channel of a second
  /// observatory over the same routes: what every push must converge on.
  std::map<std::string, analysis::Figures> truth_sets(
      const std::vector<StreamEvent>& events) {
    observatory::Observatory truth_obs(routes_, registry_);
    truth_obs.add_stream_total(events.size());
    for (const StreamEvent& e : events) truth_obs.ingest(e);
    truth_obs.note_stream_done();
    return truth_obs.figure_sets();
  }

  [[nodiscard]] observatory::PushClientConfig client_config(
      const std::string& campaign) const {
    observatory::PushClientConfig cfg;
    cfg.port = obs_->ingest_port();
    cfg.campaign = campaign;
    cfg.world_seed = 1;
    cfg.plan_hash = 2;
    return cfg;
  }

  RoutingTable routes_;
  netcore::AsRegistry registry_;
  std::unique_ptr<observatory::Observatory> obs_;
  observatory::IngestServer* server_ = nullptr;
};

TEST_F(ObservatoryIngestServerTest, MalformedFrameCorpusIsFullyAccounted) {
  const observatory::IngestStats before = server_->stats();

  {  // truncated header: half a length prefix, then EOF
    RawIngestClient c(obs_->ingest_port());
    c.send_bytes(std::string("\x43\x47\x4e\x49\x10", 5));
    c.close();
  }
  {  // bad magic
    RawIngestClient c(obs_->ingest_port());
    c.send_bytes(std::string(observatory::kIngestHeaderBytes, 'Z'));
    c.drain();
  }
  {  // giant declared length must be rejected without allocating
    super::wire::Writer h;
    h.u32(observatory::kIngestMagic);
    h.u32(0x7fffffff);
    h.u64(0);
    RawIngestClient c(obs_->ingest_port());
    c.send_bytes(h.bytes());
    c.drain();
  }
  {  // mid-payload EOF
    const std::string frame = hello_frame("corpus");
    RawIngestClient c(obs_->ingest_port());
    c.send_bytes(std::string_view(frame).substr(0, frame.size() - 3));
    c.close();
  }
  {  // bad checksum: flip one payload byte, connection must survive and a
     // correct hello on the same connection must then be accepted
    std::string frame = hello_frame("corpus");
    frame.back() = static_cast<char>(frame.back() ^ 0x01);
    RawIngestClient c(obs_->ingest_port());
    c.send_bytes(frame);
    c.send_bytes(hello_frame("corpus"));
    ASSERT_TRUE(eventually([&] {
      return server_->stats().frames_accepted >= before.frames_accepted + 1;
    }));
  }
  {  // unknown frame type
    RawIngestClient c(obs_->ingest_port());
    c.send_bytes(hello_frame("corpus"));
    c.send_bytes(observatory::ingest_frame(
        static_cast<IngestFrameType>(99), "?"));
    ASSERT_TRUE(eventually(
        [&] { return server_->stats().unknown_type == before.unknown_type + 1; }));
  }
  {  // duplicate + out-of-order sequence numbers
    std::vector<StreamEvent> events = synthetic_stream();
    RawIngestClient c(obs_->ingest_port());
    c.send_bytes(hello_frame("corpus"));
    c.send_bytes(event_frame(0, events[0]));
    c.send_bytes(event_frame(0, events[0]));   // duplicate: replayed
    c.send_bytes(event_frame(17, events[1]));  // gap: rejected
    ASSERT_TRUE(eventually([&] {
      const observatory::IngestStats s = server_->stats();
      return s.events_replayed == before.events_replayed + 1 &&
             s.seq_gap == before.seq_gap + 1;
    }));
  }

  const observatory::IngestStats after = server_->stats();
  EXPECT_EQ(after.truncated, before.truncated + 2)
      << "half header + mid-payload EOF";
  EXPECT_EQ(after.bad_magic, before.bad_magic + 1);
  EXPECT_EQ(after.bad_length, before.bad_length + 1);
  EXPECT_EQ(after.bad_checksum, before.bad_checksum + 1);
  EXPECT_EQ(after.unknown_type, before.unknown_type + 1);
  EXPECT_EQ(after.seq_gap, before.seq_gap + 1);
  EXPECT_EQ(after.events_replayed, before.events_replayed + 1);
  EXPECT_EQ(after.rejected_total(), before.rejected_total() + 7)
      << "every rejected frame lands in exactly one counter";

  // The daemon itself stays healthy through all of it.
  const observatory::HttpResponse health = obs_->handle("/health");
  EXPECT_EQ(health.status, 200);
  EXPECT_NE(health.body.find("\"push\":{"), std::string::npos) << health.body;
  EXPECT_NE(health.body.find("\"rejected_total\":7"), std::string::npos)
      << health.body;
}

TEST_F(ObservatoryIngestServerTest, HelloIdentityMismatchIsRejected) {
  {
    RawIngestClient c(obs_->ingest_port());
    c.send_bytes(hello_frame("bound", observatory::IngestOverloadPolicy::park,
                             /*world_seed=*/1, /*plan_hash=*/2));
    ASSERT_TRUE(
        eventually([&] { return server_->stats().frames_accepted >= 1; }));
  }
  RawIngestClient c(obs_->ingest_port());
  c.send_bytes(hello_frame("bound", observatory::IngestOverloadPolicy::park,
                           /*world_seed=*/9, /*plan_hash=*/9));
  ASSERT_TRUE(
      eventually([&] { return server_->stats().identity_rejected == 1; }));
  EXPECT_NE(c.drain().find("different world"), std::string::npos);
}

TEST_F(ObservatoryIngestServerTest, ParkBackpressureBoundsTheQueue) {
  server_->set_drain_paused(true);
  const std::vector<StreamEvent> events = synthetic_stream();

  observatory::PushClientConfig cfg;
  cfg.port = obs_->ingest_port();
  cfg.campaign = "park";
  cfg.world_seed = 1;
  cfg.plan_hash = 2;
  observatory::PushClient client(cfg);
  client.connect();
  std::thread pusher([&] {
    client.add_stream_total(events.size());
    for (const StreamEvent& e : events) client.ingest(e);
    client.flush();
  });

  // The queue must cap at its capacity (4) while the connection parks.
  ASSERT_TRUE(eventually([&] { return server_->stats().parks > 0; }));
  EXPECT_LE(server_->stats().queue_depth, 4u);
  EXPECT_LE(server_->stats().max_queue_depth, 4u);

  server_->set_drain_paused(false);
  pusher.join();
  client.note_stream_done();  // blocks until the drain applied everything
  EXPECT_EQ(obs_->events_ingested("park"), events.size());
  EXPECT_TRUE(obs_->stream_done("park"));
  EXPECT_EQ(server_->stats().events_ingested, events.size());
  EXPECT_GT(client.parks_seen(), 0u);
}

TEST_F(ObservatoryIngestServerTest, ShedPolicyDropsDeterministicallyAndCounts) {
  server_->set_drain_paused(true);
  const std::vector<StreamEvent> events = synthetic_stream();

  observatory::PushClientConfig cfg;
  cfg.port = obs_->ingest_port();
  cfg.campaign = "shed";
  cfg.policy = observatory::IngestOverloadPolicy::shed;
  cfg.world_seed = 1;
  cfg.plan_hash = 2;
  observatory::PushClient client(cfg);
  client.connect();
  client.add_stream_total(events.size());
  for (const StreamEvent& e : events) client.ingest(e);
  client.flush();

  // Wait for the connection thread to consume everything it was sent.
  ASSERT_TRUE(eventually(
      [&] { return server_->cursor("shed") == events.size(); }));
  observatory::IngestStats st = server_->stats();
  EXPECT_EQ(st.events_enqueued + st.shed_total, events.size())
      << "every accepted event is either queued or counted shed";
  EXPECT_EQ(st.events_enqueued, 4u) << "bounded by queue capacity";
  std::uint64_t by_kind = 0;
  for (const std::uint64_t n : st.shed_by_kind) by_kind += n;
  EXPECT_EQ(by_kind, st.shed_total) << "per-kind shed counters must add up";

  server_->set_drain_paused(false);
  ASSERT_TRUE(eventually([&] {
    const observatory::IngestStats s = server_->stats();
    return s.events_ingested == s.events_enqueued;
  }));
  // Shed events advanced the cursor: the client is never asked to resend.
  EXPECT_EQ(server_->cursor("shed"), events.size());
}

TEST_F(ObservatoryIngestServerTest, ReportAndDoneWaitForRoom) {
  const std::vector<StreamEvent> events = synthetic_stream();
  for (const auto policy : {observatory::IngestOverloadPolicy::park,
                            observatory::IngestOverloadPolicy::shed}) {
    const std::string campaign =
        policy == observatory::IngestOverloadPolicy::park ? "room_park"
                                                          : "room_shed";
    server_->set_drain_paused(true);
    observatory::PushClientConfig cfg = client_config(campaign);
    cfg.policy = policy;
    observatory::PushClient client(cfg);
    client.connect();
    std::thread pusher([&] {
      // Exactly the queue's capacity (4) of events: none parks or sheds,
      // the queue is full when the report arrives.
      for (std::size_t i = 0; i < 4; ++i) client.ingest(events[i]);
      client.note_campaign_report("crawl_ping", super::CampaignReport{});
      client.note_stream_done();
    });
    ASSERT_TRUE(eventually([&] { return server_->cursor(campaign) == 4; }));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_LE(server_->stats().max_queue_depth, 4u)
        << campaign << ": a report must wait for room, not overshoot";

    server_->set_drain_paused(false);
    pusher.join();
    EXPECT_TRUE(obs_->stream_done(campaign));
  }
  const observatory::IngestStats st = server_->stats();
  EXPECT_LE(st.max_queue_depth, 4u);
  EXPECT_EQ(st.parks, 0u) << "only events park with a park frame";
  EXPECT_EQ(st.shed_total, 0u) << "a report or done is never shed";
}

TEST_F(ObservatoryIngestServerTest, StopWakesReportWaitingForRoom) {
  server_->set_drain_paused(true);
  const std::vector<StreamEvent> events = synthetic_stream();
  observatory::PushClient client(client_config("stopped"));
  client.connect();
  for (std::size_t i = 0; i < 4; ++i) client.ingest(events[i]);
  client.note_campaign_report("crawl_ping", super::CampaignReport{});
  ASSERT_TRUE(eventually([&] { return server_->cursor("stopped") == 4; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // The report's connection thread now waits on the full queue; stop()
  // must wake it rather than wait out the 30 s receive timeout.
  const auto t0 = std::chrono::steady_clock::now();
  server_->stop();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(2));
}

TEST_F(ObservatoryIngestServerTest, ReconnectResumeReproducesFigures) {
  const std::vector<StreamEvent> events = synthetic_stream();

  const std::map<std::string, analysis::Figures> truth = truth_sets(events);

  observatory::PushClientConfig cfg;
  cfg.port = obs_->ingest_port();
  cfg.campaign = "resume";
  cfg.world_seed = 1;
  cfg.plan_hash = 2;
  cfg.faults.disconnect_after_bytes = 700;  // dies mid-stream, mid-frame
  bool died = false;
  try {
    observatory::PushClient client(cfg);
    client.connect();
    client.add_stream_total(events.size());
    for (const StreamEvent& e : events) client.ingest(e);
    client.note_stream_done();
  } catch (const observatory::IngestError&) {
    died = true;
  }
  ASSERT_TRUE(died) << "the injected disconnect must fire mid-stream";

  // Second attempt: clean connection, deterministic replay from scratch;
  // the client skips below the server's cursor.
  cfg.faults = {};
  observatory::PushClient client(cfg);
  client.connect();
  EXPECT_GT(client.resume_cursor(), 0u) << "server must hand back progress";
  client.add_stream_total(events.size());
  for (const StreamEvent& e : events) client.ingest(e);
  client.note_stream_done();
  EXPECT_EQ(client.events_skipped(), client.resume_cursor());

  EXPECT_TRUE(obs_->stream_done("resume"));
  EXPECT_EQ(obs_->events_ingested("resume"), events.size());
  EXPECT_EQ(obs_->figure_sets("resume"), truth)
      << "kill + resume must converge on byte-identical figures";

  // The per-campaign figures are served at /figures/<name>.
  const observatory::HttpResponse resp = obs_->handle("/figures/resume");
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("\"stream_done\":true"), std::string::npos);
  EXPECT_EQ(obs_->handle("/figures/nope").status, 404);
}

TEST_F(ObservatoryIngestServerTest, ResumeCursorCountsOnlyQueuedEvents) {
  const std::vector<StreamEvent> events = synthetic_stream();
  const std::map<std::string, analysis::Figures> truth = truth_sets(events);
  server_->set_drain_paused(true);
  {
    // The feeder dies while its fifth event is parked on the full queue.
    RawIngestClient c(obs_->ingest_port());
    c.send_bytes(hello_frame("parked"));
    for (std::uint64_t seq = 0; seq < 5; ++seq)
      c.send_bytes(event_frame(seq, events[seq]));
    ASSERT_TRUE(eventually([&] { return server_->stats().parks == 1; }));
    c.close();
  }
  observatory::PushClient client(client_config("parked"));
  client.connect();
  EXPECT_EQ(client.resume_cursor(), server_->stats().queue_depth)
      << "the cursor must not count the event parked in the dead "
         "connection's thread";

  server_->set_drain_paused(false);
  client.add_stream_total(events.size());
  for (const StreamEvent& e : events) client.ingest(e);
  client.note_stream_done();
  EXPECT_EQ(obs_->figure_sets("parked"), truth)
      << "the parked event must be applied exactly once, before done";
}

TEST_F(ObservatoryIngestServerTest, MultiCampaignStreamsStayIndependent) {
  const std::vector<StreamEvent> events = synthetic_stream();
  auto push = [&](const std::string& campaign, std::size_t take) {
    observatory::PushClientConfig cfg;
    cfg.port = obs_->ingest_port();
    cfg.campaign = campaign;
    cfg.world_seed = 1;
    cfg.plan_hash = 2;
    observatory::PushClient client(cfg);
    client.connect();
    client.add_stream_total(take);
    for (std::size_t i = 0; i < take; ++i) client.ingest(events[i]);
    client.note_stream_done();
  };
  std::thread a([&] { push("alpha", events.size()); });
  std::thread b([&] { push("beta", events.size() / 2); });
  a.join();
  b.join();
  EXPECT_EQ(obs_->events_ingested("alpha"), events.size());
  EXPECT_EQ(obs_->events_ingested("beta"), events.size() / 2);
  EXPECT_NE(obs_->figure_sets("alpha"), obs_->figure_sets("beta"));
  obs_->drop_campaign("beta");
  EXPECT_EQ(obs_->handle("/figures/beta").status, 404);
  EXPECT_EQ(obs_->handle("/figures/alpha").status, 200);
}

TEST_F(ObservatoryIngestServerTest, DroppedCampaignCanBePushedAgain) {
  const std::vector<StreamEvent> events = synthetic_stream();
  const std::map<std::string, analysis::Figures> truth = truth_sets(events);
  for (int round = 0; round < 3; ++round) {
    // Round 1 pushes the same world again, round 2 binds a new one: the
    // dropped campaign's cursor and its identity must both be gone.
    observatory::PushClientConfig cfg = client_config("again");
    if (round == 2) cfg.world_seed = 7;
    observatory::PushClient client(cfg);
    client.connect();
    EXPECT_EQ(client.resume_cursor(), 0u) << "round " << round;
    client.add_stream_total(events.size());
    for (const StreamEvent& e : events) client.ingest(e);
    client.note_stream_done();
    EXPECT_EQ(obs_->figure_sets("again"), truth) << "round " << round;
    obs_->drop_campaign("again");
    EXPECT_EQ(server_->cursor("again"), 0u) << "round " << round;
  }
  EXPECT_EQ(server_->stats().identity_rejected, 0u);
}

// --- batched wire contract -------------------------------------------------

TEST_F(ObservatoryIngestServerTest, FramesSplitAcrossRecvsReproduceFigures) {
  const std::vector<StreamEvent> events = synthetic_stream();
  const std::map<std::string, analysis::Figures> truth = truth_sets(events);
  // 1-byte writes split every header and payload across recv() calls; 7-byte
  // writes also end chunks mid-header with the next frame's bytes behind.
  for (const std::size_t max_write : {std::size_t{1}, std::size_t{7}}) {
    const std::string campaign = "split" + std::to_string(max_write);
    observatory::PushClientConfig cfg = client_config(campaign);
    cfg.faults.max_write_bytes = max_write;
    observatory::PushClient client(cfg);
    client.connect();
    client.add_stream_total(events.size());
    for (const StreamEvent& e : events) client.ingest(e);
    client.note_stream_done();
    EXPECT_EQ(obs_->figure_sets(campaign), truth) << campaign;
  }
  EXPECT_EQ(server_->stats().rejected_total(), 0u);
}

TEST_F(ObservatoryIngestServerTest, ControlFrameFlushesBufferedEvents) {
  const std::vector<StreamEvent> events = synthetic_stream();
  observatory::PushClient client(client_config("report"));
  client.connect();
  for (const StreamEvent& e : events) client.ingest(e);
  client.note_campaign_report("crawl_ping", super::CampaignReport{});
  EXPECT_TRUE(eventually(
      [&] { return server_->cursor("report") == events.size(); }))
      << "a report must send the events buffered before it, without done";
}

TEST_F(ObservatoryIngestServerTest, AgeBoundFlushesWithoutExplicitFlush) {
  const std::vector<StreamEvent> events = synthetic_stream();
  observatory::PushClient client(client_config("age"));
  client.connect();
  client.ingest(events[0]);
  std::this_thread::sleep_for(4 * observatory::kPushBatchMaxAge);
  client.ingest(events[1]);
  EXPECT_TRUE(eventually([&] { return server_->cursor("age") == 2; }))
      << "an ingest() after the age bound must send the whole batch";
}

TEST_F(ObservatoryIngestServerTest, DoneOnEmptyStreamGetsItsReply) {
  // connect() and note_stream_done() each wait for a reply; sending a frame
  // must never consume the reply the following wait is for.
  observatory::PushClientConfig cfg = client_config("empty");
  cfg.reply_timeout_ms = 2000;
  observatory::PushClient client(cfg);
  client.connect();
  EXPECT_NO_THROW(client.note_stream_done());
  EXPECT_TRUE(obs_->stream_done("empty"));
}

TEST_F(ObservatoryIngestServerTest, StopReturnsPromptlyWithIdleClient) {
  // Connection churn recycles fd numbers. A finished connection must never
  // drop a live one's bookkeeping, or stop() cannot shut the live one down
  // and waits out its 30 s receive timeout. Room for every churned
  // connection, so none is refused for the connection cap.
  obs_->stop_ingest();
  observatory::IngestConfig cfg;
  cfg.max_connections = 128;
  std::string error;
  ASSERT_TRUE(obs_->serve_ingest(0, cfg, &error)) << error;
  server_ = obs_->ingest_server();

  std::unique_ptr<RawIngestClient> idle;
  for (int i = 0; i < 100; ++i) {
    RawIngestClient churn(obs_->ingest_port());
    if (i == 50) {
      idle = std::make_unique<RawIngestClient>(obs_->ingest_port());
      idle->send_bytes(hello_frame("idle"));
    }
  }
  ASSERT_TRUE(
      eventually([&] { return server_->stats().frames_accepted >= 1; }));
  const auto t0 = std::chrono::steady_clock::now();
  server_->stop();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(2));
}

// --- hardened HTTP parsing --------------------------------------------------

class ObservatoryHttpHardeningTest : public ::testing::Test {
 protected:
  void start(observatory::HttpServerConfig cfg = {}) {
    std::string error;
    ASSERT_TRUE(server_.start(
        0,
        [this](const std::string& path) {
          observatory::HttpResponse r;
          r.body = path == "/big" ? big_body_ : "ok:" + path;
          return r;
        },
        &error, cfg))
        << error;
  }

  observatory::HttpServer server_;
  std::string big_body_ = std::string(4 << 20, 'x');
};

TEST_F(ObservatoryHttpHardeningTest, OversizedRequestHeadGets431) {
  observatory::HttpServerConfig cfg;
  cfg.max_request_bytes = 512;
  start(cfg);
  RawIngestClient c(server_.port());
  c.send_bytes("GET /" + std::string(2048, 'a'));
  EXPECT_NE(c.drain().find("431"), std::string::npos);
}

TEST_F(ObservatoryHttpHardeningTest, EmbeddedNulGets400) {
  start();
  RawIngestClient c(server_.port());
  c.send_bytes(std::string("GET /he\0alth HTTP/1.0\r\n\r\n", 25));
  EXPECT_NE(c.drain().find("400"), std::string::npos);
}

TEST_F(ObservatoryHttpHardeningTest, RequestBodyGets413) {
  start();
  RawIngestClient c(server_.port());
  c.send_bytes("GET /health HTTP/1.0\r\nContent-Length: 4\r\n\r\nabcd");
  EXPECT_NE(c.drain().find("413"), std::string::npos);
}

TEST_F(ObservatoryHttpHardeningTest, SlowLorisGets408OnRecvTimeout) {
  observatory::HttpServerConfig cfg;
  cfg.recv_timeout_ms = 200;  // pins SO_RCVTIMEO: the stall must 408 fast
  start(cfg);
  RawIngestClient c(server_.port());
  c.send_bytes("GET /hea");  // never finishes the request line
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_NE(c.drain().find("408"), std::string::npos);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(3));
}

TEST_F(ObservatoryHttpHardeningTest, BareRequestLineIsStillServed) {
  start();
  RawIngestClient c(server_.port());
  c.send_bytes("GET /metrics\n");
  EXPECT_NE(c.drain().find("ok:/metrics"), std::string::npos);
}

TEST_F(ObservatoryHttpHardeningTest, LargeBodySurvivesPartialSends) {
  start();
  RawIngestClient c(server_.port());
  c.send_bytes("GET /big HTTP/1.0\r\n\r\n");
  const std::string got = c.drain();
  const std::size_t body_at = got.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  EXPECT_EQ(got.size() - body_at - 4, big_body_.size())
      << "send() short writes must not truncate the body";
}

}  // namespace
}  // namespace cgn
