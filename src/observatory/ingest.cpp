#include "observatory/ingest.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "scenario/result_codec.hpp"

namespace cgn::observatory {

namespace {

constexpr const char* kQueueDepthProbe = "observatory.ingest.queue_depth";
constexpr const char* kShedTotalProbe = "observatory.ingest.shed_total";
constexpr const char* kRejectedProbe = "observatory.ingest.rejected_total";
constexpr const char* kMaxLagProbe = "observatory.ingest.max_lag";

enum class ReadStatus : std::uint8_t {
  ok,
  closed,     ///< EOF before the first byte (clean disconnect)
  truncated,  ///< EOF or hard error mid-read
  timed_out,  ///< SO_RCVTIMEO fired (slow loris)
};

/// A connection's receive buffer: one recv() takes as many frames as the
/// kernel holds, and frames are parsed in place.
class RecvBuffer {
 public:
  /// Buffers at least `n` unread bytes, riding out EINTR and partial reads.
  /// `closed` means EOF or an error with nothing unread.
  ReadStatus fill(int fd, std::size_t n) {
    if (end_ - begin_ >= n) return ReadStatus::ok;
    // Move the unread tail to the front; grow only to what the caller
    // asked for (it has bounded `n`) or one read-ahead chunk.
    std::memmove(buf_.data(), buf_.data() + begin_, end_ - begin_);
    end_ -= begin_;
    begin_ = 0;
    if (buf_.size() < std::max(n, kReadAhead))
      buf_.resize(std::max(n, kReadAhead));
    while (end_ < n) {
      const ssize_t k = ::recv(fd, buf_.data() + end_, buf_.size() - end_, 0);
      if (k > 0) {
        end_ += static_cast<std::size_t>(k);
        continue;
      }
      if (k < 0 && errno == EINTR) continue;
      if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
        return ReadStatus::timed_out;
      return end_ == 0 ? ReadStatus::closed : ReadStatus::truncated;
    }
    return ReadStatus::ok;
  }

  /// The first `n` unread bytes; valid until the next fill().
  [[nodiscard]] std::string_view peek(std::size_t n) const {
    return std::string_view(buf_).substr(begin_, n);
  }
  void consume(std::size_t n) { begin_ += n; }

 private:
  static constexpr std::size_t kReadAhead = 64 * 1024;
  std::string buf_;
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
};

/// Frames go out as soon as they are written: the client batches its own
/// events, and a reply the peer waits on must not sit behind Nagle.
void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Best-effort full send; a dead peer surfaces on its next read instead.
bool send_all(int fd, std::string_view data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t k =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (k < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(k);
  }
  return true;
}

/// Appends one frame (header, type byte, body) to `out` in place.
void append_frame(std::string& out, IngestFrameType type,
                  std::string_view body) {
  const std::size_t at = out.size();
  out.resize(at + kIngestHeaderBytes);
  out.push_back(static_cast<char>(type));
  out.append(body);
  const std::string_view payload =
      std::string_view(out).substr(at + kIngestHeaderBytes);
  super::wire::Writer h;
  h.u32(kIngestMagic);
  h.u32(static_cast<std::uint32_t>(payload.size()));
  h.u64(super::wire::fnv1a(payload));
  out.replace(at, kIngestHeaderBytes, h.bytes());
}

bool send_server_frame(int fd, IngestFrameType type,
                       std::string_view body = {}) {
  return send_all(fd, ingest_frame(type, body));
}

bool send_error_frame(int fd, std::string_view message) {
  super::wire::Writer w;
  w.str(message);
  return send_server_frame(fd, IngestFrameType::error, w.bytes());
}

}  // namespace

// --- wire codec -------------------------------------------------------------

std::string ingest_frame(IngestFrameType type, std::string_view body) {
  std::string frame;
  append_frame(frame, type, body);
  return frame;
}

void put_stream_event(super::wire::Writer& w, const StreamEvent& event) {
  w.u8(static_cast<std::uint8_t>(event.kind));
  w.f64(event.time);
  switch (event.kind) {
    case StreamEvent::Kind::bt_queried:
    case StreamEvent::Kind::bt_learned:
    case StreamEvent::Kind::bt_ping_response:
      scenario::codec::put_contact(w, event.contact);
      break;
    case StreamEvent::Kind::bt_leak:
      scenario::codec::put_contact(w, event.contact);
      scenario::codec::put_contact(w, event.internal);
      break;
    case StreamEvent::Kind::nz_session:
      scenario::codec::put_session(w, event.session);
      break;
  }
}

bool get_stream_event(super::wire::Reader& r, StreamEvent& out) {
  const std::uint8_t kind = r.u8();
  if (!r.ok() || kind > kStreamEventKindMax) return false;
  out.kind = static_cast<StreamEvent::Kind>(kind);
  out.time = r.f64();
  switch (out.kind) {
    case StreamEvent::Kind::bt_queried:
    case StreamEvent::Kind::bt_learned:
    case StreamEvent::Kind::bt_ping_response:
      out.contact = scenario::codec::get_contact(r);
      break;
    case StreamEvent::Kind::bt_leak:
      out.contact = scenario::codec::get_contact(r);
      out.internal = scenario::codec::get_contact(r);
      break;
    case StreamEvent::Kind::nz_session:
      out.session = scenario::codec::get_session(r);
      break;
  }
  return r.ok();
}

void put_campaign_report(super::wire::Writer& w,
                         const super::CampaignReport& report) {
  w.u32(static_cast<std::uint32_t>(report.shards.size()));
  for (const super::ShardOutcome& o : report.shards) {
    w.u8(static_cast<std::uint8_t>(o.status));
    w.u32(static_cast<std::uint32_t>(o.attempts));
    w.f64(o.elapsed_s);
    w.str(o.error);
  }
}

bool get_campaign_report(super::wire::Reader& r, super::CampaignReport& out) {
  out.shards.clear();
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    super::ShardOutcome o;
    const std::uint8_t status = r.u8();
    if (status > static_cast<std::uint8_t>(super::ShardStatus::quarantined))
      return false;
    o.status = static_cast<super::ShardStatus>(status);
    o.attempts = static_cast<int>(r.u32());
    o.elapsed_s = r.f64();
    o.error = std::string(r.str());
    out.shards.push_back(std::move(o));
  }
  return r.ok() && out.shards.size() == n;
}

// --- server -----------------------------------------------------------------

IngestServer::IngestServer(Observatory& obs, IngestConfig config)
    : obs_(obs), config_(config) {
  if (config_.queue_capacity == 0) config_.queue_capacity = 1;
  if (config_.max_connections <= 0) config_.max_connections = 1;
}

IngestServer::~IngestServer() { stop(); }

bool IngestServer::start(std::uint16_t port, std::string* error) {
  const auto fail = [&](const std::string& what) {
    if (error) *error = what + ": " + std::strerror(errno);
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    return false;
  };

  if (listen_fd_ >= 0) {
    if (error) *error = "already started";
    return false;
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return fail("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0)
    return fail("bind");
  if (::listen(listen_fd_, SOMAXCONN) != 0) return fail("listen");

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
      0)
    return fail("getsockname");
  port_ = ntohs(bound.sin_port);

  stopping_.store(false, std::memory_order_relaxed);
  auto& reg = obs::MetricsRegistry::global();
  reg.register_probe(kQueueDepthProbe, [this] {
    std::lock_guard<std::mutex> lock(queue_mu_);
    return static_cast<double>(queue_.size());
  });
  reg.register_probe(kShedTotalProbe, [this] {
    return static_cast<double>(shed_total_.load(std::memory_order_relaxed));
  });
  reg.register_probe(kRejectedProbe, [this] {
    return static_cast<double>(stats().rejected_total());
  });
  reg.register_probe(kMaxLagProbe, [this] {
    return static_cast<double>(
        max_queue_depth_.load(std::memory_order_relaxed));
  });
  accept_thread_ = std::thread([this] { accept_loop(); });
  drain_thread_ = std::thread([this] { drain_loop(); });
  return true;
}

void IngestServer::stop() {
  if (listen_fd_ < 0 && !accept_thread_.joinable() &&
      !drain_thread_.joinable())
    return;
  {
    // Under the lock the waiters test `stopping_` with, so none can miss
    // the notify below between its test and its wait.
    std::lock_guard<std::mutex> lock(queue_mu_);
    stopping_.store(true, std::memory_order_relaxed);
  }
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  queue_cv_.notify_all();
  space_cv_.notify_all();
  drain_cv_.notify_all();
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    threads.swap(conn_threads_);
    finished_ids_.clear();
  }
  for (std::thread& t : threads)
    if (t.joinable()) t.join();
  if (drain_thread_.joinable()) drain_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  auto& reg = obs::MetricsRegistry::global();
  reg.unregister_probe(kQueueDepthProbe);
  reg.unregister_probe(kShedTotalProbe);
  reg.unregister_probe(kRejectedProbe);
  reg.unregister_probe(kMaxLagProbe);
}

IngestStats IngestServer::stats() const {
  IngestStats s;
  s.connections = connections_.load(std::memory_order_relaxed);
  s.frames_accepted = frames_accepted_.load(std::memory_order_relaxed);
  s.events_enqueued = events_enqueued_.load(std::memory_order_relaxed);
  s.events_ingested = events_ingested_.load(std::memory_order_relaxed);
  s.events_replayed = events_replayed_.load(std::memory_order_relaxed);
  s.seq_gap = seq_gap_.load(std::memory_order_relaxed);
  s.bad_magic = bad_magic_.load(std::memory_order_relaxed);
  s.bad_length = bad_length_.load(std::memory_order_relaxed);
  s.bad_checksum = bad_checksum_.load(std::memory_order_relaxed);
  s.truncated = truncated_.load(std::memory_order_relaxed);
  s.bad_payload = bad_payload_.load(std::memory_order_relaxed);
  s.unknown_type = unknown_type_.load(std::memory_order_relaxed);
  s.identity_rejected = identity_rejected_.load(std::memory_order_relaxed);
  s.timeouts = timeouts_.load(std::memory_order_relaxed);
  s.parks = parks_.load(std::memory_order_relaxed);
  s.shed_total = shed_total_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < s.shed_by_kind.size(); ++i)
    s.shed_by_kind[i] = shed_by_kind_[i].load(std::memory_order_relaxed);
  s.max_queue_depth = max_queue_depth_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    s.queue_depth = queue_.size();
  }
  return s;
}

std::uint64_t IngestServer::cursor(const std::string& campaign) const {
  std::lock_guard<std::mutex> lock(cursors_mu_);
  const auto it = campaigns_.find(campaign);
  return it == campaigns_.end() ? 0 : it->second->next_seq;
}

void IngestServer::forget_campaign(const std::string& campaign) {
  std::lock_guard<std::mutex> lock(cursors_mu_);
  campaigns_.erase(campaign);
}

void IngestServer::set_drain_paused(bool paused) {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    drain_paused_ = paused;
  }
  queue_cv_.notify_all();
}

void IngestServer::reap_finished_locked() {
  for (const std::thread::id id : finished_ids_) {
    const auto it =
        std::find_if(conn_threads_.begin(), conn_threads_.end(),
                     [&](const std::thread& t) { return t.get_id() == id; });
    if (it == conn_threads_.end()) continue;
    it->join();
    conn_threads_.erase(it);
  }
  finished_ids_.clear();
}

void IngestServer::accept_loop() {
  for (;;) {
    sockaddr_in peer{};
    socklen_t len = sizeof(peer);
    const int fd =
        ::accept(listen_fd_, reinterpret_cast<sockaddr*>(&peer), &len);
    if (stopping_.load(std::memory_order_relaxed)) {
      if (fd >= 0) ::close(fd);
      return;
    }
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;
    }
    timeval tv{};
    tv.tv_sec = config_.recv_timeout_ms / 1000;
    tv.tv_usec = (config_.recv_timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    set_nodelay(fd);

    std::lock_guard<std::mutex> lock(conns_mu_);
    reap_finished_locked();
    if (conn_fds_.size() >=
        static_cast<std::size_t>(config_.max_connections)) {
      ::close(fd);
      continue;
    }
    connections_.fetch_add(1, std::memory_order_relaxed);
    conn_fds_.push_back(fd);
    conn_threads_.emplace_back([this, fd] { handle_connection(fd); });
  }
}

void IngestServer::handle_connection(int fd) {
  std::string campaign;
  // The campaign's cursor entry, held even if forget_campaign() erases it.
  std::shared_ptr<CampaignState> state;
  IngestOverloadPolicy policy = IngestOverloadPolicy::park;
  bool hello_seen = false;
  bool open = true;
  std::uint64_t since_ack = 0;
  RecvBuffer rx;

  while (open && !stopping_.load(std::memory_order_relaxed)) {
    ReadStatus st = rx.fill(fd, kIngestHeaderBytes);
    if (st == ReadStatus::closed) break;
    if (st == ReadStatus::timed_out) {
      timeouts_.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    if (st != ReadStatus::ok) {
      truncated_.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    super::wire::Reader hr(rx.peek(kIngestHeaderBytes));
    const std::uint32_t magic = hr.u32();
    const std::uint32_t frame_len = hr.u32();
    const std::uint64_t checksum = hr.u64();
    if (magic != kIngestMagic) {
      // The byte stream is desynchronized — nothing downstream can be
      // trusted, so the connection dies rather than resynchronize by guess.
      bad_magic_.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    if (frame_len == 0 || frame_len > config_.max_frame_payload) {
      // A giant declared length must never allocate; reject before resize.
      bad_length_.fetch_add(1, std::memory_order_relaxed);
      send_error_frame(fd, "declared payload length out of range");
      break;
    }
    st = rx.fill(fd, kIngestHeaderBytes + frame_len);
    if (st == ReadStatus::timed_out) {
      timeouts_.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    if (st != ReadStatus::ok) {
      truncated_.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    const std::string_view payload =
        rx.peek(kIngestHeaderBytes + frame_len).substr(kIngestHeaderBytes);
    rx.consume(kIngestHeaderBytes + frame_len);
    if (super::wire::fnv1a(payload) != checksum) {
      // Framing is intact (exactly frame_len bytes consumed), so the
      // connection survives a corrupt payload.
      bad_checksum_.fetch_add(1, std::memory_order_relaxed);
      send_error_frame(fd, "payload checksum mismatch");
      continue;
    }

    super::wire::Reader r(payload);
    const auto type = static_cast<IngestFrameType>(r.u8());
    if (!hello_seen && type != IngestFrameType::hello) {
      bad_payload_.fetch_add(1, std::memory_order_relaxed);
      send_error_frame(fd, "first frame must be hello");
      break;
    }
    switch (type) {
      case IngestFrameType::hello: {
        const std::uint32_t proto = r.u32();
        const std::string name(r.str());
        const std::uint8_t pol = r.u8();
        const std::uint64_t world_seed = r.u64();
        const std::uint64_t plan_hash = r.u64();
        if (!r.done() || name.empty() ||
            pol > static_cast<std::uint8_t>(IngestOverloadPolicy::shed)) {
          bad_payload_.fetch_add(1, std::memory_order_relaxed);
          send_error_frame(fd, "malformed hello");
          open = false;
          break;
        }
        if (proto != kIngestProtocolVersion) {
          bad_payload_.fetch_add(1, std::memory_order_relaxed);
          send_error_frame(fd, "unsupported protocol version");
          open = false;
          break;
        }
        std::uint64_t next = 0;
        bool identity_ok = true;
        {
          std::lock_guard<std::mutex> lock(cursors_mu_);
          std::shared_ptr<CampaignState>& slot = campaigns_[name];
          if (!slot) slot = std::make_shared<CampaignState>();
          CampaignState& cs = *slot;
          if (cs.bound &&
              (cs.world_seed != world_seed || cs.plan_hash != plan_hash)) {
            identity_ok = false;
          } else {
            if (!cs.bound) {
              cs.bound = true;
              cs.world_seed = world_seed;
              cs.plan_hash = plan_hash;
            }
            next = cs.next_seq;
            state = slot;
          }
        }
        if (!identity_ok) {
          identity_rejected_.fetch_add(1, std::memory_order_relaxed);
          send_error_frame(fd, "campaign bound to a different world/plan");
          open = false;
          break;
        }
        campaign = name;
        policy = static_cast<IngestOverloadPolicy>(pol);
        hello_seen = true;
        frames_accepted_.fetch_add(1, std::memory_order_relaxed);
        super::wire::Writer w;
        w.u64(next);
        send_server_frame(fd, IngestFrameType::resume, w.bytes());
        break;
      }
      case IngestFrameType::announce: {
        const std::uint64_t total = r.u64();
        if (!r.done()) {
          bad_payload_.fetch_add(1, std::memory_order_relaxed);
          send_error_frame(fd, "malformed announce");
          break;
        }
        frames_accepted_.fetch_add(1, std::memory_order_relaxed);
        obs_.set_stream_total(campaign, total);
        break;
      }
      case IngestFrameType::event: {
        const std::uint64_t seq = r.u64();
        StreamEvent ev;
        if (!get_stream_event(r, ev) || !r.done()) {
          bad_payload_.fetch_add(1, std::memory_order_relaxed);
          send_error_frame(fd, "malformed event");
          break;
        }
        std::uint64_t next = 0;
        {
          std::lock_guard<std::mutex> lock(cursors_mu_);
          next = state->next_seq;
        }
        if (seq > next) {
          seq_gap_.fetch_add(1, std::memory_order_relaxed);
          send_error_frame(fd, "sequence gap");
          break;
        }
        if (seq < next) {
          // Idempotent replay below the cursor (reconnected feeder).
          events_replayed_.fetch_add(1, std::memory_order_relaxed);
          break;
        }
        Item item;
        item.kind = Item::Kind::event;
        item.campaign = campaign;
        item.event = ev;
        if (!enqueue(std::move(item), *state, seq, policy, fd)) {
          open = false;
          break;
        }
        if (++since_ack >= kIngestAckEvery) {
          since_ack = 0;
          super::wire::Writer w;
          w.u64(seq + 1);
          send_server_frame(fd, IngestFrameType::ack, w.bytes());
        }
        break;
      }
      case IngestFrameType::report: {
        Item item;
        item.kind = Item::Kind::report;
        item.campaign = campaign;
        item.report_kind = std::string(r.str());
        if (!get_campaign_report(r, item.report) || !r.done() ||
            item.report_kind.empty()) {
          bad_payload_.fetch_add(1, std::memory_order_relaxed);
          send_error_frame(fd, "malformed report");
          break;
        }
        {
          // A report is never dropped: it waits for room, without a park
          // frame, whatever the connection's policy.
          std::unique_lock<std::mutex> lk(queue_mu_);
          if (!wait_for_room_locked(lk)) {
            open = false;
            break;
          }
          queue_.push_back(std::move(item));
          note_queue_depth_locked();
        }
        queue_cv_.notify_one();
        frames_accepted_.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      case IngestFrameType::done: {
        if (!r.done()) {
          bad_payload_.fetch_add(1, std::memory_order_relaxed);
          send_error_frame(fd, "malformed done");
          break;
        }
        auto gate = std::make_shared<bool>(false);
        Item item;
        item.kind = Item::Kind::done;
        item.campaign = campaign;
        item.done_gate = gate;
        {
          std::unique_lock<std::mutex> lk(queue_mu_);
          if (!wait_for_room_locked(lk)) {  // as for reports
            open = false;
            break;
          }
          queue_.push_back(std::move(item));
          note_queue_depth_locked();
          queue_cv_.notify_all();
          drain_cv_.wait(lk, [&] {
            return stopping_.load(std::memory_order_relaxed) || *gate;
          });
        }
        if (stopping_.load(std::memory_order_relaxed)) {
          open = false;
          break;
        }
        frames_accepted_.fetch_add(1, std::memory_order_relaxed);
        super::wire::Writer w;
        {
          std::lock_guard<std::mutex> lock(cursors_mu_);
          w.u64(state->next_seq);
        }
        send_server_frame(fd, IngestFrameType::ack, w.bytes());
        send_server_frame(fd, IngestFrameType::done_ack);
        break;
      }
      default: {
        unknown_type_.fetch_add(1, std::memory_order_relaxed);
        send_error_frame(fd, "unknown frame type");
        break;
      }
    }
  }

  // Forget the fd before closing it, under the lock stop() shuts fds down
  // with: once closed, accept() may hand the same number to a new
  // connection, whose entry this erase must not take.
  std::lock_guard<std::mutex> lock(conns_mu_);
  conn_fds_.erase(std::remove(conn_fds_.begin(), conn_fds_.end(), fd),
                  conn_fds_.end());
  ::close(fd);
  finished_ids_.push_back(std::this_thread::get_id());
}

bool IngestServer::enqueue(Item item, CampaignState& cs, std::uint64_t seq,
                           IngestOverloadPolicy policy, int fd) {
  std::unique_lock<std::mutex> lk(queue_mu_);
  if (queue_.size() >= config_.queue_capacity &&
      policy == IngestOverloadPolicy::park) {
    parks_.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t depth = queue_.size();
    lk.unlock();
    super::wire::Writer w;
    w.u64(depth);
    send_server_frame(fd, IngestFrameType::park, w.bytes());
    lk.lock();
    if (!wait_for_room_locked(lk)) return false;
  }
  {
    // The cursor moves only here, under queue_mu_ (lock order: queue_mu_,
    // then cursors_mu_), so a resuming client never starts past an event
    // still parked in the thread of a dead connection. Another connection
    // may have queued this seq while this thread was parked.
    std::lock_guard<std::mutex> lock(cursors_mu_);
    if (seq < cs.next_seq) {
      events_replayed_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    cs.next_seq = seq + 1;
  }
  frames_accepted_.fetch_add(1, std::memory_order_relaxed);
  if (queue_.size() >= config_.queue_capacity) {
    // Shed: the event was accepted (its seq advanced the cursor) and is
    // now deliberately dropped — counted per kind so overload degradation
    // is fully accounted, and never retransmitted.
    const auto kind = static_cast<std::size_t>(item.event.kind);
    shed_total_.fetch_add(1, std::memory_order_relaxed);
    if (kind < shed_by_kind_.size())
      shed_by_kind_[kind].fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  queue_.push_back(std::move(item));
  events_enqueued_.fetch_add(1, std::memory_order_relaxed);
  note_queue_depth_locked();
  queue_cv_.notify_one();
  return true;
}

bool IngestServer::wait_for_room_locked(std::unique_lock<std::mutex>& lk) {
  space_cv_.wait(lk, [&] {
    return stopping_.load(std::memory_order_relaxed) ||
           queue_.size() < config_.queue_capacity;
  });
  return !stopping_.load(std::memory_order_relaxed);
}

void IngestServer::note_queue_depth_locked() {
  const auto depth = static_cast<std::uint64_t>(queue_.size());
  std::uint64_t seen = max_queue_depth_.load(std::memory_order_relaxed);
  while (depth > seen &&
         !max_queue_depth_.compare_exchange_weak(seen, depth,
                                                 std::memory_order_relaxed)) {
  }
}

void IngestServer::drain_loop() {
  for (;;) {
    Item item;
    {
      std::unique_lock<std::mutex> lk(queue_mu_);
      queue_cv_.wait(lk, [&] {
        return stopping_.load(std::memory_order_relaxed) ||
               (!queue_.empty() && !drain_paused_);
      });
      if (stopping_.load(std::memory_order_relaxed)) return;
      item = std::move(queue_.front());
      queue_.pop_front();
    }
    space_cv_.notify_one();
    switch (item.kind) {
      case Item::Kind::event:
        obs_.ingest(item.campaign, item.event);
        events_ingested_.fetch_add(1, std::memory_order_relaxed);
        break;
      case Item::Kind::report:
        obs_.note_campaign_report(item.campaign, item.report_kind,
                                  item.report);
        break;
      case Item::Kind::done:
        obs_.note_stream_done(item.campaign);
        {
          std::lock_guard<std::mutex> lk(queue_mu_);
          *item.done_gate = true;
        }
        drain_cv_.notify_all();
        break;
    }
  }
}

// --- client -----------------------------------------------------------------

PushClient::PushClient(PushClientConfig config) : config_(std::move(config)) {}

PushClient::~PushClient() { close(); }

void PushClient::connect() {
  if (fd_ >= 0) throw IngestError("already connected");
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0)
    throw IngestError(std::string("socket: ") + std::strerror(errno));
  set_nodelay(fd_);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    close();
    throw IngestError("bad host: " + config_.host);
  }
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const std::string why = std::strerror(errno);
    close();
    throw IngestError("connect 127.0.0.1:" + std::to_string(config_.port) +
                      ": " + why);
  }
  next_seq_ = 0;
  resume_cursor_ = 0;
  done_acked_ = false;
  rxbuf_.clear();

  super::wire::Writer w;
  w.u32(kIngestProtocolVersion);
  w.str(config_.campaign);
  w.u8(static_cast<std::uint8_t>(config_.policy));
  w.u64(config_.world_seed);
  w.u64(config_.plan_hash);
  send_frame(IngestFrameType::hello, w.bytes());
  const IngestFrameType want = IngestFrameType::resume;
  pump_incoming(&want);
}

void PushClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  txbuf_.clear();
}

void PushClient::flush() {
  if (txbuf_.empty()) return;
  raw_send(txbuf_.data(), txbuf_.size());
  txbuf_.clear();
}

void PushClient::add_stream_total(std::uint64_t n) {
  announced_ += n;
  super::wire::Writer w;
  w.u64(announced_);
  send_frame(IngestFrameType::announce, w.bytes());
}

void PushClient::ingest(const StreamEvent& event) {
  const std::uint64_t seq = next_seq_++;
  if (seq < resume_cursor_) {
    // The server already has this event from a previous connection; the
    // deterministic replay just counts it off.
    ++events_skipped_;
    return;
  }
  super::wire::Writer w;
  w.u64(seq);
  put_stream_event(w, event);
  send_frame(IngestFrameType::event, w.bytes());
  ++events_sent_;
  if (txbuf_.size() >= kPushBatchBytes ||
      std::chrono::steady_clock::now() - txbuf_since_ >= kPushBatchMaxAge) {
    flush();
    pump_incoming(nullptr);
  }
}

void PushClient::note_stream_done() {
  send_frame(IngestFrameType::done, {});
  const IngestFrameType want = IngestFrameType::done_ack;
  pump_incoming(&want);
}

void PushClient::note_campaign_report(const std::string& kind,
                                      const super::CampaignReport& report) {
  super::wire::Writer w;
  w.str(kind);
  put_campaign_report(w, report);
  send_frame(IngestFrameType::report, w.bytes());
}

void PushClient::send_frame(IngestFrameType type, std::string_view body) {
  if (fd_ < 0) throw IngestError("not connected");
  if (txbuf_.empty()) txbuf_since_ = std::chrono::steady_clock::now();
  append_frame(txbuf_, type, body);
  // A control frame goes out at once, with every event buffered before it:
  // a cut then surfaces in the call that sent it, and the server sees the
  // frame the caller is about to wait on.
  if (type != IngestFrameType::event) flush();
}

void PushClient::raw_send(const char* data, std::size_t n) {
  const fault::SocketFaultProfile& f = config_.faults;
  while (n > 0) {
    if (f.disconnect_after_bytes != 0 &&
        bytes_sent_ >= f.disconnect_after_bytes) {
      close();
      throw IngestError("fault injection: disconnect after " +
                        std::to_string(f.disconnect_after_bytes) + " bytes");
    }
    std::size_t chunk = n;
    if (f.max_write_bytes != 0) chunk = std::min(chunk, f.max_write_bytes);
    if (f.disconnect_after_bytes != 0)
      chunk = std::min(chunk, static_cast<std::size_t>(
                                  f.disconnect_after_bytes - bytes_sent_));
    const ssize_t k = ::send(fd_, data, chunk, MSG_NOSIGNAL);
    if (k < 0) {
      if (errno == EINTR) continue;
      const std::string why = std::strerror(errno);
      close();
      throw IngestError("send: " + why);
    }
    bytes_sent_ += static_cast<std::uint64_t>(k);
    data += k;
    n -= static_cast<std::size_t>(k);
    if (f.write_delay_us > 0 && n > 0)
      ::usleep(static_cast<useconds_t>(f.write_delay_us));
  }
}

void PushClient::apply_server_frame(IngestFrameType type,
                                    std::string_view body) {
  super::wire::Reader r(body);
  switch (type) {
    case IngestFrameType::resume:
      resume_cursor_ = r.u64();
      break;
    case IngestFrameType::ack:
      acked_ = r.u64();
      break;
    case IngestFrameType::park:
      ++parks_;
      break;
    case IngestFrameType::done_ack:
      done_acked_ = true;
      break;
    case IngestFrameType::error: {
      const std::string message(r.str());
      close();
      throw IngestError("server: " +
                        (message.empty() ? "unspecified error" : message));
    }
    default:
      close();
      throw IngestError("unexpected server frame type " +
                        std::to_string(static_cast<int>(type)));
  }
}

void PushClient::pump_incoming(const IngestFrameType* until) {
  for (;;) {
    // Parse every complete frame already buffered.
    while (rxbuf_.size() >= kIngestHeaderBytes) {
      super::wire::Reader hr(
          std::string_view(rxbuf_).substr(0, kIngestHeaderBytes));
      const std::uint32_t magic = hr.u32();
      const std::uint32_t frame_len = hr.u32();
      const std::uint64_t checksum = hr.u64();
      if (magic != kIngestMagic || frame_len == 0) {
        close();
        throw IngestError("desynchronized server stream");
      }
      if (rxbuf_.size() < kIngestHeaderBytes + frame_len) break;
      const std::string payload =
          rxbuf_.substr(kIngestHeaderBytes, frame_len);
      rxbuf_.erase(0, kIngestHeaderBytes + frame_len);
      if (super::wire::fnv1a(payload) != checksum) {
        close();
        throw IngestError("corrupt server frame");
      }
      const auto type = static_cast<IngestFrameType>(
          static_cast<std::uint8_t>(payload[0]));
      apply_server_frame(type, std::string_view(payload).substr(1));
      if (until != nullptr && type == *until) return;
    }
    if (fd_ < 0) {
      if (until == nullptr) return;
      throw IngestError("connection closed before reply");
    }

    pollfd pfd{};
    pfd.fd = fd_;
    pfd.events = POLLIN;
    const int timeout_ms = until == nullptr ? 0 : config_.reply_timeout_ms;
    const int rv = ::poll(&pfd, 1, timeout_ms);
    if (rv < 0) {
      if (errno == EINTR) continue;
      const std::string why = std::strerror(errno);
      close();
      throw IngestError("poll: " + why);
    }
    if (rv == 0) {
      if (until == nullptr) return;  // nothing pending; stay non-blocking
      close();
      throw IngestError("timed out waiting for server reply");
    }
    char buf[4096];
    const ssize_t k = ::recv(fd_, buf, sizeof(buf), 0);
    if (k > 0) {
      rxbuf_.append(buf, static_cast<std::size_t>(k));
      continue;
    }
    if (k < 0 && errno == EINTR) continue;
    if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (until == nullptr) return;
      continue;
    }
    close();
    throw IngestError("server closed the connection");
  }
}

}  // namespace cgn::observatory
