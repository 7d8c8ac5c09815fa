#include "scraper.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>

namespace perfbench {

namespace {

/// GET `path` from 127.0.0.1:`port`; returns the status code, or 0 when the
/// exchange failed before a status line arrived.
int http_get(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  timeval tv{};
  tv.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  int status = 0;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) ==
      0) {
    const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
    if (::send(fd, request.data(), request.size(), MSG_NOSIGNAL) ==
        static_cast<ssize_t>(request.size())) {
      std::string head;
      char buf[16384];
      for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n <= 0) break;
        if (head.size() < 32)
          head.append(buf, static_cast<std::size_t>(
                               std::min<ssize_t>(n, 32)));
      }
      // "HTTP/1.0 200 OK"
      if (head.size() >= 12 && head.compare(0, 5, "HTTP/") == 0)
        status = std::atoi(head.c_str() + 9);
    }
  }
  ::close(fd);
  return status;
}

}  // namespace

std::vector<double> ScrapeStats::latencies(std::size_t target) const {
  std::vector<double> out;
  for (const ScrapeSample& s : samples)
    if (target == static_cast<std::size_t>(-1) || s.target == target)
      out.push_back(s.latency_ms);
  return out;
}

OpenLoopScraper::OpenLoopScraper(std::uint16_t port,
                                 std::vector<ScrapeTarget> targets,
                                 double rate_hz, double phase_s)
    : port_(port),
      targets_(std::move(targets)),
      period_s_(1.0 / rate_hz),
      phase_s_(phase_s) {
  for (const ScrapeTarget& t : targets_) stats_.labels.push_back(t.label);
  thread_ = std::thread([this] { loop(); });
}

OpenLoopScraper::~OpenLoopScraper() { stop(); }

void OpenLoopScraper::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  wake_.notify_all();
  if (thread_.joinable()) thread_.join();
}

ScrapeStats OpenLoopScraper::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void OpenLoopScraper::loop() {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  for (std::uint64_t i = 0;; ++i) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(
                        phase_s_ + static_cast<double>(i) * period_s_));
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (wake_.wait_until(lock, due, [this] { return stopping_; })) return;
    }
    const std::size_t target = i % targets_.size();
    const Clock::time_point sent = Clock::now();
    const int status = http_get(port_, targets_[target].path);
    const Clock::time_point done = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.attempted;
    if (status != 200) ++stats_.failed;
    stats_.late_ms_max = std::max(
        stats_.late_ms_max,
        std::chrono::duration<double, std::milli>(sent - due).count());
    stats_.samples.push_back(
        {std::chrono::duration<double>(due - start).count(), target,
         std::chrono::duration<double, std::milli>(done - due).count()});
  }
}

}  // namespace perfbench
