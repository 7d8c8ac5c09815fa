#include "trace.hpp"

#include <iterator>
#include <map>
#include <ostream>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"

namespace perfbench {

namespace {

// Counters sampled at every span boundary. The hop histogram appears as two
// pseudo-counters (its observation count and its integer sum).
constexpr std::string_view kCounters[] = {
    "dht.messages_sent",       "dht.messages_received",
    "dht.contacts_validated",  "nat.mappings_created",
    "nat.outbound_translated", "nat.inbound_translated",
    "nat.inbound_filtered",    "nat.hairpins_forwarded",
    "crawler.find_nodes_sent", "crawler.find_nodes_answered",
    "crawler.bt_pings_sent",   "crawler.bt_pongs_received",
    "netalyzr.sessions",       "netalyzr.stun_tests",
    "netalyzr.enum_experiments", "netalyzr.transition_tests",
    "super.shards_quarantined",
};
constexpr std::string_view kHopsCount = "sim.net.hops.count";
constexpr std::string_view kHopsSum = "sim.net.hops.sum";

std::vector<std::uint64_t> snapshot() {
  auto& registry = cgn::obs::MetricsRegistry::global();
  std::vector<std::uint64_t> v;
  v.reserve(std::size(kCounters) + 2);
  for (std::string_view name : kCounters)
    v.push_back(registry.counter(name).value());
  // Registered with the simulator's own bounds by the time any span opens
  // (main() constructs a Network first); an empty bound list never wins.
  const cgn::obs::Histogram& hops = registry.histogram("sim.net.hops", {});
  v.push_back(hops.count());
  v.push_back(static_cast<std::uint64_t>(hops.sum()));
  return v;
}

std::string_view counter_name(std::size_t i) {
  if (i < std::size(kCounters)) return kCounters[i];
  return i == std::size(kCounters) ? kHopsCount : kHopsSum;
}

void json_string(std::ostream& os, std::string_view s) {
  cgn::obs::json_escape(os, s);
}

}  // namespace

Tracer::Tracer(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

double Tracer::now_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

int Tracer::open(std::string_view name) {
  if (!enabled_) return -1;
  SpanRecord span;
  span.name = std::string(name);
  span.run_id = run_;
  span.parent = stack_.empty() ? -1 : stack_.back();
  snapshots_.push_back(snapshot());
  span.start_s = now_s();
  spans_.push_back(std::move(span));
  stack_.push_back(static_cast<int>(spans_.size() - 1));
  return stack_.back();
}

void Tracer::close(int index) {
  if (index < 0) return;
  SpanRecord& span = spans_[static_cast<std::size_t>(index)];
  span.end_s = now_s();
  const std::vector<std::uint64_t> after = snapshot();
  const std::vector<std::uint64_t>& before = snapshots_.back();
  for (std::size_t i = 0; i < after.size(); ++i)
    if (after[i] != before[i])
      span.counters.emplace_back(std::string(counter_name(i)),
                                 after[i] - before[i]);
  snapshots_.pop_back();
  stack_.pop_back();
  if (span.parent >= 0)
    spans_[static_cast<std::size_t>(span.parent)].children_s +=
        span.duration();
}

void Tracer::merge_profiler(
    int parent, std::string_view prefix,
    const std::vector<std::pair<std::string_view, std::string_view>>&
        renames) {
  auto& profiler = cgn::obs::PhaseProfiler::global();
  if (parent >= 0) {
    double cursor = spans_[static_cast<std::size_t>(parent)].start_s;
    for (const auto& phase : profiler.phases()) {
      for (const auto& [from, to] : renames) {
        const std::string path =
            prefix.empty() ? std::string(from)
                           : std::string(prefix) + "/" + std::string(from);
        if (phase.path != path) continue;
        SpanRecord child;
        child.name = std::string(to);
        child.run_id = run_;
        child.parent = parent;
        child.start_s = cursor;
        child.end_s = cursor + phase.wall_s;
        child.from_profiler = true;
        cursor = child.end_s;
        spans_[static_cast<std::size_t>(parent)].children_s += phase.wall_s;
        spans_.push_back(std::move(child));
      }
    }
  }
  profiler.reset();
}

double Tracer::total_s(int run_id, std::string_view name) const {
  double total = 0.0;
  for (const SpanRecord& s : spans_)
    if (s.run_id == run_id && s.name == name) total += s.duration();
  return total;
}

double Tracer::self_s(int run_id, std::string_view name) const {
  double total = 0.0;
  for (const SpanRecord& s : spans_)
    if (s.run_id == run_id && s.name == name) total += s.self_s();
  return total;
}

std::uint64_t Tracer::delta(int run_id, std::string_view name,
                            std::string_view counter) const {
  std::uint64_t total = 0;
  for (const SpanRecord& s : spans_) {
    if (s.run_id != run_id || s.name != name) continue;
    for (const auto& [c, d] : s.counters)
      if (c == counter) total += d;
  }
  return total;
}

void Tracer::write_report(std::ostream& os) const {
  struct Totals {
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
    std::map<std::string, std::uint64_t> counters;
  };
  std::map<std::string, Totals> by_name;
  for (const SpanRecord& s : spans_) {
    Totals& t = by_name[s.name];
    ++t.count;
    t.total_s += s.duration();
    t.self_s += s.self_s();
    for (const auto& [c, d] : s.counters) t.counters[c] += d;
  }
  os.precision(17);
  os << "{\"layers\":{";
  bool first = true;
  for (const auto& [name, t] : by_name) {
    os << (first ? "" : ",");
    first = false;
    json_string(os, name);
    os << ":{\"count\":" << t.count << ",\"total_s\":" << t.total_s
       << ",\"self_s\":" << t.self_s << ",\"counters\":{";
    bool first_c = true;
    for (const auto& [c, d] : t.counters) {
      os << (first_c ? "" : ",");
      first_c = false;
      json_string(os, c);
      os << ':' << d;
    }
    os << "}}";
  }
  os << "},\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    os << (i ? "," : "") << "{\"name\":";
    json_string(os, s.name);
    os << ",\"run\":" << s.run_id << ",\"parent\":" << s.parent
       << ",\"start_s\":" << s.start_s << ",\"end_s\":" << s.end_s
       << ",\"self_s\":" << s.self_s()
       << ",\"from_profiler\":" << (s.from_profiler ? "true" : "false")
       << ",\"counters\":{";
    for (std::size_t k = 0; k < s.counters.size(); ++k) {
      os << (k ? "," : "");
      json_string(os, s.counters[k].first);
      os << ':' << s.counters[k].second;
    }
    os << "}}";
  }
  os << "]}\n";
}

}  // namespace perfbench
