#include "obs/metrics.hpp"

#include <ostream>
#include <sstream>

#include "obs/profiler.hpp"
#include "report/report.hpp"

namespace cgn::obs {

namespace {

// JSON-safe number: histograms sum doubles, probes return doubles.
void json_number(std::ostream& os, double v) {
  if (v == static_cast<double>(static_cast<std::int64_t>(v))) {
    os << static_cast<std::int64_t>(v);
  } else {
    std::ostringstream tmp;
    tmp.precision(12);
    tmp << v;
    os << tmp.str();
  }
}

}  // namespace

void json_escape(std::ostream& os, std::string_view s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      buckets_((bounds_.size() + 1) * kMaxThreadSlots) {
  small_lut_.resize(65);
  for (std::uint32_t v = 0; v < small_lut_.size(); ++v)
    small_lut_[v] = static_cast<std::uint16_t>(
        std::lower_bound(bounds_.begin(), bounds_.end(),
                         static_cast<double>(v)) -
        bounds_.begin());
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  const std::size_t n = bounds_.size() + 1;
  std::vector<std::uint64_t> out(n, 0);
  for (std::size_t slot = 0; slot < kMaxThreadSlots; ++slot)
    for (std::size_t i = 0; i < n; ++i)
      out[i] += buckets_[slot * n + i].load(std::memory_order_relaxed);
  return out;
}

double Histogram::quantile(double q) const {
  const auto counts = bucket_counts();
  std::uint64_t n = 0;
  for (const auto c : counts) n += c;
  if (n == 0 || bounds_.empty()) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  const double target = q * static_cast<double>(n);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    cum += counts[i];
    if (static_cast<double>(cum) < target) continue;
    if (i >= bounds_.size()) return bounds_.back();  // overflow: clamp
    const double upper = bounds_[i];
    const double lower = i == 0 ? std::min(0.0, upper) : bounds_[i - 1];
    if (counts[i] == 0) return upper;
    const double into_bucket =
        target - static_cast<double>(cum - counts[i]);
    return lower +
           (upper - lower) * into_bucket / static_cast<double>(counts[i]);
  }
  return bounds_.back();
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry instance;
  return instance;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end())
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end())
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> bounds) {
  std::lock_guard lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end())
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::move(bounds)))
             .first;
  return *it->second;
}

void MetricsRegistry::register_probe(const std::string& name, Probe probe) {
  std::lock_guard lock(mu_);
  probes_[name] = std::move(probe);
}

void MetricsRegistry::unregister_probe(const std::string& name) {
  std::lock_guard lock(mu_);
  probes_.erase(name);
}

void MetricsRegistry::export_json(std::ostream& os) const {
  std::lock_guard lock(mu_);
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) os << ',';
    first = false;
    json_escape(os, name);
    os << ':' << c->value();
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) os << ',';
    first = false;
    json_escape(os, name);
    os << ':' << g->value();
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) os << ',';
    first = false;
    json_escape(os, name);
    os << ":{\"bounds\":[";
    const auto& bounds = h->bounds();
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      if (i) os << ',';
      json_number(os, bounds[i]);
    }
    os << "],\"buckets\":[";
    const auto counts = h->bucket_counts();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (i) os << ',';
      os << counts[i];
    }
    os << "],\"count\":" << h->count() << ",\"sum\":";
    json_number(os, h->sum());
    os << ",\"p50\":";
    json_number(os, h->quantile(0.50));
    os << ",\"p90\":";
    json_number(os, h->quantile(0.90));
    os << ",\"p99\":";
    json_number(os, h->quantile(0.99));
    os << '}';
  }
  os << "},\"probes\":{";
  first = true;
  for (const auto& [name, probe] : probes_) {
    if (!first) os << ',';
    first = false;
    json_escape(os, name);
    os << ':';
    json_number(os, probe());
  }
  os << "}}";
}

namespace {

// Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*. The registry's dotted
// names map 1:1 (dots and other separators become underscores).
std::string prometheus_name(std::string_view name) {
  std::string out = "cgn_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

void prometheus_number(std::ostream& os, double v) {
  json_number(os, v);  // same minimal-decimal rendering works for both
}

}  // namespace

void MetricsRegistry::export_prometheus(std::ostream& os) const {
  std::lock_guard lock(mu_);
  for (const auto& [name, c] : counters_) {
    const std::string n = prometheus_name(name);
    os << "# TYPE " << n << " counter\n" << n << ' ' << c->value() << '\n';
  }
  for (const auto& [name, g] : gauges_) {
    const std::string n = prometheus_name(name);
    os << "# TYPE " << n << " gauge\n" << n << ' ' << g->value() << '\n';
  }
  for (const auto& [name, h] : histograms_) {
    const std::string n = prometheus_name(name);
    os << "# TYPE " << n << " histogram\n";
    const auto& bounds = h->bounds();
    const auto counts = h->bucket_counts();
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      cum += counts[i];
      os << n << "_bucket{le=\"";
      prometheus_number(os, bounds[i]);
      os << "\"} " << cum << '\n';
    }
    cum += counts.empty() ? 0 : counts.back();
    os << n << "_bucket{le=\"+Inf\"} " << cum << '\n';
    os << n << "_sum ";
    prometheus_number(os, h->sum());
    os << '\n' << n << "_count " << h->count() << '\n';
    for (const auto& [suffix, q] :
         {std::pair{"_p50", 0.50}, {"_p90", 0.90}, {"_p99", 0.99}}) {
      os << "# TYPE " << n << suffix << " gauge\n" << n << suffix << ' ';
      prometheus_number(os, h->quantile(q));
      os << '\n';
    }
  }
  for (const auto& [name, probe] : probes_) {
    const std::string n = prometheus_name(name);
    os << "# TYPE " << n << " gauge\n" << n << ' ';
    prometheus_number(os, probe());
    os << '\n';
  }
}

void MetricsRegistry::print_dashboard(std::ostream& os) const {
  std::lock_guard lock(mu_);
  report::Table scalars({"metric", "kind", "value"});
  for (const auto& [name, c] : counters_)
    scalars.add_row({name, "counter", report::count(c->value())});
  for (const auto& [name, g] : gauges_)
    scalars.add_row({name, "gauge", std::to_string(g->value())});
  for (const auto& [name, probe] : probes_)
    scalars.add_row({name, "probe", report::num(probe(), 3)});
  os << "-- metrics --\n";
  scalars.print(os);
  if (!histograms_.empty()) {
    report::Table hist({"histogram", "count", "mean", "buckets (<=bound:n)"});
    for (const auto& [name, h] : histograms_) {
      std::ostringstream cells;
      const auto& bounds = h->bounds();
      const auto counts = h->bucket_counts();
      for (std::size_t i = 0; i < counts.size(); ++i) {
        if (counts[i] == 0) continue;
        if (cells.tellp() > 0) cells << ' ';
        if (i < bounds.size())
          cells << report::num(bounds[i], 0) << ':' << counts[i];
        else
          cells << "inf:" << counts[i];
      }
      hist.add_row({name, report::count(h->count()), report::num(h->mean(), 2),
                    cells.str()});
    }
    hist.print(os);
  }
}

void export_json(std::ostream& os) {
  os << "{\"metrics\":";
  MetricsRegistry::global().export_json(os);
  os << ",\"phases\":";
  PhaseProfiler::global().export_json(os);
  os << "}";
}

}  // namespace cgn::obs
