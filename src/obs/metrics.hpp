// Simulation-wide metrics: named counters, gauges and fixed-bucket
// histograms behind a process-global registry.
//
// The design splits the cost asymmetrically: *registration* (name lookup,
// allocation) happens once, on the cold path, and hands back a stable
// reference; the *hot path* is a relaxed atomic load+store on that
// reference — a plain memory add in the generated code, no lock prefix.
// Instrumented components cache their handles at construction (or in a
// file-scope reference), so packet-rate code never touches the registry
// map. Defining CGN_OBS_DISABLED (CMake option -DCGN_OBS=OFF) compiles
// every increment down to nothing, which is what the perf-micro bench
// compares against.
//
// Threading: every metric is striped over kMaxThreadSlots per-thread cells.
// The default slot 0 serves single-threaded code; cgn::par workers install
// a distinct slot (ThreadSlotScope), so each cell stays single-writer and
// the cheap relaxed update remains exact even while campaign shards run in
// parallel. Reads (value(), export) merge the cells in slot order — integer
// totals are exact and independent of how shards were assigned to workers,
// which is what makes an N-thread campaign's metric totals bit-identical
// to the 1-thread run.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace cgn::obs {

#ifdef CGN_OBS_DISABLED
inline constexpr bool kMetricsEnabled = false;
#else
inline constexpr bool kMetricsEnabled = true;
#endif

/// Metric cells per metric: slot 0 is the default (main-thread) cell,
/// slots 1.. are claimed by parallel campaign workers. Bounds the worker
/// count of cgn::par's WorkerPool.
inline constexpr std::size_t kMaxThreadSlots = 32;

namespace detail {
inline thread_local std::size_t t_metric_slot = 0;
}  // namespace detail

/// The calling thread's metric slot (0 unless a ThreadSlotScope is active).
[[nodiscard]] inline std::size_t thread_slot() noexcept {
  return detail::t_metric_slot;
}

/// Scoped claim of a metric slot for the calling thread. Two live threads
/// must never share a slot; cgn::par's WorkerPool assigns pool thread w
/// slot w+1 for its lifetime, and the calling thread works the queue as
/// lane 0 on its own slot (0 on the main thread).
class ThreadSlotScope {
 public:
  explicit ThreadSlotScope(std::size_t slot) noexcept
      : prev_(detail::t_metric_slot) {
    detail::t_metric_slot = slot < kMaxThreadSlots ? slot : kMaxThreadSlots - 1;
  }
  ThreadSlotScope(const ThreadSlotScope&) = delete;
  ThreadSlotScope& operator=(const ThreadSlotScope&) = delete;
  ~ThreadSlotScope() { detail::t_metric_slot = prev_; }

 private:
  std::size_t prev_;
};

namespace detail {
/// One cache line per cell so workers bumping the same counter never
/// false-share.
template <typename T>
struct alignas(64) PaddedAtomic {
  std::atomic<T> v{0};
};
}  // namespace detail

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    if constexpr (kMetricsEnabled) {
      // Single-writer add on the thread's own cell (see the header
      // comment): a plain add instruction instead of a lock-prefixed
      // fetch_add, ~5x cheaper on the hot path.
      auto& cell = cells_[detail::t_metric_slot].v;
      cell.store(cell.load(std::memory_order_relaxed) + n,
                 std::memory_order_relaxed);
    } else {
      (void)n;
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const auto& c : cells_) total += c.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  std::array<detail::PaddedAtomic<std::uint64_t>, kMaxThreadSlots> cells_;
};

/// Instantaneous level (table occupancy, frontier size, ...). Signed so a
/// transient dip below an earlier reset cannot wrap.
class Gauge {
 public:
  void add(std::int64_t n) noexcept {
    if constexpr (kMetricsEnabled) {
      auto& cell = cells_[detail::t_metric_slot].v;
      cell.store(cell.load(std::memory_order_relaxed) + n,
                 std::memory_order_relaxed);
    } else {
      (void)n;
    }
  }
  void sub(std::int64_t n) noexcept { add(-n); }
  /// Absolute store. Only meaningful from single-threaded code: the value
  /// lands in the calling thread's cell and every other cell is zeroed, so
  /// concurrent workers must stick to add()/sub().
  void set(std::int64_t v) noexcept {
    if constexpr (kMetricsEnabled) {
      for (auto& c : cells_) c.v.store(0, std::memory_order_relaxed);
      cells_[detail::t_metric_slot].v.store(v, std::memory_order_relaxed);
    } else {
      (void)v;
    }
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    std::int64_t total = 0;
    for (const auto& c : cells_) total += c.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  std::array<detail::PaddedAtomic<std::int64_t>, kMaxThreadSlots> cells_;
};

/// Fixed-bucket histogram: bucket `i` counts observations <= bounds[i], the
/// implicit last bucket counts the overflow. Bounds are immutable after
/// construction, so observation is lock-free. Buckets and sums are striped
/// per thread slot like Counter; integer contributions (observe_small)
/// merge exactly across slots, so campaign-path histograms — which stay on
/// the integer fast path — are thread-count invariant.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v) noexcept {
    if constexpr (kMetricsEnabled) {
      // Bucket i counts v <= bounds[i]: first bound not less than v, found
      // by binary search (bounds are sorted and immutable).
      const auto i = static_cast<std::size_t>(
          std::lower_bound(bounds_.begin(), bounds_.end(), v) -
          bounds_.begin());
      auto& b = bucket_cell(detail::t_metric_slot, i);
      b.store(b.load(std::memory_order_relaxed) + 1,
              std::memory_order_relaxed);
      auto& s = sums_[detail::t_metric_slot].v;
      s.store(s.load(std::memory_order_relaxed) + v,
              std::memory_order_relaxed);
    } else {
      (void)v;
    }
  }

  /// Integer fast path: the bucket index for small values is precomputed at
  /// construction and the running sum stays integral, so the packet-rate
  /// call is two relaxed integer load+store pairs with no bound search and
  /// no double arithmetic. Values beyond the table fall back to observe().
  void observe_small(std::uint32_t v) noexcept {
    if constexpr (kMetricsEnabled) {
      if (v < small_lut_.size()) {
        auto& b = bucket_cell(detail::t_metric_slot, small_lut_[v]);
        b.store(b.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
        auto& s = isums_[detail::t_metric_slot].v;
        s.store(s.load(std::memory_order_relaxed) + v,
                std::memory_order_relaxed);
      } else {
        observe(static_cast<double>(v));
      }
    } else {
      (void)v;
    }
  }

  [[nodiscard]] const std::vector<double>& bounds() const noexcept {
    return bounds_;
  }
  /// bounds().size() + 1 entries; the last is the overflow bucket. Merged
  /// over thread slots in slot order.
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;
  /// Total observations — derived from the buckets (cold path).
  [[nodiscard]] std::uint64_t count() const noexcept {
    std::uint64_t n = 0;
    for (const auto& b : buckets_) n += b.load(std::memory_order_relaxed);
    return n;
  }
  [[nodiscard]] double sum() const noexcept {
    // Slot-order merge: integer contributions first (exact), then the
    // observe() doubles in slot order so the rounding sequence is fixed.
    std::uint64_t isum = 0;
    for (const auto& s : isums_) isum += s.v.load(std::memory_order_relaxed);
    double total = static_cast<double>(isum);
    for (const auto& s : sums_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }
  [[nodiscard]] double mean() const noexcept {
    auto n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
  }

  /// Quantile estimate from the bucket counts, Prometheus-style: find the
  /// bucket holding the q-rank observation and interpolate linearly inside
  /// it. Values in the overflow bucket clamp to the last bound (nothing
  /// sensible to extrapolate to). 0 when empty.
  [[nodiscard]] double quantile(double q) const;

 private:
  [[nodiscard]] std::atomic<std::uint64_t>& bucket_cell(std::size_t slot,
                                                        std::size_t i) noexcept {
    return buckets_[slot * (bounds_.size() + 1) + i];
  }

  std::vector<double> bounds_;
  /// kMaxThreadSlots stripes of bounds()+1 buckets: index slot*(n+1)+i.
  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::vector<std::uint16_t> small_lut_;  ///< bucket index for v in [0, 64]
  /// observe() contributions per slot.
  std::array<detail::PaddedAtomic<double>, kMaxThreadSlots> sums_;
  /// observe_small() contributions per slot.
  std::array<detail::PaddedAtomic<std::uint64_t>, kMaxThreadSlots> isums_;
};

/// Owns every metric by name. Handles returned by counter()/gauge()/
/// histogram() stay valid for the registry's lifetime. The process-global
/// instance (global()) is what instrumented subsystems register against;
/// tests that want isolation construct their own.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  static MetricsRegistry& global();

  /// Finds or creates. Creating a histogram that already exists keeps the
  /// original bounds (first registration wins).
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name, std::vector<double> bounds);

  /// A pull-sampled value (e.g. a derived utilization). Sampled at export
  /// time only; re-registering a name replaces the callback.
  using Probe = std::function<double()>;
  void register_probe(const std::string& name, Probe probe);
  void unregister_probe(const std::string& name);

  /// One JSON object: {"counters":{...},"gauges":{...},
  /// "histograms":{name:{bounds,buckets,count,sum,p50,p90,p99}},
  /// "probes":{...}}. Composable: no trailing newline, so callers can
  /// embed it.
  void export_json(std::ostream& os) const;

  /// Prometheus text exposition (version 0.0.4) of every metric: counters
  /// and gauges as single samples, histograms as cumulative `_bucket`
  /// series with `le` labels plus `_sum`/`_count` and `_p50/_p90/_p99`
  /// quantile gauges, probes sampled as gauges. Names are prefixed `cgn_`
  /// and dots become underscores ("sim.net.sent" -> "cgn_sim_net_sent").
  void export_prometheus(std::ostream& os) const;

  /// Human-readable dashboard rendered with report::Table.
  void print_dashboard(std::ostream& os) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::map<std::string, Probe, std::less<>> probes_;
};

// Convenience accessors against the global registry: the idiom is a
// file-scope `obs::Counter& g_foo = obs::counter("sub.foo");` so the hot
// path pays only the relaxed add.
inline Counter& counter(std::string_view name) {
  return MetricsRegistry::global().counter(name);
}
inline Gauge& gauge(std::string_view name) {
  return MetricsRegistry::global().gauge(name);
}
inline Histogram& histogram(std::string_view name,
                            std::vector<double> bounds) {
  return MetricsRegistry::global().histogram(name, std::move(bounds));
}

/// Full observability snapshot of the global registry and the global
/// PhaseProfiler as one JSON object: {"metrics":{...},"phases":[...]}.
void export_json(std::ostream& os);

/// Writes a JSON string literal (quotes + escapes) — shared by the metric
/// and profiler exporters.
void json_escape(std::ostream& os, std::string_view s);

}  // namespace cgn::obs
