// Deterministic random source used by every stochastic component.
//
// A single seed reproduces an entire synthetic Internet, crawl, and
// measurement campaign bit-for-bit, which the tests rely on.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <span>
#include <stdexcept>
#include <vector>

namespace cgn::sim {

/// Convenience wrapper around std::mt19937_64. The engine's 2.5 KB of
/// state is created by the first draw whose value depends on it, which
/// most generators in a built world never make. A *forced* draw,
/// uniform(lo, lo) and so index(1), made before then returns lo and is
/// counted, and creating the engine discards that many outputs. For a
/// 64-bit engine and a one-value range libstdc++'s
/// uniform_int_distribution consumes exactly one output, so every stream
/// equals an eager engine's.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept : seed_(seed) {}
  Rng(const Rng& other)
      : seed_(other.seed_),
        forced_(other.forced_),
        engine_(other.engine_
                    ? std::make_unique<std::mt19937_64>(*other.engine_)
                    : nullptr) {}
  Rng& operator=(const Rng& other) {
    if (this != &other) *this = Rng(other);
    return *this;
  }
  Rng(Rng&&) noexcept = default;
  Rng& operator=(Rng&&) noexcept = default;

  /// Uniform integer in [lo, hi] (inclusive). Throws if lo > hi.
  [[nodiscard]] std::uint64_t uniform(std::uint64_t lo, std::uint64_t hi) {
    if (lo > hi) throw std::invalid_argument("uniform: lo > hi");
    if (lo == hi && !engine_) {
      ++forced_;
      return lo;
    }
    return std::uniform_int_distribution<std::uint64_t>{lo, hi}(engine());
  }

  /// Uniform integer in [0, n). Throws if n == 0.
  [[nodiscard]] std::size_t index(std::size_t n) {
    if (n == 0) throw std::invalid_argument("index: empty range");
    return static_cast<std::size_t>(uniform(0, n - 1));
  }

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform01() {
    return std::uniform_real_distribution<double>{0.0, 1.0}(engine());
  }

  /// True with probability p (clamped to [0,1]).
  [[nodiscard]] bool chance(double p) { return uniform01() < p; }

  /// Picks one element of a non-empty span uniformly at random.
  template <typename T>
  [[nodiscard]] const T& pick(std::span<const T> items) {
    return items[index(items.size())];
  }
  template <typename T>
  [[nodiscard]] const T& pick(const std::vector<T>& items) {
    return items[index(items.size())];
  }

  /// Samples an index according to non-negative weights. Throws when all
  /// weights are zero or the span is empty.
  [[nodiscard]] std::size_t weighted(std::span<const double> weights) {
    double total = 0;
    for (double w : weights) total += w;
    if (total <= 0) throw std::invalid_argument("weighted: no positive weight");
    double x = uniform01() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
      x -= weights[i];
      if (x < 0) return i;
    }
    return weights.size() - 1;
  }

  template <typename T>
  void shuffle(std::vector<T>& items) {
    std::shuffle(items.begin(), items.end(), engine());
  }

  /// Derives an independent child generator (for parallel subsystem seeding).
  [[nodiscard]] Rng fork() { return Rng(next()); }

  /// One raw 64-bit engine output.
  [[nodiscard]] std::uint64_t next() { return engine()(); }

  /// Derives the substream for shard `shard_id` of a campaign seeded with
  /// `seed`. Unlike fork(), this consumes no generator state: shard k's
  /// stream depends only on (seed, k), never on how many shards exist or in
  /// which order they are derived — the property that makes sharded
  /// campaigns thread-count invariant. Mixing is splitmix64, whose output
  /// is equidistributed over distinct inputs, so adjacent shard ids yield
  /// uncorrelated mt19937_64 seeds.
  [[nodiscard]] static Rng fork(std::uint64_t seed, std::uint64_t shard_id) {
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (shard_id + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return Rng(z ^ (z >> 31));
  }

 private:
  std::mt19937_64& engine() {
    if (!engine_) {
      engine_ = std::make_unique<std::mt19937_64>(seed_);
      engine_->discard(forced_);
    }
    return *engine_;
  }

  std::uint64_t seed_;
  std::uint64_t forced_ = 0;  ///< forced draws made before the engine existed
  std::unique_ptr<std::mt19937_64> engine_;
};

}  // namespace cgn::sim
