// Disjoint-set union for the per-AS leakage-graph clustering of §4.1. It
// grows: the streaming path adds vertices one leak edge at a time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cgn::analysis {

/// Growable disjoint-set for online clustering: the streaming analyzer
/// interns vertices as leak edges arrive and merges immediately, so the
/// largest-cluster tally is available after every event. Connectivity is a
/// pure function of the edge *set* — union order only changes the internal
/// tree shape — which is what lets a replayed or resumed stream converge on
/// the batch result regardless of event order.
class DynamicUnionFind {
 public:
  /// Adds an isolated vertex and returns its index.
  std::size_t add_vertex() {
    parent_.push_back(parent_.size());
    rank_.push_back(0);
    return parent_.size() - 1;
  }

  [[nodiscard]] std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];  // path halving
      x = parent_[x];
    }
    return x;
  }

  /// Unites the sets containing a and b; returns true when they were
  /// previously disjoint.
  bool unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    if (rank_[a] < rank_[b]) std::swap(a, b);
    parent_[b] = a;
    if (rank_[a] == rank_[b]) ++rank_[a];
    return true;
  }

  [[nodiscard]] bool connected(std::size_t a, std::size_t b) {
    return find(a) == find(b);
  }

  [[nodiscard]] std::size_t size() const noexcept { return parent_.size(); }

  void clear() noexcept {
    parent_.clear();
    rank_.clear();
  }

 private:
  std::vector<std::size_t> parent_;
  std::vector<std::uint8_t> rank_;
};

}  // namespace cgn::analysis
