// cgn::flat unit tests + a randomized differential test against
// std::unordered_map under mixed insert/erase/find workloads — the
// backward-shift erase is exactly the kind of code that looks right and
// corrupts probe chains on the one overlooked wrap-around case.
#include "flat/flat.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "netcore/ipv4.hpp"
#include "sim/rng.hpp"

namespace {

using cgn::flat::FlatMap;
using cgn::flat::FlatSet;
using cgn::flat::PortSet;

TEST(FlatMap, InsertFindErase) {
  FlatMap<std::uint32_t, int> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(7u), m.end());

  auto [it, inserted] = m.try_emplace(7u, 70);
  ASSERT_TRUE(inserted);
  EXPECT_EQ(it->first, 7u);
  EXPECT_EQ(it->second, 70);
  EXPECT_EQ(m.size(), 1u);

  auto [it2, inserted2] = m.try_emplace(7u, 99);
  EXPECT_FALSE(inserted2);
  EXPECT_EQ(it2->second, 70) << "try_emplace must not overwrite";

  m[7u] = 71;
  EXPECT_EQ(m.find(7u)->second, 71);
  m[8u] = 80;
  EXPECT_EQ(m.size(), 2u);

  EXPECT_EQ(m.erase(7u), 1u);
  EXPECT_EQ(m.erase(7u), 0u);
  EXPECT_EQ(m.find(7u), m.end());
  EXPECT_EQ(m.find(8u)->second, 80);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap, GrowthKeepsAllEntries) {
  FlatMap<std::uint32_t, std::uint32_t> m;
  constexpr std::uint32_t kN = 10'000;
  for (std::uint32_t i = 0; i < kN; ++i) m[i * 2654435761u] = i;
  EXPECT_EQ(m.size(), kN);
  for (std::uint32_t i = 0; i < kN; ++i) {
    auto it = m.find(i * 2654435761u);
    ASSERT_NE(it, m.end()) << i;
    EXPECT_EQ(it->second, i);
  }
}

/// Hasher mapping everything to one home slot: every operation runs through
/// maximal-length probe chains, so wrap-around and backward-shift edge cases
/// are exercised constantly instead of probabilistically.
struct CollideAll {
  std::size_t operator()(std::uint32_t) const noexcept { return 0; }
};

TEST(FlatMap, BackwardShiftEraseUnderFullCollision) {
  FlatMap<std::uint32_t, int, CollideAll> m;
  for (std::uint32_t i = 0; i < 6; ++i) m[i] = static_cast<int>(i);
  // Erase from the middle of the chain, then the head, then verify every
  // survivor is still reachable (a tombstone-free table must backward-shift
  // the chain or lose the tail).
  EXPECT_EQ(m.erase(2u), 1u);
  EXPECT_EQ(m.erase(0u), 1u);
  for (std::uint32_t i : {1u, 3u, 4u, 5u}) {
    auto it = m.find(i);
    ASSERT_NE(it, m.end()) << "lost key " << i << " after backward shift";
    EXPECT_EQ(it->second, static_cast<int>(i));
  }
  EXPECT_EQ(m.find(0u), m.end());
  EXPECT_EQ(m.find(2u), m.end());
  // Reinsert into the shifted chain and erase everything.
  m[0u] = 100;
  EXPECT_EQ(m.find(0u)->second, 100);
  for (std::uint32_t i = 0; i < 6; ++i) m.erase(i);
  EXPECT_TRUE(m.empty());
}

TEST(FlatMap, EraseByAliasedStoredKey) {
  // erase(it->first) — the erase argument aliases the stored key that the
  // backward shift destroys; the NAT's find_in path does exactly this.
  FlatMap<std::uint32_t, int, CollideAll> m;
  for (std::uint32_t i = 0; i < 8; ++i) m[i] = static_cast<int>(i);
  auto it = m.find(3u);
  ASSERT_NE(it, m.end());
  EXPECT_EQ(m.erase(it->first), 1u);
  EXPECT_EQ(m.size(), 7u);
  for (std::uint32_t i = 0; i < 8; ++i)
    EXPECT_EQ(m.find(i) != m.end(), i != 3u) << i;
}

TEST(FlatMap, ClearKeepsCapacityAndWorks) {
  FlatMap<int, std::string> m;
  // append, not "v" + to_string(): GCC 12 -O3 flags that with a false
  // -Wrestrict.
  for (int i = 0; i < 100; ++i)
    m[i] = std::string("v").append(std::to_string(i));
  const std::size_t cap = m.capacity();
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.capacity(), cap);
  m[5] = "five";
  EXPECT_EQ(m.find(5)->second, "five");
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap, MoveAndCopy) {
  FlatMap<int, int> a;
  for (int i = 0; i < 50; ++i) a[i] = i * 10;
  FlatMap<int, int> b = a;  // copy
  FlatMap<int, int> c = std::move(a);
  EXPECT_EQ(b.size(), 50u);
  EXPECT_EQ(c.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(b.find(i)->second, i * 10);
    EXPECT_EQ(c.find(i)->second, i * 10);
  }
  b = std::move(c);
  EXPECT_EQ(b.size(), 50u);
  FlatMap<int, int> d;
  d[1] = 1;
  d = b;  // copy-assign over live content
  EXPECT_EQ(d.size(), 50u);
}

TEST(FlatMap, IterationVisitsEachElementOnce) {
  FlatMap<std::uint32_t, int> m;
  for (std::uint32_t i = 0; i < 257; ++i) m[i] = 1;
  std::size_t n = 0;
  int sum = 0;
  for (const auto& [k, v] : m) {
    (void)k;
    sum += v;
    ++n;
  }
  EXPECT_EQ(n, 257u);
  EXPECT_EQ(sum, 257);
}

TEST(FlatMap, NonTrivialValueDestruction) {
  // shared-state payloads: destructor/move correctness shows up as leaks or
  // double-frees under ASan.
  FlatMap<int, std::shared_ptr<int>> m;
  auto p = std::make_shared<int>(42);
  for (int i = 0; i < 100; ++i) m[i] = p;
  EXPECT_EQ(p.use_count(), 101);
  for (int i = 0; i < 50; ++i) m.erase(i);
  EXPECT_EQ(p.use_count(), 51);
  m.clear();
  EXPECT_EQ(p.use_count(), 1);
}

TEST(FlatSet, InsertContainsErase) {
  FlatSet<cgn::netcore::Ipv4Address> s;
  cgn::netcore::Ipv4Address a(10, 0, 0, 1), b(10, 0, 0, 2);
  EXPECT_TRUE(s.insert(a).second);
  EXPECT_FALSE(s.insert(a).second);
  EXPECT_TRUE(s.contains(a));
  EXPECT_FALSE(s.contains(b));
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.erase(a), 1u);
  EXPECT_FALSE(s.contains(a));
  EXPECT_TRUE(s.empty());
}

TEST(FlatSet, ManyEndpoints) {
  FlatSet<cgn::netcore::Endpoint> s;
  for (std::uint16_t p = 1; p < 2000; ++p)
    s.insert(cgn::netcore::Endpoint{cgn::netcore::Ipv4Address(16, 0, 0, 1), p});
  EXPECT_EQ(s.size(), 1999u);
  for (std::uint16_t p = 1; p < 2000; ++p)
    EXPECT_TRUE(s.contains(
        cgn::netcore::Endpoint{cgn::netcore::Ipv4Address(16, 0, 0, 1), p}));
}

TEST(PortSet, BitmapSemantics) {
  PortSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(s.contains(0));
  EXPECT_FALSE(s.contains(65535));
  EXPECT_TRUE(s.insert(0));
  EXPECT_TRUE(s.insert(65535));
  EXPECT_TRUE(s.insert(1024));
  EXPECT_FALSE(s.insert(1024)) << "second insert of same port";
  EXPECT_EQ(s.size(), 3u);
  EXPECT_TRUE(s.contains(0));
  EXPECT_TRUE(s.contains(65535));
  EXPECT_EQ(s.erase(1024), 1u);
  EXPECT_EQ(s.erase(1024), 0u);
  EXPECT_EQ(s.size(), 2u);
  s.clear();
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(s.contains(0));
  // reusable after clear
  EXPECT_TRUE(s.insert(80));
  EXPECT_EQ(s.size(), 1u);
}

/// The differential test: FlatMap and std::unordered_map driven through the
/// same randomized mixed workload must agree on every lookup and on final
/// contents. Runs several seeds and a collision-heavy keyspace.
TEST(FlatMapDifferential, MatchesUnorderedMapUnderMixedOps) {
  for (std::uint64_t seed : {1ull, 7ull, 1337ull, 0xCA11ab1eull}) {
    cgn::sim::Rng rng(seed);
    FlatMap<std::uint32_t, std::uint64_t> flat;
    std::unordered_map<std::uint32_t, std::uint64_t> ref;
    // Small keyspace → plenty of hits, overwrites and erase-of-present.
    const std::uint32_t keyspace = 512;
    for (int op = 0; op < 60'000; ++op) {
      const auto k =
          static_cast<std::uint32_t>(rng.index(keyspace) * 2654435761u);
      switch (rng.index(4)) {
        case 0: {  // insert-or-assign
          const std::uint64_t v = rng.uniform(0, ~std::uint64_t{0});
          flat[k] = v;
          ref[k] = v;
          break;
        }
        case 1: {  // try_emplace (no overwrite)
          flat.try_emplace(k, op);
          ref.try_emplace(k, op);
          break;
        }
        case 2: {  // erase
          EXPECT_EQ(flat.erase(k), ref.erase(k));
          break;
        }
        default: {  // find
          auto fit = flat.find(k);
          auto rit = ref.find(k);
          ASSERT_EQ(fit != flat.end(), rit != ref.end()) << "op " << op;
          if (rit != ref.end()) {
            ASSERT_EQ(fit->second, rit->second);
          }
          break;
        }
      }
      ASSERT_EQ(flat.size(), ref.size()) << "op " << op;
    }
    // Final contents must match exactly (order-insensitive).
    for (const auto& [k, v] : ref) {
      auto it = flat.find(k);
      ASSERT_NE(it, flat.end()) << k;
      EXPECT_EQ(it->second, v);
    }
    std::size_t n = 0;
    for (const auto& kv : flat) {
      EXPECT_EQ(ref.at(kv.first), kv.second);
      ++n;
    }
    EXPECT_EQ(n, ref.size());
  }
}

TEST(FlatMapDifferential, CollisionHeavyKeyspace) {
  // All keys share one home slot: the differential workload now runs on one
  // long probe chain, where any backward-shift mistake is immediately fatal.
  cgn::sim::Rng rng(99);
  FlatMap<std::uint32_t, int, CollideAll> flat;
  std::unordered_map<std::uint32_t, int> ref;
  for (int op = 0; op < 20'000; ++op) {
    const auto k = static_cast<std::uint32_t>(rng.index(64));
    if (rng.chance(0.5)) {
      flat[k] = op;
      ref[k] = op;
    } else {
      ASSERT_EQ(flat.erase(k), ref.erase(k)) << "op " << op;
    }
    ASSERT_EQ(flat.size(), ref.size());
  }
  for (const auto& [k, v] : ref) {
    auto it = flat.find(k);
    ASSERT_NE(it, flat.end());
    EXPECT_EQ(it->second, v);
  }
}

TEST(PortSetDifferential, MatchesReference) {
  cgn::sim::Rng rng(4242);
  PortSet s;
  std::vector<bool> ref(65536, false);
  std::size_t ref_size = 0;
  for (int op = 0; op < 200'000; ++op) {
    const auto p = static_cast<std::uint16_t>(rng.index(65536));
    if (rng.chance(0.6)) {
      const bool inserted = s.insert(p);
      EXPECT_EQ(inserted, !ref[p]);
      if (!ref[p]) {
        ref[p] = true;
        ++ref_size;
      }
    } else {
      const std::size_t erased = s.erase(p);
      EXPECT_EQ(erased, ref[p] ? 1u : 0u);
      if (ref[p]) {
        ref[p] = false;
        --ref_size;
      }
    }
    ASSERT_EQ(s.size(), ref_size);
  }
}

}  // namespace
