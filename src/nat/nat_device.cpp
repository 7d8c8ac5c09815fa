#include "nat/nat_device.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace cgn::nat {

namespace {
std::size_t mix(std::size_t a, std::size_t b) noexcept {
  return a ^ (b + 0x9e3779b97f4a7c15ull + (a << 6) + (a >> 2));
}
std::size_t hash_endpoint(const netcore::Endpoint& e) noexcept {
  return std::hash<netcore::Endpoint>{}(e);
}

// Global aggregates across every NAT device in the process (CPEs + CGNs);
// handles resolved once so the translation path pays a relaxed add each.
obs::Counter& g_mappings_created = obs::counter("nat.mappings_created");
obs::Counter& g_mappings_expired = obs::counter("nat.mappings_expired");
obs::Counter& g_outbound_translated = obs::counter("nat.outbound_translated");
obs::Counter& g_inbound_translated = obs::counter("nat.inbound_translated");
obs::Counter& g_inbound_filtered = obs::counter("nat.inbound_filtered");
obs::Counter& g_inbound_no_mapping = obs::counter("nat.inbound_no_mapping");
obs::Counter& g_hairpins_forwarded = obs::counter("nat.hairpins_forwarded");
obs::Counter& g_hairpins_dropped = obs::counter("nat.hairpins_dropped");
obs::Counter& g_port_exhaustion = obs::counter("nat.port_exhaustion_drops");
obs::Counter& g_fault_restarts = obs::counter("nat.fault_restarts");
obs::Counter& g_restart_flushed = obs::counter("nat.fault_restart_flushed");
obs::Gauge& g_active_mappings = obs::gauge("nat.active_mappings");
obs::Gauge& g_port_capacity = obs::gauge("nat.port_capacity");

// Derived port-pool pressure, sampled at export time.
[[maybe_unused]] const bool g_probe_registered = [] {
  obs::MetricsRegistry::global().register_probe(
      "nat.port_pool_utilization", [] {
        auto capacity = g_port_capacity.value();
        return capacity == 0 ? 0.0
                             : static_cast<double>(g_active_mappings.value()) /
                                   static_cast<double>(capacity);
      });
  return true;
}();
}  // namespace

std::string_view to_string(MappingType t) noexcept {
  switch (t) {
    case MappingType::symmetric: return "symmetric";
    case MappingType::port_address_restricted: return "port-address restricted";
    case MappingType::address_restricted: return "address restricted";
    case MappingType::full_cone: return "full cone";
  }
  return "?";
}

std::string_view to_string(PortAllocation p) noexcept {
  switch (p) {
    case PortAllocation::preservation: return "preservation";
    case PortAllocation::sequential: return "sequential";
    case PortAllocation::random: return "random";
    case PortAllocation::chunk_random: return "chunk-random";
  }
  return "?";
}

std::string_view to_string(Pooling p) noexcept {
  switch (p) {
    case Pooling::paired: return "paired";
    case Pooling::arbitrary: return "arbitrary";
  }
  return "?";
}

std::string_view to_string(TranslatorMode m) noexcept {
  switch (m) {
    case TranslatorMode::nat44: return "nat44";
    case TranslatorMode::nat64: return "nat64";
    case TranslatorMode::dslite_aftr: return "dslite-aftr";
  }
  return "?";
}

std::size_t NatDevice::OutKeyHash::operator()(const OutKey& k) const noexcept {
  return mix(mix(hash_endpoint(k.internal), hash_endpoint(k.remote)),
             static_cast<std::size_t>(k.proto));
}

std::size_t NatDevice::InKeyHash::operator()(const InKey& k) const noexcept {
  return mix(hash_endpoint(k.external), static_cast<std::size_t>(k.proto));
}

NatDevice::NatDevice(NatConfig config,
                     std::vector<netcore::Ipv4Address> external_pool,
                     sim::Rng rng)
    : config_(std::move(config)), pool_(std::move(external_pool)),
      rng_(std::move(rng)) {
  if (pool_.empty())
    throw std::invalid_argument(config_.name + ": empty external pool");
  if (config_.port_min > config_.port_max)
    throw std::invalid_argument(config_.name + ": inverted port range");
  if (config_.port_allocation == PortAllocation::chunk_random &&
      config_.chunk_size == 0)
    throw std::invalid_argument(config_.name + ": zero chunk size");
  pool_index_.reserve(pool_.size());
  for (std::size_t i = 0; i < pool_.size(); ++i) pool_index_.emplace(pool_[i], i);
  if (pool_index_.size() != pool_.size())
    throw std::invalid_argument(config_.name + ": duplicate pool addresses");
  seq_cursor_.assign(pool_.size(), config_.port_min);
  chunks_taken_.resize(pool_.size());
  const std::int64_t ports_per_proto =
      static_cast<std::int64_t>(config_.port_max) - config_.port_min + 1;
  g_port_capacity.add(static_cast<std::int64_t>(pool_.size()) *
                      ports_per_proto * 2);
}

NatDevice::~NatDevice() {
  g_active_mappings.sub(static_cast<std::int64_t>(mappings_.size()));
  const std::int64_t ports_per_proto =
      static_cast<std::int64_t>(config_.port_max) - config_.port_min + 1;
  g_port_capacity.sub(static_cast<std::int64_t>(pool_.size()) *
                      ports_per_proto * 2);
}

bool NatDevice::owns_external(netcore::Ipv4Address a) const {
  return pool_index_.contains(a);
}

void NatDevice::set_fault_profile(const fault::NatFaults& faults,
                                  double restart_phase_s) {
  faults_ = faults;
  restart_phase_s_ = restart_phase_s;
  restart_epoch_ = 0;
}

void NatDevice::maybe_restart(sim::SimTime now) {
  if (faults_.restart_period_s <= 0) return;
  const double t = now - restart_phase_s_;
  const auto epoch =
      t <= 0 ? std::int64_t{0}
             : static_cast<std::int64_t>(t / faults_.restart_period_s);
  if (epoch <= restart_epoch_) return;
  // Collapse any number of missed boundaries into one flush: a device that
  // rebooted twice while idle looks, at the next packet, exactly like one
  // that rebooted once.
  restart_epoch_ = epoch;
  reset_state(now);
}

void NatDevice::reset_state(sim::SimTime now) {
  // Report every live mapping to the expiry hook before the state vanishes,
  // as a CGN's syslog reports a burst of teardowns when it reboots.
  if (on_expired_)
    for (const auto& [key, h] : mappings_) {
      const Mapping& m = slab_[h];
      on_expired_(key.proto, m.external, m.created_at, now);
    }
  ++stats_.restarts;
  g_fault_restarts.inc();
  stats_.restart_flushed_mappings += mappings_.size();
  g_restart_flushed.inc(mappings_.size());

  g_active_mappings.sub(static_cast<std::int64_t>(mappings_.size()));

  mappings_.clear();
  by_external_.clear();
  slab_.clear();
  free_slots_.clear();
  seq_cursor_.assign(pool_.size(), config_.port_min);
  paired_pool_.clear();
  subscriber_chunks_.clear();
  for (auto& taken : chunks_taken_) taken.clear();
}

void NatDevice::note_contact(Mapping& m, const netcore::Endpoint& dst) {
  netcore::Endpoint contact = dst;
  switch (config_.mapping) {
    case MappingType::address_restricted: contact.port = 0; break;
    case MappingType::port_address_restricted: break;
    case MappingType::full_cone:
    case MappingType::symmetric:
      return;  // full cone filters nothing; symmetric pins key.remote
  }
  if (!m.contacted) {
    m.first_contact = contact;
    m.contacted = true;
  } else if (contact != m.first_contact) {
    if (!m.more_contacts)
      m.more_contacts = std::make_unique<flat::FlatSet<netcore::Endpoint>>();
    m.more_contacts->insert(contact);
  }
}

bool NatDevice::passes_filter(const Mapping& m,
                              const netcore::Endpoint& src) const {
  if (m.static_mapping) return true;
  netcore::Endpoint contact = src;
  switch (config_.mapping) {
    case MappingType::full_cone: return true;
    case MappingType::symmetric: return src == m.key.remote;
    case MappingType::address_restricted: contact.port = 0; break;
    case MappingType::port_address_restricted: break;
  }
  return m.contacted &&
         (contact == m.first_contact ||
          (m.more_contacts && m.more_contacts->contains(contact)));
}

void NatDevice::erase_mapping(const OutKey& key) {
  auto it = mappings_.find(key);
  if (it == mappings_.end()) return;
  const std::uint32_t h = it->second;
  const Mapping& m = slab_[h];
  if (on_expired_)
    on_expired_(key.proto, m.external, m.created_at,
                m.last_refresh + timeout_for(m));
  by_external_.erase(InKey{key.proto, m.external});
  g_active_mappings.sub(1);
  // Key-based erase before the slot is reset: `key` may alias the stored
  // m.key (find_in passes it), and FlatMap::erase only reads the key during
  // the probe — while the slot still holds it.
  mappings_.erase(key);
  slab_[h] = Mapping{};  // releases the spilled contact set
  free_slots_.push_back(h);
}

NatDevice::Mapping* NatDevice::find_out(const OutKey& key, sim::SimTime now) {
  auto it = mappings_.find(key);
  if (it == mappings_.end()) return nullptr;
  Mapping& m = slab_[it->second];
  if (expired(m, now)) {
    ++stats_.mappings_expired;
    g_mappings_expired.inc();
    erase_mapping(key);
    return nullptr;
  }
  return &m;
}

NatDevice::Mapping* NatDevice::find_in(netcore::Protocol proto,
                                       const netcore::Endpoint& external,
                                       sim::SimTime now) {
  // One probe on the inbound path: the external key resolves straight to a
  // slab handle (both maps are kept in sync on every create/erase, so a hit
  // here is always a live slab slot).
  auto it = by_external_.find(InKey{proto, external});
  if (it == by_external_.end()) return nullptr;
  Mapping& m = slab_[it->second];
  if (expired(m, now)) {
    ++stats_.mappings_expired;
    g_mappings_expired.inc();
    erase_mapping(m.key);
    return nullptr;
  }
  return &m;
}

std::size_t NatDevice::pick_pool_index(netcore::Ipv4Address internal_ip) {
  if (config_.pooling == Pooling::paired) {
    auto [it, inserted] = paired_pool_.try_emplace(internal_ip, 0);
    if (inserted) it->second = rng_.index(pool_.size());
    return it->second;
  }
  return rng_.index(pool_.size());
}

std::optional<std::uint16_t> NatDevice::allocate_port(
    std::size_t pool_index, netcore::Protocol proto,
    std::uint16_t internal_port, netcore::Ipv4Address internal_ip) {
  const netcore::Ipv4Address external_ip = pool_[pool_index];
  auto used = [&](std::uint32_t p) {
    return by_external_.contains(
        InKey{proto, {external_ip, static_cast<std::uint16_t>(p)}});
  };
  const std::uint32_t lo = config_.port_min;
  const std::uint32_t hi = config_.port_max;
  const std::uint32_t range = hi - lo + 1;

  auto seq_scan = [&](std::uint32_t start) -> std::optional<std::uint16_t> {
    for (std::uint32_t i = 0; i < range; ++i) {
      std::uint32_t p = lo + (start - lo + i) % range;
      if (!used(p)) return static_cast<std::uint16_t>(p);
    }
    return std::nullopt;
  };

  switch (config_.port_allocation) {
    case PortAllocation::preservation: {
      if (internal_port >= lo && internal_port <= hi &&
          !used(internal_port))
        return internal_port;
      // Collision (or out of range): fall back to the next free port.
      std::uint32_t start = internal_port >= lo && internal_port <= hi
                                ? internal_port + 1u
                                : lo;
      if (start > hi) start = lo;
      return seq_scan(start);
    }
    case PortAllocation::sequential: {
      auto port = seq_scan(seq_cursor_[pool_index]);
      if (port) {
        std::uint32_t next = static_cast<std::uint32_t>(*port) + 1;
        seq_cursor_[pool_index] = next > hi ? lo : next;
      }
      return port;
    }
    case PortAllocation::random: {
      for (int attempt = 0; attempt < 32; ++attempt) {
        auto p = static_cast<std::uint16_t>(rng_.uniform(lo, hi));
        if (!used(p)) return p;
      }
      return seq_scan(lo + static_cast<std::uint32_t>(rng_.index(range)));
    }
    case PortAllocation::chunk_random: {
      auto chunk_it = subscriber_chunks_.find(internal_ip);
      if (chunk_it == subscriber_chunks_.end()) return std::nullopt;
      auto [idx, base] = chunk_it->second;
      (void)idx;
      const std::uint32_t cs = config_.chunk_size;
      for (int attempt = 0; attempt < 32; ++attempt) {
        auto p = static_cast<std::uint16_t>(base + rng_.index(cs));
        if (p <= hi && !used(p)) return p;
      }
      for (std::uint32_t i = 0; i < cs; ++i) {
        auto p = static_cast<std::uint16_t>(base + i);
        if (p <= hi && !used(p)) return p;
      }
      return std::nullopt;  // the subscriber's chunk is exhausted
    }
  }
  return std::nullopt;
}

NatDevice::Mapping* NatDevice::create_mapping(const OutKey& key,
                                              sim::SimTime now) {
  // A Netalyzr battery keeps ~150K mappings live: a field that pushes the
  // record past one cache line costs a second line on each of them.
  static_assert(sizeof(Mapping) <= 64, "Mapping must fit one cache line");
  const netcore::Ipv4Address internal_ip = key.internal.address;
  std::size_t pool_idx = 0;
  std::optional<std::uint16_t> port;

  if (config_.port_allocation == PortAllocation::chunk_random) {
    // The subscriber's chunk (and with it the external IP) is sticky.
    auto it = subscriber_chunks_.find(internal_ip);
    if (it == subscriber_chunks_.end()) {
      const std::uint32_t cs = config_.chunk_size;
      const std::uint16_t first_chunk =
          static_cast<std::uint16_t>((config_.port_min + cs - 1) / cs);
      const std::uint16_t last_chunk =
          static_cast<std::uint16_t>((std::uint32_t{config_.port_max} + 1) / cs -
                                     1);
      if (first_chunk > last_chunk) {
        ++stats_.port_exhaustion_drops;
        g_port_exhaustion.inc();
        return nullptr;
      }
      // Try pool members (starting with the paired choice) for a free chunk.
      const std::size_t start = pick_pool_index(internal_ip);
      const std::size_t chunk_count =
          std::size_t{last_chunk} - first_chunk + 1;
      for (std::size_t off = 0; off < pool_.size() && !port; ++off) {
        const std::size_t candidate = (start + off) % pool_.size();
        auto& taken = chunks_taken_[candidate];
        if (taken.size() >= chunk_count) continue;
        // Random probes model the operator's randomized chunk placement;
        // near full occupancy all 64 can collide with taken chunks, so
        // fall back to a deterministic scan — the size check above
        // guarantees it finds a free chunk, never a false exhaustion.
        std::optional<std::uint16_t> chunk;
        for (int attempt = 0; attempt < 64 && !chunk; ++attempt) {
          auto c = static_cast<std::uint16_t>(
              rng_.uniform(first_chunk, last_chunk));
          if (!taken.contains(c)) chunk = c;
        }
        for (std::uint32_t c = first_chunk; c <= last_chunk && !chunk; ++c)
          if (!taken.contains(static_cast<std::uint16_t>(c)))
            chunk = static_cast<std::uint16_t>(c);
        if (!chunk) continue;
        // Commit the (pool index, chunk base) pair transactionally: if no
        // port comes out of this pool member, release the chunk and drop
        // the subscriber entry before trying the next member, so the
        // stored pair always matches the ports actually allocated.
        taken.insert(*chunk);
        it = subscriber_chunks_
                 .emplace(internal_ip,
                          std::make_pair(candidate, static_cast<std::uint16_t>(
                                                        *chunk * cs)))
                 .first;
        port = allocate_port(candidate, key.proto, key.internal.port,
                             internal_ip);
        if (port) {
          pool_idx = candidate;
        } else {
          taken.erase(*chunk);
          subscriber_chunks_.erase(internal_ip);
          it = subscriber_chunks_.end();
        }
      }
      if (it == subscriber_chunks_.end()) {
        ++stats_.port_exhaustion_drops;
        g_port_exhaustion.inc();
        return nullptr;
      }
    } else {
      pool_idx = it->second.first;
      port = allocate_port(pool_idx, key.proto, key.internal.port,
                           internal_ip);
    }
  } else {
    pool_idx = pick_pool_index(internal_ip);
    port = allocate_port(pool_idx, key.proto, key.internal.port, internal_ip);
    if (!port && config_.pooling == Pooling::arbitrary) {
      for (std::size_t off = 1; off < pool_.size() && !port; ++off) {
        pool_idx = (pool_idx + 1) % pool_.size();
        port = allocate_port(pool_idx, key.proto, key.internal.port,
                             internal_ip);
      }
    }
  }

  if (!port) {
    ++stats_.port_exhaustion_drops;
    g_port_exhaustion.inc();
    return nullptr;
  }

  std::uint32_t h;
  if (free_slots_.empty()) {
    h = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back();
  } else {
    h = free_slots_.back();
    free_slots_.pop_back();
  }
  Mapping& m = slab_[h];
  m.key = key;
  m.external = netcore::Endpoint{pool_[pool_idx], *port};
  m.created_at = now;
  m.last_refresh = now;
  mappings_.emplace(key, h);
  by_external_.emplace(InKey{key.proto, m.external}, h);
  ++stats_.mappings_created;
  g_mappings_created.inc();
  g_active_mappings.add(1);
  if (on_created_) on_created_(key.proto, key.internal, m.external, now);
  return &m;
}

void NatDevice::track_tcp(Mapping& m, const sim::Packet& pkt, bool inbound) {
  if (pkt.proto != netcore::Protocol::tcp) return;
  switch (pkt.tcp_flag) {
    case sim::TcpFlag::syn:
      // (Re-)handshake: stay/return to transitory until traffic flows both
      // ways.
      if (!inbound) m.tcp_state = TcpState::transitory;
      break;
    case sim::TcpFlag::fin:
    case sim::TcpFlag::rst:
      // Closing: drop to the short transitory timer (RFC 5382 REQ-5).
      m.tcp_state = TcpState::transitory;
      break;
    case sim::TcpFlag::none:
      // Data in either direction implies the handshake completed.
      m.tcp_state = TcpState::established;
      break;
  }
}

sim::Middlebox::Verdict NatDevice::process_outbound(sim::Packet& pkt,
                                                    sim::SimTime now) {
  maybe_restart(now);
  OutKey key{pkt.proto, pkt.src,
             config_.mapping == MappingType::symmetric ? pkt.dst
                                                       : netcore::Endpoint{}};
  Mapping* m = find_out(key, now);
  if (!m) {
    m = create_mapping(key, now);
    if (!m) return Verdict::drop_other;
  }
  m->last_refresh = now;
  note_contact(*m, pkt.dst);
  track_tcp(*m, pkt, /*inbound=*/false);
  pkt.src = m->external;
  ++stats_.outbound_translated;
  g_outbound_translated.inc();
  return Verdict::forward;
}

sim::Middlebox::Verdict NatDevice::process_inbound(sim::Packet& pkt,
                                                   sim::SimTime now) {
  maybe_restart(now);
  Mapping* m = find_in(pkt.proto, pkt.dst, now);
  if (!m) {
    ++stats_.inbound_no_mapping;
    g_inbound_no_mapping.inc();
    return Verdict::drop_no_mapping;
  }
  if (!passes_filter(*m, pkt.src)) {
    ++stats_.inbound_filtered;
    g_inbound_filtered.inc();
    return Verdict::drop_filtered;
  }
  m->last_refresh = now;
  track_tcp(*m, pkt, /*inbound=*/true);
  pkt.dst = m->key.internal;
  ++stats_.inbound_translated;
  g_inbound_translated.inc();
  return Verdict::forward;
}

sim::Middlebox::Verdict NatDevice::process_hairpin(sim::Packet& pkt,
                                                   sim::SimTime now) {
  if (!config_.hairpinning) {
    ++stats_.hairpins_dropped;
    g_hairpins_dropped.inc();
    return Verdict::drop_other;
  }
  if (!config_.hairpin_preserve_source) {
    // Correct RFC 4787 behaviour: the looped packet carries the sender's
    // *external* endpoint, so internal addresses stay hidden.
    auto v = process_outbound(pkt, now);
    if (v != Verdict::forward) {
      ++stats_.hairpins_dropped;
    g_hairpins_dropped.inc();
      return v;
    }
  }
  auto v = process_inbound(pkt, now);
  if (v != Verdict::forward) {
    ++stats_.hairpins_dropped;
    g_hairpins_dropped.inc();
    return v;
  }
  ++stats_.hairpins_forwarded;
  g_hairpins_forwarded.inc();
  return Verdict::forward;
}

std::optional<netcore::Endpoint> NatDevice::lookup_external(
    netcore::Protocol proto, const netcore::Endpoint& internal,
    const netcore::Endpoint& remote, sim::SimTime now) const {
  OutKey key{proto, internal,
             config_.mapping == MappingType::symmetric ? remote
                                                       : netcore::Endpoint{}};
  auto it = mappings_.find(key);
  if (it == mappings_.end() || expired(slab_[it->second], now))
    return std::nullopt;
  return slab_[it->second].external;
}

std::size_t NatDevice::active_mappings(sim::SimTime now) const {
  return static_cast<std::size_t>(std::count_if(
      mappings_.begin(), mappings_.end(),
      [&](const auto& kv) { return !expired(slab_[kv.second], now); }));
}

void NatDevice::collect_garbage(sim::SimTime now) {
  std::vector<OutKey> dead;
  for (const auto& [key, h] : mappings_)
    if (expired(slab_[h], now)) dead.push_back(key);
  stats_.mappings_expired += dead.size();
  g_mappings_expired.inc(dead.size());
  for (const auto& key : dead) erase_mapping(key);
}

std::optional<netcore::Endpoint> NatDevice::add_static_mapping(
    netcore::Protocol proto, const netcore::Endpoint& internal,
    sim::SimTime now) {
  maybe_restart(now);
  // Static mappings are endpoint-independent by definition, so the key uses
  // the zero remote even on an otherwise-symmetric NAT.
  OutKey key{proto, internal, netcore::Endpoint{}};
  if (Mapping* existing = find_out(key, now)) {
    existing->static_mapping = true;
    return existing->external;
  }
  Mapping* m = create_mapping(key, now);
  if (!m) return std::nullopt;
  m->static_mapping = true;
  m->last_refresh = now;
  return m->external;
}

bool NatDevice::renumber_external(netcore::Ipv4Address old_address,
                                  netcore::Ipv4Address new_address) {
  auto it = pool_index_.find(old_address);
  if (it == pool_index_.end() || pool_index_.contains(new_address))
    return false;
  const std::size_t idx = it->second;

  // Drop every mapping bound to the old address (flows break).
  std::vector<OutKey> dead;
  for (const auto& [key, h] : mappings_)
    if (slab_[h].external.address == old_address) dead.push_back(key);
  for (const auto& key : dead) erase_mapping(key);
  stats_.mappings_expired += dead.size();
  g_mappings_expired.inc(dead.size());

  pool_[idx] = new_address;
  pool_index_.erase(old_address);
  pool_index_.emplace(new_address, idx);
  return true;
}

std::optional<std::pair<std::uint16_t, std::uint32_t>>
NatDevice::subscriber_chunk(netcore::Ipv4Address internal_ip) const {
  auto it = subscriber_chunks_.find(internal_ip);
  if (it == subscriber_chunks_.end()) return std::nullopt;
  return std::make_pair(it->second.second, config_.chunk_size);
}

}  // namespace cgn::nat
