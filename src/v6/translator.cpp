#include "v6/translator.hpp"

namespace cgn::v6 {

using Verdict = sim::Middlebox::Verdict;

// --- Translator ------------------------------------------------------------

Verdict Translator::process_outbound(sim::Packet& pkt, sim::SimTime now) {
  Verdict v = unwrap(pkt, /*outbound=*/true);
  return v == Verdict::forward ? core_.process_outbound(pkt, now) : v;
}

Verdict Translator::process_inbound(sim::Packet& pkt, sim::SimTime now) {
  // The core rewrites dst to the internal endpoint: a handle.
  Verdict v = core_.process_inbound(pkt, now);
  return v == Verdict::forward ? rewrap(pkt) : v;
}

Verdict Translator::process_hairpin(sim::Packet& pkt, sim::SimTime now) {
  Verdict v = unwrap(pkt, /*outbound=*/false);
  if (v == Verdict::forward) v = core_.process_hairpin(pkt, now);
  return v == Verdict::forward ? rewrap(pkt) : v;
}

// --- Nat64Device -----------------------------------------------------------

Verdict Nat64Device::unwrap(sim::Packet& pkt, bool outbound) {
  if (!pkt.v6.present) return Verdict::drop_other;
  auto underlay = v6_to_underlay_.find(pkt.v6.src);
  if (underlay == v6_to_underlay_.end()) return Verdict::drop_no_mapping;
  if (outbound) {
    auto v4dst = netcore::pref64_extract(pref64_, pkt.v6.dst);
    if (!v4dst) return Verdict::drop_other;
    pkt.dst.address = *v4dst;
  }
  pkt.src.address = underlay->second;
  pkt.v6.present = false;
  return Verdict::forward;
}

Verdict Nat64Device::rewrap(sim::Packet& pkt) {
  auto host = underlay_to_v6_.find(pkt.dst.address);
  if (host == underlay_to_v6_.end()) return Verdict::drop_no_mapping;
  pkt.v6.src = netcore::pref64_embed(pref64_, pkt.src.address);
  pkt.v6.dst = host->second;
  pkt.v6.inner = netcore::Ipv4Address{};
  pkt.v6.present = true;
  return Verdict::forward;
}

// --- DsLiteAftr ------------------------------------------------------------

netcore::Ipv4Address DsLiteAftr::handle_for(netcore::Ipv4Address underlay,
                                            netcore::Ipv4Address inner) {
  const std::uint64_t key = pack_key(underlay, inner);
  if (auto it = handle_by_key_.find(key); it != handle_by_key_.end())
    return it->second;
  const netcore::Ipv4Address handle{next_handle_++};
  handle_by_key_.insert_or_assign(key, handle);
  key_by_handle_.insert_or_assign(handle, key);
  return handle;
}

Verdict DsLiteAftr::unwrap(sim::Packet& pkt, bool outbound) {
  if (!pkt.v6.present) return Verdict::drop_other;
  if (outbound && pkt.v6.dst != aftr_address_) return Verdict::drop_other;
  auto underlay = b4_to_underlay_.find(pkt.v6.src);
  if (underlay == b4_to_underlay_.end()) return Verdict::drop_no_mapping;
  // Decapsulate onto a per-(softwire, inner v4) handle so overlapping inner
  // spaces (every home reusing 192.168.1.0/24 or 10.0.0.1) stay distinct
  // inside the shared NAT44 core.
  pkt.src.address = handle_for(underlay->second, pkt.src.address);
  pkt.v6.present = false;
  return Verdict::forward;
}

Verdict DsLiteAftr::rewrap(sim::Packet& pkt) {
  auto key = key_by_handle_.find(pkt.dst.address);
  if (key == key_by_handle_.end()) return Verdict::drop_no_mapping;
  const netcore::Ipv4Address underlay{
      static_cast<std::uint32_t>(key->second >> 32)};
  const netcore::Ipv4Address inner{
      static_cast<std::uint32_t>(key->second & 0xffffffffu)};
  auto b4 = underlay_to_b4_.find(underlay);
  if (b4 == underlay_to_b4_.end()) return Verdict::drop_no_mapping;
  // Re-encapsulate: route down on the underlay handle, stash the inner v4
  // destination for the B4 to restore at decap time.
  pkt.dst.address = underlay;
  pkt.v6.src = aftr_address_;
  pkt.v6.dst = b4->second;
  pkt.v6.inner = inner;
  pkt.v6.present = true;
  return Verdict::forward;
}

}  // namespace cgn::v6
