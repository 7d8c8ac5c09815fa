#include "scenario/profiles.hpp"

namespace cgn::scenario {

namespace {
using nat::MappingType;
using nat::PortAllocation;
using netcore::Ipv4Prefix;
using netcore::ReservedRange;

// --- IPv6-transition mix (DESIGN.md §14) ----------------------------------

/// Transition-mechanism mix among CGN ASes. Cellular carriers lean
/// NAT64/464XLAT (the mobile pattern); fixed-line ISPs that migrate mostly
/// pick DS-Lite. The remainder stays NAT444.
constexpr double kCellularNat64Fraction = 0.55;
constexpr double kCellularDsliteFraction = 0.08;
constexpr double kFixedNat64Fraction = 0.10;
constexpr double kFixedDsliteFraction = 0.28;
/// Among a NAT64 carrier's lines, the share provisioned with a CLAT (making
/// the line 464XLAT); the rest run a bare v6-only stack.
constexpr double kCellularClatFraction = 0.85;
constexpr double kFixedClatFraction = 0.45;
/// Probability a NAT64 AS announces the Well-Known Prefix 64:ff9b::/96;
/// otherwise a network-specific prefix with a varied RFC 6052 length.
constexpr double kWellKnownPref64Fraction = 0.50;

/// The CPE model catalog (a fixed, deterministic market).
const std::vector<CpeModel>& cpe_catalog() {
  // Market calibrated to the paper: ~92% of CPE sessions preserve ports
  // (Fig 8b); <2% symmetric, the rest spread over the cone types with a
  // substantial full-cone share (Fig 13a); UPnP answerable in ~40% of
  // sessions (Table 4); modal UDP timeout 65 s (Fig 12).
  auto m = [](const char* name, MappingType mapping, PortAllocation alloc,
              bool upnp, bool hairpin, bool hp_preserve, double timeout,
              std::string_view lan, double weight) {
    nat::NatConfig nat;
    nat.name = name;
    nat.mapping = mapping;
    nat.port_allocation = alloc;
    nat.udp_timeout_s = timeout;
    nat.hairpinning = hairpin;
    nat.hairpin_preserve_source = hp_preserve;
    return CpeModel{nat, upnp, Ipv4Prefix::parse(lan), weight};
  };
  static const std::vector<CpeModel> catalog{
      // name, mapping, allocation, upnp, hairpin, hp_preserve, timeout, lan, weight
      m("AcmeHome AH-100", MappingType::full_cone,
        PortAllocation::preservation, true, true, true, 65.0,
        "192.168.0.0/24", 18.0),
      m("AcmeHome AH-200", MappingType::address_restricted,
        PortAllocation::preservation, true, false, false, 65.0,
        "192.168.1.0/24", 15.0),
      m("RiverRouter R1", MappingType::port_address_restricted,
        PortAllocation::preservation, false, false, false, 65.0,
        "192.168.0.0/24", 14.0),
      m("RiverRouter R2 Pro", MappingType::address_restricted,
        PortAllocation::preservation, true, true, false, 400.0,
        "192.168.2.0/24", 9.0),
      m("HomeGate HG-5", MappingType::full_cone,
        PortAllocation::preservation, false, true, true, 65.0,
        "192.168.1.0/24", 10.0),
      m("HomeGate HG-7", MappingType::port_address_restricted,
        PortAllocation::preservation, false, false, false, 35.0,
        "192.168.178.0/24", 8.0),
      m("NetBox Duo", MappingType::address_restricted,
        PortAllocation::preservation, false, false, false, 300.0,
        "192.168.100.0/24", 7.0),
      m("NetBox Uno", MappingType::full_cone,
        PortAllocation::preservation, true, true, true, 600.0,
        "10.0.0.0/24", 6.0),
      m("TelcoCPE T-1", MappingType::port_address_restricted,
        PortAllocation::sequential, true, false, false, 65.0,
        "192.168.0.0/24", 4.0),
      m("TelcoCPE T-2", MappingType::address_restricted,
        PortAllocation::preservation, false, false, false, 240.0,
        "10.0.1.0/24", 3.5),
      m("SecureGate SG", MappingType::symmetric,
        PortAllocation::random, false, false, false, 65.0,
        "192.168.50.0/24", 1.5),
      m("CarrierBox CB-2", MappingType::address_restricted,
        PortAllocation::preservation, true, true, true, 65.0,
        "172.16.0.0/24", 2.5),
      m("CarrierBox CB-3", MappingType::full_cone,
        PortAllocation::preservation, false, true, true, 300.0,
        "172.16.1.0/24", 1.5),
      m("OpenWrtish OW", MappingType::full_cone,
        PortAllocation::preservation, true, true, false, 60.0,
        "192.168.77.0/24", 4.0),
  };
  return catalog;
}
}  // namespace

const CpeModel& sample_cpe(sim::Rng& rng) {
  const auto& catalog = cpe_catalog();
  static const std::vector<double> weights = [] {
    std::vector<double> w;
    for (const auto& m : cpe_catalog()) w.push_back(m.weight);
    return w;
  }();
  return catalog[rng.weighted(weights)];
}

CgnProfile sample_cgn_profile(sim::Rng& rng, bool cellular) {
  CgnProfile p;

  // Internal address space (Figure 7(a)): 10X most common, then 100X, the
  // smaller RFC 1918 blocks occasionally; ~20% of CGN ASes combine multiple
  // ranges; a few (mostly cellular) ISPs resort to routable space.
  auto pick_range = [&](void) {
    // Cellular deployments are dominated by 10X with a 100X second (Table 4
    // column 2); non-cellular CGNs spread a little wider (Figure 7(a)).
    static const std::vector<double> w_cell{0.70, 0.22, 0.05, 0.03};
    static const std::vector<double> w_fixed{0.46, 0.28, 0.14, 0.12};
    static const ReservedRange r[] = {ReservedRange::r10, ReservedRange::r100,
                                      ReservedRange::r172,
                                      ReservedRange::r192};
    return r[rng.weighted(cellular ? w_cell : w_fixed)];
  };
  p.internal_ranges.push_back(pick_range());
  if (rng.chance(0.20)) {
    ReservedRange second = pick_range();
    if (second != p.internal_ranges.front())
      p.internal_ranges.push_back(second);
  }
  p.routable_internal = rng.chance(cellular ? 0.12 : 0.015);

  // Placement (Figure 11): non-cellular CGNs mostly 2-6 hops out; cellular
  // deployments range from 1 up to 12 (large centralized aggregation).
  if (cellular) {
    static const std::vector<double> w{0.10, 0.25, 0.25, 0.12, 0.08,
                                       0.06, 0.04, 0.03, 0.03, 0.02,
                                       0.01, 0.01};
    p.hop_distance = static_cast<int>(rng.weighted(w)) + 1;
  } else {
    static const std::vector<double> w{0.28, 0.26, 0.20, 0.16, 0.10};
    p.hop_distance = static_cast<int>(rng.weighted(w)) + 2;  // 2..6
  }

  // Mapping type (Figure 13(b)): non-cellular ~11% symmetric with a large
  // permissive share; cellular bimodal (~40% symmetric, ~20% full cone).
  {
    static const std::vector<double> w_noncell{0.11, 0.24, 0.26, 0.39};
    static const std::vector<double> w_cell{0.40, 0.22, 0.18, 0.20};
    static const MappingType t[] = {MappingType::symmetric,
                                    MappingType::port_address_restricted,
                                    MappingType::address_restricted,
                                    MappingType::full_cone};
    p.nat.mapping = t[rng.weighted(cellular ? w_cell : w_noncell)];
  }

  // Port allocation (Table 6): preservation 41%/28%, sequential 22%/26%,
  // random 36%/45%; a slice of the random CGNs use per-subscriber chunks.
  {
    static const std::vector<double> w_noncell{0.41, 0.22, 0.24, 0.13};
    static const std::vector<double> w_cell{0.28, 0.26, 0.34, 0.12};
    static const PortAllocation a[] = {
        PortAllocation::preservation, PortAllocation::sequential,
        PortAllocation::random, PortAllocation::chunk_random};
    p.nat.port_allocation = a[rng.weighted(cellular ? w_cell : w_noncell)];
    if (p.nat.port_allocation == PortAllocation::chunk_random) {
      static const std::vector<double> cw{0.18, 0.18, 0.16, 0.22, 0.14, 0.12};
      static const std::uint32_t sizes[] = {512, 1024, 2048, 4096, 8192,
                                            16384};
      p.nat.chunk_size = sizes[rng.weighted(cw)];
    }
  }

  // Pooling (§6.2): 21% of CGNs use arbitrary pooling.
  p.nat.pooling =
      rng.chance(0.21) ? nat::Pooling::arbitrary : nat::Pooling::paired;

  // UDP mapping timeouts (Figure 12): 10 s steps; cellular median ~65 s,
  // non-cellular median ~35 s, both ranging 10-200 s (74% expire <= 60 s).
  {
    static const std::vector<double> w_cell{0.02, 0.05, 0.08, 0.10, 0.10,
                                            0.24, 0.09, 0.07, 0.05, 0.04,
                                            0.03, 0.05, 0.04, 0.04};
    static const std::vector<double> w_noncell{0.08, 0.13, 0.21, 0.15, 0.09,
                                               0.08, 0.05, 0.04, 0.03, 0.03,
                                               0.02, 0.03, 0.03, 0.03};
    static const double timeouts[] = {10,  20,  30,  40,  50,  65,  80,
                                      100, 120, 150, 180, 200, 240, 300};
    p.nat.udp_timeout_s = timeouts[rng.weighted(cellular ? w_cell : w_noncell)];
  }

  // Hairpinning: RFC 6888 requires it; a share of implementations forward
  // hairpinned packets with the internal source intact (the §4.1 leak
  // enabler, which the paper verified in the wild).
  p.nat.hairpinning = rng.chance(0.90);
  p.nat.hairpin_preserve_source = p.nat.hairpinning && rng.chance(0.92);

  // Deployment shape.
  // Most deployments are partial (paper §2/§3); about a third of cellular
  // CGNs still hand some devices public space (Table 4: 30.3% "mixed").
  p.cgn_subscriber_fraction =
      cellular ? (rng.chance(0.35) ? 0.5 + 0.4 * rng.uniform01() : 1.0)
               : 0.4 + 0.6 * rng.uniform01();
  p.no_cpe_fraction = cellular ? 1.0 : 0.05 + 0.20 * rng.uniform01();
  p.pool_size = cellular ? static_cast<int>(rng.uniform(8, 48))
                         : static_cast<int>(rng.uniform(8, 32));
  return p;
}

void apply_transition_profile(CgnProfile& p, sim::Rng& v6rng, bool cellular,
                              std::uint32_t asn) {
  // Mechanism.
  const double r = v6rng.uniform01();
  const double nat64_cut =
      cellular ? kCellularNat64Fraction : kFixedNat64Fraction;
  const double dslite_cut =
      nat64_cut + (cellular ? kCellularDsliteFraction : kFixedDsliteFraction);
  if (r < nat64_cut) {
    p.transition = nat::TranslatorMode::nat64;
  } else if (r < dslite_cut) {
    p.transition = nat::TranslatorMode::dslite_aftr;
  } else {
    p.transition = nat::TranslatorMode::nat44;
    return;
  }

  if (p.transition == nat::TranslatorMode::nat64) {
    if (v6rng.chance(kWellKnownPref64Fraction)) {
      p.pref64 = netcore::well_known_pref64();
    } else {
      // Network-specific prefix 2001:<asn>::/len; NSP deployments skew
      // toward the long end of the RFC 6052 lengths (/96 dominant).
      static const std::vector<double> w{0.06, 0.06, 0.10, 0.12, 0.22, 0.44};
      const int len = netcore::kPref64Lengths[v6rng.weighted(w)];
      const std::uint64_t hi =
          (0x2001ull << 48) | (static_cast<std::uint64_t>(asn) << 32);
      p.pref64 = netcore::Ipv6Prefix(netcore::Ipv6Address(hi, 0), len);
    }
    p.clat_fraction = cellular ? kCellularClatFraction : kFixedClatFraction;
  }

  // Mobile transition carriers: shorter mapping lifetimes and a heavier
  // random/chunked allocation mix than the general cellular draw.
  if (cellular) {
    {
      static const std::vector<double> w{0.10, 0.22, 0.30, 0.18, 0.12, 0.08};
      static const double timeouts[] = {10, 20, 30, 40, 50, 65};
      p.nat.udp_timeout_s = timeouts[v6rng.weighted(w)];
    }
    {
      static const std::vector<double> w{0.16, 0.22, 0.44, 0.18};
      static const PortAllocation a[] = {
          PortAllocation::preservation, PortAllocation::sequential,
          PortAllocation::random, PortAllocation::chunk_random};
      p.nat.port_allocation = a[v6rng.weighted(w)];
      if (p.nat.port_allocation == PortAllocation::chunk_random) {
        static const std::vector<double> cw{0.30, 0.40, 0.30};
        static const std::uint32_t sizes[] = {1024, 2048, 4096};
        p.nat.chunk_size = sizes[v6rng.weighted(cw)];
      }
    }
  }
}

}  // namespace cgn::scenario
