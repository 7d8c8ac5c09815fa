// Behavioural profiles of the devices that populate the synthetic Internet:
// a catalog of CPE models and a sampler for CGN configurations. All
// distributions are calibrated to the paper's measured marginals (Figures
// 7-9, 12, 13 and Table 6) — the reproduction *generates* NAT behaviour from
// these and then re-measures it end-to-end.
#pragma once

#include <vector>

#include "nat/nat_types.hpp"
#include "netcore/ipv4.hpp"
#include "netcore/ipv6.hpp"
#include "sim/rng.hpp"

namespace cgn::scenario {

/// IPv6-transition scenario (DESIGN.md §14). Disabled by default: a v4-only
/// world draws no v6 randomness and builds byte-identical to a pre-v6
/// binary. The mechanism mix is fixed in profiles.cpp.
struct V6ScenarioConfig {
  bool enabled = false;
};

/// One CPE hardware model (Figure 8(b) keys sessions by UPnP model string,
/// the NAT config's name).
struct CpeModel {
  nat::NatConfig nat;
  bool upnp = false;
  netcore::Ipv4Prefix lan_prefix;  ///< block the CPE assigns devices from
  double weight = 1.0;             ///< market share for sampling
};

/// Samples a model from the CPE catalog (a fixed, deterministic market) by
/// market share.
[[nodiscard]] const CpeModel& sample_cpe(sim::Rng& rng);

/// Ground-truth configuration of one ISP's CGN deployment.
struct CgnProfile {
  /// Reserved ranges used internally; >= 1 entry unless routable_internal
  /// is the sole range.
  std::vector<netcore::ReservedRange> internal_ranges;
  /// Some ISPs (mostly cellular) are so short on internal space they deploy
  /// nominally-public space inside (Figure 7(b)).
  bool routable_internal = false;

  /// Hops from the subscriber device to the CGN (Figure 11: 2-6 typical
  /// non-cellular, 1-12 cellular).
  int hop_distance = 3;

  /// The CGN's NAT behaviour; the builder names it "CGN-<AS name>".
  nat::NatConfig nat;

  /// Fraction of subscribers the ISP has (so far) moved behind the CGN —
  /// the paper stresses that most deployments are partial.
  double cgn_subscriber_fraction = 1.0;
  /// Fraction of CGN subscribers connected without their own CPE NAT
  /// (carrier NAT44, subscriber archetype B of Figure 2).
  double no_cpe_fraction = 0.0;

  /// External pool size (public IPv4 addresses of the CGN).
  int pool_size = 16;

  // --- IPv6 transition (DESIGN.md §14) ------------------------------------
  /// Translation mechanism at the carrier edge. nat44 == plain NAT444; set
  /// by apply_transition_profile, only in v6-enabled worlds.
  nat::TranslatorMode transition = nat::TranslatorMode::nat44;
  /// NAT64 deployments: share of lines provisioned with a CLAT (464XLAT).
  double clat_fraction = 0.0;
  /// NAT64 deployments: the carrier's NAT64/DNS64 translation prefix.
  netcore::Ipv6Prefix pref64;
};

/// Samples a CGN profile for a cellular or non-cellular ISP.
[[nodiscard]] CgnProfile sample_cgn_profile(sim::Rng& rng, bool cellular);

/// Draws the IPv6-transition deployment for one CGN AS from `v6rng` — an
/// independent substream keyed on (world seed, asn), so enabling v6 never
/// perturbs the main builder RNG. Picks the mechanism and (for NAT64) the
/// pref64 — unique per AS unless the Well-Known Prefix is drawn — and the
/// CLAT share; cellular transition carriers additionally re-draw the
/// MNO-flavoured mapping-lifetime and port-allocation marginals (the
/// paper's Table 6/7 mobile columns: tighter timeouts, more random and
/// chunked allocation than the fixed fleet).
void apply_transition_profile(CgnProfile& p, sim::Rng& v6rng, bool cellular,
                              std::uint32_t asn);

}  // namespace cgn::scenario
