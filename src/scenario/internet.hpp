// The synthetic-Internet generator: builds the full measurement substrate —
// AS registry and routing table, per-ISP access trees with CPE and CGN
// middleboxes, subscriber devices, BitTorrent peers, and the measurement
// servers (Netalyzr, STUN, DHT bootstrap, tracker, crawler host) hanging off
// the core.
//
// Only *instrumented* ASes (those hosting BitTorrent peers or Netalyzr
// vantage points) get physical subtrees; the rest of the routed Internet
// exists as registry entries and announced prefixes, exactly the role it
// plays for the paper's coverage denominators.
#pragma once

#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "dht/dht_node.hpp"
#include "dht/tracker.hpp"
#include "fault/fault.hpp"
#include "nat/nat_device.hpp"
#include "netalyzr/server.hpp"
#include "netcore/as_registry.hpp"
#include "netcore/routing_table.hpp"
#include "scenario/profiles.hpp"
#include "sim/clock.hpp"
#include "sim/network.hpp"
#include "sim/rng.hpp"
#include "stun/stun.hpp"
#include "v6/dns64.hpp"
#include "v6/translator.hpp"

namespace cgn::scenario {

struct InternetConfig {
  std::uint64_t seed = 42;

  // --- AS universe (defaults are a 1:8 scale of the paper's world) -------
  // The rest of the calibration (region mix, CGN deployment rates, coverage,
  // peer counts, topology shape) is fixed in internet.cpp.
  std::size_t routed_ases = 6500;
  std::size_t pbl_eyeballs = 360;
  std::size_t apnic_eyeballs = 390;
  std::size_t cellular_ases = 34;

  // --- Instrumentation (who hosts vantage points) -------------------------
  double nz_eyeball_coverage = 0.30;

  int bt_peers_cgn_lo = 90, bt_peers_cgn_hi = 170;
  int nz_sessions_lo = 12, nz_sessions_hi = 48;
  int nz_cellular_sessions_lo = 5, nz_cellular_sessions_hi = 16;

  // --- IPv6 transition -----------------------------------------------------
  /// NAT64/DNS64, DS-Lite and 464XLAT deployment (DESIGN.md §14). Disabled
  /// by default: the builder then draws no v6 randomness and the world is
  /// byte-identical to a pre-v6 build.
  V6ScenarioConfig v6;

  // --- Fault injection -----------------------------------------------------
  /// Impairment scenario (loss, duplication, deaf peers, CGN restarts,
  /// shard crashes). Inactive by default: the injector is then never
  /// attached to the network and the build draws no fault randomness, so
  /// clean runs are byte-identical to a no-fault build.
  fault::FaultPlan fault_plan;

  // --- Scale ballast (README "Scale") -------------------------------------
  /// Bench-only ballast: never-instrumented archetype-B lines per CGN AS,
  /// built on demand by materialize_silent_lines(). Planned with zero RNG
  /// draws, so a non-zero value perturbs no figure.
  std::size_t silent_lines_per_cgn_as = 0;
};

/// One subscriber line of an instrumented ISP.
struct Subscriber {
  sim::NodeId device = sim::kNoNode;
  netcore::Ipv4Address device_address;
  int home_id = -1;                ///< devices sharing a LAN share this
  nat::NatDevice* cpe = nullptr;   ///< null for archetype-B / cellular lines
  sim::NodeId cpe_node = sim::kNoNode;
  bool cpe_upnp = false;
  bool behind_cgn = false;
  dht::DhtNode* bt_client = nullptr;  ///< null when not a BitTorrent host

  // --- IPv6 transition (populated only on v6 lines; DESIGN.md §14) --------
  /// The line's mechanism; nat44 == plain v4 line (possibly NAT444).
  nat::TranslatorMode v6_mode = nat::TranslatorMode::nat44;
  bool has_clat = false;               ///< NAT64 line with a CLAT => 464XLAT
  netcore::Ipv6Address device_v6;      ///< unspecified on v4-only lines
  v6::HostV6Stack* v6stack = nullptr;  ///< non-null on bare v6-only lines
};

/// An instrumented ISP (one per covered AS).
struct IspInstance {
  netcore::Asn asn = 0;
  bool cellular = false;
  std::optional<CgnProfile> cgn_profile;  ///< ground truth
  nat::NatDevice* cgn = nullptr;
  sim::NodeId cgn_node = sim::kNoNode;
  std::vector<Subscriber> subscribers;
  std::size_t bt_peer_count = 0;
  std::size_t nz_session_target = 0;
  /// Spare public addresses for renumbering events (scenario/churn.hpp).
  netcore::Ipv4Prefix spare_block;
  std::uint32_t spare_used = 0;

  // --- IPv6 transition (DESIGN.md §14) ------------------------------------
  /// The deployment's mechanism (ground truth; nat44 == plain NAT444).
  /// When != nat44, `cgn` points at the translator's embedded NAT44 core —
  /// timeouts, port allocation and fault hooks live there unchanged.
  nat::TranslatorMode transition = nat::TranslatorMode::nat44;
  v6::Nat64Device* nat64 = nullptr;    ///< when transition == nat64
  v6::DsLiteAftr* aftr = nullptr;      ///< when transition == dslite_aftr
  v6::Dns64Resolver* dns64 = nullptr;  ///< carrier DNS64 (NAT64 ASes only)
};

/// The measurement infrastructure at the network core.
struct Servers {
  sim::NodeId netalyzr_host = sim::kNoNode;
  sim::NodeId stun_host = sim::kNoNode;
  sim::NodeId bootstrap_host = sim::kNoNode;
  sim::NodeId tracker_host = sim::kNoNode;
  sim::NodeId crawler_host = sim::kNoNode;
  netcore::Endpoint crawler_endpoint;
  netcore::Endpoint bootstrap_endpoint;
  std::unique_ptr<netalyzr::NetalyzrServer> netalyzr;
  std::unique_ptr<stun::StunServer> stun;
  std::unique_ptr<dht::DhtNode> bootstrap;
  std::unique_ptr<dht::TrackerServer> tracker;
};

/// Per-ISP silent-line ballast pools (defined in internet.cpp).
struct SilentLines;

class Internet {
 public:
  explicit Internet(const InternetConfig& config);
  ~Internet();

  Internet(const Internet&) = delete;
  Internet& operator=(const Internet&) = delete;

  sim::Clock clock;
  sim::Network net{clock};
  netcore::RoutingTable routes;
  netcore::AsRegistry registry;
  InternetConfig config;
  Servers servers;
  /// The fault injector realized from config.fault_plan. Always present;
  /// attached to `net` (and consulted by campaign drivers) only when the
  /// plan is active.
  std::unique_ptr<fault::FaultInjector> faults;

  std::vector<IspInstance> isps;
  std::unordered_map<netcore::Asn, std::size_t> isp_index;

  /// Ground truth: does this AS run a CGN? (Known for every registry AS.)
  [[nodiscard]] bool truth_has_cgn(netcore::Asn asn) const {
    auto it = truth_cgn_.find(asn);
    return it != truth_cgn_.end() && it->second;
  }

  /// All BitTorrent peers across all ISPs, in subscriber-slot order.
  [[nodiscard]] const std::vector<dht::DhtNode*>& bt_peers() const {
    return bt_peer_ptrs_;
  }

  /// Deterministic RNG forked from the build seed for campaign drivers.
  [[nodiscard]] sim::Rng fork_rng() { return rng_.fork(); }

  /// Builds this ISP's silent-line ballast (config.silent_lines_per_cgn_as);
  /// returns the number of lines the ISP now carries beyond its plan.
  std::size_t materialize_silent_lines(IspInstance& isp);

 private:
  friend class InternetBuilder;

  sim::Rng rng_;
  std::unique_ptr<SilentLines> silent_;
  std::unordered_map<netcore::Asn, bool> truth_cgn_;
  std::vector<dht::DhtNode*> bt_peer_ptrs_;

  // Ownership of everything wired into the network by raw pointer: every
  // NAT, translator and v6 line element, the DHT nodes, and the DNS64s
  // (empty in a v4-only world).
  std::vector<std::unique_ptr<sim::Middlebox>> middleboxes_;
  std::vector<std::unique_ptr<dht::DhtNode>> dht_nodes_;
  std::vector<std::unique_ptr<v6::Dns64Resolver>> dns64s_;
};

/// Builds a full Internet from a config (the constructor delegates here).
std::unique_ptr<Internet> build_internet(const InternetConfig& config);

}  // namespace cgn::scenario
