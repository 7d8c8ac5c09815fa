#include "scenario/internet.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "obs/profiler.hpp"

namespace cgn::scenario {

namespace {

// --- Calibrated world model (the 1:8 scale of the paper's world) ----------

/// Share of the PBL eyeball list also on APNIC's.
constexpr double kEyeballListOverlap = 0.80;
/// Share of eyeball ASes per region: AFRINIC, APNIC, ARIN, LACNIC, RIPE.
constexpr std::array<double, netcore::kRirCount> kRegionShare{
    0.10, 0.25, 0.20, 0.15, 0.30};

/// Ground-truth CGN deployment probability for non-cellular eyeball ASes per
/// region. (Measured penetration lands lower: not every deployment is
/// detectable.)
constexpr std::array<double, netcore::kRirCount> kCgnRateByRegion{
    0.15, 0.48, 0.22, 0.22, 0.44};
constexpr double kCellularCgnRate = 0.96;
constexpr double kCellularCgnRateAfrinic = 0.72;
/// CGN deployment among instrumented non-eyeball ASes.
constexpr double kOtherCgnRate = 0.05;

// Instrumentation (who hosts vantage points).
constexpr double kBtEyeballCoverage = 0.58;
constexpr double kBtOtherFraction = 0.022;  ///< of non-eyeball routed ASes
constexpr double kNzOtherFraction = 0.006;
constexpr double kNzCellularCoverage = 0.85;
constexpr int kBtPeersLo = 6, kBtPeersHi = 40;
constexpr int kBtPeersCellularHi = 3;  ///< BitTorrent is rare on mobile devices

// Behavioural calibration.
/// Homes with two BT devices.
constexpr double kMultiDeviceHomeFraction = 0.22;
/// BT clients mapping their port.
constexpr double kUpnpPortmapFraction = 0.70;
/// Peers that propagate unvalidated contacts (paper calibration: ~1.3%).
constexpr double kSloppyPeerFraction = 0.013;
constexpr std::size_t kDhtTableCapacity = 128;

// Topology shape.
constexpr int kServerSideHops = 3;
constexpr int kAggHopsLo = 1, kAggHopsHi = 3;

/// Nominally-public /8-style blocks some ISPs deploy internally
/// (Figure 7(b)); none of them fall inside the announced 16.0.0.0/4 world,
/// so they classify as "unrouted".
const char* kUnroutedInternalBlocks[] = {"25.0.0.0/8",  "21.0.0.0/8",
                                         "26.0.0.0/8",  "29.0.0.0/8",
                                         "30.0.0.0/8",  "33.0.0.0/8",
                                         "51.0.0.0/8"};

// --- IPv6 transition (DESIGN.md §14) ---------------------------------------

/// Salt of the per-AS v6 substream (fork(seed ^ salt, asn)): independent of
/// the main builder RNG, so enabling v6 perturbs no v4 draw.
constexpr std::uint64_t kV6BuilderSalt = 0x76365f6e6174ull;  // "v6_nat"

/// The RFC 7335 well-known CLAT-side address every 464XLAT line shows as
/// its local IPv4 — the duplicate-ip_dev signal the fig14 classifier keys
/// on.
constexpr netcore::Ipv4Address kClatDeviceV4{192, 0, 0, 1};
/// Factory-default LAN address of the B4 home router's single device; like
/// the CLAT address, identical across every DS-Lite home.
constexpr netcore::Ipv4Address kB4DeviceV4{192, 168, 1, 2};

/// Per-ISP AFTR tunnel endpoint: 2001:db8:0:<asn>::1.
netcore::Ipv6Address aftr_address_for(std::uint64_t asn) {
  return {0x20010db800000000ull | asn, 1};
}

/// Per-line device/B4 v6 address: 2001:db8:<1|2>:<asn>::<line+1>.
netcore::Ipv6Address line_v6_address(std::uint64_t block, std::uint64_t asn,
                                     int index) {
  return {0x20010db800000000ull | (block << 16) | asn,
          static_cast<std::uint64_t>(index) + 1};
}

}  // namespace

/// Silent-line ballast (config.silent_lines_per_cgn_as): what
/// Internet::materialize_silent_lines() needs to add an ISP's
/// never-instrumented lines after the build. One pool per Internet::isps
/// entry, same index.
struct SilentLines {
  struct Pool {
    std::string as_name;
    sim::NodeId direct_chain = sim::kNoNode;
    std::vector<netcore::Ipv4Address> bases;  ///< the ISP's internal bases
    std::size_t n_subs = 0;  ///< instrumented lines (silent indices follow)
    std::size_t planned = 0;
    std::size_t built = 0;
  };
  std::vector<Pool> pools;
};

/// Performs the actual construction; split from Internet to keep the data
/// holder readable.
class InternetBuilder {
 public:
  explicit InternetBuilder(Internet& internet)
      : I_(internet), rng_(I_.rng_.fork()) {}

  void build() {
    build_universe();
    build_servers();
    for (AsPlan& plan : plans_)
      if (plan.instrumented()) build_isp(plan);
  }

 private:
  struct AsPlan {
    netcore::AsInfo info;
    netcore::Ipv4Prefix prefix;
    bool bt = false;
    bool nz = false;
    bool cgn = false;
    [[nodiscard]] bool instrumented() const { return bt || nz; }
  };

  // --- Subscriber lines: plan, then build ---------------------------------
  // build_isp makes every RNG draw for an ISP's lines first, in the recorded
  // order below, and keeps the outcomes in LinePlans; build_home then turns
  // each plan into nodes without touching any generator, so node ids, names
  // and registration order follow the line order.

  /// One BitTorrent client to attach (primary or second device of a home).
  struct BtPlan {
    bool sloppy = false;         ///< propagates unvalidated contacts
    std::uint64_t dht_seed = 0;  ///< the engine draw rng_.fork() would take
    dht::NodeId160 dht_id;
    bool upnp_map = false;  ///< CPE static mapping for port 6881
    bool deaf = false;      ///< fault plan marks the device unresponsive
  };

  /// One home: a subscriber line plus (maybe) a second LAN device.
  struct LinePlan {
    int index = 0;  ///< line index within the ISP (home id, names, v6)
    bool behind_cgn = false;
    bool has_bt = false;
    bool no_cpe = false;  ///< archetype B (v4 path only)
    bool multi_home = false;
    netcore::Ipv4Address line_addr;
    const CpeModel* cpe_model = nullptr;  ///< catalog entry; null: no CPE
    std::uint64_t cpe_seed = 0;           ///< CPE NAT's forked engine seed
    nat::TranslatorMode v6_mode = nat::TranslatorMode::nat44;
    bool has_clat = false;
    BtPlan bt;      ///< meaningful when has_bt
    BtPlan second;  ///< meaningful when multi_home
  };

  /// The ISP a home is built into, and its attachment points.
  struct IspSite {
    IspInstance& isp;
    const std::string& as_name;
    sim::NodeId cpe_chain;     ///< NAT444 CPEs and v6 elements
    sim::NodeId direct_chain;  ///< archetype-B devices behind the CGN
    sim::NodeId public_chain;  ///< lines outside the CGN
  };

  void attach_demux(Subscriber& sub) {
    auto demux = std::make_unique<sim::PortDemux>();
    sub.demux = demux.get();
    demux->attach(I_.net, sub.device);
    I_.demuxes_.push_back(std::move(demux));
  }

  void build_v4_line(const IspSite& site, const LinePlan& lp,
                     Subscriber& sub) {
    const std::string home = std::to_string(lp.index);
    const sim::NodeId line_scope =
        lp.behind_cgn ? site.isp.cgn_node : I_.net.root();
    if (lp.no_cpe) {
      sim::NodeId attach = lp.behind_cgn ? site.direct_chain
                                         : site.public_chain;
      sub.device = I_.net.add_node(attach, site.as_name + "-dev" + home);
      sub.device_address = lp.line_addr;
      I_.net.register_address(lp.line_addr, sub.device, line_scope);
    } else {
      sim::NodeId attach = lp.behind_cgn ? site.cpe_chain : site.public_chain;
      const CpeModel& model = *lp.cpe_model;
      sim::NodeId cpe_node =
          I_.net.add_node(attach, site.as_name + "-cpe" + home);
      nat::NatConfig cfg;
      cfg.name = model.name;
      cfg.mapping = model.mapping;
      cfg.port_allocation = model.allocation;
      cfg.pooling = nat::Pooling::paired;
      cfg.udp_timeout_s = model.udp_timeout_s;
      cfg.hairpinning = model.hairpinning;
      cfg.hairpin_preserve_source = model.hairpin_preserve_source;
      cfg.port_min = 1024;
      auto nat = std::make_unique<nat::NatDevice>(
          cfg, std::vector<netcore::Ipv4Address>{lp.line_addr},
          sim::Rng(lp.cpe_seed));
      sub.cpe = nat.get();
      sub.cpe_upnp = model.upnp;
      I_.nats_.push_back(std::move(nat));
      I_.net.set_middlebox(cpe_node, sub.cpe);
      I_.net.register_address(lp.line_addr, cpe_node, line_scope);

      sub.device = I_.net.add_node(cpe_node, site.as_name + "-dev" + home);
      sub.device_address = model.lan_prefix.at(2);
      I_.net.register_address(sub.device_address, sub.device, cpe_node);
      sub.cpe_node = cpe_node;
    }
    attach_demux(sub);
  }

  void build_v6_line(const IspSite& site, const LinePlan& lp,
                     Subscriber& sub) {
    IspInstance& isp = site.isp;
    const std::uint64_t asn = isp.asn;
    const std::string home = std::to_string(lp.index);
    const netcore::Ipv4Address underlay = lp.line_addr;
    sub.v6_mode = lp.v6_mode;
    sim::NodeId elem_node;
    if (lp.v6_mode == nat::TranslatorMode::nat64) {
      sub.device_v6 = line_v6_address(2, asn, lp.index);
      sub.has_clat = lp.has_clat;
      if (lp.has_clat) {
        elem_node =
            I_.net.add_node(site.cpe_chain, site.as_name + "-clat" + home);
        sub.device_address = kClatDeviceV4;
        auto clat = std::make_unique<v6::ClatElement>(
            sub.device_v6, isp.cgn_profile->pref64, underlay, kClatDeviceV4);
        I_.net.set_middlebox(elem_node, clat.get());
        I_.clats_.push_back(std::move(clat));
      } else {
        elem_node =
            I_.net.add_node(site.cpe_chain, site.as_name + "-v6stk" + home);
        sub.device_address = netcore::Ipv4Address(
            0xA9FE0000u + static_cast<std::uint32_t>(lp.index) + 257);
        auto stack = std::make_unique<v6::HostV6Stack>(
            sub.device_v6, underlay, sub.device_address);
        sub.v6stack = stack.get();
        I_.net.set_middlebox(elem_node, stack.get());
        I_.v6stacks_.push_back(std::move(stack));
      }
      isp.nat64->add_host(sub.device_v6, underlay);
    } else {  // DS-Lite softwire
      sub.device_v6 = line_v6_address(1, asn, lp.index);
      elem_node = I_.net.add_node(site.cpe_chain, site.as_name + "-b4" + home);
      sub.device_address = kB4DeviceV4;
      auto b4 = std::make_unique<v6::B4Element>(sub.device_v6,
                                                isp.aftr->aftr_address());
      I_.net.set_middlebox(elem_node, b4.get());
      I_.b4s_.push_back(std::move(b4));
      isp.aftr->add_softwire(sub.device_v6, underlay);
    }
    I_.net.register_address(underlay, elem_node, isp.cgn_node);

    sub.device = I_.net.add_node(elem_node, site.as_name + "-dev" + home);
    I_.net.register_address(sub.device_address, sub.device, elem_node);
    attach_demux(sub);
  }

  Subscriber build_lan_device(const IspSite& site, const Subscriber& first) {
    Subscriber sub;
    sub.home_id = first.home_id;
    sub.behind_cgn = first.behind_cgn;
    sub.cpe = first.cpe;
    sub.cpe_upnp = first.cpe_upnp;
    sub.cpe_node = first.cpe_node;
    sub.device = I_.net.add_node(
        first.cpe_node,
        site.as_name + "-dev" + std::to_string(first.home_id) + "b");
    sub.device_address =
        netcore::Ipv4Address(first.device_address.value() + 1);
    I_.net.register_address(sub.device_address, sub.device, first.cpe_node);
    attach_demux(sub);
    return sub;
  }

  void attach_bt(Subscriber& sub, const BtPlan& bp) {
    dht::DhtNodeConfig cfg;
    cfg.table_capacity = kDhtTableCapacity;
    cfg.pings_per_round = 24;  // active clients validate aggressively
    cfg.validate_before_propagate = !bp.sloppy;
    netcore::Endpoint local{sub.device_address, 6881};
    auto node = std::make_unique<dht::DhtNode>(bp.dht_id, local, sub.device,
                                               cfg, sim::Rng(bp.dht_seed));
    sub.bt_client = node.get();
    sub.demux->bind(6881, [ptr = node.get()](sim::Network& n,
                                             const sim::Packet& p) {
      ptr->handle(n, p);
    });
    if (bp.upnp_map)
      sub.cpe->add_static_mapping(netcore::Protocol::udp, local, 0.0);
    I_.bt_peer_ptrs_.push_back(node.get());
    I_.dht_nodes_.push_back(std::move(node));
    if (bp.deaf) I_.faults->mark_unresponsive(sub.device, 6881);
  }

  /// Builds one planned home and appends its subscriber slot(s).
  void build_home(const IspSite& site, const LinePlan& lp) {
    Subscriber sub;
    sub.home_id = lp.index;
    sub.behind_cgn = lp.behind_cgn;
    if (lp.behind_cgn && lp.v6_mode != nat::TranslatorMode::nat44)
      build_v6_line(site, lp, sub);
    else
      build_v4_line(site, lp, sub);
    if (lp.has_bt) attach_bt(sub, lp.bt);
    site.isp.subscribers.push_back(sub);

    if (lp.multi_home) {
      // A second BitTorrent device in the same home LAN; both clients
      // discover each other via local peer discovery.
      Subscriber second = build_lan_device(site, sub);
      attach_bt(second, lp.second);
      dht::DhtNode* a = sub.bt_client;
      dht::DhtNode* b = second.bt_client;
      a->learn_contact(dht::Contact{b->id(), b->local_endpoint()},
                       /*pinned=*/true);
      b->learn_contact(dht::Contact{a->id(), a->local_endpoint()},
                       /*pinned=*/true);
      site.isp.subscribers.push_back(second);
    }
  }

  void build_universe() {
    const InternetConfig& cfg = I_.config;
    const std::size_t overlap = static_cast<std::size_t>(
        kEyeballListOverlap *
        static_cast<double>(std::min(cfg.pbl_eyeballs, cfg.apnic_eyeballs)));
    const std::size_t eyeball_union =
        cfg.pbl_eyeballs + cfg.apnic_eyeballs - overlap;
    if (eyeball_union + 1 >= cfg.routed_ases)
      throw std::invalid_argument("more eyeballs than routed ASes");

    std::vector<double> region_w(kRegionShare.begin(), kRegionShare.end());

    plans_.reserve(cfg.routed_ases);
    for (std::size_t i = 0; i < cfg.routed_ases; ++i) {
      AsPlan plan;
      plan.info.asn = static_cast<netcore::Asn>(i + 1);
      plan.info.name = "AS" + std::to_string(plan.info.asn);
      plan.info.region = static_cast<netcore::Rir>(rng_.weighted(region_w));
      if (i < eyeball_union) {
        plan.info.pbl_eyeball = i < cfg.pbl_eyeballs;
        plan.info.apnic_eyeball = i < overlap || i >= cfg.pbl_eyeballs;
      }
      plan.prefix = carver_.next(20);
      plans_.push_back(std::move(plan));
    }

    // Cellular networks are a subset of the eyeball population.
    {
      std::vector<std::size_t> eyeball_idx(eyeball_union);
      for (std::size_t i = 0; i < eyeball_union; ++i) eyeball_idx[i] = i;
      rng_.shuffle(eyeball_idx);
      for (std::size_t i = 0; i < cfg.cellular_ases && i < eyeball_idx.size();
           ++i)
        plans_[eyeball_idx[i]].info.cellular = true;
    }

    for (AsPlan& plan : plans_) {
      // Ground-truth CGN deployment.
      double rate;
      if (plan.info.cellular) {
        rate = plan.info.region == netcore::Rir::afrinic
                   ? kCellularCgnRateAfrinic
                   : kCellularCgnRate;
      } else if (plan.info.eyeball()) {
        rate = kCgnRateByRegion[static_cast<std::size_t>(plan.info.region)];
      } else {
        rate = kOtherCgnRate;
      }
      plan.cgn = rng_.chance(rate);
      I_.truth_cgn_[plan.info.asn] = plan.cgn;

      // Instrumentation.
      if (plan.info.cellular) {
        plan.nz = rng_.chance(kNzCellularCoverage);
        plan.bt = rng_.chance(0.25);  // BitTorrent is rare on mobile
      } else if (plan.info.eyeball()) {
        plan.bt = rng_.chance(kBtEyeballCoverage);
        plan.nz = rng_.chance(cfg.nz_eyeball_coverage);
      } else {
        plan.bt = rng_.chance(kBtOtherFraction);
        plan.nz = rng_.chance(kNzOtherFraction);
      }

      I_.registry.add(plan.info);
      I_.routes.announce(plan.prefix, plan.info.asn);
    }
  }

  void build_servers() {
    const InternetConfig& cfg = I_.config;
    netcore::AsInfo infra;
    infra.asn = static_cast<netcore::Asn>(cfg.routed_ases + 1);
    infra.name = "MEASUREMENT-INFRA";
    infra.region = netcore::Rir::arin;
    I_.registry.add(infra);
    netcore::Ipv4Prefix prefix = carver_.next(24);
    I_.routes.announce(prefix, infra.asn);

    sim::NodeId rack =
        I_.net.add_router_chain(I_.net.root(), kServerSideHops, "infra");
    Servers& s = I_.servers;

    s.netalyzr_host = I_.net.add_node(rack, "netalyzr-server");
    s.netalyzr = std::make_unique<netalyzr::NetalyzrServer>(s.netalyzr_host,
                                                            prefix.at(10));
    s.netalyzr->install(I_.net);
    // The Big-NAT battery's literal-v4 probe target: a second address the
    // client never resolves through DNS. Installed only in v6 worlds so a
    // default build's address registrations stay identical.
    if (cfg.v6.enabled)
      s.netalyzr->install_literal_address(I_.net, prefix.at(11));

    s.stun_host = I_.net.add_node(rack, "stun-server");
    s.stun = std::make_unique<stun::StunServer>(I_.net, s.stun_host,
                                                prefix.at(20), prefix.at(21),
                                                3478, 3479);
    s.stun->install(I_.net);

    s.bootstrap_host = I_.net.add_node(rack, "dht-bootstrap");
    netcore::Ipv4Address boot_addr = prefix.at(30);
    I_.net.register_address(boot_addr, s.bootstrap_host, I_.net.root());
    dht::DhtNodeConfig boot_cfg;
    boot_cfg.table_capacity = 4096;
    boot_cfg.validate_before_propagate = false;  // bootstrap hands out leads
    s.bootstrap = std::make_unique<dht::DhtNode>(
        dht::NodeId160::random(rng_), netcore::Endpoint{boot_addr, 6881},
        s.bootstrap_host, boot_cfg, rng_.fork());
    s.bootstrap_endpoint = {boot_addr, 6881};
    {
      dht::DhtNode* boot = s.bootstrap.get();
      I_.net.set_receiver(s.bootstrap_host,
                          [boot](sim::Network& n, const sim::Packet& p) {
                            boot->handle(n, p);
                          });
    }

    s.tracker_host = I_.net.add_node(rack, "tracker");
    s.tracker = std::make_unique<dht::TrackerServer>(s.tracker_host,
                                                     prefix.at(40),
                                                     rng_.fork(),
                                                     /*reply_sample=*/56);
    s.tracker->install(I_.net);

    s.crawler_host = I_.net.add_node(rack, "crawler");
    netcore::Ipv4Address crawler_addr = prefix.at(50);
    I_.net.register_address(crawler_addr, s.crawler_host, I_.net.root());
    s.crawler_endpoint = {crawler_addr, 6881};
  }

  void build_isp(AsPlan& plan) {
    const InternetConfig& cfg = I_.config;
    public_cache_.clear();  // the cache is per-ISP: addresses carry the ASN
    IspInstance isp;
    isp.asn = plan.info.asn;
    isp.cellular = plan.info.cellular;

    // Per-AS fault substream: keyed by ASN, independent of the builder's
    // rng_, so (a) an inactive plan draws nothing and the world is
    // byte-identical to a faultless build, and (b) the same ASN gets the
    // same faults whatever else changes in the plan's surroundings.
    const fault::FaultPlan& fplan = I_.config.fault_plan;
    sim::Rng frng = fplan.active()
                        ? I_.faults->substream(fault::kSaltBuilder,
                                               plan.info.asn)
                        : sim::Rng(0);

    netcore::PrefixCarver pool_carver(plan.prefix);
    (void)pool_carver.next(24);  // skip the block routers would use
    isp.spare_block = pool_carver.next(24);  // reserved for renumbering

    // Access aggregation under the core.
    int agg = static_cast<int>(rng_.uniform(
        static_cast<std::uint64_t>(kAggHopsLo),
        static_cast<std::uint64_t>(kAggHopsHi)));
    sim::NodeId agg_bottom =
        I_.net.add_router_chain(I_.net.root(), agg, plan.info.name);

    // Sizing.
    std::size_t bt_count = 0;
    if (plan.bt) {
      if (plan.info.cellular) {
        bt_count =
            rng_.uniform(1, static_cast<std::uint64_t>(kBtPeersCellularHi));
      } else if (plan.cgn) {
        bt_count = rng_.uniform(static_cast<std::uint64_t>(cfg.bt_peers_cgn_lo),
                                static_cast<std::uint64_t>(cfg.bt_peers_cgn_hi));
      } else {
        bt_count = rng_.uniform(static_cast<std::uint64_t>(kBtPeersLo),
                                static_cast<std::uint64_t>(kBtPeersHi));
      }
    }
    if (plan.nz) {
      isp.nz_session_target =
          plan.info.cellular
              ? rng_.uniform(
                    static_cast<std::uint64_t>(cfg.nz_cellular_sessions_lo),
                    static_cast<std::uint64_t>(cfg.nz_cellular_sessions_hi))
              : rng_.uniform(static_cast<std::uint64_t>(cfg.nz_sessions_lo),
                             static_cast<std::uint64_t>(cfg.nz_sessions_hi));
    }
    isp.bt_peer_count = bt_count;
    std::size_t n_subs = std::max({bt_count, isp.nz_session_target,
                                   std::size_t{12}});

    // CGN construction.
    sim::NodeId cpe_chain_bottom = sim::kNoNode;    // NAT444 attach point
    sim::NodeId direct_chain_bottom = sim::kNoNode; // archetype-B attach point
    std::vector<netcore::Ipv4Address> internal_bases;
    if (plan.cgn) {
      isp.cgn_profile = sample_cgn_profile(rng_, plan.info.cellular);
      // v6-enabled worlds overlay the transition deployment onto the CGN
      // profile from an independent per-AS substream; the same substream
      // later drives the per-line CLAT draws.
      if (cfg.v6.enabled) {
        v6rng_ = sim::Rng::fork(cfg.seed ^ kV6BuilderSalt, plan.info.asn);
        apply_transition_profile(*isp.cgn_profile, v6rng_,
                                 plan.info.cellular, plan.info.asn);
        isp.transition = isp.cgn_profile->transition;
      }
      I_.truth_transition_[plan.info.asn] = isp.transition;
      const CgnProfile& prof = *isp.cgn_profile;

      isp.cgn_node = I_.net.add_node(agg_bottom, plan.info.name + "-cgn");
      std::vector<netcore::Ipv4Address> pool;
      netcore::Ipv4Prefix pool_prefix = pool_carver.next(24);
      for (int i = 0; i < prof.pool_size; ++i)
        pool.push_back(pool_prefix.at(static_cast<std::uint64_t>(i) + 1));

      nat::NatConfig nat_cfg;
      nat_cfg.name = "CGN-" + plan.info.name;
      nat_cfg.mapping = prof.mapping;
      nat_cfg.port_allocation = prof.allocation;
      nat_cfg.chunk_size = prof.chunk_size;
      nat_cfg.pooling = prof.pooling;
      nat_cfg.udp_timeout_s = prof.udp_timeout_s;
      nat_cfg.hairpinning = prof.hairpinning;
      nat_cfg.hairpin_preserve_source = prof.hairpin_preserve_source;
      nat_cfg.port_min = 1024;
      // NAT64 / DS-Lite edges wrap the same NatDevice core the NAT444 path
      // instantiates (isp.cgn always points at the core, so GC, fault
      // wiring and figure extractors are mechanism-agnostic).
      sim::Middlebox* edge = nullptr;
      if (isp.transition == nat::TranslatorMode::nat64) {
        auto t = std::make_unique<v6::Nat64Device>(nat_cfg, pool, rng_.fork(),
                                                   prof.pref64);
        isp.nat64 = t.get();
        isp.cgn = &t->core();
        edge = t.get();
        I_.nat64s_.push_back(std::move(t));
        auto dns = std::make_unique<v6::Dns64Resolver>(prof.pref64);
        isp.dns64 = dns.get();
        I_.dns64s_.push_back(std::move(dns));
      } else if (isp.transition == nat::TranslatorMode::dslite_aftr) {
        auto t = std::make_unique<v6::DsLiteAftr>(
            nat_cfg, pool, rng_.fork(), aftr_address_for(plan.info.asn));
        isp.aftr = t.get();
        isp.cgn = &t->core();
        edge = t.get();
        I_.aftrs_.push_back(std::move(t));
      } else {
        auto nat = std::make_unique<nat::NatDevice>(nat_cfg, pool,
                                                    rng_.fork());
        isp.cgn = nat.get();
        edge = nat.get();
        I_.nats_.push_back(std::move(nat));
      }
      I_.net.set_middlebox(isp.cgn_node, edge);
      for (const auto& a : pool)
        I_.net.register_address(a, isp.cgn_node, I_.net.root());

      // Scheduled restarts apply to carrier-grade devices (the paper's CGN
      // state flushes); phases are drawn per device so the fleet does not
      // reboot in lockstep.
      if (fplan.nat.restart_period_s > 0)
        isp.cgn->set_fault_profile(
            fplan.nat, frng.uniform01() * fplan.nat.restart_period_s);

      int d = prof.hop_distance;
      cpe_chain_bottom = I_.net.add_router_chain(
          isp.cgn_node, std::max(d - 2, 0), plan.info.name + "-acc");
      direct_chain_bottom = I_.net.add_router_chain(
          isp.cgn_node, std::max(d - 1, 0), plan.info.name + "-dir");

      // Internal addressing bases (one per configured range, plus the
      // routable block when the ISP is short on internal space).
      for (auto range : prof.internal_ranges)
        internal_bases.push_back(netcore::prefix_of(range).address());
      if (prof.routable_internal) {
        if (rng_.chance(0.3) && plans_.size() > 2) {
          // Space that is publicly routed — by somebody else.
          const AsPlan& victim = plans_[rng_.index(plans_.size() - 2)];
          internal_bases.push_back(victim.prefix.address());
        } else {
          auto block = netcore::Ipv4Prefix::parse(
              kUnroutedInternalBlocks[rng_.index(
                  std::size(kUnroutedInternalBlocks))]);
          internal_bases.push_back(block.address());
        }
      }
    }

    // Public access chain for non-CGN subscribers.
    sim::NodeId public_chain_bottom = I_.net.add_router_chain(
        agg_bottom, static_cast<int>(rng_.uniform(1, 3)),
        plan.info.name + "-pub");

    // Injected-unresponsive BitTorrent peers: the client's inbound UDP is
    // discarded (app crashed / strict host firewall) while its own outbound
    // still refreshes NAT state — the peers the crawler probes and then
    // discards as dead.
    const double deaf_rate = fplan.peers.unresponsive_fraction;

    // Subscribers: plan every line first (all RNG draws, in the recorded
    // order), then build the homes in line order.
    std::vector<LinePlan> lines(n_subs);
    std::size_t n_slots = 0;
    for (std::size_t i = 0; i < n_subs; ++i) {
      LinePlan& lp = lines[i];
      lp.index = static_cast<int>(i);
      lp.has_bt = i < bt_count;
      lp.behind_cgn =
          plan.cgn && rng_.chance(isp.cgn_profile->cgn_subscriber_fraction);

      // The line-side address handed out by the ISP: either a public
      // address or a CGN-internal one (each subscriber its own /24, which
      // is what CGN-scale address management looks like and what the
      // Figure 5 diversity heuristic keys on).
      if (lp.behind_cgn) {
        netcore::Ipv4Address base =
            internal_bases[i % internal_bases.size()];
        lp.line_addr = netcore::Ipv4Address(
            base.value() + static_cast<std::uint32_t>(i + 1) * 256 + 2);
      } else {
        lp.line_addr = next_public_address(pool_carver);
      }

      if (lp.behind_cgn && isp.transition != nat::TranslatorMode::nat44) {
        // v6 line: the element swap draws only the per-line CLAT share,
        // from the AS's independent v6 substream.
        lp.v6_mode = isp.transition;
        if (isp.transition == nat::TranslatorMode::nat64)
          lp.has_clat = v6rng_.chance(isp.cgn_profile->clat_fraction);
      } else {
        lp.no_cpe =
            plan.info.cellular ||
            (lp.behind_cgn && rng_.chance(isp.cgn_profile->no_cpe_fraction));
        if (!lp.no_cpe) {
          lp.cpe_model = &sample_cpe(rng_);
          // rng_.fork() == Rng(engine_()); record the engine draw so
          // build_v4_line can reconstruct the identical device RNG.
          lp.cpe_seed = rng_.engine()();
        }
      }
      const bool has_cpe = lp.cpe_model != nullptr;

      // One BT client's draws, in attach_bt_client's order. The DhtNode
      // constructor call evaluated its arguments right-to-left (GCC):
      // the rng_.fork() engine draw lands before the node-id draw.
      auto plan_bt = [&](BtPlan& bp) {
        bp.sloppy = rng_.chance(kSloppyPeerFraction);
        bp.dht_seed = rng_.engine()();
        bp.dht_id = dht::NodeId160::random(rng_);
        if (has_cpe && lp.cpe_model->upnp)
          bp.upnp_map = rng_.chance(kUpnpPortmapFraction);
        bp.deaf = deaf_rate > 0 && frng.chance(deaf_rate);
      };
      if (lp.has_bt) plan_bt(lp.bt);
      lp.multi_home = lp.has_bt && !plan.info.cellular && has_cpe &&
                      rng_.chance(kMultiDeviceHomeFraction);
      if (lp.multi_home) plan_bt(lp.second);
      n_slots += lp.multi_home ? 2 : 1;
    }

    isp.subscribers.reserve(n_slots);
    const IspSite site{isp, plan.info.name, cpe_chain_bottom,
                       direct_chain_bottom, public_chain_bottom};
    for (const LinePlan& lp : lines) build_home(site, lp);

    SilentLines::Pool& silent = I_.silent_->pools.emplace_back();
    if (plan.cgn && !internal_bases.empty() &&
        direct_chain_bottom != sim::kNoNode) {
      silent.as_name = plan.info.name;
      silent.direct_chain = direct_chain_bottom;
      silent.bases = std::move(internal_bases);
      silent.n_subs = n_subs;
      silent.planned = cfg.silent_lines_per_cgn_as;
    }

    I_.isp_index[isp.asn] = I_.isps.size();
    I_.isps.push_back(std::move(isp));
  }

  netcore::Ipv4Address next_public_address(netcore::PrefixCarver& carver) {
    // One /28 carve per 14 addresses, amortized through a small cache.
    if (public_cache_.empty()) {
      netcore::Ipv4Prefix block = carver.next(28);
      for (std::uint64_t i = 1; i + 1 < block.size(); ++i)
        public_cache_.push_back(block.at(i));
    }
    netcore::Ipv4Address a = public_cache_.back();
    public_cache_.pop_back();
    return a;
  }

  Internet& I_;
  sim::Rng rng_;
  /// Per-AS v6 substream; re-seeded at each CGN AS in v6-enabled worlds
  /// (apply_transition_profile draws first, then the per-line CLAT draws).
  sim::Rng v6rng_{0};
  netcore::PrefixCarver carver_{netcore::Ipv4Prefix::parse("16.0.0.0/4")};
  std::vector<AsPlan> plans_;
  std::vector<netcore::Ipv4Address> public_cache_;
};

Internet::Internet(const InternetConfig& cfg)
    : config(cfg), rng_(cfg.seed), silent_(std::make_unique<SilentLines>()) {
  obs::ScopedPhase phase("build_internet");
  faults = std::make_unique<fault::FaultInjector>(cfg.fault_plan);
  // Attach only an active injector: clean runs keep a null pointer on the
  // delivery path and build output identical to a no-fault binary.
  if (faults->active()) net.set_fault_injector(faults.get());
  InternetBuilder(*this).build();
}

Internet::~Internet() = default;

std::size_t Internet::materialize_silent_lines(IspInstance& isp) {
  auto it = isp_index.find(isp.asn);
  if (it == isp_index.end()) return 0;
  SilentLines::Pool& pool = silent_->pools[it->second];
  // Silent lines share the real lines' addressing formula; their indices
  // start past n_subs, so the blocks never collide with an instrumented
  // line whatever the base rotation.
  for (; pool.built < pool.planned; ++pool.built) {
    const std::size_t j = pool.n_subs + pool.built;
    netcore::Ipv4Address base = pool.bases[j % pool.bases.size()];
    netcore::Ipv4Address addr(
        base.value() + static_cast<std::uint32_t>(j + 1) * 256 + 2);
    sim::NodeId dev = net.add_node(
        pool.direct_chain, pool.as_name + "-sln" + std::to_string(pool.built));
    net.register_address(addr, dev, isp.cgn_node);
    auto demux = std::make_unique<sim::PortDemux>();
    demux->attach(net, dev);
    demuxes_.push_back(std::move(demux));
  }
  return pool.built;
}

std::unique_ptr<Internet> build_internet(const InternetConfig& config) {
  return std::make_unique<Internet>(config);
}

}  // namespace cgn::scenario
