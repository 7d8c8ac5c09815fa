// cgn::v6 — the IPv6-transition subsystem (DESIGN.md §14): RFC 6052
// pref64 embed/extract, DNS64 synthesis and client-side pref64 discovery,
// NAT64 and DS-Lite data planes over the MiniNet topology, restart-flush
// fault behaviour, the fig14 transition classifier, and determinism of the
// v6 measurement campaign across worker counts and kill→resume.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/transition.hpp"
#include "fault/fault.hpp"
#include "netcore/ipv6.hpp"
#include "scenario/campaign.hpp"
#include "scenario/internet.hpp"
#include "test_temp.hpp"
#include "test_topology.hpp"
#include "v6/dns64.hpp"
#include "v6/translator.hpp"

namespace cgn {
namespace {

using netcore::Ipv4Address;
using netcore::Ipv6Address;
using netcore::Ipv6Prefix;

// --- RFC 6052 pref64 embed/extract -----------------------------------------

TEST(Pref64, RoundTripsEveryRfc6052Length) {
  const Ipv4Address samples[] = {Ipv4Address{0, 0, 0, 0},
                                 Ipv4Address{192, 0, 2, 33},
                                 Ipv4Address{255, 255, 255, 255}};
  for (int len : netcore::kPref64Lengths) {
    const Ipv6Prefix pref(Ipv6Address::parse("2001:db8::"), len);
    for (const Ipv4Address v4 : samples) {
      const Ipv6Address embedded = netcore::pref64_embed(pref, v4);
      EXPECT_TRUE(pref.contains(embedded)) << "/" << len;
      const auto back = netcore::pref64_extract(pref, embedded);
      ASSERT_TRUE(back.has_value()) << "/" << len;
      EXPECT_EQ(*back, v4) << "/" << len;
      // RFC 6052 §2.2: the u octet (byte 8) stays zero in the suffix.
      if (len < 96) {
        EXPECT_EQ(embedded.byte(8), 0) << "/" << len;
      }
    }
  }
}

TEST(Pref64, WellKnownPrefixMatchesRfc6052Example) {
  // 192.0.2.33 inside 64:ff9b::/96 is the RFC's worked example.
  const Ipv6Address a = netcore::pref64_embed(netcore::well_known_pref64(),
                                              Ipv4Address{192, 0, 2, 33});
  EXPECT_EQ(a, Ipv6Address::parse("64:ff9b::c000:221"));
}

TEST(Pref64, ExtractRejectsNonZeroUOctetAndForeignAddresses) {
  for (int len : netcore::kPref64Lengths) {
    const Ipv6Prefix pref(Ipv6Address::parse("2001:db8::"), len);
    const Ipv6Address good =
        netcore::pref64_embed(pref, Ipv4Address{192, 0, 2, 33});
    // Corrupt the u octet: for /96 this moves the address out of the
    // prefix, for shorter lengths it violates the reserved-bits rule —
    // either way extraction must refuse.
    EXPECT_FALSE(
        netcore::pref64_extract(pref, good.with_byte(8, 0x5a)).has_value())
        << "/" << len;
    // An address outside the prefix never extracts.
    EXPECT_FALSE(
        netcore::pref64_extract(pref, Ipv6Address::parse("2001:db9::1"))
            .has_value())
        << "/" << len;
  }
  // Non-RFC 6052 prefix lengths are invalid outright.
  EXPECT_FALSE(netcore::pref64_extract(
                   Ipv6Prefix(Ipv6Address::parse("2001:db8::"), 72),
                   Ipv6Address::parse("2001:db8::1"))
                   .has_value());
}

// --- DNS64 ------------------------------------------------------------------

TEST(Dns64, SynthesizesOnlyForV4OnlyHosts) {
  const Ipv6Prefix pref = netcore::well_known_pref64();
  v6::Dns64Resolver dns(pref);
  const Ipv4Address dual{16, 0, 0, 1};
  const Ipv6Address native = Ipv6Address::parse("2001:db8:cafe::1");
  dns.add_native_aaaa(dual, native);

  // Dual-stack host: the native AAAA comes back verbatim, unsynthesized.
  const auto a = dns.resolve_aaaa(dual);
  EXPECT_EQ(a.aaaa, native);
  EXPECT_FALSE(a.synthesized);
  EXPECT_FALSE(pref.contains(a.aaaa));

  // v4-only host: synthesized into the pref64, extractable back.
  const Ipv4Address v4only{16, 0, 0, 2};
  const auto b = dns.resolve_aaaa(v4only);
  EXPECT_TRUE(b.synthesized);
  EXPECT_TRUE(pref.contains(b.aaaa));
  EXPECT_EQ(netcore::pref64_extract(pref, b.aaaa), v4only);

  EXPECT_EQ(dns.queries(), 2u);
  EXPECT_EQ(dns.synthesized(), 1u);
}

TEST(Dns64, DiscoverPref64FindsEveryRfc6052Length) {
  for (int len : netcore::kPref64Lengths) {
    const Ipv6Prefix pref(Ipv6Address::parse("2001:db8::"), len);
    const auto found = v6::discover_pref64(v6::Dns64Resolver(pref));
    ASSERT_TRUE(found.has_value()) << "/" << len;
    EXPECT_EQ(*found, pref) << "/" << len;
  }
}

TEST(Dns64, DiscoverReturnsNulloptWithoutDns64OnPath) {
  // A resolver that answers the IPv4-only anchors natively is not a DNS64
  // (this models a plain resolver on a v4 or DS-Lite line).
  v6::Dns64Resolver dns(netcore::well_known_pref64());
  dns.add_native_aaaa(v6::kIpv4OnlyAnchorA,
                      Ipv6Address::parse("2001:db8::aa"));
  dns.add_native_aaaa(v6::kIpv4OnlyAnchorB,
                      Ipv6Address::parse("2001:db8::ab"));
  EXPECT_FALSE(v6::discover_pref64(dns).has_value());
}

// --- NAT64 / 464XLAT data plane --------------------------------------------

TEST(Nat64, ClatLineCompletesEchoRoundTrip) {
  test::MiniNet world;
  world.ensure_nat64(netcore::well_known_pref64());
  auto line = world.add_nat64_line(/*with_clat=*/true);

  const netcore::Endpoint dev{line.device_address, 4000};
  const netcore::Endpoint srv{world.server_address, 5000};
  int echoed = 0;
  world.net.bind(world.server_host, srv.port,
                 [&](sim::Network& net, const sim::Packet& p) {
                   EXPECT_FALSE(p.v6.present)
                       << "overlay must not leak past the NAT64";
                   net.send(sim::Packet::udp(srv, p.src), world.server_host);
                 });
  world.net.bind(line.device, dev.port,
                 [&](sim::Network&, const sim::Packet& p) {
                   EXPECT_EQ(p.dst.address, line.device_address);
                   ++echoed;
                 });

  world.net.send(sim::Packet::udp(dev, srv), line.device);
  EXPECT_EQ(echoed, 1);
  EXPECT_EQ(world.nat64->core().stats().outbound_translated, 1u);
  EXPECT_EQ(world.nat64->core().stats().inbound_translated, 1u);
  EXPECT_EQ(world.nat64->core().active_mappings(0.0), 1u);
}

TEST(Nat64, BareV6LineDropsUnresolvedLiteralsUntilDnsTeachesIt) {
  test::MiniNet world;
  world.ensure_nat64(netcore::well_known_pref64());
  auto line = world.add_nat64_line(/*with_clat=*/false);

  const netcore::Endpoint dev{line.device_address, 4000};
  const netcore::Endpoint srv{world.server_address, 5000};
  int echoed = 0;
  world.net.bind(world.server_host, srv.port,
                 [&](sim::Network& net, const sim::Packet& p) {
                   net.send(sim::Packet::udp(srv, p.src), world.server_host);
                 });
  world.net.bind(line.device, dev.port,
                 [&](sim::Network&, const sim::Packet&) { ++echoed; });

  // A raw v4 literal has no AAAA: it must die in the host stack — the
  // Big-NAT battery's NAT64-vs-464XLAT discriminator.
  EXPECT_EQ(world.net.send(sim::Packet::udp(dev, srv), line.device).reason,
            sim::DropReason::no_mapping);
  EXPECT_EQ(echoed, 0);
  ASSERT_NE(line.stack, nullptr);

  // After a DNS64 answer the same destination works end to end.
  line.stack->note_resolved(
      world.server_address,
      netcore::pref64_embed(world.nat64->pref64(), world.server_address));
  world.net.send(sim::Packet::udp(dev, srv), line.device);
  EXPECT_EQ(echoed, 1);
}

TEST(Nat64, HairpinsBetweenTwoLinesBehindOneTranslator) {
  // Line b reaches line a on a's public endpoint: the NAT64 unwraps b's
  // packet, its core loops it onto a's mapping, and the reply side is
  // re-wrapped for a's CLAT — a's device sees b's public endpoint.
  test::MiniNet world;
  nat::NatConfig cfg;
  cfg.mapping = nat::MappingType::full_cone;
  cfg.hairpinning = true;
  world.ensure_nat64(netcore::well_known_pref64(), cfg);
  auto a = world.add_nat64_line(/*with_clat=*/true);
  auto b = world.add_nat64_line(/*with_clat=*/true);

  const netcore::Endpoint srv{world.server_address, 5000};
  netcore::Endpoint a_public;
  world.net.bind(
      world.server_host, srv.port,
      [&](sim::Network&, const sim::Packet& p) { a_public = p.src; });
  std::vector<netcore::Endpoint> seen_by_a;
  world.net.bind(a.device, 4000, [&](sim::Network&, const sim::Packet& p) {
    EXPECT_EQ(p.dst.address, a.device_address);
    seen_by_a.push_back(p.src);
  });

  ASSERT_TRUE(world.net.send(sim::Packet::udp({a.device_address, 4000}, srv),
                             a.device)
                  .delivered);
  const auto r = world.net.send(
      sim::Packet::udp({b.device_address, 4000}, a_public), b.device);
  EXPECT_TRUE(r.delivered) << to_string(r.reason);
  ASSERT_EQ(seen_by_a.size(), 1u);
  EXPECT_NE(seen_by_a[0], a_public);
  EXPECT_EQ(world.nat64->core().stats().hairpins_forwarded, 1u);
}

TEST(Nat64, EachTranslationFailureReturnsItsVerdict) {
  using Verdict = sim::Middlebox::Verdict;
  test::MiniNet world;
  v6::Nat64Device& nat64 = world.ensure_nat64(netcore::well_known_pref64());
  auto line = world.add_nat64_line(/*with_clat=*/true);
  const netcore::Endpoint srv{world.server_address, 5000};
  const Ipv6Address stranger = Ipv6Address::parse("2001:db8:bad::1");

  // What the line's CLAT hands up: underlay source, pref64 destination.
  const auto from_line = [&] {
    sim::Packet p = sim::Packet::udp({line.underlay, 4000}, srv);
    p.v6.src = line.device_v6;
    p.v6.dst = netcore::pref64_embed(nat64.pref64(), srv.address);
    p.v6.present = true;
    return p;
  };

  sim::Packet p = from_line();
  p.v6.present = false;
  EXPECT_EQ(nat64.process_outbound(p, 0.0), Verdict::drop_other)
      << "no overlay";
  p = from_line();
  p.v6.src = stranger;
  EXPECT_EQ(nat64.process_outbound(p, 0.0), Verdict::drop_no_mapping)
      << "unknown v6 source";
  // The source is checked before the destination.
  p.v6.dst = Ipv6Address::parse("2001:db8:cafe::1");
  EXPECT_EQ(nat64.process_outbound(p, 0.0), Verdict::drop_no_mapping);
  p = from_line();
  p.v6.dst = Ipv6Address::parse("2001:db8:cafe::1");
  EXPECT_EQ(nat64.process_outbound(p, 0.0), Verdict::drop_other)
      << "destination outside the pref64";

  p = from_line();
  p.v6.present = false;
  EXPECT_EQ(nat64.process_hairpin(p, 0.0), Verdict::drop_other)
      << "hairpin without overlay";
  p = from_line();
  p.v6.src = stranger;
  EXPECT_EQ(nat64.process_hairpin(p, 0.0), Verdict::drop_no_mapping)
      << "hairpin from an unknown v6 source";
  // A hairpin's destination is not checked: this one reaches the core,
  // whose hairpinning is off.
  p = from_line();
  p.v6.dst = Ipv6Address::parse("2001:db8:cafe::1");
  EXPECT_EQ(nat64.process_hairpin(p, 0.0), Verdict::drop_other);
  EXPECT_EQ(nat64.core().stats().hairpins_dropped, 1u);

  // A core mapping whose internal side is no provisioned host's handle:
  // the core forwards the reply, the translator has nobody to re-wrap for.
  sim::Packet stray = sim::Packet::udp({Ipv4Address{10, 99, 0, 1}, 4000}, srv);
  ASSERT_EQ(nat64.core().process_outbound(stray, 0.0), Verdict::forward);
  sim::Packet reply = sim::Packet::udp(srv, stray.src);
  EXPECT_EQ(nat64.process_inbound(reply, 0.0), Verdict::drop_no_mapping)
      << "unknown handle on the way back";

  p = from_line();
  EXPECT_EQ(nat64.process_outbound(p, 0.0), Verdict::forward);
  EXPECT_FALSE(p.v6.present);
  EXPECT_EQ(p.dst, srv);
}

// --- DS-Lite ---------------------------------------------------------------

TEST(DsLite, TwoB4sShareTheSameInnerAddress) {
  // The paper-era pathology DS-Lite was built for: every home reuses the
  // same RFC 1918 inner space. Two softwires with inner 10.0.0.1 must get
  // independent NAT state and correctly routed replies.
  test::MiniNet world;
  world.ensure_aftr();
  const Ipv4Address inner{10, 0, 0, 1};
  auto a = world.add_dslite_line(inner);
  auto b = world.add_dslite_line(inner);
  ASSERT_NE(a.device_v6, b.device_v6);
  ASSERT_NE(a.underlay, b.underlay);

  const netcore::Endpoint srv{world.server_address, 5000};
  std::vector<netcore::Endpoint> seen;
  world.net.bind(world.server_host, srv.port,
                 [&](sim::Network& net, const sim::Packet& p) {
                   seen.push_back(p.src);
                   net.send(sim::Packet::udp(srv, p.src), world.server_host);
                 });
  int echoed_a = 0, echoed_b = 0;
  world.net.bind(a.device, 4000, [&](sim::Network&, const sim::Packet& p) {
    EXPECT_EQ(p.dst.address, inner);
    ++echoed_a;
  });
  world.net.bind(b.device, 4000, [&](sim::Network&, const sim::Packet& p) {
    EXPECT_EQ(p.dst.address, inner);
    ++echoed_b;
  });

  world.net.send(sim::Packet::udp({inner, 4000}, srv), a.device);
  world.net.send(sim::Packet::udp({inner, 4000}, srv), b.device);

  // Both homes completed a round trip; the AFTR kept one handle per
  // (softwire, inner) pair and the server saw two distinct public sources.
  EXPECT_EQ(echoed_a, 1);
  EXPECT_EQ(echoed_b, 1);
  EXPECT_EQ(world.aftr->handle_count(), 2u);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_NE(seen[0], seen[1]);
  EXPECT_EQ(world.aftr->core().active_mappings(0.0), 2u);
}

TEST(DsLite, HairpinsBetweenTwoSoftwiresWithTheSameInnerAddress) {
  // Both homes use inner 10.0.0.1; b reaches a on a's public endpoint and
  // the AFTR re-encapsulates the looped packet into a's softwire.
  test::MiniNet world;
  nat::NatConfig cfg;
  cfg.mapping = nat::MappingType::full_cone;
  cfg.hairpinning = true;
  world.ensure_aftr(cfg);
  const Ipv4Address inner{10, 0, 0, 1};
  auto a = world.add_dslite_line(inner);
  auto b = world.add_dslite_line(inner);

  const netcore::Endpoint srv{world.server_address, 5000};
  netcore::Endpoint a_public;
  world.net.bind(
      world.server_host, srv.port,
      [&](sim::Network&, const sim::Packet& p) { a_public = p.src; });
  std::vector<netcore::Endpoint> seen_by_a;
  world.net.bind(a.device, 4000, [&](sim::Network&, const sim::Packet& p) {
    EXPECT_EQ(p.dst, (netcore::Endpoint{inner, 4000}));
    seen_by_a.push_back(p.src);
  });
  world.net.bind(b.device, 4000, [&](sim::Network&, const sim::Packet&) {
    ADD_FAILURE() << "the hairpin must not loop back into b's softwire";
  });

  ASSERT_TRUE(
      world.net.send(sim::Packet::udp({inner, 4000}, srv), a.device).delivered);
  const auto r =
      world.net.send(sim::Packet::udp({inner, 4000}, a_public), b.device);
  EXPECT_TRUE(r.delivered) << to_string(r.reason);
  ASSERT_EQ(seen_by_a.size(), 1u);
  EXPECT_NE(seen_by_a[0], a_public);
  EXPECT_EQ(world.aftr->handle_count(), 2u);
  EXPECT_EQ(world.aftr->core().stats().hairpins_forwarded, 1u);
}

TEST(DsLite, EachTranslationFailureReturnsItsVerdict) {
  using Verdict = sim::Middlebox::Verdict;
  test::MiniNet world;
  v6::DsLiteAftr& aftr = world.ensure_aftr();
  const Ipv4Address inner{10, 0, 0, 1};
  auto line = world.add_dslite_line(inner);
  const netcore::Endpoint srv{world.server_address, 5000};
  const Ipv6Address stranger = Ipv6Address::parse("2001:db8:bad::1");

  // What the line's B4 hands up: inner source, softwire to the AFTR.
  const auto from_b4 = [&] {
    sim::Packet p = sim::Packet::udp({inner, 4000}, srv);
    p.v6.src = line.device_v6;
    p.v6.dst = aftr.aftr_address();
    p.v6.present = true;
    return p;
  };

  sim::Packet p = from_b4();
  p.v6.present = false;
  EXPECT_EQ(aftr.process_outbound(p, 0.0), Verdict::drop_other)
      << "no overlay";
  p = from_b4();
  p.v6.dst = Ipv6Address::parse("2001:db8::af2");
  EXPECT_EQ(aftr.process_outbound(p, 0.0), Verdict::drop_other)
      << "softwire to another AFTR";
  // The destination is checked before the source.
  p.v6.src = stranger;
  EXPECT_EQ(aftr.process_outbound(p, 0.0), Verdict::drop_other);
  p = from_b4();
  p.v6.src = stranger;
  EXPECT_EQ(aftr.process_outbound(p, 0.0), Verdict::drop_no_mapping)
      << "unknown B4";

  p = from_b4();
  p.v6.present = false;
  EXPECT_EQ(aftr.process_hairpin(p, 0.0), Verdict::drop_other)
      << "hairpin without overlay";
  p = from_b4();
  p.v6.src = stranger;
  EXPECT_EQ(aftr.process_hairpin(p, 0.0), Verdict::drop_no_mapping)
      << "hairpin from an unknown B4";
  EXPECT_EQ(aftr.handle_count(), 0u) << "no handle for a refused packet";
  // A hairpin's destination is not checked: this one reaches the core,
  // whose hairpinning is off.
  p = from_b4();
  p.v6.dst = Ipv6Address::parse("2001:db8::af2");
  EXPECT_EQ(aftr.process_hairpin(p, 0.0), Verdict::drop_other);
  EXPECT_EQ(aftr.core().stats().hairpins_dropped, 1u);

  // A core mapping on a handle the AFTR never assigned: the core forwards
  // the reply, the AFTR has no softwire to re-encapsulate it into.
  sim::Packet stray =
      sim::Packet::udp({Ipv4Address{240, 99, 0, 1}, 4000}, srv);
  ASSERT_EQ(aftr.core().process_outbound(stray, 0.0), Verdict::forward);
  sim::Packet reply = sim::Packet::udp(srv, stray.src);
  EXPECT_EQ(aftr.process_inbound(reply, 0.0), Verdict::drop_no_mapping)
      << "unknown handle on the way back";

  p = from_b4();
  EXPECT_EQ(aftr.process_outbound(p, 0.0), Verdict::forward);
  EXPECT_FALSE(p.v6.present);
  EXPECT_EQ(aftr.handle_count(), 1u);
}

// --- Fault hooks ------------------------------------------------------------

TEST(Nat64, ScheduledRestartFlushesTranslatorState) {
  // The fault plan's NAT restarts must bite the NAT64 exactly like a
  // NAT444 CGN: the embedded core flushes its binding table at the period
  // boundary, and traffic re-establishes from empty afterwards.
  test::MiniNet world;
  world.ensure_nat64(netcore::well_known_pref64());
  auto line = world.add_nat64_line(/*with_clat=*/true);

  fault::NatFaults faults;
  faults.restart_period_s = 100.0;
  world.nat64->core().set_fault_profile(faults, /*restart_phase_s=*/0.0);

  const netcore::Endpoint dev{line.device_address, 4000};
  const netcore::Endpoint srv{world.server_address, 5000};
  int echoed = 0;
  world.net.bind(world.server_host, srv.port,
                 [&](sim::Network& net, const sim::Packet& p) {
                   net.send(sim::Packet::udp(srv, p.src), world.server_host);
                 });
  world.net.bind(line.device, dev.port,
                 [&](sim::Network&, const sim::Packet&) { ++echoed; });

  world.net.send(sim::Packet::udp(dev, srv), line.device);
  ASSERT_EQ(echoed, 1);
  ASSERT_EQ(world.nat64->core().active_mappings(world.clock.now()), 1u);

  // Crossing the restart boundary reboots the translator lazily.
  world.clock.advance(150.0);
  world.net.send(sim::Packet::udp(dev, srv), line.device);
  EXPECT_EQ(echoed, 2);
  EXPECT_EQ(world.nat64->core().stats().restarts, 1u);
  EXPECT_GE(world.nat64->core().stats().restart_flushed_mappings, 1u);
  EXPECT_EQ(world.nat64->core().active_mappings(world.clock.now()), 1u);
}

// --- Transition classifier --------------------------------------------------

netalyzr::SessionResult battery_session(netcore::Asn asn, Ipv4Address dev,
                                        bool pref64, bool literal_ok) {
  netalyzr::SessionResult s;
  s.asn = asn;
  s.ip_dev = dev;
  s.ip_pub = Ipv4Address{16, 9, 9, 9};
  s.transition.emplace();
  s.transition->pref64_detected = pref64;
  s.transition->literal_v4_ok = literal_ok;
  return s;
}

TEST(TransitionClassifier, SeparatesAllFourMechanisms) {
  using analysis::TransitionVerdict;
  std::vector<netalyzr::SessionResult> sessions;
  // AS 1: NAT64 + 464XLAT (pref64 on path; the literal probe splits them).
  for (int i = 0; i < 3; ++i) {
    auto s = battery_session(1, Ipv4Address{169, 254, 0, 1}, true, false);
    s.line_mode = nat::TranslatorMode::nat64;
    sessions.push_back(s);
    auto c = battery_session(1, Ipv4Address{192, 0, 0, 1}, true, true);
    c.line_mode = nat::TranslatorMode::nat64;
    c.line_clat = true;
    sessions.push_back(c);
  }
  // AS 2: DS-Lite — one identical RFC 1918 ip_dev, UPnP silent, ip_pub
  // translated.
  for (int i = 0; i < 4; ++i) {
    auto s = battery_session(2, Ipv4Address{192, 168, 1, 2}, false, true);
    s.line_mode = nat::TranslatorMode::dslite_aftr;
    sessions.push_back(s);
  }
  // AS 3: NAT444 behind varied home CPEs, some answering UPnP.
  for (int i = 0; i < 4; ++i) {
    auto s = battery_session(
        3, Ipv4Address(Ipv4Address{192, 168, 0, 2}.value() +
                       static_cast<std::uint32_t>(i) * 256),
        false, true);
    if (i % 2 == 0) s.ip_cpe = Ipv4Address{10, 0, 0, 7};
    sessions.push_back(s);
  }

  const auto r = analysis::TransitionDetector().analyze(sessions);
  EXPECT_EQ(r.observed_sessions, 14u);
  EXPECT_EQ(r.scored_ases, 3u);
  for (int i = 0; i < analysis::kTransitionVerdicts; ++i) {
    const auto v = static_cast<TransitionVerdict>(i);
    EXPECT_DOUBLE_EQ(r.of(v).accuracy(), 1.0) << analysis::to_string(v);
  }
  EXPECT_EQ(r.of(TransitionVerdict::nat64).truth_sessions, 3u);
  EXPECT_EQ(r.of(TransitionVerdict::xlat464).truth_sessions, 3u);
  EXPECT_EQ(r.of(TransitionVerdict::dslite).truth_sessions, 4u);
  EXPECT_EQ(r.of(TransitionVerdict::nat444).truth_sessions, 4u);
}

TEST(TransitionClassifier, UpnpAnswerVetoesTheDslitVerdict) {
  // Same dominant ip_dev, but the homes answer UPnP: that's a fleet of
  // identical home CPEs (NAT444), not B4s.
  std::vector<netalyzr::SessionResult> sessions;
  for (int i = 0; i < 4; ++i) {
    auto s = battery_session(7, Ipv4Address{192, 168, 1, 2}, false, true);
    s.ip_cpe = Ipv4Address{10, 0, 0, 7};
    sessions.push_back(s);
  }
  const auto r = analysis::TransitionDetector().analyze(sessions);
  EXPECT_EQ(r.of(analysis::TransitionVerdict::dslite).classified_sessions,
            0u);
  EXPECT_EQ(r.of(analysis::TransitionVerdict::nat444).classified_sessions,
            4u);
}

// --- Campaign determinism ----------------------------------------------------

scenario::InternetConfig tiny_v6_config() {
  scenario::InternetConfig cfg;
  cfg.seed = 11;
  cfg.routed_ases = 240;
  cfg.pbl_eyeballs = 46;
  cfg.apnic_eyeballs = 50;
  cfg.cellular_ases = 8;
  cfg.nz_eyeball_coverage = 0.6;
  cfg.nz_sessions_lo = 6;
  cfg.nz_sessions_hi = 14;
  cfg.v6.enabled = true;
  return cfg;
}

struct V6Run {
  std::uint64_t fingerprint = 0;
  std::size_t sessions = 0;
  std::size_t battery = 0;
  double final_time = 0.0;
  super::CampaignReport report;
};

V6Run run_v6_campaign(const scenario::InternetConfig& world,
                      std::size_t threads,
                      const super::SupervisorConfig& supervise = {}) {
  auto internet = scenario::build_internet(world);
  scenario::NetalyzrCampaignConfig cfg;
  cfg.enum_fraction = 0.4;
  cfg.transition_battery = true;
  cfg.threads = threads;
  cfg.supervise = supervise;
  V6Run run;
  const auto sessions =
      scenario::run_netalyzr_campaign(*internet, cfg, &run.report);
  run.fingerprint = netalyzr::fingerprint(sessions);
  run.sessions = sessions.size();
  for (const auto& s : sessions) run.battery += s.transition ? 1 : 0;
  run.final_time = internet->clock.now();
  return run;
}

TEST(V6Campaign, TransitionWorldExercisesEveryMechanism) {
  auto internet = scenario::build_internet(tiny_v6_config());
  std::size_t nat64_ases = 0, dslite_ases = 0;
  for (const auto& isp : internet->isps) {
    nat64_ases += isp.transition == nat::TranslatorMode::nat64 ? 1 : 0;
    dslite_ases +=
        isp.transition == nat::TranslatorMode::dslite_aftr ? 1 : 0;
    if (isp.transition == nat::TranslatorMode::nat64) {
      ASSERT_NE(isp.nat64, nullptr);
      EXPECT_EQ(isp.cgn, &isp.nat64->core());
      EXPECT_TRUE(
          netcore::is_valid_pref64_length(isp.nat64->pref64().length()));
    }
    if (isp.transition == nat::TranslatorMode::dslite_aftr) {
      ASSERT_NE(isp.aftr, nullptr);
      EXPECT_EQ(isp.cgn, &isp.aftr->core());
    }
  }
  EXPECT_GE(nat64_ases, 1u);
  EXPECT_GE(dslite_ases, 1u);
}

TEST(V6Campaign, BatteryResultsAreThreadCountInvariant) {
  const V6Run serial = run_v6_campaign(tiny_v6_config(), 1);
  ASSERT_GT(serial.sessions, 50u);
  ASSERT_GT(serial.battery, 50u);

  for (std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    const V6Run parallel = run_v6_campaign(tiny_v6_config(), threads);
    EXPECT_EQ(parallel.sessions, serial.sessions) << threads << " workers";
    EXPECT_EQ(parallel.battery, serial.battery) << threads << " workers";
    EXPECT_EQ(parallel.fingerprint, serial.fingerprint)
        << threads << " workers diverged in a v6-transition world";
    EXPECT_EQ(parallel.final_time, serial.final_time) << threads;
  }
}

TEST(V6Campaign, KillResumeIsByteIdentical) {
  const scenario::InternetConfig world = tiny_v6_config();
  const V6Run uninterrupted = run_v6_campaign(world, 2);
  ASSERT_GT(uninterrupted.battery, 50u);

  super::SupervisorConfig ckpt;
  ckpt.checkpoint_path = test::temp_path("v6_resume.ckpt");

  super::SupervisorConfig kill = ckpt;
  kill.abort_after_shards = uninterrupted.report.planned() / 2;
  ASSERT_GT(kill.abort_after_shards, 0u);
  EXPECT_THROW((void)run_v6_campaign(world, 2, kill),
               super::CampaignAborted);

  // The resumed campaign restores checkpointed shards — including their
  // serialized battery observations and ground-truth line stamps (codec
  // v2) — and must reproduce the uninterrupted run byte for byte.
  const V6Run resumed = run_v6_campaign(world, 2, ckpt);
  EXPECT_GE(resumed.report.count(super::ShardStatus::resumed), 1u);
  EXPECT_EQ(resumed.sessions, uninterrupted.sessions);
  EXPECT_EQ(resumed.battery, uninterrupted.battery);
  EXPECT_EQ(resumed.fingerprint, uninterrupted.fingerprint)
      << "kill→resume diverged in a v6-transition world";
}

TEST(V6Campaign, StormyFaultPlanFlushesNat64StateDeterministically) {
  // NAT restarts in the fault plan must reach the translator cores (the
  // wiring goes through the same set_fault_profile as NAT444) and the
  // stormy run must stay worker-count invariant.
  scenario::InternetConfig cfg = tiny_v6_config();
  cfg.fault_plan.link.loss_rate = 0.02;
  cfg.fault_plan.nat.restart_period_s = 600.0;

  auto internet = scenario::build_internet(cfg);
  scenario::NetalyzrCampaignConfig ccfg;
  ccfg.enum_fraction = 0.4;
  ccfg.transition_battery = true;
  ccfg.threads = 1;
  const auto sessions = scenario::run_netalyzr_campaign(*internet, ccfg);
  ASSERT_GT(sessions.size(), 50u);
  std::uint64_t restarts = 0, translator_restarts = 0;
  for (const auto& isp : internet->isps) {
    if (!isp.cgn) continue;
    restarts += isp.cgn->stats().restarts;
    if (isp.transition != nat::TranslatorMode::nat44)
      translator_restarts += isp.cgn->stats().restarts;
  }
  EXPECT_GT(restarts, 0u) << "restart faults never fired on any NAT core";
  EXPECT_GT(translator_restarts, 0u)
      << "restart faults never reached a NAT64/AFTR core";

  const V6Run s1 = [&] {
    V6Run r;
    r.fingerprint = netalyzr::fingerprint(sessions);
    r.sessions = sessions.size();
    return r;
  }();
  const V6Run s4 = run_v6_campaign(cfg, 4);
  EXPECT_EQ(s4.sessions, s1.sessions);
  EXPECT_EQ(s4.fingerprint, s1.fingerprint)
      << "stormy v6 campaign diverged between 1 and 4 workers";
}

}  // namespace
}  // namespace cgn
