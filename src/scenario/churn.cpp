#include "scenario/churn.hpp"

namespace cgn::scenario {

ChurnStats apply_renumbering_event(Internet& internet,
                                   const ChurnConfig& config) {
  ChurnStats stats;
  sim::Rng rng = internet.fork_rng();
  for (int event = 0; event < config.events; ++event) {
    for (IspInstance& isp : internet.isps) {
      for (Subscriber& sub : isp.subscribers) {
        // Only public CPE lines renumber this way; CGN-internal lines keep
        // their internal address (the CGN's pool is the ISP's concern).
        if (sub.behind_cgn || !sub.cpe || sub.cpe_node == sim::kNoNode)
          continue;
        if (!rng.chance(config.renumber_fraction)) continue;
        if (isp.spare_used + 2 >= isp.spare_block.size()) continue;
        netcore::Ipv4Address old_addr = sub.cpe->external_pool().front();
        netcore::Ipv4Address new_addr =
            isp.spare_block.at(++isp.spare_used);
        if (!sub.cpe->renumber_external(old_addr, new_addr)) continue;
        internet.net.unregister_address(old_addr, sub.cpe_node,
                                        internet.net.root());
        internet.net.register_address(new_addr, sub.cpe_node,
                                      internet.net.root());
        ++stats.lines_renumbered;
      }
    }
    ++stats.events_applied;
  }
  return stats;
}

}  // namespace cgn::scenario
