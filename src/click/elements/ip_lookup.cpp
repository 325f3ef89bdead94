#include "click/elements/ip_lookup.hpp"

#include "common/log.hpp"
#include "common/strings.hpp"
#include "packet/headers.hpp"

namespace rb {

namespace {

std::vector<int32_t> IdentityMap(int n_next_hops) {
  // Hop h in [1, n] -> port h - 1; hop 0 is kNoRoute.
  std::vector<int32_t> map(static_cast<size_t>(n_next_hops) + 1, -1);
  for (int h = 1; h <= n_next_hops; ++h) {
    map[static_cast<size_t>(h)] = h - 1;
  }
  return map;
}

}  // namespace

IpLookup::IpLookup(const LpmTable* table, int n_next_hops)
    : IpLookup(table, n_next_hops, IdentityMap(n_next_hops)) {}

IpLookup::IpLookup(const LpmTable* table, int n_outputs, std::vector<int32_t> port_for_hop)
    : Element(1, n_outputs),
      table_(table),
      port_for_hop_(std::move(port_for_hop)),
      lanes_(static_cast<size_t>(n_outputs)) {
  RB_CHECK(table != nullptr);
  RB_CHECK(n_outputs >= 1);
  RB_CHECK_MSG(!port_for_hop_.empty() && port_for_hop_[0] < 0,
               "next-hop map must leave kNoRoute (hop 0) unmapped");
  for (int32_t port : port_for_hop_) {
    RB_CHECK_MSG(port >= -1 && port < n_outputs, "next-hop map entry out of port range");
  }
}

void IpLookup::PushBatch(int /*port*/, PacketBatch& batch) {
  PacketBatch bad;
  const uint32_t n = batch.size();
  // Gather -> batch resolve -> partition: the table walk is the memory-
  // bound core of the routing application, so the whole burst's addresses
  // go through one LookupBatch call where the table pipelines prefetches.
  uint32_t addrs[PacketBatch::kCapacity];
  uint32_t hops[PacketBatch::kCapacity];
  Packet* pkts[PacketBatch::kCapacity];
  uint32_t m = 0;
  {
#if defined(RB_PROFILE) && RB_PROFILE
    // Phase scope: the LPM table walks alone. Entered once per burst — the
    // scope bookkeeping amortizes across the batch.
    static const telemetry::ScopeId kLpmPhase = telemetry::InternScopeName("phase/lpm_lookup");
    RB_PROF_SCOPE(kLpmPhase);
#endif
    for (uint32_t i = 0; i < n; ++i) {
      if (i + 1 < n) {
        // Overlap the next packet's header fetch with this packet's
        // destination extraction.
        PrefetchPacketHeaders(batch[i + 1]);
      }
      Packet* p = batch[i];
      if (p->length() < EthernetView::kSize + Ipv4View::kMinSize) {
        bad.PushBack(p);
        continue;
      }
      addrs[m] = Ipv4View{p->data() + EthernetView::kSize}.dst();
      pkts[m] = p;
      m++;
    }
    table_->LookupBatch(addrs, hops, m);
  }
  batch.Clear();
  const uint32_t map_size = static_cast<uint32_t>(port_for_hop_.size());
  for (uint32_t i = 0; i < m; ++i) {
    const uint32_t hop = hops[i];
    if (hop == LpmTable::kNoRoute) {
      no_route_.fetch_add(1, std::memory_order_relaxed);
      bad.PushBack(pkts[i]);
      continue;
    }
    const int32_t out = hop < map_size ? port_for_hop_[hop] : -1;
    if (out < 0) {
      // A route whose next hop the port map does not cover: misconfigured
      // table. Drop and count — wrapping it onto a valid port would
      // silently mis-deliver traffic.
      bad_hop_.fetch_add(1, std::memory_order_relaxed);
      bad.PushBack(pkts[i]);
      continue;
    }
    lanes_[static_cast<size_t>(out)].PushBack(pkts[i]);
  }
  DropBatch(bad);
  for (int out = 0; out < n_outputs(); ++out) {
    OutputBatch(out, lanes_[static_cast<size_t>(out)]);
  }
}

void IpLookup::AddHandlers(telemetry::HandlerRegistry* handlers) {
  Element::AddHandlers(handlers);
  handlers->AddRead(name() + ".no_route", [this] {
    return Format("%llu", static_cast<unsigned long long>(no_route()));
  });
  handlers->AddRead(name() + ".bad_hop", [this] {
    return Format("%llu", static_cast<unsigned long long>(bad_hop()));
  });
}

}  // namespace rb
