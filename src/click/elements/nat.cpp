#include "click/elements/nat.hpp"

#include "common/log.hpp"
#include "packet/checksum.hpp"
#include "packet/flow.hpp"
#include "packet/headers.hpp"
#include "telemetry/metrics.hpp"

namespace rb {
namespace {

// Patches the L4 checksum for a source (outbound) or destination
// (inbound) rewrite. TCP checksums are mandatory; a zero UDP checksum
// means "not computed" (RFC 768) and must stay zero.
void PatchL4(uint8_t* l4, uint8_t protocol, uint32_t old_ip, uint32_t new_ip,
             uint16_t old_port, uint16_t new_port, size_t port_offset) {
  size_t csum_offset;
  if (protocol == Ipv4View::kProtoTcp) {
    csum_offset = 16;
  } else if (protocol == Ipv4View::kProtoUdp) {
    csum_offset = 6;
    if (LoadBe16(l4 + csum_offset) == 0) {
      StoreBe16(l4 + port_offset, new_port);
      return;
    }
  } else {
    return;  // no known L4 checksum; the IP patch already happened
  }
  uint16_t csum = LoadBe16(l4 + csum_offset);
  csum = ChecksumUpdate32(csum, old_ip, new_ip);  // pseudo-header address
  csum = ChecksumUpdate16(csum, old_port, new_port);
  StoreBe16(l4 + csum_offset, csum);
  StoreBe16(l4 + port_offset, new_port);
}

}  // namespace

Nat::Nat(const NatOptions& options)
    : Element(2, 2),
      opt_(options),
      table_([&options] {
        FlowTableConfig tc;
        tc.capacity = options.capacity;
        tc.shards = options.shards;
        tc.max_probe_buckets = options.max_probe_buckets;
        tc.hi_watermark = options.hi_watermark;
        tc.lo_watermark = options.lo_watermark;
        tc.idle_timeout = options.idle_timeout_ms;
        tc.evict_on_full = options.evict_on_full;
        return tc;
      }()),
      clock_(&telemetry::NowSeconds) {
  // One mapping port per table slot: every live entry can always hold a
  // port, so a successful insert never fails mapping allocation.
  const size_t slots = table_.capacity_slots();
  RB_CHECK_MSG(opt_.base_port + slots <= 65536,
               "Nat: capacity does not fit the port space above base_port");
  reverse_.resize(slots);
  free_list_.reserve(slots);
  for (size_t i = slots; i > 0; --i) {
    free_list_.push_back(static_cast<uint32_t>(i - 1));
  }
  table_.set_on_evict([this](const FlowEntry& e) {
    // Mapping ports follow table entries: eviction (idle, watermark, or
    // full-window) returns the port to the free list, so ports cannot
    // leak no matter which eviction path fired.
    const uint32_t idx = static_cast<uint32_t>(e.state0);
    if (idx < reverse_.size() && reverse_[idx].in_use) {
      reverse_[idx].in_use = false;
      free_list_.push_back(idx);
    }
  });
}

void Nat::PushBatch(int port, PacketBatch& batch) {
  const uint32_t tick = NowTick();
  if (port == 0) {
    PushOutbound(batch, tick);
  } else {
    PushInbound(batch, tick);
  }
  if ((++batches_ & 63u) == 0) {
    Housekeep(tick);
  }
}

void Nat::PushOutbound(PacketBatch& batch, uint32_t tick) {
  PacketBatch ok;
  PacketBatch full;
  PacketBatch runts;
  const uint32_t n = batch.size();
  for (uint32_t i = 0; i < n; ++i) {
    if (i + 1 < n) {
      PrefetchPacketHeaders(batch[i + 1]);
    }
    Packet* p = batch[i];
    FlowKey key;
    if (!ExtractFlowKey(*p, &key)) {
      runts.PushBack(p);
      continue;
    }
    bool inserted = false;
    FlowEntry* e = table_.FindOrInsert(key, tick, &inserted);
    if (e == nullptr) {
      full.PushBack(p);
      continue;
    }
    if (inserted) {
      // Table sizing guarantees a free port here (one port per slot and
      // every eviction frees its port before the slot is reused).
      RB_CHECK_MSG(!free_list_.empty(), "Nat: mapping free list underflow");
      const uint32_t idx = free_list_.back();
      free_list_.pop_back();
      reverse_[idx] = ReverseEntry{key.src_ip, key.src_port, true};
      e->state0 = idx;
      e->flags |= FlowEntry::kEstablished;
    }
    const uint32_t idx = static_cast<uint32_t>(e->state0);
    const uint16_t new_port = static_cast<uint16_t>(opt_.base_port + idx);
    Ipv4View ip{p->data() + EthernetView::kSize};
    const uint32_t old_ip = ip.src();
    ip.set_src(opt_.external_ip);
    ip.set_checksum(ChecksumUpdate32(ip.checksum(), old_ip, opt_.external_ip));
    PatchL4(ip.base + ip.header_length(), key.protocol,
            old_ip, opt_.external_ip, key.src_port, new_port, /*port_offset=*/0);
    ok.PushBack(p);
  }
  batch.Clear();
  if (!full.empty()) {
    table_full_.fetch_add(full.size(), std::memory_order_relaxed);
    if (tele_table_full_ != nullptr) {
      tele_table_full_->Add(full.size());
    }
    DropBatch(full);
  }
  if (!runts.empty()) {
    malformed_.fetch_add(runts.size(), std::memory_order_relaxed);
    if (tele_malformed_ != nullptr) {
      tele_malformed_->Add(runts.size());
    }
    DropBatch(runts);
  }
  OutputBatch(0, ok);
}

void Nat::PushInbound(PacketBatch& batch, uint32_t tick) {
  PacketBatch ok;
  PacketBatch unmapped;
  PacketBatch runts;
  const uint32_t n = batch.size();
  for (uint32_t i = 0; i < n; ++i) {
    if (i + 1 < n) {
      PrefetchPacketHeaders(batch[i + 1]);
    }
    Packet* p = batch[i];
    FlowKey key;
    if (!ExtractFlowKey(*p, &key)) {
      runts.PushBack(p);
      continue;
    }
    const uint32_t idx = static_cast<uint32_t>(key.dst_port) - opt_.base_port;
    if (key.dst_ip != opt_.external_ip || key.dst_port < opt_.base_port ||
        idx >= reverse_.size() || !reverse_[idx].in_use) {
      unmapped.PushBack(p);
      continue;
    }
    const ReverseEntry& rev = reverse_[idx];
    // Keep the mapping warm: the forward entry is keyed by the inside
    // flow (inside src -> remote dst). A reply's source is the remote.
    FlowKey fwd{rev.inside_ip, key.src_ip, rev.inside_port, key.src_port, key.protocol};
    FlowEntry* e = table_.Find(fwd, tick);
    if (e == nullptr || static_cast<uint32_t>(e->state0) != idx) {
      unmapped.PushBack(p);
      continue;
    }
    Ipv4View ip{p->data() + EthernetView::kSize};
    const uint32_t old_ip = ip.dst();
    ip.set_dst(rev.inside_ip);
    ip.set_checksum(ChecksumUpdate32(ip.checksum(), old_ip, rev.inside_ip));
    PatchL4(ip.base + ip.header_length(), key.protocol,
            old_ip, rev.inside_ip, key.dst_port, rev.inside_port, /*port_offset=*/2);
    ok.PushBack(p);
  }
  batch.Clear();
  if (!unmapped.empty()) {
    no_mapping_.fetch_add(unmapped.size(), std::memory_order_relaxed);
    if (tele_no_mapping_ != nullptr) {
      tele_no_mapping_->Add(unmapped.size());
    }
    DropBatch(unmapped);
  }
  if (!runts.empty()) {
    malformed_.fetch_add(runts.size(), std::memory_order_relaxed);
    if (tele_malformed_ != nullptr) {
      tele_malformed_->Add(runts.size());
    }
    DropBatch(runts);
  }
  OutputBatch(1, ok);
}

void Nat::Housekeep(uint32_t tick) {
  // Idle reclamation runs only while occupancy sits above the low
  // watermark — under light load dead mappings can wait for their slot
  // to be probed; above it, a budgeted sweep frees them proactively.
  const double lo = table_.lo_watermark();
  if (table_.idle_timeout() != 0 &&
      static_cast<double>(table_.occupancy()) >
          lo * static_cast<double>(table_.capacity_slots())) {
    table_.SweepIdle(tick, 256);
  }
  table_.RefreshTelemetry();
}

void Nat::BindTelemetry(telemetry::MetricRegistry* registry, telemetry::PathTracer* tracer,
                        const std::string& prefix) {
  Element::BindTelemetry(registry, tracer, prefix);
  if (registry == nullptr || !telemetry::Enabled()) {
    return;
  }
  const std::string base = prefix + "elem/" + name();
  tele_table_full_ = registry->GetCounter(base + "/drops/flow_table_full");
  tele_no_mapping_ = registry->GetCounter(base + "/drops/no_mapping");
  tele_malformed_ = registry->GetCounter(base + "/drops/malformed");
  table_.BindTelemetry(registry, prefix, name());
}

void Nat::AddHandlers(telemetry::HandlerRegistry* handlers) {
  Element::AddHandlers(handlers);
  table_.AddHandlers(handlers, name());
  handlers->AddRead(name() + ".table_full", [this] {
    return std::to_string(table_full_.load(std::memory_order_relaxed));
  });
  handlers->AddRead(name() + ".no_mapping", [this] {
    return std::to_string(no_mapping_.load(std::memory_order_relaxed));
  });
  handlers->AddRead(name() + ".mappings", [this] {
    return std::to_string(mappings_in_use());
  });
}

}  // namespace rb
