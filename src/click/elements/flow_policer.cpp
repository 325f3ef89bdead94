#include "click/elements/flow_policer.hpp"

#include <algorithm>

#include "packet/flow.hpp"
#include "telemetry/handler.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace rb {

namespace {
constexpr uint64_t kTokenFp = 1u << 16;  // one token in 16.16 fixed point
}  // namespace

FlowPolicer::FlowPolicer(const FlowPolicerOptions& options)
    : Element(options.mode == PolicerMode::kFirewall ? 2 : 1,
                   options.mode == PolicerMode::kFirewall ? 2 : 1),
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
      clock_(&telemetry::NowSeconds),
      burst_fp_(options.burst * kTokenFp),
      rate_pps_(options.rate_pps) {}

bool FlowPolicer::TakeToken(FlowEntry* e, uint32_t tick) const {
  const uint64_t rate = rate_pps_.load(std::memory_order_relaxed);
  uint64_t tokens = e->state0;
  const uint32_t dt = tick - e->state1;  // ms, wrap-safe
  if (dt != 0) {
    // Clamp the elapsed window at whatever fills the bucket from empty;
    // beyond that the extra time is irrelevant and the multiply below
    // stays far from overflow.
    const uint64_t fill_ms = (opt_.burst * 1000) / std::max<uint64_t>(rate, 1) + 1;
    if (dt >= fill_ms) {
      tokens = burst_fp_;
    } else {
      tokens = std::min(burst_fp_, tokens + rate * dt * kTokenFp / 1000);
    }
    e->state1 = tick;
  }
  if (tokens < kTokenFp) {
    e->state0 = tokens;
    return false;
  }
  e->state0 = tokens - kTokenFp;
  return true;
}

void FlowPolicer::PushBatch(int port, PacketBatch& batch) {
  const uint32_t tick = NowTick();
  if (opt_.mode == PolicerMode::kPolice) {
    PushPolice(batch, tick);
  } else if (port == 0) {
    PushInside(batch, tick);
  } else {
    PushOutside(batch, tick);
  }
  if ((++batches_ & 63u) == 0) {
    Housekeep(tick);
  }
}

void FlowPolicer::PushPolice(PacketBatch& batch, uint32_t tick) {
  PacketBatch ok;
  PacketBatch over;
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
      e->state0 = burst_fp_;  // new flows start with a full bucket
      e->state1 = tick;
      e->flags |= FlowEntry::kEstablished;
    }
    if (TakeToken(e, tick)) {
      ok.PushBack(p);
    } else {
      over.PushBack(p);
    }
  }
  batch.Clear();
  if (!over.empty()) {
    policed_.fetch_add(over.size(), std::memory_order_relaxed);
    if (tele_policed_ != nullptr) {
      tele_policed_->Add(over.size());
    }
    DropBatch(over);
  }
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

void FlowPolicer::PushInside(PacketBatch& batch, uint32_t tick) {
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
      // Table exhausted: inside traffic still forwards (fail-open for
      // the trusted side), it just cannot pin state for replies.
      full.PushBack(p);
      ok.PushBack(p);
      continue;
    }
    e->flags |= FlowEntry::kEstablished;
    ok.PushBack(p);
  }
  batch.Clear();
  if (!full.empty()) {
    table_full_.fetch_add(full.size(), std::memory_order_relaxed);
    if (tele_table_full_ != nullptr) {
      tele_table_full_->Add(full.size());
    }
    // Counted, not dropped: the packets already rode along in `ok`.
    full.Clear();
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

void FlowPolicer::PushOutside(PacketBatch& batch, uint32_t tick) {
  PacketBatch ok;
  PacketBatch blocked;
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
    // A reply to an inside-originated flow arrives with the 5-tuple
    // reversed; only established entries open the pinhole.
    FlowKey fwd{key.dst_ip, key.src_ip, key.dst_port, key.src_port, key.protocol};
    FlowEntry* e = table_.Find(fwd, tick);
    if (e != nullptr && e->established()) {
      ok.PushBack(p);
    } else {
      blocked.PushBack(p);
    }
  }
  batch.Clear();
  if (!blocked.empty()) {
    not_established_.fetch_add(blocked.size(), std::memory_order_relaxed);
    if (tele_not_established_ != nullptr) {
      tele_not_established_->Add(blocked.size());
    }
    DropBatch(blocked);
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

void FlowPolicer::Housekeep(uint32_t tick) {
  const double lo = table_.lo_watermark();
  if (table_.idle_timeout() != 0 &&
      static_cast<double>(table_.occupancy()) >
          lo * static_cast<double>(table_.capacity_slots())) {
    table_.SweepIdle(tick, 256);
  }
  table_.RefreshTelemetry();
}

void FlowPolicer::BindTelemetry(telemetry::MetricRegistry* registry,
                                telemetry::PathTracer* tracer, const std::string& prefix) {
  Element::BindTelemetry(registry, tracer, prefix);
  if (registry == nullptr || !telemetry::Enabled()) {
    return;
  }
  const std::string base = prefix + "elem/" + name();
  tele_policed_ = registry->GetCounter(base + "/drops/policed");
  tele_not_established_ = registry->GetCounter(base + "/drops/not_established");
  tele_table_full_ = registry->GetCounter(base + "/drops/flow_table_full");
  tele_malformed_ = registry->GetCounter(base + "/drops/malformed");
  table_.BindTelemetry(registry, prefix, name());
}

void FlowPolicer::AddHandlers(telemetry::HandlerRegistry* handlers) {
  Element::AddHandlers(handlers);
  table_.AddHandlers(handlers, name());
  handlers->AddRead(name() + ".policed", [this] {
    return std::to_string(policed_.load(std::memory_order_relaxed));
  });
  handlers->AddRead(name() + ".not_established", [this] {
    return std::to_string(not_established_.load(std::memory_order_relaxed));
  });
  handlers->AddRead(name() + ".rate", [this] {
    return std::to_string(rate_pps_.load(std::memory_order_relaxed));
  });
  handlers->AddWrite(name() + ".rate", [this](const std::string& value) {
    uint64_t pps = 0;
    if (!telemetry::ParseHandlerU64(value, &pps) || pps == 0) {
      return telemetry::HandlerResult::Error("rate must be a positive integer (pps)");
    }
    rate_pps_.store(pps, std::memory_order_relaxed);
    return telemetry::HandlerResult::Ok();
  });
}

}  // namespace rb
