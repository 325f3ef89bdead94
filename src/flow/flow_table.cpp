#include "flow/flow_table.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "telemetry/handler.hpp"
#include "telemetry/metrics.hpp"

namespace rb {
namespace {

size_t NextPow2(size_t v) {
  size_t p = 1;
  while (p < v) {
    p <<= 1;
  }
  return p;
}

// last_seen comparison tolerant of 32-bit tick wraparound.
bool TickBefore(uint32_t a, uint32_t b) { return static_cast<int32_t>(a - b) < 0; }

}  // namespace

FlowTable::FlowTable(const FlowTableConfig& config) : config_(config) {
  RB_CHECK(config_.capacity > 0);
  RB_CHECK(config_.shards >= 1);
  RB_CHECK(config_.max_probe_buckets >= 1);
  const size_t n_shards = NextPow2(static_cast<size_t>(config_.shards));
  shard_mask_ = n_shards - 1;
  buckets_per_shard_ =
      NextPow2((config_.capacity + 2 * n_shards - 1) / (2 * n_shards));
  buckets_per_shard_ =
      std::max(buckets_per_shard_, static_cast<size_t>(config_.max_probe_buckets));
  bucket_mask_ = buckets_per_shard_ - 1;
  slots_per_shard_ = buckets_per_shard_ * 2;
  shards_.reserve(n_shards);
  for (size_t i = 0; i < n_shards; ++i) {
    auto s = std::make_unique<Shard>();
    s->buckets.resize(buckets_per_shard_);
    shards_.push_back(std::move(s));
  }
  probe_hist_ = std::vector<std::atomic<uint64_t>>(
      static_cast<size_t>(config_.max_probe_buckets));
  idle_timeout_.store(config_.idle_timeout, std::memory_order_relaxed);
  RB_CHECK_MSG(SetWatermarks(config_.hi_watermark, config_.lo_watermark),
               "invalid flow-table watermarks");
}

bool FlowTable::SetWatermarks(double hi, double lo) {
  if (!(hi > 0.0) || hi > 1.0 || !(lo > 0.0) || lo >= hi) {
    return false;
  }
  hi_watermark_.store(hi, std::memory_order_relaxed);
  lo_watermark_.store(lo, std::memory_order_relaxed);
  // hi == 1.0 disables watermark eviction entirely: occupancy can never
  // exceed capacity anyway, so "evict at 100%" would just override the
  // evict_on_full policy that is supposed to govern a full table.
  hi_slots_per_shard_.store(
      hi >= 1.0 ? UINT64_MAX
                : static_cast<uint64_t>(hi * static_cast<double>(slots_per_shard_)),
      std::memory_order_relaxed);
  return true;
}

bool FlowTable::IdleExpired(const FlowEntry& e, uint32_t now) const {
  const uint32_t timeout = idle_timeout_.load(std::memory_order_relaxed);
  return timeout != 0 && (now - e.last_seen) > timeout;
}

void FlowTable::EvictSlot(Shard& shard, FlowEntry* e,
                          std::atomic<uint64_t> Shard::* counter) {
  if (on_evict_) {
    on_evict_(*e);
  }
  *e = FlowEntry{};
  shard.occupancy.fetch_sub(1, std::memory_order_relaxed);
  (shard.*counter).fetch_add(1, std::memory_order_relaxed);
}

FlowEntry* FlowTable::FindOrInsertIn(Shard& s, const FlowKey& key, uint64_t hash,
                                     uint32_t now, bool* inserted) {
  const size_t b0 = BucketIndex(hash);
  const int window = config_.max_probe_buckets;
  FlowEntry* free_slot = nullptr;
  int free_bucket = 0;
  FlowEntry* lru = nullptr;
  int lru_bucket = 0;
  for (int b = 0; b < window; ++b) {
    Bucket& bucket = s.buckets[(b0 + b) & bucket_mask_];
    for (FlowEntry& e : bucket.slot) {
      if (e.occupied() && e.Matches(key)) {
        e.last_seen = now;
        s.hits.fetch_add(1, std::memory_order_relaxed);
        probe_hist_[static_cast<size_t>(b)].fetch_add(1, std::memory_order_relaxed);
        if (inserted != nullptr) {
          *inserted = false;
        }
        return &e;
      }
      if (e.occupied() && IdleExpired(e, now)) {
        EvictSlot(s, &e, &Shard::evict_idle);
      }
      if (!e.occupied()) {
        if (free_slot == nullptr) {
          free_slot = &e;
          free_bucket = b;
        }
        continue;
      }
      if (lru == nullptr || TickBefore(e.last_seen, lru->last_seen)) {
        lru = &e;
        lru_bucket = b;
      }
    }
  }

  // Miss: pick the insertion slot. Above the high watermark a live LRU
  // entry is replaced even when a free slot exists, so occupancy
  // plateaus at the watermark instead of marching to table-full.
  const bool over = s.occupancy.load(std::memory_order_relaxed) >=
                    hi_slots_per_shard_.load(std::memory_order_relaxed);
  FlowEntry* target = nullptr;
  int target_bucket = 0;
  if (over && lru != nullptr) {
    EvictSlot(s, lru, &Shard::evict_watermark);
    target = lru;
    target_bucket = lru_bucket;
  } else if (free_slot != nullptr) {
    target = free_slot;
    target_bucket = free_bucket;
  } else if (config_.evict_on_full && lru != nullptr) {
    EvictSlot(s, lru, &Shard::evict_full);
    target = lru;
    target_bucket = lru_bucket;
  } else {
    s.insert_fail.fetch_add(1, std::memory_order_relaxed);
    if (inserted != nullptr) {
      *inserted = false;
    }
    return nullptr;
  }

  target->src_ip = key.src_ip;
  target->dst_ip = key.dst_ip;
  target->src_port = key.src_port;
  target->dst_port = key.dst_port;
  target->protocol = key.protocol;
  target->flags = FlowEntry::kOccupied;
  target->last_seen = now;
  target->state0 = 0;
  target->state1 = 0;
  s.occupancy.fetch_add(1, std::memory_order_relaxed);
  s.inserts.fetch_add(1, std::memory_order_relaxed);
  probe_hist_[static_cast<size_t>(target_bucket)].fetch_add(1,
                                                            std::memory_order_relaxed);
  if (inserted != nullptr) {
    *inserted = true;
  }
  return target;
}

FlowEntry* FlowTable::FindOrInsert(const FlowKey& key, uint32_t now, bool* inserted) {
  const uint64_t hash = FlowHash64(key);
  return FindOrInsertIn(ShardFor(hash), key, hash, now, inserted);
}

FlowEntry* FlowTable::Find(const FlowKey& key, uint32_t now) {
  const uint64_t hash = FlowHash64(key);
  Shard& s = ShardFor(hash);
  const size_t b0 = BucketIndex(hash);
  for (int b = 0; b < config_.max_probe_buckets; ++b) {
    Bucket& bucket = s.buckets[(b0 + b) & bucket_mask_];
    for (FlowEntry& e : bucket.slot) {
      if (!e.occupied()) {
        continue;
      }
      if (e.Matches(key)) {
        if (IdleExpired(e, now)) {
          EvictSlot(s, &e, &Shard::evict_idle);
          return nullptr;
        }
        e.last_seen = now;
        s.hits.fetch_add(1, std::memory_order_relaxed);
        probe_hist_[static_cast<size_t>(b)].fetch_add(1, std::memory_order_relaxed);
        return &e;
      }
      if (IdleExpired(e, now)) {
        EvictSlot(s, &e, &Shard::evict_idle);
      }
    }
  }
  return nullptr;
}

bool FlowTable::Erase(const FlowKey& key) {
  const uint64_t hash = FlowHash64(key);
  Shard& s = ShardFor(hash);
  const size_t b0 = BucketIndex(hash);
  for (int b = 0; b < config_.max_probe_buckets; ++b) {
    Bucket& bucket = s.buckets[(b0 + b) & bucket_mask_];
    for (FlowEntry& e : bucket.slot) {
      if (e.occupied() && e.Matches(key)) {
        e = FlowEntry{};
        s.occupancy.fetch_sub(1, std::memory_order_relaxed);
        s.erases.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
    }
  }
  return false;
}

void FlowTable::FindOrInsertLocked(
    const FlowKey& key, uint32_t now,
    const std::function<void(FlowEntry*, bool inserted)>& fn) {
  const uint64_t hash = FlowHash64(key);
  Shard& s = ShardFor(hash);
  while (s.lock.test_and_set(std::memory_order_acquire)) {
  }
  bool inserted = false;
  FlowEntry* e = FindOrInsertIn(s, key, hash, now, &inserted);
  fn(e, inserted);
  s.lock.clear(std::memory_order_release);
}

size_t FlowTable::SweepIdle(uint32_t now, size_t max_slots) {
  if (idle_timeout_.load(std::memory_order_relaxed) == 0 || max_slots == 0) {
    return 0;
  }
  size_t reclaimed = 0;
  size_t budget = std::max<size_t>(1, max_slots / shards_.size());
  for (auto& sp : shards_) {
    Shard& s = *sp;
    for (size_t i = 0; i < budget; ++i) {
      const size_t slot = s.sweep_cursor;
      s.sweep_cursor = (s.sweep_cursor + 1) % (buckets_per_shard_ * 2);
      FlowEntry& e = s.buckets[slot / 2].slot[slot % 2];
      if (e.occupied() && IdleExpired(e, now)) {
        EvictSlot(s, &e, &Shard::evict_idle);
        ++reclaimed;
      }
    }
  }
  return reclaimed;
}

void FlowTable::Clear() {
  for (size_t i = 0; i < shards_.size(); ++i) {
    ClearShard(static_cast<int>(i));
  }
}

void FlowTable::ClearShard(int shard) {
  Shard& s = *shards_[static_cast<size_t>(shard)];
  for (Bucket& bucket : s.buckets) {
    for (FlowEntry& e : bucket.slot) {
      if (e.occupied()) {
        if (on_evict_) {
          on_evict_(e);
        }
        e = FlowEntry{};
        s.occupancy.fetch_sub(1, std::memory_order_relaxed);
      }
    }
  }
  s.sweep_cursor = 0;
}

int FlowTable::ShardOf(const FlowKey& key) const {
  return static_cast<int>(ShardIndex(FlowHash64(key)));
}

size_t FlowTable::ShardOccupancy(int shard) const {
  return shards_[static_cast<size_t>(shard)]->occupancy.load(std::memory_order_relaxed);
}

void FlowTable::ForEachInShard(int shard,
                               const std::function<void(const FlowEntry&)>& fn) const {
  const Shard& s = *shards_[static_cast<size_t>(shard)];
  for (const Bucket& bucket : s.buckets) {
    for (const FlowEntry& e : bucket.slot) {
      if (e.occupied()) {
        fn(e);
      }
    }
  }
}

FlowEntry* FlowTable::Restore(int shard, const FlowEntry& entry) {
  const FlowKey key = entry.key();
  const uint64_t hash = FlowHash64(key);
  RB_CHECK_MSG(ShardIndex(hash) == static_cast<size_t>(shard),
               "Restore: entry does not hash to the named shard");
  Shard& s = *shards_[static_cast<size_t>(shard)];
  bool inserted = false;
  FlowEntry* slot = FindOrInsertIn(s, key, hash, entry.last_seen, &inserted);
  if (slot == nullptr) {
    return nullptr;
  }
  slot->flags = entry.flags;
  slot->last_seen = entry.last_seen;
  slot->state0 = entry.state0;
  slot->state1 = entry.state1;
  s.replays.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

size_t FlowTable::occupancy() const {
  uint64_t total = 0;
  for (const auto& s : shards_) {
    total += s->occupancy.load(std::memory_order_relaxed);
  }
  return static_cast<size_t>(total);
}

FlowTableStats FlowTable::stats() const {
  FlowTableStats out;
  for (const auto& s : shards_) {
    out.hits += s->hits.load(std::memory_order_relaxed);
    out.inserts += s->inserts.load(std::memory_order_relaxed);
    out.evict_idle += s->evict_idle.load(std::memory_order_relaxed);
    out.evict_watermark += s->evict_watermark.load(std::memory_order_relaxed);
    out.evict_full += s->evict_full.load(std::memory_order_relaxed);
    out.insert_fail += s->insert_fail.load(std::memory_order_relaxed);
    out.erases += s->erases.load(std::memory_order_relaxed);
    out.replays += s->replays.load(std::memory_order_relaxed);
  }
  return out;
}

int FlowTable::ProbeLengthPercentile(double p) const {
  RB_CHECK_MSG(p >= 0 && p <= 1, "probe-length quantile is a fraction in [0, 1]");
  uint64_t total = 0;
  for (const auto& c : probe_hist_) {
    total += c.load(std::memory_order_relaxed);
  }
  if (total == 0) {
    return 0;
  }
  const uint64_t rank =
      std::min(static_cast<uint64_t>(p * static_cast<double>(total)), total - 1);
  uint64_t seen = 0;
  for (size_t b = 0; b < probe_hist_.size(); ++b) {
    seen += probe_hist_[b].load(std::memory_order_relaxed);
    if (seen > rank) {
      return static_cast<int>(b) + 1;
    }
  }
  return static_cast<int>(probe_hist_.size());
}

void FlowTable::AddHandlers(telemetry::HandlerRegistry* handlers,
                            const std::string& owner) {
  handlers->AddRead(owner + ".flows", [this] { return std::to_string(occupancy()); });
  handlers->AddRead(owner + ".occupancy",
                    [this] { return std::to_string(occupancy()); });
  handlers->AddRead(owner + ".capacity",
                    [this] { return std::to_string(capacity_slots()); });
  handlers->AddRead(owner + ".evictions",
                    [this] { return std::to_string(stats().evictions()); });
  handlers->AddRead(owner + ".replays",
                    [this] { return std::to_string(stats().replays); });
  handlers->AddRead(owner + ".insert_fail",
                    [this] { return std::to_string(stats().insert_fail); });
  handlers->AddRead(owner + ".probe_p99",
                    [this] { return std::to_string(ProbeLengthPercentile(0.99)); });
  handlers->AddRead(owner + ".hi", [this] { return std::to_string(hi_watermark()); });
  handlers->AddWrite(owner + ".hi",
                     [this](const std::string& value) -> telemetry::HandlerResult {
                       double hi = 0;
                       if (!telemetry::ParseHandlerDouble(value, &hi)) {
                         return telemetry::HandlerResult::Error("not a number");
                       }
                       if (!SetWatermarks(hi, lo_watermark())) {
                         return telemetry::HandlerResult::Error(
                             "watermarks must satisfy 0 < lo < hi <= 1");
                       }
                       return telemetry::HandlerResult::Ok();
                     });
  handlers->AddRead(owner + ".lo", [this] { return std::to_string(lo_watermark()); });
  handlers->AddWrite(owner + ".lo",
                     [this](const std::string& value) -> telemetry::HandlerResult {
                       double lo = 0;
                       if (!telemetry::ParseHandlerDouble(value, &lo)) {
                         return telemetry::HandlerResult::Error("not a number");
                       }
                       if (!SetWatermarks(hi_watermark(), lo)) {
                         return telemetry::HandlerResult::Error(
                             "watermarks must satisfy 0 < lo < hi <= 1");
                       }
                       return telemetry::HandlerResult::Ok();
                     });
  handlers->AddRead(owner + ".idle_ticks",
                    [this] { return std::to_string(idle_timeout()); });
  handlers->AddWrite(owner + ".idle_ticks",
                     [this](const std::string& value) -> telemetry::HandlerResult {
                       uint64_t ticks = 0;
                       if (!telemetry::ParseHandlerU64(value, &ticks) ||
                           ticks > UINT32_MAX) {
                         return telemetry::HandlerResult::Error(
                             "idle_ticks must be a u32");
                       }
                       set_idle_timeout(static_cast<uint32_t>(ticks));
                       return telemetry::HandlerResult::Ok();
                     });
}

void FlowTable::BindTelemetry(telemetry::MetricRegistry* registry,
                              const std::string& prefix, const std::string& name) {
  if (registry == nullptr) {
    return;
  }
  // The table keeps its own relaxed-atomic counters (they predate any
  // binding and feed the handler plane); the registry gets a snapshot
  // closure via gauges so every export path sees live values without
  // the hot path paying a second set of counter bumps.
  const std::string base = prefix + "flow/" + name;
  tele_.flows = registry->GetGauge(base + "/flows");
  tele_.evictions = registry->GetGauge(base + "/evictions");
  tele_.replays = registry->GetGauge(base + "/replays");
  tele_.insert_fail = registry->GetGauge(base + "/insert_fail");
  RefreshTelemetry();
}

void FlowTable::RefreshTelemetry() {
  if (tele_.flows == nullptr) {
    return;
  }
  const FlowTableStats s = stats();
  tele_.flows->Set(static_cast<double>(occupancy()));
  tele_.evictions->Set(static_cast<double>(s.evictions()));
  tele_.replays->Set(static_cast<double>(s.replays));
  tele_.insert_fail->Set(static_cast<double>(s.insert_fail));
}

}  // namespace rb
