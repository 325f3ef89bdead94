// FlowPolicer: per-flow stateful admission backed by the stateful
// plane's flow table (DESIGN.md §17). Two modes:
//
// POLICE (1 in, 1 out): each flow owns a token bucket (rate_pps tokens
// per second, burst deep, starts full). Packets that find a token pass;
// the rest land in the `policed` drop bucket. Token state lives in the
// flow entry itself — state0 is the 16.16 fixed-point token count,
// state1 the last refill tick — so a million flows cost one table.
//
// FIREWALL (2 in, 2 out): conntrack-style allow-established. Input 0
// (inside->outside) establishes flows and always passes to output 0.
// Input 1 (outside->inside) passes to output 1 only when the reversed
// 5-tuple matches an established flow; everything else drops into
// `not_established`.
//
// Both modes inherit the table's robustness contract: capacity is a
// hard ceiling, watermark eviction sheds least-recently-seen flows
// under overload (an evicted flow re-establishes as new), and drops are
// attributed to dedicated buckets (`policed`, `not_established`,
// `flow_table_full`, `malformed`).
#ifndef RB_CLICK_ELEMENTS_FLOW_POLICER_HPP_
#define RB_CLICK_ELEMENTS_FLOW_POLICER_HPP_

#include "click/element.hpp"
#include "flow/flow_table.hpp"

namespace rb {

enum class PolicerMode { kPolice, kFirewall };

struct FlowPolicerOptions {
  PolicerMode mode = PolicerMode::kPolice;
  uint64_t rate_pps = 100000;  // per-flow sustained rate (POLICE)
  uint64_t burst = 32;         // per-flow bucket depth in packets
  size_t capacity = 4096;
  int shards = 4;
  int max_probe_buckets = 8;
  double hi_watermark = 0.85;
  double lo_watermark = 0.70;
  uint32_t idle_timeout_ms = 0;
  bool evict_on_full = true;
};

class FlowPolicer : public Element {
 public:
  explicit FlowPolicer(const FlowPolicerOptions& options = FlowPolicerOptions{});

  const char* class_name() const override { return "FlowPolicer"; }

  void PushBatch(int port, PacketBatch& batch) override;

  void BindTelemetry(telemetry::MetricRegistry* registry, telemetry::PathTracer* tracer,
                     const std::string& prefix = "") override;

  // Table handler plane (`.flows`/`.occupancy`/`.evictions`/rw
  // watermarks) plus `.policed`/`.not_established` drop reads and a
  // live-writable `.rate` (packets per second, > 0).
  void AddHandlers(telemetry::HandlerRegistry* handlers) override;

  using ClockFn = double (*)();
  void set_clock(ClockFn clock) { clock_ = clock; }

  FlowTable& table() { return table_; }
  const FlowPolicerOptions& options() const { return opt_; }
  uint64_t policed_drops() const { return policed_.load(std::memory_order_relaxed); }
  uint64_t not_established_drops() const {
    return not_established_.load(std::memory_order_relaxed);
  }
  uint64_t table_full_drops() const { return table_full_.load(std::memory_order_relaxed); }
  uint64_t malformed_drops() const { return malformed_.load(std::memory_order_relaxed); }

 private:
  void PushPolice(PacketBatch& batch, uint32_t tick);
  void PushInside(PacketBatch& batch, uint32_t tick);
  void PushOutside(PacketBatch& batch, uint32_t tick);
  uint32_t NowTick() const { return static_cast<uint32_t>(clock_() * 1e3); }
  void Housekeep(uint32_t tick);
  // Refills the entry's bucket up to `tick` and consumes one token if
  // available. Returns false when the flow is over rate.
  bool TakeToken(FlowEntry* e, uint32_t tick) const;

  FlowPolicerOptions opt_;
  FlowTable table_;
  ClockFn clock_;
  uint64_t burst_fp_;  // bucket depth in 16.16 fixed point
  uint32_t batches_ = 0;
  std::atomic<uint64_t> rate_pps_;
  std::atomic<uint64_t> policed_{0};
  std::atomic<uint64_t> not_established_{0};
  std::atomic<uint64_t> table_full_{0};
  std::atomic<uint64_t> malformed_{0};
  telemetry::Counter* tele_policed_ = nullptr;
  telemetry::Counter* tele_not_established_ = nullptr;
  telemetry::Counter* tele_table_full_ = nullptr;
  telemetry::Counter* tele_malformed_ = nullptr;
};

}  // namespace rb

#endif  // RB_CLICK_ELEMENTS_FLOW_POLICER_HPP_
