// ToDevice: drains an upstream pull path (normally a Queue) into one NIC
// tx queue. Like FromDevice, it binds to a queue so that the "one core per
// queue" rule holds on the transmit side too.
//
// Batch-native: each drain iteration pulls up to `burst` packets (the
// transmit-side batch, kn in the standard graphs) in one PullBatch call
// and transmits them under a single profiler scope.
#ifndef RB_CLICK_ELEMENTS_TO_DEVICE_HPP_
#define RB_CLICK_ELEMENTS_TO_DEVICE_HPP_

#include <memory>

#include "click/element.hpp"
#include "click/task.hpp"
#include "netdev/nic.hpp"

namespace rb {

class ToDevice : public Element {
 public:
  ToDevice(NicPort* port, uint16_t tx_queue, uint16_t burst = 32, int home_core = -1);

  const char* class_name() const override { return "ToDevice"; }
  void Initialize(Router* router) override;

  // Also usable in push mode: a pushed batch is transmitted immediately.
  void PushBatch(int port, PacketBatch& batch) override;

  // One drain iteration: pulls up to `burst` packets from input 0 and
  // transmits them. Returns packets moved.
  size_t RunOnce();

  uint64_t sent() const { return sent_; }

  // Latency-plane keying: stamped packets transmitted here are observed
  // into "lat/port<label>" (or "lat/<name>" when unset). Set before
  // BindTelemetry; SingleServerRouter labels each egress leg with its
  // output port.
  void set_port_label(int label) { port_label_ = label; }

  // Binds the base element metrics plus the egress latency histogram.
  void BindTelemetry(telemetry::MetricRegistry* registry, telemetry::PathTracer* tracer,
                     const std::string& prefix = "") override;

  // Adds "<name>.latency": live ingress-to-egress percentile readout.
  void AddHandlers(telemetry::HandlerRegistry* handlers) override;

 private:
  // Transmits every packet in `batch` (Transmit owns each packet either
  // way; failures are counted as tx drops by the NIC). Empties the batch.
  void TransmitBatch(PacketBatch& batch);

  class DrainTask : public Task {
   public:
    DrainTask(ToDevice* td, int home_core) : Task(td, home_core), td_(td) {}
    size_t Run() override { return td_->RunOnce(); }

   private:
    ToDevice* td_;
  };

  NicPort* port_;
  uint16_t tx_queue_;
  uint16_t burst_;
  int home_core_;
  uint64_t sent_ = 0;
  int port_label_ = -1;
  // Egress latency histogram + cycle->ns conversion as a Q32.32 fixed-point
  // multiplier (ns = cycles * mult >> 32), so the per-packet conversion is
  // one integer multiply-shift instead of int<->double round trips.
  // Null/0 when unbound.
  telemetry::LatencyHistogram* tele_lat_ = nullptr;
  uint64_t ns_per_cycle_q32_ = 0;
};

}  // namespace rb

#endif  // RB_CLICK_ELEMENTS_TO_DEVICE_HPP_
