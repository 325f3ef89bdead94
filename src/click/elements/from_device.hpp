// FromDevice: polls one NIC rx queue and pushes packets downstream.
//
// This is the multi-queue-aware version the paper built (§4.2): the
// element binds to a *queue*, not a port, so each queue can be polled by
// exactly one core. kp (poll-driven batching) is the Driver's burst size.
//
// Batch-native: the whole kp-packet poll burst leaves output 0 as one
// PacketBatch, so downstream elements see the driver's burst size (the
// graph-level batch). `graph_batch` can cap the batch size pushed into
// the graph below kp (the Table 1 third-axis sweep); 0 means "the full
// poll burst".
//
// Backpressure-aware: at Initialize the element caches the watermarked
// queues reachable downstream (Router::DownstreamBlockers) and each poll
// shrinks its burst to the minimum PushHeadroom() over them — a blocked
// queue (high watermark crossed) throttles the poll to zero, leaving
// packets in the NIC ring instead of tail-dropping them at the queue.
#ifndef RB_CLICK_ELEMENTS_FROM_DEVICE_HPP_
#define RB_CLICK_ELEMENTS_FROM_DEVICE_HPP_

#include <memory>

#include "click/element.hpp"
#include "click/task.hpp"
#include "netdev/driver.hpp"

namespace rb {

class FromDevice : public Element {
 public:
  // home_core: the core this queue's polling is pinned to (-1 = any).
  // graph_batch: max packets per downstream PushBatch (0 = whole burst).
  FromDevice(NicPort* port, uint16_t rx_queue, uint16_t kp = 32, int home_core = -1,
             uint16_t graph_batch = 0);

  const char* class_name() const override { return "FromDevice"; }
  void Initialize(Router* router) override;

  // Adds a throttled-poll counter ("elem/<name>/throttled_polls": polls
  // skipped or shrunk because a downstream queue was blocked).
  void BindTelemetry(telemetry::MetricRegistry* registry, telemetry::PathTracer* tracer,
                     const std::string& prefix = "") override;

  // Adds `throttled_polls` and `kp` reads on top of the element defaults.
  void AddHandlers(telemetry::HandlerRegistry* handlers) override;

  // One poll iteration: retrieves up to kp packets and pushes them out of
  // output 0 as (a) batch(es). Returns packets moved.
  size_t RunOnce();

  Driver& driver() { return driver_; }
  uint16_t graph_batch() const { return graph_batch_; }
  uint64_t throttled_polls() const { return throttled_polls_.load(std::memory_order_relaxed); }
  const std::vector<Element*>& downstream_blockers() const { return blockers_; }

 private:
  class PollTask : public Task {
   public:
    PollTask(FromDevice* fd, int home_core) : Task(fd, home_core), fd_(fd) {}
    size_t Run() override { return fd_->RunOnce(); }

   private:
    FromDevice* fd_;
  };

  // Minimum downstream headroom this poll may fill (SIZE_MAX = no
  // watermarked queue downstream).
  size_t PollAllowance() const;

  Driver driver_;
  int home_core_;
  uint16_t graph_batch_;
  std::vector<Element*> blockers_;
  // Relaxed atomic (single-writer: the polling core); read live by
  // control-socket handlers.
  std::atomic<uint64_t> throttled_polls_{0};
  bool throttled_state_ = false;  // edge detector for flight-recorder events
  telemetry::Counter* tele_throttled_ = nullptr;
};

}  // namespace rb

#endif  // RB_CLICK_ELEMENTS_FROM_DEVICE_HPP_
