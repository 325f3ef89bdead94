// The Click-style element abstraction (Kohler et al., TOCS 2000), rebuilt
// for RouteBricks' needs (§4.1 "Linux with Click in polling mode").
//
// An Element is a packet-processing stage with numbered input and output
// ports. Packets move through the graph by *push* (upstream calls
// downstream) or *pull* (downstream asks upstream for packets, typically
// ToDevice pulling from a Queue). Elements that need CPU time outside of
// packet handoff (FromDevice polling a NIC queue, ToDevice draining one)
// register a Task with the router's scheduler; the RouteBricks rule that
// every queue and every packet is handled by a single core is enforced by
// statically assigning tasks to cores (scheduler.hpp).
//
// Dataflow is batch-native (FastClick-style): the one handoff is
// PushBatch/PullBatch moving a whole PacketBatch per virtual call, so the
// driver's kp-packet poll burst traverses the graph without being
// serialized back into per-packet calls. Per-packet dataflow is the
// graph_batch = 1 case of the same code (FromDevice hands on one-packet
// batches). See DESIGN.md §11 for the API and ownership rules.
//
// Ownership: every packet of a pushed batch belongs to the callee, which
// must leave the batch empty on return; an element that drops packets
// returns them to their pool via Drop / DropBatch.
#ifndef RB_CLICK_ELEMENT_HPP_
#define RB_CLICK_ELEMENT_HPP_

#include <cstdint>
#include <string>
#include <vector>

#include <atomic>

#include "packet/batch.hpp"
#include "packet/packet.hpp"
#include "packet/pool.hpp"
#include "telemetry/handler.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/trace.hpp"

namespace rb {

namespace program {
class MatchProgram;
}  // namespace program

class Router;

class Element {
 public:
  Element(int n_inputs, int n_outputs);
  virtual ~Element() = default;

  Element(const Element&) = delete;
  Element& operator=(const Element&) = delete;

  virtual const char* class_name() const = 0;

  // --- dataflow ---

  // Receives a whole batch on input `port`, taking ownership of every
  // packet in it; must leave `batch` empty on return. Default: drop the
  // whole batch.
  virtual void PushBatch(int port, PacketBatch& batch);

  // Downstream requests up to `max` packets from output `port`, appended
  // to `out`. Returns the number appended; the caller owns them. Default:
  // pass-through from input 0, or nothing for an element without inputs.
  virtual size_t PullBatch(int port, PacketBatch* out, int max);

  // --- backpressure ---

  // How many more pushed packets this element can absorb before it starts
  // dropping. SIZE_MAX = unbounded (the default for pass-through
  // elements). A watermarked Queue reports 0 while blocked (high watermark
  // crossed, low watermark not yet reached on the pull side); pollers like
  // FromDevice shrink their burst to the minimum headroom over the queues
  // they feed. Must be safe to call from the pushing core while the
  // pulling core drains (single-writer per side, like the ring itself).
  virtual size_t PushHeadroom() const { return SIZE_MAX; }

  // True for elements that terminate a push path (the push-to-pull
  // boundary, i.e. queues). Router::DownstreamBlockers stops its graph
  // walk at boundaries and returns them as the backpressure points.
  virtual bool backpressure_boundary() const { return false; }

  // Called once by Router::Initialize after the graph is wired.
  virtual void Initialize(Router* router);

  // Compiled-packet-program hook (DESIGN.md §16): a pure classification
  // element — one whose processing is a read-only match that partitions
  // the input onto its outputs — fills `out` with the equivalent
  // MatchProgram (one program lane per output port) and returns true.
  // Router::CompilePrograms collapses chains of such elements into a
  // single CompiledClassifier. Default: not compilable.
  virtual bool CompileMatch(program::MatchProgram* out) const;

  int n_inputs() const { return static_cast<int>(inputs_.size()); }
  int n_outputs() const { return static_cast<int>(outputs_.size()); }

  const std::string& name() const { return name_; }
  void set_name(std::string n) {
    name_ = std::move(n);
    // Interned eagerly (setup time) so profiled hot paths carry a 32-bit
    // id; the table is process-global and cheap even when unprofiled. The
    // drop point is interned here too, so tracing a dropped packet never
    // builds a "<name>/drop" string on the data path.
    prof_scope_ = telemetry::InternScopeName(name_);
    drop_scope_ = telemetry::InternScopeName(name_ + "/drop");
  }

  // Cycle-accounting scope for this element (profiler.hpp); follows the
  // element's name.
  telemetry::ScopeId profile_scope() const { return prof_scope_; }

  uint64_t drops() const { return drops_.load(std::memory_order_relaxed); }

  // Attaches this element to a metric registry (per-element packets-out /
  // drop counters and a batch-size histogram under "<prefix>elem/<name>/")
  // and optionally a path tracer that records a hop at every push handoff.
  // Call after the name is final and before traffic flows; when never
  // called, the hot path pays only null-pointer tests. Overrides must call
  // the base to get the standard counters, then may register
  // element-specific metrics.
  virtual void BindTelemetry(telemetry::MetricRegistry* registry, telemetry::PathTracer* tracer,
                             const std::string& prefix = "");

  // Registers this element's live-introspection handlers (DESIGN.md §13)
  // under "<element-name>.<handler>". The base exports `config`, `counts`
  // (packets out — live when telemetry is bound, else 0), `drops`, and
  // `batch_size`; overrides call the base, then add element-specific or
  // writable handlers (Queue: occupancy/hi/lo/aqm/codel_*). Handler
  // bodies may run on a control thread while traffic flows, so they must
  // only touch atomics and registry metrics. `this` must outlive the
  // registry's use (the Router owns both lifetimes in practice).
  virtual void AddHandlers(telemetry::HandlerRegistry* handlers);

 protected:
  // Sends a whole batch out of output `port` in one downstream PushBatch
  // call: telemetry counters and the profiler handoff scope are paid once
  // per batch, tracer hops are recorded per packet. `batch` is empty on
  // return (consumed downstream, or dropped if the port is unconnected).
  void OutputBatch(int port, PacketBatch& batch);

  // Pulls up to `max` packets from input `port` into `out` in one upstream
  // PullBatch call. Returns the number appended.
  size_t InputBatch(int port, PacketBatch* out, int max);

  void Drop(Packet* p);

  // Drops every packet in `batch` (counted per packet, traced per packet,
  // released to their pools exactly once); empties the batch.
  void DropBatch(PacketBatch& batch);

  // Credits `n` packets to this element's packets_out counter.
  // OutputBatch() does this automatically; sink elements (no downstream
  // push) call it when they consume a packet, e.g. ToDevice on transmit.
  void CountPacketsOut(uint64_t n) {
    if (tele_packets_ != nullptr) {
      tele_packets_->Add(n);
    }
  }

  telemetry::PathTracer* tracer() const { return tracer_; }

 private:
  friend class Router;

  struct PortRef {
    Element* element = nullptr;
    int port = -1;
    bool connected() const { return element != nullptr; }
  };

  std::vector<PortRef> inputs_;   // upstream peers (for pull)
  std::vector<PortRef> outputs_;  // downstream peers (for push)
  std::string name_;
  telemetry::ScopeId prof_scope_ = telemetry::kInvalidScope;
  telemetry::ScopeId drop_scope_ = telemetry::kInvalidScope;
  // Relaxed atomic: bumped on the (rare) drop path by the owning core,
  // read live by control-socket handlers.
  std::atomic<uint64_t> drops_{0};

  // Telemetry bindings; null when telemetry is unbound or disabled.
  telemetry::Counter* tele_packets_ = nullptr;
  telemetry::Counter* tele_drops_ = nullptr;
  telemetry::ShardedHistogram* tele_batch_ = nullptr;
  // Shared "lat/drop" ingress-to-drop latency histogram (every element
  // resolves the same registry entry), so dropped packets still land in
  // the measured latency plane instead of silently vanishing from it.
  telemetry::LatencyHistogram* tele_lat_drop_ = nullptr;
  double ns_per_cycle_ = 0;
  telemetry::PathTracer* tracer_ = nullptr;
};

}  // namespace rb

#endif  // RB_CLICK_ELEMENT_HPP_
