// FunctionalCluster: a real (packet-level, Click-graph) RB4-style cluster,
// complementing the calibrated queueing simulator in rb::cluster.
//
// Each node is a Click element graph around multi-queue NicPorts, wired to
// its peers by software "wires". The implementation follows §6.1 exactly:
//
//  * At the input node, the packet's headers are processed ONCE: lookup of
//    the destination's output node, TTL/checksum update, then the VlbRoute
//    element picks direct-vs-balanced (Direct VLB + flowlets) and encodes
//    the output node in the destination MAC (MacForNode).
//  * Internal ports steer received frames to rx queues BY MAC
//    (SteeringMode::kMacTable, queue index == output node), so at transit
//    and output nodes a core learns the packet's output node purely from
//    the queue it polled — VlbSteer never reads the IP header.
//
// VlbRoute and VlbSteer are the "only two new Click elements" the RB4
// implementation needed (§8); everything else is standard-element reuse.
#ifndef RB_CORE_CLUSTER_ROUTER_HPP_
#define RB_CORE_CLUSTER_ROUTER_HPP_

#include <memory>
#include <vector>

#include "click/element.hpp"
#include "click/router.hpp"
#include "cluster/admission.hpp"
#include "cluster/reorder.hpp"
#include "cluster/vlb.hpp"
#include "core/router_config.hpp"
#include "lookup/dir24_8.hpp"
#include "netdev/nic.hpp"
#include "packet/pool.hpp"

namespace rb {

// Input-node element: full header processing + VLB path choice + MAC
// encoding. Output j sends toward node j (the wire port); output self
// delivers locally.
class VlbRoute : public Element {
 public:
  VlbRoute(const LpmTable* table, DirectVlbRouter* vlb, uint16_t self, uint16_t num_nodes);
  const char* class_name() const override { return "VlbRoute"; }
  void PushBatch(int port, PacketBatch& batch) override;

  uint64_t headers_processed() const { return headers_processed_; }

 private:
  const LpmTable* table_;
  DirectVlbRouter* vlb_;
  uint16_t self_;
  uint16_t num_nodes_;
  uint64_t headers_processed_ = 0;
  std::vector<PacketBatch> lanes_;  // per-wire fan-out scratch
};

class QueueElement;

// Fair ingress admission on the Click graph (the element-graph twin of
// the DES integration): sits between header processing and VlbRoute at
// the external ingress, resolves each packet's output node with the same
// LPM table VlbRoute uses, and asks the node's AdmissionDrr for a
// verdict. The believed-capacity signal combines HealthView (via the
// DRR's live-port shares) with queue-depth telemetry from the transmit
// legs it watches (WatchQueue). Rejects are counted under
// "elem/<name>/drops/admission" and dropped here, so the mesh never
// carries them.
class VlbAdmission : public Element {
 public:
  VlbAdmission(const LpmTable* table, AdmissionDrr* drr, uint16_t num_nodes);
  const char* class_name() const override { return "VlbAdmission"; }
  void PushBatch(int port, PacketBatch& batch) override;

  // Adds `q` to the depth-monitored set (the ingress transmit legs); the
  // max depth over the set is the DRR's engagement signal.
  void WatchQueue(const QueueElement* q) { watched_.push_back(q); }

  void BindTelemetry(telemetry::MetricRegistry* registry, telemetry::PathTracer* tracer,
                     const std::string& prefix = "") override;

  uint64_t admission_drops() const { return admission_drops_; }
  const AdmissionDrr& drr() const { return *drr_; }

 private:
  size_t MonitoredDepth() const;

  const LpmTable* table_;
  AdmissionDrr* drr_;
  uint16_t num_nodes_;
  std::vector<const QueueElement*> watched_;
  uint64_t admission_drops_ = 0;
  telemetry::Counter* tele_admission_drops_ = nullptr;
};

// Transit/output-node element for one MAC-steered rx queue: stamps the
// output node implied by the queue and forwards without header reads.
// Output 0: local external delivery; output 1: toward the output node.
class VlbSteer : public Element {
 public:
  VlbSteer(uint16_t self, uint16_t queue_node);
  const char* class_name() const override { return "VlbSteer"; }
  void PushBatch(int port, PacketBatch& batch) override;

  uint64_t steered() const { return steered_; }

 private:
  uint16_t self_;
  uint16_t queue_node_;
  uint64_t steered_ = 0;
};

struct FunctionalClusterConfig {
  uint16_t num_nodes = 4;
  size_t pool_packets = 1 << 16;
  size_t queue_capacity = 4096;
  size_t routes = 4096;         // per-node routing table entries
  VlbConfig vlb;                // direct VLB + flowlet settings
  uint64_t seed = 5;

  // Fair ingress admission (admission.hpp): when enabled, each node gets
  // a VlbAdmission element between header processing and VlbRoute,
  // watching that node's external-ingress transmit-leg queues.
  AdmissionConfig admission;

  // Optional telemetry sinks (must outlive the cluster). Every node graph
  // and NIC port is bound under "node<i>/..." names; the tracer records
  // sampled packet paths across node boundaries (the trace handle rides
  // the packet over the software wires).
  telemetry::MetricRegistry* registry = nullptr;
  telemetry::PathTracer* tracer = nullptr;
};

class FunctionalCluster {
 public:
  explicit FunctionalCluster(const FunctionalClusterConfig& config);

  // Injects an external frame at node `src` at simulated time `t`. The
  // IPv4 destination decides the output node via the routing table; use
  // AddressForNode to target a node.
  void InjectExternal(uint16_t src, Packet* p, SimTime t);

  // An IPv4 destination address guaranteed to route to `node`.
  uint32_t AddressForNode(uint16_t node) const;

  PacketPool& pool() { return *pool_; }

  // Runs all node graphs and wires until quiescent; returns packets moved.
  size_t RunUntilIdle(size_t max_sweeps = 100000);

  // Drains externally delivered frames at `node`; caller owns them.
  size_t DrainExternal(uint16_t node, Packet** out, size_t max);

  const VlbRoute& vlb_route(uint16_t node) const { return *vlb_route_[node]; }
  DirectVlbRouter& vlb(uint16_t node) { return *vlb_[node]; }
  // Ingress admission state; null unless config.admission.enabled.
  const VlbAdmission* vlb_admission(uint16_t node) const {
    return vlb_admission_.empty() ? nullptr : vlb_admission_[node];
  }
  // The node's Click graph (for inspection, e.g. walking elements).
  Router& node_graph(uint16_t node) { return *nodes_[node].graph; }
  uint64_t wire_packets() const { return wire_packets_; }

  // Believed node/link liveness, shared by every node's VLB router. The
  // functional cluster has no failure mechanics of its own (the DES
  // models those); flipping beliefs here exercises failure-aware path
  // selection on the real Click graphs. Invalidate pinned flowlets via
  // DirectVlbRouter::OnNodeUnhealthy/OnLinkUnhealthy per node.
  HealthView& health() { return health_; }

 private:
  struct Node {
    std::unique_ptr<Router> graph;
    std::vector<std::unique_ptr<NicPort>> ports;  // [0] = ext, then peers
    std::unique_ptr<Dir24_8> table;
  };

  int PortIndexFor(uint16_t node, uint16_t peer) const;
  void BuildNode(uint16_t i);
  size_t PumpWires();

  FunctionalClusterConfig config_;
  HealthView health_;
  std::unique_ptr<PacketPool> pool_;
  std::vector<Node> nodes_;
  std::vector<std::unique_ptr<DirectVlbRouter>> vlb_;
  std::vector<std::unique_ptr<AdmissionDrr>> admission_;  // empty = disabled
  std::vector<VlbRoute*> vlb_route_;
  std::vector<VlbAdmission*> vlb_admission_;
  SimTime now_ = 0;
  uint64_t wire_packets_ = 0;
};

}  // namespace rb

#endif  // RB_CORE_CLUSTER_ROUTER_HPP_
