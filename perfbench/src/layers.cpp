#include "layers.hpp"

#include "common/log.hpp"

namespace perfbench {
namespace {

struct LayerMetricDef {
  const char* name;
  const char* unit;
};

// Kept in the order BENCHMARK.json lists them.
const LayerMetricDef kLayerMetrics[] = {
    {"netdev.rx_deliver_cpp", "cycles/pkt"},
    {"netdev.rx_poll_cpp", "cycles/pkt"},
    {"netdev.tx_cpp", "cycles/pkt"},
    {"netdev.drain_cpp", "cycles/pkt"},
    {"netdev.tx_drops", "count"},
    {"netdev.rx_ring_hw", "count"},
    {"click.sched_cpp", "cycles/pkt"},
    {"click.task_cpp", "cycles/pkt"},
    {"click.queue_cpp", "cycles/pkt"},
    {"click.elements_cpp", "cycles/pkt"},
    {"program.classify_cpp", "cycles/pkt"},
    {"lookup.lpm_cpp", "cycles/pkt"},
    {"lookup.lpm_ns", "ns"},
    {"flow.nat_cpp", "cycles/pkt"},
    {"flow.mappings", "count"},
    {"flow.probe_p99", "buckets"},
    {"flow.evictions", "count"},
    {"crypto.esp_cpp", "cycles/pkt"},
    {"crypto.esp_cycles_per_byte", "cycles/B"},
    {"cluster.ns_per_event", "ns"},
    {"cluster.events_per_packet", "events/pkt"},
    {"cluster.service_ns_per_packet", "ns/pkt"},
    {"bench.inject_cpp", "cycles/pkt"},
    {"trace.coverage", "ratio"},
    {"trace.src_coverage", "ratio"},
    {"trace.overhead", "ratio"},
};

// "Queue@8/deq" -> "Queue/deq"; reports whether an "@N" suffix was seen
// (the mark of an element-instance scope).
std::string StripInstance(const std::string& scope, bool* element) {
  std::string out;
  *element = false;
  for (size_t i = 0; i < scope.size(); ++i) {
    if (scope[i] == '@') {
      *element = true;
      while (i + 1 < scope.size() && scope[i + 1] >= '0' && scope[i + 1] <= '9') {
        ++i;
      }
      continue;
    }
    out += scope[i];
  }
  return out;
}

bool StartsWith(const std::string& s, const char* prefix) { return s.rfind(prefix, 0) == 0; }

void AddTree(const rb::telemetry::ProfileNode& node, LayerProfile* out) {
  const std::string layer = LayerOf(node.name);
  if (layer.empty()) {
    out->unattributed += node.self_cycles;
  } else {
    out->self_cycles[layer] += node.self_cycles;
    out->calls[layer] += node.calls;
  }
  for (const rb::telemetry::ProfileNode& child : node.children) {
    AddTree(child, out);
  }
}

}  // namespace

std::string LayerOf(const std::string& scope) {
  bool element = false;
  const std::string s = StripInstance(scope, &element);
  if (s == kSpanInject) return "bench.inject";
  if (s == kSpanLpmBatch) return "bench.lpm_batch";
  if (s == kSpanRxDeliver) return "netdev.rx_deliver";
  if (s == "netdev/rx_poll") return "netdev.rx_poll";
  if (s == "netdev/tx") return "netdev.tx";
  if (s == kSpanDrain) return "netdev.drain";
  if (s == kSpanSchedRun) return "click.sched";
  if (StartsWith(s, "task/")) return "click.task";
  if (StartsWith(s, "Queue")) return "click.queue";
  if (s == "phase/lpm_lookup" || s == "IPLookup") return "lookup.lpm";
  if (s == "phase/esp_encrypt") return "crypto.esp";
  if (s == "Nat") return "flow.nat";
  if (s == "CheckIPHeader" || s.find("Classifier") != std::string::npos) {
    return "program.classify";
  }
  if (StartsWith(s, "des/service/")) return "cluster.service";
  if (StartsWith(s, "des/")) return "cluster.event";
  if (s == kSpanDesInject || s == kSpanDesFinish) return "cluster.glue";
  if (element) return "click.elements";
  return "";
}

bool IsBenchSpanLayer(const std::string& layer) {
  return layer == "netdev.rx_deliver" || layer == "netdev.drain" || layer == "click.sched" ||
         layer == "cluster.glue";
}

uint64_t LayerProfile::Self(const std::string& layer) const {
  auto it = self_cycles.find(layer);
  return it == self_cycles.end() ? 0 : it->second;
}

uint64_t LayerProfile::Calls(const std::string& layer) const {
  auto it = calls.find(layer);
  return it == calls.end() ? 0 : it->second;
}

LayerProfile AttributeProfile(const rb::telemetry::ProfileSnapshot& snap) {
  LayerProfile out;
  for (const rb::telemetry::ProfileNode& root : snap.roots) {
    AddTree(root, &out);
  }
  return out;
}

PerLayerMetrics::PerLayerMetrics() {
  for (const LayerMetricDef& d : kLayerMetrics) {
    values_[d.name] = 0;
  }
}

void PerLayerMetrics::Set(const std::string& name, double value) {
  RB_CHECK_MSG(values_.count(name) == 1, "unknown per-layer metric");
  values_[name] = value;
}

void PerLayerMetrics::AppendTo(RunResult* r) const {
  for (const LayerMetricDef& d : kLayerMetrics) {
    r->Add(d.name, values_.at(d.name), d.unit);
  }
}

}  // namespace perfbench
