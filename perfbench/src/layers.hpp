// Per-layer attribution of a profile: every scope, whether the program's
// own (telemetry::Profiler scopes in src/) or a span the benchmark records
// around its calls into a layer, is folded into the module it belongs to.
#ifndef PERFBENCH_LAYERS_HPP_
#define PERFBENCH_LAYERS_HPP_

#include <cstdint>
#include <map>
#include <string>

#include "bench.hpp"
#include "telemetry/profiler.hpp"

namespace perfbench {

// Spans the benchmark records itself.
inline constexpr const char* kSpanInject = "bench/inject";        // own frame fill
inline constexpr const char* kSpanLpmBatch = "bench/lpm_batch";   // Dir24_8::LookupBatch
inline constexpr const char* kSpanRxDeliver = "netdev/rx_deliver";  // DeliverBatch
inline constexpr const char* kSpanSchedRun = "sched/run";          // RunUntilIdle
inline constexpr const char* kSpanDrain = "netdev/drain";          // DrainPort + FreeBulk
inline constexpr const char* kSpanDesInject = "cluster/inject";    // ClusterSim::Inject
inline constexpr const char* kSpanDesFinish = "cluster/finish";    // ClusterSim::Finish

// A traced run fails when less than this share of the router-call cycles
// is attributed to named layers.
inline constexpr double kMinCoverage = 0.95;

// Whether a layer's self cycles come from a span the benchmark records
// around its own call (DeliverBatch, RunUntilIdle, DrainPort + FreeBulk,
// ClusterSim::Inject/Finish) rather than from a scope inside the library.
bool IsBenchSpanLayer(const std::string& layer);

// The layer a scope belongs to ("netdev.tx", "click.queue", ...), with any
// "@N" element-instance suffix dropped; "" for scopes outside every layer.
std::string LayerOf(const std::string& scope);

struct LayerProfile {
  std::map<std::string, uint64_t> self_cycles;  // by layer
  std::map<std::string, uint64_t> calls;        // by layer
  uint64_t unattributed = 0;                    // self cycles of scopes in no layer
  uint64_t Self(const std::string& layer) const;
  uint64_t Calls(const std::string& layer) const;
};

LayerProfile AttributeProfile(const rb::telemetry::ProfileSnapshot& snap);

// The per-layer metrics a traced run reports, every one of them on every
// workload (0 where the workload does not exercise the layer).
class PerLayerMetrics {
 public:
  PerLayerMetrics();
  void Set(const std::string& name, double value);
  void AppendTo(RunResult* r) const;

 private:
  std::map<std::string, double> values_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_HPP_
