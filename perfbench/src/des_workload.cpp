// rb4-des-64: the 4-node Direct-VLB cluster simulator (ClusterConfig::Rb4)
// under uniform 64 B traffic, Poisson arrivals at 2.5 Gbps per external
// port, each packet to one of the three other nodes. That is a quarter of
// the line rate, below the loss-free rate, so nothing may be dropped and
// the median latency must sit at the zero-load latency.
//
// Arrivals are generated in rounds of 1024 outside the timed region. A
// round's cost is the wall time of its ClusterSim::Inject calls per packet;
// mpps is the simulated packet rate at the quiet quantile of the round
// costs. The one ClusterSim::Finish that drains the last in-flight packets
// is timed but not part of any round. The latency metrics are the
// simulated ingress->egress latencies.
#include <algorithm>
#include <memory>

#include "bench.hpp"
#include "checks.hpp"
#include "cluster/des.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "layers.hpp"
#include "telemetry/profiler.hpp"

namespace perfbench {
namespace {

namespace tele = rb::telemetry;

constexpr uint32_t kBytes = 64;
constexpr double kPortBps = 2.5e9;
constexpr uint32_t kRoundPackets = 1024;
constexpr uint32_t kFlowsPerPair = 512;  // as ClusterSim::RunUniform
constexpr double kLatencyTolerance = 0.05;
// Upper bound on timed rounds per second (4 M simulated packets per second);
// the round-cost store is sized for it before the memory baseline.
constexpr double kMaxRoundsPerSecond = 4000;

struct Arrival {
  double t;
  uint16_t src;
  uint16_t dst;
  uint32_t flow;
};

// Merges one Poisson stream per external port into time order.
class ArrivalSource {
 public:
  ArrivalSource(uint16_t nodes, uint64_t seed)
      : nodes_(nodes), rng_(seed * 0x9e3779b97f4a7c15ULL + 29), next_(nodes),
        seq_(static_cast<size_t>(nodes) * nodes * kFlowsPerPair, 0) {
    for (double& t : next_) {
      t = rng_.NextExponential(mean_gap_);
    }
  }

  void NextRound(std::vector<Arrival>* out) {
    out->clear();
    for (uint32_t i = 0; i < kRoundPackets; ++i) {
      const uint16_t src = static_cast<uint16_t>(
          std::min_element(next_.begin(), next_.end()) - next_.begin());
      uint16_t dst = static_cast<uint16_t>(rng_.NextBounded(nodes_ - 1u));
      if (dst >= src) {
        dst++;
      }
      const uint32_t flow = (static_cast<uint32_t>(src) * nodes_ + dst) * kFlowsPerPair +
                            static_cast<uint32_t>(rng_.NextBounded(kFlowsPerPair));
      out->push_back({next_[src], src, dst, flow});
      next_[src] += rng_.NextExponential(mean_gap_);
    }
  }

  uint64_t NextSeq(uint32_t flow) { return seq_[flow]++; }

 private:
  uint16_t nodes_;
  rb::Rng rng_;
  const double mean_gap_ = kBytes * 8.0 / kPortBps;
  std::vector<double> next_;
  std::vector<uint64_t> seq_;
};

struct Tally {
  uint64_t packets = 0;
  uint64_t cycles = 0;
  double mpps() const {
    const double s = static_cast<double>(cycles) / tele::CyclesPerSecond();
    return s > 0 ? static_cast<double>(packets) / s / 1e6 : 0;
  }
};

}  // namespace

RunResult RunDesWorkload(const Options& opt) {
  RunResult res;
  rb::ClusterConfig cfg = rb::ClusterConfig::Rb4();
  cfg.seed = opt.seed;
  const double zero_load = ZeroLoadLatencySeconds(cfg, kBytes);

  ArrivalSource source(cfg.num_nodes, opt.seed);
  std::vector<Arrival> arrivals;
  arrivals.reserve(kRoundPackets);

  // Cycles per packet of each untraced round.
  std::vector<double> round_cost(static_cast<size_t>(opt.seconds * kMaxRoundsPerSecond) + 1);
  size_t n_costs = 0;
  CpuRotor rotor;
  std::vector<double> setup_s;
  const double rss_before = TrimmedResidentMiB();
  uint64_t t0 = tele::ReadCycles();
  auto sim = std::make_unique<rb::ClusterSim>(cfg);
  setup_s.push_back(SecondsSince(t0));

  const tele::ScopeId span_inject = tele::InternScopeName(kSpanInject);
  const tele::ScopeId span_des_inject = tele::InternScopeName(kSpanDesInject);
  const tele::ScopeId span_des_finish = tele::InternScopeName(kSpanDesFinish);
  auto profiler = opt.trace ? std::make_unique<tele::Profiler>() : nullptr;

  Tally tally[2];  // [0] untraced, [1] traced
  uint64_t rounds = 0;
  uint64_t finish_cycles = 0;
  double last_t = 0;
  const uint64_t wall_start = tele::ReadCycles();
  while (rounds == 0 || SecondsSince(wall_start) < opt.seconds) {
    const bool traced = opt.trace && rounds % 2 == 1;  // alternate rounds
    tele::SetProfiler(traced ? profiler.get() : nullptr);
    rotor.MaybeMove();
    {
      tele::ScopedCycles span(span_inject);
      source.NextRound(&arrivals);
    }
    const uint64_t c0 = tele::ReadCycles();
    {
      tele::ScopedCycles span(span_des_inject);
      for (const Arrival& a : arrivals) {
        sim->Inject(a.src, a.dst, a.flow, source.NextSeq(a.flow), kBytes, a.t);
      }
    }
    Tally& t = tally[traced ? 1 : 0];
    const uint64_t cycles = tele::ReadCycles() - c0;
    t.cycles += cycles;
    if (!traced && n_costs < round_cost.size()) {
      round_cost[n_costs++] = static_cast<double>(cycles) / static_cast<double>(arrivals.size());
    }
    t.packets += arrivals.size();
    last_t = arrivals.back().t;
    rounds++;
  }
  tele::SetProfiler(nullptr);
  const uint64_t c0 = tele::ReadCycles();
  rb::ClusterRunStats stats;
  {
    tele::ScopedCycles span(span_des_finish);
    stats = sim->Finish(last_t);
  }
  finish_cycles = tele::ReadCycles() - c0;
  const double rss_after = ResidentMiB();

  res.attempted = stats.offered_packets;
  res.failed = stats.drops.total();
  const rb::ClusterDrops& d = stats.drops;
  res.failure_buckets = {{"des.ext_rx_nic", d.ext_rx_nic}, {"des.cpu", d.cpu},
                         {"des.tx_nic", d.tx_nic},         {"des.link", d.link},
                         {"des.rx_nic", d.rx_nic},         {"des.ext_out", d.ext_out},
                         {"des.failed_node", d.failed_node}, {"des.failed_link", d.failed_link},
                         {"des.admission", d.admission}};
  if (stats.offered_packets != rounds * kRoundPackets) {
    res.Fail(rb::Format("offered %llu packets, injected %llu",
                        static_cast<unsigned long long>(stats.offered_packets),
                        static_cast<unsigned long long>(rounds * kRoundPackets)));
  }
  if (std::string e = CheckDesRun(stats, zero_load, kLatencyTolerance); !e.empty()) {
    res.Fail(e);
  }
  if (sim->in_flight() != 0) {
    res.Fail(rb::Format("%zu packets still in flight after Finish", sim->in_flight()));
  }

  if (!opt.trace) {
    sim.reset();
    const uint64_t setups_start = tele::ReadCycles();
    while (setup_s.size() < static_cast<size_t>(kMinSetups) ||
           SecondsSince(setups_start) < kSetupSeconds) {
      rotor.MaybeMove();
      // The construction takes about 3.4 or 5.5 us depending on where its
      // allocations land, and with a fixed heap every repetition lands in
      // the same place; a spacer of changing size moves them.
      std::vector<char> spacer(64 * (setup_s.size() % 61) + 1);
      t0 = tele::ReadCycles();
      rb::ClusterSim again(cfg);
      setup_s.push_back(SecondsSince(t0));
    }
    round_cost.resize(n_costs);
    const double quiet_cost = Quantile(round_cost, kQuietQuantile);
    res.Add("mpps", tele::CyclesPerSecond() / quiet_cost / 1e6, "Mpps");
    res.Add("lat_p50_us", stats.latency.Percentile(50) * 1e6, "us");
    res.Add("lat_p99_us", stats.latency.Percentile(99) * 1e6, "us");
    res.Add("setup_s", Quantile(setup_s, kQuietQuantile), "s");
    res.Add("mem_mb", rss_after - rss_before, "MiB");
    res.Note("lat_samples", std::to_string(stats.latency.count()));
    res.Note("timed_rounds", std::to_string(n_costs));
    res.Note("quiet_ns_per_pkt", rb::Format("%.1f", quiet_cost * 1e9 / tele::CyclesPerSecond()));
    res.Note("finish_ms", rb::Format("%.3f", static_cast<double>(finish_cycles) * 1e3 /
                                                  tele::CyclesPerSecond()));
    res.Note("setups", std::to_string(setup_s.size()));
    res.Note("zero_load_us", rb::Format("%.3f", zero_load * 1e6));
    res.Note("simulated_s", rb::Format("%.6f", last_t));
    return res;
  }

  const rb::telemetry::ProfileSnapshot snap = profiler->Snapshot();
  const LayerProfile prof = AttributeProfile(snap);
  const Tally& tr = tally[1];
  const double pkts = static_cast<double>(std::max<uint64_t>(tr.packets, 1));
  const double ns_per_cycle = 1e9 / tele::CyclesPerSecond();
  const uint64_t events = prof.Calls("cluster.event") + prof.Calls("cluster.service");
  uint64_t service_cycles = 0;
  for (const rb::telemetry::ScopeTotals& s : snap.AggregateByName()) {
    if (LayerOf(s.name) == "cluster.service") {
      service_cycles += s.cycles;
    }
  }
  PerLayerMetrics m;
  if (events > 0) {
    m.Set("cluster.ns_per_event",
          static_cast<double>(tr.cycles) * ns_per_cycle / static_cast<double>(events));
  }
  m.Set("cluster.events_per_packet", static_cast<double>(events) / pkts);
  m.Set("cluster.service_ns_per_packet", static_cast<double>(service_cycles) * ns_per_cycle / pkts);
  m.Set("bench.inject_cpp", static_cast<double>(prof.Self("bench.inject")) / pkts);
  const uint64_t in_src = prof.Self("cluster.event") + prof.Self("cluster.service");
  const uint64_t attributed = in_src + prof.Self("cluster.glue");
  const double raw = static_cast<double>(std::max<uint64_t>(tr.cycles, 1));
  const double coverage = static_cast<double>(attributed) / raw;
  m.Set("trace.coverage", coverage);
  m.Set("trace.src_coverage", static_cast<double>(in_src) / raw);
  if (coverage < kMinCoverage) {
    res.Fail(rb::Format("trace coverage %.3f below %.2f", coverage, kMinCoverage));
  }
  if (tally[0].mpps() > 0) {
    m.Set("trace.overhead", 1.0 - tr.mpps() / tally[0].mpps());
  }
  m.AppendTo(&res);
  res.Note("traced_rounds", std::to_string(rounds / 2));
  return res;
}

}  // namespace perfbench
