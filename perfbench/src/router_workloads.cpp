// Single-server workloads: fwd-64, rtr-nat-64 and ipsec-abilene.
//
// Every round offers 512 frames to each of the two input ports (one full
// 512-entry rx ring each) in four 256-frame bursts, runs the element graph
// until idle, drains both tx rings, checks every transmitted frame against
// the benchmark's own expectation, and frees it. ipsec-abilene offers 64
// frames per port in two bursts instead: checking its outputs takes several
// times as long as forwarding them, and small rounds give the quiet quantile
// enough rounds to pick from.
//
// A round's cost is the time spent inside the router's calls (DeliverBatch,
// RunUntilIdle, DrainPort, FreeBulk) per forwarded frame and per byte of the
// round's mean frame size; frame generation, the fill of pool buffers and
// the checks are outside it. mpps is the rate, at the run's mean frame size,
// at the quiet quantile of the round costs, and the latency metrics are the
// means of the per-round percentiles over the rounds at or below that cost
// (the quiet rounds).
#include <algorithm>
#include <memory>

#include "bench.hpp"
#include "checks.hpp"
#include "click/elements/nat.hpp"
#include "common/log.hpp"
#include "common/strings.hpp"
#include "core/single_server_router.hpp"
#include "frames.hpp"
#include "layers.hpp"
#include "lookup/table_gen.hpp"
#include "telemetry/latency_stats.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/profiler.hpp"
#include "workload/abilene.hpp"

namespace perfbench {
namespace {

namespace tele = rb::telemetry;

constexpr int kPorts = 2;
constexpr int kPerPort = 512;  // frames offered to each input port per round
constexpr int kIpsecPerPort = 64;
constexpr int kRoundFrames = kPorts * kPerPort;  // the largest round
constexpr int kBurst = static_cast<int>(rb::PacketBatch::kCapacity);
constexpr int kMaxBursts = kRoundFrames / kBurst;
constexpr int kWarmupRounds = 8;
constexpr uint32_t kTxRing = 512;
// Upper bound on timed rounds per second (16 Mpps in 1024-frame rounds);
// the per-round sample store is sized for it before the memory baseline.
constexpr double kMaxRoundsPerSecond = 16000;

// rtr-nat-64 round make-up, per input port: frames routed to port 0 and to
// port 1. Port 0 receives 2 x 272 = 544 frames per round, 32 more than its
// tx ring holds, so ToDevice's unchecked transmit drops exactly 32 per round.
constexpr int kRtrToPort[kPorts] = {272, 240};
// Flows per (input port, output port) group: 1024 flows per Nat, a quarter
// of its 4096 mapping slots, so no mapping is ever evicted.
constexpr int kNatFlowsPerGroup = 512;
constexpr size_t kNatCapacity = 4096;
constexpr double kZipfExponent = 1.1;  // as FlowChurnConfig::zipf_s
constexpr int kFwdFlows = 1024;

enum class Kind { kFwd, kRtrNat, kIpsec };

int PerPort(Kind kind) { return kind == Kind::kIpsec ? kIpsecPerPort : kPerPort; }

rb::SingleServerConfig MakeConfig(Kind kind) {
  rb::SingleServerConfig cfg;
  cfg.num_ports = kPorts;
  cfg.queues_per_port = 1;
  cfg.cores = 1;
  cfg.pool_packets = 16384;
  cfg.compile_programs = true;
  switch (kind) {
    case Kind::kFwd:
      cfg.app = rb::App::kMinimalForwarding;
      break;
    case Kind::kRtrNat:
      cfg.app = rb::App::kIpRouting;
      cfg.stateful_nat = true;
      cfg.nat_capacity = kNatCapacity;
      break;
    case Kind::kIpsec:
      cfg.app = rb::App::kIpsec;
      for (int i = 0; i < 16; ++i) {
        cfg.esp.key[i] = static_cast<uint8_t>(0xa5 ^ (i * 29));
      }
      break;
  }
  return cfg;
}

// The router plus the telemetry registry its latency plane writes into.
struct Instance {
  std::unique_ptr<tele::MetricRegistry> registry;
  std::unique_ptr<rb::SingleServerRouter> router;
};

Instance SetUp(const rb::SingleServerConfig& cfg) {
  Instance in;
  in.registry = std::make_unique<tele::MetricRegistry>();
  in.router = std::make_unique<rb::SingleServerRouter>(cfg);
  in.router->EnableTelemetry(in.registry.get(), nullptr);
  in.router->Initialize();
  return in;
}

// Generates the inputs of one workload from the seed and builds each
// round's frames.
class Traffic {
 public:
  Traffic(Kind kind, const rb::SingleServerConfig& cfg, uint64_t seed)
      : kind_(kind), rng_(seed * 0x9e3779b97f4a7c15ULL + 17), zipf_(kNatFlowsPerGroup, kZipfExponent) {
    if (kind_ == Kind::kRtrNat) {
      rb::TableGenConfig tg = cfg.table;
      tg.num_next_hops = static_cast<uint32_t>(cfg.num_ports);
      routes_ = rb::GenerateRoutingTable(tg);
      MakeNatFlows();
    } else {
      for (int i = 0; i < kFwdFlows; ++i) {
        flows_.push_back(RandomFlow(static_cast<uint32_t>(i), RandomUnicast(&rng_)));
      }
    }
  }

  // Fills `round` with PerPort(kind) frames per input port, port 0's first.
  void NextRound(Round* round, uint32_t base_tag) {
    round->Reset(base_tag);
    for (int port = 0; port < kPorts; ++port) {
      picks_.clear();
      if (kind_ == Kind::kRtrNat) {
        for (int out = 0; out < kPorts; ++out) {
          const auto& group = groups_[port][out];
          for (int k = 0; k < kRtrToPort[out]; ++k) {
            picks_.push_back({group[zipf_.Next(&rng_)], out});
          }
        }
        // Interleave the two destinations within the port's frames.
        for (size_t i = picks_.size(); i > 1; --i) {
          std::swap(picks_[i - 1], picks_[rng_.NextBounded(i)]);
        }
      } else {
        for (int k = 0; k < PerPort(kind_); ++k) {
          picks_.push_back({static_cast<uint32_t>(rng_.NextBounded(flows_.size())),
                            (port + 1) % kPorts});
        }
      }
      for (const Pick& pick : picks_) {
        const uint32_t size = kind_ == Kind::kIpsec
                                  ? abilene_.NextSize(&rng_)
                                  : 64;
        uint32_t tag = 0;
        uint8_t* buf = round->Append(size, port, pick.out, pick.flow, &tag);
        BuildFrame(flows_[pick.flow], size, tag, /*udp_checksum=*/kind_ != Kind::kIpsec, buf);
      }
    }
  }

  // Distinct flows that have been offered to each input port's NAT.
  uint64_t distinct_flows() const { return distinct_; }
  void MarkOffered(const Round& round) {
    for (size_t i = 0; i < round.size(); ++i) {
      const uint32_t f = round.at(i).flow;
      if (!offered_[f]) {
        offered_[f] = true;
        distinct_++;
      }
    }
  }

 private:
  struct Pick {
    uint32_t flow;
    int out;
  };

  FlowSpec RandomFlow(uint32_t index, uint32_t dst) {
    FlowSpec f;
    f.src_ip = 0x0a000000u | index;  // unique inside address per flow
    f.dst_ip = dst;
    f.src_port = static_cast<uint16_t>(1024 + rng_.NextBounded(64512));
    static const uint16_t kServices[4] = {53, 80, 443, 4500};
    f.dst_port = kServices[rng_.NextBounded(4)];
    return f;
  }

  // Destinations are drawn once per flow from the installed prefixes; the
  // benchmark's own LPM sorts each flow into the group of its output port
  // until every (input, output) group holds kNatFlowsPerGroup flows.
  void MakeNatFlows() {
    ReferenceLpm lpm(routes_);
    for (int port = 0; port < kPorts; ++port) {
      while (groups_[port][0].size() < kNatFlowsPerGroup ||
             groups_[port][1].size() < kNatFlowsPerGroup) {
        const rb::RouteEntry& r = routes_[rng_.NextBounded(routes_.size())];
        const uint32_t host = r.length >= 32 ? 0 : ~uint32_t{0} >> r.length;
        const uint32_t dst = (r.prefix & ~host) | (static_cast<uint32_t>(rng_.Next()) & host);
        const uint32_t hop = lpm.Lookup(dst);
        RB_CHECK_MSG(hop >= 1 && hop <= kPorts, "destination drawn outside the route list");
        auto& group = groups_[port][hop - 1];
        if (group.size() < kNatFlowsPerGroup) {
          group.push_back(static_cast<uint32_t>(flows_.size()));
          flows_.push_back(RandomFlow(static_cast<uint32_t>(flows_.size()), dst));
        }
      }
    }
    offered_.assign(flows_.size(), false);
  }

  Kind kind_;
  rb::Rng rng_;
  ZipfSampler zipf_;
  rb::AbileneSizeDistribution abilene_;
  std::vector<rb::RouteEntry> routes_;
  std::vector<FlowSpec> flows_;
  std::vector<uint32_t> groups_[kPorts][kPorts];
  std::vector<Pick> picks_;
  std::vector<bool> offered_;
  uint64_t distinct_ = 0;
};

// One timed round of an end-to-end run.
struct RoundSample {
  // Router-call cycles per forwarded frame, divided by the round's mean
  // frame size: on ipsec-abilene the size mix of a 128-frame round varies
  // by about 8 %, and the quiet quantile would otherwise pick the rounds
  // that happened to draw small frames.
  float cycles_per_byte;
  float mean_len;    // the round's mean offered frame size
  float lat_p50_ns;  // this round's latency percentiles
  float lat_p99_ns;
};

// Round-level figures, kept apart for traced and untraced rounds.
struct Tally {
  uint64_t rounds = 0;
  uint64_t forwarded = 0;
  uint64_t router_cycles = 0;
  uint64_t injected_bytes = 0;
  uint64_t lookups = 0;
  uint64_t lookup_cycles = 0;
  double mpps() const {
    const double s = static_cast<double>(router_cycles) / tele::CyclesPerSecond();
    return s > 0 ? static_cast<double>(forwarded) / s / 1e6 : 0;
  }
};

// Merged ingress->egress latency over the lat/port* histograms, minus the
// samples already counted in `base` (empty: none).
tele::LatencySnapshot MergedLatency(tele::MetricRegistry* registry,
                                    const std::vector<uint64_t>& base) {
  tele::LatencySnapshot out;
  out.counts.assign(tele::LatencyBuckets::kCount, 0);
  for (int p = 0; p < kPorts; ++p) {
    const tele::LatencySnapshot s =
        registry->GetLatencyHistogram(rb::Format("lat/port%d", p))->Snapshot();
    for (size_t i = 0; i < s.counts.size(); ++i) {
      out.counts[i] += s.counts[i];
    }
  }
  bool first = true;
  for (size_t i = 0; i < out.counts.size(); ++i) {
    if (!base.empty()) {
      out.counts[i] -= base[i];
    }
    if (out.counts[i] == 0) {
      continue;
    }
    out.count += out.counts[i];
    if (first) {
      out.min_ns = tele::LatencyBuckets::LowerNs(i);
      first = false;
    }
    out.max_ns = tele::LatencyBuckets::UpperNs(i);
  }
  return out;
}

Kind KindOf(const std::string& workload) {
  if (workload == "fwd-64") return Kind::kFwd;
  if (workload == "rtr-nat-64") return Kind::kRtrNat;
  return Kind::kIpsec;
}

}  // namespace

RunResult RunRouterWorkload(const Options& opt) {
  RunResult res;
  const Kind kind = KindOf(opt.workload);
  const rb::SingleServerConfig cfg = MakeConfig(kind);

  // Inputs first, so that neither their generation nor their memory counts
  // as the router's set-up.
  Traffic traffic(kind, cfg, opt.seed);
  Round round(kRoundFrames);
  std::unique_ptr<OutputChecker> checker;
  RtrCheck* rtr_check = nullptr;
  switch (kind) {
    case Kind::kFwd:
      checker = std::make_unique<FwdCheck>();
      break;
    case Kind::kRtrNat: {
      auto c = std::make_unique<RtrCheck>(rb::NatOptions{}.external_ip, kPorts);
      rtr_check = c.get();
      checker = std::move(c);
      break;
    }
    case Kind::kIpsec:
      checker = std::make_unique<EspCheck>(cfg.esp, kPorts);
      if (std::string e = CheckAesVector(); !e.empty()) {
        res.Fail(e);
      }
      break;
  }

  std::vector<RoundSample> samples;
  if (!opt.trace) {
    samples.resize(static_cast<size_t>(opt.seconds * kMaxRoundsPerSecond) + 1);
  }
  size_t n_samples = 0;

  CpuRotor rotor;
  std::vector<double> setup_s;
  const double rss_before = TrimmedResidentMiB();
  uint64_t t_setup = tele::ReadCycles();
  Instance inst = SetUp(cfg);
  setup_s.push_back(SecondsSince(t_setup));
  rb::SingleServerRouter& router = *inst.router;
  rb::PacketPool& pool = router.pool();
  const rb::Dir24_8* dir = router.dir_table();

  std::vector<rb::Nat*> nats;
  for (const auto& e : router.graph().elements()) {
    if (auto* nat = dynamic_cast<rb::Nat*>(e.get())) {
      nats.push_back(nat);  // built in input-port order
    }
  }
  if (kind == Kind::kRtrNat && nats.size() != kPorts) {
    res.Fail(rb::Format("expected %d Nat elements, found %zu", kPorts, nats.size()));
  }

  const tele::ScopeId span_inject = tele::InternScopeName(kSpanInject);
  const tele::ScopeId span_lpm = tele::InternScopeName(kSpanLpmBatch);
  const tele::ScopeId span_deliver = tele::InternScopeName(kSpanRxDeliver);
  const tele::ScopeId span_run = tele::InternScopeName(kSpanSchedRun);
  const tele::ScopeId span_drain = tele::InternScopeName(kSpanDrain);
  auto profiler = opt.trace ? std::make_unique<tele::Profiler>() : nullptr;

  const int per_port = PerPort(kind);
  const int round_frames = kPorts * per_port;
  const int burst = std::min(kBurst, per_port);
  const int bursts = round_frames / burst;
  rb::PacketBatch batches[kMaxBursts];
  rb::Packet* alloc[kBurst];
  std::vector<rb::Packet*> outs(2 * kRoundFrames);
  std::vector<int> out_port(2 * kRoundFrames);
  std::vector<uint32_t> dsts(kRoundFrames);
  std::vector<uint32_t> hops(kRoundFrames);
  Tally tally[2];  // [0] untraced, [1] traced
  std::vector<uint64_t> lat_seen(tele::LatencyBuckets::kCount, 0);  // lat/port* counts so far
  uint64_t lat_samples = 0;
  uint64_t rounds = 0;
  uint64_t forwarded = 0;
  uint64_t alloc_short = 0;
  uint64_t wall_start = 0;

  while (true) {
    const bool warm = rounds >= kWarmupRounds;
    if (rounds == kWarmupRounds) {
      wall_start = tele::ReadCycles();
    }
    if (warm && SecondsSince(wall_start) >= opt.seconds) {
      break;
    }
    rotor.MaybeMove();
    // Traced runs alternate untraced and traced rounds, so the tracing
    // overhead is measured against interleaved untraced rounds.
    const bool traced = opt.trace && warm && (rounds - kWarmupRounds) % 2 == 1;
    tele::SetProfiler(traced ? profiler.get() : nullptr);
    Tally& t = tally[traced ? 1 : 0];

    traffic.NextRound(&round, static_cast<uint32_t>(rounds * round_frames));
    if (kind == Kind::kRtrNat) {
      traffic.MarkOffered(round);
    }
    {
      tele::ScopedCycles span(span_inject);
      // Bursts alternate ports: port 0 frames [0, 256), port 1 [0, 256),
      // port 0 [256, 512), port 1 [256, 512).
      for (int b = 0; b < bursts; ++b) {
        const size_t first = static_cast<size_t>((b % kPorts) * per_port + (b / kPorts) * burst);
        const size_t got = pool.AllocBulk(alloc, static_cast<size_t>(burst));
        alloc_short += static_cast<size_t>(burst) - got;
        for (size_t i = 0; i < got; ++i) {
          const Injected& f = round.at(first + i);
          alloc[i]->SetPayload(round.bytes(f), f.len);
          batches[b].PushBack(alloc[i]);
        }
      }
    }

    const uint64_t c0 = tele::ReadCycles();
    {
      tele::ScopedCycles span(span_deliver);
      for (int b = 0; b < bursts; ++b) {
        router.DeliverBatch(b % kPorts, &batches[b], 0.0);
      }
    }
    {
      tele::ScopedCycles span(span_run);
      router.RunUntilIdle();
    }
    const uint64_t c1 = tele::ReadCycles();
    size_t n_out = 0;
    {
      tele::ScopedCycles span(span_drain);
      for (int p = 0; p < kPorts; ++p) {
        size_t n;
        while ((n = router.DrainPort(p, &outs[n_out], outs.size() - n_out)) > 0) {
          std::fill(out_port.begin() + static_cast<long>(n_out),
                    out_port.begin() + static_cast<long>(n_out + n), p);
          n_out += n;
        }
      }
    }
    const uint64_t c2 = tele::ReadCycles();

    for (size_t i = 0; i < n_out; ++i) {
      const std::string err = checker->Check(round, outs[i]->data(), outs[i]->length(), out_port[i]);
      if (!err.empty()) {
        res.Fail(err);
      }
    }
    if (kind != Kind::kRtrNat && round.claimed() != round.size()) {
      res.Fail(rb::Format("round %llu: %zu of %zu frames came out",
                          static_cast<unsigned long long>(rounds), round.claimed(), round.size()));
    }

    const uint64_t c3 = tele::ReadCycles();
    {
      tele::ScopedCycles span(span_drain);
      pool.FreeBulk(outs.data(), n_out);
    }
    const uint64_t c4 = tele::ReadCycles();

    if (traced && dir != nullptr) {
      // The LPM layer alone, on this round's destination stream.
      for (size_t i = 0; i < round.size(); ++i) {
        dsts[i] = Be32(round.bytes(round.at(i)) + kIpOffset + 16);
      }
      const uint64_t l0 = tele::ReadCycles();
      {
        tele::ScopedCycles span(span_lpm);
        for (size_t i = 0; i < round.size(); i += kBurst) {
          dir->LookupBatch(&dsts[i], &hops[i], std::min<size_t>(kBurst, round.size() - i));
        }
      }
      t.lookup_cycles += tele::ReadCycles() - l0;
      t.lookups += round.size();
      for (size_t i = 0; i < round.size(); ++i) {
        if (hops[i] != static_cast<uint32_t>(round.at(i).expect_port + 1)) {
          res.Fail(rb::Format("Dir24_8 resolves %08x to hop %u, reference LPM to %d", dsts[i],
                              hops[i], round.at(i).expect_port + 1));
        }
      }
    }

    const uint64_t round_cycles = (c1 - c0) + (c2 - c1) + (c4 - c3);
    uint64_t round_bytes = 0;
    for (size_t i = 0; i < round.size(); ++i) {
      round_bytes += round.at(i).len;
    }
    if (!opt.trace) {
      // This round's own latencies: the lat/port* samples added since the
      // previous round.
      const tele::LatencySnapshot lat = MergedLatency(inst.registry.get(), lat_seen);
      for (size_t i = 0; i < lat.counts.size(); ++i) {
        lat_seen[i] += lat.counts[i];
      }
      if (warm && n_samples < samples.size() && n_out > 0 && lat.count > 0) {
        const double mean_len = static_cast<double>(round_bytes) / static_cast<double>(round.size());
        samples[n_samples++] = {static_cast<float>(static_cast<double>(round_cycles) /
                                                   static_cast<double>(n_out) / mean_len),
                                static_cast<float>(mean_len),
                                static_cast<float>(lat.PercentileNs(50)),
                                static_cast<float>(lat.PercentileNs(99))};
        lat_samples += lat.count;
      }
    }

    rounds++;
    forwarded += n_out;
    if (warm) {
      t.rounds++;
      t.forwarded += n_out;
      t.router_cycles += round_cycles;
      t.injected_bytes += round_bytes;
    }
  }
  tele::SetProfiler(nullptr);
  const double rss_after = ResidentMiB();

  // Accounting: every offered frame is forwarded or sits in a drop bucket.
  res.attempted = rounds * static_cast<uint64_t>(round_frames);
  uint64_t rx_drops = 0;
  uint64_t tx_drops = 0;
  double rx_ring_hw = 0;
  for (int p = 0; p < kPorts; ++p) {
    rx_drops += router.port(p).rx_counters().drops.load();
    tx_drops += router.port(p).tx_counters().drops.load();
    rx_ring_hw = std::max(rx_ring_hw, inst.registry->GetGauge(
                                          rb::Format("nic/port%d/rxq0/occupancy_hw", p))->Value());
  }
  std::map<std::string, uint64_t> elem_drops;
  uint64_t elem_total = 0;
  for (const auto& e : router.graph().elements()) {
    if (e->drops() > 0) {
      elem_drops[e->class_name()] += e->drops();
      elem_total += e->drops();
    }
  }
  res.failure_buckets.emplace_back("nic.rx_drops", rx_drops);
  res.failure_buckets.emplace_back("nic.tx_drops", tx_drops);
  for (const auto& [cls, n] : elem_drops) {
    res.failure_buckets.emplace_back("elem." + cls + ".drops", n);
  }
  res.failure_buckets.emplace_back("pool.alloc_short", alloc_short);
  res.failed = rx_drops + tx_drops + elem_total + alloc_short;
  if (res.attempted != forwarded + res.failed) {
    res.Fail(rb::Format("injected %llu != forwarded %llu + failed %llu",
                        static_cast<unsigned long long>(res.attempted),
                        static_cast<unsigned long long>(forwarded),
                        static_cast<unsigned long long>(res.failed)));
  }
  if (pool.in_use() != 0) {
    res.Fail(rb::Format("%zu packets still held after the run", pool.in_use()));
  }
  // Only the named ToDevice fault may fail operations, and only on rtr-nat-64.
  const uint64_t allowed = kind == Kind::kRtrNat ? tx_drops : 0;
  if (res.failed != allowed) {
    res.Fail(rb::Format("unexpected drops: %llu failed, %llu expected from tx-ring overflow",
                        static_cast<unsigned long long>(res.failed),
                        static_cast<unsigned long long>(allowed)));
  }
  if (kind == Kind::kRtrNat) {
    const uint64_t per_round = 2 * kRtrToPort[0] > kTxRing ? 2 * kRtrToPort[0] - kTxRing : 0;
    if (tx_drops != rounds * per_round) {
      res.Fail(rb::Format("tx drops %llu, expected %llu per round",
                          static_cast<unsigned long long>(tx_drops),
                          static_cast<unsigned long long>(per_round)));
    }
  }

  uint64_t mappings = 0;
  uint64_t evictions = 0;
  int probe_p99 = 0;
  for (rb::Nat* nat : nats) {
    mappings += nat->mappings_in_use();
    evictions += nat->table().stats().evictions();
    probe_p99 = std::max(probe_p99, nat->table().ProbeLengthPercentile(0.99));
  }
  if (kind == Kind::kRtrNat) {
    if (evictions != 0) {
      res.Fail(rb::Format("NAT evicted %llu mappings", static_cast<unsigned long long>(evictions)));
    }
    if (mappings != traffic.distinct_flows()) {
      res.Fail(rb::Format("NAT holds %llu mappings for %llu offered flows",
                          static_cast<unsigned long long>(mappings),
                          static_cast<unsigned long long>(traffic.distinct_flows())));
    }
    if (rtr_check->nat_map().mappings() > mappings) {
      res.Fail("more NAT mappings seen on the wire than the NAT holds");
    }
  }

  if (!opt.trace) {
    if (n_samples == 0) {
      res.Fail("no timed round recorded latency samples");
      return res;
    }
    std::vector<double> cost(n_samples);
    for (size_t i = 0; i < n_samples; ++i) {
      cost[i] = samples[i].cycles_per_byte;
    }
    const double quiet_cost = Quantile(cost, kQuietQuantile);
    // Cycles per frame of the run's mean offered frame size.
    const double mean_len = static_cast<double>(tally[0].injected_bytes) /
                            static_cast<double>(tally[0].rounds * round_frames);
    const double quiet_cpp = quiet_cost * mean_len;
    // Per-round percentiles fall on a few histogram buckets, so their mean
    // over the quiet rounds is reported rather than a median. A frame's
    // latency is mostly the wait behind the bytes ahead of it in the round,
    // so each round's figures are scaled to the run's mean frame size.
    double p50 = 0;
    double p99 = 0;
    size_t quiet = 0;
    for (size_t i = 0; i < n_samples; ++i) {
      const RoundSample& r = samples[i];
      if (r.cycles_per_byte <= quiet_cost) {
        p50 += r.lat_p50_ns * mean_len / r.mean_len;
        p99 += r.lat_p99_ns * mean_len / r.mean_len;
        quiet++;
      }
    }
    inst = Instance{};
    const uint64_t setups_start = tele::ReadCycles();
    while (setup_s.size() < static_cast<size_t>(kMinSetups) ||
           SecondsSince(setups_start) < kSetupSeconds) {
      rotor.MaybeMove();
      t_setup = tele::ReadCycles();
      Instance again = SetUp(cfg);
      setup_s.push_back(SecondsSince(t_setup));
    }
    res.Add("mpps", tele::CyclesPerSecond() / quiet_cpp / 1e6, "Mpps");
    res.Add("lat_p50_us", p50 / static_cast<double>(quiet) / 1e3, "us");
    res.Add("lat_p99_us", p99 / static_cast<double>(quiet) / 1e3, "us");
    res.Add("setup_s", Quantile(setup_s, kQuietQuantile), "s");
    res.Add("mem_mb", rss_after - rss_before, "MiB");
    res.Note("lat_samples", std::to_string(lat_samples));
    res.Note("timed_rounds", std::to_string(tally[0].rounds));
    res.Note("quiet_rounds", std::to_string(quiet));
    res.Note("quiet_cycles_per_pkt", rb::Format("%.1f", quiet_cpp));
    res.Note("mpps_all_rounds", rb::Format("%.4f", tally[0].mpps()));
    res.Note("setups", std::to_string(setup_s.size()));
    return res;
  }

  const Tally& tr = tally[1];
  const LayerProfile prof = AttributeProfile(profiler->Snapshot());
  const double pkts = static_cast<double>(std::max<uint64_t>(tr.forwarded, 1));
  auto cpp = [&](const char* layer) { return static_cast<double>(prof.Self(layer)) / pkts; };
  PerLayerMetrics m;
  m.Set("netdev.rx_deliver_cpp", cpp("netdev.rx_deliver"));
  m.Set("netdev.rx_poll_cpp", cpp("netdev.rx_poll"));
  m.Set("netdev.tx_cpp", cpp("netdev.tx"));
  m.Set("netdev.drain_cpp", cpp("netdev.drain"));
  m.Set("netdev.tx_drops", static_cast<double>(tx_drops));
  m.Set("netdev.rx_ring_hw", rx_ring_hw);
  m.Set("click.sched_cpp", cpp("click.sched"));
  m.Set("click.task_cpp", cpp("click.task"));
  m.Set("click.queue_cpp", cpp("click.queue"));
  m.Set("click.elements_cpp", cpp("click.elements"));
  m.Set("program.classify_cpp", cpp("program.classify"));
  m.Set("lookup.lpm_cpp", cpp("lookup.lpm"));
  if (tr.lookups > 0) {
    m.Set("lookup.lpm_ns", static_cast<double>(tr.lookup_cycles) / tele::CyclesPerSecond() * 1e9 /
                               static_cast<double>(tr.lookups));
  }
  m.Set("flow.nat_cpp", cpp("flow.nat"));
  m.Set("flow.mappings", static_cast<double>(mappings));
  m.Set("flow.probe_p99", probe_p99);
  m.Set("flow.evictions", static_cast<double>(evictions));
  m.Set("crypto.esp_cpp", cpp("crypto.esp"));
  if (kind == Kind::kIpsec && tr.injected_bytes > 0) {
    m.Set("crypto.esp_cycles_per_byte",
          static_cast<double>(prof.Self("crypto.esp")) / static_cast<double>(tr.injected_bytes));
  }
  m.Set("bench.inject_cpp", cpp("bench.inject"));
  uint64_t attributed = 0;
  uint64_t in_src = 0;  // attributed to the library's own scopes
  for (const auto& [layer, cycles] : prof.self_cycles) {
    if (layer != "bench.inject" && layer != "bench.lpm_batch") {
      attributed += cycles;
      if (!IsBenchSpanLayer(layer)) {
        in_src += cycles;
      }
    }
  }
  const double raw = static_cast<double>(std::max<uint64_t>(tr.router_cycles, 1));
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
  res.Note("traced_rounds", std::to_string(tr.rounds));
  res.Note("untraced_rounds", std::to_string(tally[0].rounds));
  res.Note("unattributed_cycles_per_pkt",
           rb::Format("%.2f", static_cast<double>(prof.unattributed) / pkts));
  return res;
}

}  // namespace perfbench
