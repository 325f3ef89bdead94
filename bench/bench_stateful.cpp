// Stateful-plane bench (DESIGN.md §17): the robustness contract of the
// rb flow table and the shared-vs-SCR state-distribution ablation,
// measured and gated. Four phases:
//
//  1. table_churn — a million concurrent flows (heavy-tailed Zipf
//     emission, seeded birth/death churn) through the bounded-probe
//     table: zero insert failures, probe p99 within the configured
//     window, ns/op reported.
//  2. overload_eviction — a Nat element graph driven at 2x its table
//     capacity: watermark eviction engages, forwarding never stops,
//     drops (if any) land only in the dedicated flow_table_full bucket,
//     ports and pool buffers conserve exactly.
//  3. ablation — per-packet cost of the stateful plane in shared vs SCR
//     mode (the SCR tax = log append + periodic checkpoint), plus the
//     measured wall-time and record count of a failover replay, checked
//     against the checkpoint_period bound.
//  4. failover — the DES differential: kill a node mid-run; SCR mode
//     must preserve every established-flow NAT mapping byte-for-byte,
//     the shared baseline must demonstrably lose the dead node's flows.
//
// Any failed gate exits nonzero. --json writes a machine-readable
// summary (schema rb.bench_stateful.v1) that
// tools/check_bench_regression.py --stateful validates structurally;
// the gates are machine-independent invariants, so there is no
// committed cycle baseline.
#include <chrono>
#include <cstdio>

#include <map>
#include <string>
#include <vector>

#include "click/elements/misc.hpp"
#include "click/elements/nat.hpp"
#include "click/router.hpp"
#include "cluster/des.hpp"
#include "common/flags.hpp"
#include "common/strings.hpp"
#include "flow/flow_table.hpp"
#include "flow/stateful_plane.hpp"
#include "harness/report.hpp"
#include "packet/pool.hpp"
#include "telemetry/json.hpp"
#include "workload/flows.hpp"
#include "workload/synthetic.hpp"

namespace {

double g_nat_clock_s = 0;
double NatClock() { return g_nat_clock_s; }

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int g_failures = 0;
void Check(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    g_failures++;
  }
}

// --- phase 1: million-flow churn through the bounded-probe table ---

struct ChurnResult {
  uint64_t concurrent_flows = 0;
  uint64_t ops = 0;
  uint64_t insert_fail = 0;
  uint64_t evictions = 0;
  int probe_p99 = 0;
  int max_probe_buckets = 0;
  double ns_per_op = 0;
  double load_factor = 0;
};

ChurnResult RunChurn(size_t target_flows, size_t capacity, uint64_t extra_ops,
                     uint64_t seed) {
  rb::FlowTableConfig tcfg;
  tcfg.capacity = capacity;
  tcfg.shards = 8;
  rb::FlowTable table(tcfg);

  rb::FlowChurnConfig wcfg;
  wcfg.target_flows = target_flows;
  wcfg.zipf_s = 1.1;
  wcfg.churn_per_packet = 1e-3;
  wcfg.seed = seed;
  rb::FlowChurnGenerator gen(wcfg);

  ChurnResult res;
  res.ops = target_flows + extra_ops;
  const double t0 = NowMs();
  for (uint64_t i = 0; i < res.ops; ++i) {
    const auto item = gen.Next();
    table.FindOrInsert(item.key, static_cast<uint32_t>(i >> 10));
  }
  res.ns_per_op = (NowMs() - t0) * 1e6 / static_cast<double>(res.ops);
  const rb::FlowTableStats s = table.stats();
  res.concurrent_flows = table.occupancy();
  res.insert_fail = s.insert_fail;
  res.evictions = s.evictions();
  res.probe_p99 = table.ProbeLengthPercentile(0.99);
  res.max_probe_buckets = table.max_probe_buckets();
  res.load_factor =
      static_cast<double>(table.occupancy()) / static_cast<double>(table.capacity_slots());
  return res;
}

// --- phase 2: Nat under 2x table overload ---

struct OverloadResult {
  uint64_t offered = 0;
  uint64_t forwarded = 0;
  uint64_t evict_watermark = 0;
  uint64_t table_full_drops = 0;
  uint64_t mappings_in_use = 0;
  uint64_t capacity_slots = 0;
  bool ports_conserved = false;
  bool pool_conserved = false;
};

OverloadResult RunOverload(size_t capacity, bool evict_on_full) {
  rb::Router r;
  rb::NatOptions opt;
  opt.capacity = capacity;
  if (!evict_on_full) {
    opt.hi_watermark = 1.0;  // watermark off: full windows must hit the drop bucket
    opt.lo_watermark = 0.5;
    opt.evict_on_full = false;
  }
  rb::PacketPool pool(1024);
  auto* nat = r.Add<rb::Nat>(opt);
  auto* out = r.Add<rb::Discard>();
  auto* in = r.Add<rb::Discard>();
  r.Connect(nat, 0, out, 0);
  r.Connect(nat, 1, in, 0);
  r.Initialize();
  g_nat_clock_s = 0;
  nat->set_clock(&NatClock);

  OverloadResult res;
  res.capacity_slots = nat->table().capacity_slots();
  // 2x the slot budget in distinct flows, batched like a real ingress.
  const uint64_t flows = res.capacity_slots * 2;
  constexpr int kBatch = 32;
  rb::PacketBatch batch;
  for (uint64_t i = 0; i < flows; ++i) {
    g_nat_clock_s += 1e-4;
    rb::FrameSpec spec;
    spec.size = 64;
    spec.flow = rb::FlowChurnGenerator::KeyFor(i);
    batch.PushBack(rb::AllocFrame(spec, &pool));
    if (batch.size() == kBatch || i + 1 == flows) {
      nat->PushBatch(0, batch);
      batch.Clear();
    }
  }
  res.offered = flows;
  res.forwarded = out->count();
  res.evict_watermark = nat->table().stats().evict_watermark;
  res.table_full_drops = nat->table_full_drops();
  res.mappings_in_use = nat->mappings_in_use();
  res.ports_conserved = nat->mappings_in_use() == nat->table().occupancy();
  res.pool_conserved = pool.in_use() == 0;  // drops were freed, outputs drained
  return res;
}

// --- phase 3: shared-vs-SCR per-packet cost + replay bill ---

struct AblationResult {
  double shared_ns_per_op = 0;
  double scr_ns_per_op = 0;
  double scr_overhead_frac = 0;
  double replay_ms = 0;
  uint64_t replays = 0;
  uint64_t replayed_records = 0;
  uint64_t checkpoint_period = 0;
  bool replay_bound_ok = false;
};

double DrivePlane(rb::StatefulPlane* plane, uint64_t packets, uint64_t flows) {
  const double t0 = NowMs();
  for (uint64_t i = 0; i < packets; ++i) {
    plane->Apply(i % flows, 64, static_cast<uint32_t>(i >> 6));
  }
  return (NowMs() - t0) * 1e6 / static_cast<double>(packets);
}

AblationResult RunAblation(uint64_t packets, uint64_t flows, size_t checkpoint_period) {
  constexpr int kNodes = 4;
  rb::StatefulPlaneConfig cfg;
  cfg.enabled = true;
  cfg.capacity_per_node = flows * 2;
  cfg.checkpoint_period = checkpoint_period;

  AblationResult res;
  res.checkpoint_period = checkpoint_period;

  cfg.mode = rb::StateMode::kShared;
  rb::StatefulPlane shared(cfg, kNodes);
  res.shared_ns_per_op = DrivePlane(&shared, packets, flows);

  cfg.mode = rb::StateMode::kScr;
  rb::StatefulPlane scr(cfg, kNodes);
  res.scr_ns_per_op = DrivePlane(&scr, packets, flows);
  res.scr_overhead_frac =
      res.shared_ns_per_op > 0
          ? (res.scr_ns_per_op - res.shared_ns_per_op) / res.shared_ns_per_op
          : 0;

  // The failover bill: kill node 1, time the detection-driven replay.
  scr.OnNodeDown(1);
  const double t0 = NowMs();
  scr.OnNodeDetectedDown(1);
  res.replay_ms = NowMs() - t0;
  const rb::StatefulPlaneStats s = scr.stats();
  res.replays = s.replays;
  res.replayed_records = s.replayed_records;
  res.replay_bound_ok = s.replayed_records <= s.replays * checkpoint_period;
  return res;
}

// --- phase 4: DES failover differential ---

struct FailoverResult {
  double scr_preserved = 0;
  double shared_preserved = 0;
  uint64_t lost_flows_shared = 0;
  uint64_t state_unavailable = 0;
  uint64_t scr_replayed_records = 0;
  bool conservation_ok = false;
};

std::map<uint64_t, uint64_t> RunDesOnce(rb::StateMode mode, bool with_failure,
                                        uint64_t n_flows, uint64_t seed,
                                        rb::ClusterRunStats* stats_out) {
  rb::ClusterConfig cfg = rb::ClusterConfig::Rb4();
  cfg.seed = seed;
  cfg.stateful.enabled = true;
  cfg.stateful.mode = mode;
  cfg.stateful.capacity_per_node = 1 << 10;
  cfg.stateful.checkpoint_period = 64;
  constexpr double kFailTime = 2e-3;
  constexpr uint16_t kDeadNode = 2;
  if (with_failure) {
    cfg.failures.NodeDown(kDeadNode, kFailTime);
  }
  rb::ClusterSim sim(cfg);
  const double gap = 10e-6;
  rb::SimTime t = 0;
  uint64_t seq = 0;
  for (int round = 0; round < 3; ++round) {  // establish before the failure
    for (uint64_t f = 0; f < n_flows; ++f, t += gap) {
      sim.Inject(0, 1, f, seq++, 64, t);
    }
  }
  t = kFailTime + 1e-3;  // same flows again, after failover
  for (int round = 0; round < 3; ++round) {
    for (uint64_t f = 0; f < n_flows; ++f, t += gap) {
      sim.Inject(0, 1, f, seq++, 64, t);
    }
  }
  rb::ClusterRunStats stats = sim.Finish(t + 1e-3);
  if (stats_out != nullptr) {
    *stats_out = stats;
  }
  return sim.stateful_plane()->MappingSnapshot();
}

double PreservedFraction(const std::map<uint64_t, uint64_t>& base,
                         const std::map<uint64_t, uint64_t>& failed) {
  if (base.empty()) {
    return 0;
  }
  uint64_t same = 0;
  for (const auto& [flow, mapping] : base) {
    auto it = failed.find(flow);
    if (it != failed.end() && it->second == mapping) {
      same++;
    }
  }
  return static_cast<double>(same) / static_cast<double>(base.size());
}

FailoverResult RunFailover(uint64_t n_flows, uint64_t seed) {
  FailoverResult res;
  rb::ClusterRunStats scr_stats;
  rb::ClusterRunStats shared_stats;
  const auto scr_base = RunDesOnce(rb::StateMode::kScr, false, n_flows, seed, nullptr);
  const auto scr_fail = RunDesOnce(rb::StateMode::kScr, true, n_flows, seed, &scr_stats);
  const auto sh_base = RunDesOnce(rb::StateMode::kShared, false, n_flows, seed, nullptr);
  const auto sh_fail = RunDesOnce(rb::StateMode::kShared, true, n_flows, seed, &shared_stats);
  res.scr_preserved = PreservedFraction(scr_base, scr_fail);
  res.shared_preserved = PreservedFraction(sh_base, sh_fail);
  res.lost_flows_shared = shared_stats.stateful.lost_flows;
  res.state_unavailable = scr_stats.stateful.state_unavailable;
  res.scr_replayed_records = scr_stats.stateful.replayed_records;
  res.conservation_ok = rb::AuditConservation(scr_stats).empty() &&
                        rb::AuditConservation(shared_stats).empty();
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  rb::FlagSet flags("bench_stateful");
  auto* flows = flags.AddInt64("flows", 1 << 20, "concurrent-flow target for the churn phase");
  auto* capacity = flags.AddInt64("capacity", 1 << 21, "flow-table slot budget (churn phase)");
  auto* ops = flags.AddInt64("ops", 4 << 20, "extra churn operations after the ramp");
  auto* nat_capacity = flags.AddInt64("nat-capacity", 4096, "Nat table budget (overload phase)");
  auto* ablation_pkts = flags.AddInt64("ablation-pkts", 1 << 20, "packets per ablation mode");
  auto* des_flows = flags.AddInt64("des-flows", 64, "flow population for the DES failover");
  auto* seed = flags.AddInt64("seed", 11, "RNG seed");
  auto* smoke = flags.AddBool("smoke", false, "small fast preset (overrides sizing flags)");
  auto* json = flags.AddString("json", "", "write the machine-readable summary here");
  flags.Parse(argc, argv);

  if (*smoke) {
    *flows = 1 << 15;
    *capacity = 1 << 16;
    *ops = 1 << 17;
    *nat_capacity = 1024;
    *ablation_pkts = 1 << 16;
  }

  // Phase 1: million-flow churn.
  ChurnResult churn = RunChurn(static_cast<size_t>(*flows), static_cast<size_t>(*capacity),
                               static_cast<uint64_t>(*ops), static_cast<uint64_t>(*seed));
  rb::Report table_report("§17 flow table under churn",
                          rb::Format("%llu-op Zipf churn, %llu-slot table",
                                     static_cast<unsigned long long>(churn.ops),
                                     static_cast<unsigned long long>(*capacity)));
  table_report.SetColumns({"concurrent flows", "load", "ns/op", "probe p99 (buckets)",
                           "evictions", "insert failures"});
  table_report.AddRow({rb::Format("%llu", static_cast<unsigned long long>(churn.concurrent_flows)),
                       rb::Format("%.2f", churn.load_factor),
                       rb::Format("%.1f", churn.ns_per_op),
                       rb::Format("%d <= %d", churn.probe_p99, churn.max_probe_buckets),
                       rb::Format("%llu", static_cast<unsigned long long>(churn.evictions)),
                       rb::Format("%llu", static_cast<unsigned long long>(churn.insert_fail))});
  table_report.Print();
  Check(churn.concurrent_flows >= static_cast<uint64_t>(*flows) * 99 / 100,
        rb::Format("churn phase holds %llu concurrent flows, wanted >= %lld",
                   static_cast<unsigned long long>(churn.concurrent_flows),
                   static_cast<long long>(*flows)));
  Check(churn.insert_fail == 0, "churn phase must never fail an insert");
  Check(churn.probe_p99 >= 1 && churn.probe_p99 <= churn.max_probe_buckets,
        rb::Format("probe p99 %d outside the bounded window [1, %d]", churn.probe_p99,
                   churn.max_probe_buckets));

  // Phase 2: Nat at 2x capacity, both full-window policies.
  OverloadResult evict = RunOverload(static_cast<size_t>(*nat_capacity), /*evict_on_full=*/true);
  OverloadResult strict = RunOverload(static_cast<size_t>(*nat_capacity), /*evict_on_full=*/false);
  rb::Report overload_report("§17 graceful overload",
                             rb::Format("Nat at 2x table capacity (%llu flows offered)",
                                        static_cast<unsigned long long>(evict.offered)));
  overload_report.SetColumns({"policy", "forwarded/offered", "watermark evictions",
                              "flow_table_full drops", "mappings (<= slots)"});
  overload_report.AddRow(
      {"evict LRU", rb::Format("%llu/%llu", static_cast<unsigned long long>(evict.forwarded),
                               static_cast<unsigned long long>(evict.offered)),
       rb::Format("%llu", static_cast<unsigned long long>(evict.evict_watermark)),
       rb::Format("%llu", static_cast<unsigned long long>(evict.table_full_drops)),
       rb::Format("%llu <= %llu", static_cast<unsigned long long>(evict.mappings_in_use),
                  static_cast<unsigned long long>(evict.capacity_slots))});
  overload_report.AddRow(
      {"drop (strict)", rb::Format("%llu/%llu", static_cast<unsigned long long>(strict.forwarded),
                                   static_cast<unsigned long long>(strict.offered)),
       rb::Format("%llu", static_cast<unsigned long long>(strict.evict_watermark)),
       rb::Format("%llu", static_cast<unsigned long long>(strict.table_full_drops)),
       rb::Format("%llu <= %llu", static_cast<unsigned long long>(strict.mappings_in_use),
                  static_cast<unsigned long long>(strict.capacity_slots))});
  overload_report.Print();
  Check(evict.forwarded == evict.offered,
        "eviction policy must keep forwarding every packet at 2x overload");
  Check(evict.evict_watermark > 0, "watermark eviction must engage at 2x overload");
  Check(evict.table_full_drops == 0,
        "with eviction on, nothing may land in the flow_table_full bucket");
  Check(evict.mappings_in_use <= evict.capacity_slots, "mapping count exceeded the slot budget");
  Check(evict.ports_conserved, "evicted mappings must return their ports (ports != occupancy)");
  Check(evict.pool_conserved, "packet-pool leak in the eviction run");
  Check(strict.table_full_drops > 0,
        "with eviction off, overload must surface in the flow_table_full bucket");
  Check(strict.forwarded + strict.table_full_drops == strict.offered,
        "strict policy: forwarded + flow_table_full drops must equal offered");
  Check(strict.pool_conserved, "packet-pool leak in the strict run (drops not freed?)");

  // Phase 3: shared-vs-SCR ablation.
  AblationResult abl = RunAblation(static_cast<uint64_t>(*ablation_pkts),
                                   /*flows=*/1 << 12, /*checkpoint_period=*/4096);
  rb::Report abl_report("§17 state-distribution ablation",
                        rb::Format("%lld packets/mode, 4 nodes",
                                   static_cast<long long>(*ablation_pkts)));
  abl_report.SetColumns({"mode", "ns/packet", "overhead", "replay"});
  abl_report.AddRow({"shared", rb::Format("%.1f", abl.shared_ns_per_op), "-",
                     "lost on failover"});
  abl_report.AddRow({"SCR", rb::Format("%.1f", abl.scr_ns_per_op),
                     rb::Format("%.1f%%", abl.scr_overhead_frac * 100),
                     rb::Format("%llu records in %.2f ms",
                                static_cast<unsigned long long>(abl.replayed_records),
                                abl.replay_ms)});
  abl_report.AddNote(rb::Format(
      "replay bounded by checkpoint_period: %llu records <= %llu replays x %llu",
      static_cast<unsigned long long>(abl.replayed_records),
      static_cast<unsigned long long>(abl.replays),
      static_cast<unsigned long long>(abl.checkpoint_period)));
  abl_report.Print();
  Check(abl.replays > 0, "ablation failover produced no shard replays");
  Check(abl.replay_bound_ok, "replayed records exceeded replays x checkpoint_period");

  // Phase 4: DES failover differential.
  FailoverResult fo = RunFailover(static_cast<uint64_t>(*des_flows),
                                  static_cast<uint64_t>(*seed));
  rb::Report fo_report("§17 kill-a-node differential",
                       rb::Format("%lld flows, node killed mid-run, mappings vs no-failure run",
                                  static_cast<long long>(*des_flows)));
  fo_report.SetColumns({"mode", "mappings preserved", "lost flows", "replayed records"});
  fo_report.AddRow({"SCR", rb::Format("%.3f", fo.scr_preserved), "0",
                    rb::Format("%llu", static_cast<unsigned long long>(fo.scr_replayed_records))});
  fo_report.AddRow({"shared", rb::Format("%.3f", fo.shared_preserved),
                    rb::Format("%llu", static_cast<unsigned long long>(fo.lost_flows_shared)),
                    "-"});
  fo_report.AddNote(rb::Format("blind-window packets counted state_unavailable: %llu",
                               static_cast<unsigned long long>(fo.state_unavailable)));
  fo_report.Print();
  Check(fo.scr_preserved == 1.0, rb::Format("SCR preserved %.3f of mappings, must be 1.0",
                                            fo.scr_preserved));
  Check(fo.shared_preserved < 1.0,
        "shared baseline must demonstrably lose flows homed at the dead node");
  Check(fo.lost_flows_shared > 0, "shared-mode failover reported zero lost flows");
  Check(fo.conservation_ok, "DES packet-conservation audit failed");

  if (!json->empty()) {
    namespace tele = rb::telemetry;
    tele::JsonWriter w;
    w.BeginObject();
    w.Key("schema"); w.String("rb.bench_stateful.v1");
    w.Key("seed"); w.Int(*seed);
    w.Key("smoke"); w.Bool(*smoke);
    w.Key("table"); w.BeginObject();
    w.Key("concurrent_flows"); w.Uint(churn.concurrent_flows);
    w.Key("ops"); w.Uint(churn.ops);
    w.Key("insert_fail"); w.Uint(churn.insert_fail);
    w.Key("evictions"); w.Uint(churn.evictions);
    w.Key("probe_p99"); w.Int(churn.probe_p99);
    w.Key("max_probe_buckets"); w.Int(churn.max_probe_buckets);
    w.Key("load_factor"); w.Double(churn.load_factor);
    w.Key("ns_per_op"); w.Double(churn.ns_per_op);
    w.EndObject();
    w.Key("overload"); w.BeginObject();
    w.Key("offered"); w.Uint(evict.offered);
    w.Key("forwarded"); w.Uint(evict.forwarded);
    w.Key("evict_watermark"); w.Uint(evict.evict_watermark);
    w.Key("table_full_drops"); w.Uint(evict.table_full_drops);
    w.Key("strict_forwarded"); w.Uint(strict.forwarded);
    w.Key("strict_table_full_drops"); w.Uint(strict.table_full_drops);
    w.Key("ports_conserved"); w.Bool(evict.ports_conserved && strict.ports_conserved);
    w.EndObject();
    w.Key("ablation"); w.BeginObject();
    w.Key("shared_ns_per_op"); w.Double(abl.shared_ns_per_op);
    w.Key("scr_ns_per_op"); w.Double(abl.scr_ns_per_op);
    w.Key("scr_overhead_frac"); w.Double(abl.scr_overhead_frac);
    w.Key("replay_ms"); w.Double(abl.replay_ms);
    w.Key("replays"); w.Uint(abl.replays);
    w.Key("replayed_records"); w.Uint(abl.replayed_records);
    w.Key("checkpoint_period"); w.Uint(abl.checkpoint_period);
    w.Key("replay_bound_ok"); w.Bool(abl.replay_bound_ok);
    w.EndObject();
    w.Key("failover"); w.BeginObject();
    w.Key("scr_preserved"); w.Double(fo.scr_preserved);
    w.Key("shared_preserved"); w.Double(fo.shared_preserved);
    w.Key("lost_flows_shared"); w.Uint(fo.lost_flows_shared);
    w.Key("state_unavailable"); w.Uint(fo.state_unavailable);
    w.EndObject();
    w.Key("conservation_ok"); w.Bool(fo.conservation_ok);
    w.Key("checks_failed"); w.Int(g_failures);
    w.EndObject();
    FILE* f = fopen(json->c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: failed to write %s\n", json->c_str());
    } else {
      std::fputs(w.str().c_str(), f);
      std::fputc('\n', f);
      fclose(f);
      std::printf("stateful JSON written to %s\n", json->c_str());
    }
  }

  return g_failures == 0 ? 0 : 1;
}
