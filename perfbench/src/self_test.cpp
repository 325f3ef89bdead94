// Self-test of the output checks: each check is shown a real router (or
// simulator) output that it must accept, and the same output deliberately
// corrupted, which it must reject. Cases: a frame on the wrong port, a
// stale IPv4 checksum, one flipped ESP byte, a duplicated NAT port, and a
// DES drop that no bucket counts.
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"
#include "click/elements/nat.hpp"
#include "common/rng.hpp"
#include "core/single_server_router.hpp"
#include "frames.hpp"
#include "lookup/table_gen.hpp"

namespace perfbench {
namespace {

struct Output {
  std::vector<uint8_t> bytes;
  int port = 0;
};

// Offers every frame of `round` to its input port, runs the graph until
// idle and returns what both ports transmitted.
std::vector<Output> Forward(const rb::SingleServerConfig& cfg, const Round& round) {
  rb::SingleServerRouter router(cfg);
  router.Initialize();
  for (size_t i = 0; i < round.size(); ++i) {
    const Injected& f = round.at(i);
    rb::Packet* p = router.pool().Alloc();
    p->SetPayload(round.bytes(f), f.len);
    router.DeliverFrame(f.in_port, p, 0.0);
  }
  router.RunUntilIdle();
  std::vector<Output> outs;
  rb::Packet* burst[64];
  for (int port = 0; port < cfg.num_ports; ++port) {
    size_t n;
    while ((n = router.DrainPort(port, burst, 64)) > 0) {
      for (size_t i = 0; i < n; ++i) {
        outs.push_back({std::vector<uint8_t>(burst[i]->data(), burst[i]->data() + burst[i]->length()),
                        port});
      }
      router.pool().FreeBulk(burst, n);
    }
  }
  return outs;
}

rb::SingleServerConfig SmallConfig(rb::App app) {
  rb::SingleServerConfig cfg;
  cfg.num_ports = 2;
  cfg.queues_per_port = 1;
  cfg.cores = 1;
  cfg.app = app;
  cfg.pool_packets = 1024;
  cfg.compile_programs = true;
  cfg.table.num_routes = 4096;
  cfg.stateful_nat = app == rb::App::kIpRouting;
  return cfg;
}

FlowSpec Flow(uint32_t i, uint32_t dst) {
  return FlowSpec{0x0a000000u | i, dst, static_cast<uint16_t>(2000 + i), 80};
}

// Builds `n` frames on input port 0 with distinct flows; rtr frames take
// routable destinations and expect the reference LPM's port.
Round MakeRound(rb::App app, const rb::SingleServerConfig& cfg, size_t n, uint32_t size) {
  Round round(n);
  round.Reset(1000);
  rb::Rng rng(7);
  std::vector<rb::RouteEntry> routes;
  if (app == rb::App::kIpRouting) {
    rb::TableGenConfig tg = cfg.table;
    tg.num_next_hops = static_cast<uint32_t>(cfg.num_ports);
    routes = rb::GenerateRoutingTable(tg);
  }
  ReferenceLpm lpm(routes);
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t dst = RandomUnicast(&rng);
    int expect = 1;
    if (!routes.empty()) {
      const rb::RouteEntry& r = routes[rng.NextBounded(routes.size())];
      const uint32_t host = r.length >= 32 ? 0 : ~uint32_t{0} >> r.length;
      dst = (r.prefix & ~host) | (static_cast<uint32_t>(rng.Next()) & host);
      expect = static_cast<int>(lpm.Lookup(dst)) - 1;
    }
    uint32_t tag = 0;
    uint8_t* buf = round.Append(size, 0, expect, i, &tag);
    BuildFrame(Flow(i, dst), size, tag, app != rb::App::kIpsec, buf);
  }
  return round;
}

// Runs `clean` then `corrupt` against fresh copies of the round through
// checkers made by `make`; the case passes when the clean outputs are
// accepted and the corrupted ones rejected.
bool Case(const char* name, const Round& round, const std::vector<Output>& clean,
          const std::vector<Output>& corrupt,
          const std::function<std::unique_ptr<OutputChecker>()>& make) {
  Round r1 = round;
  auto c1 = make();
  for (const Output& o : clean) {
    const std::string e = c1->Check(r1, o.bytes.data(), static_cast<uint32_t>(o.bytes.size()), o.port);
    if (!e.empty()) {
      printf("self-test %-22s FAIL: clean output rejected: %s\n", name, e.c_str());
      return false;
    }
  }
  Round r2 = round;
  auto c2 = make();
  std::string fired;
  for (const Output& o : corrupt) {
    const std::string e = c2->Check(r2, o.bytes.data(), static_cast<uint32_t>(o.bytes.size()), o.port);
    if (!e.empty() && fired.empty()) {
      fired = e;
    }
  }
  if (fired.empty()) {
    printf("self-test %-22s FAIL: corrupted output accepted\n", name);
    return false;
  }
  printf("self-test %-22s ok: fired: %s\n", name, fired.c_str());
  return true;
}

}  // namespace

int RunSelfTest() {
  int failures = 0;

  {
    const rb::SingleServerConfig cfg = SmallConfig(rb::App::kMinimalForwarding);
    const Round round = MakeRound(rb::App::kMinimalForwarding, cfg, 8, 64);
    const std::vector<Output> clean = Forward(cfg, round);
    std::vector<Output> bad = clean;
    bad[0].port = 1 - bad[0].port;
    failures += !Case("wrong-port", round, clean, bad,
                      [] { return std::make_unique<FwdCheck>(); });
  }

  const rb::SingleServerConfig rtr = SmallConfig(rb::App::kIpRouting);
  const Round rtr_round = MakeRound(rb::App::kIpRouting, rtr, 8, 64);
  const std::vector<Output> rtr_clean = Forward(rtr, rtr_round);
  auto make_rtr = [] { return std::make_unique<RtrCheck>(rb::NatOptions{}.external_ip, 2); };
  {
    // The checksum the frame was injected with, left in place after the
    // router rewrote TTL and source.
    std::vector<Output> bad = rtr_clean;
    const uint32_t tag = FrameTag(bad[0].bytes.data());
    for (size_t i = 0; i < rtr_round.size(); ++i) {
      const uint8_t* in = rtr_round.bytes(rtr_round.at(i));
      if (FrameTag(in) == tag) {
        memcpy(bad[0].bytes.data() + kIpOffset + 10, in + kIpOffset + 10, 2);
      }
    }
    failures += !Case("stale-checksum", rtr_round, rtr_clean, bad, make_rtr);
  }
  {
    // A second flow given the first flow's public port (UDP checksum
    // refreshed, so only the mapping audit can object).
    std::vector<Output> bad = rtr_clean;
    if (bad.size() >= 2) {
      uint8_t* frame = bad[1].bytes.data();
      memcpy(frame + kUdpOffset, bad[0].bytes.data() + kUdpOffset, 2);
      PutBe16(frame + kUdpOffset + 6, 0);
      PutBe16(frame + kUdpOffset + 6, UdpChecksum(frame + kIpOffset));
    }
    failures += !Case("duplicated-nat-port", rtr_round, rtr_clean, bad, make_rtr);
  }

  {
    rb::SingleServerConfig cfg = SmallConfig(rb::App::kIpsec);
    cfg.esp.key[0] = 0x5a;
    const Round round = MakeRound(rb::App::kIpsec, cfg, 8, 576);
    const std::vector<Output> clean = Forward(cfg, round);
    std::vector<Output> bad = clean;
    bad[0].bytes[bad[0].bytes.size() / 2] ^= 0x01;  // inside the ciphertext
    const rb::EspConfig esp = cfg.esp;
    failures += !Case("flipped-esp-byte", round, clean, bad,
                      [esp] { return std::make_unique<EspCheck>(esp, 2); });
  }

  {
    rb::ClusterConfig cfg = rb::ClusterConfig::Rb4();
    rb::ClusterSim sim(cfg);
    for (uint32_t i = 0; i < 2000; ++i) {
      sim.Inject(static_cast<uint16_t>(i % 4), static_cast<uint16_t>((i + 1) % 4), i % 64, i / 64,
                 64, i * 1e-6);
    }
    rb::ClusterRunStats stats = sim.Finish(2000 * 1e-6);
    const double zero = ZeroLoadLatencySeconds(cfg, 64);
    const std::string clean = CheckDesRun(stats, zero, 0.03);
    stats.delivered_packets -= 1;  // lost, but in no drop bucket
    stats.delivered_bytes -= 64;
    const std::string fired = CheckDesRun(stats, zero, 0.03);
    if (!clean.empty()) {
      printf("self-test %-22s FAIL: clean run rejected: %s\n", "uncounted-des-drop", clean.c_str());
      failures++;
    } else if (fired.empty()) {
      printf("self-test %-22s FAIL: corrupted stats accepted\n", "uncounted-des-drop");
      failures++;
    } else {
      printf("self-test %-22s ok: fired: %s\n", "uncounted-des-drop", fired.c_str());
    }
  }

  const std::string aes = CheckAesVector();
  printf("self-test %-22s %s\n", "aes-fips197-c1", aes.empty() ? "ok" : aes.c_str());
  failures += !aes.empty();
  printf("self-test %s: %d case(s) failed\n", failures == 0 ? "passed" : "FAILED", failures);
  return failures;
}

}  // namespace perfbench
