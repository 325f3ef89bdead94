// google-benchmark microbenchmarks for the data-plane primitives: LPM
// lookup (DIR-24-8 vs the reference trie), AES-128 blocks, CBC encryption
// (the portable oracle vs the AES-NI kernel, one stream and eight lanes),
// the Internet checksum, flow hashing, SPSC vs locked rings, and ESP
// encapsulation and decapsulation.
//
// These measure this host's wall clock and make no claim of matching the
// paper's testbed; they document the relative costs (e.g. D-lookup vs
// trie, AES per byte) that the calibrated model encodes.
#include <benchmark/benchmark.h>

#include "crypto/aes128.hpp"
#include "crypto/cbc.hpp"
#include "crypto/esp.hpp"
#include "lookup/dir24_8.hpp"
#include "lookup/radix_trie.hpp"
#include "lookup/table_gen.hpp"
#include "netdev/ring.hpp"
#include "packet/checksum.hpp"
#include "packet/flow.hpp"
#include "packet/batch.hpp"
#include "packet/pool.hpp"
#include "telemetry/profiler.hpp"
#include "workload/abilene.hpp"
#include "workload/injector.hpp"
#include "workload/synthetic.hpp"

namespace {

std::vector<rb::RouteEntry> SharedTable() {
  static std::vector<rb::RouteEntry> table = [] {
    rb::TableGenConfig cfg;
    cfg.num_routes = 256 * 1024;  // the paper's table size
    return rb::GenerateRoutingTable(cfg);
  }();
  return table;
}

void BM_LookupDir24_8(benchmark::State& state) {
  static rb::Dir24_8* dut = [] {
    auto* t = new rb::Dir24_8();
    t->InsertAll(SharedTable());
    return t;
  }();
  rb::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dut->Lookup(static_cast<uint32_t>(rng.Next())));
  }
}
BENCHMARK(BM_LookupDir24_8);

void BM_LookupRadixTrie(benchmark::State& state) {
  static rb::RadixTrie* dut = [] {
    auto* t = new rb::RadixTrie();
    t->InsertAll(SharedTable());
    return t;
  }();
  rb::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dut->Lookup(static_cast<uint32_t>(rng.Next())));
  }
}
BENCHMARK(BM_LookupRadixTrie);

// TSC cycles per byte over the timed loop, as a counter next to the
// bytes/s google-benchmark derives from its own clock.
void SetCyclesPerByte(benchmark::State& state, uint64_t start_cycles, size_t bytes_per_iter) {
  const double bytes = static_cast<double>(state.iterations()) * static_cast<double>(bytes_per_iter);
  state.counters["cycles_per_B"] =
      static_cast<double>(rb::telemetry::ReadCycles() - start_cycles) / bytes;
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
}

void BM_Aes128Block(benchmark::State& state) {
  uint8_t key[16] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
  rb::Aes128 aes(key);
  uint8_t block[16] = {0};
  const uint64_t t0 = rb::telemetry::ReadCycles();
  for (auto _ : state) {
    aes.EncryptBlock(block, block);
    benchmark::DoNotOptimize(block[0]);
  }
  SetCyclesPerByte(state, t0, 16);
}
BENCHMARK(BM_Aes128Block);

void BM_Aes128DecryptBlock(benchmark::State& state) {
  uint8_t key[16] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
  rb::Aes128 aes(key);
  uint8_t block[16] = {0};
  const uint64_t t0 = rb::telemetry::ReadCycles();
  for (auto _ : state) {
    aes.DecryptBlock(block, block);
    benchmark::DoNotOptimize(block[0]);
  }
  SetCyclesPerByte(state, t0, 16);
}
BENCHMARK(BM_Aes128DecryptBlock);

const uint8_t kBenchKey[16] = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                               0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
const uint8_t kBenchIv[16] = {0};

bool SkipWithoutAes(benchmark::State& state) {
  if (rb::CpuHasAes()) {
    return false;
  }
  state.SkipWithError("this CPU has no AES instructions");
  return true;
}

// One stream of range(0) bytes: the portable oracle, then the AES-NI kernel.
void BM_CbcPortable(benchmark::State& state) {
  const rb::Aes128 cipher(kBenchKey);
  std::vector<uint8_t> buf(static_cast<size_t>(state.range(0)), 0xab);
  const rb::CbcStream stream{buf.data(), buf.size(), kBenchIv};
  const uint64_t t0 = rb::telemetry::ReadCycles();
  for (auto _ : state) {
    rb::CbcEncryptPortable(cipher, &stream, 1);
    benchmark::DoNotOptimize(buf.data());
    benchmark::ClobberMemory();
  }
  SetCyclesPerByte(state, t0, buf.size());
}
BENCHMARK(BM_CbcPortable)->Arg(64)->Arg(576)->Arg(1504);

void BM_CbcAesni(benchmark::State& state) {
  if (SkipWithoutAes(state)) {
    return;
  }
  const rb::Aes128 cipher(kBenchKey);
  std::vector<uint8_t> buf(static_cast<size_t>(state.range(0)), 0xab);
  const rb::CbcStream stream{buf.data(), buf.size(), kBenchIv};
  const uint64_t t0 = rb::telemetry::ReadCycles();
  for (auto _ : state) {
    rb::CbcEncryptAesni(cipher, &stream, 1);
    benchmark::DoNotOptimize(buf.data());
    benchmark::ClobberMemory();
  }
  SetCyclesPerByte(state, t0, buf.size());
}
BENCHMARK(BM_CbcAesni)->Arg(64)->Arg(576)->Arg(1504);

// The Abilene size mix as ESP plaintext: 128 packets (one ipsec-abilene
// round) of 64/576/1500 B frames, each rounded up to the CBC length ESP
// encrypts (IP packet + trailer, a multiple of 16), in separate buffers.
struct AbileneStreams {
  std::vector<std::vector<uint8_t>> bufs;
  std::vector<rb::CbcStream> streams;
  size_t bytes = 0;

  AbileneStreams() {
    rb::AbileneSizeDistribution sizes;
    rb::Rng rng(1);
    for (int i = 0; i < 128; ++i) {
      const size_t ip = sizes.NextSize(&rng) - 14;
      bufs.emplace_back(ip + rb::CbcPadLength(ip, /*esp_trailer=*/true) + 2, 0xab);
    }
    for (auto& b : bufs) {
      streams.push_back(rb::CbcStream{b.data(), b.size(), kBenchIv});
      bytes += b.size();
    }
  }
};

void BM_CbcAbilenePortable(benchmark::State& state) {
  const rb::Aes128 cipher(kBenchKey);
  AbileneStreams mix;
  const uint64_t t0 = rb::telemetry::ReadCycles();
  for (auto _ : state) {
    rb::CbcEncryptPortable(cipher, mix.streams.data(), mix.streams.size());
    benchmark::DoNotOptimize(mix.streams.data());
    benchmark::ClobberMemory();
  }
  SetCyclesPerByte(state, t0, mix.bytes);
}
BENCHMARK(BM_CbcAbilenePortable);

// The AES-NI kernel called once per packet: one stream in flight.
void BM_CbcAbileneAesniOneStream(benchmark::State& state) {
  if (SkipWithoutAes(state)) {
    return;
  }
  const rb::Aes128 cipher(kBenchKey);
  AbileneStreams mix;
  const uint64_t t0 = rb::telemetry::ReadCycles();
  for (auto _ : state) {
    for (const rb::CbcStream& s : mix.streams) {
      rb::CbcEncryptAesni(cipher, &s, 1);
    }
    benchmark::DoNotOptimize(mix.streams.data());
    benchmark::ClobberMemory();
  }
  SetCyclesPerByte(state, t0, mix.bytes);
}
BENCHMARK(BM_CbcAbileneAesniOneStream);

// The same kernel on the whole round at once: eight lanes in lockstep.
void BM_CbcAbileneAesniLanes(benchmark::State& state) {
  if (SkipWithoutAes(state)) {
    return;
  }
  const rb::Aes128 cipher(kBenchKey);
  AbileneStreams mix;
  const uint64_t t0 = rb::telemetry::ReadCycles();
  for (auto _ : state) {
    rb::CbcEncryptAesni(cipher, mix.streams.data(), mix.streams.size());
    benchmark::DoNotOptimize(mix.streams.data());
    benchmark::ClobberMemory();
  }
  SetCyclesPerByte(state, t0, mix.bytes);
}
BENCHMARK(BM_CbcAbileneAesniLanes);

void BM_Checksum(benchmark::State& state) {
  std::vector<uint8_t> buf(static_cast<size_t>(state.range(0)), 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rb::Checksum(buf.data(), buf.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(buf.size()));
}
BENCHMARK(BM_Checksum)->Arg(20)->Arg(64)->Arg(1500);

void BM_FlowHash(benchmark::State& state) {
  rb::FlowKey key{0x0a000001, 0x0b000002, 1234, 80, 6};
  for (auto _ : state) {
    key.src_port++;
    benchmark::DoNotOptimize(rb::FlowHash64(key));
  }
}
BENCHMARK(BM_FlowHash);

void BM_SpscRing(benchmark::State& state) {
  rb::SpscRing<uint64_t> ring(1024);
  uint64_t v = 0;
  for (auto _ : state) {
    ring.TryPush(v++);
    uint64_t out = 0;
    ring.TryPop(&out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_SpscRing);

void BM_LockedRing(benchmark::State& state) {
  rb::LockedRing<uint64_t> ring(1024);
  uint64_t v = 0;
  for (auto _ : state) {
    ring.TryPush(v++);
    uint64_t out = 0;
    ring.TryPop(&out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_LockedRing);

// ESP with the frames reset between timed passes: kEspFrames copies of one
// range(0)-byte frame per pass, so the pause is spread over many packets.
constexpr int kEspFrames = 64;

rb::FrameSpec EspFrameSpec(const benchmark::State& state) {
  rb::FrameSpec spec;
  spec.size = static_cast<uint32_t>(state.range(0));
  spec.flow = {1, 2, 3, 4, 17};
  return spec;
}

// Encapsulation alone (the dispatched encrypt), one packet per call.
void BM_EspEncapsulate(benchmark::State& state) {
  rb::EspTunnel enc(rb::EspConfig{});
  rb::PacketPool pool(kEspFrames + 1);
  rb::Packet* tmpl = rb::AllocFrame(EspFrameSpec(state), &pool);
  rb::Packet* pkts[kEspFrames];
  for (rb::Packet*& p : pkts) {
    p = pool.Alloc();
  }
  for (auto _ : state) {
    state.PauseTiming();
    for (rb::Packet* p : pkts) {
      p->SetPayload(tmpl->data(), tmpl->length());
    }
    state.ResumeTiming();
    for (rb::Packet* p : pkts) {
      benchmark::DoNotOptimize(enc.Encapsulate(p));
    }
  }
  for (rb::Packet* p : pkts) {
    pool.Free(p);
  }
  pool.Free(tmpl);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kEspFrames);
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kEspFrames * state.range(0));
}
BENCHMARK(BM_EspEncapsulate)->Arg(64)->Arg(576)->Arg(1500);

// Decapsulation alone (the portable decrypt), one packet per call.
void BM_EspDecapsulate(benchmark::State& state) {
  rb::EspTunnel enc(rb::EspConfig{});
  rb::EspTunnel dec(rb::EspConfig{});
  rb::PacketPool pool(kEspFrames + 1);
  rb::Packet* tmpl = rb::AllocFrame(EspFrameSpec(state), &pool);
  enc.Encapsulate(tmpl);
  rb::Packet* pkts[kEspFrames];
  for (rb::Packet*& p : pkts) {
    p = pool.Alloc();
  }
  for (auto _ : state) {
    state.PauseTiming();
    for (rb::Packet* p : pkts) {
      p->SetPayload(tmpl->data(), tmpl->length());
    }
    state.ResumeTiming();
    for (rb::Packet* p : pkts) {
      benchmark::DoNotOptimize(dec.Decapsulate(p));
    }
  }
  for (rb::Packet* p : pkts) {
    pool.Free(p);
  }
  pool.Free(tmpl);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kEspFrames);
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kEspFrames * state.range(0));
}
BENCHMARK(BM_EspDecapsulate)->Arg(64)->Arg(576)->Arg(1500);

void BM_MaterializeFrame(benchmark::State& state) {
  rb::PacketPool pool(4);
  rb::FrameSpec spec;
  spec.size = 64;
  spec.flow = {1, 2, 3, 4, 17};
  rb::Packet* p = pool.Alloc();
  for (auto _ : state) {
    rb::MaterializeFrame(spec, p);
    benchmark::DoNotOptimize(p->data()[0]);
  }
  pool.Free(p);
}
BENCHMARK(BM_MaterializeFrame);

void BM_InjectorFillFrame(benchmark::State& state) {
  // The template-patch path BM_MaterializeFrame's full construction is
  // being compared against.
  rb::PacketPool pool(4);
  rb::InjectorConfig cfg;
  cfg.synthetic.packet_size = 64;
  rb::BulkInjector injector(cfg, &pool);
  rb::FrameSpec spec;
  spec.size = 64;
  spec.flow = {1, 2, 3, 4, 17};
  rb::Packet* p = pool.Alloc();
  for (auto _ : state) {
    injector.FillFrame(spec, p);
    benchmark::DoNotOptimize(p->data()[0]);
  }
  pool.Free(p);
}
BENCHMARK(BM_InjectorFillFrame);

void BM_PoolAllocFreeSingle(benchmark::State& state) {
  rb::PacketPool pool(512);
  rb::Packet* pkts[256];
  const size_t n = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    for (size_t i = 0; i < n; ++i) {
      pkts[i] = pool.Alloc();
    }
    for (size_t i = 0; i < n; ++i) {
      pool.Free(pkts[i]);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * static_cast<int64_t>(n));
}
BENCHMARK(BM_PoolAllocFreeSingle)->Arg(64)->Arg(256);

void BM_PoolAllocBulkFree(benchmark::State& state) {
  rb::PacketPool pool(512);
  rb::Packet* pkts[256];
  const size_t n = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    size_t got = pool.AllocBulk(pkts, n);
    pool.FreeBulk(pkts, got);
    benchmark::DoNotOptimize(got);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * static_cast<int64_t>(n));
}
BENCHMARK(BM_PoolAllocBulkFree)->Arg(64)->Arg(256);

void BM_InjectorBurst(benchmark::State& state) {
  // Whole injection path per packet: bulk carve + template fill.
  rb::PacketPool pool(512);
  rb::InjectorConfig cfg;
  cfg.synthetic.packet_size = 64;
  rb::BulkInjector injector(cfg, &pool);
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  rb::PacketBatch batch;
  for (auto _ : state) {
    injector.NextBurst(n, &batch);
    for (rb::Packet* p : batch) {
      pool.Free(p);
    }
    batch.Clear();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_InjectorBurst)->Arg(64)->Arg(256);

void BM_InjectorBurstPlanned(benchmark::State& state) {
  // Same path with a precomputed patch plan: generator, hash, and
  // checksum work moved to setup — what the fig9 inject scope measures.
  rb::PacketPool pool(512);
  rb::InjectorConfig cfg;
  cfg.synthetic.packet_size = 64;
  rb::BulkInjector injector(cfg, &pool);
  injector.PrecomputePlan(4096);
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  rb::PacketBatch batch;
  for (auto _ : state) {
    injector.NextBurst(n, &batch);
    for (rb::Packet* p : batch) {
      pool.Free(p);
    }
    batch.Clear();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_InjectorBurstPlanned)->Arg(64)->Arg(256);

void BM_InjectorBurstPlannedAbilene(benchmark::State& state) {
  // Trimodal frame sizes (mean ~730 B): the fill cost is dominated by
  // payload stores into long-evicted buffer lines.
  rb::PacketPool pool(512);
  rb::InjectorConfig cfg;
  cfg.abilene = true;
  cfg.recycled_payload_is_clean = true;
  rb::BulkInjector injector(cfg, &pool);
  injector.PrecomputePlan(4096);
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  rb::PacketBatch batch;
  for (auto _ : state) {
    injector.NextBurst(n, &batch);
    for (rb::Packet* p : batch) {
      pool.Free(p);
    }
    batch.Clear();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_InjectorBurstPlannedAbilene)->Arg(256);

}  // namespace

BENCHMARK_MAIN();
