// Watermark backpressure and CoDel AQM on QueueElement, the
// Router::DownstreamBlockers discovery walk, FromDevice poll throttling
// against a blocked queue, the Click-config keyword args that select all
// of it, and the two-thread watermark handoff (run under TSan by the
// *Concurrent* CI filter).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "click/config_parser.hpp"
#include "click/elements/from_device.hpp"
#include "click/elements/misc.hpp"
#include "click/elements/queue.hpp"
#include "click/router.hpp"
#include "netdev/nic.hpp"
#include "packet/pool.hpp"
#include "testing/dataflow.hpp"

namespace rb {
namespace {

double g_clock_now = 0;
double TestClock() { return g_clock_now; }

QueueOptions Watermarked(size_t cap, size_t hi, size_t lo) {
  QueueOptions opt;
  opt.capacity = cap;
  opt.hi_watermark = hi;
  opt.lo_watermark = lo;
  return opt;
}

void PushN(QueueElement* q, PacketPool* pool, size_t n) {
  PacketBatch batch;
  for (size_t i = 0; i < n; ++i) {
    batch.PushBack(pool->Alloc());
  }
  q->PushBatch(0, batch);
}

TEST(QueueBackpressureTest, BlocksAtHighWatermarkUnblocksAtLow) {
  Router r;
  auto* q = r.Add<QueueElement>(Watermarked(64, 32, 16));
  r.Initialize();
  PacketPool pool(256);

  EXPECT_FALSE(q->Blocked());
  EXPECT_EQ(q->PushHeadroom(), 32u) << "headroom is packets-until-hi, not capacity";
  PushN(q, &pool, 31);
  EXPECT_FALSE(q->Blocked());
  EXPECT_EQ(q->PushHeadroom(), 1u);
  PushN(q, &pool, 1);  // reaches hi
  EXPECT_TRUE(q->Blocked());
  EXPECT_EQ(q->PushHeadroom(), 0u);
  EXPECT_EQ(q->blocked_events(), 1u);

  // Sticky until lo: draining to lo+1 is not enough.
  PacketBatch out;
  EXPECT_EQ(q->PullBatch(0, &out, 15), 15u);
  EXPECT_TRUE(q->Blocked()) << "blocked must hold until occupancy reaches lo (hysteresis)";
  EXPECT_EQ(q->PullBatch(0, &out, 1), 1u);  // now at lo = 16
  EXPECT_FALSE(q->Blocked());
  EXPECT_GT(q->PushHeadroom(), 0u);
  out.ReleaseAll();
}

TEST(QueueBackpressureTest, PartialPullBatchStillUnblocks) {
  // The satellite fix: a PullBatch that consumes fewer packets than
  // requested (or than the batch cap) must still run the unblock check —
  // otherwise a consumer that nibbles 1-2 packets at a time can strand
  // the queue in Blocked forever even though it is far below lo.
  Router r;
  auto* q = r.Add<QueueElement>(Watermarked(64, 8, 4));
  r.Initialize();
  PacketPool pool(64);
  PushN(q, &pool, 8);
  ASSERT_TRUE(q->Blocked());

  PacketBatch out;
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(q->PullBatch(0, &out, 1), 1u);
  }
  EXPECT_EQ(q->size(), 4u);
  EXPECT_FALSE(q->Blocked()) << "partial (1-packet) pulls down to lo must clear Blocked";
  out.ReleaseAll();

  // Refilled to hi, the queue blocks again; single-packet pulls clear it again.
  PushN(q, &pool, 8 - q->size());
  ASSERT_TRUE(q->Blocked());
  for (int i = 0; i < 4; ++i) {
    Packet* p = PullOne(q);
    ASSERT_NE(p, nullptr);
    pool.Free(p);
  }
  EXPECT_FALSE(q->Blocked());
}

TEST(QueueBackpressureTest, LegacyQueueExertsNoPressure) {
  Router r;
  auto* q = r.Add<QueueElement>(static_cast<size_t>(16));
  r.Initialize();
  EXPECT_EQ(q->PushHeadroom(), SIZE_MAX);
  PacketPool pool(32);
  PushN(q, &pool, 16);
  EXPECT_FALSE(q->Blocked());
  EXPECT_EQ(q->PushHeadroom(), SIZE_MAX) << "no watermarks -> never signals backpressure";
  PacketBatch out;
  q->PullBatch(0, &out, 16);
  out.ReleaseAll();
}

TEST(QueueBackpressureTest, CodelDropsOnlyUnderPersistentSojourn) {
  QueueOptions opt;
  opt.capacity = 256;
  opt.aqm = AqmMode::kCoDel;
  opt.codel_target_s = 5e-3;
  opt.codel_interval_s = 100e-3;
  Router r;
  auto* q = r.Add<QueueElement>(opt);
  r.Initialize();
  q->set_clock(&TestClock);
  PacketPool pool(512);

  // Low sojourn: packets dequeue "immediately" -> no drops.
  g_clock_now = 0;
  PushN(q, &pool, 32);
  PacketBatch out;
  EXPECT_EQ(q->PullBatch(0, &out, 32), 32u);
  EXPECT_EQ(q->aqm_drops(), 0u);
  out.ReleaseAll();

  // Persistent standing queue: sojourn above target for a full interval.
  g_clock_now = 1.0;
  PushN(q, &pool, 64);
  g_clock_now = 1.2;  // every queued packet now 200ms old (>> target)
  uint64_t pulled = 0;
  while (Packet* p = PullOne(q)) {
    pulled++;
    pool.Free(p);
    // Advance far enough per dequeue that the drain spans several CoDel
    // intervals — the first drop only comes a full interval after the
    // sojourn first exceeds target.
    g_clock_now += 5e-3;
  }
  EXPECT_GT(q->aqm_drops(), 0u) << "CoDel must shed a standing queue";
  EXPECT_EQ(pulled + q->aqm_drops(), 64u) << "every packet either delivered or AQM-dropped";
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(QueueBackpressureTest, CodelDrainUnblocksWatermarkedQueue) {
  // AQM-only drains (drops without a successful Pull) must still clear
  // Blocked once the occupancy falls to lo.
  QueueOptions opt;
  opt.capacity = 64;
  opt.hi_watermark = 32;
  opt.lo_watermark = 4;
  opt.aqm = AqmMode::kCoDel;
  opt.codel_target_s = 1e-3;
  opt.codel_interval_s = 2e-3;
  Router r;
  auto* q = r.Add<QueueElement>(opt);
  r.Initialize();
  q->set_clock(&TestClock);
  PacketPool pool(128);

  g_clock_now = 10.0;
  PushN(q, &pool, 32);
  ASSERT_TRUE(q->Blocked());
  g_clock_now = 20.0;  // ancient sojourns: CoDel drops aggressively
  PacketBatch out;
  while (q->size() > 4 && q->PullBatch(0, &out, 1) > 0) {
    g_clock_now += 0.5;
  }
  EXPECT_LE(q->size(), 4u);
  EXPECT_FALSE(q->Blocked());
  out.ReleaseAll();
}

TEST(QueueBackpressureTest, RouterDiscoversDownstreamBlockers) {
  NicConfig nc;
  NicPort nic(nc);
  Router r;
  auto* from = r.Add<FromDevice>(&nic, 0, 32, -1);
  auto* counter = r.Add<CounterElement>();
  auto* wq = r.Add<QueueElement>(Watermarked(64, 32, 16));
  r.Connect(from, 0, counter, 0);
  r.Connect(counter, 0, wq, 0);
  r.Initialize();

  auto blockers = r.DownstreamBlockers(from);
  ASSERT_EQ(blockers.size(), 1u) << "walk must pass through non-boundary elements";
  EXPECT_EQ(blockers[0], wq);
  EXPECT_EQ(from->downstream_blockers().size(), 1u)
      << "FromDevice caches watermarked blockers at Initialize";
}

TEST(QueueBackpressureTest, FromDeviceThrottlesAgainstBlockedQueue) {
  NicConfig nc;
  nc.ring_entries = 512;
  NicPort nic(nc);
  PacketPool pool(512);
  Router r;
  auto* from = r.Add<FromDevice>(&nic, 0, 32, -1);
  auto* q = r.Add<QueueElement>(Watermarked(256, 48, 24));
  r.Connect(from, 0, q, 0);
  r.Initialize();

  for (int i = 0; i < 200; ++i) {
    nic.Deliver(pool.Alloc(), 0.0);
  }
  // No consumer: polls shrink to the queue's headroom and stop at hi.
  size_t moved = 1;
  while (moved > 0) {
    moved = from->RunOnce();
  }
  EXPECT_EQ(q->size(), 48u) << "poll allowance must clamp exactly at the high watermark";
  EXPECT_TRUE(q->Blocked());
  EXPECT_GT(from->throttled_polls(), 0u);

  // Drain below lo: polling resumes and refills to hi.
  PacketBatch out;
  q->PullBatch(0, &out, 30);
  out.ReleaseAll();
  EXPECT_FALSE(q->Blocked());
  while (from->RunOnce() > 0) {
  }
  EXPECT_EQ(q->size(), 48u);
  // Release everything for a clean pool — the rx ring still holds what
  // the throttled polls left behind, so alternate drain and poll until
  // both sides run dry.
  while (true) {
    PacketBatch rest;
    q->PullBatch(0, &rest, 512);
    const size_t freed = rest.size();
    rest.ReleaseAll();
    if (freed == 0 && from->RunOnce() == 0) {
      break;
    }
  }
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(QueueBackpressureTest, ConcurrentWatermarkHandoff) {
  // Two real threads: a producer that respects PushHeadroom and a
  // consumer that nibbles variable-size batches. TSan (CI's *Concurrent*
  // filter) checks the blocked_ flag's acquire/release pairing; the
  // asserts check conservation and that the producer never overruns hi.
  //
  // PacketPool is single-threaded by design (per-core pools, §4.2), so
  // only the producer touches it: the consumer hands finished packets
  // back through a second SPSC ring and the producer recycles them.
  Router r;
  auto* q = r.Add<QueueElement>(Watermarked(128, 64, 16));
  r.Initialize();
  PacketPool pool(256);
  SpscRing<Packet*> recycle(256);
  constexpr uint64_t kTotal = 20000;

  std::atomic<uint64_t> consumed{0};
  std::atomic<bool> overrun{false};
  std::thread producer([&] {
    uint64_t sent = 0;
    while (sent < kTotal) {
      Packet* back = nullptr;
      while (recycle.TryPop(&back)) {
        pool.Free(back);
      }
      size_t headroom = q->PushHeadroom();
      if (headroom == 0) {
        std::this_thread::yield();
        continue;
      }
      size_t n = std::min<uint64_t>({headroom, 32, kTotal - sent});
      PacketBatch batch;
      for (size_t i = 0; i < n; ++i) {
        Packet* p = pool.Alloc();
        if (p == nullptr) {
          break;  // outstanding packets are all in flight; recycle first
        }
        batch.PushBack(p);
      }
      sent += batch.size();
      q->PushBatch(0, batch);
      if (q->size() > 64u + 32u) {
        overrun.store(true);
      }
    }
  });
  std::thread consumer([&] {
    uint64_t got = 0;
    int spin = 0;
    while (got < kTotal) {
      PacketBatch out;
      size_t n = q->PullBatch(0, &out, 1 + static_cast<int>(got % 17));
      if (n == 0) {
        // The escape hatch counts *consecutive* empty pulls: on a
        // single-CPU host a cumulative counter trips during ordinary
        // producer timeslices and strands the producer against a
        // blocked queue forever.
        if (++spin > (1 << 22)) {
          break;  // producer died; let the asserts report
        }
        std::this_thread::yield();
        continue;
      }
      spin = 0;
      got += n;
      for (uint32_t i = 0; i < out.size(); ++i) {
        // Can't fill: the ring holds the whole pool.
        ASSERT_TRUE(recycle.TryPush(out[i]));
      }
      out.Clear();
    }
    consumed.store(got);
  });
  producer.join();
  consumer.join();

  EXPECT_EQ(consumed.load() + q->drops(), kTotal);
  EXPECT_EQ(q->overflow_drops(), 0u) << "headroom-respecting producer must never overflow";
  EXPECT_FALSE(overrun.load());
  Packet* back = nullptr;
  while (recycle.TryPop(&back)) {
    pool.Free(back);
  }
  PacketBatch rest;
  q->PullBatch(0, &rest, 256);
  rest.ReleaseAll();
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(QueueBackpressureTest, ParserAcceptsWatermarkAndCodelKwargs) {
  ConfigContext context;
  Router r;
  ConfigParseResult res = ParseClickConfig(
      "q :: Queue(64, HI 32, LO 8);\n"
      "c :: Queue(CAPACITY 128, AQM codel, TARGET_US 500, INTERVAL_US 10000);\n",
      &r, context);
  ASSERT_TRUE(res.ok) << res.error;
  auto* q = dynamic_cast<QueueElement*>(res.elements.at("q"));
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->capacity(), 64u);
  EXPECT_EQ(q->options().hi_watermark, 32u);
  EXPECT_EQ(q->options().lo_watermark, 8u);
  EXPECT_EQ(q->options().aqm, AqmMode::kTailDrop);
  auto* c = dynamic_cast<QueueElement*>(res.elements.at("c"));
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->capacity(), 128u);
  EXPECT_EQ(c->options().aqm, AqmMode::kCoDel);
  EXPECT_DOUBLE_EQ(c->options().codel_target_s, 500e-6);
  EXPECT_DOUBLE_EQ(c->options().codel_interval_s, 10e-3);
}

TEST(QueueBackpressureTest, ParserRejectsBadQueueKwargs) {
  ConfigContext context;
  const char* bad[] = {
      "q :: Queue(64, HI 128);",           // HI above capacity
      "q :: Queue(64, HI 32, LO 32);",     // LO not below HI
      "q :: Queue(64, LO 8);",             // LO without HI
      "q :: Queue(64, AQM red);",          // unknown AQM
      "q :: Queue(64, HI banana);",        // non-numeric value
      "q :: Queue(64, FOO 1);",            // unknown keyword
      "q :: Queue(HI 32, 64);",            // positional arg not first
  };
  for (const char* cfg : bad) {
    Router r;
    ConfigParseResult res = ParseClickConfig(cfg, &r, context);
    EXPECT_FALSE(res.ok) << "config should have been rejected: " << cfg;
    EXPECT_FALSE(res.error.empty());
  }
}

}  // namespace
}  // namespace rb
