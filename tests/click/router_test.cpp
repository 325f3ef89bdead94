#include "click/router.hpp"

#include <gtest/gtest.h>

#include "click/elements/from_device.hpp"
#include "click/elements/misc.hpp"
#include "click/elements/queue.hpp"
#include "click/elements/to_device.hpp"
#include "packet/pool.hpp"
#include "testing/dataflow.hpp"
#include "workload/synthetic.hpp"

namespace rb {
namespace {

FrameSpec Frame64() {
  FrameSpec spec;
  spec.size = 64;
  spec.flow.src_ip = 3;
  spec.flow.dst_ip = 4;
  spec.flow.protocol = 17;
  return spec;
}

TEST(RouterTest, ChainConnectsSequentially) {
  Router r;
  auto* a = r.Add<CounterElement>();
  auto* b = r.Add<CounterElement>();
  auto* d = r.Add<Discard>();
  r.Chain({a, b, d});
  r.Initialize();
  PacketPool pool(1);
  PushOne(a, pool.Alloc());
  EXPECT_EQ(b->counters().packets, 1u);
  EXPECT_EQ(d->count(), 1u);
  EXPECT_EQ(pool.available(), 1u);
}

TEST(RouterTest, EndToEndDeviceLoop) {
  // FromDevice(nic0) -> Counter -> Queue -> ToDevice(nic1): the canonical
  // minimal-forwarding path.
  PacketPool pool(64);
  NicConfig cfg;
  cfg.kn = 1;
  NicPort in(cfg);
  NicPort out(cfg);
  Router r;
  auto* from = r.Add<FromDevice>(&in, 0, 32);
  auto* counter = r.Add<CounterElement>();
  auto* queue = r.Add<QueueElement>(64);
  auto* to = r.Add<ToDevice>(&out, 0, 32);
  r.Chain({from, counter, queue, to});
  r.Initialize();
  EXPECT_EQ(r.tasks().size(), 2u);  // FromDevice poll + ToDevice drain

  for (int i = 0; i < 10; ++i) {
    in.Deliver(AllocFrame(Frame64(), &pool), 0.0);
  }
  size_t moved = r.RunUntilIdle();
  EXPECT_GE(moved, 20u);  // 10 polled + 10 drained
  EXPECT_EQ(counter->counters().packets, 10u);
  EXPECT_EQ(out.tx_counters().packets, 10u);
  Packet* burst[16];
  size_t n = out.DrainTx(burst, 16);
  EXPECT_EQ(n, 10u);
  for (size_t i = 0; i < n; ++i) {
    pool.Free(burst[i]);
  }
}

TEST(RouterTest, RunTasksOnceReturnsZeroWhenIdle) {
  Router r;
  NicConfig cfg;
  NicPort nic(cfg);
  auto* from = r.Add<FromDevice>(&nic, 0);
  auto* d = r.Add<Discard>();
  r.Connect(from, 0, d, 0);
  r.Initialize();
  EXPECT_EQ(r.RunTasksOnce(), 0u);
}

TEST(RouterDeathTest, DoubleInitializeAborts) {
  Router r;
  r.Initialize();
  EXPECT_DEATH(r.Initialize(), "twice");
}

TEST(RouterDeathTest, RunWithoutInitializeAborts) {
  Router r;
  EXPECT_DEATH(r.RunTasksOnce(), "not initialized");
}

TEST(RouterDeathTest, ConnectAfterInitializeAborts) {
  Router r;
  auto* a = r.Add<CounterElement>();
  auto* b = r.Add<Discard>();
  r.Initialize();
  EXPECT_DEATH(r.Connect(a, 0, b, 0), "");
}

}  // namespace
}  // namespace rb
