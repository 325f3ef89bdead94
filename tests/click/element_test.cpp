#include "click/element.hpp"

#include <gtest/gtest.h>

#include "click/elements/misc.hpp"
#include "click/router.hpp"
#include "packet/pool.hpp"
#include "testing/dataflow.hpp"

namespace rb {
namespace {

// A pull source feeding from a vector.
class VectorSource : public Element {
 public:
  VectorSource() : Element(0, 1) {}
  const char* class_name() const override { return "VectorSource"; }
  size_t PullBatch(int /*port*/, PacketBatch* out, int max) override {
    size_t moved = 0;
    while (moved < static_cast<size_t>(max) && !out->full() && !items.empty()) {
      out->PushBack(items.back());
      items.pop_back();
      moved++;
    }
    return moved;
  }
  std::vector<Packet*> items;
};

TEST(ElementTest, OutputReachesConnectedPeer) {
  Router r;
  auto* counter = r.Add<CounterElement>();
  auto* sink = r.Add<CollectSink>();
  r.Connect(counter, 0, sink, 0);
  r.Initialize();
  PacketPool pool(2);
  Packet* p = pool.Alloc();
  p->SetLength(64);
  PushOne(counter, p);
  ASSERT_EQ(sink->got.size(), 1u);
  EXPECT_EQ(sink->got[0], p);
  EXPECT_EQ(counter->counters().packets, 1u);
  pool.Free(p);
}

TEST(ElementTest, UnconnectedOutputDropsAndCounts) {
  Router r;
  auto* counter = r.Add<CounterElement>();
  r.Initialize();
  PacketPool pool(1);
  Packet* p = pool.Alloc();
  PushOne(counter, p);
  EXPECT_EQ(counter->drops(), 1u);
  EXPECT_EQ(pool.available(), 1u) << "dropped packet must return to pool";
}

TEST(ElementTest, PullFlowsThroughChain) {
  Router r;
  auto* src = r.Add<VectorSource>();
  auto* counter = r.Add<CounterElement>();
  r.Connect(src, 0, counter, 0);
  r.Initialize();
  PacketPool pool(2);
  Packet* p = pool.Alloc();
  p->SetLength(100);
  src->items.push_back(p);
  EXPECT_EQ(PullOne(counter), p);
  EXPECT_EQ(PullOne(counter), nullptr);
  EXPECT_EQ(counter->counters().packets, 1u);
  pool.Free(p);
}

TEST(ElementTest, NamesAreUniqueAndDescriptive) {
  Router r;
  auto* a = r.Add<CounterElement>();
  auto* b = r.Add<CounterElement>();
  EXPECT_NE(a->name(), b->name());
  EXPECT_NE(a->name().find("Counter"), std::string::npos);
}

TEST(ElementDeathTest, OutputDoubleWiringRejected) {
  Router r;
  auto* a = r.Add<CounterElement>();
  auto* b = r.Add<CounterElement>();
  auto* c = r.Add<CounterElement>();
  r.Connect(a, 0, b, 0);
  EXPECT_DEATH(r.Connect(a, 0, c, 0), "already wired");
}

TEST(ElementTest, PushInputsMayFanIn) {
  // Click semantics: several upstream elements may push into the same
  // input port.
  Router r;
  auto* a = r.Add<CounterElement>();
  auto* b = r.Add<CounterElement>();
  auto* sink = r.Add<CounterElement>();
  auto* d = r.Add<Discard>();
  r.Connect(a, 0, sink, 0);
  r.Connect(b, 0, sink, 0);
  r.Connect(sink, 0, d, 0);
  r.Initialize();
  PacketPool pool(2);
  PushOne(a, pool.Alloc());
  PushOne(b, pool.Alloc());
  EXPECT_EQ(sink->counters().packets, 2u);
  EXPECT_EQ(d->count(), 2u);
  EXPECT_EQ(pool.available(), 2u);
}

TEST(ElementDeathTest, PortRangeChecked) {
  Router r;
  auto* a = r.Add<CounterElement>();
  auto* b = r.Add<CounterElement>();
  EXPECT_DEATH(r.Connect(a, 1, b, 0), "out of range");
  EXPECT_DEATH(r.Connect(a, 0, b, 7), "out of range");
}

}  // namespace
}  // namespace rb
