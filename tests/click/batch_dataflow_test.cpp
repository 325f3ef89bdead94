// End-to-end tests of the batch dataflow: the Queue partial-fit drop
// accounting, FromDevice graph-batch chunking (graph_batch = 1 being the
// per-packet reproduction), the batch-size histogram, and the two-core
// batched Queue handoff under real threads.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "click/elements/from_device.hpp"
#include "click/elements/misc.hpp"
#include "click/elements/queue.hpp"
#include "click/router.hpp"
#include "packet/pool.hpp"
#include "testing/dataflow.hpp"
#include "workload/synthetic.hpp"

namespace rb {
namespace {

// A pass-through (stand-in for any element that forwards its input).
class BatchRelay : public Element {
 public:
  BatchRelay() : Element(1, 1) {}
  const char* class_name() const override { return "BatchRelay"; }
  void PushBatch(int /*port*/, PacketBatch& batch) override { OutputBatch(0, batch); }
};

TEST(BatchDataflowTest, QueuePartialFitCountsOnlyOverflowAsDrops) {
  // The satellite drop-accounting fix: a burst that straddles capacity
  // enqueues its prefix; only the packets that did not fit are counted as
  // drops and released — exactly once each.
  Router r;
  auto* queue = r.Add<QueueElement>(8);
  r.Initialize();
  const size_t cap = queue->capacity();

  PacketPool pool(1024);
  const size_t total = cap + 5;
  PacketBatch batch;
  for (size_t i = 0; i < total; ++i) {
    batch.PushBack(pool.Alloc());
  }
  queue->PushBatch(0, batch);
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(queue->size(), cap) << "prefix must be enqueued, not dropped wholesale";
  EXPECT_EQ(queue->drops(), total - cap);
  // The 5 overflow packets went back to the pool exactly once; the
  // enqueued ones are still out.
  EXPECT_EQ(pool.available(), 1024u - cap);

  // Drain and verify FIFO order survived the partial enqueue.
  PacketBatch out;
  EXPECT_EQ(queue->PullBatch(0, &out, static_cast<int>(cap)), cap);
  EXPECT_EQ(out.size(), cap);
  out.ReleaseAll();
  EXPECT_EQ(pool.available(), 1024u);
}

// Polls 20 queued frames through one FromDevice RunOnce and returns the
// size of every batch that left its output.
std::vector<uint32_t> PollBurstChunks(int graph_batch) {
  PacketPool pool(64);
  NicConfig cfg;
  cfg.kn = 1;
  NicPort nic(cfg);
  Router r;
  auto* from = r.Add<FromDevice>(&nic, 0, 32, -1, graph_batch);
  auto* sink = r.Add<CollectSink>();
  r.Connect(from, 0, sink, 0);
  r.Initialize();

  SyntheticConfig syn_cfg;
  syn_cfg.packet_size = 64;
  SyntheticGenerator gen(syn_cfg);
  for (int i = 0; i < 20; ++i) {
    nic.Deliver(AllocFrame(gen.Next(), &pool), 0.0);
  }
  nic.FlushAllStaged();
  from->RunOnce();
  EXPECT_EQ(sink->got.size(), 20u);
  for (Packet* p : sink->got) {
    pool.Free(p);
  }
  return sink->batch_sizes;
}

TEST(BatchDataflowTest, FromDeviceSplitsPollBurstAtGraphBatch) {
  // 20 polled packets leave as ceil(20/8) = 3 chunks: 8, 8, 4.
  EXPECT_EQ(PollBurstChunks(/*graph_batch=*/8), (std::vector<uint32_t>{8, 8, 4}));
  // graph_batch = 1 is how per-packet dataflow is reproduced: the same
  // burst leaves as 20 one-packet batches.
  EXPECT_EQ(PollBurstChunks(/*graph_batch=*/1), std::vector<uint32_t>(20, 1));
}

TEST(BatchDataflowTest, BatchSizeHistogramObservesBursts) {
  telemetry::MetricRegistry registry;
  Router r;
  auto* relay = r.Add<BatchRelay>();
  auto* sink = r.Add<CollectSink>();
  r.Connect(relay, 0, sink, 0);
  r.BindTelemetry(&registry, nullptr);
  r.Initialize();

  PacketPool pool(32);
  PacketBatch batch;
  std::vector<Packet*> sent;
  for (int i = 0; i < 7; ++i) {
    sent.push_back(pool.Alloc());
    batch.PushBack(sent.back());
  }
  relay->PushBatch(0, batch);
  EXPECT_TRUE(batch.empty()) << "callee must leave the pushed batch empty";
  EXPECT_EQ(sink->got, sent) << "a relayed burst keeps its order";

  auto snap = registry
                  .GetHistogram("elem/" + sink->name() + "/batch_size",
                                telemetry::HistogramOptions{})
                  ->Snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_DOUBLE_EQ(snap.max, 7.0);
  for (Packet* p : sink->got) {
    pool.Free(p);
  }
}

TEST(BatchDataflowTest, ConcurrentTwoCoreQueueBatchHandoff) {
  // TSan coverage for the batch paths across the SPSC boundary: one thread
  // pushes bursts into the Queue while another pulls bursts out —
  // the one-pusher/one-puller discipline every Queue runs under.
  Router r;
  auto* queue = r.Add<QueueElement>(256);
  r.Initialize();

  constexpr int kPackets = 4000;
  PacketPool pool(8192);
  std::atomic<bool> done{false};
  std::atomic<int> consumed{0};

  std::thread producer([&] {
    int sent = 0;
    while (sent < kPackets) {
      PacketBatch batch;
      int n = std::min(32, kPackets - sent);
      for (int i = 0; i < n; ++i) {
        Packet* p = pool.Alloc();
        if (p == nullptr) {
          break;
        }
        p->SetLength(64);
        batch.PushBack(p);
      }
      sent += static_cast<int>(batch.size());
      if (batch.empty()) {
        std::this_thread::yield();
        continue;
      }
      queue->PushBatch(0, batch);  // overflow drops release to the pool
    }
    done.store(true, std::memory_order_release);
  });

  // PacketPool is single-threaded by design (per-core pools in deployment),
  // so the consumer parks what it pulls and the main thread releases after
  // both sides join; the pool is big enough that the producer never needs a
  // recycled packet. Overflow drops still release on the producer thread.
  std::vector<Packet*> held;
  held.reserve(kPackets);
  std::thread consumer([&] {
    PacketBatch batch;
    while (true) {
      size_t n = queue->PullBatch(0, &batch, 16);
      if (n == 0) {
        if (done.load(std::memory_order_acquire) && queue->size() == 0) {
          break;
        }
        std::this_thread::yield();
        continue;
      }
      consumed.fetch_add(static_cast<int>(n), std::memory_order_relaxed);
      for (Packet* p : batch) {
        held.push_back(p);
      }
      batch.Clear();
    }
  });

  producer.join();
  consumer.join();
  for (Packet* p : held) {
    PacketPool::Release(p);
  }
  EXPECT_EQ(static_cast<uint64_t>(consumed.load()) + queue->drops(),
            static_cast<uint64_t>(kPackets));
  EXPECT_EQ(pool.available(), 8192u) << "every packet released exactly once";
}

}  // namespace
}  // namespace rb
