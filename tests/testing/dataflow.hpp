// Shared test glue for driving element graphs through the batch API.
#ifndef RB_TESTS_TESTING_DATAFLOW_HPP_
#define RB_TESTS_TESTING_DATAFLOW_HPP_

#include <cstdint>
#include <vector>

#include "click/element.hpp"
#include "packet/batch.hpp"

namespace rb {

// A sink that keeps every packet it receives, in arrival order, and the
// size of every batch it was handed. The test owns (and frees) the
// packets in `got`.
class CollectSink : public Element {
 public:
  CollectSink() : Element(1, 0) {}
  const char* class_name() const override { return "CollectSink"; }
  void PushBatch(int /*port*/, PacketBatch& batch) override {
    batch_sizes.push_back(batch.size());
    for (Packet* p : batch) {
      got.push_back(p);
    }
    batch.Clear();
  }
  std::vector<Packet*> got;
  std::vector<uint32_t> batch_sizes;
};

// Pushes `p` into input 0 of `e` as a one-packet batch.
inline void PushOne(Element* e, Packet* p) {
  PacketBatch batch;
  batch.PushBack(p);
  e->PushBatch(0, batch);
}

// Pulls one packet from output 0 of `e`; nullptr when it has none.
inline Packet* PullOne(Element* e) {
  PacketBatch batch;
  return e->PullBatch(0, &batch, 1) == 1 ? batch[0] : nullptr;
}

}  // namespace rb

#endif  // RB_TESTS_TESTING_DATAFLOW_HPP_
