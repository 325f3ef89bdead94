#include "click/elements/misc.hpp"

namespace rb {

void CounterElement::PushBatch(int /*port*/, PacketBatch& batch) {
  for (Packet* p : batch) {
    counters_.AddPacket(p->wire_bytes());
  }
  OutputBatch(0, batch);
}

size_t CounterElement::PullBatch(int /*port*/, PacketBatch* out, int max) {
  const uint32_t before = out->size();
  size_t moved = InputBatch(0, out, max);
  for (uint32_t i = before; i < out->size(); ++i) {
    counters_.AddPacket((*out)[i]->wire_bytes());
  }
  return moved;
}

void Discard::PushBatch(int /*port*/, PacketBatch& batch) {
  count_ += batch.size();
  batch.ReleaseAll();
}

void Tee::PushBatch(int /*port*/, PacketBatch& batch) {
  for (Packet* p : batch) {
    for (int out = 1; out < n_outputs(); ++out) {
      Packet* copy = p->origin_pool() != nullptr ? p->origin_pool()->Alloc() : nullptr;
      if (copy == nullptr) {
        continue;  // pool exhausted; counted in PacketPool::alloc_failures
      }
      copy->SetPayload(p->data(), p->length());
      copy->set_arrival_time(p->arrival_time());
      copy->set_input_port(p->input_port());
      copy->set_flow_hash(p->flow_hash());
      copy->set_vlb_phase(p->vlb_phase());
      copy->set_output_node(p->output_node());
      copy->set_flow_id(p->flow_id());
      copy->set_flow_seq(p->flow_seq());
      copy->set_paint(p->paint());
      lanes_[static_cast<size_t>(out)].PushBack(copy);
    }
  }
  for (int out = 1; out < n_outputs(); ++out) {
    OutputBatch(out, lanes_[static_cast<size_t>(out)]);
  }
  OutputBatch(0, batch);
}

void Paint::PushBatch(int /*port*/, PacketBatch& batch) {
  for (Packet* p : batch) {
    p->set_paint(color_);
  }
  OutputBatch(0, batch);
}

void PaintSwitch::PushBatch(int /*port*/, PacketBatch& batch) {
  const int last = n_outputs() - 1;
  for (Packet* p : batch) {
    int out = p->paint();
    if (out > last) {
      out = last;
    }
    lanes_[static_cast<size_t>(out)].PushBack(p);
  }
  batch.Clear();
  for (int out = 0; out < n_outputs(); ++out) {
    OutputBatch(out, lanes_[static_cast<size_t>(out)]);
  }
}

void SetFlowHash::PushBatch(int /*port*/, PacketBatch& batch) {
  for (Packet* p : batch) {
    FlowKey key;
    if (ExtractFlowKey(*p, &key)) {
      p->set_flow_hash(FlowHash32(key));
    }
  }
  OutputBatch(0, batch);
}

}  // namespace rb
