#include "click/elements/ether.hpp"

namespace rb {

EtherEncap::EtherEncap(const MacAddress& src, const MacAddress& dst, uint16_t ether_type)
    : Element(1, 1), src_(src), dst_(dst), ether_type_(ether_type) {}

void EtherEncap::PushBatch(int /*port*/, PacketBatch& batch) {
  for (Packet* p : batch) {
    EthernetView eth{p->Push(EthernetView::kSize)};
    eth.set_dst(dst_);
    eth.set_src(src_);
    eth.set_ether_type(ether_type_);
  }
  OutputBatch(0, batch);
}

void StripEther::PushBatch(int /*port*/, PacketBatch& batch) {
  PacketBatch ok;
  PacketBatch runts;
  for (Packet* p : batch) {
    if (p->length() < EthernetView::kSize) {
      runts.PushBack(p);
      continue;
    }
    p->Pull(EthernetView::kSize);
    ok.PushBack(p);
  }
  batch.Clear();
  DropBatch(runts);
  OutputBatch(0, ok);
}

EtherRewrite::EtherRewrite(const MacAddress& src, const MacAddress& dst)
    : Element(1, 1), src_(src), dst_(dst) {}

void EtherRewrite::PushBatch(int /*port*/, PacketBatch& batch) {
  PacketBatch ok;
  PacketBatch runts;
  for (Packet* p : batch) {
    if (p->length() < EthernetView::kSize) {
      runts.PushBack(p);
      continue;
    }
    EthernetView eth{p->data()};
    eth.set_src(src_);
    eth.set_dst(dst_);
    ok.PushBack(p);
  }
  batch.Clear();
  DropBatch(runts);
  OutputBatch(0, ok);
}

VlbEncap::VlbEncap(const MacAddress& src) : Element(1, 1), src_(src) {}

void VlbEncap::PushBatch(int /*port*/, PacketBatch& batch) {
  PacketBatch ok;
  PacketBatch bad;
  for (Packet* p : batch) {
    if (p->length() < EthernetView::kSize || p->output_node() == Packet::kNoNode) {
      bad.PushBack(p);
      continue;
    }
    EthernetView eth{p->data()};
    eth.set_src(src_);
    eth.set_dst(MacForNode(p->output_node()));
    ok.PushBack(p);
  }
  batch.Clear();
  DropBatch(bad);
  OutputBatch(0, ok);
}

}  // namespace rb
