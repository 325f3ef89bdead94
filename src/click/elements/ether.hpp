// Ethernet framing elements: EtherEncap prepends a header, StripEther
// removes one, EtherRewrite swaps addresses in place (what a forwarding
// hop actually does), and VlbEncap writes the cluster-internal destination
// MAC that encodes the output node (§6.1). All batch-native: one virtual
// call rewrites the whole burst.
#ifndef RB_CLICK_ELEMENTS_ETHER_HPP_
#define RB_CLICK_ELEMENTS_ETHER_HPP_

#include "click/element.hpp"
#include "packet/headers.hpp"

namespace rb {

class EtherEncap : public Element {
 public:
  EtherEncap(const MacAddress& src, const MacAddress& dst, uint16_t ether_type);
  const char* class_name() const override { return "EtherEncap"; }
  void PushBatch(int port, PacketBatch& batch) override;

 private:
  MacAddress src_;
  MacAddress dst_;
  uint16_t ether_type_;
};

class StripEther : public Element {
 public:
  StripEther() : Element(1, 1) {}
  const char* class_name() const override { return "StripEther"; }
  void PushBatch(int port, PacketBatch& batch) override;
};

class EtherRewrite : public Element {
 public:
  EtherRewrite(const MacAddress& src, const MacAddress& dst);
  const char* class_name() const override { return "EtherRewrite"; }
  void PushBatch(int port, PacketBatch& batch) override;

 private:
  MacAddress src_;
  MacAddress dst_;
};

// Writes dst MAC = MacForNode(p->output_node()) and stamps the VLB phase.
// The input node runs this once after routing; downstream cluster nodes
// then steer by MAC without touching IP headers.
class VlbEncap : public Element {
 public:
  explicit VlbEncap(const MacAddress& src);
  const char* class_name() const override { return "VlbEncap"; }
  void PushBatch(int port, PacketBatch& batch) override;

 private:
  MacAddress src_;
};

}  // namespace rb

#endif  // RB_CLICK_ELEMENTS_ETHER_HPP_
