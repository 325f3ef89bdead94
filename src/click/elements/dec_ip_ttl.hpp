// DecIPTTL: decrements the IPv4 TTL, updating the header checksum
// incrementally (RFC 1624) — part of "full IP routing including checksum
// calculations, updating headers" (§5.1). Packets whose TTL would reach
// zero exit output 1 (ICMP-time-exceeded territory; we count and drop if
// unwired). Batch-native: the whole burst is rewritten in one call.
#ifndef RB_CLICK_ELEMENTS_DEC_IP_TTL_HPP_
#define RB_CLICK_ELEMENTS_DEC_IP_TTL_HPP_

#include "click/element.hpp"

namespace rb {

class DecIpTtl : public Element {
 public:
  DecIpTtl() : Element(1, 2) {}
  const char* class_name() const override { return "DecIPTTL"; }
  void PushBatch(int port, PacketBatch& batch) override;

  uint64_t expired() const { return expired_; }

 private:
  uint64_t expired_ = 0;
};

}  // namespace rb

#endif  // RB_CLICK_ELEMENTS_DEC_IP_TTL_HPP_
