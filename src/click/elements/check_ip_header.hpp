// CheckIPHeader: validates the IPv4 header of an Ethernet frame — version,
// IHL, total length vs frame length, and the header checksum. Valid
// packets exit output 0; invalid ones exit output 1 if wired, else are
// dropped and counted. Batch-native: one PushBatch validates the whole
// burst and emits it as (up to) two batches.
#ifndef RB_CLICK_ELEMENTS_CHECK_IP_HEADER_HPP_
#define RB_CLICK_ELEMENTS_CHECK_IP_HEADER_HPP_

#include "click/element.hpp"

namespace rb {

class CheckIpHeader : public Element {
 public:
  CheckIpHeader() : Element(1, 2) {}
  const char* class_name() const override { return "CheckIPHeader"; }
  void PushBatch(int port, PacketBatch& batch) override;
  bool CompileMatch(program::MatchProgram* out) const override;

  uint64_t bad() const { return bad_; }

 private:
  uint64_t bad_ = 0;
};

}  // namespace rb

#endif  // RB_CLICK_ELEMENTS_CHECK_IP_HEADER_HPP_
