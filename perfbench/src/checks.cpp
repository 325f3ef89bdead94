#include "checks.hpp"

#include <cmath>
#include <cstring>

#include "common/log.hpp"
#include "common/strings.hpp"
#include "crypto/aes128.hpp"

namespace perfbench {

Round::Round(size_t capacity) {
  bytes_.resize(capacity * kStride);
  frames_.reserve(capacity);
  claimed_.reserve(capacity);
}

void Round::Reset(uint32_t base_tag) {
  frames_.clear();
  claimed_.clear();
  claimed_count_ = 0;
  base_ = base_tag;
}

uint8_t* Round::Append(uint32_t len, int in_port, int expect_port, uint32_t flow,
                       uint32_t* tag) {
  const uint32_t offset = static_cast<uint32_t>(frames_.size()) * kStride;
  RB_CHECK(len <= kStride && offset + kStride <= bytes_.size());
  *tag = base_ + static_cast<uint32_t>(frames_.size());
  frames_.push_back({offset, len, in_port, expect_port, flow});
  claimed_.push_back(0);
  return bytes_.data() + offset;
}

const Injected* Round::Claim(uint32_t tag) {
  const uint32_t i = tag - base_;
  if (i >= frames_.size() || claimed_[i] != 0) {
    return nullptr;
  }
  claimed_[i] = 1;
  claimed_count_++;
  return &frames_[i];
}

namespace {

std::string PortError(const Injected& in, int out_port) {
  return rb::Format("frame from port %d left on port %d, expected port %d", in.in_port, out_port,
                    in.expect_port);
}

}  // namespace

std::string FwdCheck::Check(Round& round, const uint8_t* out, uint32_t len, int out_port) {
  if (len < kMinFrameBytes) {
    return rb::Format("runt output of %u bytes", len);
  }
  const Injected* in = round.Claim(FrameTag(out));
  if (in == nullptr) {
    return rb::Format("output tag %u is unknown or duplicated", FrameTag(out));
  }
  if (out_port != in->expect_port) {
    return PortError(*in, out_port);
  }
  if (len != in->len || memcmp(out, round.bytes(*in), len) != 0) {
    return rb::Format("frame tag %u changed in flight", FrameTag(out));
  }
  return "";
}

NatMapCheck::NatMapCheck(int nats)
    : port_of_flow_(static_cast<size_t>(nats)), flow_of_port_(static_cast<size_t>(nats)) {}

std::string NatMapCheck::Observe(int nat, uint32_t flow, uint16_t public_port) {
  auto& fwd = port_of_flow_[static_cast<size_t>(nat)];
  auto& rev = flow_of_port_[static_cast<size_t>(nat)];
  auto [f, f_new] = fwd.emplace(flow, public_port);
  if (!f_new && f->second != public_port) {
    return rb::Format("NAT %d maps flow %u to ports %u and %u", nat, flow, f->second,
                      public_port);
  }
  auto [r, r_new] = rev.emplace(public_port, flow);
  if (!r_new && r->second != flow) {
    return rb::Format("NAT %d gives port %u to flows %u and %u", nat, public_port, r->second,
                      flow);
  }
  return "";
}

size_t NatMapCheck::mappings() const {
  size_t n = 0;
  for (const auto& m : port_of_flow_) {
    n += m.size();
  }
  return n;
}

std::string RtrCheck::Check(Round& round, const uint8_t* out, uint32_t len, int out_port) {
  if (len < kMinFrameBytes) {
    return rb::Format("runt output of %u bytes", len);
  }
  const uint32_t tag = FrameTag(out);
  const Injected* in = round.Claim(tag);
  if (in == nullptr) {
    return rb::Format("output tag %u is unknown or duplicated", tag);
  }
  if (out_port != in->expect_port) {
    return PortError(*in, out_port);
  }
  const uint8_t* src = round.bytes(*in);
  if (len != in->len) {
    return rb::Format("tag %u: length %u, injected %u", tag, len, in->len);
  }
  const uint8_t* ip = out + kIpOffset;
  const uint8_t* ip_in = src + kIpOffset;
  if (memcmp(out, src, kEthBytes) != 0) {
    return rb::Format("tag %u: Ethernet header changed", tag);
  }
  if (ip[8] + 1 != ip_in[8]) {
    return rb::Format("tag %u: TTL %u, injected %u", tag, ip[8], ip_in[8]);
  }
  if (Be16(ip + 10) != Ipv4Checksum(ip)) {
    return rb::Format("tag %u: IPv4 checksum %04x, recomputed %04x", tag, Be16(ip + 10),
                      Ipv4Checksum(ip));
  }
  if (Be32(ip + 12) != external_ip_) {
    return rb::Format("tag %u: source %08x is not the NAT address %08x", tag, Be32(ip + 12),
                      external_ip_);
  }
  // Everything but TTL, checksum and source must be as injected.
  if (memcmp(ip, ip_in, 8) != 0 || ip[9] != ip_in[9] || memcmp(ip + 16, ip_in + 16, 4) != 0) {
    return rb::Format("tag %u: IPv4 header changed beyond TTL and source", tag);
  }
  const uint8_t* udp = out + kUdpOffset;
  const uint8_t* udp_in = src + kUdpOffset;
  if (memcmp(udp + 2, udp_in + 2, 4) != 0 ||
      memcmp(out + kTagOffset, src + kTagOffset, len - kTagOffset) != 0) {
    return rb::Format("tag %u: UDP header or payload changed beyond the source port", tag);
  }
  if (Be16(udp + 6) != 0 && Be16(udp + 6) != UdpChecksum(ip)) {
    return rb::Format("tag %u: UDP checksum %04x, recomputed %04x", tag, Be16(udp + 6),
                      UdpChecksum(ip));
  }
  return nat_map_.Observe(in->in_port, in->flow, Be16(udp));
}

EspCheck::EspCheck(const rb::EspConfig& config, int ports)
    : tunnel_(config), scratch_(1), next_seq_(static_cast<size_t>(ports), 1) {}

std::string EspCheck::Check(Round& round, const uint8_t* out, uint32_t len, int out_port) {
  constexpr uint32_t kSeqOffset = kEthBytes + 20 + 4;  // outer IPv4 header, then SPI
  if (len < kSeqOffset + 4 || len > rb::Packet::kMaxCapacity - rb::Packet::kDefaultHeadroom) {
    return rb::Format("ESP output of %u bytes", len);
  }
  uint32_t& want = next_seq_[static_cast<size_t>(out_port)];
  const uint32_t seq = Be32(out + kSeqOffset);
  if (seq != want) {
    return rb::Format("port %d: ESP sequence %u, expected %u", out_port, seq, want);
  }
  want++;
  rb::Packet* p = scratch_.Alloc();
  p->SetPayload(out, len);
  std::string err;
  if (!tunnel_.Decapsulate(p) || p->length() < kMinFrameBytes) {
    err = rb::Format("port %d: sequence %u does not decapsulate", out_port, seq);
  } else {
    const Injected* in = round.Claim(FrameTag(p->data()));
    if (in == nullptr) {
      err = rb::Format("decapsulated tag %u is unknown or duplicated", FrameTag(p->data()));
    } else if (out_port != in->expect_port) {
      err = PortError(*in, out_port);
    } else if (p->length() != in->len || memcmp(p->data(), round.bytes(*in), in->len) != 0) {
      err = rb::Format("tag %u decapsulates to other bytes than were injected",
                       FrameTag(round.bytes(*in)));
    }
  }
  scratch_.Free(p);
  return err;
}

ReferenceLpm::ReferenceLpm(const std::vector<rb::RouteEntry>& routes) : by_length_(33) {
  for (const rb::RouteEntry& r : routes) {
    const uint32_t mask = r.length == 0 ? 0 : ~uint32_t{0} << (32 - r.length);
    by_length_[r.length][r.prefix & mask] = r.next_hop;
  }
}

uint32_t ReferenceLpm::Lookup(uint32_t addr) const {
  for (int len = 32; len >= 0; --len) {
    const uint32_t mask = len == 0 ? 0 : ~uint32_t{0} << (32 - len);
    const auto& m = by_length_[static_cast<size_t>(len)];
    auto it = m.find(addr & mask);
    if (it != m.end()) {
      return it->second;
    }
  }
  return 0;
}

std::string CheckAesVector() {
  uint8_t key[16];
  uint8_t plain[16];
  for (int i = 0; i < 16; ++i) {
    key[i] = static_cast<uint8_t>(i);
    plain[i] = static_cast<uint8_t>(i * 0x11);
  }
  static const uint8_t kCipher[16] = {0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30,
                                      0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4, 0xc5, 0x5a};
  rb::Aes128 aes(key);
  uint8_t got[16];
  aes.EncryptBlock(plain, got);
  if (memcmp(got, kCipher, 16) != 0) {
    return "Aes128 does not match the FIPS-197 C.1 ciphertext";
  }
  uint8_t back[16];
  aes.DecryptBlock(got, back);
  if (memcmp(back, plain, 16) != 0) {
    return "Aes128 does not decrypt the FIPS-197 C.1 ciphertext";
  }
  return "";
}

double ZeroLoadLatencySeconds(const rb::ClusterConfig& c, uint32_t bytes) {
  const double bits = 8.0 * bytes;
  const double nic = c.model_nics ? bits / c.per_nic_bps : 0.0;
  double ingress = c.ingress_cycles.At(bytes);
  if (c.vlb.flowlets) {
    ingress += c.reorder_avoidance_cycles;
  }
  // ext rx NIC -> ingress CPU -> tx NIC -> link -> rx NIC -> egress CPU -> ext out,
  // with the fixed per-node latency after each CPU stage.
  return nic + ingress / c.node_cycles_per_sec + c.node_fixed_latency + nic +
         bits / c.internal_link_bps + c.link_propagation + nic +
         c.transit_cycles.At(bytes) / c.node_cycles_per_sec + c.node_fixed_latency +
         bits / c.ext_rate_bps;
}

std::string CheckDesRun(const rb::ClusterRunStats& stats, double zero_load_s, double tolerance) {
  const std::string audit = rb::AuditConservation(stats);
  if (!audit.empty()) {
    return "DES audit: " + audit;
  }
  if (stats.drops.total() != 0 || stats.delivered_packets != stats.offered_packets) {
    return rb::Format("DES lost packets: offered %llu, delivered %llu, dropped %llu",
                      static_cast<unsigned long long>(stats.offered_packets),
                      static_cast<unsigned long long>(stats.delivered_packets),
                      static_cast<unsigned long long>(stats.drops.total()));
  }
  const double median = stats.latency.Percentile(50);
  if (std::fabs(median - zero_load_s) > tolerance * zero_load_s) {
    return rb::Format("DES median latency %.3f us is not within %.0f%% of the zero-load %.3f us",
                      median * 1e6, tolerance * 100, zero_load_s * 1e6);
  }
  return "";
}

}  // namespace perfbench
