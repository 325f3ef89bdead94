#include "frames.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace perfbench {

uint32_t SumWords(const uint8_t* data, size_t len, uint32_t sum) {
  size_t i = 0;
  for (; i + 1 < len; i += 2) {
    sum += Be16(data + i);
  }
  if (i < len) {
    sum += static_cast<uint32_t>(data[i]) << 8;
  }
  return sum;
}

uint16_t FoldChecksum(uint32_t sum) {
  while (sum >> 16) {
    sum = (sum & 0xffff) + (sum >> 16);
  }
  return static_cast<uint16_t>(~sum);
}

uint16_t Ipv4Checksum(const uint8_t* ip) {
  const size_t header = static_cast<size_t>(ip[0] & 0x0f) * 4;
  uint32_t sum = SumWords(ip, 10, 0);
  sum = SumWords(ip + 12, header - 12, sum);
  return FoldChecksum(sum);
}

uint16_t UdpChecksum(const uint8_t* ip) {
  const size_t header = static_cast<size_t>(ip[0] & 0x0f) * 4;
  const uint8_t* udp = ip + header;
  const uint16_t udp_len = Be16(udp + 4);
  uint32_t sum = SumWords(ip + 12, 8, 0);  // source and destination address
  sum += ip[9];                            // protocol
  sum += udp_len;
  sum = SumWords(udp, 6, sum);  // ports and length; the checksum field is skipped
  sum = SumWords(udp + 8, udp_len - 8u, sum);
  const uint16_t c = FoldChecksum(sum);
  return c == 0 ? 0xffff : c;
}

void BuildFrame(const FlowSpec& flow, uint32_t size, uint32_t tag, bool udp_checksum,
                uint8_t* out) {
  static const uint8_t kDstMac[6] = {0x02, 0x00, 0x00, 0x00, 0x00, 0x01};
  static const uint8_t kSrcMac[6] = {0x02, 0x00, 0x00, 0x00, 0x00, 0x02};
  memcpy(out, kDstMac, 6);
  memcpy(out + 6, kSrcMac, 6);
  PutBe16(out + 12, 0x0800);

  uint8_t* ip = out + kIpOffset;
  ip[0] = 0x45;
  ip[1] = 0;
  PutBe16(ip + 2, static_cast<uint16_t>(size - kEthBytes));
  PutBe16(ip + 4, static_cast<uint16_t>(tag));  // identification
  PutBe16(ip + 6, 0);
  ip[8] = 64;  // TTL
  ip[9] = 17;  // UDP
  PutBe16(ip + 10, 0);
  PutBe32(ip + 12, flow.src_ip);
  PutBe32(ip + 16, flow.dst_ip);
  PutBe16(ip + 10, Ipv4Checksum(ip));

  uint8_t* udp = out + kUdpOffset;
  PutBe16(udp, flow.src_port);
  PutBe16(udp + 2, flow.dst_port);
  PutBe16(udp + 4, static_cast<uint16_t>(size - kUdpOffset));
  PutBe16(udp + 6, 0);
  PutBe32(out + kTagOffset, tag);
  for (uint32_t i = kMinFrameBytes; i < size; ++i) {
    out[i] = static_cast<uint8_t>(i * 7 + 3);
  }
  if (udp_checksum) {
    PutBe16(udp + 6, UdpChecksum(ip));
  }
}

ZipfSampler::ZipfSampler(size_t n, double s) {
  cdf_.resize(n);
  double total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = total;
  }
  for (double& c : cdf_) {
    c /= total;
  }
}

size_t ZipfSampler::Next(rb::Rng* rng) const {
  const double u = rng->NextDouble();
  const size_t i = static_cast<size_t>(std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return std::min(i, cdf_.size() - 1);
}

uint32_t RandomUnicast(rb::Rng* rng) {
  while (true) {
    const uint32_t a = static_cast<uint32_t>(rng->Next());
    const uint32_t first = a >> 24;
    if (first >= 1 && first <= 223 && first != 127) {
      return a;
    }
  }
}

}  // namespace perfbench
