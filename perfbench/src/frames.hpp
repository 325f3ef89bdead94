// Frame construction and header arithmetic written apart from the router
// library: the benchmark builds its own Ethernet/IPv4/UDP frames and
// verifies the router's output with its own checksum code, so a fault in
// the library's header helpers cannot hide itself.
#ifndef PERFBENCH_FRAMES_HPP_
#define PERFBENCH_FRAMES_HPP_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace perfbench {

// Byte offsets inside an untagged Ethernet II frame carrying IPv4 (IHL 5)
// and UDP.
inline constexpr uint32_t kEthBytes = 14;
inline constexpr uint32_t kIpOffset = kEthBytes;
inline constexpr uint32_t kUdpOffset = kIpOffset + 20;
// First payload byte: a big-endian 32-bit tag naming the injected frame.
inline constexpr uint32_t kTagOffset = kUdpOffset + 8;
inline constexpr uint32_t kMinFrameBytes = kTagOffset + 4;

inline uint16_t Be16(const uint8_t* p) { return static_cast<uint16_t>((p[0] << 8) | p[1]); }
inline uint32_t Be32(const uint8_t* p) {
  return (uint32_t{p[0]} << 24) | (uint32_t{p[1]} << 16) | (uint32_t{p[2]} << 8) | p[3];
}
inline void PutBe16(uint8_t* p, uint16_t v) {
  p[0] = static_cast<uint8_t>(v >> 8);
  p[1] = static_cast<uint8_t>(v);
}
inline void PutBe32(uint8_t* p, uint32_t v) {
  PutBe16(p, static_cast<uint16_t>(v >> 16));
  PutBe16(p + 2, static_cast<uint16_t>(v));
}

// RFC 1071 one's-complement sum over `len` bytes added to `sum`, unfolded.
uint32_t SumWords(const uint8_t* data, size_t len, uint32_t sum);
// Folds and complements a running sum into a header checksum value.
uint16_t FoldChecksum(uint32_t sum);

// The IPv4 header checksum of the header at `ip`, recomputed from scratch
// (the stored checksum field is treated as zero).
uint16_t Ipv4Checksum(const uint8_t* ip);
// The UDP checksum over the pseudo-header, UDP header and payload at `ip`,
// recomputed from scratch (stored field treated as zero; a computed 0 is
// sent as 0xffff, RFC 768).
uint16_t UdpChecksum(const uint8_t* ip);

// One frame's header fields.
struct FlowSpec {
  uint32_t src_ip = 0;
  uint32_t dst_ip = 0;
  uint16_t src_port = 0;
  uint16_t dst_port = 0;
};

// Writes a complete frame of `size` bytes (>= kMinFrameBytes) into `out`:
// Ethernet, IPv4 (TTL 64, valid checksum), UDP (valid checksum when
// `udp_checksum`, else 0), the tag, and a position-derived payload pattern.
void BuildFrame(const FlowSpec& flow, uint32_t size, uint32_t tag, bool udp_checksum,
                uint8_t* out);

inline uint32_t FrameTag(const uint8_t* frame) { return Be32(frame + kTagOffset); }

// Draws ranks 0..n-1 with probability proportional to 1 / (rank + 1)^s.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s);
  size_t Next(rb::Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

// A random unicast host address (first octet 1..223, never 127).
uint32_t RandomUnicast(rb::Rng* rng);

}  // namespace perfbench

#endif  // PERFBENCH_FRAMES_HPP_
