// ESP-style IPsec tunnel encapsulation (RFC 4303 framing, AES-128-CBC).
//
// The paper's third application encrypts every packet "as is typical in
// VPNs" (§5.1). We implement tunnel-mode ESP: the original IP packet is
// wrapped in [new IP hdr][ESP hdr: SPI, seq][IV][ciphertext][pad, padlen,
// next-hdr]. Authentication (ICV) is not modeled — the paper benchmarks
// encryption only.
//
// Encapsulation runs in three steps over a batch: per-packet framing
// (Ethernet moved out of the way, ESP trailer, IV), one CBC encrypt of all
// framed packets together (AesCbc::EncryptStreams, so the AES-NI kernel
// keeps several packets in flight), then the header pushes. One packet is a
// batch of one.
#ifndef RB_CRYPTO_ESP_HPP_
#define RB_CRYPTO_ESP_HPP_

#include <cstddef>
#include <cstdint>

#include "crypto/cbc.hpp"
#include "packet/headers.hpp"
#include "packet/packet.hpp"

namespace rb {

struct EspConfig {
  uint8_t key[Aes128::kKeySize] = {0};
  uint32_t spi = 0x52420001;
  uint32_t tunnel_src = 0x0a000001;  // 10.0.0.1
  uint32_t tunnel_dst = 0x0a000002;  // 10.0.0.2
};

class EspTunnel {
 public:
  explicit EspTunnel(const EspConfig& config);

  // Encapsulates the Ethernet+IPv4 frame in place: strips Ethernet,
  // encrypts the IP packet into an ESP tunnel packet, re-adds Ethernet.
  // Returns false if the packet is not IPv4 or lacks tail room; RB_CHECKs
  // head room. A batch of one.
  bool Encapsulate(Packet* p);

  // Encapsulates pkts[0..n) exactly as n Encapsulate calls in order would:
  // the same bytes, sequence numbers and IVs, assigned in batch order, and
  // a packet that fails consumes neither. ok[i] tells whether pkts[i] was
  // encapsulated; returns how many were.
  size_t EncapsulateBatch(Packet* const* pkts, size_t n, bool* ok);

  // Reverses Encapsulate. Returns false on malformed input (wrong SPI,
  // bad padding, truncated frame).
  bool Decapsulate(Packet* p);

  uint32_t next_seq() const { return seq_; }

  static constexpr uint32_t kEspHeaderBytes = 8;   // SPI + sequence
  static constexpr uint32_t kIvBytes = Aes128::kBlockSize;

 private:
  // Tunnel-frame bytes in front of the encrypted IP packet: Ethernet,
  // outer IPv4, ESP header, IV.
  static constexpr uint32_t kOuterBytes =
      EthernetView::kSize + Ipv4View::kMinSize + kEspHeaderBytes + kIvBytes;
  // Packets framed per EncryptStreams call.
  static constexpr size_t kChunk = 64;

  // Step 1: checks the frame, copies its Ethernet header to where the
  // tunnel frame will start, strips it, appends the ESP trailer, writes the
  // IV just in front of the IP packet and describes the plaintext in
  // `stream`. False, touching nothing, if the frame cannot be encapsulated.
  bool Frame(Packet* p, CbcStream* stream);
  // Step 3, after the encrypt: pushes the IV, the ESP header (taking the
  // next sequence number), the outer IPv4 header and the Ethernet header.
  void Seal(Packet* p);

  EspConfig config_;
  AesCbc cbc_;
  uint32_t seq_ = 1;
  uint64_t iv_counter_ = 0x5242000000000000ULL;
};

}  // namespace rb

#endif  // RB_CRYPTO_ESP_HPP_
