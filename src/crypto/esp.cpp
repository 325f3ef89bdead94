#include "crypto/esp.hpp"

#include <algorithm>
#include <cstring>

#include "common/log.hpp"

#include "packet/headers.hpp"

namespace rb {

EspTunnel::EspTunnel(const EspConfig& config) : config_(config), cbc_(config.key) {}

bool EspTunnel::Frame(Packet* p, CbcStream* stream) {
  if (p->length() < EthernetView::kSize + Ipv4View::kMinSize) {
    return false;
  }
  EthernetView eth{p->data()};
  if (eth.ether_type() != EthernetView::kTypeIpv4) {
    return false;
  }
  // Trailer: pad + pad-length byte + next-header byte.
  const uint32_t inner_len = p->length() - EthernetView::kSize;
  const uint32_t pad = static_cast<uint32_t>(CbcPadLength(inner_len, /*esp_trailer=*/true));
  const uint32_t trailer = pad + 2;
  if (p->tailroom() < trailer) {
    return false;
  }
  RB_CHECK_MSG(p->headroom() + EthernetView::kSize >= kOuterBytes, "no headroom left");

  // Park the Ethernet header at the tunnel frame's start (44 bytes ahead,
  // so no overlap) before the IV overwrites its old place.
  uint8_t* frame = p->data();
  memcpy(frame - (kOuterBytes - EthernetView::kSize), frame, EthernetView::kSize);
  p->Pull(EthernetView::kSize);

  uint8_t* tail = p->Put(trailer);
  for (uint32_t i = 0; i < pad; ++i) {
    tail[i] = static_cast<uint8_t>(i + 1);  // RFC 4303 monotonic padding
  }
  tail[pad] = static_cast<uint8_t>(pad);
  tail[pad + 1] = 4;  // next header: IPv4 (tunnel mode)

  // IV: counter-derived, unique per packet.
  uint8_t* iv = p->data() - kIvBytes;
  const uint64_t ctr = iv_counter_++;
  memset(iv, 0, 8);
  for (int i = 0; i < 8; ++i) {
    iv[8 + i] = static_cast<uint8_t>(ctr >> (56 - 8 * i));
  }
  *stream = CbcStream{p->data(), p->length(), iv};
  return true;
}

void EspTunnel::Seal(Packet* p) {
  p->Push(kIvBytes);  // written by Frame
  uint8_t* esp = p->Push(kEspHeaderBytes);
  StoreBe32(esp, config_.spi);
  StoreBe32(esp + 4, seq_++);
  uint8_t* outer = p->Push(Ipv4View::kMinSize);
  Ipv4View::WriteDefault(outer, config_.tunnel_src, config_.tunnel_dst, Ipv4View::kProtoEsp,
                         static_cast<uint16_t>(p->length()));
  p->Push(EthernetView::kSize);  // parked there by Frame
}

size_t EspTunnel::EncapsulateBatch(Packet* const* pkts, size_t n, bool* ok) {
  size_t encapsulated = 0;
  for (size_t first = 0; first < n; first += kChunk) {
    const size_t end = std::min(n, first + kChunk);
    CbcStream streams[kChunk];
    size_t framed = 0;
    for (size_t i = first; i < end; ++i) {
      ok[i] = Frame(pkts[i], &streams[framed]);
      framed += ok[i] ? 1 : 0;
    }
    cbc_.EncryptStreams(streams, framed);
    for (size_t i = first; i < end; ++i) {
      if (ok[i]) {
        Seal(pkts[i]);
      }
    }
    encapsulated += framed;
  }
  return encapsulated;
}

bool EspTunnel::Encapsulate(Packet* p) {
  bool ok = false;
  EncapsulateBatch(&p, 1, &ok);
  return ok;
}

bool EspTunnel::Decapsulate(Packet* p) {
  constexpr uint32_t kMinEsp = EthernetView::kSize + Ipv4View::kMinSize + kEspHeaderBytes +
                               kIvBytes + Aes128::kBlockSize;
  if (p->length() < kMinEsp) {
    return false;
  }
  uint8_t saved_eth[EthernetView::kSize];
  memcpy(saved_eth, p->data(), EthernetView::kSize);
  p->Pull(EthernetView::kSize);

  Ipv4View outer{p->data()};
  if (outer.version() != 4 || outer.protocol() != Ipv4View::kProtoEsp) {
    p->Push(EthernetView::kSize);
    return false;
  }
  p->Pull(outer.header_length());
  uint32_t spi = LoadBe32(p->data());
  if (spi != config_.spi) {
    return false;  // packet is consumed-as-failed; caller drops it
  }
  p->Pull(kEspHeaderBytes);
  uint8_t iv[kIvBytes];
  memcpy(iv, p->data(), kIvBytes);
  p->Pull(kIvBytes);

  if (p->length() % Aes128::kBlockSize != 0 || p->length() == 0) {
    return false;
  }
  cbc_.Decrypt(p->data(), p->length(), iv);

  // Strip the trailer.
  uint8_t next_header = p->data()[p->length() - 1];
  uint8_t pad_len = p->data()[p->length() - 2];
  if (next_header != 4 || pad_len + 2u > p->length()) {
    return false;
  }
  p->Trim(pad_len + 2u);

  uint8_t* eth2 = p->Push(EthernetView::kSize);
  memcpy(eth2, saved_eth, EthernetView::kSize);
  return true;
}

}  // namespace rb
