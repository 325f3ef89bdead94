#include "crypto/esp.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "packet/headers.hpp"
#include "packet/pool.hpp"
#include "workload/synthetic.hpp"

namespace rb {
namespace {

EspConfig TestConfig() {
  EspConfig cfg;
  for (int i = 0; i < 16; ++i) {
    cfg.key[i] = static_cast<uint8_t>(i * 7 + 1);
  }
  return cfg;
}

Packet* UdpFrame(PacketPool* pool, uint32_t size) {
  FrameSpec spec;
  spec.size = size;
  spec.flow.src_ip = 0xc0a80001;
  spec.flow.dst_ip = 0xc0a80002;
  spec.flow.src_port = 1234;
  spec.flow.dst_port = 5678;
  spec.flow.protocol = 17;
  return AllocFrame(spec, pool);
}

TEST(EspTest, EncapsulateProducesEspFrame) {
  PacketPool pool(4);
  EspTunnel tunnel(TestConfig());
  Packet* p = UdpFrame(&pool, 64);
  uint32_t orig_len = p->length();
  ASSERT_TRUE(tunnel.Encapsulate(p));
  EXPECT_GT(p->length(), orig_len);
  EthernetView eth{p->data()};
  EXPECT_EQ(eth.ether_type(), EthernetView::kTypeIpv4);
  Ipv4View outer{p->data() + EthernetView::kSize};
  EXPECT_EQ(outer.protocol(), Ipv4View::kProtoEsp);
  EXPECT_TRUE(outer.ChecksumOk());
  EXPECT_EQ(outer.src(), TestConfig().tunnel_src);
  EXPECT_EQ(outer.dst(), TestConfig().tunnel_dst);
  // SPI is in the clear right after the outer header.
  EXPECT_EQ(LoadBe32(p->data() + EthernetView::kSize + Ipv4View::kMinSize), TestConfig().spi);
  pool.Free(p);
}

TEST(EspTest, RoundTripRestoresExactBytes) {
  PacketPool pool(4);
  EspTunnel enc(TestConfig());
  EspTunnel dec(TestConfig());
  for (uint32_t size : {64u, 65u, 100u, 576u, 1400u}) {
    Packet* p = UdpFrame(&pool, size);
    std::vector<uint8_t> original(p->data(), p->data() + p->length());
    ASSERT_TRUE(enc.Encapsulate(p)) << size;
    ASSERT_TRUE(dec.Decapsulate(p)) << size;
    ASSERT_EQ(p->length(), original.size()) << size;
    EXPECT_EQ(memcmp(p->data(), original.data(), original.size()), 0) << size;
    pool.Free(p);
  }
}

TEST(EspTest, PayloadIsActuallyEncrypted) {
  PacketPool pool(2);
  EspTunnel tunnel(TestConfig());
  Packet* p = UdpFrame(&pool, 128);
  // Stamp a recognizable payload.
  memset(p->data() + 42, 0x5a, 64);
  ASSERT_TRUE(tunnel.Encapsulate(p));
  // The 0x5a run must not appear anywhere in the encrypted frame body.
  int run = 0;
  int longest = 0;
  for (uint32_t i = EthernetView::kSize; i < p->length(); ++i) {
    run = p->data()[i] == 0x5a ? run + 1 : 0;
    longest = std::max(longest, run);
  }
  EXPECT_LT(longest, 8);
  pool.Free(p);
}

TEST(EspTest, SequenceNumbersIncrease) {
  PacketPool pool(4);
  EspTunnel tunnel(TestConfig());
  Packet* a = UdpFrame(&pool, 64);
  Packet* b = UdpFrame(&pool, 64);
  ASSERT_TRUE(tunnel.Encapsulate(a));
  ASSERT_TRUE(tunnel.Encapsulate(b));
  uint32_t seq_a = LoadBe32(a->data() + EthernetView::kSize + Ipv4View::kMinSize + 4);
  uint32_t seq_b = LoadBe32(b->data() + EthernetView::kSize + Ipv4View::kMinSize + 4);
  EXPECT_EQ(seq_b, seq_a + 1);
  pool.Free(a);
  pool.Free(b);
}

TEST(EspTest, UniqueIvPerPacket) {
  PacketPool pool(4);
  EspTunnel tunnel(TestConfig());
  Packet* a = UdpFrame(&pool, 64);
  Packet* b = UdpFrame(&pool, 64);
  ASSERT_TRUE(tunnel.Encapsulate(a));
  ASSERT_TRUE(tunnel.Encapsulate(b));
  const uint8_t* iv_a = a->data() + EthernetView::kSize + Ipv4View::kMinSize + 8;
  const uint8_t* iv_b = b->data() + EthernetView::kSize + Ipv4View::kMinSize + 8;
  EXPECT_NE(memcmp(iv_a, iv_b, 16), 0);
  // Same plaintext, different IV -> different ciphertext.
  const uint8_t* ct_a = iv_a + 16;
  const uint8_t* ct_b = iv_b + 16;
  EXPECT_NE(memcmp(ct_a, ct_b, 16), 0);
  pool.Free(a);
  pool.Free(b);
}

TEST(EspTest, WrongSpiRejectedOnDecap) {
  PacketPool pool(2);
  EspTunnel enc(TestConfig());
  EspConfig other = TestConfig();
  other.spi = 0x12345678;
  EspTunnel dec(other);
  Packet* p = UdpFrame(&pool, 64);
  ASSERT_TRUE(enc.Encapsulate(p));
  EXPECT_FALSE(dec.Decapsulate(p));
  pool.Free(p);
}

TEST(EspTest, NonIpv4Rejected) {
  PacketPool pool(2);
  EspTunnel tunnel(TestConfig());
  Packet* p = UdpFrame(&pool, 64);
  EthernetView eth{p->data()};
  eth.set_ether_type(EthernetView::kTypeArp);
  EXPECT_FALSE(tunnel.Encapsulate(p));
  EXPECT_EQ(p->length(), 64u) << "failed encap must leave the frame intact";
  pool.Free(p);
}

TEST(EspTest, TruncatedFrameRejectedOnDecap) {
  PacketPool pool(2);
  EspTunnel tunnel(TestConfig());
  Packet* p = UdpFrame(&pool, 64);
  EXPECT_FALSE(tunnel.Decapsulate(p));  // plain UDP, not ESP
  pool.Free(p);
}

TEST(EspTest, WrongKeyCorruptsPlaintextButParsesFraming) {
  PacketPool pool(2);
  EspTunnel enc(TestConfig());
  EspConfig other = TestConfig();
  other.key[0] ^= 0xff;
  EspTunnel dec(other);
  Packet* p = UdpFrame(&pool, 64);
  std::vector<uint8_t> original(p->data(), p->data() + p->length());
  ASSERT_TRUE(enc.Encapsulate(p));
  // Decap with the wrong key: the trailer check almost certainly fails
  // (garbage next-header byte); if it passes by chance, bytes must differ.
  bool ok = dec.Decapsulate(p);
  if (ok) {
    EXPECT_NE(memcmp(p->data(), original.data(), original.size()), 0);
  }
  pool.Free(p);
}

// Frames for the batch-vs-one-by-one test: random IPv4 frames of 34 to
// 1518 bytes, interleaved with frames that must fail — a non-IPv4
// ethertype, shorter than Ethernet + IPv4, or too long for the ESP trailer
// to fit in the tailroom — and long frames near that tailroom edge.
std::vector<std::vector<uint8_t>> MixedFrames(Rng& rng, size_t n, size_t* must_fail) {
  constexpr uint32_t kMaxFrame = Packet::kMaxCapacity - Packet::kDefaultHeadroom;
  std::vector<std::vector<uint8_t>> frames;
  for (size_t i = 0; i < n; ++i) {
    uint32_t len = static_cast<uint32_t>(rng.NextRange(34, 1518));
    uint16_t type = EthernetView::kTypeIpv4;
    switch (rng.NextBounded(8)) {
      case 0:
        type = EthernetView::kTypeArp;
        ++*must_fail;
        break;
      case 1:
        len = static_cast<uint32_t>(rng.NextRange(EthernetView::kSize, 33));
        ++*must_fail;
        break;
      case 2:
        len = kMaxFrame - static_cast<uint32_t>(rng.NextBounded(2));  // tailroom 0 or 1
        ++*must_fail;
        break;
      case 3:
        len = kMaxFrame - static_cast<uint32_t>(rng.NextBounded(32));  // either side of the edge
        break;
      default:
        break;
    }
    std::vector<uint8_t> f(len);
    for (auto& b : f) {
      b = static_cast<uint8_t>(rng.Next());
    }
    f[12] = static_cast<uint8_t>(type >> 8);
    f[13] = static_cast<uint8_t>(type);
    frames.push_back(std::move(f));
  }
  return frames;
}

std::vector<Packet*> Load(PacketPool* pool, const std::vector<std::vector<uint8_t>>& frames) {
  std::vector<Packet*> pkts;
  for (const auto& f : frames) {
    Packet* p = pool->Alloc();
    p->SetPayload(f.data(), static_cast<uint32_t>(f.size()));
    pkts.push_back(p);
  }
  return pkts;
}

// EncapsulateBatch against one-by-one Encapsulate on a second tunnel with the
// same config: identical ok/fail split, output bytes and sequence state over
// consecutive batches (so IVs and sequence numbers are consumed alike), and
// every output decapsulates back to its frame through a third tunnel.
TEST(EspBatchTest, BatchMatchesOneByOne) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    EspTunnel batched(TestConfig());
    EspTunnel single(TestConfig());
    EspTunnel dec(TestConfig());
    for (size_t n : {1u, 7u, 64u, 65u, 200u}) {
      size_t must_fail = 0;
      const auto frames = MixedFrames(rng, n, &must_fail);
      PacketPool pool(2 * n);
      std::vector<Packet*> a = Load(&pool, frames);
      std::vector<Packet*> b = Load(&pool, frames);
      std::unique_ptr<bool[]> ok(new bool[n]);
      const size_t got = batched.EncapsulateBatch(a.data(), n, ok.get());
      size_t fails = 0;
      for (size_t i = 0; i < n; ++i) {
        const bool one = single.Encapsulate(b[i]);
        ASSERT_EQ(ok[i], one) << "seed " << seed << " n " << n << " frame " << i;
        ASSERT_EQ(a[i]->length(), b[i]->length()) << i;
        ASSERT_EQ(memcmp(a[i]->data(), b[i]->data(), a[i]->length()), 0) << i;
        if (!one) {
          ++fails;
          ASSERT_EQ(a[i]->length(), frames[i].size()) << "a failed frame is left intact";
          ASSERT_EQ(memcmp(a[i]->data(), frames[i].data(), frames[i].size()), 0) << i;
          continue;
        }
        ASSERT_TRUE(dec.Decapsulate(a[i])) << i;
        ASSERT_EQ(a[i]->length(), frames[i].size()) << i;
        ASSERT_EQ(memcmp(a[i]->data(), frames[i].data(), frames[i].size()), 0) << i;
      }
      EXPECT_EQ(got, n - fails);
      EXPECT_GE(fails, must_fail);
      EXPECT_EQ(batched.next_seq(), single.next_seq());
      for (size_t i = 0; i < n; ++i) {
        pool.Free(a[i]);
        pool.Free(b[i]);
      }
    }
  }
}

// A frame that fails takes neither a sequence number nor an IV: the good
// frame behind it encapsulates exactly as it would alone.
TEST(EspBatchTest, FailedFramesConsumeNoSequenceOrIv) {
  PacketPool pool(4);
  EspTunnel with_bad(TestConfig());
  EspTunnel alone(TestConfig());
  Packet* bad = UdpFrame(&pool, 64);
  EthernetView{bad->data()}.set_ether_type(EthernetView::kTypeArp);
  Packet* good = UdpFrame(&pool, 576);
  Packet* ref = UdpFrame(&pool, 576);
  Packet* batch[] = {bad, good};
  bool ok[2];
  EXPECT_EQ(with_bad.EncapsulateBatch(batch, 2, ok), 1u);
  EXPECT_FALSE(ok[0]);
  EXPECT_TRUE(ok[1]);
  ASSERT_TRUE(alone.Encapsulate(ref));
  ASSERT_EQ(good->length(), ref->length());
  EXPECT_EQ(memcmp(good->data(), ref->data(), ref->length()), 0);
  EXPECT_EQ(with_bad.next_seq(), alone.next_seq());
  pool.Free(bad);
  pool.Free(good);
  pool.Free(ref);
}

}  // namespace
}  // namespace rb
