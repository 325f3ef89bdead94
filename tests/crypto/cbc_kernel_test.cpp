// The multi-stream AES-NI CBC kernel against the portable oracle
// (CbcEncryptPortable: the table AES, one stream after another), plus known
// answers pushed through the fast path and the dispatched entry point.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "crypto/cbc.hpp"

namespace rb {
namespace {

#define SKIP_WITHOUT_AES()                                                          \
  if (!CpuHasAes()) {                                                               \
    GTEST_SKIP() << "this CPU has no AES instructions; the AES-NI kernel cannot run"; \
  }

constexpr size_t kMaxStreamBytes = 1504;

void RandomBytes(Rng& rng, uint8_t* p, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    p[i] = static_cast<uint8_t>(rng.Next());
  }
}

// Streams of ragged lengths (multiples of 16 in [0, 1504]) with their own
// IVs, in one owning set that can be copied and run through either kernel.
struct StreamSet {
  std::vector<std::vector<uint8_t>> data;
  std::vector<std::vector<uint8_t>> ivs;

  std::vector<CbcStream> Streams() {
    std::vector<CbcStream> s;
    for (size_t i = 0; i < data.size(); ++i) {
      s.push_back(CbcStream{data[i].data(), data[i].size(), ivs[i].data()});
    }
    return s;
  }
};

StreamSet RandomStreams(Rng& rng, size_t n) {
  StreamSet set;
  for (size_t i = 0; i < n; ++i) {
    std::vector<uint8_t> d(16 * rng.NextRange(0, kMaxStreamBytes / 16));
    std::vector<uint8_t> iv(16);
    RandomBytes(rng, d.data(), d.size());
    RandomBytes(rng, iv.data(), iv.size());
    set.data.push_back(std::move(d));
    set.ivs.push_back(std::move(iv));
  }
  return set;
}

TEST(CbcKernelTest, RaggedStreamsMatchOracle) {
  SKIP_WITHOUT_AES();
  for (uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    for (size_t n = 1; n <= 64; ++n) {
      uint8_t key[16];
      RandomBytes(rng, key, sizeof(key));
      const Aes128 cipher(key);
      StreamSet want = RandomStreams(rng, n);
      StreamSet got = want;
      std::vector<CbcStream> ws = want.Streams();
      std::vector<CbcStream> gs = got.Streams();
      CbcEncryptPortable(cipher, ws.data(), n);
      CbcEncryptAesni(cipher, gs.data(), n);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(got.data[i], want.data[i]) << "seed " << seed << " n " << n << " stream " << i
                                             << " of " << want.data[i].size() << " B";
        ASSERT_EQ(got.ivs[i], want.ivs[i]) << "the IV is read, never written";
      }
    }
  }
}

TEST(CbcKernelTest, EmptyStreamsAndEmptyCalls) {
  SKIP_WITHOUT_AES();
  const uint8_t key[16] = {0};
  const Aes128 cipher(key);
  CbcEncryptAesni(cipher, nullptr, 0);
  uint8_t iv[16] = {0};
  uint8_t one[16] = {0};
  uint8_t want[16] = {0};
  const CbcStream oracle{want, 16, iv};
  CbcEncryptPortable(cipher, &oracle, 1);
  // Zero-length streams around a single live one: only it is written.
  const CbcStream streams[] = {{nullptr, 0, iv}, {one, 16, iv}, {nullptr, 0, iv}};
  CbcEncryptAesni(cipher, streams, 3);
  EXPECT_EQ(memcmp(one, want, 16), 0);
}

// Packet-like layout in one buffer: each stream's IV sits in the 16 bytes
// right before its data, and the streams follow each other back to back.
// Every lane writes exactly its own bytes in place.
TEST(CbcKernelTest, InPlaceAdjacentBuffersMatchOracle) {
  SKIP_WITHOUT_AES();
  for (uint64_t seed : {11u, 12u}) {
    Rng rng(seed);
    uint8_t key[16];
    RandomBytes(rng, key, sizeof(key));
    const Aes128 cipher(key);
    const size_t n = 37;
    std::vector<size_t> lens(n);
    size_t total = 16;  // guard at the end
    for (size_t& len : lens) {
      len = 16 * rng.NextRange(0, kMaxStreamBytes / 16);
      total += 16 + len;
    }
    std::vector<uint8_t> want(total);
    RandomBytes(rng, want.data(), total);
    std::vector<uint8_t> got = want;
    auto streams_in = [&](std::vector<uint8_t>& buf) {
      std::vector<CbcStream> s;
      size_t off = 0;
      for (size_t len : lens) {
        s.push_back(CbcStream{buf.data() + off + 16, len, buf.data() + off});
        off += 16 + len;
      }
      return s;
    };
    std::vector<CbcStream> ws = streams_in(want);
    std::vector<CbcStream> gs = streams_in(got);
    CbcEncryptPortable(cipher, ws.data(), n);
    CbcEncryptAesni(cipher, gs.data(), n);
    EXPECT_EQ(got, want) << "seed " << seed;
  }
}

// NIST SP 800-38A F.2.1 CBC-AES128.Encrypt, all four blocks.
const uint8_t kNistKey[16] = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                              0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
const uint8_t kNistIv[16] = {0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
                             0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f};
const uint8_t kNistPlain[64] = {
    0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e, 0x11, 0x73,
    0x93, 0x17, 0x2a, 0xae, 0x2d, 0x8a, 0x57, 0x1e, 0x03, 0xac, 0x9c, 0x9e, 0xb7,
    0x6f, 0xac, 0x45, 0xaf, 0x8e, 0x51, 0x30, 0xc8, 0x1c, 0x46, 0xa3, 0x5c, 0xe4,
    0x11, 0xe5, 0xfb, 0xc1, 0x19, 0x1a, 0x0a, 0x52, 0xef, 0xf6, 0x9f, 0x24, 0x45,
    0xdf, 0x4f, 0x9b, 0x17, 0xad, 0x2b, 0x41, 0x7b, 0xe6, 0x6c, 0x37, 0x10};
const uint8_t kNistCipher[64] = {
    0x76, 0x49, 0xab, 0xac, 0x81, 0x19, 0xb2, 0x46, 0xce, 0xe9, 0x8e, 0x9b, 0x12,
    0xe9, 0x19, 0x7d, 0x50, 0x86, 0xcb, 0x9b, 0x50, 0x72, 0x19, 0xee, 0x95, 0xdb,
    0x11, 0x3a, 0x91, 0x76, 0x78, 0xb2, 0x73, 0xbe, 0xd6, 0xb8, 0xe3, 0xc1, 0x74,
    0x3b, 0x71, 0x16, 0xe6, 0x9e, 0x22, 0x22, 0x95, 0x16, 0x3f, 0xf1, 0xca, 0xa1,
    0x68, 0x1f, 0xac, 0x09, 0x12, 0x0e, 0xca, 0x30, 0x75, 0x86, 0xe1, 0xa7};

TEST(CbcKernelTest, NistSp80038aThroughEveryLane) {
  SKIP_WITHOUT_AES();
  const Aes128 cipher(kNistKey);
  // 1, 8 (one full lockstep step) and 11 (lanes refilled) copies at once.
  for (size_t n : {1u, 8u, 11u}) {
    std::vector<std::vector<uint8_t>> bufs(n, std::vector<uint8_t>(kNistPlain, kNistPlain + 64));
    std::vector<CbcStream> streams;
    for (auto& b : bufs) {
      streams.push_back(CbcStream{b.data(), b.size(), kNistIv});
    }
    CbcEncryptAesni(cipher, streams.data(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(memcmp(bufs[i].data(), kNistCipher, 64), 0) << "copy " << i << " of " << n;
    }
  }
}

// FIPS-197 C.1: one block under a zero IV is the bare cipher.
TEST(CbcKernelTest, Fips197C1ThroughFastPath) {
  SKIP_WITHOUT_AES();
  const uint8_t key[16] = {0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
                           0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f};
  uint8_t block[16] = {0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77,
                       0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff};
  const uint8_t expected[16] = {0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30,
                                0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4, 0xc5, 0x5a};
  const uint8_t zero_iv[16] = {0};
  const CbcStream stream{block, 16, zero_iv};
  CbcEncryptAesni(Aes128(key), &stream, 1);
  EXPECT_EQ(memcmp(block, expected, 16), 0);
}

// The dispatched entry point agrees with the oracle on every host, whichever
// kernel it picked.
TEST(CbcKernelTest, DispatchedEncryptMatchesOracle) {
  Rng rng(21);
  uint8_t key[16];
  RandomBytes(rng, key, sizeof(key));
  const AesCbc cbc(key);
  StreamSet want = RandomStreams(rng, 19);
  StreamSet got = want;
  std::vector<CbcStream> ws = want.Streams();
  std::vector<CbcStream> gs = got.Streams();
  CbcEncryptPortable(cbc.cipher(), ws.data(), ws.size());
  cbc.EncryptStreams(gs.data(), gs.size());
  EXPECT_EQ(got.data, want.data);
  uint8_t one[64];
  memcpy(one, kNistPlain, 64);
  AesCbc(kNistKey).Encrypt(one, 64, kNistIv);
  EXPECT_EQ(memcmp(one, kNistCipher, 64), 0);
}

TEST(CbcKernelDeathTest, RaggedLengthInAnyStreamAborts) {
  const uint8_t key[16] = {0};
  const AesCbc cbc(key);
  uint8_t iv[16] = {0};
  uint8_t a[32] = {0};
  uint8_t b[20] = {0};
  const CbcStream streams[] = {{a, 32, iv}, {b, 20, iv}};
  EXPECT_DEATH(cbc.EncryptStreams(streams, 2), "");
}

}  // namespace
}  // namespace rb
