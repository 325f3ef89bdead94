// The AES-NI CBC-encrypt kernel: up to kCbcLanes independent streams in
// lockstep. A CBC chain is serial — block i + 1 needs block i's ciphertext —
// so one stream issues one AESENC at a time and waits out its latency.
// Blocks of different streams are independent, so each step here runs one
// block of every live lane through the ten rounds, round by round across
// the lanes, and a lane whose stream ends takes the next stream. The lane
// registers hold pointers and chaining values only; the round keys are
// Aes128's FIPS-197 schedule, loaded as they are.
//
// Compiled for the AES target by function attribute, so the rest of the
// build needs no ISA flag; AesCbc::EncryptStreams calls it only when
// CpuHasAes().
#include "crypto/cbc.hpp"

#include "common/log.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace rb {

#if defined(__x86_64__)

namespace {

struct Lane {
  uint8_t* data;
  size_t blocks;
  __m128i chain;
};

// Runs `steps` blocks of each of lanes[0..W) in lockstep.
template <int W>
__attribute__((target("aes"))) inline void RunLanes(Lane* lanes, size_t steps,
                                                     const __m128i* rk) {
  uint8_t* p[W];
  __m128i x[W];
#pragma GCC unroll 8
  for (int l = 0; l < W; ++l) {
    p[l] = lanes[l].data;
    x[l] = lanes[l].chain;
  }
  for (size_t s = 0; s < steps; ++s) {
#pragma GCC unroll 8
    for (int l = 0; l < W; ++l) {
      const __m128i in = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p[l]));
      x[l] = _mm_xor_si128(_mm_xor_si128(in, x[l]), rk[0]);
    }
#pragma GCC unroll 9
    for (int r = 1; r < Aes128::kRounds; ++r) {
#pragma GCC unroll 8
      for (int l = 0; l < W; ++l) {
        x[l] = _mm_aesenc_si128(x[l], rk[r]);
      }
    }
#pragma GCC unroll 8
    for (int l = 0; l < W; ++l) {
      x[l] = _mm_aesenclast_si128(x[l], rk[Aes128::kRounds]);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(p[l]), x[l]);
      p[l] += Aes128::kBlockSize;
    }
  }
#pragma GCC unroll 8
  for (int l = 0; l < W; ++l) {
    lanes[l].data = p[l];
    lanes[l].blocks -= steps;
    lanes[l].chain = x[l];
  }
}

}  // namespace

bool CpuHasAes() { return __builtin_cpu_supports("aes"); }

__attribute__((target("aes"))) void CbcEncryptAesni(const Aes128& cipher,
                                                    const CbcStream* streams, size_t n) {
  __m128i rk[Aes128::kRounds + 1];
  for (int r = 0; r <= Aes128::kRounds; ++r) {
    rk[r] = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(cipher.round_keys() + r * Aes128::kBlockSize));
  }
  Lane lanes[kCbcLanes];
  size_t next = 0;
  // Loads the next non-empty stream into `lane`; false when none is left.
  auto take = [&](Lane& lane) {
    for (; next < n; ++next) {
      const CbcStream& s = streams[next];
      if (s.len != 0) {
        lane.data = s.data;
        lane.blocks = s.len / Aes128::kBlockSize;
        lane.chain = _mm_loadu_si128(reinterpret_cast<const __m128i*>(s.iv));
        ++next;
        return true;
      }
    }
    return false;
  };
  int live = 0;
  while (live < kCbcLanes && take(lanes[live])) {
    ++live;
  }
  while (live > 0) {
    // Every live lane can take this many steps before the first one ends.
    size_t steps = lanes[0].blocks;
    for (int l = 1; l < live; ++l) {
      steps = lanes[l].blocks < steps ? lanes[l].blocks : steps;
    }
    switch (live) {
      case 1: RunLanes<1>(lanes, steps, rk); break;
      case 2: RunLanes<2>(lanes, steps, rk); break;
      case 3: RunLanes<3>(lanes, steps, rk); break;
      case 4: RunLanes<4>(lanes, steps, rk); break;
      case 5: RunLanes<5>(lanes, steps, rk); break;
      case 6: RunLanes<6>(lanes, steps, rk); break;
      case 7: RunLanes<7>(lanes, steps, rk); break;
      default: RunLanes<kCbcLanes>(lanes, steps, rk); break;
    }
    // Refill the lanes that ended; with no stream left, close the gap.
    for (int l = 0; l < live;) {
      if (lanes[l].blocks != 0 || take(lanes[l])) {
        ++l;
      } else {
        lanes[l] = lanes[--live];
      }
    }
  }
}

#else  // !defined(__x86_64__)

bool CpuHasAes() { return false; }

void CbcEncryptAesni(const Aes128& /*cipher*/, const CbcStream* /*streams*/, size_t /*n*/) {
  RB_CHECK_MSG(false, "CbcEncryptAesni needs x86-64 with AES");
}

#endif

}  // namespace rb
