// AES-128-CBC with PKCS#7-style padding helpers.
//
// Encryption runs on N independent streams at once (EncryptStreams): CBC
// chains the blocks within a stream, so one stream is a serial chain of
// AES calls, but blocks of different streams are independent. Two kernels
// implement it. CbcEncryptAesni keeps up to kCbcLanes streams in flight and
// runs one block of each through AESENC per step, hiding the instruction's
// latency; CbcEncryptPortable runs the table AES stream after stream. The
// kernel is picked once per process from CPUID; nothing else selects it.
#ifndef RB_CRYPTO_CBC_HPP_
#define RB_CRYPTO_CBC_HPP_

#include <cstddef>
#include <cstdint>

#include "crypto/aes128.hpp"

namespace rb {

// One CBC-encrypt stream: `len` bytes at `data` (a multiple of 16, may be
// 0) are encrypted in place, chained from the 16-byte `iv`. Streams of one
// call must not overlap each other or any stream's IV.
struct CbcStream {
  uint8_t* data;
  size_t len;
  const uint8_t* iv;
};

// Streams the AES-NI kernel keeps in flight.
inline constexpr int kCbcLanes = 8;

class AesCbc {
 public:
  explicit AesCbc(const uint8_t key[Aes128::kKeySize]) : cipher_(key) {}

  // Encrypts `len` bytes in place; len must be a multiple of 16. The
  // one-stream EncryptStreams.
  void Encrypt(uint8_t* data, size_t len, const uint8_t iv[Aes128::kBlockSize]) const;

  // Encrypts streams[0..n) in place with the dispatched kernel. RB_CHECKs
  // that every length is a multiple of 16.
  void EncryptStreams(const CbcStream* streams, size_t n) const;

  // Decrypts `len` bytes in place; len must be a multiple of 16. Always the
  // portable cipher.
  void Decrypt(uint8_t* data, size_t len, const uint8_t iv[Aes128::kBlockSize]) const;

  const Aes128& cipher() const { return cipher_; }

 private:
  Aes128 cipher_;
};

// True when the CPU has the AES instructions (CPUID), so CbcEncryptAesni
// may run. Always false off x86-64.
bool CpuHasAes();

// The two kernels behind AesCbc::EncryptStreams; both skip the length
// checks. CbcEncryptPortable is the test oracle and benchmark A/B arm of
// CbcEncryptAesni, which must be called only when CpuHasAes().
void CbcEncryptPortable(const Aes128& cipher, const CbcStream* streams, size_t n);
void CbcEncryptAesni(const Aes128& cipher, const CbcStream* streams, size_t n);

// Number of padding bytes needed to round `len` (+2 ESP trailer bytes when
// `esp_trailer` is true) up to a 16-byte multiple.
size_t CbcPadLength(size_t len, bool esp_trailer);

}  // namespace rb

#endif  // RB_CRYPTO_CBC_HPP_
