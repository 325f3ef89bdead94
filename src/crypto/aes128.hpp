// AES-128 block cipher, implemented from FIPS-197.
//
// The paper's IPsec application encrypts every packet with AES-128 "as is
// typical in VPNs" (§5.1). This is the portable, constant-table software
// cipher (S-box + MixColumns over GF(2^8), both directions in xtime form).
// It owns the FIPS-197 key schedule, which the AES-NI CBC-encrypt kernel
// (crypto/cbc.hpp) loads as-is, and it is that kernel's test oracle and the
// only encrypt path on CPUs without AES instructions. Decryption always
// runs here. The paper's measurements predate AES-NI.
#ifndef RB_CRYPTO_AES128_HPP_
#define RB_CRYPTO_AES128_HPP_

#include <array>
#include <cstddef>
#include <cstdint>

namespace rb {

class Aes128 {
 public:
  static constexpr size_t kBlockSize = 16;
  static constexpr size_t kKeySize = 16;
  static constexpr int kRounds = 10;

  explicit Aes128(const uint8_t key[kKeySize]);

  // Encrypts/decrypts exactly one 16-byte block. in and out may alias.
  void EncryptBlock(const uint8_t in[kBlockSize], uint8_t out[kBlockSize]) const;
  void DecryptBlock(const uint8_t in[kBlockSize], uint8_t out[kBlockSize]) const;

  // The expanded key w[0..43] of FIPS-197 §5.2, (kRounds + 1) * 16 bytes
  // in byte order: round key r is bytes [16r, 16r + 16), the layout
  // AESENC takes as its round-key operand.
  const uint8_t* round_keys() const { return round_keys_.data(); }

 private:
  // Round keys: (kRounds + 1) * 16 bytes.
  std::array<uint8_t, (kRounds + 1) * kBlockSize> round_keys_;
};

}  // namespace rb

#endif  // RB_CRYPTO_AES128_HPP_
