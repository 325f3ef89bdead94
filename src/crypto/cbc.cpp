#include "crypto/cbc.hpp"

#include <cstring>

#include "common/log.hpp"

namespace rb {
namespace {

using CbcKernel = void (*)(const Aes128&, const CbcStream*, size_t);

CbcKernel PickKernel() { return CpuHasAes() ? CbcEncryptAesni : CbcEncryptPortable; }

}  // namespace

void CbcEncryptPortable(const Aes128& cipher, const CbcStream* streams, size_t n) {
  for (size_t s = 0; s < n; ++s) {
    uint8_t* data = streams[s].data;
    uint8_t chain[Aes128::kBlockSize];
    memcpy(chain, streams[s].iv, sizeof(chain));
    for (size_t off = 0; off < streams[s].len; off += Aes128::kBlockSize) {
      for (size_t i = 0; i < Aes128::kBlockSize; ++i) {
        data[off + i] ^= chain[i];
      }
      cipher.EncryptBlock(data + off, data + off);
      memcpy(chain, data + off, sizeof(chain));
    }
  }
}

void AesCbc::Encrypt(uint8_t* data, size_t len, const uint8_t iv[Aes128::kBlockSize]) const {
  const CbcStream stream{data, len, iv};
  EncryptStreams(&stream, 1);
}

void AesCbc::EncryptStreams(const CbcStream* streams, size_t n) const {
  static const CbcKernel kernel = PickKernel();
  for (size_t s = 0; s < n; ++s) {
    RB_CHECK(streams[s].len % Aes128::kBlockSize == 0);
  }
  kernel(cipher_, streams, n);
}

void AesCbc::Decrypt(uint8_t* data, size_t len, const uint8_t iv[Aes128::kBlockSize]) const {
  RB_CHECK(len % Aes128::kBlockSize == 0);
  uint8_t chain[Aes128::kBlockSize];
  uint8_t next_chain[Aes128::kBlockSize];
  memcpy(chain, iv, sizeof(chain));
  for (size_t off = 0; off < len; off += Aes128::kBlockSize) {
    memcpy(next_chain, data + off, sizeof(next_chain));
    cipher_.DecryptBlock(data + off, data + off);
    for (size_t i = 0; i < Aes128::kBlockSize; ++i) {
      data[off + i] ^= chain[i];
    }
    memcpy(chain, next_chain, sizeof(chain));
  }
}

size_t CbcPadLength(size_t len, bool esp_trailer) {
  size_t total = len + (esp_trailer ? 2 : 0);
  size_t rem = total % Aes128::kBlockSize;
  return rem == 0 ? 0 : Aes128::kBlockSize - rem;
}

}  // namespace rb
