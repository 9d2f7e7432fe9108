/**
 * @file
 * AES-128-GCM authenticated encryption (NIST SP 800-38D), 96-bit IV.
 *
 * This is the reference algorithm the paper's hardware engines
 * implement; the secure-channel layer derives its one-time pads and
 * MsgMACs from the same primitives so the protocol tests exercise
 * real cryptography.
 */

#ifndef MGSEC_CRYPTO_GCM_HH
#define MGSEC_CRYPTO_GCM_HH

#include <array>
#include <cstdint>
#include <vector>

#include "crypto/aes.hh"
#include "crypto/ghash.hh"

namespace mgsec::crypto
{

/** 96-bit GCM initialization vector. */
using Iv96 = std::array<std::uint8_t, 12>;

/** Result of a GCM seal operation. */
struct GcmSealed
{
    std::vector<std::uint8_t> ciphertext;
    Block tag;
};

class AesGcm
{
  public:
    explicit AesGcm(const std::array<std::uint8_t, 16> &key);

    /** Encrypt and authenticate. @p aad may be empty. */
    GcmSealed seal(const Iv96 &iv,
                   const std::vector<std::uint8_t> &plaintext,
                   const std::vector<std::uint8_t> &aad = {}) const;

    /**
     * Verify and decrypt.
     * @param[out] plaintext valid only when the call returns true.
     * @retval false the tag did not verify (output untouched).
     */
    bool open(const Iv96 &iv,
              const std::vector<std::uint8_t> &ciphertext,
              const Block &tag,
              std::vector<std::uint8_t> &plaintext,
              const std::vector<std::uint8_t> &aad = {}) const;

    /**
     * Raw CTR keystream starting at counter block J0+1, written into
     * @p out — the allocation-free core every pad derivation uses.
     */
    void keystreamTo(const Iv96 &iv, std::uint8_t *out,
                     std::size_t len) const;

    /** Convenience vector form of keystreamTo(). */
    std::vector<std::uint8_t> keystream(const Iv96 &iv,
                                        std::size_t len) const;

    /**
     * GCM tag over (aad, cipher) given as raw spans, so callers with
     * data already in arrays need not materialize vector copies.
     * Null pointers with zero lengths are valid.
     */
    Block computeTag(const Iv96 &iv, const std::uint8_t *aad,
                     std::size_t aad_len, const std::uint8_t *cipher,
                     std::size_t cipher_len) const;

    const Block &hashKey() const { return h_; }

  private:
    Block counterBlock(const Iv96 &iv, std::uint32_t ctr) const;
    void ctrCrypt(const Iv96 &iv, const std::uint8_t *in,
                  std::uint8_t *out, std::size_t len) const;

    Aes128 aes_;
    Block h_{};
    GhashKey hkey_;
};

} // namespace mgsec::crypto

#endif // MGSEC_CRYPTO_GCM_HH
