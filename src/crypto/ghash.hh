/**
 * @file
 * GHASH — the universal hash of GCM (NIST SP 800-38D).
 *
 * Operates over GF(2^128) with the GCM bit ordering (bit 0 of a block
 * is the most-significant bit of byte 0).
 *
 * Two multiplication paths exist: the bit-serial gfmul() reference
 * (SP 800-38D algorithm 1, 128 iterations per block) and GhashKey,
 * a 4-bit Shoup table precomputed per hash subkey that processes a
 * block in 32 table lookups. The streaming Ghash class uses the
 * table; gfmul() is kept as the cross-check oracle for the tests and
 * the perf harness baseline.
 *
 * A third path exists when the build carries the SIMD tier and the
 * CPU has PCLMULQDQ: GhashKey also precomputes the clmul power table
 * and Ghash routes whole-block spans through the 4-block aggregated
 * carry-less-multiply backend whenever crypto::simdActive(). All
 * three paths produce identical digests.
 */

#ifndef MGSEC_CRYPTO_GHASH_HH
#define MGSEC_CRYPTO_GHASH_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>

#include "crypto/aes.hh"
#include "crypto/clmul.hh"

namespace mgsec::crypto
{

/** @name Word load/store helpers (big-endian byte order)
 * Shared by GHASH, GCM counter/length formatting, and the OTP seed
 * derivation — the one place byte order is decided.
 */
/// @{
inline std::uint64_t
load64be(const std::uint8_t *p)
{
    std::uint64_t v;
    std::memcpy(&v, p, sizeof(v));
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    return v;
#else
    return __builtin_bswap64(v);
#endif
}

inline void
store64be(std::uint8_t *p, std::uint64_t v)
{
#if !defined(__BYTE_ORDER__) || __BYTE_ORDER__ != __ORDER_BIG_ENDIAN__
    v = __builtin_bswap64(v);
#endif
    std::memcpy(p, &v, sizeof(v));
}

inline std::uint32_t
load32be(const std::uint8_t *p)
{
    std::uint32_t v;
    std::memcpy(&v, p, sizeof(v));
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    return v;
#else
    return __builtin_bswap32(v);
#endif
}

inline void
store32be(std::uint8_t *p, std::uint32_t v)
{
#if !defined(__BYTE_ORDER__) || __BYTE_ORDER__ != __ORDER_BIG_ENDIAN__
    v = __builtin_bswap32(v);
#endif
    std::memcpy(p, &v, sizeof(v));
}
/// @}

/** A 128-bit value in GCM bit order: hi holds bytes 0-7 big-endian. */
struct U128
{
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;

    bool operator==(const U128 &o) const = default;
};

/** Load/store between Block and U128 (big-endian). */
U128 blockToU128(const Block &b);
Block u128ToBlock(const U128 &v);

/** Bit-serial GF(2^128) multiplication, GCM convention (reference). */
U128 gfmul(const U128 &x, const U128 &y);

/**
 * Precomputed 4-bit multiplication tables for one hash subkey H
 * (Shoup's method): mul() resolves X*H in 32 nibble lookups instead
 * of gfmul's 128 shift/xor rounds. Build once per key, reuse for
 * every block.
 */
class GhashKey
{
  public:
    GhashKey() = default;
    explicit GhashKey(const Block &h);

    /** X * H in GF(2^128). */
    U128 mul(const U128 &x) const;

    /** True when the clmul power table was precomputed. */
    bool simdReady() const { return simd_ready_; }
    const clmul::GhashPowers &powers() const { return powers_; }

  private:
    /** tbl hi/lo words indexed by a 4-bit multiplier nibble. */
    std::uint64_t hh_[16]{};
    std::uint64_t hl_[16]{};
    /**
     * H^1..H^4 for the PCLMUL path, populated whenever the machine
     * can run it so the active tier may change after construction.
     */
    clmul::GhashPowers powers_;
    bool simd_ready_ = false;
};

/**
 * Incremental GHASH with hash subkey H. Feed whole 16-byte blocks;
 * shorter trailing data must be zero-padded by the caller (as GCM
 * itself specifies).
 *
 * A hash refers to its key tables rather than copying them (256 B of
 * Shoup table plus 64 B of clmul powers), so a per-message hash over
 * a long-lived GhashKey costs nothing to set up. Only the one-shot
 * Ghash(const Block &) constructor builds and owns a key.
 */
class Ghash
{
  public:
    /** Builds and owns the key tables on the spot (one-shot uses). */
    explicit Ghash(const Block &h) : owned_(std::in_place, h),
                                     key_(&*owned_) {}
    /** Refers to tables of a long-lived owner, which must outlive
     *  this hash. */
    explicit Ghash(const GhashKey &key) : key_(&key) {}
    /** A temporary key would dangle: name it, or pass H instead. */
    explicit Ghash(GhashKey &&) = delete;

    Ghash(const Ghash &) = delete;
    Ghash &operator=(const Ghash &) = delete;

    /** Absorb one block. */
    void update(const Block &b) { updateBlocks(b.data(), 1); }
    /**
     * Absorb @p nblocks whole 16-byte blocks in one pass through the
     * active multiplication tier (the clmul tier aggregates four
     * blocks per reduction, so one long run beats many short ones).
     */
    void updateBlocks(const std::uint8_t *data, std::size_t nblocks);
    /** Absorb a byte string, zero-padding the final partial block. */
    void updateBytes(const std::uint8_t *data, std::size_t len);
    /** Current state as a block (does not reset). */
    Block digest() const { return u128ToBlock(y_); }
    void reset() { y_ = U128{}; }

  private:
    std::optional<GhashKey> owned_;
    const GhashKey *key_;
    U128 y_{};
};

} // namespace mgsec::crypto

#endif // MGSEC_CRYPTO_GHASH_HH
