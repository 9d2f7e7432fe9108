#include "crypto/ghash.hh"

#include <cstring>

#include "crypto/dispatch.hh"

namespace mgsec::crypto
{

U128
blockToU128(const Block &b)
{
    return U128{load64be(b.data()), load64be(b.data() + 8)};
}

Block
u128ToBlock(const U128 &v)
{
    Block b;
    store64be(b.data(), v.hi);
    store64be(b.data() + 8, v.lo);
    return b;
}

U128
gfmul(const U128 &x, const U128 &y)
{
    // SP 800-38D algorithm 1: Z = 0, V = y; scan bits of x MSB-first.
    U128 z;
    U128 v = y;
    for (int i = 0; i < 128; ++i) {
        const bool xbit = (i < 64)
            ? ((x.hi >> (63 - i)) & 1) != 0
            : ((x.lo >> (127 - i)) & 1) != 0;
        if (xbit) {
            z.hi ^= v.hi;
            z.lo ^= v.lo;
        }
        const bool lsb = (v.lo & 1) != 0;
        v.lo = (v.lo >> 1) | (v.hi << 63);
        v.hi >>= 1;
        if (lsb)
            v.hi ^= 0xe100000000000000ULL;
    }
    return z;
}

namespace
{

/**
 * Reduction of the four bits shifted out of a right-shift-by-4,
 * premultiplied by the field polynomial (Shoup's "last4" table).
 * Entry r is (r * x^124 mod P) >> 64's top 16 bits; shifted into
 * place by mul().
 */
constexpr std::uint64_t kLast4[16] = {
    0x0000, 0x1c20, 0x3840, 0x2460, 0x7080, 0x6ca0, 0x48c0, 0x54e0,
    0xe100, 0xfd20, 0xd940, 0xc560, 0x9180, 0x8da0, 0xa9c0, 0xb5e0,
};

} // anonymous namespace

GhashKey::GhashKey(const Block &h)
{
    // Populate the power-of-two entries by repeated halving of H
    // (table index 8 is H itself: GCM's bit order makes nibble
    // value 8 the polynomial 1).
    U128 v = blockToU128(h);
    hh_[8] = v.hi;
    hl_[8] = v.lo;
    for (int i = 4; i > 0; i >>= 1) {
        const bool lsb = (v.lo & 1) != 0;
        v.lo = (v.hi << 63) | (v.lo >> 1);
        v.hi >>= 1;
        if (lsb)
            v.hi ^= 0xe100000000000000ULL;
        hh_[i] = v.hi;
        hl_[i] = v.lo;
    }
    // Remaining entries by linearity.
    for (int i = 2; i <= 8; i *= 2) {
        for (int j = 1; j < i; ++j) {
            hh_[i + j] = hh_[i] ^ hh_[j];
            hl_[i + j] = hl_[i] ^ hl_[j];
        }
    }
    // Precompute the PCLMUL powers whenever the machine can use them
    // (not only when SIMD is currently selected): the active tier is
    // process-global and may flip after this key is built.
#ifdef MGSEC_HAVE_SIMD
    if (simdAvailable()) {
        clmul::initPowers(h.data(), powers_);
        simd_ready_ = true;
    }
#endif
}

U128
GhashKey::mul(const U128 &x) const
{
    // Process the 32 nibbles of x from the field's "last" end (the
    // least-significant bits of lo) to its first, folding a 4-bit
    // reduction (kLast4) into each shift.
    std::uint64_t zh = 0;
    std::uint64_t zl = 0;
    for (int half = 0; half < 2; ++half) {
        const std::uint64_t word = half == 0 ? x.lo : x.hi;
        for (int i = 0; i < 16; ++i) {
            const std::size_t nib = (word >> (4 * i)) & 0xf;
            if (half != 0 || i != 0) {
                const std::size_t rem = zl & 0xf;
                zl = (zh << 60) | (zl >> 4);
                zh = (zh >> 4) ^ (kLast4[rem] << 48);
            }
            zh ^= hh_[nib];
            zl ^= hl_[nib];
        }
    }
    return U128{zh, zl};
}

void
Ghash::updateBlocks(const std::uint8_t *data, std::size_t nblocks)
{
#ifdef MGSEC_HAVE_SIMD
    if (key_->simdReady() && simdActive()) {
        clmul::ghashBlocks(key_->powers(), y_.hi, y_.lo, data,
                           nblocks);
        return;
    }
#endif
    while (nblocks-- > 0) {
        y_.hi ^= load64be(data);
        y_.lo ^= load64be(data + 8);
        y_ = key_->mul(y_);
        data += 16;
    }
}

void
Ghash::updateBytes(const std::uint8_t *data, std::size_t len)
{
    if (len >= 16)
        updateBlocks(data, len / 16);
    if (len % 16 != 0) {
        Block b;
        b.fill(0);
        std::memcpy(b.data(), data + (len - len % 16), len % 16);
        update(b);
    }
}

} // namespace mgsec::crypto
