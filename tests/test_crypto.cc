/**
 * @file
 * AES-128, GHASH, and AES-GCM tests against published vectors, plus
 * algebraic property sweeps.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "crypto/aes.hh"
#include "crypto/dispatch.hh"
#include "crypto/gcm.hh"
#include "crypto/ghash.hh"

using namespace mgsec::crypto;

namespace
{

std::vector<std::uint8_t>
unhex(const std::string &s)
{
    std::vector<std::uint8_t> out;
    for (std::size_t i = 0; i + 1 < s.size(); i += 2) {
        out.push_back(static_cast<std::uint8_t>(
            std::stoul(s.substr(i, 2), nullptr, 16)));
    }
    return out;
}

template <std::size_t N>
std::array<std::uint8_t, N>
unhexArr(const std::string &s)
{
    const auto v = unhex(s);
    EXPECT_EQ(v.size(), N);
    std::array<std::uint8_t, N> a{};
    std::copy(v.begin(), v.end(), a.begin());
    return a;
}

} // anonymous namespace

// ------------------------------------------------------------------- AES

TEST(Aes128, Fips197AppendixCVector)
{
    // FIPS-197 Appendix C.1.
    const auto key =
        unhexArr<16>("000102030405060708090a0b0c0d0e0f");
    const auto pt =
        unhexArr<16>("00112233445566778899aabbccddeeff");
    const auto expect =
        unhexArr<16>("69c4e0d86a7b0430d8cdb78070b4c55a");
    Aes128 aes(key);
    EXPECT_EQ(aes.encrypt(pt), expect);
}

TEST(Aes128, Fips197AppendixBVector)
{
    // FIPS-197 Appendix B worked example.
    const auto key =
        unhexArr<16>("2b7e151628aed2a6abf7158809cf4f3c");
    const auto pt =
        unhexArr<16>("3243f6a8885a308d313198a2e0370734");
    const auto expect =
        unhexArr<16>("3925841d02dc09fbdc118597196a0b32");
    Aes128 aes(key);
    EXPECT_EQ(aes.encrypt(pt), expect);
}

TEST(Aes128, DecryptInvertsEncryptOnVectors)
{
    const auto key =
        unhexArr<16>("000102030405060708090a0b0c0d0e0f");
    const auto ct =
        unhexArr<16>("69c4e0d86a7b0430d8cdb78070b4c55a");
    const auto expect =
        unhexArr<16>("00112233445566778899aabbccddeeff");
    Aes128 aes(key);
    EXPECT_EQ(aes.decrypt(ct), expect);
}

TEST(Aes128, EncryptionIsDeterministic)
{
    const auto key = unhexArr<16>("00000000000000000000000000000000");
    Aes128 aes(key);
    Block b{};
    EXPECT_EQ(aes.encrypt(b), aes.encrypt(b));
}

TEST(Aes128, DifferentKeysDifferentCiphertexts)
{
    auto k1 = unhexArr<16>("00000000000000000000000000000000");
    auto k2 = k1;
    k2[0] = 1;
    Block pt{};
    EXPECT_NE(Aes128(k1).encrypt(pt), Aes128(k2).encrypt(pt));
}

/** Round-trip property over many random blocks and keys. */
class AesRoundTrip : public ::testing::TestWithParam<std::uint32_t>
{};

TEST_P(AesRoundTrip, DecryptEncryptIsIdentity)
{
    std::mt19937_64 rng(GetParam());
    std::array<std::uint8_t, 16> key;
    Block pt;
    for (auto &b : key)
        b = static_cast<std::uint8_t>(rng());
    Aes128 aes(key);
    for (int i = 0; i < 50; ++i) {
        for (auto &b : pt)
            b = static_cast<std::uint8_t>(rng());
        EXPECT_EQ(aes.decrypt(aes.encrypt(pt)), pt);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AesRoundTrip,
                         ::testing::Values(1u, 2u, 3u, 17u, 12345u));

// ----------------------------------------------------------------- GHASH

TEST(Ghash, MultiplyByZeroIsZero)
{
    U128 x{0x1234567890abcdefULL, 0xfedcba0987654321ULL};
    U128 zero{};
    EXPECT_EQ(gfmul(x, zero), zero);
    EXPECT_EQ(gfmul(zero, x), zero);
}

TEST(Ghash, MultiplyByOneIsIdentity)
{
    // The GF(2^128) multiplicative identity in GCM bit order is the
    // block 0x80 0x00 ... (bit 0 = MSB of byte 0).
    U128 one{0x8000000000000000ULL, 0};
    U128 x{0x1234567890abcdefULL, 0xfedcba0987654321ULL};
    EXPECT_EQ(gfmul(x, one), x);
    EXPECT_EQ(gfmul(one, x), x);
}

TEST(Ghash, MultiplicationCommutes)
{
    U128 a{0xdeadbeefcafebabeULL, 0x0123456789abcdefULL};
    U128 b{0x5555aaaa3333ccccULL, 0x9999666677778888ULL};
    EXPECT_EQ(gfmul(a, b), gfmul(b, a));
}

TEST(Ghash, MultiplicationDistributesOverXor)
{
    U128 a{0x1111, 0x2222}, b{0x3333, 0x4444}, c{0x5555, 0x6666};
    U128 bc{b.hi ^ c.hi, b.lo ^ c.lo};
    const U128 left = gfmul(a, bc);
    const U128 ab = gfmul(a, b);
    const U128 ac = gfmul(a, c);
    const U128 right{ab.hi ^ ac.hi, ab.lo ^ ac.lo};
    EXPECT_EQ(left, right);
}

TEST(Ghash, BlockConversionRoundTrips)
{
    Block b;
    for (int i = 0; i < 16; ++i)
        b[static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(i * 7 + 1);
    EXPECT_EQ(u128ToBlock(blockToU128(b)), b);
}

TEST(Ghash, UpdateBytesPadsPartialBlocks)
{
    Block h{};
    h[0] = 0x42;
    Ghash g1(h), g2(h);
    std::uint8_t data[20];
    for (int i = 0; i < 20; ++i)
        data[i] = static_cast<std::uint8_t>(i);
    g1.updateBytes(data, 20);

    Block first{}, second{};
    std::copy(data, data + 16, first.begin());
    std::copy(data + 16, data + 20, second.begin()); // zero padded
    g2.update(first);
    g2.update(second);
    EXPECT_EQ(g1.digest(), g2.digest());
}

// ------------------------------------------------------------------- GCM

TEST(AesGcm, NistTestCase1EmptyPlaintext)
{
    const auto key = unhexArr<16>("00000000000000000000000000000000");
    const Iv96 iv = unhexArr<12>("000000000000000000000000");
    AesGcm gcm(key);
    const auto sealed = gcm.seal(iv, {});
    EXPECT_TRUE(sealed.ciphertext.empty());
    EXPECT_EQ(sealed.tag,
              unhexArr<16>("58e2fccefa7e3061367f1d57a4e7455a"));
}

TEST(AesGcm, NistTestCase2SingleZeroBlock)
{
    const auto key = unhexArr<16>("00000000000000000000000000000000");
    const Iv96 iv = unhexArr<12>("000000000000000000000000");
    AesGcm gcm(key);
    const auto sealed =
        gcm.seal(iv, std::vector<std::uint8_t>(16, 0));
    EXPECT_EQ(sealed.ciphertext,
              unhex("0388dace60b6a392f328c2b971b2fe78"));
    EXPECT_EQ(sealed.tag,
              unhexArr<16>("ab6e47d42cec13bdf53a67b21257bddf"));
}

TEST(AesGcm, FourBlockVectorCrossValidated)
{
    // Cross-validated against the Python `cryptography` (OpenSSL)
    // AESGCM implementation for this exact key/IV/plaintext.
    const auto key = unhexArr<16>("feffe9928665731c6d6a8f9467308308");
    const Iv96 iv = unhexArr<12>("cafebabefacedbaddecaf888");
    const auto pt = unhex(
        "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a31"
        "8a721c3c0c95956809532fcf0e2449a6b525b16aee5aa0de657ba637b391"
        "aafd255f");
    AesGcm gcm(key);
    const auto sealed = gcm.seal(iv, pt);
    EXPECT_EQ(sealed.ciphertext, unhex(
        "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329ac"
        "a12e21d514b25466931c7d8f6a5aac84aa051ba3089660d92fbb210c2839"
        "f76dae8f"));
    EXPECT_EQ(sealed.tag,
              unhexArr<16>("d56ea379ee4d9456e0aa96d5573b878a"));
}

TEST(AesGcm, OpenVerifiesAndDecrypts)
{
    const auto key = unhexArr<16>("feffe9928665731c6d6a8f9467308308");
    const Iv96 iv = unhexArr<12>("cafebabefacedbaddecaf888");
    const std::vector<std::uint8_t> pt(48, 0xab);
    AesGcm gcm(key);
    const auto sealed = gcm.seal(iv, pt);
    std::vector<std::uint8_t> out;
    EXPECT_TRUE(gcm.open(iv, sealed.ciphertext, sealed.tag, out));
    EXPECT_EQ(out, pt);
}

TEST(AesGcm, TamperedCiphertextRejected)
{
    const auto key = unhexArr<16>("feffe9928665731c6d6a8f9467308308");
    const Iv96 iv = unhexArr<12>("cafebabefacedbaddecaf888");
    AesGcm gcm(key);
    auto sealed = gcm.seal(iv, std::vector<std::uint8_t>(32, 0x11));
    sealed.ciphertext[5] ^= 0x01;
    std::vector<std::uint8_t> out;
    EXPECT_FALSE(gcm.open(iv, sealed.ciphertext, sealed.tag, out));
}

TEST(AesGcm, TamperedTagRejected)
{
    const auto key = unhexArr<16>("feffe9928665731c6d6a8f9467308308");
    const Iv96 iv = unhexArr<12>("cafebabefacedbaddecaf888");
    AesGcm gcm(key);
    auto sealed = gcm.seal(iv, std::vector<std::uint8_t>(32, 0x11));
    sealed.tag[0] ^= 0x80;
    std::vector<std::uint8_t> out;
    EXPECT_FALSE(gcm.open(iv, sealed.ciphertext, sealed.tag, out));
}

TEST(AesGcm, AadIsAuthenticated)
{
    const auto key = unhexArr<16>("feffe9928665731c6d6a8f9467308308");
    const Iv96 iv = unhexArr<12>("cafebabefacedbaddecaf888");
    AesGcm gcm(key);
    const std::vector<std::uint8_t> aad = {1, 2, 3, 4};
    const auto sealed =
        gcm.seal(iv, std::vector<std::uint8_t>(16, 0x22), aad);
    std::vector<std::uint8_t> out;
    EXPECT_TRUE(gcm.open(iv, sealed.ciphertext, sealed.tag, out, aad));
    const std::vector<std::uint8_t> bad_aad = {1, 2, 3, 5};
    EXPECT_FALSE(
        gcm.open(iv, sealed.ciphertext, sealed.tag, out, bad_aad));
}

TEST(AesGcm, KeystreamMatchesSealOfZeros)
{
    const auto key = unhexArr<16>("feffe9928665731c6d6a8f9467308308");
    const Iv96 iv = unhexArr<12>("cafebabefacedbaddecaf888");
    AesGcm gcm(key);
    const auto ks = gcm.keystream(iv, 40);
    const auto sealed =
        gcm.seal(iv, std::vector<std::uint8_t>(40, 0));
    EXPECT_EQ(ks, sealed.ciphertext);
}

/** Round-trip property across many lengths (incl. partial blocks). */
class GcmLengths : public ::testing::TestWithParam<std::size_t>
{};

TEST_P(GcmLengths, SealOpenRoundTrips)
{
    const auto key = unhexArr<16>("000102030405060708090a0b0c0d0e0f");
    Iv96 iv{};
    iv[11] = static_cast<std::uint8_t>(GetParam());
    AesGcm gcm(key);
    std::vector<std::uint8_t> pt(GetParam());
    for (std::size_t i = 0; i < pt.size(); ++i)
        pt[i] = static_cast<std::uint8_t>(i * 31 + 7);
    const auto sealed = gcm.seal(iv, pt);
    std::vector<std::uint8_t> out;
    ASSERT_TRUE(gcm.open(iv, sealed.ciphertext, sealed.tag, out));
    EXPECT_EQ(out, pt);
}

INSTANTIATE_TEST_SUITE_P(Lengths, GcmLengths,
                         ::testing::Values(0u, 1u, 15u, 16u, 17u, 31u,
                                           32u, 63u, 64u, 65u, 255u));

// --------------------------------------------------------------------
// Dispatch and portable-vs-SIMD cross-validation.
// --------------------------------------------------------------------

namespace
{

/** Force a crypto tier for one scope, restoring the prior request. */
class ScopedImpl
{
  public:
    explicit ScopedImpl(CryptoImpl impl) : prior_(requestedCryptoImpl())
    {
        setCryptoImpl(impl);
    }
    ~ScopedImpl() { setCryptoImpl(prior_); }

  private:
    CryptoImpl prior_;
};

} // anonymous namespace

TEST(CryptoDispatch, ParseAcceptsCanonicalNames)
{
    CryptoImpl impl = CryptoImpl::Auto;
    EXPECT_TRUE(parseCryptoImpl("portable", impl));
    EXPECT_EQ(impl, CryptoImpl::Portable);
    EXPECT_TRUE(parseCryptoImpl("SIMD", impl));
    EXPECT_EQ(impl, CryptoImpl::Simd);
    EXPECT_TRUE(parseCryptoImpl("Auto", impl));
    EXPECT_EQ(impl, CryptoImpl::Auto);
    EXPECT_FALSE(parseCryptoImpl("avx512", impl));
    EXPECT_STREQ(cryptoImplName(CryptoImpl::Portable), "portable");
    EXPECT_STREQ(cryptoImplName(CryptoImpl::Simd), "simd");
}

TEST(CryptoDispatch, ActiveImplNeverAuto)
{
    ScopedImpl scope(CryptoImpl::Auto);
    EXPECT_NE(activeCryptoImpl(), CryptoImpl::Auto);
}

TEST(CryptoDispatch, ForcedPortableSticksEverywhere)
{
    ScopedImpl scope(CryptoImpl::Portable);
    EXPECT_EQ(activeCryptoImpl(), CryptoImpl::Portable);
    EXPECT_FALSE(simdActive());
}

TEST(CryptoDispatch, ForcedSimdDegradesGracefully)
{
    ScopedImpl scope(CryptoImpl::Simd);
    if (simdAvailable())
        EXPECT_EQ(activeCryptoImpl(), CryptoImpl::Simd);
    else
        EXPECT_EQ(activeCryptoImpl(), CryptoImpl::Portable);
}

TEST(CryptoCross, AesBlocksMatchPortable)
{
    if (!simdAvailable())
        GTEST_SKIP() << "no SIMD tier on this machine/build";
    std::mt19937_64 rng(0xae5);
    for (int trial = 0; trial < 20; ++trial) {
        std::array<std::uint8_t, 16> key;
        for (auto &b : key)
            b = static_cast<std::uint8_t>(rng());
        // 0..25 blocks exercises the empty, sub-8 tail, exact-8, and
        // 8+tail paths of the pipelined loop; +1 offset into the heap
        // buffer keeps every load/store unaligned.
        for (std::size_t nblk : {0u, 1u, 3u, 7u, 8u, 9u, 16u, 25u}) {
            std::vector<std::uint8_t> raw(16 * nblk + 1);
            for (auto &b : raw)
                b = static_cast<std::uint8_t>(rng());
            std::vector<std::uint8_t> a(raw.begin() + 1, raw.end());
            std::vector<std::uint8_t> b = a;
            {
                ScopedImpl scope(CryptoImpl::Portable);
                Aes128(key).encryptBlocks(a.data(), nblk);
            }
            {
                ScopedImpl scope(CryptoImpl::Simd);
                Aes128(key).encryptBlocks(raw.data() + 1, nblk);
            }
            EXPECT_EQ(a, std::vector<std::uint8_t>(raw.begin() + 1,
                                                   raw.end()))
                << "nblk=" << nblk;
            // Batch == repeated single-block, portable tier.
            {
                ScopedImpl scope(CryptoImpl::Portable);
                const Aes128 aes(key);
                for (std::size_t i = 0; i < nblk; ++i) {
                    Block blk;
                    std::memcpy(blk.data(), b.data() + 16 * i, 16);
                    aes.encryptBlock(blk);
                    std::memcpy(b.data() + 16 * i, blk.data(), 16);
                }
            }
            EXPECT_EQ(a, b) << "nblk=" << nblk;
        }
    }
}

TEST(CryptoCross, GhashMatchesPortableAndBitSerialOracle)
{
    if (!simdAvailable())
        GTEST_SKIP() << "no SIMD tier on this machine/build";
    std::mt19937_64 rng(0x56a5);
    for (int trial = 0; trial < 8; ++trial) {
        Block h;
        for (auto &b : h)
            b = static_cast<std::uint8_t>(rng());
        for (std::size_t len : {0u, 1u, 15u, 16u, 17u, 48u, 63u, 64u,
                                65u, 128u, 1000u, 4096u}) {
            std::vector<std::uint8_t> raw(len + 1);
            for (auto &b : raw)
                b = static_cast<std::uint8_t>(rng());
            const std::uint8_t *data = raw.data() + 1;
            Block dp, ds;
            {
                ScopedImpl scope(CryptoImpl::Portable);
                const GhashKey key(h);
                Ghash gh(key);
                gh.updateBytes(data, len);
                dp = gh.digest();
            }
            {
                ScopedImpl scope(CryptoImpl::Simd);
                const GhashKey key(h);
                Ghash gh(key);
                gh.updateBytes(data, len);
                ds = gh.digest();
            }
            EXPECT_EQ(dp, ds) << "len=" << len;
            // Bit-serial gfmul oracle (SP 800-38D algorithm 1).
            const U128 hw = blockToU128(h);
            U128 y{};
            for (std::size_t off = 0; off < len; off += 16) {
                Block blk{};
                std::memcpy(blk.data(), data + off,
                            std::min<std::size_t>(16, len - off));
                const U128 x = blockToU128(blk);
                y.hi ^= x.hi;
                y.lo ^= x.lo;
                y = gfmul(y, hw);
            }
            EXPECT_EQ(u128ToBlock(y), ds) << "len=" << len;
        }
    }
}

TEST(CryptoCross, KeystreamAndTagMatchPortable)
{
    if (!simdAvailable())
        GTEST_SKIP() << "no SIMD tier on this machine/build";
    std::mt19937_64 rng(0x9c3);
    for (int trial = 0; trial < 8; ++trial) {
        std::array<std::uint8_t, 16> key;
        for (auto &b : key)
            b = static_cast<std::uint8_t>(rng());
        Iv96 iv;
        for (auto &b : iv)
            b = static_cast<std::uint8_t>(rng());
        for (std::size_t len : {0u, 1u, 16u, 31u, 64u, 80u, 127u,
                                128u, 129u, 555u, 4096u}) {
            std::vector<std::uint8_t> aad(len / 3 + 1);
            for (auto &b : aad)
                b = static_cast<std::uint8_t>(rng());
            std::vector<std::uint8_t> pt(len + 1);
            for (auto &b : pt)
                b = static_cast<std::uint8_t>(rng());
            std::vector<std::uint8_t> ks_p(len), ks_s(len);
            Block tag_p, tag_s;
            {
                ScopedImpl scope(CryptoImpl::Portable);
                const AesGcm gcm(key);
                gcm.keystreamTo(iv, ks_p.data(), len);
                tag_p = gcm.computeTag(iv, aad.data(), aad.size(),
                                       pt.data() + 1, len);
            }
            {
                ScopedImpl scope(CryptoImpl::Simd);
                const AesGcm gcm(key);
                gcm.keystreamTo(iv, ks_s.data(), len);
                tag_s = gcm.computeTag(iv, aad.data(), aad.size(),
                                       pt.data() + 1, len);
            }
            EXPECT_EQ(ks_p, ks_s) << "len=" << len;
            EXPECT_EQ(tag_p, tag_s) << "len=" << len;
        }
    }
}

TEST(CryptoCross, SealedUnderOneTierOpensUnderTheOther)
{
    if (!simdAvailable())
        GTEST_SKIP() << "no SIMD tier on this machine/build";
    const auto key = unhexArr<16>("000102030405060708090a0b0c0d0e0f");
    Iv96 iv{};
    iv[0] = 0x42;
    std::vector<std::uint8_t> pt(777);
    for (std::size_t i = 0; i < pt.size(); ++i)
        pt[i] = static_cast<std::uint8_t>(i * 131 + 9);
    GcmSealed sealed;
    {
        ScopedImpl scope(CryptoImpl::Simd);
        sealed = AesGcm(key).seal(iv, pt);
    }
    std::vector<std::uint8_t> out;
    {
        ScopedImpl scope(CryptoImpl::Portable);
        ASSERT_TRUE(AesGcm(key).open(iv, sealed.ciphertext,
                                     sealed.tag, out));
    }
    EXPECT_EQ(out, pt);
}
