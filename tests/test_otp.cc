/**
 * @file
 * Tests of the message-pad derivation and the functional secure
 * message protocol built on it (encrypt + MsgMAC + batched MAC).
 */

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "crypto/otp.hh"

using namespace mgsec;
using namespace mgsec::crypto;

namespace
{

std::array<std::uint8_t, 16>
testKey()
{
    std::array<std::uint8_t, 16> k{};
    for (int i = 0; i < 16; ++i)
        k[static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(0xa0 + i);
    return k;
}

BlockPayload
pattern(std::uint8_t seed)
{
    BlockPayload p;
    for (std::size_t i = 0; i < p.size(); ++i)
        p[i] = static_cast<std::uint8_t>(seed + i * 3);
    return p;
}

template <std::size_t N>
std::string
hex(const std::array<std::uint8_t, N> &bytes)
{
    static const char kDigits[] = "0123456789abcdef";
    std::string s;
    for (const std::uint8_t b : bytes) {
        s += kDigits[b >> 4];
        s += kDigits[b & 0xf];
    }
    return s;
}

/** Known answers for (sender, receiver, ctr) under testKey(). */
struct PadAnswer
{
    NodeId sender;
    NodeId receiver;
    std::uint64_t ctr;
    const char *encPad;
    const char *authPad;
    const char *mac;     ///< over the cipherPattern() payload
    const char *zeroMac; ///< over an all-zero payload
};

/**
 * Recorded from the two-call keystream derivation and the
 * block-at-a-time GHASH that preceded the fused paths. The ids of
 * the second row fill all 12 bits of each id field; the third row's
 * counter is a batch-mask counter (top bit set).
 */
const PadAnswer kPadAnswers[] = {
    {1, 2, 100,
     "e321c9fc1ced9ee02c957a6494a5eae3342db3a043cb56101aafd24ec39ddf5e"
     "536f3b3890da12607c9c09b22fafdce9ed950525d26b00be9d4a3893b4d9d60d",
     "8811e1bd924d94ca4ce5b6f2c462e119", "fe8ae3832420d2f8",
     "1645e6b1277a2045"},
    {0xabc, 0x5de, 0x0123456789abcdefULL,
     "ac495f88800f3d34c05eda3181c06d822189eb16ad98622ee29e22d990c44247"
     "86a17f2c90e8eb20cb4a4862e83448614663acd2bdfcc153bd462ef6c56464a5",
     "5634065d1b1d790fa2ff9b95c7393c7a", "8189aa27ae9f858f",
     "6946af15adc57732"},
    {3, 0, 0x8000000000000007ULL,
     "2df1ac54dd3437450846eeea30b6640609435b497f2dfd7ea857ca6574fc27e8"
     "2efa3732c3c30671097066e1a5efcd5b69999f8e5a7fe0d3c1ffd1d783302613",
     "bd9a35318902f224d109b8e0f92a6470", "4d679ffee498a8ed",
     "a5a89acce7c25a50"},
};

BlockPayload
cipherPattern()
{
    BlockPayload ct;
    for (std::size_t i = 0; i < ct.size(); ++i)
        ct[i] = static_cast<std::uint8_t>(0x11 + i * 5);
    return ct;
}

} // anonymous namespace

TEST(PadFactoryKnownAnswer, DerivedPadsMatchTheRecordedBytes)
{
    PadFactory f(testKey());
    for (const PadAnswer &a : kPadAnswers) {
        SCOPED_TRACE(a.ctr);
        const MessagePad pad = f.derive(a.sender, a.receiver, a.ctr);
        EXPECT_EQ(hex(pad.encPad), a.encPad);
        EXPECT_EQ(hex(pad.authPad), a.authPad);
        EXPECT_EQ(f.authPad(a.sender, a.receiver, a.ctr), pad.authPad);
        EXPECT_EQ(hex(f.mac(cipherPattern(), a.sender, a.receiver,
                            a.ctr, pad)),
                  a.mac);
        EXPECT_EQ(hex(f.mac(BlockPayload{}, a.sender, a.receiver,
                            a.ctr, pad.authPad)),
                  a.zeroMac);
    }
}

TEST(PadFactoryKnownAnswer, AuthPadAloneEqualsTheDerivedOne)
{
    PadFactory f(testKey());
    for (const NodeId s : {0u, 1u, 7u, 0xfffu})
        for (const NodeId r : {0u, 2u, 0x800u})
            for (const std::uint64_t c :
                 {0ULL, 1ULL, 0xffffffffULL, 0x8000000000000001ULL})
                EXPECT_EQ(f.authPad(s, r, c), f.derive(s, r, c).authPad)
                    << s << "->" << r << " ctr " << c;
}

TEST(PadFactoryKnownAnswer, BatchMacsMatchTheRecordedBytes)
{
    // Member i is the MAC of a pattern payload at counter i; the mask
    // is the pad at the batch-mask counter of the batch length.
    const std::pair<std::size_t, const char *> kBatches[] = {
        {1, "e1ef75dd03de1529"},  {13, "1053f81fa2cef270"},
        {16, "dc3e0d9a55a257eb"}, {17, "58cb1b717324df89"},
        {40, "cf233d3819758201"},
    };
    PadFactory f(testKey());
    for (const auto &[n, expect] : kBatches) {
        std::vector<MsgMac> macs;
        for (std::uint64_t c = 0; c < n; ++c) {
            const MessagePad p = f.derive(1, 2, c);
            BlockPayload pt;
            for (std::size_t i = 0; i < pt.size(); ++i)
                pt[i] = static_cast<std::uint8_t>(c + i * 3);
            macs.push_back(f.mac(PadFactory::crypt(pt, p), 1, 2, c, p));
        }
        const std::uint64_t mask_ctr = 0x8000000000000000ULL | n;
        EXPECT_EQ(hex(f.batchMac(macs, f.derive(1, 2, mask_ctr))), expect)
            << n << " members";
        EXPECT_EQ(hex(f.batchMac(macs.data(), macs.size(),
                                 f.authPad(1, 2, mask_ctr))),
                  expect)
            << n << " members";
    }
}

TEST(PadFactory, DerivationIsDeterministic)
{
    PadFactory f(testKey());
    const MessagePad a = f.derive(1, 2, 100);
    const MessagePad b = f.derive(1, 2, 100);
    EXPECT_EQ(a.encPad, b.encPad);
    EXPECT_EQ(a.authPad, b.authPad);
}

TEST(PadFactory, CounterChangesPad)
{
    PadFactory f(testKey());
    EXPECT_NE(f.derive(1, 2, 100).encPad, f.derive(1, 2, 101).encPad);
}

TEST(PadFactory, DirectionChangesPad)
{
    PadFactory f(testKey());
    EXPECT_NE(f.derive(1, 2, 100).encPad, f.derive(2, 1, 100).encPad);
}

TEST(PadFactory, SenderIdChangesPad)
{
    PadFactory f(testKey());
    EXPECT_NE(f.derive(1, 3, 5).encPad, f.derive(2, 3, 5).encPad);
}

TEST(PadFactory, EncAndAuthPadsDiffer)
{
    PadFactory f(testKey());
    const MessagePad p = f.derive(1, 2, 0);
    // The first 16 bytes of the encryption pad must not equal the
    // authentication pad (domain separation).
    const bool same = std::equal(p.authPad.begin(), p.authPad.end(),
                                 p.encPad.begin());
    EXPECT_FALSE(same);
}

TEST(PadFactory, KeyChangesEverything)
{
    auto k2 = testKey();
    k2[15] ^= 0xff;
    PadFactory f1(testKey()), f2(k2);
    EXPECT_NE(f1.derive(1, 2, 7).encPad, f2.derive(1, 2, 7).encPad);
}

TEST(PadFactory, CryptRoundTrips)
{
    PadFactory f(testKey());
    const MessagePad pad = f.derive(3, 1, 42);
    const BlockPayload pt = pattern(0x10);
    const BlockPayload ct = PadFactory::crypt(pt, pad);
    EXPECT_NE(ct, pt);
    EXPECT_EQ(PadFactory::crypt(ct, pad), pt);
}

TEST(PadFactory, MacDetectsDataTamper)
{
    PadFactory f(testKey());
    const MessagePad pad = f.derive(3, 1, 42);
    BlockPayload ct = PadFactory::crypt(pattern(0x33), pad);
    const MsgMac good = f.mac(ct, 3, 1, 42, pad);
    ct[7] ^= 0x01;
    const MsgMac bad = f.mac(ct, 3, 1, 42, pad);
    EXPECT_NE(good, bad);
}

TEST(PadFactory, MacBindsHeaderFields)
{
    PadFactory f(testKey());
    const MessagePad pad = f.derive(3, 1, 42);
    const BlockPayload ct = PadFactory::crypt(pattern(0x33), pad);
    EXPECT_NE(f.mac(ct, 3, 1, 42, pad), f.mac(ct, 3, 1, 43, pad));
    EXPECT_NE(f.mac(ct, 3, 1, 42, pad), f.mac(ct, 3, 2, 42, pad));
}

TEST(PadFactory, ReplayedCounterProducesSamePad)
{
    // The protocol-level replay danger: reusing a counter reuses the
    // pad, which is why the receiver must track freshness.
    PadFactory f(testKey());
    EXPECT_EQ(f.derive(1, 2, 9).encPad, f.derive(1, 2, 9).encPad);
}

TEST(PadFactory, BatchMacCoversAllMembers)
{
    PadFactory f(testKey());
    const MessagePad first = f.derive(1, 2, 0);
    std::vector<MsgMac> macs;
    for (std::uint64_t c = 0; c < 16; ++c) {
        const MessagePad p = f.derive(1, 2, c);
        const BlockPayload ct = PadFactory::crypt(
            pattern(static_cast<std::uint8_t>(c)), p);
        macs.push_back(f.mac(ct, 1, 2, c, p));
    }
    const MsgMac whole = f.batchMac(macs, first);
    // Any single member change must change the batched MAC.
    auto mutated = macs;
    mutated[7][0] ^= 1;
    EXPECT_NE(f.batchMac(mutated, first), whole);
    // Order matters (the receiver reassembles in counter order).
    auto swapped = macs;
    std::swap(swapped[0], swapped[1]);
    EXPECT_NE(f.batchMac(swapped, first), whole);
}

TEST(Protocol, EndToEndSecureMessageExchange)
{
    // Full Fig. 5 flow, functionally: sender encrypts and MACs;
    // receiver derives the same pad from (sender, receiver, ctr),
    // checks the MAC, decrypts.
    PadFactory sender(testKey());
    PadFactory receiver(testKey());
    const NodeId src = 2, dst = 4;
    const std::uint64_t ctr = 77;

    const BlockPayload pt = pattern(0x5a);
    const MessagePad spad = sender.derive(src, dst, ctr);
    const BlockPayload ct = PadFactory::crypt(pt, spad);
    const MsgMac mac = sender.mac(ct, src, dst, ctr, spad);

    const MessagePad rpad = receiver.derive(src, dst, ctr);
    EXPECT_EQ(receiver.mac(ct, src, dst, ctr, rpad), mac);
    EXPECT_EQ(PadFactory::crypt(ct, rpad), pt);
}

TEST(Protocol, WrongCounterFailsAuthentication)
{
    PadFactory f(testKey());
    const BlockPayload pt = pattern(0x77);
    const MessagePad spad = f.derive(1, 2, 10);
    const BlockPayload ct = PadFactory::crypt(pt, spad);
    const MsgMac mac = f.mac(ct, 1, 2, 10, spad);

    // Receiver expecting counter 11 derives a different pad: the MAC
    // check fails and the "plaintext" is garbage.
    const MessagePad rpad = f.derive(1, 2, 11);
    EXPECT_NE(f.mac(ct, 1, 2, 11, rpad), mac);
    EXPECT_NE(PadFactory::crypt(ct, rpad), pt);
}

class PadDistinctness : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(PadDistinctness, NearbyCountersNeverCollide)
{
    PadFactory f(testKey());
    const std::uint64_t base = GetParam();
    const MessagePad p0 = f.derive(1, 2, base);
    for (std::uint64_t d = 1; d <= 8; ++d) {
        EXPECT_NE(f.derive(1, 2, base + d).encPad, p0.encPad);
        EXPECT_NE(f.derive(1, 2, base + d).authPad, p0.authPad);
    }
}

INSTANTIATE_TEST_SUITE_P(Bases, PadDistinctness,
                         ::testing::Values(0ull, 1ull, 255ull,
                                           65536ull,
                                           0xffffffffull,
                                           0x123456789abcULL));
