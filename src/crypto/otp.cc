#include "crypto/otp.hh"

#include <algorithm>
#include <cstring>

namespace mgsec::crypto
{

namespace
{

/**
 * Each pad stream is the GCM keystream of its seed IV, which starts
 * at counter block inc32(J0) = IV || 2.
 */
constexpr std::uint32_t kFirstCounter = 2;

/** IV domain separators: encryption pad vs authentication pad. */
constexpr std::uint8_t kEncDomain = 0x01;
constexpr std::uint8_t kAuthDomain = 0x02;

constexpr std::size_t kEncBlocks = 64 / 16;

/**
 * Seed IV of the pad for (sender -> receiver, ctr) in @p domain:
 * 8 B counter, then sender/receiver ids (12 bits each) and a 1-byte
 * domain separator, written as the first 12 bytes of @p blk.
 */
inline void
writeSeedIv(std::uint8_t *blk, NodeId sender, NodeId receiver,
            std::uint64_t ctr, std::uint8_t domain)
{
    store64be(blk, ctr);
    blk[8] = static_cast<std::uint8_t>(sender & 0xff);
    blk[9] = static_cast<std::uint8_t>(((sender >> 8) & 0x0f) |
                                       ((receiver & 0x0f) << 4));
    blk[10] = static_cast<std::uint8_t>((receiver >> 4) & 0xff);
    blk[11] = domain;
}

/** XOR the masked half of a GHASH digest into an 8-byte MAC. */
inline MsgMac
maskDigest(const Ghash &gh, const std::uint8_t *mask)
{
    const Block digest = gh.digest();
    MsgMac out;
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = static_cast<std::uint8_t>(digest[i] ^ mask[i]);
    return out;
}

} // anonymous namespace

PadFactory::PadFactory(const std::array<std::uint8_t, 16> &session_key)
    : aes_(session_key), hkey_(aes_.encrypt(Block{}))
{}

MessagePad
PadFactory::derive(NodeId sender, NodeId receiver,
                   std::uint64_t ctr) const
{
    // Four encryption-pad counter blocks and the auth-pad block go
    // through the cipher together: one call, one tier dispatch.
    alignas(16) std::uint8_t ks[(kEncBlocks + 1) * 16];
    writeSeedIv(ks, sender, receiver, ctr, kEncDomain);
    for (std::size_t i = 1; i < kEncBlocks; ++i)
        std::memcpy(ks + 16 * i, ks, 12);
    for (std::size_t i = 0; i < kEncBlocks; ++i) {
        store32be(ks + 16 * i + 12,
                  kFirstCounter + static_cast<std::uint32_t>(i));
    }
    std::uint8_t *auth = ks + 16 * kEncBlocks;
    std::memcpy(auth, ks, 11);
    auth[11] = kAuthDomain;
    store32be(auth + 12, kFirstCounter);
    aes_.encryptBlocks(ks, kEncBlocks + 1);

    MessagePad pad;
    std::memcpy(pad.encPad.data(), ks, pad.encPad.size());
    std::memcpy(pad.authPad.data(), auth, pad.authPad.size());
    return pad;
}

Block
PadFactory::authPad(NodeId sender, NodeId receiver,
                    std::uint64_t ctr) const
{
    Block b;
    writeSeedIv(b.data(), sender, receiver, ctr, kAuthDomain);
    store32be(b.data() + 12, kFirstCounter);
    aes_.encryptBlock(b);
    return b;
}

BlockPayload
PadFactory::crypt(const BlockPayload &data, const MessagePad &pad)
{
    // XOR is bytewise, so word-at-a-time needs no endian care.
    BlockPayload out;
    static_assert(std::tuple_size<BlockPayload>::value % 8 == 0);
    for (std::size_t i = 0; i < data.size(); i += 8) {
        std::uint64_t a, k;
        std::memcpy(&a, data.data() + i, 8);
        std::memcpy(&k, pad.encPad.data() + i, 8);
        a ^= k;
        std::memcpy(out.data() + i, &a, 8);
    }
    return out;
}

MsgMac
PadFactory::mac(const BlockPayload &cipher, NodeId sender,
                NodeId receiver, std::uint64_t ctr,
                const Block &auth_pad) const
{
    // cipher || header as one run of five blocks. The header block:
    // 8 B counter, then sender and receiver ids as 16-bit fields —
    // all big-endian through the shared store helpers, like every
    // other wire-format block.
    alignas(16) std::uint8_t buf[sizeof(BlockPayload) + 16];
    std::memcpy(buf, cipher.data(), cipher.size());
    std::uint8_t *hdr = buf + cipher.size();
    store64be(hdr, ctr);
    store64be(hdr + 8, (static_cast<std::uint64_t>(sender) << 48) |
                           (static_cast<std::uint64_t>(receiver) << 32));
    Ghash gh(hkey_);
    gh.updateBlocks(buf, sizeof(buf) / 16);
    return maskDigest(gh, auth_pad.data());
}

MsgMac
PadFactory::batchMac(const MsgMac *macs, std::size_t n,
                     const Block &auth_pad) const
{
    // Each 8-byte member is zero-padded to a block (GCM's rule for a
    // short final block), and the members go through GHASH as one
    // run: a single pass for any batch the 1-byte length field can
    // describe.
    constexpr std::size_t kRunBlocks = 256;
    alignas(16) std::uint8_t buf[kRunBlocks * 16];
    Ghash gh(hkey_);
    while (n > 0) {
        const std::size_t k = std::min(n, kRunBlocks);
        for (std::size_t i = 0; i < k; ++i) {
            std::memcpy(buf + 16 * i, macs[i].data(), 8);
            std::memset(buf + 16 * i + 8, 0, 8);
        }
        gh.updateBlocks(buf, k);
        macs += k;
        n -= k;
    }
    return maskDigest(gh, auth_pad.data() + 8);
}

} // namespace mgsec::crypto
