/**
 * @file
 * One-time-pad derivation for inter-processor secure communication.
 *
 * Following the paper (Fig. 4), a pad is derived from a seed made of
 * the per-pair message counter (MsgCTR), the sender id and the
 * receiver id, run through AES in counter mode:
 *
 *   - a 64-byte encryption pad (XORed with the cache-block payload),
 *   - a 16-byte authentication pad (masks the GHASH of the message).
 *
 * The MsgMAC is the first 8 bytes of GHASH(ciphertext || header)
 * XORed with the authentication pad, matching the 8 B MsgMAC the
 * paper's metadata accounting uses.
 */

#ifndef MGSEC_CRYPTO_OTP_HH
#define MGSEC_CRYPTO_OTP_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "crypto/ghash.hh"
#include "sim/types.hh"

namespace mgsec::crypto
{

/** Pads pre-generated for one (sender, receiver, MsgCTR) triple. */
struct MessagePad
{
    std::array<std::uint8_t, 64> encPad{};
    std::array<std::uint8_t, 16> authPad{};
};

/** 8-byte message authentication code. */
using MsgMac = std::array<std::uint8_t, 8>;

/** A 64-byte wire payload (one cache block). */
using BlockPayload = std::array<std::uint8_t, 64>;

/**
 * Derives pads and MACs from a session key shared at boot.
 * Stateless with respect to counters: callers (the pad tables) own
 * counter sequencing.
 *
 * Every call pays only for the primitive blocks it uses: derive() is
 * one five-block AES call, authPad() one block, mac() one five-block
 * GHASH pass and batchMac() one pass over its zero-padded members.
 * The crypto tier is still chosen per call.
 */
class PadFactory
{
  public:
    explicit PadFactory(const std::array<std::uint8_t, 16> &session_key);

    /** Derive the pad for (sender -> receiver, ctr). Deterministic. */
    MessagePad derive(NodeId sender, NodeId receiver,
                      std::uint64_t ctr) const;

    /**
     * The authentication pad alone: derive(...).authPad, for a fifth
     * of the AES work. Messages without a payload and batch masks
     * use only these 16 bytes.
     */
    Block authPad(NodeId sender, NodeId receiver,
                  std::uint64_t ctr) const;

    /** XOR a payload with a pad (encrypt == decrypt). */
    static BlockPayload crypt(const BlockPayload &data,
                              const MessagePad &pad);

    /** MsgMAC over a ciphertext with the pad's auth component. */
    MsgMac mac(const BlockPayload &cipher, NodeId sender,
               NodeId receiver, std::uint64_t ctr,
               const MessagePad &pad) const
    {
        return mac(cipher, sender, receiver, ctr, pad.authPad);
    }

    /** mac() given the authentication pad alone (see authPad()). */
    MsgMac mac(const BlockPayload &cipher, NodeId sender,
               NodeId receiver, std::uint64_t ctr,
               const Block &auth_pad) const;

    /**
     * Batched MsgMAC per the paper's Eq. 5: GHASH over the
     * concatenation of the per-message MACs, masked by the pad of the
     * batch's first message.
     */
    MsgMac batchMac(const std::vector<MsgMac> &macs,
                    const MessagePad &first_pad) const
    {
        return batchMac(macs.data(), macs.size(), first_pad.authPad);
    }

    /** batchMac() over @p n MACs given the mask's auth pad alone. */
    MsgMac batchMac(const MsgMac *macs, std::size_t n,
                    const Block &auth_pad) const;

  private:
    Aes128 aes_;
    /** GHASH tables for H = E_K(0^128), shared by every MAC. */
    GhashKey hkey_;
};

} // namespace mgsec::crypto

#endif // MGSEC_CRYPTO_OTP_HH
