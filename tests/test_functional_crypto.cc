/**
 * @file
 * Adversarial tests: the channel runs with real cryptography and a
 * physical attacker (the Network tamper hook) meddles with packets
 * on the exposed interconnect. Every manipulation the threat model
 * cares about must be detected.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/system.hh"
#include "net/network.hh"
#include "secure/secure_channel.hh"
#include "sim/event_queue.hh"

using namespace mgsec;

namespace
{

struct Rig
{
    EventQueue eq;
    Network net;
    std::vector<std::unique_ptr<SecureChannel>> ch;
    std::vector<std::vector<Packet>> delivered;

    explicit Rig(bool batching)
        : net("net", eq, 3, LinkParams{16.0, 50},
              LinkParams{25.0, 10}),
          delivered(3)
    {
        SecurityConfig cfg;
        cfg.scheme = OtpScheme::Private;
        cfg.batching = batching;
        cfg.batchSize = 4;
        cfg.functionalCrypto = true;
        for (NodeId n = 0; n < 3; ++n) {
            ch.push_back(std::make_unique<SecureChannel>(
                strformat("ch%u", n), eq, net, n, cfg));
            ch.back()->setDeliver([this, n](PacketPtr p) {
                delivered[n].push_back(std::move(*p));
            });
        }
    }

    void
    sendData(NodeId src, NodeId dst, int count)
    {
        for (int i = 0; i < count; ++i) {
            auto p = makePacket();
            p->type = PacketType::ReadResp;
            p->src = src;
            p->dst = dst;
            p->payloadBytes = kBlockBytes;
            ch[src]->send(std::move(p));
        }
    }

    std::uint64_t
    verified()
    {
        std::uint64_t n = 0;
        for (auto &c : ch)
            n += c->macsVerified();
        return n;
    }

    std::uint64_t
    failed()
    {
        std::uint64_t n = 0;
        for (auto &c : ch)
            n += c->macsFailed();
        return n;
    }
};

} // anonymous namespace

TEST(FunctionalCrypto, CleanChannelVerifiesEverything)
{
    Rig rig(false);
    rig.sendData(1, 2, 10);
    rig.eq.run();
    EXPECT_EQ(rig.verified(), 10u);
    EXPECT_EQ(rig.failed(), 0u);
    std::uint64_t ok = 0;
    for (auto &c : rig.ch)
        ok += c->decryptsOk();
    EXPECT_EQ(ok, 10u);
}

TEST(FunctionalCrypto, PacketsCarryRealCiphertext)
{
    Rig rig(false);
    rig.sendData(1, 2, 1);
    rig.eq.run();
    ASSERT_EQ(rig.delivered[2].size(), 1u);
    const Packet &p = rig.delivered[2][0];
    ASSERT_NE(p.func, nullptr);
    EXPECT_TRUE(p.func->hasCipher);
    EXPECT_TRUE(p.func->hasMac);
    // The ciphertext must not be the deterministic plaintext.
    bool any_diff = false;
    for (std::size_t i = 0; i < 8; ++i)
        any_diff |= p.func->cipher[i] !=
                    static_cast<std::uint8_t>(i * 7);
    EXPECT_TRUE(any_diff);
}

TEST(FunctionalCrypto, FlippedCiphertextBitIsDetected)
{
    Rig rig(false);
    int hit = 0;
    rig.net.setTamper(Network::TamperPoint::PostWire, [&](Packet &p) {
        if (p.func && p.func->hasCipher && hit++ == 3)
            p.func->cipher[17] ^= 0x01;
        return Network::TamperVerdict::Forward;
    });
    rig.sendData(1, 2, 10);
    rig.eq.run();
    EXPECT_EQ(rig.failed(), 1u);
    EXPECT_EQ(rig.verified(), 9u);
    std::uint64_t bad = 0;
    for (auto &c : rig.ch)
        bad += c->decryptsBad();
    EXPECT_EQ(bad, 1u);
}

TEST(FunctionalCrypto, ForgedMacIsDetected)
{
    Rig rig(false);
    rig.net.setTamper(Network::TamperPoint::PostWire, [&](Packet &p) {
        if (p.func && p.func->hasMac)
            p.func->mac[0] ^= 0xff;
        return Network::TamperVerdict::Forward;
    });
    rig.sendData(1, 2, 5);
    rig.eq.run();
    EXPECT_EQ(rig.verified(), 0u);
    EXPECT_EQ(rig.failed(), 5u);
}

TEST(FunctionalCrypto, StrippedPayloadIsDetected)
{
    Rig rig(false);
    rig.net.setTamper(Network::TamperPoint::PostWire, [&](Packet &p) {
        // The attacker drops the crypto material entirely.
        p.func.reset();
        return Network::TamperVerdict::Forward;
    });
    rig.sendData(1, 2, 4);
    rig.eq.run();
    EXPECT_EQ(rig.verified(), 0u);
    EXPECT_EQ(rig.failed(), 4u);
}

TEST(FunctionalCrypto, CleanBatchVerifiesOnce)
{
    Rig rig(true);
    rig.sendData(1, 2, 4); // exactly one batch
    rig.eq.run();
    EXPECT_EQ(rig.verified(), 1u); // one batched MAC
    EXPECT_EQ(rig.failed(), 0u);
}

TEST(FunctionalCrypto, TamperedBatchMemberBreaksBatchMac)
{
    Rig rig(true);
    int n = 0;
    rig.net.setTamper(Network::TamperPoint::PostWire, [&](Packet &p) {
        if (p.func && p.func->hasCipher && n++ == 1)
            p.func->cipher[0] ^= 0x80;
        return Network::TamperVerdict::Forward;
    });
    rig.sendData(1, 2, 4);
    rig.eq.run();
    EXPECT_EQ(rig.verified(), 0u);
    EXPECT_EQ(rig.failed(), 1u); // the whole batch fails
}

TEST(FunctionalCrypto, FlushedShortBatchStillVerifies)
{
    Rig rig(true);
    rig.sendData(1, 2, 2); // below batch size
    rig.eq.run(30);
    rig.ch[1]->drainBatches(); // standalone trailer
    rig.eq.run();
    EXPECT_EQ(rig.verified(), 1u);
    EXPECT_EQ(rig.failed(), 0u);
}

TEST(FunctionalCrypto, TamperedTrailerDetected)
{
    Rig rig(true);
    rig.net.setTamper(Network::TamperPoint::PostWire, [&](Packet &p) {
        if (p.type == PacketType::BatchMac && p.func)
            p.func->mac[3] ^= 0x10;
        return Network::TamperVerdict::Forward;
    });
    rig.sendData(1, 2, 2);
    rig.eq.run(30);
    rig.ch[1]->drainBatches();
    rig.eq.run();
    EXPECT_EQ(rig.failed(), 1u);
}

TEST(FunctionalCrypto, EndToEndSystemRunStaysClean)
{
    // A whole multi-GPU run with real crypto on every message: all
    // MACs verify, every payload decrypts to what was sent.
    ExperimentConfig e;
    e.scheme = OtpScheme::Dynamic;
    e.batching = true;
    e.scale = 0.05;
    SystemConfig sc = makeSystemConfig(e);
    sc.security.functionalCrypto = true;
    MultiGpuSystem sys(sc, makeProfile("mm", e.scale));
    const RunResult r = sys.run();
    EXPECT_TRUE(r.completed);
    std::uint64_t verified = 0, failed = 0, bad = 0;
    for (NodeId n = 0; n < sys.numNodes(); ++n) {
        verified += sys.node(n).channel().macsVerified();
        failed += sys.node(n).channel().macsFailed();
        bad += sys.node(n).channel().decryptsBad();
    }
    EXPECT_GT(verified, 0u);
    EXPECT_EQ(failed, 0u);
    EXPECT_EQ(bad, 0u);
}

TEST(FunctionalCrypto, MismatchedSessionKeysFailEverything)
{
    EventQueue eq;
    Network net("net", eq, 3, LinkParams{16.0, 50},
                LinkParams{25.0, 10});
    SecurityConfig a;
    a.scheme = OtpScheme::Private;
    a.functionalCrypto = true;
    SecurityConfig b = a;
    b.sessionKey[0] ^= 0x01; // key exchange went wrong

    std::vector<std::unique_ptr<SecureChannel>> ch;
    ch.push_back(std::make_unique<SecureChannel>("c0", eq, net, 0, a));
    ch.push_back(std::make_unique<SecureChannel>("c1", eq, net, 1, a));
    ch.push_back(std::make_unique<SecureChannel>("c2", eq, net, 2, b));
    for (auto &c : ch)
        c->setDeliver([](PacketPtr) {});

    for (int i = 0; i < 5; ++i) {
        auto p = makePacket();
        p->type = PacketType::ReadResp;
        p->src = 1;
        p->dst = 2;
        p->payloadBytes = kBlockBytes;
        ch[1]->send(std::move(p));
    }
    eq.run();
    EXPECT_EQ(ch[2]->macsVerified(), 0u);
    EXPECT_EQ(ch[2]->macsFailed(), 5u);
    EXPECT_EQ(ch[2]->decryptsOk(), 0u);
}

namespace
{

/** One channel's functional-crypto outcome in a pinned run. */
struct ChannelPin
{
    std::uint64_t macsVerified;
    std::uint64_t decryptsOk;
    std::uint64_t ctrGaps;
};

struct FunctionalRunPin
{
    const char *app;
    bool ours; ///< Dynamic + batching; otherwise Private
    std::uint64_t statsHash; ///< FNV-1a 64 of the stats JSON
    ChannelPin nodes[5];     ///< CPU, then the four GPUs
};

/**
 * Recorded from the two-call pad derivation, per-block GHASH and
 * map-held batch MACs that preceded the fused functional path. Every
 * MAC verifies and every payload decrypts in these runs, so a change
 * that only moved bytes around must reproduce the counts exactly;
 * the stats hash covers every other counter of the run.
 */
const FunctionalRunPin kFunctionalRuns[] = {
    {"mm", false, 18108645214593438620ull,
     {{2193, 277, 0}, {7264, 5043, 0}, {7007, 4839, 0},
      {7423, 5498, 0}, {7176, 5106, 0}}},
    {"mm", true, 18383467095389554240ull,
     {{262, 277, 0}, {567, 5043, 0}, {562, 4839, 0}, {602, 5498, 0},
      {568, 5106, 0}}},
    {"spmv", false, 1242745990539498008ull,
     {{1750, 53, 0}, {8738, 4849, 0}, {8997, 4470, 0},
      {8343, 4562, 0}, {7910, 4687, 0}}},
    {"spmv", true, 3368447561090513512ull,
     {{191, 53, 0}, {597, 4849, 0}, {622, 4470, 0}, {573, 4562, 0},
      {544, 4687, 0}}},
};

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 14695981039346656037ull;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

} // anonymous namespace

TEST(FunctionalCrypto, SystemRunsMatchThePinnedReference)
{
    for (const FunctionalRunPin &pin : kFunctionalRuns) {
        for (const std::uint32_t threads : {1u, 2u}) {
            SCOPED_TRACE(std::string(pin.app) +
                         (pin.ours ? " Ours, " : " Private, ") +
                         std::to_string(threads) + " worker(s)");
            ExperimentConfig e;
            e.numGpus = 4;
            e.scheme = pin.ours ? OtpScheme::Dynamic : OtpScheme::Private;
            e.batching = pin.ours;
            e.scale = 0.3;
            e.simThreads = threads;
            SystemConfig sc = makeSystemConfig(e);
            sc.security.functionalCrypto = true;
            // Strong scaling at the 4-GPU baseline leaves the size.
            MultiGpuSystem sys(sc, makeProfile(pin.app, e.scale,
                                               e.numGpus));
            ASSERT_TRUE(sys.run().completed);
            ASSERT_EQ(sys.numNodes(), std::size(pin.nodes));
            for (NodeId n = 0; n < sys.numNodes(); ++n) {
                const SecureChannel &ch = sys.node(n).channel();
                EXPECT_EQ(ch.macsVerified(), pin.nodes[n].macsVerified)
                    << "node " << n;
                EXPECT_EQ(ch.macsFailed(), 0u) << "node " << n;
                EXPECT_EQ(ch.decryptsOk(), pin.nodes[n].decryptsOk)
                    << "node " << n;
                EXPECT_EQ(ch.decryptsBad(), 0u) << "node " << n;
                EXPECT_EQ(ch.ctrGaps(), pin.nodes[n].ctrGaps)
                    << "node " << n;
            }
            std::ostringstream stats;
            sys.dumpStatsJson(stats);
            EXPECT_EQ(fnv1a(stats.str()), pin.statsHash);
        }
    }
}
