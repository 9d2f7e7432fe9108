#include "verify/testbed.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/parallel_kernel.hh"

namespace mgsec::verify
{

namespace
{

/** Quiet period after the last scheduled event of interest. */
constexpr Cycles kSettle = 30000;

} // anonymous namespace

VerifyTestbed::VerifyTestbed(const TestbedConfig &cfg) : cfg_(cfg)
{
    MGSEC_ASSERT(cfg_.numNodes >= 2, "testbed needs >= 2 nodes");
    MGSEC_ASSERT(cfg_.scheme != OtpScheme::Unsecure,
                 "nothing to verify on an unsecured channel");

    sec_.scheme = cfg_.scheme;
    sec_.batching = cfg_.batching;
    sec_.batchSize = cfg_.batchSize;
    sec_.functionalCrypto = true;

    sim_threads_ = std::min(std::max(cfg_.simThreads, 1u),
                            cfg_.numNodes);
    domains_.push_back(std::make_unique<Domain>(0, eq_));
    for (NodeId n = 1; n < cfg_.numNodes; ++n)
        domains_.push_back(std::make_unique<Domain>(n));

    net_ = std::make_unique<Network>("net", eq_, cfg_.numNodes,
                                     LinkParams{16.0, 50},
                                     LinkParams{25.0, 10},
                                     cfg_.topology);
    for (NodeId n = 0; n < cfg_.numNodes; ++n) {
        channels_.push_back(std::make_unique<SecureChannel>(
            strformat("ch%u", n), domains_[n]->eq(), *net_, n, sec_));
        channels_.back()->setDeliver(
            [this](PacketPtr) { ++delivered_; });
    }
    oracle_ = std::make_unique<SecurityOracle>(cfg_.numNodes, sec_);
    adversary_ =
        std::make_unique<AdversaryModel>(eq_, *net_, oracle_.get());
    adversary_->setScript(cfg_.script);
    factory_ = std::make_unique<crypto::PadFactory>(sec_.sessionKey);
    net_->setParallelCapture(true);
    oracle_->setConcurrent(sim_threads_ > 1);
    mountHooks();
}

void
VerifyTestbed::mountHooks()
{
    // Pre-wire: the genuine stream, before accounting and before the
    // adversary — where a buggy channel (seeded or real) shows.
    net_->setTamper(
        Network::TamperPoint::PreWire, [this](Packet &p) {
            // The id record, not the transient injecting() flag:
            // under capture mode this hook runs at barrier replay,
            // after the flag has reset (peek only — the adversary's
            // own PostWire hook consumes the record).
            if (adversary_->injecting() ||
                adversary_->wasInjected(p, /*consume=*/false))
                return Network::TamperVerdict::Forward;
            if (cfg_.bug != SeededBug::None)
                maybeSeedBug(p);
            oracle_->onSent(p);
            return Network::TamperVerdict::Forward;
        });
    // Post-wire: the physical attacker.
    adversary_->install();
    // Delivery: the oracle sees what actually arrives, then the
    // channel runs its own checks on the same bytes.
    for (NodeId n = 0; n < cfg_.numNodes; ++n) {
        net_->setHandler(n, [this, n](PacketPtr pkt) {
            oracle_->onDelivered(*pkt);
            channels_[n]->handleArrival(std::move(pkt));
        });
    }
}

void
VerifyTestbed::scheduleTraffic()
{
    Rng rng(cfg_.seed);
    Tick t = 10;
    for (std::uint32_t i = 0; i < cfg_.messages; ++i) {
        const NodeId src = rng.below(cfg_.numNodes);
        NodeId dst = rng.below(cfg_.numNodes - 1);
        if (dst >= src)
            ++dst;
        const bool req = rng.below(100) < cfg_.requestPercent;
        const std::uint64_t addr = rng.next() & 0xffffffc0ULL;
        // On the sender's own queue, so the kernel executes the send
        // inside src's domain window with src's local clock.
        domains_[src]->eq().schedule(t, [this, src, dst, req, addr]() {
            auto p = makePacket();
            p->src = src;
            p->dst = dst;
            if (req) {
                p->type = PacketType::ReadReq;
                p->addr = addr;
            } else {
                p->type = PacketType::ReadResp;
                p->payloadBytes = kBlockBytes;
            }
            channels_[src]->send(std::move(p));
        });
        last_send_ = t;
        t += 1 + rng.below(static_cast<std::uint32_t>(2 * cfg_.gap));
    }
}

void
VerifyTestbed::refreshCrypto(Packet &p) const
{
    if (p.func == nullptr)
        return;
    const crypto::MessagePad pad =
        factory_->derive(p.src, p.dst, p.msgCtr);
    if (p.func->hasCipher) {
        p.func->cipher = crypto::PadFactory::crypt(
            SecureChannel::synthesize(p.src, p.dst, p.msgCtr), pad);
    }
    if (p.func->hasMac && p.batchId == 0) {
        crypto::BlockPayload cipher{};
        if (p.func->hasCipher)
            cipher = p.func->cipher;
        p.func->mac =
            factory_->mac(cipher, p.src, p.dst, p.msgCtr, pad);
    }
}

void
VerifyTestbed::maybeSeedBug(Packet &p)
{
    if (!p.secured || p.type == PacketType::SecAck ||
        p.type == PacketType::BatchMac)
        return;

    switch (cfg_.bug) {
      case SeededBug::None:
        return;
      case SeededBug::CounterSkip:
        // From the trigger on, the triggering sender's counters run
        // one ahead, crypto recomputed consistently: a self-
        // consistent but wrong stream.
        if (!bug_armed_ && bug_seen_ == cfg_.bugTrigger) {
            bug_armed_ = true;
            bug_src_ = p.src;
        }
        ++bug_seen_;
        if (bug_armed_ && p.src == bug_src_) {
            ++p.msgCtr;
            refreshCrypto(p);
        }
        return;
      case SeededBug::StaleCipher: {
        if (p.func == nullptr || !p.func->hasCipher || p.msgCtr == 0)
            return;
        if (!bug_fired_ && bug_seen_ == cfg_.bugTrigger) {
            bug_fired_ = true;
            // Encrypt with the previous counter's pad (pad reuse),
            // then recompute the MAC over that ciphertext with the
            // right pad so MAC verification still passes.
            const crypto::MessagePad stale =
                factory_->derive(p.src, p.dst, p.msgCtr - 1);
            p.func->cipher = crypto::PadFactory::crypt(
                SecureChannel::synthesize(p.src, p.dst, p.msgCtr), stale);
            if (p.func->hasMac && p.batchId == 0) {
                const crypto::MessagePad pad =
                    factory_->derive(p.src, p.dst, p.msgCtr);
                p.func->mac = factory_->mac(p.func->cipher, p.src,
                                            p.dst, p.msgCtr, pad);
            }
        }
        ++bug_seen_;
        return;
      }
    }
}

void
VerifyTestbed::runUntil(Tick until)
{
    // The kernel stops once the queues drain or time passes `until`;
    // the bound matters because the Dynamic scheme's adjustment timer
    // re-arms forever. One kernel per leg, resuming at the window the
    // previous leg stopped before. Lookahead = the minimum
    // cross-domain link latency, exactly as in the system proper.
    ParallelKernelConfig k;
    for (auto &d : domains_)
        k.domains.push_back(d.get());
    k.threads = sim_threads_;
    k.lookahead = net_->topology().minLatency();
    k.maxCycles = until;
    k.exchange = [this]() {
        return net_->replayCaptured([this](NodeId n) -> EventQueue & {
            return domains_[n]->eq();
        });
    };
    ParallelKernel kernel(std::move(k));
    pdes_next_ = kernel.run(pdes_next_);
}

TestbedResult
VerifyTestbed::run()
{
    scheduleTraffic();
    runUntil(last_send_ + kSettle);
    // Drain each channel inside its own domain (a drain sends
    // packets, which must be captured on the sender's lane with the
    // sender's clock), then settle.
    for (NodeId n = 0; n < cfg_.numNodes; ++n) {
        EventQueue &q = domains_[n]->eq();
        q.schedule(std::max(pdes_next_, q.now()),
                   [this, n]() { channels_[n]->drainBatches(); });
    }
    runUntil(pdes_next_ + kSettle);

    TestbedResult r;
    std::vector<SecureChannel *> chans;
    for (auto &ch : channels_)
        chans.push_back(ch.get());
    r.findings = oracle_->finalize(chans);

    for (auto &ch : channels_) {
        r.macsVerified += ch->macsVerified();
        r.macsFailed += ch->macsFailed();
        r.decryptsOk += ch->decryptsOk();
        r.decryptsBad += ch->decryptsBad();
        r.replaySuspects += ch->replaySuspects();
        r.ctrGaps += ch->ctrGaps();
        r.outstandingTotal += ch->replayWindow().outstandingTotal();
    }
    r.delivered = delivered_;
    r.droppedPackets = net_->droppedPackets();
    r.strandedBatches = oracle_->strandedGenuineBatches();
    r.attacksMounted = adversary_->attacksMounted();
    r.stepsFired = adversary_->stepsFired();
    r.neutralized = oracle_->neutralizedNotes();
    r.attackLog = adversary_->attackLog();
    return r;
}

} // namespace mgsec::verify
