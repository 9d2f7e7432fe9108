#include "verify/adversary.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "verify/oracle.hh"

namespace mgsec::verify
{

namespace
{

constexpr Cycles kReplayDelay = 3000;
constexpr Cycles kAckDupDelay = 500;
constexpr Cycles kAckReorderDelay = 2000;

/** Flip one bit of a byte buffer, selected modulo its width. */
void
flipBit(std::uint8_t *buf, std::size_t len, std::uint64_t bit)
{
    bit %= len * 8;
    buf[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
}

bool
isData(const Packet &p)
{
    return p.secured && p.type != PacketType::SecAck &&
           p.type != PacketType::BatchMac;
}

} // anonymous namespace

AdversaryModel::AdversaryModel(EventQueue &eq, Network &net,
                               SecurityOracle *oracle)
    : eq_(eq), net_(net), oracle_(oracle)
{
}

void
AdversaryModel::setScript(std::vector<AttackStep> script)
{
    steps_.clear();
    for (const AttackStep &s : script)
        steps_.push_back(ScriptStep{s, false});
}

void
AdversaryModel::install()
{
    net_.setTamper(Network::TamperPoint::PostWire,
                   [this](Packet &p) { return onWire(p); });
}

std::size_t
AdversaryModel::stepsFired() const
{
    std::size_t n = 0;
    for (const ScriptStep &s : steps_)
        n += s.fired ? 1 : 0;
    return n;
}

bool
AdversaryModel::eligible(AttackClass c, const Packet &p) const
{
    switch (c) {
      case AttackClass::Replay:
      case AttackClass::HeaderFlip:
      case AttackClass::DataDrop:
        return isData(p);
      case AttackClass::PayloadFlip:
        return isData(p) && p.func != nullptr && p.func->hasCipher;
      case AttackClass::MacFlip:
        return isData(p) && p.batchId == 0 && p.hasMac &&
               p.func != nullptr && p.func->hasMac;
      case AttackClass::TrailerCorrupt:
        if (p.func == nullptr || !p.func->hasMac)
            return false;
        return p.type == PacketType::BatchMac ||
               (isData(p) && p.batchId != 0 && p.batchLast);
      case AttackClass::LengthCorrupt:
        return isData(p) && p.batchLen != 0;
      case AttackClass::AckDrop:
      case AttackClass::AckDup:
      case AttackClass::AckReorder:
        return p.type == PacketType::SecAck;
      case AttackClass::Splice: {
        if (!isData(p) || p.func == nullptr || !p.func->hasCipher)
            return false;
        const std::uint64_t self = pairOf(p);
        for (const auto &[pair, cap] : captures_) {
            if (pair != self && cap.hasCipher)
                return true;
        }
        return false;
      }
    }
    return false;
}

bool
AdversaryModel::wasInjected(const Packet &p, bool consume)
{
    const auto it = injected_.find({pairOf(p), p.id});
    if (it == injected_.end())
        return false;
    if (consume && --it->second == 0)
        injected_.erase(it);
    return true;
}

Network::TamperVerdict
AdversaryModel::onWire(Packet &p)
{
    // Never tamper with our own injections. The id record, not the
    // transient flag, is what fires under the kernel's deferred
    // (capture/replay) wire traversal.
    if (wasInjected(p, /*consume=*/true) || injecting_)
        return Network::TamperVerdict::Forward;

    // Count every class's eligibility stream exactly once per
    // packet, then fire at most the first matching script step.
    std::array<bool, kNumAttackClasses> elig{};
    std::array<std::uint32_t, kNumAttackClasses> index{};
    for (std::size_t c = 0; c < kNumAttackClasses; ++c) {
        elig[c] = eligible(static_cast<AttackClass>(c), p);
        if (elig[c])
            index[c] = seen_[c]++;
    }

    Network::TamperVerdict verdict = Network::TamperVerdict::Forward;
    for (ScriptStep &ss : steps_) {
        const auto c = static_cast<std::size_t>(ss.step.cls);
        if (ss.fired || !elig[c] || index[c] != ss.step.nth)
            continue;
        ss.fired = true;
        verdict = apply(ss, p);
        break;
    }

    // Record the wire image (post-mutation: what the probe saw) for
    // later cross-pair splicing.
    if (isData(p) && p.func != nullptr && p.func->hasCipher) {
        Capture &cap = captures_[pairOf(p)];
        cap.cipher = p.func->cipher;
        cap.hasCipher = true;
        if (p.func->hasMac) {
            cap.mac = p.func->mac;
            cap.hasMac = true;
        }
    }
    return verdict;
}

Network::TamperVerdict
AdversaryModel::apply(ScriptStep &ss, Packet &p)
{
    const AttackStep &s = ss.step;
    logAttack(s, p);
    switch (s.cls) {
      case AttackClass::Replay: {
        const Cycles delay =
            s.param != 0 ? static_cast<Cycles>(s.param) : kReplayDelay;
        inject(clonePacket(p), delay, true);
        return Network::TamperVerdict::Forward;
      }
      case AttackClass::PayloadFlip:
        flipBit(p.func->cipher.data(), p.func->cipher.size(),
                s.param != 0 ? s.param : 137);
        if (oracle_ != nullptr)
            oracle_->noteTampered(p.src, p.id, s.cls);
        return Network::TamperVerdict::Forward;
      case AttackClass::MacFlip:
        flipBit(p.func->mac.data(), p.func->mac.size(),
                s.param != 0 ? s.param : 13);
        if (oracle_ != nullptr)
            oracle_->noteTampered(p.src, p.id, s.cls);
        return Network::TamperVerdict::Forward;
      case AttackClass::HeaderFlip:
        p.msgCtr ^= 1ull << (s.param % 64);
        if (oracle_ != nullptr)
            oracle_->noteTampered(p.src, p.id, s.cls);
        return Network::TamperVerdict::Forward;
      case AttackClass::TrailerCorrupt:
        flipBit(p.func->mac.data(), p.func->mac.size(),
                s.param != 0 ? s.param : 5);
        if (oracle_ != nullptr)
            oracle_->noteTampered(p.src, p.id, s.cls);
        return Network::TamperVerdict::Forward;
      case AttackClass::LengthCorrupt: {
        const std::uint64_t delta = s.param != 0 ? s.param : 1;
        const std::uint64_t inflated = p.batchLen + delta;
        p.batchLen = static_cast<std::uint8_t>(
            std::min<std::uint64_t>(inflated, 255));
        if (oracle_ != nullptr)
            oracle_->noteTampered(p.src, p.id, s.cls);
        return Network::TamperVerdict::Forward;
      }
      case AttackClass::AckDrop:
        if (oracle_ != nullptr)
            oracle_->onDropped(p);
        return Network::TamperVerdict::Drop;
      case AttackClass::AckDup: {
        const Cycles delay =
            s.param != 0 ? static_cast<Cycles>(s.param) : kAckDupDelay;
        inject(clonePacket(p), delay, false);
        if (oracle_ != nullptr) {
            oracle_->noteNeutralized(strformat(
                "AckDup of packet id %llu %u->%u: cumulative ACKs "
                "are idempotent",
                static_cast<unsigned long long>(p.id), p.src, p.dst));
        }
        return Network::TamperVerdict::Forward;
      }
      case AttackClass::AckReorder: {
        const Cycles delay = s.param != 0
                                 ? static_cast<Cycles>(s.param)
                                 : kAckReorderDelay;
        inject(clonePacket(p), delay, false);
        if (oracle_ != nullptr) {
            oracle_->noteNeutralized(strformat(
                "AckReorder of packet id %llu %u->%u: the window "
                "only drains later",
                static_cast<unsigned long long>(p.id), p.src, p.dst));
        }
        return Network::TamperVerdict::Drop;
      }
      case AttackClass::Splice: {
        const std::uint64_t self = pairOf(p);
        for (const auto &[pair, cap] : captures_) {
            if (pair == self || !cap.hasCipher)
                continue;
            p.func->cipher = cap.cipher;
            if (p.func->hasMac && cap.hasMac)
                p.func->mac = cap.mac;
            break;
        }
        if (oracle_ != nullptr)
            oracle_->noteTampered(p.src, p.id, s.cls);
        return Network::TamperVerdict::Forward;
      }
      case AttackClass::DataDrop:
        if (oracle_ != nullptr)
            oracle_->onDropped(p);
        return Network::TamperVerdict::Drop;
    }
    return Network::TamperVerdict::Forward;
}

void
AdversaryModel::inject(PacketPtr clone, Cycles delay, bool is_replay)
{
    eq_.scheduleIn(delay,
                   [this, c = std::move(clone), is_replay]() mutable {
                       if (is_replay && oracle_ != nullptr)
                           oracle_->onInjected(*c);
                       injected_[{pairOf(*c), c->id}]++;
                       injecting_ = true;
                       net_.send(std::move(c));
                       injecting_ = false;
                   });
}

void
AdversaryModel::logAttack(const AttackStep &s, const Packet &p)
{
    log_.push_back(strformat(
        "%s nth=%u on %s id=%llu %u->%u ctr=%llu batch=%llu",
        attackClassName(s.cls), s.nth, packetTypeName(p.type),
        static_cast<unsigned long long>(p.id), p.src, p.dst,
        static_cast<unsigned long long>(p.msgCtr),
        static_cast<unsigned long long>(p.batchId)));
}

} // namespace mgsec::verify
