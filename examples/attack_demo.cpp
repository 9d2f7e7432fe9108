/**
 * @file
 * The threat model, live: a physical attacker on the exposed
 * interconnect meddles with traffic while the system runs with real
 * cryptography (functional-crypto mode). Every manipulation is
 * caught by the receivers' MAC checks; the timing results are
 * unaffected because verification is off the critical path.
 *
 * Usage: attack_demo [workload] (default: mm)
 */

#include <iostream>
#include <string>

#include "core/experiment.hh"
#include "core/report.hh"
#include "core/system.hh"
#include "sim/rng.hh"

using namespace mgsec;

int
main(int argc, char **argv)
{
    const std::string workload = argc > 1 ? argv[1] : "mm";

    ExperimentConfig e;
    e.scheme = OtpScheme::Dynamic;
    e.batching = true;
    e.scale = 0.3;
    SystemConfig sc = makeSystemConfig(e);
    sc.security.functionalCrypto = true;

    std::cout << "attack demo on '" << workload
              << "': Dynamic+Batching with real AES-GCM-derived "
                 "pads and MACs on every message\n\n";

    Table t({"attacker", "messages", "verified", "failed",
             "decrypt errors"});

    // Attackers sit on the exposed wire after accounting (PostWire):
    // they alter what arrives, never the traffic already counted.
    auto run = [&](const char *label, Network::TamperHook tamper) {
        MultiGpuSystem sys(sc, makeProfile(workload, e.scale));
        sys.network().setTamper(Network::TamperPoint::PostWire,
                                std::move(tamper));
        const RunResult r = sys.run();
        std::uint64_t verified = 0, failed = 0, bad = 0, msgs = 0;
        for (NodeId n = 0; n < sys.numNodes(); ++n) {
            verified += sys.node(n).channel().macsVerified();
            failed += sys.node(n).channel().macsFailed();
            bad += sys.node(n).channel().decryptsBad();
        }
        msgs = r.packets;
        t.addRow({label, std::to_string(msgs),
                  std::to_string(verified), std::to_string(failed),
                  std::to_string(bad)});
        return r;
    };

    run("none (clean run)", nullptr);

    // Sparse bit flips in ciphertexts crossing the wire.
    {
        auto rng = std::make_shared<Rng>(7);
        run("bit-flip 1 in 500 blocks", [rng](Packet &p) {
            if (p.func && p.func->hasCipher && rng->chance(0.002))
                p.func->cipher[rng->range(0, 63)] ^= 0x01;
            return Network::TamperVerdict::Forward;
        });
    }

    // Forge every 100th MsgMAC/batched MAC.
    {
        auto rng = std::make_shared<Rng>(11);
        run("MAC forgery 1 in 100", [rng](Packet &p) {
            if (p.func && p.func->hasMac && rng->chance(0.01))
                p.func->mac[0] ^= 0xff;
            return Network::TamperVerdict::Forward;
        });
    }

    // Strip the crypto material from occasional packets entirely.
    {
        auto rng = std::make_shared<Rng>(13);
        run("payload stripping 1 in 1000", [rng](Packet &p) {
            if (p.func && rng->chance(0.001))
                p.func.reset();
            return Network::TamperVerdict::Forward;
        });
    }

    t.print(std::cout);
    std::cout << "\nevery manipulation lands in the 'failed' column;"
                 " a deployment would fence the GPU context on the "
                 "first failure (lazy verification, Sec. IV-C)\n";
    return 0;
}
