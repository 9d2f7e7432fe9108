/**
 * @file
 * Debug-tracing subsystem tests.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/experiment.hh"
#include "core/system.hh"
#include "sim/debug.hh"
#include "sim/event_queue.hh"
#include "sim/sim_object.hh"

using namespace mgsec;

namespace
{

/** A SimObject emitting through MGSEC_DPRINTF. */
class Chatter : public SimObject
{
  public:
    Chatter(EventQueue &eq) : SimObject("chatter", eq) {}

    void
    say(int x)
    {
        MGSEC_DPRINTF(debug::Channel, "value=%d", x);
    }
};

struct FlagGuard
{
    ~FlagGuard() { debug::DebugFlag::disableAll(); }
};

} // anonymous namespace

TEST(Debug, FlagsStartDisabled)
{
    FlagGuard g;
    debug::DebugFlag::disableAll();
    EXPECT_FALSE(debug::Channel.enabled());
    EXPECT_FALSE(debug::PadTable.enabled());
}

TEST(Debug, DisabledFlagEmitsNothing)
{
    FlagGuard g;
    std::ostringstream os;
    debug::setStream(os);
    EventQueue eq;
    Chatter c(eq);
    c.say(1);
    EXPECT_TRUE(os.str().empty());
}

TEST(Debug, EnabledFlagEmitsTickNameMessage)
{
    FlagGuard g;
    std::ostringstream os;
    debug::setStream(os);
    debug::Channel.enable();
    EventQueue eq;
    Chatter c(eq);
    eq.schedule(123, [&]() { c.say(42); });
    eq.run();
    EXPECT_EQ(os.str(), "123: chatter: value=42\n");
}

TEST(Debug, EnableByNameMatches)
{
    FlagGuard g;
    EXPECT_TRUE(debug::DebugFlag::enableByName("Channel,Batch"));
    EXPECT_TRUE(debug::Channel.enabled());
    EXPECT_TRUE(debug::Batch.enabled());
    EXPECT_FALSE(debug::PadTable.enabled());
}

TEST(Debug, EnableAll)
{
    FlagGuard g;
    EXPECT_TRUE(debug::DebugFlag::enableByName("All"));
    for (const auto *f : debug::DebugFlag::all())
        EXPECT_TRUE(f->enabled()) << f->name();
}

TEST(Debug, UnknownNameReportsFailure)
{
    FlagGuard g;
    EXPECT_FALSE(debug::DebugFlag::enableByName("NoSuchFlag"));
}

TEST(Debug, RegistryHoldsTheComponentFlags)
{
    bool have_channel = false, have_pads = false;
    for (const auto *f : debug::DebugFlag::all()) {
        have_channel |= std::string(f->name()) == "Channel";
        have_pads |= std::string(f->name()) == "PadTable";
    }
    EXPECT_TRUE(have_channel);
    EXPECT_TRUE(have_pads);
}

TEST(Debug, SystemRunProducesChannelTrace)
{
    FlagGuard g;
    std::ostringstream os;
    debug::setStream(os);
    debug::Channel.enable();
    ExperimentConfig e;
    e.scheme = OtpScheme::Private;
    e.scale = 0.02;
    MultiGpuSystem sys(makeSystemConfig(e),
                       makeProfile("mm", e.scale));
    sys.run();
    const std::string out = os.str();
    EXPECT_NE(out.find("send ReadReq"), std::string::npos);
    EXPECT_NE(out.find("recv ReadResp"), std::string::npos);
    EXPECT_NE(out.find("outcome="), std::string::npos);
}

TEST(Debug, TracingRunsTheKernelOnOneWorker)
{
    // Debug flags and the trace stream are process-global and
    // unsynchronized, so concurrent workers would race on them.
    FlagGuard g;
    std::ostringstream os;
    debug::setStream(os);
    debug::Channel.enable();
    ExperimentConfig e;
    e.scheme = OtpScheme::Private;
    e.scale = 0.02;
    e.simThreads = 4;
    MultiGpuSystem sys(makeSystemConfig(e),
                       makeProfile("mm", e.scale));
    EXPECT_EQ(sys.simThreads(), 1u);
    EXPECT_TRUE(sys.run().completed);
}
