/**
 * @file
 * Golden-bytes tests for TraceSink. The sink formats into its own
 * buffer with std::to_chars; every expected string below is the
 * output of the earlier `ostream <<` formatter for the same calls,
 * so any drift in number formatting, separators, escaping or the
 * embedded-buffer splice shows up as a byte difference.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "sim/trace_sink.hh"

using namespace mgsec;

namespace
{

/** Records the size of every bulk write a stream makes. */
struct WriteLog : std::stringbuf
{
    std::vector<std::streamsize> writes;

    std::streamsize
    xsputn(const char *s, std::streamsize n) override
    {
        writes.push_back(n);
        return std::stringbuf::xsputn(s, n);
    }
};

const char *const kHeader = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
const char *const kFooter = "\n]}\n";

} // namespace

TEST(TraceSink, EveryEventKindMatchesStreamFormatting)
{
    std::ostringstream os;
    {
        TraceSink t(os);
        t.metadata(0, "process_name", "mgsec \"mm\"\\ \t\x01");
        t.metadata(1, "thread_name", "gpu1");
        t.complete(1, "packet", "data", 100, 42);
        t.complete(2, "net", "hop", 18446744073709551615ULL, 7, "bytes",
                   4096);
        t.instant(3, "pad", "sendMiss", 12345);
        t.instant(3, "ewma", "repartition", 12346, "weight", 0.502073);
        t.counter(4, "ewma", "S", 200, 1e-07);
        t.counter(4, "ewma", "S", 201, 1234567.0);
        t.counter(4, "ewma", "S", 202, 100);
        t.counter(4, "ewma", "S", 203, -0.5);
        t.counter(4, "ewma", "S", 204, 0);
        t.counter(4, "ewma", "S", 205, 1.0 / 3.0);
        t.counter(4, "ewma", "S", 206, 123456);
        t.counter(4, "ewma", "S", 207, 0.0001);
        t.counter(4, "ewma", "S", 208, 0.00001);
        t.counter(4, "ewma", "S", 209, -0.0);
        t.counter(4, "ewma", "S", 210, 1e300);
        t.counter(4, "ewma", "S", 211, 5e-324);
        t.counter(4, "ewma", "S", 212, 999999.5);
        t.instant(5, "replay", "overflow", 0, "span", 65536.0);
        EXPECT_EQ(t.events(), 20u);
        t.finish();
        t.finish(); // idempotent
    }
    const std::string want =
        "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
        "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\","
        "\"args\":{\"name\":\"mgsec \\\"mm\\\"\\\\ \\t\\u0001\"}},\n"
        "{\"ph\":\"M\",\"pid\":0,\"tid\":1,\"name\":\"thread_name\","
        "\"args\":{\"name\":\"gpu1\"}},\n"
        "{\"ph\":\"X\",\"pid\":0,\"tid\":1,\"cat\":\"packet\","
        "\"name\":\"data\",\"ts\":100,\"dur\":42},\n"
        "{\"ph\":\"X\",\"pid\":0,\"tid\":2,\"cat\":\"net\",\"name\":\"hop\","
        "\"ts\":18446744073709551615,\"dur\":7,\"args\":{\"bytes\":4096}},\n"
        "{\"ph\":\"i\",\"pid\":0,\"tid\":3,\"cat\":\"pad\","
        "\"name\":\"sendMiss\",\"ts\":12345,\"s\":\"t\"},\n"
        "{\"ph\":\"i\",\"pid\":0,\"tid\":3,\"cat\":\"ewma\","
        "\"name\":\"repartition\",\"ts\":12346,\"s\":\"t\","
        "\"args\":{\"weight\":0.502073}},\n"
        "{\"ph\":\"C\",\"pid\":0,\"tid\":4,\"cat\":\"ewma\",\"name\":\"S\","
        "\"ts\":200,\"args\":{\"S\":1e-07}},\n"
        "{\"ph\":\"C\",\"pid\":0,\"tid\":4,\"cat\":\"ewma\",\"name\":\"S\","
        "\"ts\":201,\"args\":{\"S\":1.23457e+06}},\n"
        "{\"ph\":\"C\",\"pid\":0,\"tid\":4,\"cat\":\"ewma\",\"name\":\"S\","
        "\"ts\":202,\"args\":{\"S\":100}},\n"
        "{\"ph\":\"C\",\"pid\":0,\"tid\":4,\"cat\":\"ewma\",\"name\":\"S\","
        "\"ts\":203,\"args\":{\"S\":-0.5}},\n"
        "{\"ph\":\"C\",\"pid\":0,\"tid\":4,\"cat\":\"ewma\",\"name\":\"S\","
        "\"ts\":204,\"args\":{\"S\":0}},\n"
        "{\"ph\":\"C\",\"pid\":0,\"tid\":4,\"cat\":\"ewma\",\"name\":\"S\","
        "\"ts\":205,\"args\":{\"S\":0.333333}},\n"
        "{\"ph\":\"C\",\"pid\":0,\"tid\":4,\"cat\":\"ewma\",\"name\":\"S\","
        "\"ts\":206,\"args\":{\"S\":123456}},\n"
        "{\"ph\":\"C\",\"pid\":0,\"tid\":4,\"cat\":\"ewma\",\"name\":\"S\","
        "\"ts\":207,\"args\":{\"S\":0.0001}},\n"
        "{\"ph\":\"C\",\"pid\":0,\"tid\":4,\"cat\":\"ewma\",\"name\":\"S\","
        "\"ts\":208,\"args\":{\"S\":1e-05}},\n"
        "{\"ph\":\"C\",\"pid\":0,\"tid\":4,\"cat\":\"ewma\",\"name\":\"S\","
        "\"ts\":209,\"args\":{\"S\":-0}},\n"
        "{\"ph\":\"C\",\"pid\":0,\"tid\":4,\"cat\":\"ewma\",\"name\":\"S\","
        "\"ts\":210,\"args\":{\"S\":1e+300}},\n"
        "{\"ph\":\"C\",\"pid\":0,\"tid\":4,\"cat\":\"ewma\",\"name\":\"S\","
        "\"ts\":211,\"args\":{\"S\":4.94066e-324}},\n"
        "{\"ph\":\"C\",\"pid\":0,\"tid\":4,\"cat\":\"ewma\",\"name\":\"S\","
        "\"ts\":212,\"args\":{\"S\":1e+06}},\n"
        "{\"ph\":\"i\",\"pid\":0,\"tid\":5,\"cat\":\"replay\","
        "\"name\":\"overflow\",\"ts\":0,\"s\":\"t\","
        "\"args\":{\"span\":65536}}\n"
        "]}\n";
    EXPECT_EQ(os.str(), want);
}

TEST(TraceSink, PacketEventWritesItsStagesAsArgs)
{
    std::ostringstream os;
    {
        TraceSink t(os);
        t.packet(2, "ReadResp", 1, 1040,
                 LifeStamps{100, 100, 130, 131, 291, 300});
        // Every number at its widest.
        const Tick top = 18446744073709551615ULL;
        t.packet(4294967295u, "TransResp", 4294967295u, top,
                 LifeStamps{0, 0, 0, 0, 0, top});
        EXPECT_EQ(t.events(), 2u);
    }
    EXPECT_EQ(os.str(),
              std::string(kHeader) +
                  "\n{\"ph\":\"X\",\"pid\":0,\"tid\":2,\"cat\":\"packet\","
                  "\"name\":\"ReadResp\",\"ts\":100,\"dur\":200,"
                  "\"args\":{\"src\":1,\"bytes\":1040,\"padClaim\":0,"
                  "\"padWait\":30,\"xmit\":1,\"wire\":160,"
                  "\"recvVerify\":9}},\n"
                  "{\"ph\":\"X\",\"pid\":0,\"tid\":4294967295,"
                  "\"cat\":\"packet\",\"name\":\"TransResp\",\"ts\":0,"
                  "\"dur\":18446744073709551615,\"args\":{"
                  "\"src\":4294967295,\"bytes\":18446744073709551615,"
                  "\"padClaim\":0,\"padWait\":0,\"xmit\":0,\"wire\":0,"
                  "\"recvVerify\":18446744073709551615}}" +
                  kFooter);
}

TEST(TraceSink, SpliceDropsLeadingCommaOnEmptyMaster)
{
    std::ostringstream os;
    TraceSink master(os);
    TraceSink e1(TraceSink::Embedded{});
    TraceSink e2(TraceSink::Embedded{});
    e1.complete(1, "packet", "data", 5, 6);
    e1.instant(1, "batch", "close", 7);
    e2.counter(2, "ewma", "S", 8, 0.25);
    master.splice(e1); // master still empty: no leading comma
    master.splice(e2);
    EXPECT_EQ(e1.events(), 0u);
    EXPECT_EQ(e2.events(), 0u);
    master.complete(0, "memprot", "walk", 9, 10);
    e2.instant(2, "pad", "recvMiss", 11);
    master.splice(e1); // empty buffer: nothing spliced
    master.splice(e2);
    EXPECT_EQ(master.events(), 5u);
    // Embedded sinks have no stream: finish() writes nothing.
    e1.finish();
    master.finish();
    EXPECT_EQ(
        os.str(),
        "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
        "{\"ph\":\"X\",\"pid\":0,\"tid\":1,\"cat\":\"packet\","
        "\"name\":\"data\",\"ts\":5,\"dur\":6},\n"
        "{\"ph\":\"i\",\"pid\":0,\"tid\":1,\"cat\":\"batch\","
        "\"name\":\"close\",\"ts\":7,\"s\":\"t\"},\n"
        "{\"ph\":\"C\",\"pid\":0,\"tid\":2,\"cat\":\"ewma\",\"name\":\"S\","
        "\"ts\":8,\"args\":{\"S\":0.25}},\n"
        "{\"ph\":\"X\",\"pid\":0,\"tid\":0,\"cat\":\"memprot\","
        "\"name\":\"walk\",\"ts\":9,\"dur\":10},\n"
        "{\"ph\":\"i\",\"pid\":0,\"tid\":2,\"cat\":\"pad\","
        "\"name\":\"recvMiss\",\"ts\":11,\"s\":\"t\"}\n"
        "]}\n");
}

TEST(TraceSink, EmptyDocumentIsSealed)
{
    std::ostringstream os;
    {
        TraceSink t(os);
    } // ~TraceSink finishes
    EXPECT_EQ(os.str(), std::string(kHeader) + kFooter);
}

TEST(TraceSink, LargeTraceDrainsInBulkWritesMidRun)
{
    // Master events interleaved with spliced embedded buffers, as a
    // multi-worker run produces them, until well past several drains.
    WriteLog log;
    std::ostream os(&log);
    TraceSink master(os);
    TraceSink emb(TraceSink::Embedded{});
    std::string want = kHeader;
    const std::uint64_t kEvents = 6000;
    std::string pending; // embedded events not yet spliced
    for (std::uint64_t i = 0; i < kEvents; ++i) {
        const std::string ts = std::to_string(i);
        if (i % 3 == 0) {
            emb.counter(2, "ewma", "S", i, 0.502073);
            pending += ",\n{\"ph\":\"C\",\"pid\":0,\"tid\":2,"
                       "\"cat\":\"ewma\",\"name\":\"S\",\"ts\":" +
                       ts + ",\"args\":{\"S\":0.502073}}";
        } else {
            if (i % 100 == 1) {
                master.splice(emb);
                want += pending;
                pending.clear();
            }
            master.complete(1, "net", "hop", i, 42, "bytes", 1040);
            want += ",\n{\"ph\":\"X\",\"pid\":0,\"tid\":1,\"cat\":\"net\","
                    "\"name\":\"hop\",\"ts\":" +
                    ts + ",\"dur\":42,\"args\":{\"bytes\":1040}}";
        }
    }
    master.splice(emb);
    want += pending;
    want += kFooter;
    // The very first event carries no comma.
    want.erase(std::string(kHeader).size(), 1);
    ASSERT_GT(want.size(), 4 * TraceSink::kDrainBytes);

    // Drains already happened, each one bulk write of >= kDrainBytes.
    ASSERT_GE(log.writes.size(), 3u);
    for (const std::streamsize n : log.writes)
        EXPECT_GE(static_cast<std::size_t>(n), TraceSink::kDrainBytes);
    EXPECT_LT(log.str().size(), want.size());

    master.finish();
    EXPECT_EQ(master.events(), kEvents);
    EXPECT_EQ(log.str(), want);
}
