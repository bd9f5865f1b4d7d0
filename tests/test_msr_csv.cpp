/**
 * @file
 * Unit tests for the MSR-Cambridge CSV trace reader/writer.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/appliance.hpp"
#include "core/unsieved.hpp"
#include "sim/driver.hpp"
#include "trace/msr_csv.hpp"
#include "util/logging.hpp"
#include "util/sim_time.hpp"

namespace {

using namespace sievestore::trace;
using sievestore::util::FatalError;

class MsrCsvTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ensemble = EnsembleConfig::paperEnsemble();
        path = std::filesystem::temp_directory_path() /
               ("msr_test_" + std::to_string(::getpid()) + ".csv");
    }

    void
    TearDown() override
    {
        std::error_code ec;
        std::filesystem::remove(path, ec);
    }

    void
    writeLines(const std::string &content)
    {
        std::ofstream out(path);
        out << content;
    }

    EnsembleConfig ensemble;
    std::filesystem::path path;
};

TEST_F(MsrCsvTest, ParsesBasicRecord)
{
    // 128166372003061629 ticks is a realistic MSR timestamp.
    writeLines("128166372003061629,usr,0,Read,4096,8192,120000\n");
    MsrCsvReader reader(path.string(), ensemble);
    Request r;
    ASSERT_TRUE(reader.next(r));
    EXPECT_EQ(r.server, ensemble.serverByKey("Usr").id);
    EXPECT_EQ(r.volume, ensemble.serverByKey("Usr").volume_ids[0]);
    EXPECT_EQ(r.op, Op::Read);
    EXPECT_EQ(r.offset_blocks, 8u);   // 4096 / 512
    EXPECT_EQ(r.length_blocks, 16u);  // 8192 / 512
    EXPECT_EQ(r.latency_us, 12000u);  // 120000 ticks / 10
    EXPECT_FALSE(reader.next(r));
}

TEST_F(MsrCsvTest, OriginIsPrecedingCalendarMidnight)
{
    writeLines("128166372003061629,web,1,Write,0,512,10\n");
    MsrCsvReader reader(path.string(), ensemble);
    Request r;
    ASSERT_TRUE(reader.next(r));
    EXPECT_EQ(reader.originTicks() % kTicksPerDay, 0u);
    EXPECT_LE(reader.originTicks(), 128166372003061629ULL);
    EXPECT_LT(128166372003061629ULL - reader.originTicks(), kTicksPerDay);
    EXPECT_EQ(r.time,
              (128166372003061629ULL - reader.originTicks()) / 10);
}

TEST_F(MsrCsvTest, UnalignedByteExtentRoundsOutward)
{
    // Bytes [700, 1500) touch blocks 1 and 2.
    writeLines("864000000000,prxy,0,Read,700,800,10\n");
    MsrCsvReader reader(path.string(), ensemble);
    Request r;
    ASSERT_TRUE(reader.next(r));
    EXPECT_EQ(r.offset_blocks, 1u);
    EXPECT_EQ(r.length_blocks, 2u);
}

TEST_F(MsrCsvTest, ZeroSizeTouchesOneBlock)
{
    writeLines("864000000000,prxy,0,Read,1024,0,10\n");
    MsrCsvReader reader(path.string(), ensemble);
    Request r;
    ASSERT_TRUE(reader.next(r));
    EXPECT_EQ(r.length_blocks, 1u);
}

TEST_F(MsrCsvTest, SkipsUnknownHosts)
{
    writeLines("864000000000,mystery,0,Read,0,512,10\n"
               "864000000001,usr,0,Read,0,512,10\n");
    MsrCsvReader reader(path.string(), ensemble);
    Request r;
    ASSERT_TRUE(reader.next(r));
    EXPECT_EQ(r.server, ensemble.serverByKey("Usr").id);
    EXPECT_EQ(reader.skipped(), 1u);
}

TEST_F(MsrCsvTest, SkipsOutOfRangeDisk)
{
    // Ts has a single volume; disk 5 does not exist.
    writeLines("864000000000,ts,5,Read,0,512,10\n");
    MsrCsvReader reader(path.string(), ensemble);
    Request r;
    EXPECT_FALSE(reader.next(r));
    EXPECT_EQ(reader.skipped(), 1u);
}

TEST_F(MsrCsvTest, MalformedLineIsFatal)
{
    // Each record must be rejected with the file name and the line.
    const char *const kBad[] = {
        "not,enough,fields",
        // An op that is neither read nor write.
        "864000000000,usr,0,Trim,512,512,10",
        // offset + size wraps uint64_t.
        "864000000000,usr,0,Read,18446744073709551104,1024,10",
        // 2^32 blocks (2 TiB) would wrap length_blocks to 0.
        "864000000000,usr,0,Read,0,2199023255552,10",
    };
    for (const char *line : kBad) {
        writeLines(std::string(line) + "\n");
        MsrCsvReader reader(path.string(), ensemble);
        Request r;
        try {
            reader.next(r);
            ADD_FAILURE() << "accepted '" << line << "'";
        } catch (const FatalError &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find(path.string()), std::string::npos) << msg;
            EXPECT_NE(msg.find(line), std::string::npos) << msg;
        }
    }
}

TEST_F(MsrCsvTest, LargestExtentAndShortOpsAccepted)
{
    // 2^32 - 1 blocks is the widest extent length_blocks holds.
    writeLines("864000000000,usr,0,r,0,2199023255040,10\n"
               "864000000001,usr,0,W,512,512,10\n");
    MsrCsvReader reader(path.string(), ensemble);
    Request r;
    ASSERT_TRUE(reader.next(r));
    EXPECT_EQ(r.op, Op::Read);
    EXPECT_EQ(r.length_blocks, UINT32_MAX);
    ASSERT_TRUE(reader.next(r));
    EXPECT_EQ(r.op, Op::Write);
    EXPECT_EQ(r.length_blocks, 1u);
}

TEST_F(MsrCsvTest, CommentsAndBlankLinesIgnored)
{
    writeLines("# header comment\n"
               "\n"
               "864000000000,usr,0,Write,512,512,10\n");
    MsrCsvReader reader(path.string(), ensemble);
    Request r;
    ASSERT_TRUE(reader.next(r));
    EXPECT_EQ(r.op, Op::Write);
}

TEST_F(MsrCsvTest, MissingFileIsFatal)
{
    EXPECT_THROW(MsrCsvReader("/no/such/file.csv", ensemble), FatalError);
}

TEST_F(MsrCsvTest, WriterReaderRoundTrip)
{
    const uint64_t origin = 1000 * kTicksPerDay;
    {
        MsrCsvWriter writer(path.string(), ensemble, origin);
        Request r;
        r.time = 12345678;
        r.server = ensemble.serverByKey("Src1").id;
        r.volume = ensemble.serverByKey("Src1").volume_ids[2];
        r.op = Op::Write;
        r.offset_blocks = 999;
        r.length_blocks = 7;
        r.latency_us = 4321;
        writer.write(r);
        writer.close();
        EXPECT_EQ(writer.written(), 1u);
    }
    MsrCsvReader reader(path.string(), ensemble, origin);
    Request r;
    ASSERT_TRUE(reader.next(r));
    EXPECT_EQ(r.time, 12345678u);
    EXPECT_EQ(r.server, ensemble.serverByKey("Src1").id);
    EXPECT_EQ(r.volume, ensemble.serverByKey("Src1").volume_ids[2]);
    EXPECT_EQ(r.op, Op::Write);
    EXPECT_EQ(r.offset_blocks, 999u);
    EXPECT_EQ(r.length_blocks, 7u);
    EXPECT_EQ(r.latency_us, 4321u);
}

TEST_F(MsrCsvTest, ResetRestartsStream)
{
    writeLines("864000000000,usr,0,Read,0,512,10\n"
               "864000000001,usr,0,Read,512,512,10\n");
    MsrCsvReader reader(path.string(), ensemble);
    Request r;
    int count = 0;
    while (reader.next(r))
        ++count;
    EXPECT_EQ(count, 2);
    reader.reset();
    count = 0;
    while (reader.next(r))
        ++count;
    EXPECT_EQ(count, 2);
}

TEST_F(MsrCsvTest, EnsembleSharesTheEarliestMidnight)
{
    // Two volumes whose traces start on consecutive days (01:00 on
    // day 1 and on day 2 of the FILETIME epoch). Per-file origins
    // would put both first records on day 0; the ensemble origin is
    // day 1's midnight, so the replay spans two days.
    const std::filesystem::path second =
        std::filesystem::temp_directory_path() /
        ("msr_test_" + std::to_string(::getpid()) + "_b.csv");
    writeLines("900000000000,usr,0,Read,0,4096,10\n");
    {
        std::ofstream out(second);
        out << "1764000000000,prxy,0,Write,0,4096,10\n";
    }
    const auto merged =
        openMsrEnsemble({path.string(), second.string()}, ensemble);
    Request r;
    ASSERT_TRUE(merged->next(r));
    EXPECT_EQ(r.time, sievestore::util::kUsPerHour);
    ASSERT_TRUE(merged->next(r));
    EXPECT_EQ(r.time, sievestore::util::kUsPerDay +
                          sievestore::util::kUsPerHour);
    EXPECT_FALSE(merged->next(r));

    merged->reset();
    sievestore::core::ApplianceConfig cfg;
    cfg.cache_blocks = 64;
    sievestore::core::Appliance app(
        cfg, std::make_unique<sievestore::core::AodPolicy>());
    sievestore::sim::runTrace(*merged, app);
    EXPECT_EQ(app.daily().size(), 2u);
    EXPECT_EQ(app.totals().accesses, 16u);

    std::error_code ec;
    std::filesystem::remove(second, ec);
}

} // namespace
