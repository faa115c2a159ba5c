#include "stream/trace_io.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

namespace smb {
namespace {

class TraceIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("smbcard_trace_io_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

Trace SmallTrace() {
  TraceConfig config;
  config.num_flows = 50;
  config.max_cardinality = 500;
  config.seed = 3;
  return GenerateTrace(config);
}

TEST_F(TraceIoTest, BinaryRoundTrip) {
  const Trace original = SmallTrace();
  ASSERT_TRUE(WriteTraceFile(original, Path("t.bin")));
  const auto restored = ReadTraceFile(Path("t.bin"));
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->true_cardinality, original.true_cardinality);
  ASSERT_EQ(restored->packets.size(), original.packets.size());
  for (size_t i = 0; i < original.packets.size(); ++i) {
    EXPECT_EQ(restored->packets[i].flow, original.packets[i].flow);
    EXPECT_EQ(restored->packets[i].element, original.packets[i].element);
  }
}

TEST_F(TraceIoTest, ReadRejectsMissingFile) {
  EXPECT_FALSE(ReadTraceFile(Path("missing.bin")).has_value());
}

TEST_F(TraceIoTest, ReadRejectsBadMagic) {
  std::ofstream(Path("bad.bin"), std::ios::binary) << "NOTATRACE";
  EXPECT_FALSE(ReadTraceFile(Path("bad.bin")).has_value());
}

TEST_F(TraceIoTest, ReadRejectsTruncation) {
  const Trace original = SmallTrace();
  ASSERT_TRUE(WriteTraceFile(original, Path("t.bin")));
  std::ifstream in(Path("t.bin"), std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  bytes.resize(bytes.size() / 2);
  std::ofstream(Path("trunc.bin"), std::ios::binary) << bytes;
  EXPECT_FALSE(ReadTraceFile(Path("trunc.bin")).has_value());
}

// Header counts whose byte total wraps 2^64 back to the file's real size
// must be refused before any allocation: 8 * 2^61 and 16 * 2^60 are both
// 2^64, so each image below is exactly as long as a wrapped total says.
TEST_F(TraceIoTest, ReadRejectsCountsThatWrapTheSizeCheck) {
  const auto header = [](uint64_t num_flows, uint64_t num_packets) {
    std::string bytes = "SMBT1";
    for (const uint64_t field : {num_flows, num_packets}) {
      for (int i = 0; i < 8; ++i) {
        bytes.push_back(static_cast<char>(field >> (8 * i)));
      }
    }
    return bytes;
  };
  const std::string flows_wrap = header(uint64_t{1} << 61, 0);
  ASSERT_EQ(flows_wrap.size(), 21u);
  std::ofstream(Path("flows_wrap.bin"), std::ios::binary) << flows_wrap;
  EXPECT_FALSE(ReadTraceFile(Path("flows_wrap.bin")).has_value());

  const std::string packets_wrap = header(0, uint64_t{1} << 60);
  ASSERT_EQ(packets_wrap.size(), 21u);
  std::ofstream(Path("packets_wrap.bin"), std::ios::binary) << packets_wrap;
  EXPECT_FALSE(ReadTraceFile(Path("packets_wrap.bin")).has_value());
}

// The on-disk layout, byte for byte: magic, the two counts, the
// cardinalities, then (flow, element) pairs, every field u64 LE.
TEST_F(TraceIoTest, WriterBytesArePinned) {
  Trace trace;
  trace.true_cardinality = {2, 0x0102030405060708};
  trace.packets = {{0, 0xAB}, {1, 0xFFFFFFFFFFFFFFFF}};
  ASSERT_TRUE(WriteTraceFile(trace, Path("pin.bin")));
  std::ifstream in(Path("pin.bin"), std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  std::string expected = "SMBT1";
  for (const uint64_t field :
       {uint64_t{2}, uint64_t{2}, uint64_t{2}, uint64_t{0x0102030405060708},
        uint64_t{0}, uint64_t{0xAB}, uint64_t{1},
        uint64_t{0xFFFFFFFFFFFFFFFF}}) {
    for (int i = 0; i < 8; ++i) {
      expected.push_back(static_cast<char>(field >> (8 * i)));
    }
  }
  EXPECT_EQ(bytes, expected);
  const auto restored = ReadTraceFile(Path("pin.bin"));
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->true_cardinality, trace.true_cardinality);
  EXPECT_EQ(restored->packets[1].element, 0xFFFFFFFFFFFFFFFFu);
}

// A packet naming a flow past the header's flow count is refused.
TEST_F(TraceIoTest, ReadRejectsFlowOutOfRange) {
  Trace trace;
  trace.true_cardinality = {1};
  trace.packets = {{0, 5}, {1, 6}};
  ASSERT_TRUE(WriteTraceFile(trace, Path("flow.bin")));
  EXPECT_FALSE(ReadTraceFile(Path("flow.bin")).has_value());
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// Three flows and four packets: a 21-byte header, 24 bytes of
// cardinalities, 64 bytes of packets. A cut inside any section, or at
// a section boundary, is refused.
TEST_F(TraceIoTest, ReadRejectsTruncationInsideEachSection) {
  Trace trace;
  trace.true_cardinality = {2, 1, 1};
  trace.packets = {{0, 10}, {0, 11}, {1, 12}, {2, 13}};
  ASSERT_TRUE(WriteTraceFile(trace, Path("t.bin")));
  const std::string bytes = FileBytes(Path("t.bin"));
  ASSERT_EQ(bytes.size(), 21u + 24u + 64u);
  ASSERT_TRUE(ReadTraceFile(Path("t.bin")).has_value());
  for (const size_t cut : {0u, 3u, 5u, 12u, 20u, 21u, 30u, 44u, 45u, 50u, 61u,
                           108u}) {
    std::ofstream(Path("cut.bin"), std::ios::binary | std::ios::trunc)
        << bytes.substr(0, cut);
    EXPECT_FALSE(ReadTraceFile(Path("cut.bin")).has_value())
        << "cut at " << cut;
  }
}

// Bytes past the body the header sizes are refused, whether one stray
// byte or a whole extra packet the count does not name.
TEST_F(TraceIoTest, ReadRejectsTrailingBytes) {
  const Trace original = SmallTrace();
  ASSERT_TRUE(WriteTraceFile(original, Path("t.bin")));
  const std::string bytes = FileBytes(Path("t.bin"));
  std::ofstream(Path("byte.bin"), std::ios::binary) << bytes << 'x';
  EXPECT_FALSE(ReadTraceFile(Path("byte.bin")).has_value());
  std::ofstream(Path("packet.bin"), std::ios::binary)
      << bytes << std::string(16, '\0');
  EXPECT_FALSE(ReadTraceFile(Path("packet.bin")).has_value());
}

// The flow bound is checked on every packet, the last one included: the
// highest valid id reads back, one past it is refused.
TEST_F(TraceIoTest, ReadChecksTheFlowBoundOnTheLastPacket) {
  Trace trace;
  trace.true_cardinality = {1, 1, 1};
  trace.packets = {{0, 1}, {1, 2}, {2, 3}};
  ASSERT_TRUE(WriteTraceFile(trace, Path("ok.bin")));
  EXPECT_TRUE(ReadTraceFile(Path("ok.bin")).has_value());
  trace.packets.back().flow = 3;
  ASSERT_TRUE(WriteTraceFile(trace, Path("past.bin")));
  EXPECT_FALSE(ReadTraceFile(Path("past.bin")).has_value());
}

// A directory opens but is not a trace file.
TEST_F(TraceIoTest, ReadRejectsDirectory) {
  EXPECT_FALSE(ReadTraceFile(dir_.string()).has_value());
}

TEST(CsvTraceTest, ParsesBasicCsv) {
  const std::string csv =
      "# flow,element\n"
      "1,100\n"
      "1,200\n"
      "1,100\n"       // duplicate: packet kept, cardinality unaffected
      "2,100\n"
      "0xFF,0xAB\n";  // hex accepted
  const auto trace = ParseCsvTrace(csv);
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(trace->packets.size(), 5u);
  ASSERT_EQ(trace->num_flows(), 3u);
  EXPECT_EQ(trace->true_cardinality[0], 2u);  // flow "1": {100, 200}
  EXPECT_EQ(trace->true_cardinality[1], 1u);  // flow "2": {100}
  EXPECT_EQ(trace->true_cardinality[2], 1u);  // flow 0xFF
}

TEST(CsvTraceTest, ToleratesWhitespaceAndBlankLines) {
  const auto trace = ParseCsvTrace("  7 , 9 \n\n  7,10\r\n");
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(trace->packets.size(), 2u);
  EXPECT_EQ(trace->true_cardinality[0], 2u);
}

TEST(CsvTraceTest, ReportsErrorLine) {
  size_t error_line = 0;
  EXPECT_FALSE(ParseCsvTrace("1,2\nnot-a-number,3\n", &error_line)
                   .has_value());
  EXPECT_EQ(error_line, 2u);
  EXPECT_FALSE(ParseCsvTrace("1 2\n", &error_line).has_value());  // no comma
  EXPECT_EQ(error_line, 1u);
  // A sign is malformed: strtoull would wrap "-1" to 2^64 - 1.
  EXPECT_FALSE(ParseCsvTrace("1,2\n-1,5\n", &error_line).has_value());
  EXPECT_EQ(error_line, 2u);
  EXPECT_FALSE(ParseCsvTrace("+1,5\n", &error_line).has_value());
  EXPECT_EQ(error_line, 1u);
}

TEST(CsvTraceTest, EmptyInputIsEmptyTrace) {
  const auto trace = ParseCsvTrace("# only a comment\n");
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(trace->packets.size(), 0u);
  EXPECT_EQ(trace->num_flows(), 0u);
}

TEST_F(TraceIoTest, CsvFileRoundTripThroughBinary) {
  // CSV in, binary out, binary in: cardinalities must survive.
  std::ofstream(Path("t.csv")) << "10,1\n10,2\n20,1\n20,1\n";
  const auto from_csv = ReadCsvTraceFile(Path("t.csv"));
  ASSERT_TRUE(from_csv.has_value());
  ASSERT_TRUE(WriteTraceFile(*from_csv, Path("t.bin")));
  const auto from_bin = ReadTraceFile(Path("t.bin"));
  ASSERT_TRUE(from_bin.has_value());
  EXPECT_EQ(from_bin->true_cardinality, from_csv->true_cardinality);
}

}  // namespace
}  // namespace smb
