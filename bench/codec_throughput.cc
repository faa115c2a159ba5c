// SMBZ1 codec throughput and compression ratio (DESIGN.md §17) over
// three flow-population fixtures:
//
//   sparse  single-packet flows (round 0, a handful of bits) — the
//           round-0/low-fill shape checkpoints and deltas are mostly
//           made of; the varint position list should win >= 4x
//   dense   final-round, near-saturated flows — the zero-polarity
//           sparse mode names the few remaining zeros; >= 2x even
//           though the bitmaps are almost all ones
//   mixed   a Zipf-ish spread profile matching the replication bench —
//           the realistic blend of all three slot modes (no gate; the
//           ratio is reported for trend tracking)
//
// Emits BENCH_codec.json (override with --json=PATH) with per-fixture
// encode/decode MB/s (MB of FLW1 sketch state processed per second),
// ratio, and slot-mode tallies. CI gates ride the --assert-dense-ratio,
// --assert-sparse-ratio, --assert-decode-mbps and --assert-encode-mbps
// flags; each exits nonzero when the measured value falls below the
// bound. --assert-encode-crc-ratio gates the sparse encode rate divided
// by the rate of a CRC-32C pass over the same FLW1 bytes, the two timed
// alternately in one run, so the bound tracks the encoder rather than
// the host's speed. --assert-direct-encode-ratio gates, the same way,
// how much faster an engine writes its SMBZ1 snapshot straight from its
// rows (SerializeSmbz1) than through an FLW1 image
// (CompressFlw1Image(Serialize())): the smaller of the ratios on the
// sparse fixture's engine (short lists, sorted into a copy) and on a
// long-list engine (256-511 positions per flow, written in place).
// --assert-direct-decode-ratio gates the reverse on the same two
// engines: how much faster DeserializeSmbz1 restores an engine, list
// records straight from their positions, than
// Deserialize(DecompressToFlw1Image()).

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "codec/smbz1.h"
#include "common/random.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "flow/arena_smb_engine.h"
#include "io/crc32c.h"

namespace smb::bench {
namespace {

struct Fixture {
  std::string name;
  size_t flows = 0;
  std::vector<uint8_t> flw1;
};

ArenaSmbEngine::Config EngineConfig(size_t num_bits, size_t threshold) {
  ArenaSmbEngine::Config config;
  config.num_bits = num_bits;
  config.threshold = threshold;
  config.base_seed = 0xC0DEC;
  return config;
}

// Round-0 flows with 1-3 recorded elements: each slot is a couple of
// set bits in a 2048-bit bitmap.
ArenaSmbEngine SparseEngine(size_t flows) {
  ArenaSmbEngine engine(EngineConfig(2048, 256));
  Xoshiro256 rng(0x57A25E);
  for (uint64_t flow = 1; flow <= flows; ++flow) {
    const size_t packets = 1 + rng.NextBounded(3);
    for (size_t p = 0; p < packets; ++p) engine.Record(flow, rng.Next());
  }
  return engine;
}

// Round-0 flows with 256-511 recorded elements in a 10000-bit slot: each
// row is an ascending position list of a long class, the shape most of
// a replication parent's rows take.
ArenaSmbEngine LongListEngine(size_t flows) {
  ArenaSmbEngine engine(EngineConfig(10000, 1000));
  Xoshiro256 rng(0x10A6);
  for (uint64_t flow = 1; flow <= flows; ++flow) {
    const size_t packets = 256 + rng.NextBounded(256);
    for (size_t p = 0; p < packets; ++p) engine.Record(flow, rng.Next());
  }
  return engine;
}

// Flows at their final round with nearly-all-ones bitmaps, whose
// minority zeros are the cheap side to name. Planted through the
// sink's UpsertFlowState path — Record would need ~64k packets per
// flow to reach the same saturation.
Fixture DenseFixture(size_t flows) {
  ArenaSmbEngine engine(EngineConfig(256, 32));
  Xoshiro256 rng(0xDE45E);
  std::vector<uint64_t> words(4);
  for (uint64_t flow = 1; flow <= flows; ++flow) {
    std::fill(words.begin(), words.end(), ~uint64_t{0});
    const uint64_t zeros = rng.NextBounded(13);
    for (uint64_t z = 0; z < zeros; ++z) {
      const uint64_t pos = rng.NextBounded(256);
      words[pos >> 6] &= ~(uint64_t{1} << (pos & 63));
    }
    size_t pop = 0;
    for (const uint64_t w : words) {
      pop += static_cast<size_t>(__builtin_popcountll(w));
    }
    // Round 7 of a 256/32 geometry: 7 * 32 bits committed, the rest in
    // the live fill counter.
    engine.UpsertFlowState(flow, 7, static_cast<uint32_t>(pop - 224),
                           words);
  }
  return Fixture{"dense", flows, engine.Serialize()};
}

// The replication bench's spread profile: 1-200 distinct elements per
// flow, so the population blends round-0, mid-round, and dense slots.
Fixture MixedFixture(size_t flows) {
  ArenaSmbEngine engine(EngineConfig(2048, 256));
  Xoshiro256 rng(0x313D);
  for (uint64_t flow = 1; flow <= flows; ++flow) {
    const size_t packets = 1 + rng.NextBounded(200);
    for (size_t p = 0; p < packets; ++p) engine.Record(flow, rng.Next());
  }
  return Fixture{"mixed", flows, engine.Serialize()};
}

struct CodecPoint {
  uint64_t raw_bytes = 0;
  uint64_t encoded_bytes = 0;
  double ratio = 0.0;
  double encode_mbps = 0.0;  // MB of FLW1 input consumed per second
  double decode_mbps = 0.0;  // MB of FLW1 output produced per second
  uint64_t sparse_slots = 0;
  uint64_t rle_slots = 0;
  uint64_t raw_slots = 0;
};

// Repeats `op` until `min_seconds` of wall time accumulate (at least 3
// iterations) and returns MB/s relative to `bytes_per_op`.
template <typename Op>
double MeasureMbps(size_t bytes_per_op, double min_seconds, Op op) {
  size_t iterations = 0;
  WallTimer timer;
  double elapsed = 0.0;
  while (iterations < 3 || elapsed < min_seconds) {
    op();
    ++iterations;
    elapsed = timer.ElapsedSeconds();
  }
  return static_cast<double>(iterations) *
         static_cast<double>(bytes_per_op) / (elapsed * 1e6);
}

CodecPoint MeasureCodec(const Fixture& fixture, double min_seconds,
                        bool* ok) {
  CodecPoint point;
  codec::CodecStats stats;
  const auto packed = codec::CompressFlw1Image(fixture.flw1, &stats);
  if (!packed.has_value()) {
    std::fprintf(stderr, "FAIL: %s fixture did not compress\n",
                 fixture.name.c_str());
    *ok = false;
    return point;
  }
  const auto unpacked = codec::DecompressToFlw1Image(*packed);
  if (!unpacked.has_value() || *unpacked != fixture.flw1) {
    std::fprintf(stderr, "FAIL: %s fixture round-trip not bit-identical\n",
                 fixture.name.c_str());
    *ok = false;
    return point;
  }
  point.raw_bytes = fixture.flw1.size();
  point.encoded_bytes = packed->size();
  point.ratio = static_cast<double>(point.raw_bytes) /
                static_cast<double>(point.encoded_bytes);
  point.sparse_slots = stats.sparse_slots;
  point.rle_slots = stats.rle_slots;
  point.raw_slots = stats.raw_slots;
  point.encode_mbps =
      MeasureMbps(fixture.flw1.size(), min_seconds, [&fixture] {
        DoNotOptimize(codec::CompressFlw1Image(fixture.flw1));
      });
  point.decode_mbps =
      MeasureMbps(fixture.flw1.size(), min_seconds, [&packed] {
        DoNotOptimize(codec::DecompressToFlw1Image(*packed));
      });
  return point;
}

// The sparse encode rate over the rate of a CRC-32C pass on the same
// FLW1 bytes. Each round times one encode then one CRC pass, so both see
// the same host speed; the median per-round ratio discards rounds where
// one side lost its time slice. CRC-32C takes its SSE4.2 path only in
// builds that target it (SMB_NATIVE on a capable host), so the ratio is
// comparable between runs of the same build only.
// The time of CompressFlw1Image(Serialize()) over the time of
// SerializeSmbz1() for one engine: the same bytes (checked first), each
// round timing one of each, median of the per-round ratios as above.
double DirectEncodeRatio(const ArenaSmbEngine& engine, double min_seconds,
                         bool* ok) {
  if (codec::CompressFlw1Image(engine.Serialize()) !=
      engine.SerializeSmbz1()) {
    std::fprintf(stderr,
                 "FAIL: SerializeSmbz1 differs from the compressed image\n");
    *ok = false;
    return 0.0;
  }
  std::vector<double> ratios;
  double elapsed = 0.0;
  while (ratios.size() < 5 || elapsed < min_seconds) {
    WallTimer image_timer;
    DoNotOptimize(codec::CompressFlw1Image(engine.Serialize()));
    const double image_s = image_timer.ElapsedSeconds();
    WallTimer direct_timer;
    DoNotOptimize(engine.SerializeSmbz1());
    const double direct_s = direct_timer.ElapsedSeconds();
    ratios.push_back(image_s / direct_s);
    elapsed += image_s + direct_s;
  }
  std::sort(ratios.begin(), ratios.end());
  return ratios[ratios.size() / 2];
}

// The time of Deserialize(DecompressToFlw1Image()) over the time of
// DeserializeSmbz1() on one engine's SMBZ1 snapshot: the same restored
// engine (checked first), timed as above.
double DirectDecodeRatio(const ArenaSmbEngine& engine, double min_seconds,
                         bool* ok) {
  const std::vector<uint8_t> smbz1 = engine.SerializeSmbz1();
  const auto via_image = [&smbz1] {
    return ArenaSmbEngine::Deserialize(*codec::DecompressToFlw1Image(smbz1));
  };
  const auto direct = ArenaSmbEngine::DeserializeSmbz1(smbz1);
  const auto image = via_image();
  if (!direct.has_value() || !image.has_value() ||
      direct->Serialize() != image->Serialize()) {
    std::fprintf(stderr,
                 "FAIL: DeserializeSmbz1 differs from the image path\n");
    *ok = false;
    return 0.0;
  }
  std::vector<double> ratios;
  double elapsed = 0.0;
  while (ratios.size() < 5 || elapsed < min_seconds) {
    WallTimer image_timer;
    DoNotOptimize(via_image());
    const double image_s = image_timer.ElapsedSeconds();
    WallTimer direct_timer;
    DoNotOptimize(ArenaSmbEngine::DeserializeSmbz1(smbz1));
    const double direct_s = direct_timer.ElapsedSeconds();
    ratios.push_back(image_s / direct_s);
    elapsed += image_s + direct_s;
  }
  std::sort(ratios.begin(), ratios.end());
  return ratios[ratios.size() / 2];
}

double EncodeToCrcRatio(const Fixture& fixture, double min_seconds) {
  std::vector<double> ratios;
  double elapsed = 0.0;
  while (ratios.size() < 5 || elapsed < min_seconds) {
    WallTimer encode_timer;
    DoNotOptimize(codec::CompressFlw1Image(fixture.flw1));
    const double encode_s = encode_timer.ElapsedSeconds();
    WallTimer crc_timer;
    DoNotOptimize(io::Crc32c(fixture.flw1.data(), fixture.flw1.size()));
    const double crc_s = crc_timer.ElapsedSeconds();
    // Equal bytes per operation: the ratio of rates is the inverse ratio
    // of times.
    ratios.push_back(crc_s / encode_s);
    elapsed += encode_s + crc_s;
  }
  std::sort(ratios.begin(), ratios.end());
  return ratios[ratios.size() / 2];
}

void WritePointJson(JsonWriter* json, const Fixture& fixture,
                    const CodecPoint& point) {
  json->BeginObject();
  json->Key("flows");
  json->Uint(fixture.flows);
  json->Key("raw_bytes");
  json->Uint(point.raw_bytes);
  json->Key("encoded_bytes");
  json->Uint(point.encoded_bytes);
  json->Key("ratio");
  json->Double(point.ratio, 3);
  json->Key("encode_mb_per_sec");
  json->Double(point.encode_mbps, 1);
  json->Key("decode_mb_per_sec");
  json->Double(point.decode_mbps, 1);
  json->Key("sparse_slots");
  json->Uint(point.sparse_slots);
  json->Key("rle_slots");
  json->Uint(point.rle_slots);
  json->Key("raw_slots");
  json->Uint(point.raw_slots);
  json->EndObject();
}

bool GateAtLeast(const char* what, double measured, double bound) {
  if (bound <= 0.0 || measured >= bound) return true;
  std::fprintf(stderr, "FAIL: %s %.3f is below the asserted %.3f\n", what,
               measured, bound);
  return false;
}

int Run(const BenchScale& scale) {
  const size_t sparse_flows = scale.full ? 50000 : 8000;
  const size_t dense_flows = scale.full ? 4000 : 800;
  const size_t mixed_flows = scale.full ? 20000 : 4000;
  const size_t long_list_flows = scale.full ? 3000 : 500;
  const double min_seconds = scale.full ? 2.0 : 0.3;

  const ArenaSmbEngine sparse_engine = SparseEngine(sparse_flows);
  const Fixture fixtures[] = {
      Fixture{"sparse", sparse_flows, sparse_engine.Serialize()},
      DenseFixture(dense_flows), MixedFixture(mixed_flows)};
  bool ok = true;
  CodecPoint points[3];
  for (size_t i = 0; i < 3; ++i) {
    points[i] = MeasureCodec(fixtures[i], min_seconds, &ok);
  }
  const ArenaSmbEngine long_list_engine = LongListEngine(long_list_flows);
  const double sparse_direct_ratio =
      DirectEncodeRatio(sparse_engine, min_seconds, &ok);
  const double long_list_direct_ratio =
      DirectEncodeRatio(long_list_engine, min_seconds, &ok);
  const double sparse_decode_ratio =
      DirectDecodeRatio(sparse_engine, min_seconds, &ok);
  const double long_list_decode_ratio =
      DirectDecodeRatio(long_list_engine, min_seconds, &ok);
  if (!ok) return 1;
  const double encode_crc_ratio = EncodeToCrcRatio(fixtures[0], min_seconds);

  TablePrinter table("SMBZ1 codec throughput (MB of FLW1 state per second)");
  table.SetHeader({"fixture", "flows", "raw bytes", "smbz1 bytes", "ratio",
                   "encode MB/s", "decode MB/s"});
  for (size_t i = 0; i < 3; ++i) {
    table.AddRow({fixtures[i].name,
                  TablePrinter::FmtInt(
                      static_cast<long long>(fixtures[i].flows)),
                  TablePrinter::FmtInt(
                      static_cast<long long>(points[i].raw_bytes)),
                  TablePrinter::FmtInt(
                      static_cast<long long>(points[i].encoded_bytes)),
                  TablePrinter::Fmt(points[i].ratio, 2) + "x",
                  TablePrinter::Fmt(points[i].encode_mbps, 1),
                  TablePrinter::Fmt(points[i].decode_mbps, 1)});
  }
  table.Print();
  std::printf("sparse encode rate / CRC-32C rate on the same bytes: %.3f\n",
              encode_crc_ratio);
  std::printf(
      "Serialize + CompressFlw1Image time / SerializeSmbz1 time: sparse "
      "engine %.2f, long-list engine %.2f\n",
      sparse_direct_ratio, long_list_direct_ratio);
  std::printf(
      "DecompressToFlw1Image + Deserialize time / DeserializeSmbz1 time: "
      "sparse engine %.2f, long-list engine %.2f\n",
      sparse_decode_ratio, long_list_decode_ratio);

  JsonWriter json(JsonWriter::kPretty);
  json.BeginObject();
  json.Key("bench");
  json.String("codec_throughput");
  for (size_t i = 0; i < 3; ++i) {
    json.Key(fixtures[i].name);
    WritePointJson(&json, fixtures[i], points[i]);
  }
  json.Key("sparse_encode_to_crc32c_ratio");
  json.Double(encode_crc_ratio, 4);
  json.Key("sparse_image_to_direct_encode_time_ratio");
  json.Double(sparse_direct_ratio, 3);
  json.Key("long_list_image_to_direct_encode_time_ratio");
  json.Double(long_list_direct_ratio, 3);
  json.Key("sparse_image_to_direct_decode_time_ratio");
  json.Double(sparse_decode_ratio, 3);
  json.Key("long_list_image_to_direct_decode_time_ratio");
  json.Double(long_list_decode_ratio, 3);
  json.Key("environment");
  WriteEnvironmentJson(&json);
  json.EndObject();
  const std::string path =
      scale.json_path.empty() ? "BENCH_codec.json" : scale.json_path;
  if (!WriteBenchJson(path, json)) return 1;

  ok = GateAtLeast("sparse ratio", points[0].ratio,
                   scale.assert_sparse_ratio) &&
       ok;
  ok = GateAtLeast("dense ratio", points[1].ratio,
                   scale.assert_dense_ratio) &&
       ok;
  // The decode gate rides the two gated fixtures; the mixed row is
  // trend-tracking only.
  for (size_t i = 0; i < 2; ++i) {
    ok = GateAtLeast((fixtures[i].name + " decode MB/s").c_str(),
                     points[i].decode_mbps, scale.assert_decode_mbps) &&
         ok;
  }
  // The encode gate rides the sparse fixture only: the shape checkpoints
  // and deltas are mostly made of, where a return to multi-pass slot
  // encoding shows most. Dense and mixed encode rates are reported only.
  ok = GateAtLeast("sparse encode MB/s", points[0].encode_mbps,
                   scale.assert_encode_mbps) &&
       ok;
  // The absolute floor above moves with the host; this one is relative
  // to a CRC-32C pass timed alongside it, so it separates the one-pass
  // slot encoder from the multi-pass one on a fast host too.
  ok = GateAtLeast("sparse encode / CRC-32C rate", encode_crc_ratio,
                   scale.assert_encode_crc_ratio) &&
       ok;
  // Relative too: the FLW1 image path timed alongside the direct writer,
  // on both list shapes, so a slowdown of either list encode fails.
  ok = GateAtLeast("image / direct encode time",
                   std::min(sparse_direct_ratio, long_list_direct_ratio),
                   scale.assert_direct_encode_ratio) &&
       ok;
  ok = GateAtLeast("image / direct decode time",
                   std::min(sparse_decode_ratio, long_list_decode_ratio),
                   scale.assert_direct_decode_ratio) &&
       ok;
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace smb::bench

int main(int argc, char** argv) {
  return smb::bench::Run(smb::bench::ParseScale(argc, argv));
}
