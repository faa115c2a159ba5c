#include "io/checkpoint_store.h"

#include <filesystem>
#include <string_view>
#include <utility>

#include "common/macros.h"
#include "fault/failpoints.h"
#include "io/file_util.h"
#include "io/frame_codec.h"
#include "telemetry/metrics_registry.h"
#include "trace/flight_recorder.h"
#include "trace/span_tracer.h"

namespace smb::io {
namespace {

namespace fs = std::filesystem;

constexpr char kMagic[8] = {'S', 'M', 'B', 'C', 'K', 'P', 'T', '1'};
constexpr std::string_view kFilePrefix = "ckpt-";
constexpr std::string_view kFileSuffix = ".smbckpt";

// Recovery skip reasons double as telemetry label values so operators can
// tell chronic bit rot apart from torn writes without scraping logs.
telemetry::Counter* SkipCounter(const char* reason) {
  const telemetry::Labels labels = {{"reason", reason}};
  return telemetry::MetricsRegistry::Global().GetCounter(
      "checkpoint_recover_skipped_total", labels);
}

// Undoes the content codec in place when `payload` carries it; false when
// a recognized payload fails to decode.
bool UndoContentCodec(const CheckpointStore::ContentCodec& codec,
                      std::vector<uint8_t>* payload) {
  if (!codec.recognize || !codec.decode || !codec.recognize(*payload)) {
    return true;
  }
  std::optional<std::vector<uint8_t>> raw = codec.decode(*payload);
  if (!raw.has_value()) return false;
  *payload = std::move(*raw);
  return true;
}

std::string GenerationPath(const std::string& dir, uint64_t generation) {
  return dir + "/" + NumberedFileName(kFilePrefix, generation, kFileSuffix);
}

}  // namespace

CheckpointStore::CheckpointStore(const Options& options) : options_(options) {
  SMB_CHECK_MSG(!options.directory.empty(),
                "CheckpointStore needs a directory");
  SMB_CHECK_MSG(options.keep_generations >= 1,
                "CheckpointStore must keep at least one generation");
  SMB_CHECK_MSG(options.chunk_bytes >= 1 &&
                    options.chunk_bytes <= kMaxFramedChunkBytes,
                "CheckpointStore chunk size out of range");
  // Best-effort here; Write() re-attempts with error reporting.
  std::error_code ec;
  fs::create_directories(options_.directory, ec);
  const std::vector<uint64_t> generations = ListGenerations();
  next_generation_ = generations.empty() ? 1 : generations.back() + 1;
}

std::vector<uint64_t> CheckpointStore::ListGenerations() const {
  return ListNumberedFiles(options_.directory, kFilePrefix, kFileSuffix);
}

CheckpointStore::WriteResult CheckpointStore::Write(
    std::span<const uint8_t> payload) {
  TRACE_SPAN("io", "checkpoint.write");
  WriteResult result;
  result.generation = next_generation_;
  const auto write_error = SMB_FAILPOINT("checkpoint.write.error");
  if (write_error.fired) {
    result.error = "injected write error";
    return result;
  }

  std::error_code ec;
  fs::create_directories(options_.directory, ec);
  if (ec) {
    result.error = "cannot create " + options_.directory + ": " +
                   ec.message();
    return result;
  }

  // Content codec: frame (and CRC) the encoded bytes, not the raw
  // payload, so recovery validates exactly what sits on disk. An encoder
  // returning nullopt falls back to the raw payload — the store never
  // fails a write over compression.
  std::span<const uint8_t> stored = payload;
  std::vector<uint8_t> encoded;
  if (options_.codec.encode) {
    if (std::optional<std::vector<uint8_t>> packed =
            options_.codec.encode(payload);
        packed.has_value()) {
      encoded = std::move(*packed);
      stored = encoded;
    }
    auto& registry = telemetry::MetricsRegistry::Global();
    registry.GetGauge("checkpoint_codec_raw_bytes")
        ->Set(static_cast<int64_t>(payload.size()));
    registry.GetGauge("checkpoint_codec_stored_bytes")
        ->Set(static_cast<int64_t>(stored.size()));
    if (!stored.empty()) {
      registry.GetGauge("checkpoint_compression_ratio_milli")
          ->Set(static_cast<int64_t>(payload.size() * 1000 /
                                     stored.size()));
    }
  }

  std::vector<uint8_t> image =
      BuildFramedImage(kMagic, next_generation_, stored,
                       options_.chunk_bytes);

  // Injected silent bit rot: the write itself "succeeds" but the stored
  // state is corrupt — only the recovery CRCs can catch it.
  const auto corrupt = SMB_FAILPOINT("checkpoint.write.corrupt");
  if (corrupt.fired) {
    const uint64_t bit = corrupt.arg % (image.size() * 8);
    image[static_cast<size_t>(bit / 8)] ^=
        static_cast<uint8_t>(1u << (bit % 8));
  }

  const std::string final_path =
      GenerationPath(options_.directory, next_generation_);

  // Injected torn write: emulate a power cut on a filesystem that did not
  // honor write ordering — a truncated file appears at the FINAL name.
  const auto torn = SMB_FAILPOINT("checkpoint.write.partial");
  if (torn.fired) {
    const size_t cut = torn.arg < image.size()
                           ? static_cast<size_t>(torn.arg)
                           : image.size();
    std::string ignored;
    WriteFileBytes(final_path, image.data(), cut, &ignored);
    result.error = "injected torn write";
    return result;
  }

  // Sweep stale temp files (crash leftovers from previous processes).
  if (const size_t swept = SweepTempFiles(options_.directory); swept > 0) {
    telemetry::MetricsRegistry::Global()
        .GetCounter("checkpoint_stale_tmp_swept_total")
        ->Add(swept);
  }
  if (!ReplaceFile(final_path, image, options_.sync, "checkpoint",
                   &result.error)) {
    return result;
  }

  trace::FlightRecorder::Global().Record(
      trace::FlightEventType::kCheckpointWrite, result.generation,
      stored.size(), 0);
  ++next_generation_;
  // Keep-last-K rotation (the freshly written generation counts).
  const std::vector<uint64_t> generations = ListGenerations();
  if (generations.size() > options_.keep_generations) {
    const size_t excess = generations.size() - options_.keep_generations;
    for (size_t i = 0; i < excess; ++i) {
      fs::remove(GenerationPath(options_.directory, generations[i]), ec);
    }
  }
  result.ok = true;
  return result;
}

CheckpointStore::RecoverResult CheckpointStore::RecoverLatest() {
  TRACE_SPAN("io", "checkpoint.recover");
  RecoverResult result;
  std::vector<uint64_t> generations = ListGenerations();
  if (generations.empty()) {
    result.error = "no checkpoint found in " + options_.directory;
    return result;
  }
  for (auto it = generations.rbegin(); it != generations.rend(); ++it) {
    const std::string name = NumberedFileName(kFilePrefix, *it, kFileSuffix);
    std::string reason;
    const char* reason_class = "read_error";
    FrameDefect defect = FrameDefect::kNone;
    if (SMB_FAILPOINT("checkpoint.read.error").fired) {
      reason = "injected read error";
    } else if (!ReadFramedFile(options_.directory + "/" + name, kMagic, *it,
                               &result.payload, &reason, &defect)) {
      reason_class = FrameDefectName(defect);
    } else if (!UndoContentCodec(options_.codec, &result.payload)) {
      // A recognized payload that fails to decode is as corrupt as a bad
      // CRC — skip the generation.
      reason = options_.codec.name + " content failed to decode";
      reason_class = "codec";
    } else {
      result.ok = true;
      result.generation = *it;
      trace::FlightRecorder::Global().Record(
          trace::FlightEventType::kCheckpointRecover, result.generation,
          result.payload.size(), result.skipped.size());
      return result;
    }
    SkipCounter(reason_class)->Add();
    result.skipped.push_back(name + ": " + reason);
  }
  result.payload.clear();
  result.error = "no valid checkpoint in " + options_.directory + " (" +
                 std::to_string(result.skipped.size()) +
                 " corrupt candidate(s))";
  return result;
}

bool CheckpointStore::ValidateFile(const std::string& path,
                                   std::string* error) {
  std::string local_error;
  return ReadFramedFile(path, kMagic, std::nullopt, nullptr,
                        error ? error : &local_error);
}

}  // namespace smb::io
