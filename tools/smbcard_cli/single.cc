// The one-stream modes: single (one estimator of any kind, optionally
// checkpointed), snapshot (one SMB saved to or loaded from a file) and
// all (every algorithm side by side).

#include "common/table_printer.h"
#include "core/self_morphing_bitmap.h"
#include "io/file_util.h"
#include "smbcard_cli/runners.h"
#include "trace/health_probe.h"

namespace smb::cli {

int RunSingle(const CliOptions& options) {
  const auto kind = EstimatorKindFromName(options.algo);
  if (!kind.has_value()) {
    std::fprintf(stderr, "unknown algorithm '%s'\n", options.algo.c_str());
    return 2;
  }
  EstimatorSpec spec;
  spec.kind = *kind;
  spec.memory_bits = options.memory_bits;
  spec.design_cardinality = options.design_cardinality;
  spec.hash_seed = options.seed;
  auto estimator = CreateEstimator(spec);

  Checkpointer checkpoints;
  const bool opened = checkpoints.Open(
      options, *kind, [&](const std::vector<uint8_t>& payload) {
        auto resumed = DeserializeEstimator(*kind, payload);
        if (resumed == nullptr) return false;
        estimator = std::move(resumed);
        return true;
      });
  if (!opened) return 2;

  // The interval checks piggyback on the feed loop: look at the clock
  // every 4096 lines so checkpointing costs nothing on the line path.
  // SMB health is published there too — at the first check, then once
  // per --metrics-interval — so the periodic metrics writer never reads
  // the estimator.
  const auto* as_smb =
      dynamic_cast<const SelfMorphingBitmap*>(estimator.get());
  Interval health_interval(as_smb != nullptr ? options.metrics_interval_s : 0,
                           /*due_now=*/true);
  uint64_t lines_since_check = 0;
  const auto upkeep = [&] {
    if (checkpoints.Due()) checkpoints.Write(SerializeEstimator(*estimator));
    if (health_interval.Due()) health::PublishHealth(health::ProbeSmb(*as_smb));
  };
  FeedAllInputs(
      options,
      [&](const std::string& s) {
        estimator->AddBytes(s);
        if ((++lines_since_check & 0xFFF) == 0) upkeep();
      },
      upkeep);

  const bool checkpoint_ok =
      !checkpoints.enabled() ||
      checkpoints.Write(SerializeEstimator(*estimator));
  if (as_smb != nullptr) health::PublishHealth(health::ProbeSmb(*as_smb));
  std::printf("%.0f\n", estimator->Estimate());
  return checkpoint_ok ? 0 : 1;
}

int RunSnapshot(const CliOptions& options) {
  if (options.algo != "SMB") {
    std::fprintf(stderr, "--save/--load support SMB only\n");
    return 2;
  }
  std::optional<SelfMorphingBitmap> estimator;
  if (!options.load_path.empty()) {
    std::vector<uint8_t> bytes;
    std::string error;
    if (!io::ReadWholeFile(options.load_path, &bytes, &error)) {
      std::fprintf(stderr, "cannot open %s\n", options.load_path.c_str());
      return 1;
    }
    estimator = SelfMorphingBitmap::Deserialize(bytes);
    if (!estimator.has_value()) {
      std::fprintf(stderr, "%s is not a valid SMB snapshot\n",
                   options.load_path.c_str());
      return 1;
    }
  } else {
    estimator = SelfMorphingBitmap::WithOptimalThreshold(
        options.memory_bits, options.design_cardinality, options.seed);
  }
  FeedAllInputs(options,
                [&](const std::string& s) { estimator->AddBytes(s); });
  health::PublishHealth(health::ProbeSmb(*estimator));
  std::printf("%.0f\n", estimator->Estimate());
  if (!options.save_path.empty()) {
    // Written in place, not staged: --save may name a device or a FIFO.
    const auto bytes = estimator->Serialize();
    std::string error;
    if (!io::WriteFileBytes(options.save_path, bytes.data(), bytes.size(),
                            &error)) {
      std::fprintf(stderr, "cannot write %s: %s\n",
                   options.save_path.c_str(), error.c_str());
      return 1;
    }
  }
  return 0;
}

int RunAll(const CliOptions& options) {
  std::vector<std::unique_ptr<CardinalityEstimator>> estimators;
  for (EstimatorKind kind : AllEstimatorKinds()) {
    EstimatorSpec spec;
    spec.kind = kind;
    spec.memory_bits = options.memory_bits;
    spec.design_cardinality = options.design_cardinality;
    spec.hash_seed = options.seed;
    estimators.push_back(CreateEstimator(spec));
  }
  const uint64_t lines = FeedAllInputs(options, [&](const std::string& s) {
    for (auto& estimator : estimators) estimator->AddBytes(s);
  });
  TablePrinter table("distinct-item estimates over " +
                     std::to_string(lines) + " input lines");
  table.SetHeader({"algorithm", "estimate", "memory bits"});
  for (const auto& estimator : estimators) {
    table.AddRow({std::string(estimator->Name()),
                  TablePrinter::Fmt(estimator->Estimate(), 0),
                  TablePrinter::FmtInt(
                      static_cast<long long>(estimator->MemoryBits()))});
  }
  table.Print();
  return 0;
}

}  // namespace smb::cli
