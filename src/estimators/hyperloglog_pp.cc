#include "estimators/hyperloglog_pp.h"

#include <cmath>
#include <cstring>

#include "common/le_bytes.h"
#include "common/macros.h"
#include "estimators/loglog_common.h"

namespace smb {
namespace {

// Fitted bias of the raw harmonic-mean estimator, normalized by t:
// kBiasGrid[i] is bias(raw/t)/t at x = kBiasX[i]. Measured by simulation
// with t in {512, 2000}, n swept over [0.125t, 6.5t], 40 trials per point,
// binned by observed raw/t (the two t values agree to ~0.01 across the
// grid; bench/ablation_calibration regenerates the measurement). Beyond
// x = 4 the raw estimator is effectively unbiased and no correction is
// applied.
constexpr double kBiasX[] = {0.875, 1.125, 1.375, 1.625, 1.875, 2.125,
                             2.375, 2.625, 2.875, 3.125, 3.5, 4.0};
constexpr double kBiasGrid[] = {0.573, 0.398, 0.284, 0.213, 0.142, 0.102,
                                0.079, 0.052, 0.040, 0.022, 0.010, 0.0};

// Linear-counting crossover: LC is returned when its estimate is below
// this multiple of t. Around 2.5t linear counting's standard error
// (~1.2/sqrt(t)) crosses the corrected raw estimator's (~1.04/sqrt(t)).
constexpr double kLcCrossover = 2.5;

}  // namespace

HyperLogLogPP::HyperLogLogPP(size_t num_registers, uint64_t hash_seed)
    : CardinalityEstimator(hash_seed),
      registers_(num_registers, 5),
      zero_registers_(num_registers) {
  SMB_CHECK_MSG(num_registers >= 1, "HLL++ needs at least one register");
}

void HyperLogLogPP::AddHash(Hash128 hash) {
  const size_t j = LogLogRegisterIndex(hash.lo, registers_.size());
  const uint64_t value = LogLogRegisterValue(hash.hi, 5);
  if (registers_.Get(j) == 0) --zero_registers_;
  registers_.UpdateMax(j, value);
}

double HyperLogLogPP::RawEstimate() const {
  double inverse_sum = 0.0;
  for (size_t i = 0; i < registers_.size(); ++i) {
    inverse_sum += std::exp2(-static_cast<double>(registers_.Get(i)));
  }
  const double t = static_cast<double>(registers_.size());
  return HllAlpha(registers_.size()) * t * t / inverse_sum;
}

double HyperLogLogPP::BiasFraction(double x) {
  constexpr size_t n = std::size(kBiasX);
  if (x <= kBiasX[0]) return kBiasGrid[0];
  if (x >= kBiasX[n - 1]) return 0.0;  // taper to zero past the grid
  for (size_t i = 1; i < n; ++i) {
    if (x <= kBiasX[i]) {
      const double frac = (x - kBiasX[i - 1]) / (kBiasX[i] - kBiasX[i - 1]);
      return kBiasGrid[i - 1] + frac * (kBiasGrid[i] - kBiasGrid[i - 1]);
    }
  }
  return 0.0;
}

double HyperLogLogPP::Estimate() const {
  const double t = static_cast<double>(registers_.size());
  const double raw = RawEstimate();
  const double corrected =
      raw <= 5.0 * t ? raw - t * BiasFraction(raw / t) : raw;
  if (zero_registers_ > 0) {
    const double lc = t * std::log(t / static_cast<double>(zero_registers_));
    if (lc <= kLcCrossover * t) return lc;
  }
  return corrected;
}

void HyperLogLogPP::MergeFrom(const HyperLogLogPP& other) {
  SMB_CHECK_MSG(CanMergeWith(other),
                "HLL++ merge requires equal register count and seed");
  size_t zeros = 0;
  for (size_t i = 0; i < registers_.size(); ++i) {
    registers_.UpdateMax(i, other.registers_.Get(i));
    if (registers_.Get(i) == 0) ++zeros;
  }
  zero_registers_ = zeros;
}

void HyperLogLogPP::Reset() {
  registers_.ClearAll();
  zero_registers_ = registers_.size();
}

namespace {

// Layout: magic "HPP2", u64 num_registers, u64 hash_seed, then one byte
// per register (values fit 5 bits; byte-wide keeps the format trivial),
// then a u64 checksum (Murmur3_64 of every preceding byte).
constexpr char kHllppMagic[4] = {'H', 'P', 'P', '2'};
constexpr uint64_t kHllppChecksumSeed = 0x48505032u;  // "HPP2"

}  // namespace

std::vector<uint8_t> HyperLogLogPP::Serialize() const {
  std::vector<uint8_t> out;
  out.reserve(4 + 24 + registers_.size());
  for (char c : kHllppMagic) out.push_back(static_cast<uint8_t>(c));
  AppendU64(&out, registers_.size());
  AppendU64(&out, hash_seed());
  for (size_t i = 0; i < registers_.size(); ++i) {
    out.push_back(static_cast<uint8_t>(registers_.Get(i)));
  }
  AppendU64(&out, Murmur3_128(out.data(), out.size(),
                                kHllppChecksumSeed).lo);
  return out;
}

std::optional<HyperLogLogPP> HyperLogLogPP::Deserialize(
    const std::vector<uint8_t>& bytes) {
  if (bytes.size() < 28 ||
      std::memcmp(bytes.data(), kHllppMagic, 4) != 0) {
    return std::nullopt;
  }
  size_t pos = 4;
  uint64_t num_registers = 0;
  uint64_t seed = 0;
  if (!ReadU64(bytes, &pos, &num_registers) ||
      !ReadU64(bytes, &pos, &seed)) {
    return std::nullopt;
  }
  // Exact-size check rejects both truncation and trailing garbage.
  if (num_registers == 0 || bytes.size() != pos + num_registers + 8) {
    return std::nullopt;
  }
  size_t checksum_pos = pos + num_registers;
  uint64_t checksum = 0;
  if (!ReadU64(bytes, &checksum_pos, &checksum) ||
      checksum != Murmur3_128(bytes.data(), bytes.size() - 8,
                              kHllppChecksumSeed).lo) {
    return std::nullopt;
  }
  std::optional<HyperLogLogPP> out;
  out.emplace(num_registers, seed);
  size_t zeros = 0;
  for (size_t i = 0; i < num_registers; ++i) {
    const uint8_t value = bytes[pos + i];
    if (value > 31) return std::nullopt;
    if (value == 0) ++zeros;
    out->registers_.Set(i, value);
  }
  out->zero_registers_ = zeros;
  return out;
}

}  // namespace smb
