#include "fault/failpoints.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "hash/murmur3.h"
#include "trace/flight_recorder.h"

namespace smb::fault {
namespace {

// Trims ASCII spaces from both ends of a token.
std::string_view Trim(std::string_view s) {
  while (!s.empty() && s.front() == ' ') s.remove_prefix(1);
  while (!s.empty() && s.back() == ' ') s.remove_suffix(1);
  return s;
}

bool ParseU64(std::string_view s, uint64_t* out) {
  if (s.empty()) return false;
  uint64_t value = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return false;
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

bool ParseProbability(std::string_view s, double* out) {
  // Accepts a plain decimal in [0, 1] ("0.25", "1", ".5").
  if (s.empty()) return false;
  double value = 0.0;
  double scale = 0.0;  // 0 = before the dot
  for (char c : s) {
    if (c == '.') {
      if (scale != 0.0) return false;
      scale = 0.1;
      continue;
    }
    if (c < '0' || c > '9') return false;
    if (scale == 0.0) {
      value = value * 10.0 + (c - '0');
    } else {
      value += (c - '0') * scale;
      scale *= 0.1;
    }
  }
  if (value < 0.0 || value > 1.0) return false;
  *out = value;
  return true;
}

// Parses "partial(17)"-style actions; `paren_arg` receives the number.
bool ParseParenArg(std::string_view token, std::string_view keyword,
                   uint64_t* paren_arg) {
  if (token.size() < keyword.size() + 2 ||
      token.substr(0, keyword.size()) != keyword ||
      token[keyword.size()] != '(' || token.back() != ')') {
    return false;
  }
  return ParseU64(
      token.substr(keyword.size() + 1, token.size() - keyword.size() - 2),
      paren_arg);
}

bool ParseAction(std::string_view token, FailpointSpec* spec) {
  if (token == "off") {
    spec->action = FailpointAction::kOff;
    return true;
  }
  if (token == "error") {
    spec->action = FailpointAction::kReturnError;
    return true;
  }
  if (token == "panic") {
    spec->action = FailpointAction::kPanic;
    return true;
  }
  if (ParseParenArg(token, "partial", &spec->arg)) {
    spec->action = FailpointAction::kPartialIo;
    return true;
  }
  if (ParseParenArg(token, "corrupt", &spec->arg)) {
    spec->action = FailpointAction::kCorrupt;
    return true;
  }
  if (ParseParenArg(token, "delay", &spec->arg)) {
    spec->action = FailpointAction::kDelay;
    return true;
  }
  return false;
}

bool ParseModifier(std::string_view token, FailpointSpec* spec) {
  if (token.substr(0, 2) == "p=") {
    return ParseProbability(token.substr(2), &spec->probability);
  }
  if (token.substr(0, 5) == "skip=") {
    return ParseU64(token.substr(5), &spec->skip);
  }
  if (token.substr(0, 6) == "limit=") {
    return ParseU64(token.substr(6), &spec->limit);
  }
  return false;
}

// Parses one "<point>=<action>{:<modifier>}" entry.
bool ParseEntry(std::string_view entry, std::string* name,
                FailpointSpec* spec) {
  const size_t eq = entry.find('=');
  if (eq == std::string_view::npos || eq == 0) return false;
  *name = std::string(Trim(entry.substr(0, eq)));
  if (name->empty()) return false;
  std::string_view rest = Trim(entry.substr(eq + 1));
  bool first = true;
  while (!rest.empty()) {
    const size_t colon = rest.find(':');
    const std::string_view token = Trim(rest.substr(0, colon));
    rest = colon == std::string_view::npos ? std::string_view()
                                           : rest.substr(colon + 1);
    if (first) {
      if (!ParseAction(token, spec)) return false;
      first = false;
    } else if (!ParseModifier(token, spec)) {
      return false;
    }
  }
  return !first;
}

}  // namespace

FailpointRegistry& FailpointRegistry::Global() {
  static FailpointRegistry* registry = [] {
    auto* r = new FailpointRegistry();
    if (const char* seed_env = std::getenv("SMBCARD_FAILPOINTS_SEED")) {
      uint64_t seed = 0;
      if (!ParseU64(seed_env, &seed)) {
        std::fprintf(stderr, "SMBCARD_FAILPOINTS_SEED is not a u64: %s\n",
                     seed_env);
        std::abort();
      }
      r->Reseed(seed);
    }
    if (const char* config = std::getenv("SMBCARD_FAILPOINTS")) {
      std::string error;
      if (!r->Configure(config, &error)) {
        // A typo must not silently void a chaos run.
        std::fprintf(stderr, "bad SMBCARD_FAILPOINTS: %s\n", error.c_str());
        std::abort();
      }
    }
    return r;
  }();
  return *registry;
}

void FailpointRegistry::SeedPointLocked(std::string_view name, Point* point) {
  point->rng = Xoshiro256(seed_ ^ Murmur3_64(name, /*seed=*/0x46415350u));
}

void FailpointRegistry::Set(std::string_view name,
                            const FailpointSpec& spec) {
  std::lock_guard<std::mutex> lock(mutex_);
  Point& point = points_[std::string(name)];
  point = Point{};
  point.spec = spec;
  SeedPointLocked(name, &point);
}

bool FailpointRegistry::Configure(std::string_view config,
                                  std::string* error) {
  // Parse everything before arming anything: a config string is applied
  // all-or-nothing.
  std::map<std::string, FailpointSpec> parsed;
  std::string_view rest = config;
  while (!rest.empty()) {
    const size_t semi = rest.find(';');
    const std::string_view entry = Trim(rest.substr(0, semi));
    rest = semi == std::string_view::npos ? std::string_view()
                                          : rest.substr(semi + 1);
    if (entry.empty()) continue;
    std::string name;
    FailpointSpec spec;
    if (!ParseEntry(entry, &name, &spec)) {
      if (error) *error = "cannot parse entry '" + std::string(entry) + "'";
      return false;
    }
    parsed[name] = spec;
  }
  for (const auto& [name, spec] : parsed) Set(name, spec);
  return true;
}

void FailpointRegistry::Clear(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = points_.find(name);
  if (it != points_.end()) points_.erase(it);
}

void FailpointRegistry::ClearAll() {
  std::lock_guard<std::mutex> lock(mutex_);
  points_.clear();
}

void FailpointRegistry::Reseed(uint64_t seed) {
  std::lock_guard<std::mutex> lock(mutex_);
  seed_ = seed;
  for (auto& [name, point] : points_) SeedPointLocked(name, &point);
}

FailpointHit FailpointRegistry::Evaluate(std::string_view name) {
  FailpointHit hit;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = points_.find(name);
    if (it == points_.end()) return hit;
    Point& point = it->second;
    ++point.evals;
    const FailpointSpec& spec = point.spec;
    if (spec.action == FailpointAction::kOff) return hit;
    if (point.fires >= spec.limit) return hit;
    if (spec.probability < 1.0 && !point.rng.NextBernoulli(spec.probability)) {
      return hit;
    }
    if (point.skipped < spec.skip) {
      ++point.skipped;
      return hit;
    }
    ++point.fires;
    hit.fired = true;
    hit.action = spec.action;
    hit.arg = spec.arg;
  }
  // Black-box record of every fire (name is carried as its Murmur3 hash —
  // the post-mortem inspector matches it against the registered names).
  trace::FlightRecorder::Global().Record(
      trace::FlightEventType::kFailpointFire,
      Murmur3_64(name, /*seed=*/0x46415350u),
      static_cast<uint64_t>(hit.action), hit.arg);
  // Side-effect actions run outside the lock and are fully handled here:
  // the call site must not take its failure branch for them.
  if (hit.action == FailpointAction::kDelay) {
    std::this_thread::sleep_for(std::chrono::microseconds(hit.arg));
    hit = FailpointHit{};
  } else if (hit.action == FailpointAction::kPanic) {
    std::fprintf(stderr, "failpoint panic: %.*s\n",
                 static_cast<int>(name.size()), name.data());
    std::abort();
  }
  return hit;
}

uint64_t FailpointRegistry::EvalCount(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = points_.find(name);
  return it == points_.end() ? 0 : it->second.evals;
}

uint64_t FailpointRegistry::FireCount(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = points_.find(name);
  return it == points_.end() ? 0 : it->second.fires;
}

}  // namespace smb::fault
