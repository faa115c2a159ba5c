#include "telemetry/snapshot_parser.h"

#include <bit>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

namespace smb::telemetry {
namespace {

bool ParseU64(std::string_view token, uint64_t* out) {
  if (token.empty() || !std::isdigit(static_cast<unsigned char>(token[0]))) {
    return false;
  }
  std::string buf(token);
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(buf.c_str(), &end, 10);
  if (errno != 0 || end != buf.c_str() + buf.size()) return false;
  *out = static_cast<uint64_t>(v);
  return true;
}

bool ParseI64(std::string_view token, int64_t* out) {
  if (token.empty()) return false;
  std::string buf(token);
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(buf.c_str(), &end, 10);
  if (errno != 0 || end != buf.c_str() + buf.size()) return false;
  *out = static_cast<int64_t>(v);
  return true;
}

std::optional<MetricType> TypeFromName(std::string_view name) {
  if (name == "counter") return MetricType::kCounter;
  if (name == "gauge") return MetricType::kGauge;
  if (name == "histogram") return MetricType::kHistogram;
  return std::nullopt;
}

void TrimTrailingZeroBuckets(HistogramData* histogram) {
  while (!histogram->buckets.empty() && histogram->buckets.back() == 0) {
    histogram->buckets.pop_back();
  }
}

struct PromLine {
  std::string name;
  Labels labels;       // without any `le` label
  std::string le;      // the `le` value if present, else empty
  std::string value;   // raw value token
};

// Parses `name{k="v",...} value`; returns false on any syntax error.
bool ParsePromSampleLine(std::string_view line, PromLine* out) {
  size_t pos = 0;
  auto name_char = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == ':';
  };
  while (pos < line.size() && name_char(line[pos])) ++pos;
  if (pos == 0) return false;
  out->name = std::string(line.substr(0, pos));
  if (pos < line.size() && line[pos] == '{') {
    ++pos;
    while (pos < line.size() && line[pos] != '}') {
      size_t key_start = pos;
      while (pos < line.size() && line[pos] != '=') ++pos;
      if (pos + 1 >= line.size() || line[pos + 1] != '"') return false;
      std::string key(line.substr(key_start, pos - key_start));
      pos += 2;  // skip ="
      std::string value;
      while (pos < line.size() && line[pos] != '"') {
        if (line[pos] == '\\' && pos + 1 < line.size()) {
          ++pos;
          value.push_back(line[pos] == 'n' ? '\n' : line[pos]);
        } else {
          value.push_back(line[pos]);
        }
        ++pos;
      }
      if (pos >= line.size()) return false;
      ++pos;  // closing quote
      if (key == "le") {
        out->le = std::move(value);
      } else {
        out->labels.emplace_back(std::move(key), std::move(value));
      }
      if (pos < line.size() && line[pos] == ',') ++pos;
    }
    if (pos >= line.size() || line[pos] != '}') return false;
    ++pos;
  }
  while (pos < line.size() && line[pos] == ' ') ++pos;
  if (pos >= line.size()) return false;
  size_t value_end = line.size();
  while (value_end > pos && std::isspace(static_cast<unsigned char>(
                                line[value_end - 1]))) {
    --value_end;
  }
  out->value = std::string(line.substr(pos, value_end - pos));
  return !out->value.empty();
}

struct HistogramAssembly {
  std::string name;
  Labels labels;
  // (bucket index, cumulative count) in line order.
  std::vector<std::pair<size_t, uint64_t>> cumulative;
  uint64_t sum = 0;
  uint64_t count = 0;
};

// Strips a known suffix; returns true when `name` ended with it.
bool StripSuffix(std::string* name, std::string_view suffix) {
  if (name->size() <= suffix.size()) return false;
  if (std::string_view(*name).substr(name->size() - suffix.size()) != suffix) {
    return false;
  }
  name->resize(name->size() - suffix.size());
  return true;
}

}  // namespace

std::optional<MetricsSnapshot> ParsePrometheusText(std::string_view text) {
  std::map<std::string, MetricType> family_types;
  std::map<std::string, MetricSample> scalars;  // key: name{labels}
  std::map<std::string, HistogramAssembly> histograms;

  size_t line_start = 0;
  while (line_start <= text.size()) {
    const size_t line_end = text.find('\n', line_start);
    std::string_view line =
        text.substr(line_start,
                    (line_end == std::string_view::npos ? text.size()
                                                        : line_end) -
                        line_start);
    line_start =
        line_end == std::string_view::npos ? text.size() + 1 : line_end + 1;

    const auto blank = [](char c) {
      return c == ' ' || c == '\t' || c == '\r';
    };
    while (!line.empty() && blank(line.front())) line.remove_prefix(1);
    while (!line.empty() && blank(line.back())) line.remove_suffix(1);
    if (line.empty()) continue;
    if (line[0] == '#') {
      // `# TYPE <name> <type>`; other comments are ignored.
      if (line.rfind("# TYPE ", 0) == 0) {
        std::string_view rest = line.substr(7);
        const size_t space = rest.find(' ');
        if (space == std::string_view::npos) return std::nullopt;
        const auto type = TypeFromName(rest.substr(space + 1));
        if (!type.has_value()) return std::nullopt;
        family_types.emplace(std::string(rest.substr(0, space)), *type);
      }
      continue;
    }

    PromLine sample;
    if (!ParsePromSampleLine(line, &sample)) return std::nullopt;

    // Histogram component series (_bucket/_sum/_count of a histogram-typed
    // family) vs plain counter/gauge sample.
    std::string family = sample.name;
    const bool is_bucket = StripSuffix(&family, "_bucket");
    const bool is_sum = !is_bucket && StripSuffix(&family, "_sum");
    const bool is_count = !is_bucket && !is_sum &&
                          StripSuffix(&family, "_count");
    const auto family_it = family_types.find(family);
    if ((is_bucket || is_sum || is_count) && family_it != family_types.end() &&
        family_it->second == MetricType::kHistogram) {
      HistogramAssembly& assembly =
          histograms[family + "{" + RenderLabels(sample.labels) + "}"];
      assembly.name = family;
      assembly.labels = sample.labels;
      uint64_t value = 0;
      if (!ParseU64(sample.value, &value)) return std::nullopt;
      if (is_bucket) {
        if (sample.le == "+Inf") continue;  // redundant with the last bucket
        uint64_t bound = 0;
        if (!ParseU64(sample.le, &bound)) return std::nullopt;
        const size_t index =
            bound == 0 ? 0 : static_cast<size_t>(std::bit_width(bound));
        if (HistogramBucketUpperBound(index) != bound) return std::nullopt;
        assembly.cumulative.emplace_back(index, value);
      } else if (is_sum) {
        assembly.sum = value;
      } else {
        assembly.count = value;
      }
      continue;
    }

    const auto type_it = family_types.find(sample.name);
    if (type_it == family_types.end() ||
        type_it->second == MetricType::kHistogram) {
      return std::nullopt;
    }
    MetricSample out;
    out.name = sample.name;
    out.labels = sample.labels;
    out.type = type_it->second;
    if (out.type == MetricType::kCounter) {
      if (!ParseU64(sample.value, &out.counter_value)) return std::nullopt;
    } else {
      if (!ParseI64(sample.value, &out.gauge_value)) return std::nullopt;
    }
    scalars[out.name + "{" + RenderLabels(out.labels) + "}"] = std::move(out);
  }

  MetricsSnapshot snapshot;
  for (auto& [key, sample] : scalars) {
    snapshot.samples.push_back(std::move(sample));
  }
  for (auto& [key, assembly] : histograms) {
    MetricSample sample;
    sample.name = assembly.name;
    sample.labels = assembly.labels;
    sample.type = MetricType::kHistogram;
    sample.histogram.sum = assembly.sum;
    sample.histogram.count = assembly.count;
    size_t max_index = 0;
    for (const auto& [index, cumulative] : assembly.cumulative) {
      if (index > max_index) max_index = index;
    }
    if (!assembly.cumulative.empty()) {
      sample.histogram.buckets.assign(max_index + 1, 0);
      uint64_t previous = 0;
      size_t previous_index = 0;
      bool first = true;
      for (const auto& [index, cumulative] : assembly.cumulative) {
        if (!first && index <= previous_index) return std::nullopt;
        if (cumulative < previous) return std::nullopt;
        sample.histogram.buckets[index] = cumulative - previous;
        previous = cumulative;
        previous_index = index;
        first = false;
      }
    }
    TrimTrailingZeroBuckets(&sample.histogram);
    snapshot.samples.push_back(std::move(sample));
  }
  CanonicalizeSnapshot(&snapshot);
  return snapshot;
}

}  // namespace smb::telemetry
