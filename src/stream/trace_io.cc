#include "stream/trace_io.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace smb {
namespace {

constexpr char kMagic[5] = {'S', 'M', 'B', 'T', '1'};

void AppendU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>(v >> (8 * i)));
  }
}

bool ReadU64(const std::string& in, size_t* pos, uint64_t* v) {
  if (*pos + 8 > in.size()) return false;
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= static_cast<uint64_t>(
               static_cast<uint8_t>(in[*pos + static_cast<size_t>(i)]))
           << (8 * i);
  }
  *pos += 8;
  *v = out;
  return true;
}

}  // namespace

bool WriteTraceFile(const Trace& trace, const std::string& path) {
  std::string out;
  out.reserve(5 + 16 + trace.true_cardinality.size() * 8 +
              trace.packets.size() * 16);
  out.append(kMagic, sizeof(kMagic));
  AppendU64(&out, trace.true_cardinality.size());
  AppendU64(&out, trace.packets.size());
  for (uint64_t c : trace.true_cardinality) AppendU64(&out, c);
  for (const Packet& p : trace.packets) {
    AppendU64(&out, p.flow);
    AppendU64(&out, p.element);
  }
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) return false;
  file.write(out.data(), static_cast<std::streamsize>(out.size()));
  return static_cast<bool>(file);
}

std::optional<Trace> ReadTraceFile(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return std::nullopt;
  std::ostringstream buffer;
  buffer << file.rdbuf();
  const std::string in = buffer.str();

  if (in.size() < sizeof(kMagic) ||
      std::memcmp(in.data(), kMagic, sizeof(kMagic)) != 0) {
    return std::nullopt;
  }
  size_t pos = sizeof(kMagic);
  uint64_t num_flows = 0;
  uint64_t num_packets = 0;
  if (!ReadU64(in, &pos, &num_flows) || !ReadU64(in, &pos, &num_packets)) {
    return std::nullopt;
  }
  // Structural sanity: the remaining bytes must match the header exactly.
  // Checked by division, so a huge count cannot wrap the byte total and
  // reach the resizes below.
  const size_t body = in.size() - pos;
  if (num_flows > body / 8) return std::nullopt;
  const size_t packet_bytes = body - num_flows * 8;
  if (packet_bytes % 16 != 0 || num_packets != packet_bytes / 16) {
    return std::nullopt;
  }

  Trace trace;
  trace.true_cardinality.resize(num_flows);
  for (auto& c : trace.true_cardinality) {
    if (!ReadU64(in, &pos, &c)) return std::nullopt;
  }
  trace.packets.resize(num_packets);
  for (auto& p : trace.packets) {
    if (!ReadU64(in, &pos, &p.flow) || !ReadU64(in, &pos, &p.element)) {
      return std::nullopt;
    }
    if (p.flow >= num_flows) return std::nullopt;
  }
  return trace;
}

namespace {

// Parses one u64 field (decimal or 0x-hex), trimming whitespace.
bool ParseU64Field(const std::string& field, uint64_t* out) {
  size_t begin = field.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return false;
  size_t end = field.find_last_not_of(" \t\r");
  const std::string token = field.substr(begin, end - begin + 1);
  if (token.empty()) return false;
  errno = 0;
  char* parse_end = nullptr;
  const int base =
      token.size() > 2 && token[0] == '0' &&
              (token[1] == 'x' || token[1] == 'X')
          ? 16
          : 10;
  const unsigned long long v = std::strtoull(token.c_str(), &parse_end,
                                             base);
  if (errno != 0 || parse_end == token.c_str() || *parse_end != '\0') {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace

std::optional<Trace> ParseCsvTrace(const std::string& csv_text,
                                   size_t* error_line) {
  // External flow keys can be arbitrary 64-bit values (e.g., IPv4 pairs);
  // remap them to dense ids so true_cardinality stays an indexable vector.
  std::unordered_map<uint64_t, uint64_t> flow_ids;
  std::vector<std::unordered_set<uint64_t>> distinct;
  Trace trace;

  std::istringstream in(csv_text);
  std::string line;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    const size_t comma = line.find(',');
    uint64_t flow_key = 0;
    uint64_t element = 0;
    if (comma == std::string::npos ||
        !ParseU64Field(line.substr(0, comma), &flow_key) ||
        !ParseU64Field(line.substr(comma + 1), &element)) {
      if (error_line != nullptr) *error_line = line_number;
      return std::nullopt;
    }
    const auto [it, inserted] =
        flow_ids.emplace(flow_key, flow_ids.size());
    if (inserted) distinct.emplace_back();
    const uint64_t flow = it->second;
    distinct[flow].insert(element);
    trace.packets.push_back(Packet{flow, element});
  }

  trace.true_cardinality.resize(distinct.size());
  for (size_t f = 0; f < distinct.size(); ++f) {
    trace.true_cardinality[f] = distinct[f].size();
  }
  return trace;
}

std::optional<Trace> ReadCsvTraceFile(const std::string& path,
                                      size_t* error_line) {
  std::ifstream file(path);
  if (!file) return std::nullopt;
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return ParseCsvTrace(buffer.str(), error_line);
}

}  // namespace smb
