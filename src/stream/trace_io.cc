#include "stream/trace_io.h"

#include <cerrno>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/le_bytes.h"

namespace smb {
namespace {

// SMBT1: magic | u64 num_flows | u64 num_packets
//        | num_flows u64 true cardinalities | num_packets (u64 flow, u64
//        element) pairs, all little-endian (common/le_bytes.h).
constexpr char kMagic[5] = {'S', 'M', 'B', 'T', '1'};

// The packet array moves in one copy, so its in-memory layout must be the
// on-disk (flow, element) pair.
static_assert(sizeof(Packet) == 16 && offsetof(Packet, element) == 8 &&
              std::is_trivially_copyable_v<Packet>);

}  // namespace

bool WriteTraceFile(const Trace& trace, const std::string& path) {
  std::vector<uint8_t> out;
  out.reserve(sizeof(kMagic) + 16 + trace.true_cardinality.size() * 8 +
              trace.packets.size() * sizeof(Packet));
  AppendBytes(&out, kMagic, sizeof(kMagic));
  AppendU64(&out, trace.true_cardinality.size());
  AppendU64(&out, trace.packets.size());
  AppendU64s(&out, trace.true_cardinality);
  AppendBytes(&out, trace.packets.data(),
              trace.packets.size() * sizeof(Packet));
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) return false;
  file.write(reinterpret_cast<const char*>(out.data()),
             static_cast<std::streamsize>(out.size()));
  return static_cast<bool>(file);
}

std::optional<Trace> ReadTraceFile(const std::string& path) {
  // file_size refuses anything but a regular file, so the one read below
  // is sized by the file itself.
  std::error_code error;
  const uintmax_t size = std::filesystem::file_size(path, error);
  if (error) return std::nullopt;
  std::vector<uint8_t> in(size);
  std::ifstream file(path, std::ios::binary);
  if (!file.read(reinterpret_cast<char*>(in.data()),
                 static_cast<std::streamsize>(size))) {
    return std::nullopt;
  }

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
  if (packet_bytes % sizeof(Packet) != 0 ||
      num_packets != packet_bytes / sizeof(Packet)) {
    return std::nullopt;
  }

  Trace trace;
  trace.true_cardinality.resize(num_flows);
  if (!ReadU64s(in, &pos, trace.true_cardinality)) return std::nullopt;
  trace.packets.resize(num_packets);
  std::memcpy(trace.packets.data(), in.data() + pos, packet_bytes);
  for (const Packet& p : trace.packets) {
    if (p.flow >= num_flows) return std::nullopt;
  }
  return trace;
}

bool ParseCsvField(std::string_view field, uint64_t* out) {
  const size_t begin = field.find_first_not_of(" \t\r");
  if (begin == std::string_view::npos) return false;
  const size_t end = field.find_last_not_of(" \t\r");
  const std::string token(field.substr(begin, end - begin + 1));
  // strtoull would take a sign (and negate "-1" into 2^64 - 1).
  if (token[0] < '0' || token[0] > '9') return false;
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
        !ParseCsvField(std::string_view(line).substr(0, comma),
                       &flow_key) ||
        !ParseCsvField(std::string_view(line).substr(comma + 1),
                       &element)) {
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
