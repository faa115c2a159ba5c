#include "perfbench/ledger.h"

#include <cstring>
#include <string_view>

#include "trace/chrome_trace.h"

namespace perfbench {
namespace {

std::string LayerOf(const char* name) {
  const char* dot = std::strchr(name, '.');
  return dot == nullptr ? std::string(name)
                        : std::string(name, static_cast<size_t>(dot - name));
}

}  // namespace

Ledger::Open Ledger::Begin(const char* name, uint32_t lane,
                           uint64_t delta_id) {
  Open open;
  open.start_ns = CpuNs();
  if (!enabled_) return open;
  Span span;
  span.name = name;
  span.stage = stage_;
  span.lane = lane;
  span.delta_id = delta_id;
  span.start_ns = open.start_ns;
  span.parent = open_;
  spans_.push_back(span);
  open.index = static_cast<int32_t>(spans_.size() - 1);
  open_ = open.index;
  return open;
}

uint64_t Ledger::End(const Open& open) {
  const uint64_t end = CpuNs();
  if (open.index >= 0) {
    Span& span = spans_[static_cast<size_t>(open.index)];
    span.end_ns = end;
    open_ = span.parent;
  }
  return end - open.start_ns;
}

void Ledger::Mark(const char* name, uint32_t lane, uint64_t delta_id) {
  if (!enabled_) return;
  Span span;
  span.name = name;
  span.stage = stage_;
  span.lane = lane;
  span.delta_id = delta_id;
  span.start_ns = span.end_ns = CpuNs();
  span.parent = open_;
  spans_.push_back(span);
}

void Ledger::Reset(uint64_t window_start_ns) {
  spans_.clear();
  open_ = -1;
  window_start_ns_ = window_start_ns;
  window_end_ns_ = window_start_ns;
}

Ledger::Summary Ledger::Summarize() const {
  Summary out;
  out.window_s =
      static_cast<double>(window_end_ns_ - window_start_ns_) * 1e-9;
  std::vector<uint64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  uint64_t top_level_ns = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const uint64_t dur = span.end_ns - span.start_ns;
    const std::string layer = LayerOf(span.name);
    LayerTime& time = out.layers[layer];
    time.self_s += static_cast<double>(dur - child_ns[i]) * 1e-9;
    // Busy counts a span only when no enclosing span is of the same
    // layer, so nested same-layer calls are not double counted.
    bool outermost = true;
    for (int32_t p = span.parent; p >= 0;
         p = spans_[static_cast<size_t>(p)].parent) {
      if (LayerOf(spans_[static_cast<size_t>(p)].name) == layer) {
        outermost = false;
        break;
      }
    }
    if (outermost) time.busy_s += static_cast<double>(dur) * 1e-9;
    if (span.parent < 0) top_level_ns += dur;
  }
  out.unattributed_s =
      static_cast<double>((window_end_ns_ - window_start_ns_) - top_level_ns) *
      1e-9;
  return out;
}

std::string Ledger::ChromeTrace() const {
  std::vector<smb::trace::ChromeTraceEvent> events;
  events.reserve(spans_.size());
  for (const Span& span : spans_) {
    smb::trace::ChromeTraceEvent event;
    event.name = span.name;
    event.category = span.stage;
    if (span.delta_id != 0) {
      event.category += ",delta-" + std::to_string(span.delta_id >> 32) +
                        "-" + std::to_string(span.delta_id & 0xFFFFFFFFu);
    }
    event.tid = span.lane;
    event.start_ns = span.start_ns - window_start_ns_;
    event.duration_ns = span.end_ns - span.start_ns;
    events.push_back(std::move(event));
  }
  return smb::trace::FormatChromeTrace(events, events.size(), 0);
}

}  // namespace perfbench
