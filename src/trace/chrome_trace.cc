#include "trace/chrome_trace.h"

#include <utility>

#include "common/json_value.h"
#include "common/json_writer.h"

namespace smb::trace {

namespace {

// Microseconds with nanosecond resolution (three fractional digits).
double NanosToMicros(uint64_t ns) { return static_cast<double>(ns) / 1e3; }

}  // namespace

std::string FormatChromeTrace(const std::vector<ChromeTraceEvent>& events,
                              uint64_t total_recorded,
                              uint64_t dropped_on_wrap) {
  JsonWriter json;
  json.BeginObject();
  json.Key("displayTimeUnit");
  json.String("ns");
  json.Key("otherData");
  json.BeginObject();
  json.Key("total_recorded");
  json.Uint(total_recorded);
  json.Key("dropped_on_wrap");
  json.Uint(dropped_on_wrap);
  json.EndObject();
  json.Key("traceEvents");
  json.BeginArray();
  for (const ChromeTraceEvent& event : events) {
    json.BeginObject();
    json.Key("name");
    json.String(event.name);
    json.Key("cat");
    json.String(event.category);
    json.Key("ph");
    json.String("X");
    json.Key("pid");
    json.Uint(1);
    json.Key("tid");
    json.Uint(event.tid);
    json.Key("ts");
    json.Double(NanosToMicros(event.start_ns), 3);
    json.Key("dur");
    json.Double(NanosToMicros(event.duration_ns), 3);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return json.TakeString();
}

bool ValidateChromeTrace(std::string_view text, std::string* error,
                         size_t* num_events) {
  const auto fail = [error](std::string message) {
    if (error != nullptr) *error = std::move(message);
    return false;
  };

  JsonValue root;
  if (!ParseJsonDocument(text, &root)) {
    return fail("document is not valid JSON");
  }
  if (root.kind != JsonValue::kObject) {
    return fail("root is not an object");
  }
  const JsonValue* events = root.Find("traceEvents");
  if (events == nullptr) return fail("missing traceEvents member");
  if (events->kind != JsonValue::kArray) {
    return fail("traceEvents is not an array");
  }

  for (size_t i = 0; i < events->array.size(); ++i) {
    const JsonValue& event = events->array[i];
    const auto at = [i](const char* what) {
      return "traceEvents[" + std::to_string(i) + "]: " + what;
    };
    if (event.kind != JsonValue::kObject) return fail(at("not an object"));

    const JsonValue* name = event.Find("name");
    if (name == nullptr || name->kind != JsonValue::kString ||
        name->string.empty()) {
      return fail(at("missing or empty string name"));
    }
    const JsonValue* cat = event.Find("cat");
    if (cat == nullptr || cat->kind != JsonValue::kString) {
      return fail(at("missing string cat"));
    }
    const JsonValue* ph = event.Find("ph");
    if (ph == nullptr || ph->kind != JsonValue::kString ||
        ph->string != "X") {
      return fail(at("ph is not \"X\""));
    }
    uint64_t unsigned_value = 0;
    const JsonValue* pid = event.Find("pid");
    if (pid == nullptr || !pid->AsU64(&unsigned_value)) {
      return fail(at("missing unsigned pid"));
    }
    const JsonValue* tid = event.Find("tid");
    if (tid == nullptr || !tid->AsU64(&unsigned_value)) {
      return fail(at("missing unsigned tid"));
    }
    for (const char* key : {"ts", "dur"}) {
      const JsonValue* stamp = event.Find(key);
      double value = 0.0;
      if (stamp == nullptr || !stamp->AsDouble(&value)) {
        return fail(at("missing numeric ts/dur"));
      }
      if (value < 0.0) return fail(at("negative ts/dur"));
    }
  }

  if (num_events != nullptr) *num_events = events->array.size();
  return true;
}

}  // namespace smb::trace
