// trace_validate — schema checker for Chrome trace-event JSON captured
// with `--trace-out=` (bench/per_flow_throughput) or exported through
// trace/span_tracer.h. CI's trace-smoke step runs every captured trace
// through this before declaring the tracing build healthy.
//
// Usage:
//   trace_validate [FILE]        (stdin when FILE omitted)
//
// Exit 0 and a one-line summary when the document passes
// ValidateChromeTrace; exit 1 with the validator's reason otherwise.

#include <fstream>
#include <iostream>
#include <iterator>
#include <string>

#include "trace/chrome_trace.h"

int main(int argc, char** argv) {
  if (argc > 2 || (argc == 2 && (std::string(argv[1]) == "--help" ||
                                 std::string(argv[1]) == "-h"))) {
    std::fprintf(stderr, "usage: %s [FILE]   (stdin when FILE omitted)\n",
                 argv[0]);
    return 2;
  }

  std::string source_name = "<stdin>";
  std::string text;
  if (argc == 2) {
    source_name = argv[1];
    std::ifstream file(argv[1], std::ios::binary);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    text.assign((std::istreambuf_iterator<char>(file)),
                std::istreambuf_iterator<char>());
  } else {
    text.assign((std::istreambuf_iterator<char>(std::cin)),
                std::istreambuf_iterator<char>());
  }

  std::string error;
  size_t num_events = 0;
  if (!smb::trace::ValidateChromeTrace(text, &error, &num_events)) {
    std::fprintf(stderr, "%s: INVALID: %s\n", source_name.c_str(),
                 error.c_str());
    return 1;
  }
  std::printf("%s: valid Chrome trace, %zu event(s)\n", source_name.c_str(),
              num_events);
  return 0;
}
