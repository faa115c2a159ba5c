// Keyword popularity tracking — the paper's search-engine application
// (Section I): all queries for the same keyword form a data stream, the
// item is the client issuing the query, and the stream's cardinality is
// the keyword's popularity (distinct users, not raw query count).
//
// Demonstrates the string entry point (AddBytes) and per-keyword SMBs.
//
//   $ ./keyword_popularity

#include <cstdio>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/self_morphing_bitmap.h"

namespace {

struct Keyword {
  std::string text;
  size_t distinct_users;
  int queries_per_user;  // repeat queries must not inflate popularity
};

smb::SelfMorphingBitmap MakeEstimator(uint64_t seed) {
  smb::SelfMorphingBitmap::Config config;
  config.num_bits = 10000;
  config.threshold = 1111;  // optimal for n up to ~1M at m = 10000
  config.hash_seed = seed;
  return smb::SelfMorphingBitmap(config);
}

}  // namespace

int main() {
  const std::vector<Keyword> keywords = {
      {"weather", 800000, 3},  {"breaking news", 250000, 5},
      {"cpp tutorial", 40000, 2}, {"cardinality estimation", 900, 4},
      {"self-morphing bitmap", 60, 10},
  };

  std::printf("%-26s %12s %12s %9s\n", "keyword", "true users",
              "estimated", "error");
  for (size_t k = 0; k < keywords.size(); ++k) {
    const Keyword& kw = keywords[k];
    smb::SelfMorphingBitmap popularity = MakeEstimator(k + 1);
    // Client ids are synthetic "user-<n>" strings; each user repeats the
    // query several times.
    for (int repeat = 0; repeat < kw.queries_per_user; ++repeat) {
      for (size_t u = 0; u < kw.distinct_users; ++u) {
        char client[48];
        std::snprintf(client, sizeof(client), "user-%zu-%zu", k, u);
        popularity.AddBytes(client);
      }
    }
    const double est = popularity.Estimate();
    const double truth = static_cast<double>(kw.distinct_users);
    std::printf("%-26s %12.0f %12.0f %+8.2f%%\n", kw.text.c_str(), truth,
                est, (est - truth) / truth * 100.0);
  }
  std::printf("\nEach keyword used one 10000-bit SMB (1.25 KB); repeat\n"
              "queries by the same user never inflate the popularity.\n");
  return 0;
}
