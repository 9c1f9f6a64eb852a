// willump_e2e: runs one workload of the end-to-end benchmark and prints its
// metrics. bench/e2e/run.sh builds this binary and is the command to use;
// see README.md in this directory for the workloads and metrics.
//
//   willump_e2e --workload W [--seed N] [--seconds S] [--trace 0|1]
//               [--smoke] [--self-test-corrupt] [--out DIR]
//
// Exit status: 0 when every check passed, 1 when a check failed (the result
// line still prints, with "correct": false), 2 on bad arguments, 3 when the
// run aborted.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <string_view>

#include "workloads.hpp"

namespace {

using e2e::Report;
using e2e::RunOptions;

struct WorkloadEntry {
  const char* name;
  Report (*run)(const RunOptions&);
};

constexpr WorkloadEntry kWorkloads[] = {
    {"toxic-batch", e2e::run_toxic_batch},
    {"price-topk", e2e::run_price_topk},
    {"music-serve", e2e::run_music_serve},
    {"mixed-slo", e2e::run_mixed_slo},
};

int usage(const char* msg) {
  std::fprintf(stderr,
               "willump_e2e: %s\nusage: willump_e2e --workload "
               "toxic-batch|price-topk|music-serve|mixed-slo [--seed N] "
               "[--seconds S] [--trace 0|1] [--smoke] [--self-test-corrupt] "
               "[--out DIR]\n",
               msg);
  return 2;
}

bool parse_number(const char* s, double& out) {
  char* end = nullptr;
  out = std::strtod(s, &end);
  return end != s && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions o;
  o.out_dir = "build-bench/results";
  bool seconds_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    double v = 0.0;
    if (arg == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (arg == "--seed" && has_value && parse_number(argv[i + 1], v) && v >= 0) {
      o.seed = static_cast<std::uint64_t>(v);
      ++i;
    } else if (arg == "--seconds" && has_value && parse_number(argv[i + 1], v) && v > 0) {
      o.seconds = v;
      seconds_given = true;
      ++i;
    } else if (arg == "--trace") {
      o.trace = true;
      if (has_value && (std::string_view(argv[i + 1]) == "0" ||
                        std::string_view(argv[i + 1]) == "1")) {
        o.trace = std::string_view(argv[++i]) == "1";
      }
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else if (arg == "--self-test-corrupt") {
      o.corrupt = true;
    } else if (arg == "--out" && has_value) {
      o.out_dir = argv[++i];
    } else {
      return usage(("bad argument: " + std::string(arg)).c_str());
    }
  }
  if (o.smoke && !seconds_given) o.seconds = 1.0;

  const WorkloadEntry* entry = nullptr;
  for (const auto& w : kWorkloads) {
    if (o.workload == w.name) entry = &w;
  }
  if (entry == nullptr) return usage(("unknown workload: " + o.workload).c_str());

  try {
    std::filesystem::create_directories(o.out_dir);
    const Report r = entry->run(o);
    r.write(o);
    r.print(o.trace);
    return r.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "willump_e2e: %s aborted: %s\n", o.workload.c_str(), e.what());
    return 3;
  }
}
