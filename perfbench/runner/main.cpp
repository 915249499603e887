// perfbench runner: runs one workload for a fixed host time and prints
// a human-readable report followed by one JSON result line.
//
//   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
//
// Exit status: 0 after printing a result (correct or not), 2 on a usage
// error, 1 when the benchmark itself fails.
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <map>
#include <string>
#include <thread>

#include "gf/region.hpp"
#include "workloads.hpp"

namespace {

using perfbench::format;

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench_runner: %s\nusage: perfbench_runner --workload "
               "{fleet_serve|online_rebuild|rebuild_verify} --seed N "
               "--seconds S --trace 0|1\n",
               msg);
  return 2;
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos ||
      s.size() > 19)
    return false;
  out = std::stoull(s);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // glibc raises its mmap and trim thresholds as large blocks are freed,
  // so whether a pass's big blocks came fresh from the kernel (and paid
  // their page faults) or were reused from the heap depended on the
  // order of earlier allocations: at some seeds every pass took 3.5x
  // the page faults and ran 15% slower. Fixing both thresholds turns
  // that adjustment off. They are fixed where it tops out (32 MiB for
  // mmap, twice that for trim), the state a long-running process
  // reaches; fixing them at the 128 KiB it starts from instead made
  // every 128 KiB+ vector an mmap/munmap pair.
  mallopt(M_MMAP_THRESHOLD, 32 * 1024 * 1024);
  mallopt(M_TRIM_THRESHOLD, 64 * 1024 * 1024);

  perfbench::RunOptions opts;
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return usage(("unexpected argument " + key).c_str());
    args[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) return usage("every flag takes a value");
  for (const auto& [key, value] : args)
    if (key != "workload" && key != "seed" && key != "seconds" &&
        key != "trace")
      return usage(("unknown flag --" + key).c_str());

  std::uint64_t seconds = 0;
  std::uint64_t trace = 0;
  if (!parse_u64(args["seed"], opts.seed)) return usage("--seed needs a number");
  if (!parse_u64(args["seconds"], seconds) || seconds == 0 || seconds > 600)
    return usage("--seconds needs a number in [1, 600]");
  if (!parse_u64(args["trace"], trace) || trace > 1)
    return usage("--trace needs 0 or 1");
  opts.seconds = static_cast<double>(seconds);
  opts.trace = trace == 1;
  // A fixed fan-out, no wider than the host.
  const unsigned hw = std::thread::hardware_concurrency();
  opts.threads = hw == 0 ? 1 : std::min<std::size_t>(4, hw);

  const std::string& workload = args["workload"];
  perfbench::RunResult (*run)(const perfbench::RunOptions&) = nullptr;
  if (workload == "fleet_serve") run = perfbench::run_fleet_serve;
  if (workload == "online_rebuild") run = perfbench::run_online_rebuild;
  if (workload == "rebuild_verify") run = perfbench::run_rebuild_verify;
  if (run == nullptr) return usage(("unknown workload '" + workload + "'").c_str());

  // PERFBENCH_BUILD_TYPE and PERFBENCH_LIB_FLAGS come from CMakeLists.txt.
  std::printf("build: %s, compiler %s, library flags \"%s\"\n",
              PERFBENCH_BUILD_TYPE, __VERSION__, PERFBENCH_LIB_FLAGS);
  std::printf("host: hardware_concurrency %u, GF tier %s, threads %zu\n", hw,
              std::string(sma::gf::to_string(sma::gf::active_tier())).c_str(),
              opts.threads);
  std::fflush(stdout);
  try {
    const perfbench::RunResult res = run(opts);
    const std::string metrics = res.metrics.to_json(
        opts.trace ? perfbench::Tier::kPerLayer : perfbench::Tier::kEndToEnd);
    for (const std::string& note : res.notes) std::printf("%s\n", note.c_str());
    std::printf(
        "%s\n",
        format("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
               "\"metrics\": %s}",
               res.checks.failed() == 0 ? "true" : "false",
               static_cast<unsigned long long>(res.checks.attempted()),
               static_cast<unsigned long long>(res.checks.failed()),
               metrics.c_str())
            .c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
    return 1;
  }
  return 0;
}
