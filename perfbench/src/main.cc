// perfbench: runs one workload of the fewstate benchmark and prints its
// metrics. Usually driven by run.py, which builds this binary first:
//
//   perfbench --workload hot_kernels --seed 1 --seconds 10 --trace 0
//
// The last line of output is one JSON object with the metrics, the
// operation counts and extra facts; the lines before it are readable.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "harness.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out PATH]\n"
               "workloads: hot_kernels priced_nvm durable_serving "
               "few_state\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      return Usage();
    }
    if (end != nullptr && *end != '\0') return Usage();
  }
  if (argc % 2 == 0 || !(options.seconds > 0)) return Usage();

  using RunFn = void (*)(const perfbench::Options&, perfbench::Result*);
  const std::map<std::string, RunFn> workloads = {
      {"hot_kernels", perfbench::RunHotKernels},
      {"priced_nvm", perfbench::RunPricedNvm},
      {"durable_serving", perfbench::RunDurableServing},
      {"few_state", perfbench::RunFewState},
  };
  const auto it = workloads.find(options.workload);
  if (it == workloads.end()) return Usage();

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d "
              "compiler=\"%s\" build_type=%s\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);
  perfbench::Result result;
  it->second(options, &result);
  result.Print();
  return result.failed() == 0 ? 0 : 1;
}
