// Checked router benchmark: the rb_perfbench program.
//
//   rb_perfbench --workload <fwd-64|rtr-nat-64|ipsec-abilene|rb4-des-64>
//                --seed <n> --seconds <s> --trace <0|1>
//   rb_perfbench --self-test
//
// One process, one thread. With --trace 0 it prints the end-to-end metrics
// (no profiler installed); with --trace 1 the per-layer metrics from a
// profiled run. Every run prints the operations attempted and failed, the
// failures by drop bucket, and the output-check verdict, and ends with one
// JSON line: {"correct", "attempted", "failed", "metrics"}. A failed output
// check exits 1.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.hpp"
#include "telemetry/profiler.hpp"

namespace perfbench {

void RunResult::Fail(const std::string& what) {
  correct = false;
  if (errors.size() < 8) {
    errors.push_back(what);
  }
  check_failures++;
}

CpuRotor::CpuRotor() {
  CPU_ZERO(&original_);
  have_original_ = sched_getaffinity(0, sizeof(original_), &original_) == 0;
  if (have_original_) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &original_)) {
        cpus_.push_back(c);
      }
    }
  }
  last_move_ = rb::telemetry::ReadCycles();
}

CpuRotor::~CpuRotor() {
  if (have_original_) {
    sched_setaffinity(0, sizeof(original_), &original_);
  }
}

void CpuRotor::MaybeMove() {
  if (cpus_.size() < 2 || SecondsSince(last_move_) < kRotateSeconds) {
    return;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_], &one);
  next_ = (next_ + 1) % cpus_.size();
  sched_setaffinity(0, sizeof(one), &one);
  last_move_ = rb::telemetry::ReadCycles();
}

double ResidentMiB() {
  FILE* f = fopen("/proc/self/statm", "r");
  if (f == nullptr) {
    return 0;
  }
  unsigned long size = 0;
  unsigned long resident = 0;
  const int got = fscanf(f, "%lu %lu", &size, &resident);
  fclose(f);
  if (got != 2) {
    return 0;
  }
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

double TrimmedResidentMiB() {
  malloc_trim(0);
  return ResidentMiB();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double SecondsSince(uint64_t start_cycles) {
  return static_cast<double>(rb::telemetry::ReadCycles() - start_cycles) /
         rb::telemetry::CyclesPerSecond();
}

namespace {

int Usage() {
  fprintf(stderr,
          "usage: rb_perfbench --workload <fwd-64|rtr-nat-64|ipsec-abilene|rb4-des-64> "
          "--seed <n> --seconds <s> --trace <0|1>\n"
          "       rb_perfbench --self-test\n");
  return 2;
}

bool IsWorkload(const std::string& w) {
  return w == "fwd-64" || w == "rtr-nat-64" || w == "ipsec-abilene" || w == "rb4-des-64";
}

void PrintResult(const Options& opt, const RunResult& r) {
  printf("workload %s seed %llu seconds %g trace %d\n", opt.workload.c_str(),
         static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
  for (const Metric& m : r.metrics) {
    printf("metric %-32s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& [k, v] : r.notes) {
    printf("note %s %s\n", k.c_str(), v.c_str());
  }
  printf("attempted %llu failed %llu\n", static_cast<unsigned long long>(r.attempted),
         static_cast<unsigned long long>(r.failed));
  for (const auto& [bucket, n] : r.failure_buckets) {
    printf("failed.%s %llu\n", bucket.c_str(), static_cast<unsigned long long>(n));
  }
  if (r.correct) {
    printf("checks ok\n");
  } else {
    printf("checks FAILED (%llu failures)\n", static_cast<unsigned long long>(r.check_failures));
    for (const std::string& e : r.errors) {
      printf("  %s\n", e.c_str());
    }
  }
  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    char value[64];
    snprintf(value, sizeof(value), "%.17g", r.metrics[i].value);
    json += (i ? ", \"" : "\"") + r.metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + r.metrics[i].unit + "\"}";
  }
  json += "}}";
  printf("%s\n", json.c_str());
  fflush(stdout);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::Options;
  Options opt;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string { return i + 1 < argc ? argv[++i] : ""; };
    if (arg == "--self-test") {
      self_test = true;
    } else if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      opt.trace = value() == "1";
    } else {
      return perfbench::Usage();
    }
  }
  if (self_test) {
    return perfbench::RunSelfTest() == 0 ? 0 : 1;
  }
  if (!perfbench::IsWorkload(opt.workload) || opt.seconds <= 0) {
    return perfbench::Usage();
  }
  const perfbench::RunResult r = opt.workload == "rb4-des-64"
                                     ? perfbench::RunDesWorkload(opt)
                                     : perfbench::RunRouterWorkload(opt);
  perfbench::PrintResult(opt, r);
  return r.correct ? 0 : 1;
}
