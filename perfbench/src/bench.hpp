// Shared vocabulary of the benchmark program: run options, the per-run
// result with its accounting, and small measurement helpers.
#ifndef PERFBENCH_BENCH_HPP_
#define PERFBENCH_BENCH_HPP_

#include <sched.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;  // false: end-to-end metrics; true: per-layer metrics
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  // Failed operations split by where they were dropped.
  std::vector<std::pair<std::string, uint64_t>> failure_buckets;
  // Extra figures printed beside the metrics (sample counts and the like).
  std::vector<std::pair<std::string, std::string>> notes;
  std::vector<std::string> errors;  // the first few check failures
  uint64_t check_failures = 0;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Note(const std::string& key, const std::string& value) { notes.emplace_back(key, value); }
  // Records a failed output check; the run then reports correct = false.
  void Fail(const std::string& what);
};

RunResult RunRouterWorkload(const Options& opt);
RunResult RunDesWorkload(const Options& opt);
// Feeds every output check one corrupted output; returns the number of
// checks that failed to fire.
int RunSelfTest();

// On a shared virtual machine each CPU switches between a fast and a slow
// speed for tenths of a second to seconds at a time (on a 4-vCPU VM a run's
// per-round rates gather near two values, on fwd-64 about 6.1 and 4.5 Mpps),
// so every timing metric is read at this quantile of the run's per-round or
// per-set-up cost: the figure of the rounds that ran while the host was
// quiet.
inline constexpr double kQuietQuantile = 0.01;
// Set-up is repeated after the timed run for at least this long, and at
// least kMinSetups times; setup_s is the quiet quantile of those set-ups.
inline constexpr double kSetupSeconds = 2.0;
inline constexpr int kMinSetups = 5;

// Moves this thread round-robin over the CPUs it may run on, at most once
// per kRotateSeconds. Which of the host's CPUs is slow changes from second
// to second, so visiting each in turn gives every run's quiet quantile
// rounds and set-ups on the fast ones. Restores the CPU set when destroyed.
inline constexpr double kRotateSeconds = 0.25;
class CpuRotor {
 public:
  CpuRotor();
  ~CpuRotor();
  CpuRotor(const CpuRotor&) = delete;
  CpuRotor& operator=(const CpuRotor&) = delete;
  // Call between measured operations.
  void MaybeMove();

 private:
  cpu_set_t original_;
  bool have_original_ = false;
  std::vector<int> cpus_;
  size_t next_ = 0;
  uint64_t last_move_ = 0;
};

// Resident set size of this process, in MiB.
double ResidentMiB();
// The same after handing the heap's free pages back to the system, so that
// memory freed by input generation is not silently reused by the set-up and
// the benchmark's own storage does not displace it: the baseline of mem_mb.
double TrimmedResidentMiB();
// The q-quantile (0 <= q <= 1) of v, interpolating between order statistics.
double Quantile(std::vector<double> v, double q);
double SecondsSince(uint64_t start_cycles);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_HPP_
