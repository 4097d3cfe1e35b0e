/// \file harness.h
/// \brief Shared plumbing of the wall-clock benchmark: arguments, metric
/// collection, correctness accounting, order statistics, host-speed
/// scaling, the trace file and the result printer.
///
/// The traced run records spans with the library's own obs::Tracer. The
/// benchmark opens its obs::ScopedSpan's around calls INTO the library's
/// public functions, from the benchmark's own files; the library carries no
/// benchmark instrumentation.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "nn/matrix.h"
#include "obs/trace.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = "perfbench/out";
};

/// Parses `--workload W --seed N --seconds S --trace 0|1 [--out DIR]`.
/// Returns false (after printing why) on a malformed command line.
bool ParseArgs(int argc, char** argv, Args* args);

/// Monotonic wall clock in seconds / nanoseconds.
double NowSeconds();
int64_t NowNanos();

/// Order statistics over a copy of `values`: linear interpolation between
/// closest ranks (the same definition numpy uses by default). 0 when empty.
double Percentile(std::vector<double> values, double p);
inline double Median(const std::vector<double>& values) {
  return Percentile(values, 50.0);
}

/// Peak resident set of this process so far, MiB.
double PeakRssMb();

/// FNV-1a over a matrix's float bytes: bit-identity fingerprint.
uint64_t Fingerprint(const aligraph::nn::Matrix& m);

/// \brief Collected output of one workload run.
struct Metric {
  double value = 0;
  std::string unit;
};

class Report {
 public:
  /// End-to-end metrics: the common set every workload reports.
  void EndToEnd(const std::string& name, double value, const std::string& unit);
  /// Per-layer metrics: the common set every traced run reports.
  void Layer(const std::string& name, double value, const std::string& unit);
  /// Workload-specific numbers (per-workload named metrics, cluster and
  /// serve internals). Printed on every run and written to the trace file
  /// of a traced run; not part of the final JSON line.
  void Extra(const std::string& name, double value, const std::string& unit);

  /// Operation accounting: every timed operation and every correctness
  /// probe is attempted; a failed operation or a mismatching probe fails.
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  void Fail(uint64_t n, const std::string& why);
  /// Counts one correctness probe; returns `ok`. A mismatch is a failed
  /// operation and also makes the run incorrect.
  bool Check(bool ok, const std::string& what);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return mismatches_ == 0; }
  const std::map<std::string, Metric>& end_to_end() const { return e2e_; }
  const std::map<std::string, Metric>& layers() const { return layers_; }
  const std::map<std::string, Metric>& extra() const { return extra_; }

 private:
  std::map<std::string, Metric> e2e_;
  std::map<std::string, Metric> layers_;
  std::map<std::string, Metric> extra_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t mismatches_ = 0;
};

/// \brief Host-speed probe. The benchmark's host shares its physical cores,
/// and its single-thread speed swings by up to 2x over tens of seconds: far
/// more than any regression bound. So each measurement window is scaled to
/// nominal speed by timing a fixed, benchmark-owned kernel (a 64x64 matmul
/// plus a dependent walk over 128 KiB, ~5 ms a sample) right before and
/// right after the window.
///
/// The workload must be idle while the kernel runs: Sample() is called
/// only between windows, when none of the workload's threads is working.
/// Each sample also runs one untimed repetition first, which loads the
/// kernel's 176 KiB into cache, so what the workload touched before does
/// not change the timed repetitions. The kernel's memory is one aligned
/// block with fixed offsets, so its speed does not depend on where the heap
/// put it either. The kernel runs no library code. So neither a library
/// change nor the workload's own load or cache footprint can move it, only
/// the host.
class HostSpeed {
 public:
  HostSpeed();
  ~HostSpeed();
  HostSpeed(const HostSpeed&) = delete;
  HostSpeed& operator=(const HostSpeed&) = delete;

  /// Times the kernel now and keeps the sample. Call it only while the
  /// workload is idle.
  void Sample();

  /// Host speed of the window [begin_ns, end_ns] (NowNanos clock; 1 =
  /// nominal, 0.5 = everything takes twice as long): the median of the
  /// samples taken within 2 s of the window, which include the two that
  /// bracket it; Median() when there are none.
  double Around(int64_t begin_ns, int64_t end_ns) const;
  /// Median of all samples (1 when there are none).
  double Median() const;

 private:
  struct Point {
    int64_t at_ns = 0;  ///< when the sample ended
    double speed = 1;
  };

  struct alignas(64) Kernel {
    static constexpr size_t kN = 64;
    float a[kN * kN];
    float pad_ab[256];  ///< keeps b and c off a's 4 KiB offsets
    float b[kN * kN];
    float pad_bc[512];
    float c[kN * kN];
    uint32_t next[32768];  ///< one random cycle over 128 KiB
  };

  /// One repetition of the kernel; returns its nanoseconds. Aligned and
  /// never inlined, so its loops sit at the same offsets within a cache
  /// line whatever the rest of the binary looks like: loop placement alone
  /// moved the kernel's speed by 30%.
  __attribute__((noinline, aligned(64))) static int64_t TimeKernel(
      Kernel* kernel);

  std::unique_ptr<Kernel> kernel_;
  std::vector<Point> samples_;  ///< in time order
};

/// A rate and two latencies, raw or scaled to nominal host speed.
struct RateLatency {
  double rate_per_s = 0;
  double p50_us = 0;
  double p99_us = 0;
};

/// Scales raw wall-clock numbers measured at host speed `speed` (1 =
/// nominal) to nominal speed: rates divide by it, latencies multiply.
inline double ScaleRate(double rate, double speed) { return rate / speed; }
inline double ScaleLatency(double us, double speed) { return us * speed; }

/// Reports the common end-to-end rate (`scaled`, already at nominal host
/// speed) plus, as extras, the scaled latencies, the raw values and the
/// run's median host speed. The latencies are not end-to-end metrics: on
/// a drained serve Run they are set by how full the lane queues run, and
/// they spread 0.25 (p99) to 0.5 (p50) across seeds.
void ReportScaled(Report* report, const RateLatency& scaled,
                  const RateLatency& raw, double speed);

/// Runs `build` `reps` times and reports the median set-up time as
/// `setup_s`, each repetition scaled to nominal host speed by samples of
/// `speed` taken between the repetitions (the raw median is the
/// `raw.setup_s` extra). Each repetition must release the previous one's
/// state before rebuilding (the callee owns that), so peak memory stays one
/// set-up deep.
void TimeSetup(int reps, HostSpeed* speed, Report* report,
               const std::function<void()>& build);

/// Writes the trace file: provenance, every metric of `report`, the
/// tracer's per-span-name aggregate and its raw span records (capped).
/// Returns false on an I/O error.
bool WriteTraceFile(const std::string& path, const Args& args,
                    const Report& report, const aligraph::obs::Tracer& tracer);

/// Prints build / machine provenance lines.
void PrintProvenance();

/// Prints every metric of the report as `name = value unit` lines, then the
/// final one-line JSON result (end-to-end metrics, or per-layer metrics
/// when `trace`).
void PrintResult(const Report& report, bool trace);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
