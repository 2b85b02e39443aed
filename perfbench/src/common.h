// Shared plumbing of the repository benchmark: command line, seeded
// randomness that belongs to the benchmark (so the program under test only
// ever sees generated inputs), percentiles that refuse to report a tail
// they cannot support, result output, and the span log of traced runs.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  /// The shard_server binary (fleet_rpc; required of every workload so the
  /// command line is one shape) and the scratch directory for sockets and
  /// WAL files; both relative to the working directory.
  std::string server_binary;
  std::string run_dir = ".bench_run";
};

/// Parses `--workload <w> --seed <n> --seconds <s> --trace <0|1>
/// --server <path> [--run-dir <dir>]`. Returns false (with a message in
/// *error) on anything else.
bool ParseArgs(int argc, char** argv, Args* args, std::string* error);

/// splitmix64: tiny, fast, and fully specified here, so a change to the
/// program's own RNG can never change the benchmark's inputs.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1p-53; }
  bool Chance(double p) { return Uniform() < p; }

 private:
  uint64_t state_;
};

/// Zipf(s) over ranks [0, n): rank r has weight 1 / (r + 1)^s.
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Sample(Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

/// Picks index i with probability weights[i] / sum(weights).
size_t PickWeighted(const std::vector<double>& weights, Rng* rng);

/// Samples of one timing; quantiles by the nearest-rank rule (the value
/// at rank ceil(q * n)), so "samples beyond" a quantile is exact.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Quantile(double q) const;

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
};

/// Samples strictly beyond the nearest-rank q-quantile of n samples.
size_t SamplesBeyond(size_t n, double q);

/// The highest quantile of `ladder` (ascending) that still leaves at
/// least `min_beyond` samples beyond it among n; 0 when none does.
double HighestSupportedQuantile(size_t n,
                                const std::vector<double>& ladder,
                                size_t min_beyond = 10);

/// Median of a small vector (copy; empty -> 0).
double Median(std::vector<double> values);

/// Seconds on the steady clock since the first call in this process
/// (main() calls it first, so it reads as "time since process start").
double Now();

/// Peak resident set size of this process (VmHWM), in MB.
double PeakRssMb();

/// Host CPU time counters from /proc/stat (all CPUs, clock ticks): the
/// steal share over a phase says how much the hypervisor took away.
struct HostCpu {
  uint64_t busy = 0;
  uint64_t idle = 0;
  uint64_t steal = 0;
  static HostCpu Read();
  /// Steal ticks / all ticks between `before` and this sample.
  double StealShareSince(const HostCpu& before) const;
};

/// 64-bit FNV-1a over appended bytes: the digest the self-test compares
/// request lists and write schedules by.
class Digest {
 public:
  void Add(const void* data, size_t n);
  void AddU64(uint64_t v) { Add(&v, sizeof(v)); }
  void AddString(const std::string& s) {
    AddU64(s.size());
    Add(s.data(), s.size());
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

/// One reported metric.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// What one workload run hands back to main().
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Free-form run metadata (already JSON-encoded values).
  std::vector<std::pair<std::string, std::string>> meta;
  /// Human-readable reasons correct=false.
  std::vector<std::string> problems;

  void Set(const std::string& name, const std::string& unit, double value) {
    metrics.push_back(Metric{name, unit, value});
  }
  void Meta(const std::string& key, const std::string& json_value) {
    meta.emplace_back(key, json_value);
  }
  void Problem(const std::string& what) {
    correct = false;
    problems.push_back(what);
  }
};

std::string JsonString(const std::string& s);
std::string JsonNumber(double v);

/// Percentile metric with its sample count recorded in the metadata; a
/// quantile without ten samples beyond it is a benchmark defect, so it
/// marks the run incorrect instead of reporting a number it cannot back.
void SetQuantile(RunResult* result, const std::string& name,
                 const std::string& unit, const Samples& samples, double q,
                 double scale);

/// Spans of a traced pass, kept in memory and written out when the pass
/// ends (one JSON object per line).
class SpanLog {
 public:
  struct Span {
    const char* name;
    uint64_t request;
    double start;  // Seconds on Now()'s clock.
    double end;
  };
  void Add(const char* name, uint64_t request, double start, double end);
  /// Writes every span to `path`; returns false on I/O failure.
  bool WriteTo(const std::string& path) const;
  /// Total duration of spans named `name`.
  double Total(const char* name) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Creates `path` (and parents); false on failure.
bool MakeDirs(const std::string& path);
/// Removes a directory tree (best effort).
void RemoveTree(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
