#include "common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>

namespace perfbench {

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') {
        *error = "bad --seed " + value;
        return false;
      }
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args->seconds > 0.0) ||
          args->seconds > 600.0) {
        *error = "bad --seconds " + value;
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        *error = "--trace takes 0 or 1";
        return false;
      }
      args->trace = value == "1";
    } else if (flag == "--server") {
      args->server_binary = value;
    } else if (flag == "--run-dir") {
      args->run_dir = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
  }
  if (!have_workload || args->server_binary.empty()) {
    *error = "--workload and --server are required";
    return false;
  }
  return true;
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

Zipf::Zipf(size_t n, double s) : cdf_(n) {
  double total = 0.0;
  for (size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t Zipf::Sample(Rng* rng) const {
  const double u = rng->Uniform();
  const size_t r = static_cast<size_t>(
      std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return std::min(r, cdf_.size() - 1);
}

size_t PickWeighted(const std::vector<double>& weights, Rng* rng) {
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  double u = rng->Uniform() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    if (u < weights[i]) return i;
    u -= weights[i];
  }
  return weights.size() - 1;
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const size_t n = values_.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return values_[rank - 1];
}

size_t SamplesBeyond(size_t n, double q) {
  if (n == 0) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return n - rank;
}

double HighestSupportedQuantile(size_t n, const std::vector<double>& ladder,
                                size_t min_beyond) {
  double best = 0.0;
  for (double q : ladder) {
    if (SamplesBeyond(n, q) >= min_beyond) best = q;
  }
  return best;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Now() {
  static const auto start = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

HostCpu HostCpu::Read() {
  HostCpu cpu;
  std::ifstream stat("/proc/stat");
  std::string label;
  uint64_t user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0,
           softirq = 0, steal = 0;
  if (stat >> label >> user >> nice >> system >> idle >> iowait >> irq >>
      softirq >> steal) {
    cpu.busy = user + nice + system + irq + softirq;
    cpu.idle = idle + iowait;
    cpu.steal = steal;
  }
  return cpu;
}

double HostCpu::StealShareSince(const HostCpu& before) const {
  const double total = static_cast<double>((busy - before.busy) +
                                           (idle - before.idle) +
                                           (steal - before.steal));
  return total > 0.0 ? static_cast<double>(steal - before.steal) / total
                     : 0.0;
}

void Digest::Add(const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ull;
  }
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void SetQuantile(RunResult* result, const std::string& name,
                 const std::string& unit, const Samples& samples, double q,
                 double scale) {
  if (HighestSupportedQuantile(samples.size(), {q}) < q) {
    result->Problem(name + ": only " +
                    std::to_string(SamplesBeyond(samples.size(), q)) +
                    " samples beyond the quantile (n=" +
                    std::to_string(samples.size()) + ")");
  }
  result->Set(name, unit, samples.Quantile(q) * scale);
  result->Meta("n." + name, std::to_string(samples.size()));
}

void SpanLog::Add(const char* name, uint64_t request, double start,
                  double end) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, request, start, end});
}

double SpanLog::Total(const char* name) const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0.0;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) == 0) total += s.end - s.start;
  }
  return total;
}

bool SpanLog::WriteTo(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"request\":%llu,\"start_us\":%.3f,"
                 "\"dur_us\":%.3f}\n",
                 s.name, static_cast<unsigned long long>(s.request),
                 s.start * 1e6, (s.end - s.start) * 1e6);
  }
  return std::fclose(f) == 0;
}

bool MakeDirs(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  return !ec;
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

}  // namespace perfbench
