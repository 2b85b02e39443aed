// Self-test of the benchmark's own code: input determinism, the
// percentile rule, the class shares the workloads rely on, and the CPU
// pinning of the timed phases.
// Run: python3 perfbench/run.py --selftest   (exit 0 = all checks pass)

#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "harness.h"
#include "requests.h"

namespace {

int failures = 0;

void Check(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

bool Within(double v, double lo, double hi) { return v >= lo && v <= hi; }

/// CPUs in the affinity mask of thread `tid` (0: this thread).
int MaskSize(pid_t tid) {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (::sched_getaffinity(tid, sizeof(mask), &mask) != 0) return -1;
  return CPU_COUNT(&mask);
}

perfbench::WriteTargets Targets() {
  // Ids shaped like the generator's (contiguous per entity set).
  perfbench::WriteTargets targets;
  for (int64_t i = 1; i <= 150; ++i) targets.proteins.push_back(i);
  for (int64_t i = 151; i <= 270; ++i) targets.dnas.push_back(i);
  return targets;
}

}  // namespace

int main() {
  using namespace perfbench;
  const double kSeconds = 20.0;  // BENCHMARK.json run_seconds.

  // --- Determinism: same seed -> identical inputs, other seed -> not. ----
  using Lister = std::vector<ReadSpec> (*)(uint64_t, double);
  const std::pair<const char*, Lister> lists[] = {
      {"paper_mix", PaperMixReads},
      {"fleet_rpc", FleetReads},
      {"write_mix", WriteMixReads}};
  for (const auto& [name, make] : lists) {
    const uint64_t a = DigestReads(make(7, kSeconds));
    const uint64_t b = DigestReads(make(7, kSeconds));
    const uint64_t c = DigestReads(make(8, kSeconds));
    Check(a == b, std::string(name) + ": same seed, same request list");
    Check(a != c, std::string(name) + ": other seed, other request list");
  }
  const size_t batches = kWarmupBatches + TimedWriteBatches(kSeconds);
  const uint64_t s1 = DigestSchedule(MakeWriteSchedule(Targets(), 7, batches));
  const uint64_t s2 = DigestSchedule(MakeWriteSchedule(Targets(), 7, batches));
  const uint64_t s3 = DigestSchedule(MakeWriteSchedule(Targets(), 8, batches));
  Check(s1 == s2, "write_mix: same seed, same write schedule");
  Check(s1 != s3, "write_mix: other seed, other write schedule");

  // --- Percentiles: nearest rank, and >= 10 samples beyond. --------------
  Samples samples;
  for (int i = 1; i <= 1000; ++i) samples.Add(i);
  Check(samples.Quantile(0.50) == 500.0, "p50 of 1..1000 is 500");
  Check(samples.Quantile(0.99) == 990.0, "p99 of 1..1000 is 990");
  Check(SamplesBeyond(1000, 0.99) == 10, "1000 samples leave 10 beyond p99");
  Check(SamplesBeyond(999, 0.99) == 9, "999 samples leave 9 beyond p99");
  const std::vector<double> ladder = {0.5, 0.9, 0.99, 0.999};
  Check(HighestSupportedQuantile(10000, ladder) == 0.999,
        "10000 samples support p99.9");
  Check(HighestSupportedQuantile(1000, ladder) == 0.99,
        "1000 samples support p99");
  Check(HighestSupportedQuantile(999, ladder) == 0.9,
        "999 samples support only p90");
  Check(HighestSupportedQuantile(100, ladder) == 0.9,
        "100 samples support p90");
  Check(HighestSupportedQuantile(99, ladder) == 0.5,
        "99 samples support only p50");
  Check(HighestSupportedQuantile(19, ladder) == 0.0,
        "19 samples support no quantile");
  // The workloads' own percentiles at the default run length.
  Check(TimedWriteBatches(kSeconds) >= 100,
        "write_mix timed batches support p90 (" +
            std::to_string(TimedWriteBatches(kSeconds)) + ")");
  for (const auto& [name, make] : lists) {
    const size_t chunk = make(1, kSeconds).size() / kReadChunks;
    Check(SamplesBeyond(chunk, 0.99) >= 10,
          std::string(name) + " read chunks of " + std::to_string(chunk) +
              " support p99");
  }

  // --- Class shares (rule: no percentile on a cost-class boundary). ------
  for (uint64_t seed : {1, 2, 3}) {
    const double paper = RepeatShare(PaperMixReads(seed, kSeconds));
    Check(Within(paper, 0.20, 0.40),
          "paper_mix repeat share " + JsonNumber(paper) + " in [0.2, 0.4]");
    // write_mix evicts both pairs' cache entries on nearly every batch, so
    // only repeats inside one write interval can hit.
    const std::vector<ReadSpec> write_reads = WriteMixReads(seed, kSeconds);
    const double write = RepeatShare(
        write_reads, static_cast<size_t>(write_reads.size() /
                                         TimedWriteBatches(kSeconds)));
    Check(write < 0.10, "write_mix repeat share within a write interval " +
                            JsonNumber(write) + " < 0.1");
    const std::vector<ReadSpec> fleet = FleetReads(seed, kSeconds);
    size_t triples = 0;
    for (const ReadSpec& spec : fleet) triples += spec.method == kTripleMethod;
    const double triple_share =
        static_cast<double>(triples) / static_cast<double>(fleet.size());
    Check(Within(triple_share, 0.08, 0.12),
          "fleet_rpc 3-query share " + JsonNumber(triple_share) +
              " in [0.08, 0.12]");
    const auto schedule = MakeWriteSchedule(Targets(), seed, batches);
    size_t cheap = 0;
    size_t ops_ok = 0;
    for (const auto& batch : schedule) {
      cheap += IsAttributeOnly(batch);
      ops_ok += batch.ops.size() >= 1 && batch.ops.size() <= 4;
    }
    const double cheap_share =
        static_cast<double>(cheap) / static_cast<double>(schedule.size());
    Check(Within(cheap_share, 0.10, 0.30),
          "write_mix DESC-only batch share " + JsonNumber(cheap_share) +
              " in [0.1, 0.3]");
    Check(ops_ok == schedule.size(), "write_mix batches carry 1-4 ops");
  }

  // --- CPU pinning: every thread pinned, split, then given back. --------
  {
    const int allowed = MaskSize(0);
    std::atomic<pid_t> other{0};
    std::atomic<bool> stop{false};
    std::thread helper([&]() {
      other = static_cast<pid_t>(::syscall(SYS_gettid));
      while (!stop) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
    while (other == 0) std::this_thread::yield();
    {
      const CpuPin pin(1);
      int started = 0;
      std::thread([&]() { started = MaskSize(0); }).join();
      Check(pin.pinned() && MaskSize(0) == 1 && MaskSize(other) == 1 &&
                started == 1,
            "CpuPin(1) pins every thread, and threads started meanwhile");
    }
    Check(MaskSize(0) == allowed && MaskSize(other) == allowed,
          "CpuPin gives every thread its mask back");
    if (allowed > 1) {
      const CpuPin pin(std::set<pid_t>{});
      const bool split = MaskSize(0) == 1 && MaskSize(other) == allowed - 1;
      pin.MoveCallerAside();
      Check(pin.pinned() && split && MaskSize(0) == allowed - 1,
            "CpuPin splits the caller from the other threads");
    }
    stop = true;
    helper.join();
    Check(MaskSize(0) == allowed, "CpuPin split gives the masks back");
  }

  std::printf("%s\n", failures == 0 ? "selftest: all checks passed"
                                    : "selftest: FAILED");
  return failures == 0 ? 0 : 1;
}
