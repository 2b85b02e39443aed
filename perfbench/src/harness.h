// Client-side plumbing shared by the workloads: turning ReadSpecs into
// wire requests, blocking on the service's stream sink, the closed-loop
// loop, failure accounting, and the read metrics every workload reports.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <sched.h>
#include <sys/types.h>

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common.h"
#include "core/builder.h"
#include "engine/nquery.h"
#include "engine/query.h"
#include "requests.h"
#include "service/service.h"
#include "storage/catalog.h"
#include "wire/message.h"

namespace perfbench {

/// Admission deadline on every read: far above any read this benchmark
/// issues, so a shed means the service stalled.
inline constexpr double kReadDeadlineSeconds = 2.0;

/// StreamSink a client thread blocks on for one response at a time.
class Waiter : public tsb::wire::StreamSink {
 public:
  void OnFrame(const tsb::wire::WireFrame& frame) override;
  tsb::wire::WireResponse Wait();

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  tsb::wire::WireResponse response_;
};

/// Exact digest of a ranked answer (TIDs and score bit patterns).
uint64_t DigestEntries(const std::vector<tsb::engine::ResultEntry>& entries);

/// What the client saw for one read.
struct ReadRecord {
  double submit = 0.0;  // Now() clock.
  double done = 0.0;
  tsb::wire::WireErrorCode code = tsb::wire::WireErrorCode::kOk;
  bool from_cache = false;
  bool partial = false;
  double service_seconds = 0.0;  // Service-reported, includes queue wait.
  double exec_seconds = 0.0;     // ExecStats::seconds of the result.
  bool has_exec = false;         // exec_seconds is known (not a 3-query).
  uint64_t digest = 0;

  double latency() const { return done - submit; }
  bool ok() const { return code == tsb::wire::WireErrorCode::kOk; }
};

/// Builds queries for one ReadSpace against one catalog, compiling each
/// (entity set, keyword) predicate once.
class RequestFactory {
 public:
  RequestFactory(const tsb::storage::Catalog& db, ReadSpace space);

  tsb::engine::TopologyQuery Query(const ReadSpec& spec) const;
  tsb::wire::WireRequest Wire(const ReadSpec& spec, uint64_t id) const;
  tsb::engine::TripleQuery Triple(const ReadSpec& spec) const;
  const ReadSpace& space() const { return space_; }

 private:
  tsb::storage::PredicateRef Pred(const std::string& set, int8_t word) const;

  ReadSpace space_;
  std::map<std::pair<std::string, int>, tsb::storage::PredicateRef> preds_;
};

/// Submits one wire request and blocks until its frame arrives.
void IssueWire(tsb::service::TopologyService* service,
               const tsb::wire::WireRequest& request, Waiter* waiter,
               ReadRecord* record);

/// Closed loop: `clients` threads take indexes 0..n-1 in order from a
/// shared counter, each issuing its next request only after the previous
/// one returned, until the list is exhausted or Now() passes `stop_at`.
/// Returns the elapsed seconds from the first submit to the last
/// completion; *completed is the number of indexes issued (a prefix).
double RunClosedLoop(size_t n, size_t clients, double stop_at,
                     const std::function<void(size_t, Waiter*)>& issue,
                     size_t* completed);

/// Runs fn(i) for every i in [0, n) on `threads` threads.
void ParallelFor(size_t n, size_t threads,
                 const std::function<void(size_t)>& fn);

/// Failed operations by class: every non-ok response, admission refusal
/// (kOverloaded) and deadline shed counts against the attempts.
struct FailureCounts {
  uint64_t errors = 0;
  uint64_t overloaded = 0;
  uint64_t shed = 0;

  void Count(tsb::wire::WireErrorCode code);
  uint64_t total() const { return errors + overloaded + shed; }
  std::string Json() const;
};

/// The read metrics every workload reports come from its timed phase cut,
/// in completion order, into kReadChunks chunks of equal count (1-2
/// seconds each). With ReadFigures::kChunkMedians, query_p50_ms and
/// query_p90_ms are the medians over the chunks of each chunk's client
/// latency (submit -> response) quantile, and query_qps the median of the
/// chunks' reads over their duration. On a shared host the hypervisor
/// takes CPU away in bursts of seconds; a burst that spoils fewer than
/// half of the chunks does not move a median over them, and every chunk
/// counts alike wherever it falls in the phase. That holds only while the
/// chunks are alike: on a phase whose speed climbs by design (paper_mix's
/// cache warms through the phase, doubling its throughput), the median
/// chunk is the middle second of the phase, so a workload like that
/// reports kWholePhase: the quantiles of all its reads and completed reads
/// over the elapsed time.
/// The tail reported is p90, not p99: a read preempted by the hypervisor
/// waits milliseconds, several times a sub-millisecond read, and at a few
/// percent of host steal more than 1% of reads are hit, so p99 tracks the
/// host's steal rather than the program (per-chunk and whole-phase p99 are
/// in the metadata). Every list is sized to give each chunk >= 1000
/// reads, so even a chunk's p99 has >= 10 samples beyond it.
inline constexpr size_t kReadChunks = 15;
/// No timed phase issues requests after this many seconds of process time,
/// which keeps a pathologically slow run under three minutes.
inline constexpr double kStopIssuingAt = 140.0;

/// trace.overhead_ratio: traced over untraced read p50 (whole phases).
double OverheadRatio(const std::vector<ReadRecord>& traced,
                     size_t traced_completed,
                     const std::vector<ReadRecord>& untraced,
                     size_t untraced_completed);

enum class ReadFigures { kChunkMedians, kWholePhase };

/// The read metrics every workload reports — query_p50_ms, query_p90_ms
/// and query_qps — as `figures` says (see above); the per-chunk and the
/// whole-phase figures go to the metadata either way.
void ReportReads(const std::vector<ReadRecord>& records, size_t completed,
                 ReadFigures figures, RunResult* result);

/// Per-layer read metrics derived from the responses of a traced pass:
/// service queue wait (service_seconds - exec seconds, on misses whose
/// execution time the response carries), cache
/// hit ratio and hit latency, and the share of client time the service
/// accounts for. Returns the attributed seconds.
double ReportServiceLayer(const std::vector<ReadRecord>& records,
                          size_t completed, RunResult* result);

/// setup_s is the median of kSetupReps set-ups. The first, timed from
/// process start, serves the timed phase; the others run after the phase
/// and its checks, each after the previous world is torn down, so the
/// set-ups are spread over the whole run and a burst of host noise during
/// one of them does not move the median.
inline constexpr size_t kSetupReps = 3;

/// Runs `set_up_again` kSetupReps - 1 times, timing each, and sets
/// setup_s to the median of those times and `first_seconds`.
void ReportSetUp(double first_seconds,
                 const std::function<void()>& set_up_again,
                 RunResult* result);

/// Thread ids of this process (/proc/self/task).
std::set<pid_t> ThreadIds();

/// Pins threads of this process to CPUs, counted from the last CPU the
/// process may use (CPU 0 takes most device interrupts). Threads and
/// processes started meanwhile inherit their creator's mask; the
/// destructor gives every thread the process's previous mask back.
/// pinned() is false when a mask could not be read or set, and the run
/// goes on unpinned (the metadata says so).
class CpuPin {
 public:
  /// Every thread on the last `cpus` CPUs.
  explicit CpuPin(size_t cpus);
  /// The calling thread and `tids` on the last CPU, every other thread on
  /// the remaining ones.
  explicit CpuPin(const std::set<pid_t>& tids);
  ~CpuPin();
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

  /// Moves the calling thread to the remaining CPUs (second constructor).
  void MoveCallerAside() const;
  bool pinned() const { return pinned_; }
  /// The CPU list of the pinned threads, e.g. "3" or "2,3"; "none".
  const std::string& cpus() const { return cpus_; }

 private:
  bool Split(size_t cpus);

  cpu_set_t before_;
  cpu_set_t pin_;
  cpu_set_t rest_;
  bool restore_ = false;
  bool pinned_ = false;
  std::string cpus_ = "none";
};

/// The model building parameters of the Biozon workloads.
tsb::core::BuildConfig BiozonBuildConfig();

/// Sets result->failed from `failures` (per-class counts in the metadata)
/// and, in a traced run, loadgen.fail_ratio.
void ReportFailures(const FailureCounts& failures, bool trace,
                    RunResult* result);

/// Writes the spans of a traced pass to
/// <run_dir>/spans_<workload>_<seed>.jsonl and names the file in the
/// metadata.
void WriteSpans(const SpanLog& spans, const Args& args, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
