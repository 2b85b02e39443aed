#include "harness.h"

#include <dirent.h>
#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <set>
#include <thread>

#include "common/logging.h"

namespace perfbench {

using tsb::wire::WireErrorCode;

void Waiter::OnFrame(const tsb::wire::WireFrame& frame) {
  std::lock_guard<std::mutex> lock(mu_);
  response_ = frame.response;
  done_ = true;
  cv_.notify_one();
}

tsb::wire::WireResponse Waiter::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this]() { return done_; });
  done_ = false;
  return std::move(response_);
}

uint64_t DigestEntries(const std::vector<tsb::engine::ResultEntry>& entries) {
  Digest digest;
  digest.AddU64(entries.size());
  for (const tsb::engine::ResultEntry& entry : entries) {
    uint64_t score_bits = 0;
    std::memcpy(&score_bits, &entry.score, sizeof(score_bits));
    digest.AddU64(static_cast<uint64_t>(entry.tid));
    digest.AddU64(score_bits);
  }
  return digest.value();
}

RequestFactory::RequestFactory(const tsb::storage::Catalog& db,
                               ReadSpace space)
    : space_(std::move(space)) {
  std::set<std::string> sets(space_.triple_sets.begin(),
                             space_.triple_sets.end());
  for (const auto& [a, b] : space_.pairs) {
    sets.insert(a);
    sets.insert(b);
  }
  for (const std::string& set : sets) {
    const tsb::storage::Table* table = db.GetTable(set);
    TSB_CHECK(table != nullptr) << set;
    for (size_t w = 0; w < space_.words.size(); ++w) {
      preds_[{set, static_cast<int>(w)}] = tsb::storage::MakeContainsKeyword(
          table->schema(), "DESC", space_.words[w]);
    }
  }
}

tsb::storage::PredicateRef RequestFactory::Pred(const std::string& set,
                                                int8_t word) const {
  if (word < 0) return nullptr;
  return preds_.at({set, word});
}

tsb::engine::TopologyQuery RequestFactory::Query(const ReadSpec& spec) const {
  const auto& [a, b] = space_.pairs.at(spec.pair);
  tsb::engine::TopologyQuery query;
  query.entity_set1 = a;
  query.pred1 = Pred(a, spec.word1);
  query.entity_set2 = b;
  query.pred2 = Pred(b, spec.word2);
  query.scheme = static_cast<tsb::core::RankScheme>(spec.scheme);
  query.k = spec.k;
  return query;
}

tsb::wire::WireRequest RequestFactory::Wire(const ReadSpec& spec,
                                            uint64_t id) const {
  tsb::wire::WireRequest request;
  request.id = id;
  request.deadline_seconds = kReadDeadlineSeconds;
  request.query = Query(spec);
  request.method = static_cast<tsb::engine::MethodKind>(spec.method);
  return request;
}

tsb::engine::TripleQuery RequestFactory::Triple(const ReadSpec& spec) const {
  tsb::engine::TripleQuery query;
  query.entity_set1 = space_.triple_sets.at(0);
  query.pred1 = Pred(query.entity_set1, spec.word1);
  query.entity_set2 = space_.triple_sets.at(1);
  query.pred2 = Pred(query.entity_set2, spec.word2);
  query.entity_set3 = space_.triple_sets.at(2);
  query.pred3 = Pred(query.entity_set3, spec.word3);
  return query;
}

void IssueWire(tsb::service::TopologyService* service,
               const tsb::wire::WireRequest& request, Waiter* waiter,
               ReadRecord* record) {
  record->submit = Now();
  service->Submit(request, *waiter);
  tsb::wire::WireResponse response = waiter->Wait();
  record->done = Now();
  record->code = response.error.code;
  record->from_cache = response.from_cache;
  record->service_seconds = response.service_seconds;
  if (response.error.ok()) {
    record->exec_seconds = response.result.stats.seconds;
    record->has_exec = true;
    record->partial = response.result.partial;
    record->digest = DigestEntries(response.result.entries);
  }
}

double RunClosedLoop(size_t n, size_t clients, double stop_at,
                     const std::function<void(size_t, Waiter*)>& issue,
                     size_t* completed) {
  std::atomic<size_t> next{0};
  std::atomic<size_t> issued{0};
  const double start = Now();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&]() {
      Waiter waiter;
      while (true) {
        const size_t i = next.fetch_add(1);
        if (i >= n || Now() > stop_at) return;
        issue(i, &waiter);
        issued.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  *completed = std::min(n, issued.load());
  return Now() - start;
}

void ParallelFor(size_t n, size_t threads,
                 const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (size_t t = 0; t < std::max<size_t>(1, threads); ++t) {
    pool.emplace_back([&]() {
      for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        fn(i);
      }
    });
  }
  for (std::thread& t : pool) t.join();
}

void FailureCounts::Count(WireErrorCode code) {
  switch (code) {
    case WireErrorCode::kOk:
      return;
    case WireErrorCode::kOverloaded:
      ++overloaded;
      return;
    case WireErrorCode::kDeadlineExceeded:
      ++shed;
      return;
    default:
      ++errors;
  }
}

std::string FailureCounts::Json() const {
  return "{\"errors\":" + std::to_string(errors) +
         ",\"overloaded\":" + std::to_string(overloaded) +
         ",\"deadline_shed\":" + std::to_string(shed) + "}";
}

namespace {

double PhaseP50(const std::vector<ReadRecord>& records, size_t completed) {
  Samples latency;
  for (size_t i = 0; i < completed; ++i) latency.Add(records[i].latency());
  return latency.Quantile(0.50);
}

}  // namespace

double OverheadRatio(const std::vector<ReadRecord>& traced,
                     size_t traced_completed,
                     const std::vector<ReadRecord>& untraced,
                     size_t untraced_completed) {
  const double base = PhaseP50(untraced, untraced_completed);
  return base > 0.0 ? PhaseP50(traced, traced_completed) / base : 0.0;
}

void ReportReads(const std::vector<ReadRecord>& records, size_t completed,
                 ReadFigures figures, RunResult* result) {
  std::vector<size_t> order(completed);
  for (size_t i = 0; i < completed; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return records[a].done < records[b].done;
  });
  const size_t per_chunk = completed / kReadChunks;
  if (SamplesBeyond(per_chunk, 0.99) < 10) {  // p99 goes to the metadata.
    result->Problem("read chunks of " + std::to_string(per_chunk) +
                    " reads cannot support p99");
  }
  double start = 1e300;
  for (size_t i = 0; i < completed; ++i) {
    start = std::min(start, records[i].submit);
  }
  std::vector<double> p50;
  std::vector<double> p90;
  std::vector<double> p99;
  std::vector<double> qps;
  for (size_t c = 0; c < kReadChunks && per_chunk > 0; ++c) {
    const size_t end = c + 1 == kReadChunks ? completed : (c + 1) * per_chunk;
    Samples latency;
    for (size_t k = c * per_chunk; k < end; ++k) {
      latency.Add(records[order[k]].latency());
    }
    const double finish = records[order[end - 1]].done;
    p50.push_back(latency.Quantile(0.50) * 1e3);
    p90.push_back(latency.Quantile(0.90) * 1e3);
    p99.push_back(latency.Quantile(0.99) * 1e3);
    qps.push_back(finish > start
                      ? static_cast<double>(latency.size()) / (finish - start)
                      : 0.0);
    start = finish;
  }
  result->Meta("n.read_chunk", std::to_string(per_chunk));

  // Per-chunk and whole-phase figures, for diagnosis.
  auto list = [](const std::vector<double>& values) {
    std::string out;
    for (double v : values) out += (out.empty() ? "" : ",") + JsonNumber(v);
    return "[" + out + "]";
  };
  result->Meta("chunk_p50_ms", list(p50));
  result->Meta("chunk_p90_ms", list(p90));
  result->Meta("chunk_p99_ms", list(p99));
  result->Meta("chunk_qps", list(qps));
  Samples phase;
  double first = 1e300;
  double last = 0.0;
  for (size_t i = 0; i < completed; ++i) {
    phase.Add(records[i].latency());
    first = std::min(first, records[i].submit);
    last = std::max(last, records[i].done);
  }
  const double phase_qps =
      last > first ? static_cast<double>(completed) / (last - first) : 0.0;
  result->Meta("phase_p50_ms", JsonNumber(phase.Quantile(0.50) * 1e3));
  result->Meta("phase_p90_ms", JsonNumber(phase.Quantile(0.90) * 1e3));
  result->Meta("phase_p99_ms", JsonNumber(phase.Quantile(0.99) * 1e3));
  result->Meta("phase_qps", JsonNumber(phase_qps));
  result->Meta("reads_completed", std::to_string(completed));
  const bool whole = figures == ReadFigures::kWholePhase;
  result->Meta("read_figures", JsonString(whole ? "whole_phase"
                                                : "chunk_medians"));
  if (whole) {
    result->Set("query_p50_ms", "ms", phase.Quantile(0.50) * 1e3);
    result->Set("query_p90_ms", "ms", phase.Quantile(0.90) * 1e3);
    result->Set("query_qps", "1/s", phase_qps);
  } else {
    result->Set("query_p50_ms", "ms", Median(p50));
    result->Set("query_p90_ms", "ms", Median(p90));
    result->Set("query_qps", "1/s", Median(qps));
  }
}

double ReportServiceLayer(const std::vector<ReadRecord>& records,
                          size_t completed, RunResult* result) {
  Samples queue_wait;
  Samples hit_latency;
  size_t hits = 0;
  double attributed = 0.0;
  for (size_t i = 0; i < completed; ++i) {
    const ReadRecord& r = records[i];
    attributed += r.service_seconds;
    if (r.from_cache) {
      ++hits;
      hit_latency.Add(r.latency());
    } else if (r.has_exec) {
      queue_wait.Add(std::max(0.0, r.service_seconds - r.exec_seconds));
    }
  }
  SetQuantile(result, "service.queue_wait_ms_p50", "ms", queue_wait, 0.50,
              1e3);
  SetQuantile(result, "service.queue_wait_ms_p99", "ms", queue_wait, 0.99,
              1e3);
  result->Set("service.cache_hit_ratio", "1",
              completed > 0 ? static_cast<double>(hits) /
                                  static_cast<double>(completed)
                            : 0.0);
  result->Set("service.cache_hit_us_p50", "us",
              hit_latency.Quantile(0.50) * 1e6);
  result->Meta("n.service.cache_hit_us_p50",
               std::to_string(hit_latency.size()));
  return attributed;
}

void ReportSetUp(double first_seconds,
                 const std::function<void()>& set_up_again,
                 RunResult* result) {
  std::vector<double> times = {first_seconds};
  for (size_t rep = 1; rep < kSetupReps; ++rep) {
    const double start = Now();
    set_up_again();
    times.push_back(Now() - start);
  }
  result->Set("setup_s", "s", Median(times));
  std::string list;
  for (double t : times) list += (list.empty() ? "" : ",") + JsonNumber(t);
  result->Meta("setup_reps_s", "[" + list + "]");
}

std::set<pid_t> ThreadIds() {
  std::set<pid_t> tids;
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return tids;
  while (const dirent* entry = ::readdir(dir)) {
    const pid_t tid = static_cast<pid_t>(std::atoi(entry->d_name));
    if (tid > 0) tids.insert(tid);
  }
  ::closedir(dir);
  return tids;
}

namespace {

pid_t CallerTid() { return static_cast<pid_t>(::syscall(SYS_gettid)); }

bool SetMask(pid_t tid, const cpu_set_t& mask) {
  return ::sched_setaffinity(tid, sizeof(mask), &mask) == 0;
}

}  // namespace

bool CpuPin::Split(size_t cpus) {
  CPU_ZERO(&before_);
  CPU_ZERO(&pin_);
  CPU_ZERO(&rest_);
  if (::sched_getaffinity(0, sizeof(before_), &before_) != 0) return false;
  restore_ = true;
  std::string list;
  size_t taken = 0;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &before_)) continue;
    if (taken < cpus) {
      CPU_SET(cpu, &pin_);
      list = std::to_string(cpu) + (list.empty() ? "" : ",") + list;
      ++taken;
    } else {
      CPU_SET(cpu, &rest_);
    }
  }
  if (taken == 0) return false;
  cpus_ = list;
  return true;
}

CpuPin::CpuPin(size_t cpus) {
  if (!Split(cpus)) return;
  pinned_ = true;
  for (pid_t tid : ThreadIds()) pinned_ = SetMask(tid, pin_) && pinned_;
  if (!pinned_) cpus_ = "none";
}

CpuPin::CpuPin(const std::set<pid_t>& tids) {
  if (!Split(1) || CPU_COUNT(&rest_) == 0) {
    cpus_ = "none";  // One CPU cannot be split: the run goes on unpinned.
    return;
  }
  pinned_ = true;
  const pid_t caller = CallerTid();
  for (pid_t tid : ThreadIds()) {
    const bool with = tid == caller || tids.count(tid) > 0;
    pinned_ = SetMask(tid, with ? pin_ : rest_) && pinned_;
  }
  if (!pinned_) cpus_ = "none";
}

void CpuPin::MoveCallerAside() const {
  if (CPU_COUNT(&rest_) > 0) SetMask(CallerTid(), rest_);
}

CpuPin::~CpuPin() {
  if (!restore_) return;
  for (pid_t tid : ThreadIds()) SetMask(tid, before_);
}

tsb::core::BuildConfig BiozonBuildConfig() {
  tsb::core::BuildConfig build;
  build.max_path_length = 3;
  build.max_class_representatives = 8;
  build.max_union_combinations = 512;
  build.max_paths_per_source = 200000;
  return build;
}

void ReportFailures(const FailureCounts& failures, bool trace,
                    RunResult* result) {
  result->failed = failures.total();
  result->Meta("failures", failures.Json());
  if (trace) {
    result->Set("loadgen.fail_ratio", "1",
                static_cast<double>(result->failed) /
                    static_cast<double>(
                        std::max<uint64_t>(1, result->attempted)));
  }
}

void WriteSpans(const SpanLog& spans, const Args& args, RunResult* result) {
  const std::string path = args.run_dir + "/spans_" + args.workload + "_" +
                           std::to_string(args.seed) + ".jsonl";
  if (!spans.WriteTo(path)) result->Problem("cannot write " + path);
  result->Meta("spans", JsonString(path));
}

}  // namespace perfbench
