#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

/// Each runs one workload end to end: set-up (repeated; setup_s is the
/// median), the fixed-work timed phase, the answer checks, and — with
/// args.trace — an untraced and a traced pass that yield the per-layer
/// metrics instead of the end-to-end ones.
RunResult RunPaperMix(const Args& args);
RunResult RunFleetRpc(const Args& args);
RunResult RunWriteMix(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
