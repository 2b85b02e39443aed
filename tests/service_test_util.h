// Test helpers over the service's wire surface: submit a request (or a
// stream of them) and block for the answer.

#ifndef TSB_TESTS_SERVICE_TEST_UTIL_H_
#define TSB_TESTS_SERVICE_TEST_UTIL_H_

#include <algorithm>
#include <vector>

#include "engine/query.h"
#include "service/service.h"
#include "wire/message.h"

namespace tsb {
namespace service_test {

/// Submits one interactive request and returns its response frame.
inline wire::WireResponse Serve(service::TopologyService& svc,
                                const engine::TopologyQuery& query,
                                engine::MethodKind method,
                                const engine::ExecOptions& options = {}) {
  wire::WireRequest request;
  request.query = query;
  request.method = method;
  request.options = options;
  wire::CollectingSink sink;
  svc.Submit(request, sink);
  sink.WaitForFrames(1);
  return sink.Frames()[0].response;
}

/// Submits `requests` as one stream, waits for its end frame, and returns
/// the responses ordered by request id.
inline std::vector<wire::WireResponse> ServeStream(
    service::TopologyService& svc, std::vector<wire::WireRequest> requests) {
  wire::CollectingSink sink;
  svc.SubmitStream(std::move(requests), sink);
  sink.WaitForEnd();
  std::vector<wire::WireResponse> responses;
  for (const wire::WireFrame& frame : sink.Frames()) {
    if (frame.kind == wire::FrameKind::kResponse) {
      responses.push_back(frame.response);
    }
  }
  std::sort(responses.begin(), responses.end(),
            [](const wire::WireResponse& a, const wire::WireResponse& b) {
              return a.request_id < b.request_id;
            });
  return responses;
}

}  // namespace service_test
}  // namespace tsb

#endif  // TSB_TESTS_SERVICE_TEST_UTIL_H_
