// topctl: the observability pull client. Sends kAdminRequest frames to
// live shard_servers (or any process serving the admin channel) and
// prints the response — Prometheus metrics, a JSON dump, the human
// metric tables, recent sampled traces, the slow-query log, or the
// merged fleet cost dashboard.
//
// Usage:  topctl [--uds=<path> | --host=<h> --tcp-port=<p> |
//                 --endpoints=<e1,e2,...>] <command>
//
// Commands (wire::AdminCommand names, plus `top`):
//   ping          liveness probe; prints "pong"
//   metrics       Prometheus text exposition
//   metrics-json  the same samples as JSON
//   metrics-text  human-readable metric tables
//   traces        recent sampled traces as span trees
//   slowlog       recent slow-query records
//   compaction    mutation-engine status: generation, pending dirty pairs,
//                 last background fold, WAL counters
//   top           fleet cost dashboard: pulls a cost-snapshot from every
//                 endpoint, merges the histograms and counters exactly,
//                 and renders per-method percentiles, shard skew, cache
//                 efficacy, mutation counters, and the top-cost queries
//
// Flags:
//   --uds=<path>       connect over this Unix-domain socket
//   --host=<h>         TCP host (default 127.0.0.1)
//   --tcp-port=<p>     TCP port
//   --endpoints=<l>    comma-separated endpoint list; an entry containing
//                      '/' is a Unix-domain socket path, `host:port` and
//                      bare `port` are TCP. Overrides --uds/--tcp-port.
//   --interval=<s>     watch mode: re-poll and re-render every <s> seconds
//                      until interrupted (0 or absent = poll once)
//   --timeout-ms=<ms>  round-trip deadline per endpoint (default 5000)
//
// Exit status: 0 on success, 1 on usage/transport errors (any unreachable
// endpoint in one-shot mode), 2 when a server answered with an
// admin-level error. Watch mode keeps polling through endpoint failures.
//
// Examples:  topctl --uds=/tmp/shard0.sock metrics
//            topctl --endpoints=/tmp/s0r0.sock,/tmp/s0r1.sock top

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "net/endpoint_client.h"
#include "obs/fleet.h"
#include "wire/codec.h"
#include "wire/message.h"

namespace {

/// "--name=value" or "--name value" flag lookup; `fallback` when absent.
std::string FlagString(int argc, char** argv, const std::string& name,
                       const std::string& fallback) {
  const std::string prefix = "--" + name + "=";
  const std::string bare = "--" + name;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::string(argv[i] + prefix.size());
    }
    if (bare == argv[i] && i + 1 < argc) {
      return std::string(argv[i + 1]);
    }
  }
  return fallback;
}

long FlagLong(int argc, char** argv, const std::string& name,
              long fallback) {
  const std::string value = FlagString(argc, argv, name, "");
  return value.empty() ? fallback : std::atol(value.c_str());
}

/// The first non-flag argument is the command name (flag values passed in
/// the separated "--name value" form are skipped).
std::string PositionalCommand(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) == 0) {
      if (std::strchr(argv[i], '=') == nullptr && i + 1 < argc) ++i;
      continue;
    }
    return argv[i];
  }
  return "";
}

/// One entry of --endpoints: '/' means a UDS path; otherwise host:port or
/// a bare port on 127.0.0.1.
bool ParseEndpoint(const std::string& entry, const std::string& default_host,
                   tsb::net::ShardEndpoint* out) {
  if (entry.empty()) return false;
  if (entry.find('/') != std::string::npos) {
    *out = tsb::net::ShardEndpoint::Unix(entry);
    return true;
  }
  const size_t colon = entry.rfind(':');
  const std::string host =
      colon == std::string::npos ? default_host : entry.substr(0, colon);
  const std::string port_text =
      colon == std::string::npos ? entry : entry.substr(colon + 1);
  const long port = std::atol(port_text.c_str());
  if (port <= 0 || port > 65535 || host.empty()) return false;
  *out = tsb::net::ShardEndpoint::Tcp(host, static_cast<uint16_t>(port));
  return true;
}

tsb::net::Deadline MakeDeadline(long timeout_ms) {
  tsb::net::Deadline deadline;
  if (timeout_ms > 0) {
    deadline = std::chrono::steady_clock::now() +
               std::chrono::milliseconds(timeout_ms);
  }
  return deadline;
}

/// One admin round trip. Transport failures print a diagnostic and return
/// 1; server-side admin errors print one and return 2.
int FetchAdmin(const tsb::net::ShardEndpoint& endpoint,
               tsb::wire::AdminCommand command, long timeout_ms,
               std::string* body) {
  using namespace tsb;
  wire::AdminRequest request;
  request.command = command;
  std::string encoded;
  wire::EncodeAdminRequest(request, &encoded);
  net::EndpointClient client(endpoint);
  Result<std::string> frame =
      client.RoundTrip(encoded, MakeDeadline(timeout_ms));
  if (!frame.ok()) {
    std::fprintf(stderr, "topctl: %s: %s\n", endpoint.ToString().c_str(),
                 frame.status().ToString().c_str());
    return 1;
  }
  Result<wire::AdminResponse> response = wire::DecodeAdminResponse(*frame);
  if (!response.ok()) {
    std::fprintf(stderr, "topctl: %s: bad response frame: %s\n",
                 endpoint.ToString().c_str(),
                 response.status().ToString().c_str());
    return 1;
  }
  if (!response->error.ok()) {
    std::fprintf(stderr, "topctl: %s: server error %s: %s\n",
                 endpoint.ToString().c_str(),
                 wire::WireErrorCodeToString(response->error.code),
                 response->error.message.c_str());
    return 2;
  }
  *body = std::move(response->body);
  return 0;
}

/// `topctl top`: pull a cost-snapshot from every endpoint, merge exactly,
/// render the fleet dashboard. Endpoints that fail are reported and
/// skipped; the merged view covers whoever answered.
int RunTop(const std::vector<tsb::net::ShardEndpoint>& endpoints,
           long timeout_ms) {
  using namespace tsb;
  obs::FleetSnapshot merged;
  bool have_any = false;
  int worst = 0;
  for (const net::ShardEndpoint& endpoint : endpoints) {
    std::string body;
    const int rc =
        FetchAdmin(endpoint, wire::AdminCommand::kCostSnapshot, timeout_ms,
                   &body);
    if (rc != 0) {
      worst = std::max(worst, rc);
      continue;
    }
    Result<obs::FleetSnapshot> snapshot = obs::DecodeFleetSnapshot(body);
    if (!snapshot.ok()) {
      std::fprintf(stderr, "topctl: %s: bad cost snapshot: %s\n",
                   endpoint.ToString().c_str(),
                   snapshot.status().ToString().c_str());
      worst = std::max(worst, 1);
      continue;
    }
    if (!have_any) {
      merged = std::move(*snapshot);
      have_any = true;
    } else {
      merged.Merge(*snapshot);
    }
  }
  if (!have_any) {
    std::fprintf(stderr, "topctl: no endpoint answered\n");
    return worst == 0 ? 1 : worst;
  }
  std::fputs(merged.Render().c_str(), stdout);
  std::fflush(stdout);
  return worst;
}

/// Every non-`top` command: print each endpoint's body, with a header per
/// endpoint when polling more than one.
int RunCommand(const std::vector<tsb::net::ShardEndpoint>& endpoints,
               tsb::wire::AdminCommand command, long timeout_ms) {
  int worst = 0;
  for (const tsb::net::ShardEndpoint& endpoint : endpoints) {
    std::string body;
    const int rc = FetchAdmin(endpoint, command, timeout_ms, &body);
    if (rc != 0) {
      worst = std::max(worst, rc);
      continue;
    }
    if (endpoints.size() > 1) {
      std::printf("== %s ==\n", endpoint.ToString().c_str());
    }
    std::fputs(body.c_str(), stdout);
    if (!body.empty() && body.back() != '\n') std::fputc('\n', stdout);
  }
  std::fflush(stdout);
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tsb;

  const std::string uds = FlagString(argc, argv, "uds", "");
  const std::string host = FlagString(argc, argv, "host", "127.0.0.1");
  const long tcp_port = FlagLong(argc, argv, "tcp-port", -1);
  const long timeout_ms = FlagLong(argc, argv, "timeout-ms", 5000);
  const long interval_s = FlagLong(argc, argv, "interval", 0);
  const std::string endpoints_flag =
      FlagString(argc, argv, "endpoints", "");
  const std::string command_name = PositionalCommand(argc, argv);

  std::vector<net::ShardEndpoint> endpoints;
  if (!endpoints_flag.empty()) {
    size_t begin = 0;
    while (begin <= endpoints_flag.size()) {
      size_t end = endpoints_flag.find(',', begin);
      if (end == std::string::npos) end = endpoints_flag.size();
      const std::string entry = endpoints_flag.substr(begin, end - begin);
      if (!entry.empty()) {
        net::ShardEndpoint endpoint = net::ShardEndpoint::Unix("");
        if (!ParseEndpoint(entry, host, &endpoint)) {
          std::fprintf(stderr, "topctl: bad endpoint '%s'\n", entry.c_str());
          return 1;
        }
        endpoints.push_back(std::move(endpoint));
      }
      begin = end + 1;
    }
  } else if (!uds.empty()) {
    endpoints.push_back(net::ShardEndpoint::Unix(uds));
  } else if (tcp_port >= 0) {
    endpoints.push_back(
        net::ShardEndpoint::Tcp(host, static_cast<uint16_t>(tcp_port)));
  }

  if (command_name.empty() || endpoints.empty()) {
    std::fprintf(stderr,
                 "usage: topctl [--uds=<path> | --host=<h> --tcp-port=<p> | "
                 "--endpoints=<e1,e2,...>] [--interval=<s>] "
                 "<ping|metrics|metrics-json|metrics-text|traces|slowlog|"
                 "compaction|top>\n");
    return 1;
  }

  const bool is_top = command_name == "top";
  wire::AdminCommand command = wire::AdminCommand::kPing;
  if (!is_top && !wire::ParseAdminCommand(command_name, &command)) {
    std::fprintf(stderr, "topctl: unknown command '%s'\n",
                 command_name.c_str());
    return 1;
  }

  for (;;) {
    const int rc = is_top ? RunTop(endpoints, timeout_ms)
                          : RunCommand(endpoints, command, timeout_ms);
    if (interval_s <= 0) return rc;
    // Watch mode: keep polling through failures (a restarting server
    // reappears in the next round); only a signal stops the loop.
    std::printf("--- every %lds ---\n", interval_s);
    std::fflush(stdout);
    ::sleep(static_cast<unsigned>(interval_s));
  }
}
