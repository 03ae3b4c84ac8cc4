// Load generator for pnn::serve::Server: an in-process loopback server
// over a DynamicEngine backend, driven by pipelined clients in two
// phases, emitting the PR-gate JSON (BENCH_pr6.json):
//
//   1. closed-loop — each client thread keeps a fixed window of requests
//      in flight and measures sustained qps with end-to-end p50/p99 and
//      the deadline-hit rate at a per-request budget;
//   2. open-loop overload — requests are injected at ~2x the measured
//      capacity with a small admission queue; the gate is that the server
//      sheds with explicit kOverloaded statuses (shed_rate > 0) and every
//      injected request is answered (zero timeouts-without-response).
//
//   ./bench_serve_loadgen [--quick] [--json PATH] [n] [requests]
//
// host_cores is recorded in the JSON: on a 1-core host the server, client
// and engine threads share one CPU, so absolute qps is far below what the
// same code does on real hardware; compare trajectories at equal cores.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/api/engine_ref.h"
#include "src/api/query.h"
#include "src/dyn/dynamic_engine.h"
#include "src/serve/client.h"
#include "src/serve/server.h"
#include "src/util/bench_json.h"
#include "src/util/stats.h"
#include "src/util/table.h"
#include "src/util/timer.h"
#include "src/workload/generators.h"

namespace pnn {
namespace {

struct PhaseResult {
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t shed = 0;
  uint64_t deadline = 0;
  uint64_t other_error = 0;
  uint64_t transport_lost = 0;  // Sent but never answered — must stay 0.
  double seconds = 0.0;
  double p50_micros = 0.0;
  double p99_micros = 0.0;

  double qps() const { return seconds > 0 ? static_cast<double>(ok) / seconds : 0.0; }
  double answered_rate() const {
    return sent > 0
               ? static_cast<double>(ok + shed + deadline + other_error) /
                     static_cast<double>(sent)
               : 1.0;
  }
  double shed_rate() const {
    return sent > 0 ? static_cast<double>(shed) / static_cast<double>(sent) : 0.0;
  }
  double deadline_rate() const {
    return sent > 0 ? static_cast<double>(deadline) / static_cast<double>(sent) : 0.0;
  }
};

std::vector<Point2> MakeQueries(int count, Rng* rng) {
  std::vector<Point2> out(static_cast<size_t>(count));
  for (auto& q : out) q = {rng->Uniform(-30, 30), rng->Uniform(-30, 30)};
  return out;
}

// One pipelined client: a sender thread keeps `window` requests in
// flight, the calling thread drains responses and records end-to-end
// latency per request id. Injection is paced to `interval_micros` when
// positive (open loop) or gated on completions (closed loop).
PhaseResult RunClient(uint16_t port, const std::vector<Point2>& queries,
                      uint64_t deadline_micros, size_t window,
                      double interval_micros) {
  PhaseResult res;
  serve::Client client;
  if (!client.Connect(port)) {
    std::fprintf(stderr, "loadgen: connect failed\n");
    return res;
  }

  struct InFlight {
    double start_micros;
  };
  std::mutex mu;
  std::unordered_map<uint64_t, InFlight> inflight;
  std::atomic<uint64_t> outstanding{0};
  std::atomic<bool> send_done{false};
  std::vector<double> latencies;
  latencies.reserve(queries.size());

  Timer wall;
  std::thread sender([&] {
    Timer pace;
    for (size_t i = 0; i < queries.size(); ++i) {
      if (interval_micros > 0) {
        // Open loop: inject on schedule regardless of completions.
        double due = interval_micros * static_cast<double>(i);
        while (pace.Micros() < due) std::this_thread::yield();
      } else {
        // Closed loop: cap the in-flight window.
        while (outstanding.load(std::memory_order_relaxed) >= window) {
          std::this_thread::yield();
        }
      }
      api::QueryRequest req = api::QueryRequest::Quantify(queries[i], 0.1);
      req.deadline_micros = deadline_micros;
      double start = wall.Micros();
      std::optional<uint64_t> id;
      {
        // Holding mu across Send keeps the map insert ordered before the
        // receiver can possibly observe this id's response.
        std::lock_guard<std::mutex> lock(mu);
        id = client.Send(req);
        if (id) inflight.emplace(*id, InFlight{start});
      }
      if (!id) break;
      outstanding.fetch_add(1, std::memory_order_relaxed);
      res.sent++;
    }
    send_done = true;
  });

  // Drain until every sent request is answered or the transport dies.
  for (;;) {
    if (send_done && outstanding.load() == 0) break;
    std::optional<serve::ResponseFrame> frame = client.Receive();
    if (!frame) {
      if (send_done && outstanding.load() == 0) break;
      // Timeout/EOF with requests still in flight: count them lost.
      res.transport_lost = outstanding.load();
      break;
    }
    double end = wall.Micros();
    double start = end;
    {
      std::lock_guard<std::mutex> lock(mu);
      auto it = inflight.find(frame->request_id);
      if (it != inflight.end()) {
        start = it->second.start_micros;
        inflight.erase(it);
        outstanding.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    switch (frame->response.status) {
      case api::StatusCode::kOk:
        res.ok++;
        latencies.push_back(end - start);
        break;
      case api::StatusCode::kOverloaded:
        res.shed++;
        break;
      case api::StatusCode::kDeadlineExceeded:
        res.deadline++;
        break;
      default:
        res.other_error++;
        break;
    }
  }
  sender.join();
  res.seconds = wall.Seconds();
  res.p50_micros = Percentile(&latencies, 50.0);
  res.p99_micros = Percentile(&latencies, 99.0);
  return res;
}

int Run(int n, int requests, const char* json_path) {
  size_t cores = std::max<size_t>(1, std::thread::hardware_concurrency());
  std::printf("# pnn::serve load generator (n=%d, %d requests/phase, %zu cores)\n",
              n, requests, cores);

  // Backend: a dynamic engine with a realistic point count.
  Rng rng(4242);
  dyn::Options dopt;
  dopt.engine.seed = 77;
  auto backend = std::make_unique<dyn::DynamicEngine>(dopt);
  auto locs = RandomDiscreteLocations(n, 3, 25, 4, &rng);
  for (const auto& l : locs) {
    std::vector<double> w(l.size(), 1.0 / static_cast<double>(l.size()));
    backend->Insert(UncertainPoint::Discrete(l, w));
  }
  backend->Prewarm(0.1);  // Quantify structures built before timing.

  serve::ServerOptions server_opts;
  server_opts.queue_limit = 256;
  server_opts.batch_max = 64;
  serve::Server server(api::EngineRef(backend.get()), server_opts);
  if (!server.Start()) {
    std::fprintf(stderr, "loadgen: server start failed\n");
    return 2;
  }

  auto queries = MakeQueries(requests, &rng);
  const uint64_t kDeadlineMicros = 50000;  // 50ms end-to-end budget.

  // Phase 1: closed loop — sustained capacity at a bounded window.
  PhaseResult closed =
      RunClient(server.port(), queries, kDeadlineMicros, /*window=*/32,
                /*interval_micros=*/0);
  double capacity_qps = closed.qps();

  // Phase 2: open loop at ~2x capacity against a small admission queue —
  // the overload gate. A fresh server isolates the stats.
  serve::ServerOptions overload_opts;
  overload_opts.queue_limit = 64;
  overload_opts.batch_max = 64;
  serve::Server overload_server(api::EngineRef(backend.get()), overload_opts);
  if (!overload_server.Start()) {
    std::fprintf(stderr, "loadgen: overload server start failed\n");
    return 2;
  }
  double interval = capacity_qps > 0 ? 1e6 / (2.0 * capacity_qps) : 100.0;
  PhaseResult open = RunClient(overload_server.port(), queries, kDeadlineMicros,
                               /*window=*/0, interval);

  serve::ServerStats closed_stats = server.stats();
  serve::ServerStats open_stats = overload_server.stats();
  server.Stop();
  overload_server.Stop();

  Table table({"phase", "sent", "qps", "p50us", "p99us", "shed%", "ddl%", "lost"});
  table.AddRow({"closed", Table::Int(static_cast<int>(closed.sent)),
                Table::Num(closed.qps(), 0), Table::Num(closed.p50_micros, 1),
                Table::Num(closed.p99_micros, 1),
                Table::Num(100 * closed.shed_rate(), 2),
                Table::Num(100 * closed.deadline_rate(), 2),
                Table::Int(static_cast<int>(closed.transport_lost))});
  table.AddRow({"open 2x", Table::Int(static_cast<int>(open.sent)),
                Table::Num(open.qps(), 0), Table::Num(open.p50_micros, 1),
                Table::Num(open.p99_micros, 1), Table::Num(100 * open.shed_rate(), 2),
                Table::Num(100 * open.deadline_rate(), 2),
                Table::Int(static_cast<int>(open.transport_lost))});
  table.Print();
  std::printf("\ncoalescing: closed %.2f req/dispatch, overload %.2f req/dispatch\n",
              closed_stats.coalescing_factor(), open_stats.coalescing_factor());

  // PR gates: everything sent is answered; overload sheds explicitly.
  bool gates_ok = true;
  if (closed.transport_lost != 0 || open.transport_lost != 0) {
    std::fprintf(stderr, "GATE FAIL: requests lost without a response\n");
    gates_ok = false;
  }
  if (open.shed_rate() + open.deadline_rate() <= 0.0) {
    std::fprintf(stderr,
                 "GATE FAIL: 2x overload produced no shed/deadline statuses\n");
    gates_ok = false;
  }

  if (json_path != nullptr) {
    BenchJson json;
    json.AddMeta("bench", "serve_loadgen");
    json.AddMeta("n", std::to_string(n));
    json.AddMeta("requests", std::to_string(requests));
    json.AddMeta("host_cores", std::to_string(cores));
    json.Add("closed_loop",
             {{"sent", static_cast<double>(closed.sent)},
              {"qps", closed.qps()},
              {"p50_micros", closed.p50_micros},
              {"p99_micros", closed.p99_micros},
              {"deadline_hit_rate", closed.deadline_rate()},
              {"shed_rate", closed.shed_rate()},
              {"answered_rate", closed.answered_rate()},
              {"transport_lost", static_cast<double>(closed.transport_lost)},
              {"coalescing_factor", closed_stats.coalescing_factor()}});
    json.Add("open_loop_2x",
             {{"sent", static_cast<double>(open.sent)},
              {"target_qps", 2.0 * capacity_qps},
              {"qps", open.qps()},
              {"p50_micros", open.p50_micros},
              {"p99_micros", open.p99_micros},
              {"deadline_hit_rate", open.deadline_rate()},
              {"shed_rate", open.shed_rate()},
              {"answered_rate", open.answered_rate()},
              {"transport_lost", static_cast<double>(open.transport_lost)},
              {"coalescing_factor", open_stats.coalescing_factor()},
              {"gates_ok", gates_ok ? 1.0 : 0.0}});
    if (!json.WriteFile(json_path)) {
      std::fprintf(stderr, "failed to write %s\n", json_path);
      return 2;
    }
    std::printf("wrote %s\n", json_path);
  }
  return gates_ok ? 0 : 1;
}

}  // namespace
}  // namespace pnn

int main(int argc, char** argv) {
  int n = 4000, requests = 4000;
  const char* json_path = nullptr;
  std::vector<int> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      n = 1000;
      requests = 800;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      positional.push_back(std::atoi(argv[i]));
    }
  }
  if (positional.size() > 0) n = positional[0];
  if (positional.size() > 1) requests = positional[1];
  return pnn::Run(n, requests, json_path);
}
