#include "servebench/loadgen.h"

#include <sched.h>
#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>

#include "src/serve/client.h"
#include "src/util/check.h"
#include "src/util/stats.h"

namespace servebench {

namespace {

using pnn::api::QueryKind;
using pnn::api::StatusCode;

// Two connections measured less steady than one: each adds two generator
// threads that compete with the server for the host's cores.
constexpr size_t kConnections = 1;
// How long the receivers keep waiting for answers after the last due time.
constexpr int64_t kDrainGraceNs = 3'000'000'000;

// steady_clock is CLOCK_MONOTONIC on Linux; an absolute sleep on it does not
// drift with the loop's own work.
void SleepUntilNs(int64_t t) {
  if (t <= NowNs()) return;
  timespec ts;
  ts.tv_sec = t / 1'000'000'000;
  ts.tv_nsec = t % 1'000'000'000;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

struct Connection {
  pnn::serve::Client client;
  // Request id -> stream index, written by the sender before the send.
  std::unique_ptr<std::atomic<uint32_t>[]> index_of_id;
  std::atomic<size_t> sent{0};
  std::atomic<bool> done{false};

  Connection(pnn::serve::ClientOptions o, size_t capacity)
      : client(o), index_of_id(new std::atomic<uint32_t>[capacity + 2]()) {}
};

// Counts a phase's outcomes and fills its latency series.
void Tally(PhaseResult* res) {
  int64_t last_recv = 0;
  for (const Outcome& o : res->outcomes) {
    if (o.skipped) {
      ++res->skipped;
      continue;
    }
    if (o.send_ns < 0) {
      ++res->unsent;  // Never made it onto the wire: attempted and lost.
      ++res->lost;
      continue;
    }
    ++res->sent;
    res->late_us.push_back((o.send_ns - o.due_ns) / 1e3);
    if (o.recv_ns < 0) {
      ++res->lost;
      continue;
    }
    last_recv = std::max(last_recv, o.recv_ns);
    switch (o.status) {
      case StatusCode::kOk:
        ++res->ok;
        break;
      case StatusCode::kOverloaded:
        ++res->shed;
        continue;
      case StatusCode::kDeadlineExceeded:
        ++res->deadline;
        continue;
      default:
        ++res->error;
        continue;
    }
    double from_due = (o.recv_ns - o.due_ns) / 1e3;
    if (o.update) {
      res->update_us.push_back(from_due);
    } else {
      res->query_us.push_back(from_due);
      res->query_rtt_us.push_back((o.recv_ns - o.send_ns) / 1e3);
      res->query_server_us.push_back(o.server_us);
    }
  }
  if (!res->outcomes.empty() && last_recv > 0) {
    res->drain_us = (last_recv - res->outcomes.back().due_ns) / 1e3;
  }
}

// CPU time of `clock` (the process's or the calling thread's), ns. Time a
// thread waits runnable, also while the hypervisor runs another guest
// (steal), is not CPU time.
int64_t CpuNs(clockid_t clock) {
  timespec ts;
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// The affinity the process started with, read on first use (before any
// PinProcess).
const cpu_set_t& StartAffinity() {
  static const cpu_set_t mask = [] {
    cpu_set_t m;
    CPU_ZERO(&m);
    PNN_CHECK_MSG(sched_getaffinity(0, sizeof(m), &m) == 0, "sched_getaffinity failed");
    return m;
  }();
  return mask;
}

}  // namespace

void PinProcess(int cpu) {
  cpu_set_t set = StartAffinity();
  if (cpu >= 0) {
    std::vector<int> allowed;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) allowed.push_back(c);
    }
    CPU_ZERO(&set);
    CPU_SET(allowed[static_cast<size_t>(cpu) % allowed.size()], &set);
  }
  // A thread that exits meanwhile fails its call; the others are set.
  for (const auto& task : std::filesystem::directory_iterator("/proc/self/task")) {
    sched_setaffinity(std::stoi(task.path().filename().string()), sizeof(set), &set);
  }
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

IdMap::IdMap(size_t size, int preloaded) : ids_(new std::atomic<int>[size]) {
  for (size_t i = 0; i < size; ++i) {
    ids_[i].store(static_cast<int>(i) < preloaded ? static_cast<int>(i) : kPending);
  }
}

double PhaseResult::coalescing() const {
  uint64_t batches = after.batches_executed - before.batches_executed;
  uint64_t reqs = after.requests_executed - before.requests_executed;
  return batches > 0 ? static_cast<double>(reqs) / static_cast<double>(batches) : 0.0;
}

PhaseResult RunPhase(const std::string& name, pnn::serve::Server& server,
                     const OpStream& stream, double rate, IdMap* ids, size_t keep) {
  PhaseResult res;
  res.name = name;
  res.rate = rate;
  const size_t n = stream.size();
  res.outcomes.resize(n);
  res.kept.resize(std::min(keep, n));
  const double period_ns = 1e9 / rate;

  pnn::serve::ClientOptions copt;
  copt.recv_timeout_ms = 100;  // Lets a receiver notice the end of the phase.
  std::vector<std::unique_ptr<Connection>> conns;
  for (size_t c = 0; c < kConnections; ++c) {
    conns.push_back(std::make_unique<Connection>(copt, n / kConnections + 1));
    PNN_CHECK_MSG(conns.back()->client.Connect(server.port()), "connect failed");
  }
  res.before = server.stats();
  const int64_t t0 = NowNs() + 2'000'000;
  for (size_t i = 0; i < n; ++i) {
    res.outcomes[i].due_ns = t0 + static_cast<int64_t>(std::llround(period_ns * i));
    res.outcomes[i].update = stream.requests[i].is_update();
  }
  const int64_t drain_deadline = (n > 0 ? res.outcomes[n - 1].due_ns : t0) + kDrainGraceNs;

  auto sender = [&](size_t c) {
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);  // Wake on time, not 50 us late.
    Connection& conn = *conns[c];
    size_t sent = 0;
    for (size_t i = c; i < n; i += kConnections) {
      Outcome& out = res.outcomes[i];
      SleepUntilNs(out.due_ns);
      const QueryRequest* req = &stream.requests[i];
      QueryRequest erase;
      if (req->kind == QueryKind::kErase && ids != nullptr) {
        int gen = stream.gen_ids[i];
        int actual = ids->Get(gen);
        while (actual == IdMap::kPending && NowNs() < drain_deadline) {
          std::this_thread::sleep_for(std::chrono::microseconds(20));
          actual = ids->Get(gen);
        }
        if (actual < 0) {
          out.skipped = true;
          continue;
        }
        erase = *req;
        erase.id = actual;
        req = &erase;
      }
      conn.index_of_id[sent + 1].store(static_cast<uint32_t>(i), std::memory_order_release);
      out.send_ns = NowNs();
      std::optional<uint64_t> id = conn.client.Send(*req);
      if (!id) {
        out.send_ns = -1;
        break;
      }
      PNN_CHECK_MSG(*id == sent + 1, "unexpected request id");
      conn.sent.store(++sent, std::memory_order_release);
    }
    conn.done.store(true, std::memory_order_release);
  };

  auto receiver = [&](size_t c) {
    Connection& conn = *conns[c];
    size_t received = 0;
    for (;;) {
      bool done = conn.done.load(std::memory_order_acquire);
      if (done && received == conn.sent.load(std::memory_order_acquire)) break;
      std::optional<pnn::serve::ResponseFrame> frame = conn.client.Receive();
      if (!frame) {
        if (conn.client.last_transport_error() == pnn::serve::TransportError::kTimeout &&
            NowNs() < drain_deadline) {
          continue;
        }
        break;  // Disconnected, damaged, or past the drain grace: rest lost.
      }
      int64_t now = NowNs();
      if (frame->request_id == 0 || frame->request_id > n / kConnections + 1) continue;
      uint32_t i = conn.index_of_id[frame->request_id].load(std::memory_order_acquire);
      Outcome& out = res.outcomes[i];
      out.recv_ns = now;
      out.status = frame->response.status;
      out.server_us = frame->response.server_micros;
      out.resp_id = frame->response.id;
      if (ids != nullptr && stream.requests[i].kind == QueryKind::kInsert) {
        ids->Set(stream.gen_ids[i], frame->response.ok() ? frame->response.id : IdMap::kFailed);
      }
      if (i < res.kept.size()) res.kept[i] = std::move(frame->response);
      ++received;
    }
  };

  std::vector<std::thread> threads;
  for (size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back(sender, c);
    threads.emplace_back(receiver, c);
  }
  for (std::thread& t : threads) t.join();
  res.after = server.stats();
  Tally(&res);
  return res;
}

PhaseResult RunClosed(const std::string& name, pnn::serve::Server& server, size_t inflight,
                      int64_t end_ns, const Source& next, IdMap* ids, OpStream* sent,
                      size_t keep) {
  PhaseResult res;
  res.name = name;
  pnn::serve::ClientOptions copt;
  copt.recv_timeout_ms = 100;
  pnn::serve::Client client(copt);
  PNN_CHECK_MSG(client.Connect(server.port()), "connect failed");
  std::vector<size_t> index_of_id(1);  // Request id (1, 2, ...) -> outcome.
  const size_t sent_base = sent != nullptr ? sent->size() : 0;
  size_t outstanding = 0;
  res.before = server.stats();
  const int64_t cpu0 = CpuNs(CLOCK_PROCESS_CPUTIME_ID) - CpuNs(CLOCK_THREAD_CPUTIME_ID);

  // Takes one response; false when the connection failed or no response
  // came within the drain grace.
  auto receive = [&]() {
    const int64_t give_up = NowNs() + kDrainGraceNs;
    for (;;) {
      std::optional<pnn::serve::ResponseFrame> frame = client.Receive();
      if (!frame) {
        if (client.last_transport_error() == pnn::serve::TransportError::kTimeout &&
            NowNs() < give_up) {
          continue;
        }
        return false;
      }
      int64_t now = NowNs();
      if (frame->request_id == 0 || frame->request_id >= index_of_id.size()) continue;
      size_t i = index_of_id[frame->request_id];
      Outcome& out = res.outcomes[i];
      if (out.recv_ns >= 0) continue;
      out.recv_ns = now;
      out.status = frame->response.status;
      out.server_us = frame->response.server_micros;
      out.resp_id = frame->response.id;
      if (ids != nullptr && out.update &&
          sent->requests[sent_base + i].kind == QueryKind::kInsert) {
        int gen = sent->gen_ids[sent_base + i];
        ids->Set(gen, frame->response.ok() ? frame->response.id : IdMap::kFailed);
      }
      if (i < keep) {
        if (res.kept.size() <= i) res.kept.resize(i + 1);
        res.kept[i] = std::move(frame->response);
      }
      --outstanding;
      return true;
    }
  };

  bool broken = false, exhausted = false;
  while (!broken) {
    while (!broken && !exhausted && outstanding < inflight && NowNs() < end_ns) {
      QueryRequest req;
      int gen = -1;
      if (!next(&req, &gen)) {
        exhausted = true;
        break;
      }
      Outcome out;
      out.update = req.is_update();
      if (req.kind == QueryKind::kErase && ids != nullptr) {
        int actual = ids->Get(gen);
        while (actual == IdMap::kPending && outstanding > 0 && !broken) {
          broken = !receive();
          actual = ids->Get(gen);
        }
        if (actual < 0) out.skipped = true;  // Its insert was refused or lost.
        req.id = actual;
      }
      if (sent != nullptr) {
        sent->requests.push_back(req);
        sent->gen_ids.push_back(gen);
      }
      res.outcomes.push_back(out);
      if (out.skipped) continue;
      size_t i = res.outcomes.size() - 1;
      index_of_id.push_back(i);
      res.outcomes[i].send_ns = res.outcomes[i].due_ns = NowNs();
      std::optional<uint64_t> id = client.Send(req);
      if (!id) {
        res.outcomes[i].send_ns = -1;
        broken = true;
        break;
      }
      PNN_CHECK_MSG(*id == index_of_id.size() - 1, "unexpected request id");
      ++outstanding;
    }
    if (outstanding == 0 || broken) break;
    broken = !receive();
  }
  res.server_cpu_s =
      (CpuNs(CLOCK_PROCESS_CPUTIME_ID) - CpuNs(CLOCK_THREAD_CPUTIME_ID) - cpu0) / 1e9;
  res.after = server.stats();
  if (res.kept.size() > res.outcomes.size()) res.kept.resize(res.outcomes.size());
  Tally(&res);
  // The rate of the window proper: answers received by `end_ns`, without
  // the drain of the last outstanding requests.
  int64_t start = -1, stop = 0;
  size_t answered = 0;
  for (const Outcome& o : res.outcomes) {
    if (o.send_ns < 0) continue;
    if (start < 0) start = o.send_ns;
    if (o.recv_ns >= 0 && o.recv_ns <= end_ns && o.status == StatusCode::kOk) {
      ++answered;
      stop = std::max(stop, o.recv_ns);
    }
  }
  if (answered > 0 && stop > start) res.rate = answered / ((stop - start) / 1e9);
  return res;
}

void PrintPhase(const PhaseResult& r) {
  std::vector<double> late = r.late_us, q = r.query_us, u = r.update_us;
  std::printf(
      "# phase %-12s rate=%.0f/s sent=%zu ok=%zu shed=%zu deadline=%zu error=%zu "
      "lost=%zu skipped=%zu late_p50_us=%.1f late_p99_us=%.1f late_max_us=%.1f "
      "query_p50_us=%.1f query_p99_us=%.1f (n=%zu) update_p50_us=%.1f "
      "update_p99_us=%.1f (n=%zu) drain_us=%.0f coalescing=%.3f\n",
      r.name.c_str(), r.rate, r.sent, r.ok, r.shed, r.deadline, r.error, r.lost, r.skipped,
      pnn::Percentile(&late, 50), pnn::Percentile(&late, 99),
      late.empty() ? 0.0 : *std::max_element(late.begin(), late.end()),
      pnn::Percentile(&q, 50), pnn::Percentile(&q, 99), q.size(), pnn::Percentile(&u, 50),
      pnn::Percentile(&u, 99), u.size(), r.drain_us, r.coalescing());
}

}  // namespace servebench
