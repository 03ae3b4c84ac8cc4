// servebench — outside-in serving benchmark for pnn.
//
// One workload per run, served by serve::StoreServer with num_shards = 0:
// a durable store::Store (fdatasync before every acknowledged mutation)
// over one dyn::DynamicEngine, driven over loopback by serve::Client from
// one process.
//
//   servebench --workload point_mix|mc_disk|churn_hotspot --seed N
//              --seconds S --trace 0|1 --dir WORKDIR [--tiny] [--wrong-reference]
//
// --trace 0 measures the end-to-end metrics: set-up time (median of
// kSetupRuns set-ups), query p50 with one request in flight, the rate the
// server answers with the workload's `inflight` requests always
// outstanding, the share of requests answered OK, peak RSS. After a
// warm-up the run alternates kRounds serial windows (one request in flight,
// closed loop) with as many loaded windows (closed loop at `inflight`),
// the whole process on one CPU, and reports the median window of each
// kind; see EndToEnd().
// --trace 1 serves the base rate open loop (latency from each request's due
// time), untraced and then traced, and replays the traced requests through
// each layer (layers.h) for the per-layer metrics.
//
// Both modes end with the correctness gate, outside the timed phases:
// served answers must be bit-identical to the static reference Engine over
// the live set, the live set must equal the acknowledged update history,
// and the store reopened from its directory must hold the same set and
// answer identically. A failed gate exits 3 without a result; an open-loop
// generator that fell behind its schedule in the traced run exits 4.
//
// Every metric prints as a "name value unit" line; the last line of stdout
// is the JSON result.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "servebench/layers.h"
#include "servebench/loadgen.h"
#include "servebench/report.h"
#include "servebench/served.h"
#include "servebench/workload.h"
#include "src/api/engine_ref.h"
#include "src/serve/client.h"
#include "src/util/check.h"
#include "src/util/simd.h"
#include "src/util/stats.h"
#include "src/util/timer.h"

namespace servebench {
namespace {

using pnn::api::QueryResponse;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string dir;
  bool tiny = false;
  bool wrong_reference = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string v;
    if (k == "--tiny") {
      a->tiny = true;
    } else if (k == "--wrong-reference") {
      a->wrong_reference = true;
    } else if (k == "--workload" && value(&v)) {
      a->workload = v;
    } else if (k == "--seed" && value(&v)) {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds" && value(&v)) {
      a->seconds = std::atof(v.c_str());
    } else if (k == "--trace" && value(&v)) {
      a->trace = std::atoi(v.c_str());
    } else if (k == "--dir" && value(&v)) {
      a->dir = v;
    } else {
      return false;
    }
  }
  return (a->workload == "point_mix" || a->workload == "mc_disk" ||
          a->workload == "churn_hotspot") &&
         a->seconds > 0 && (a->trace == 0 || a->trace == 1) && !a->dir.empty();
}

double Pct(std::vector<double> v, double pct) { return pnn::Percentile(&v, pct); }

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : std::accumulate(v.begin(), v.end(), 0.0) / v.size();
}

double Median(std::vector<double> v) { return pnn::Percentile(&v, 50); }

// The phase's tail: the median, over kWindows equal consecutive slices of
// the samples (in due-time order), of each slice's p99. A host hiccup that
// stalls one slice moves one of the five values, not the reported one; a
// tail the system shows throughout the phase moves them all.
constexpr size_t kWindows = 5;
double WindowedP99(const std::vector<double>& v) {
  if (v.size() < kWindows) return Pct(v, 99);
  std::vector<double> p99s;
  for (size_t k = 0; k < kWindows; ++k) {
    p99s.push_back(Pct(std::vector<double>(v.begin() + v.size() * k / kWindows,
                                           v.begin() + v.size() * (k + 1) / kWindows),
                       99));
  }
  return Median(p99s);
}

// Exits without a result. _Exit skips static destructors, which must not
// run under the server and pool threads still alive at this point.
[[noreturn]] void Fail(int code, const std::string& why) {
  std::fflush(stdout);
  std::fprintf(stderr, "servebench: %s\n", why.c_str());
  std::fflush(stderr);
  std::_Exit(code);
}

// Shares of --seconds. The untraced run: a warm-up, then kRounds pairs of
// a serial and a loaded window. The traced run serves two open-loop base
// phases after its warm-up.
constexpr double kWarmShare = 0.06;
constexpr double kRoundsShare = 0.84;
constexpr int kRounds = 16;
constexpr double kTracedBaseShare = 0.2;
// The churn stream is generated up front; closed-loop windows end early
// once it is used up.
constexpr size_t kChurnClosedOps = 200000;
// Insert/erase pairs the traced run applies to a fresh store (point_mix,
// mc_disk; churn_hotspot replays its own updates).
constexpr size_t kStoreReplayPairs = 1000;
constexpr int kSetupRuns = 5;
// Served answers the gate checks: the untraced run's first requests, sent
// one at a time before peak RSS is read; the traced run's first base-phase
// answers.
constexpr size_t kGateSample = 200;

// Pulls the workload's traffic from Inputs a block at a time, as the
// Source of closed-loop windows.
class Feed {
 public:
  explicit Feed(Inputs* in) : in_(in) {}

  bool Next(QueryRequest* request, int* gen_id) {
    if (pos_ == block_.size()) {
      size_t n = std::min(kBlock, in_->remaining());
      if (n == 0) return false;
      block_ = in_->Next(n);
      pos_ = 0;
    }
    *request = block_.requests[pos_];
    *gen_id = block_.gen_ids[pos_];
    ++pos_;
    return true;
  }

 private:
  static constexpr size_t kBlock = 1024;
  Inputs* in_;
  OpStream block_;
  size_t pos_ = 0;
};

class Run {
 public:
  explicit Run(const Args& a)
      : a_(a),
        w_(GetWorkload(a.workload, a.tiny)),
        in_(w_, a.seed, ChurnOps()),
        feed_(&in_),
        ids_(static_cast<size_t>(w_.points) + ChurnOps() + 16, w_.points) {
    for (size_t i = 0; i < in_.initial().size(); ++i) {
      acked_.emplace(static_cast<int>(i), in_.initial()[i]);
    }
  }

  int Main() {
    rep_.Note("workload", w_.name + (a_.tiny ? " (tiny)" : ""));
    rep_.Note("seed", std::to_string(a_.seed));
    rep_.Note("host_cores", std::to_string(std::thread::hardware_concurrency()));
    rep_.Note("simd", pnn::simd::ActiveName());
    rep_.Note("flush_policy", "fdatasync-per-acked-mutation");
    rep_.Note("points", std::to_string(w_.points));
    rep_.Note("inflight", std::to_string(w_.inflight));
    std::filesystem::create_directories(a_.dir);
    return a_.trace == 0 ? EndToEnd() : Traced();
  }

 private:
  size_t Count(double rate, double share) const {
    return std::max<size_t>(1, static_cast<size_t>(rate * a_.seconds * share));
  }
  size_t ChurnOps() const {
    if (!w_.churn) return 0;
    if (a_.trace == 0) return kChurnClosedOps;
    return Count(w_.base_rate, kWarmShare + 2 * kTracedBaseShare) + 16;
  }
  std::string StoreDir(int i) const { return a_.dir + "/store" + std::to_string(i); }

  // Stops the served store's server. Server::Stop sets its stop flag
  // without holding the queue mutex, so a stop that lands while the worker
  // is between its wait predicate and blocking is lost and the join hangs;
  // letting the worker park first closes that window.
  void StopServer() {
    if (served_ == nullptr) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    served_->server->Stop();
  }

  void CloseServed() {
    StopServer();
    served_.reset();
  }

  double SetUpTimed(int i) {
    CloseServed();
    pnn::Timer t;
    served_ = SetUp(w_, in_.initial(), StoreDir(i));
    return t.Seconds();
  }

  // Serves one open-loop phase at `rate`.
  PhaseResult Serve(const std::string& name, const OpStream& s, double rate, size_t keep = 0) {
    PhaseResult r = RunPhase(name, served_->server->server(), s, rate, &ids_, keep);
    Account(&s, r);
    return r;
  }

  // Serves a closed-loop window of `seconds` (or of `count` requests) with
  // `inflight` requests outstanding. The requests sent are recorded in
  // `sent` when given, and always when the workload has updates (for the
  // acknowledged history).
  PhaseResult ServeClosed(const std::string& name, size_t inflight, double seconds,
                          OpStream* sent = nullptr, size_t count = SIZE_MAX) {
    OpStream local;
    if (sent == nullptr && w_.churn) sent = &local;
    PNN_CHECK_MSG(sent == nullptr || sent->size() == 0, "a window records a fresh stream");
    size_t taken = 0;
    Source next = [this, &taken, count](QueryRequest* r, int* gen) {
      return taken++ < count && feed_.Next(r, gen);
    };
    int64_t end_ns = NowNs() + static_cast<int64_t>(seconds * 1e9);
    PhaseResult r = RunClosed(name, served_->server->server(), inflight, end_ns, next,
                              &ids_, sent, count == SIZE_MAX ? 0 : count);
    Account(sent, r);
    return r;
  }

  // Every phase counts toward the result's attempted/failed, and its
  // acknowledged updates (of `s`, the stream it sent; null when it sent
  // none) feed the history the gate checks.
  void Account(const OpStream* s, const PhaseResult& r) {
    PrintPhase(r);
    if (s != nullptr) ApplyAcked(*s, r, &acked_);
    for (const Outcome& o : r.outcomes) {
      if (o.update && o.send_ns >= 0 && o.recv_ns < 0) ++indeterminate_;
    }
    attempted_ += r.attempted();
    failed_ += r.failed();
  }

  // Rejects the run when the generator could not keep its own schedule
  // (throughout the phase, not in one stalled slice).
  void CheckGenerator(const PhaseResult& r) const {
    double late = WindowedP99(r.late_us);
    rep_.Add("generator_late_p99_us", late, "us", false);
    if (late > w_.late_limit_us) {
      Fail(4, "generator fell behind: p99 send lateness " + std::to_string(late) + " us");
    }
  }

  // Checks served answers against the static reference Engine and the live
  // set against the acknowledged history; keeps the reference for replays.
  void GateServed(const OpStream& base, const PhaseResult& base_result) {
    if (indeterminate_ > 0) {
      Fail(3, std::to_string(indeterminate_) + " updates were never answered");
    }
    std::vector<QueryRequest> reqs;
    std::vector<QueryResponse> got;
    if (!w_.churn) {  // Static live set: base-phase answers are still current.
      for (size_t i = 0; i < base_result.kept.size(); ++i) {
        if (base_result.outcomes[i].recv_ns >= 0 && base_result.kept[i].ok()) {
          reqs.push_back(base.requests[i]);
          got.push_back(base_result.kept[i]);
        }
      }
    }
    gate_queries_ = in_.GateQueries(w_.gate_queries);
    pnn::serve::Client client;
    if (!client.Connect(served_->server->port())) Fail(3, "gate: connect failed");
    for (const QueryRequest& q : gate_queries_) {
      pnn::serve::CallResult r = client.Call(q);
      if (!r) Fail(3, "gate: query lost");
      reqs.push_back(q);
      got.push_back(*r);
    }
    ref_ = BuildReference(served_->store().engine(), w_, a_.wrong_reference);
    for (size_t i = 0; i < reqs.size(); ++i) {
      if (!SameAnswer(got[i], ref_.Answer(reqs[i]))) {
        Fail(3, "gate: served answer " + std::to_string(i) + " (" +
                    pnn::api::QueryKindName(reqs[i].kind) + ") differs from the reference");
      }
    }
    std::string why;
    if (!SameLiveSet(served_->store().engine(), acked_, &why)) Fail(3, "gate: " + why);
    rep_.Add("gate.answers_checked", static_cast<double>(reqs.size()), "count", false);
  }

  // Reopens the run's store directory: same live set, same answers.
  double GateReopen() {
    std::vector<QueryResponse> want;
    for (const QueryRequest& q : gate_queries_) want.push_back(ref_.Answer(q));
    std::string dir = served_->dir;
    CloseServed();
    pnn::exec::ThreadPool pool(kMaintenanceThreads);
    pnn::Timer t;
    auto store = pnn::store::Store::Open(dir, StoreOptions(&pool));
    double seconds = t.Seconds();
    std::string why;
    if (!SameLiveSet(store->engine(), acked_, &why)) Fail(3, "gate after reopen: " + why);
    pnn::api::EngineRef ref(store.get());
    for (size_t i = 0; i < gate_queries_.size(); ++i) {
      if (!SameAnswer(ref.Call(gate_queries_[i]), want[i])) {
        Fail(3, "gate after reopen: answer " + std::to_string(i) + " differs");
      }
    }
    return seconds;
  }

  int EndToEnd() {
    std::vector<double> setups = {SetUpTimed(0)};
    PinProcess(0);  // Until the set-ups at the end; see the rounds below.
    OpStream gate;
    PhaseResult gate_result =
        ServeClosed("gate", 1, /*seconds=*/3600, &gate, /*count=*/kGateSample);
    // Before the time-bounded windows, whose buffers grow with the rate the
    // host allows, and before the repeated set-ups, whose freed memory the
    // allocator keeps to a varying degree: the peak of one served store.
    double peak_rss = PeakRssMb();
    ServeClosed("warm", 1, a_.seconds * kWarmShare / 2);
    ServeClosed("warm-loaded", w_.inflight, a_.seconds * kWarmShare / 2);

    // Serial windows time each request's own round trip, without queueing;
    // loaded windows keep `inflight` requests queued, so batches coalesce.
    // Both run with the client and every server thread on one CPU, round k
    // on the k-th CPU (mod count). Spread over several CPUs, the same
    // windows followed the load other guests put on the host: cross-CPU
    // wake-ups and a pipeline of threads that each may be descheduled made
    // loaded rates vary 4x within a run. The median window, not the best,
    // because under lasting host load the best window is whichever lull a
    // run happened to catch.
    const double window = a_.seconds * kRoundsShare / (2 * kRounds);
    std::vector<double> serial_p50, serial_p99, serial_cpu, loaded_rate, loaded_p99, loaded_cpu;
    for (int k = 0; k < kRounds; ++k) {
      PinProcess(k);
      PhaseResult s = ServeClosed("serial" + std::to_string(k), 1, window);
      PhaseResult l = ServeClosed("loaded" + std::to_string(k), w_.inflight, window);
      if (s.ok > 0) {
        serial_p50.push_back(Pct(s.query_us, 50));
        serial_p99.push_back(Pct(s.query_us, 99));
        serial_cpu.push_back(s.server_cpu_s * 1e6 / s.ok);
      }
      if (l.rate > 0) {
        loaded_rate.push_back(l.rate);
        loaded_p99.push_back(Pct(l.query_us, 99));
        loaded_cpu.push_back(l.server_cpu_s * 1e6 / l.ok);
      }
    }
    PinProcess(-1);
    if (serial_p50.empty() || loaded_rate.empty()) Fail(3, "no window was answered");
    GateServed(gate, gate_result);
    GateReopen();
    for (int i = 1; i < kSetupRuns; ++i) setups.push_back(SetUpTimed(i));
    CloseServed();

    rep_.Add("setup_s", Median(setups), "s");
    rep_.Add("query_p50_us", Median(serial_p50), "us");
    rep_.Add("throughput_qps", Median(loaded_rate), "1/s");
    // Printed, not in the result (also medians over the windows): tails
    // spread too far between runs of the same code on a shared host for a
    // usable bound. cpu_us is the CPU time the server's threads spent per
    // answered request.
    rep_.Add("query_p99_us", Median(serial_p99), "us", false);
    rep_.Add("serial_cpu_us", Median(serial_cpu), "us", false);
    rep_.Add("loaded_query_p99_us", Median(loaded_p99), "us", false);
    rep_.Add("loaded_cpu_us", Median(loaded_cpu), "us", false);
    double fail_ratio = attempted_ > 0 ? static_cast<double>(failed_) / attempted_ : 0.0;
    rep_.Add("fail_ratio", fail_ratio, "ratio", false);
    rep_.Add("ok_ratio", 1.0 - fail_ratio, "ratio");
    rep_.Add("answers_ok", 1.0, "bool");
    rep_.Add("peak_rss_mb", peak_rss, "MiB");
    rep_.PrintJson(true, attempted_, failed_);
    return 0;
  }

  int Traced() {
    SetUpTimed(0);
    Serve("warm", in_.Next(Count(w_.base_rate, kWarmShare)), w_.base_rate);
    OpStream plain_stream = in_.Next(Count(w_.base_rate, kTracedBaseShare));
    PhaseResult plain = Serve("base", plain_stream, w_.base_rate, kGateSample);
    CheckGenerator(plain);

    OpStream traced_stream = in_.Next(Count(w_.base_rate, kTracedBaseShare));
    PhaseResult traced;
    double hit_ratio;
    {
      CachePoller poller(served_->store().engine());
      traced = Serve("traced", traced_stream, w_.base_rate);
      hit_ratio = poller.Finish();
    }
    WriteSpans(traced_stream, traced);

    std::vector<double> outside;
    for (size_t i = 0; i < traced.query_rtt_us.size(); ++i) {
      outside.push_back(traced.query_rtt_us[i] - traced.query_server_us[i]);
    }
    double attempted = std::max<size_t>(1, traced.attempted());
    rep_.Add("client.query_p50_us", Pct(traced.query_us, 50), "us");
    rep_.Add("client.query_p99_us", Pct(traced.query_us, 99), "us");
    rep_.Add("serve.outside_engine_p50_us", Pct(outside, 50), "us");
    rep_.Add("serve.outside_engine_p99_us", Pct(outside, 99), "us");
    rep_.Add("serve.coalescing", traced.coalescing(), "req/batch");
    rep_.Add("serve.shed_ratio", traced.shed / attempted, "ratio");
    rep_.Add("serve.deadline_ratio", traced.deadline / attempted, "ratio");
    rep_.Add("self.serve_us", Mean(traced.query_rtt_us) - Mean(traced.query_server_us), "us");
    rep_.Add("dyn.answer_cache_hit_ratio", hit_ratio, "ratio");
    rep_.Add("dyn.repeat_share", RepeatShare(traced_stream.requests), "ratio");
    rep_.Add("trace.overhead", Pct(traced.query_us, 50) / Pct(plain.query_us, 50), "x");

    GateServed(plain_stream, plain);
    StopServer();

    std::vector<QueryRequest> queries;
    std::vector<double> server_us;
    for (size_t i = 0; i < traced_stream.size() && queries.size() < w_.replay_cap; ++i) {
      const Outcome& o = traced.outcomes[i];
      if (traced_stream.requests[i].is_update() || o.recv_ns < 0 ||
          o.status != pnn::api::StatusCode::kOk) {
        continue;
      }
      queries.push_back(traced_stream.requests[i]);
      server_us.push_back(o.server_us);
    }
    ReplayQueryLayers(w_, &served_->store(), ref_, queries, server_us, traced.coalescing(),
                      &rep_);
    rep_.Add("store.reopen_s", GateReopen(), "s");
    OpStream updates;
    if (w_.churn) {
      updates = traced_stream;
    } else {
      updates = in_.UpdatePairs(a_.tiny ? 50 : kStoreReplayPairs);
    }
    ReplayStore(w_, in_.initial(), updates, StoreDir(1), &rep_);
    rep_.PrintJson(true, attempted_, failed_);
    return 0;
  }

  // The traced phase's spans, one JSON object a line: a client span per
  // request (send to response) and its child server span (server_micros).
  void WriteSpans(const OpStream& s, const PhaseResult& r) const {
    std::ofstream out(a_.dir + "/spans.jsonl");
    for (size_t i = 0; i < s.size(); ++i) {
      const Outcome& o = r.outcomes[i];
      if (o.send_ns < 0 || o.recv_ns < 0) continue;
      out << "{\"trace\":" << i << ",\"span\":\"client\",\"kind\":\""
          << pnn::api::QueryKindName(s.requests[i].kind) << "\",\"start_ns\":" << o.send_ns
          << ",\"end_ns\":" << o.recv_ns << ",\"due_ns\":" << o.due_ns << "}\n";
      out << "{\"trace\":" << i << ",\"span\":\"server\",\"parent\":\"client\",\"dur_us\":"
          << o.server_us << "}\n";
    }
  }

  Args a_;
  Workload w_;
  Inputs in_;
  Feed feed_;
  IdMap ids_;
  LiveMap acked_;
  mutable Report rep_;
  std::unique_ptr<Served> served_;
  Reference ref_;
  std::vector<QueryRequest> gate_queries_;
  size_t attempted_ = 0, failed_ = 0, indeterminate_ = 0;
};

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  servebench::Args args;
  if (!servebench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: servebench --workload point_mix|mc_disk|churn_hotspot --seed N "
                 "--seconds S --trace 0|1 --dir WORKDIR [--tiny] [--wrong-reference]\n");
    return 2;
  }
  servebench::Run run(args);
  return run.Main();
}
