// SIMD kernel trajectory (PR 8): raw util/simd kernels scalar-vs-resolved,
// the kd leaf-scan query path, and the warm Monte-Carlo Quantify p50 that
// BENCH_pr4.json flagged as the per-core number to attack — each measured
// under forced-scalar dispatch and under whatever the host resolves
// (AVX2 on AVX2 hosts), so the speedup column is the refactor's headline.
// Emits BENCH_pr8.json. Meta records host_cores and the resolved ISA:
// kernel speedups are per-core statements, and the standing caveat that
// shard-scaling numbers from 1-core hosts prove nothing still applies
// (see ROADMAP "Multi-core bench truth").
//
//   ./bench_simd_kernels [--quick] [--json PATH] [n] [queries]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/dyn/dynamic_engine.h"
#include "src/spatial/kdtree.h"
#include "src/util/bench_json.h"
#include "src/util/rng.h"
#include "src/util/simd.h"
#include "src/util/stats.h"
#include "src/util/table.h"
#include "src/util/timer.h"

namespace pnn {
namespace {

volatile double g_sink;  // Defeats dead-code elimination of timed kernels.

UncertainPoint RandomDiscrete(Rng* rng) {
  int k = static_cast<int>(rng->UniformInt(1, 3));
  Point2 c{rng->Uniform(-100, 100), rng->Uniform(-100, 100)};
  std::vector<Point2> locs(k);
  std::vector<double> w(k);
  double total = 0;
  for (int s = 0; s < k; ++s) {
    locs[s] = {c.x + rng->Uniform(-2, 2), c.y + rng->Uniform(-2, 2)};
    w[s] = rng->Uniform(0.2, 1.0);
    total += w[s];
  }
  for (int s = 0; s < k; ++s) w[s] /= total;
  return UncertainPoint::Discrete(std::move(locs), std::move(w));
}

// Nanoseconds per element for one raw kernel over `reps` passes.
template <typename Fn>
double TimeKernel(size_t n, int reps, Fn&& fn) {
  Timer t;
  for (int r = 0; r < reps; ++r) fn();
  double micros = t.Micros();
  return micros * 1000.0 / (static_cast<double>(reps) * static_cast<double>(n));
}

void RawKernelBench(bool quick, Table* table, BenchJson* json) {
  Rng rng(8181);
  for (size_t n : {8u, 64u, 1024u, 16384u}) {
    std::vector<double> xs(n), ys(n), out(n), vals(n);
    for (size_t i = 0; i < n; ++i) {
      xs[i] = rng.Uniform(-100, 100);
      ys[i] = rng.Uniform(-100, 100);
      vals[i] = rng.Uniform(0.2, 1.0);
    }
    double qx = 1.5, qy = -2.5;
    int reps = static_cast<int>((quick ? 2000000u : 20000000u) / n) + 1;

    struct Kernel {
      const char* name;
      double scalar_ns, simd_ns;
    };
    Kernel kernels[] = {{"sqdist_scan", 0, 0},
                        {"dist_scan", 0, 0},
                        {"product", 0, 0}};
    for (bool forced : {true, false}) {
      simd::ForceScalarForTest(forced);
      double ns[3];
      ns[0] = TimeKernel(n, reps, [&] {
        simd::SquaredDistScan(xs.data(), ys.data(), n, qx, qy, out.data());
        g_sink = out[n - 1];
      });
      ns[1] = TimeKernel(n, reps, [&] {
        simd::DistScan(xs.data(), ys.data(), n, qx, qy, out.data());
        g_sink = out[n - 1];
      });
      ns[2] = TimeKernel(n, reps, [&] { g_sink = simd::Product(vals.data(), n); });
      for (int k = 0; k < 3; ++k) {
        (forced ? kernels[k].scalar_ns : kernels[k].simd_ns) = ns[k];
      }
    }
    simd::ForceScalarForTest(false);

    for (const Kernel& k : kernels) {
      double speedup = k.simd_ns > 0 ? k.scalar_ns / k.simd_ns : 0.0;
      std::string name = std::string(k.name) + "_n" + std::to_string(n);
      table->AddRow({name, Table::Num(k.scalar_ns, 3), Table::Num(k.simd_ns, 3),
                     Table::Num(speedup, 2)});
      json->Add(name, {{"scalar_ns_per_elem", k.scalar_ns},
                       {"simd_ns_per_elem", k.simd_ns},
                       {"speedup", speedup}});
    }
  }
}

void KdLeafScanBench(int n, int num_queries, Table* table, BenchJson* json) {
  Rng rng(4242);
  std::vector<Point2> pts(static_cast<size_t>(n));
  for (auto& p : pts) p = {rng.Uniform(-100, 100), rng.Uniform(-100, 100)};
  KdTree tree(pts);
  std::vector<Point2> queries(static_cast<size_t>(num_queries));
  for (auto& q : queries) q = {rng.Uniform(-110, 110), rng.Uniform(-110, 110)};

  double p50[2] = {0, 0};
  for (bool forced : {true, false}) {
    simd::ForceScalarForTest(forced);
    // One untimed pass settles scratch pools, then the timed pass.
    std::vector<double> lat;
    lat.reserve(queries.size());
    for (int pass = 0; pass < 2; ++pass) {
      lat.clear();
      for (Point2 q : queries) {
        Timer t;
        g_sink = static_cast<double>(tree.Nearest(q));
        lat.push_back(t.Micros());
      }
    }
    p50[forced ? 0 : 1] = Percentile(&lat, 50.0);
  }
  simd::ForceScalarForTest(false);
  double speedup = p50[1] > 0 ? p50[0] / p50[1] : 0.0;
  const char* name = "kd_nearest";
  table->AddRow({name, Table::Num(p50[0] * 1000.0, 3),
                 Table::Num(p50[1] * 1000.0, 3), Table::Num(speedup, 2)});
  json->Add(name, {{"scalar_p50_nanos", p50[0] * 1000.0},
                   {"simd_p50_nanos", p50[1] * 1000.0},
                   {"speedup", speedup}});
}

void WarmMcBench(int n, int num_queries, Table* table, BenchJson* json) {
  Rng rng(4242);
  UncertainSet initial;
  for (int i = 0; i < n; ++i) initial.push_back(RandomDiscrete(&rng));
  std::vector<Point2> queries(static_cast<size_t>(num_queries));
  for (auto& q : queries) q = {rng.Uniform(-110, 110), rng.Uniform(-110, 110)};

  // The bench_query_hotpath dyn_mc cell: MC plan forced, 128 rounds,
  // several buckets plus a live tail from churn, every cache warm.
  dyn::Options dopt;
  dopt.prewarm_after_build = true;
  dopt.engine.spiral_budget_fraction = 1e-9;
  dopt.engine.mc_rounds_override = 128;
  dyn::DynamicEngine engine(initial, dopt);
  for (int i = 0; i < n / 10; ++i) {
    engine.Erase(static_cast<dyn::Id>(i * 7 % n));
    engine.Insert(RandomDiscrete(&rng));
  }
  double eps = 0.1;
  engine.Prewarm(eps);

  std::vector<Quantification> out;
  double p50[2] = {0, 0}, p99[2] = {0, 0};
  for (bool forced : {true, false}) {
    simd::ForceScalarForTest(forced);
    std::vector<double> lat;
    lat.reserve(queries.size());
    for (int pass = 0; pass < 2; ++pass) {  // Warm-up pass, then timed.
      lat.clear();
      for (Point2 q : queries) {
        Timer t;
        engine.QuantifyInto(q, eps, &out);
        lat.push_back(t.Micros());
      }
    }
    p50[forced ? 0 : 1] = Percentile(&lat, 50.0);
    p99[forced ? 0 : 1] = Percentile(&lat, 99.0);
  }
  simd::ForceScalarForTest(false);
  double speedup = p50[1] > 0 ? p50[0] / p50[1] : 0.0;
  table->AddRow({"warm_mc_quantify", Table::Num(p50[0] * 1000.0, 1),
                 Table::Num(p50[1] * 1000.0, 1), Table::Num(speedup, 2)});
  json->Add("warm_mc_quantify",
            {{"scalar_p50_nanos", p50[0] * 1000.0},
             {"simd_p50_nanos", p50[1] * 1000.0},
             {"scalar_p99_nanos", p99[0] * 1000.0},
             {"simd_p99_nanos", p99[1] * 1000.0},
             {"speedup", speedup}});
}

int Run(bool quick, int n, int num_queries, const char* json_path) {
  size_t cores = std::max<size_t>(1, std::thread::hardware_concurrency());
  const char* isa = simd::ActiveName();
  std::printf("# SIMD kernel trajectory (n=%d, %d queries, isa=%s, cores=%zu)\n",
              n, num_queries, isa, cores);

  BenchJson json;
  json.AddMeta("bench", "simd_kernels");
  json.AddMeta("n", std::to_string(n));
  json.AddMeta("queries", std::to_string(num_queries));
  json.AddMeta("host_cores", std::to_string(cores));
  json.AddMeta("simd_isa", isa);
  json.AddMeta("note",
               "speedups are per-core (scalar-dispatch vs resolved-dispatch "
               "on the same host); shard-scaling trajectories from 1-core "
               "hosts remain unproven per ROADMAP 'Multi-core bench truth'");

  Table table({"kernel", "scalar ns", "simd ns", "speedup"});
  RawKernelBench(quick, &table, &json);
  KdLeafScanBench(n, num_queries, &table, &json);
  WarmMcBench(quick ? n / 4 : n, quick ? num_queries / 4 : num_queries, &table,
              &json);
  table.Print();

  if (json_path != nullptr) {
    if (!json.WriteFile(json_path)) {
      std::fprintf(stderr, "failed to write %s\n", json_path);
      return 2;
    }
    std::printf("\nwrote %s\n", json_path);
  }
  std::printf("\nShape note: on AVX2 hosts the raw scan/product kernels should "
              "beat scalar >= 1.5x from n=64 up. The engine-level cells "
              "(kd_nearest*, warm_mc_quantify) track ~1.0 when builder leaves "
              "hold <= 8 points: those paths are traversal- and RNG-bound, and "
              "the kernels bound the leaf-scan fraction only. On scalar-only "
              "hosts every speedup column reads ~1.0 and records the "
              "no-regression result.\n");
  return 0;
}

}  // namespace
}  // namespace pnn

int main(int argc, char** argv) {
  bool quick = false;
  int n = 50000, queries = 2000;
  const char* json_path = nullptr;
  std::vector<int> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      positional.push_back(std::atoi(argv[i]));
    }
  }
  if (quick) {
    n = 8000;
    queries = 400;
  }
  if (positional.size() > 0) n = positional[0];
  if (positional.size() > 1) queries = positional[1];
  return pnn::Run(quick, n, queries, json_path);
}
