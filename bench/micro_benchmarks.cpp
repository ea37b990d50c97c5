/// \file micro_benchmarks.cpp
/// google-benchmark microbenchmarks for the substrates: tensor kernels,
/// autograd round trips, channels, the discrete-event engine and the
/// processor-sharing compute resource. These quantify the cost of the
/// building blocks the reproduction rests on.
///
/// Besides the google-benchmark suite, a hand-timed kernel suite can emit a
/// machine-readable perf baseline:
///
///   micro_benchmarks --json=BENCH_kernels.json [--kernels-only]
///
/// The JSON records GFLOP/s and ns/op for the blocked GEMM vs the reference
/// loop, fused vs unfused elastic/SGD kernels, and heap allocations per
/// steady-state training step from the arena counters, and ns per sample of
/// the synthetic tasks' batch generation against the original full-engine
/// generators (tests/synthetic_oracle.hpp). The kernel suite also re-checks
/// blocked-vs-reference and generator parity and exits non-zero on a
/// mismatch, so CI's perf-smoke job doubles as a correctness gate.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/queue.hpp"
#include "common/thread_pool.hpp"
#include "data/synthetic.hpp"
#include "nn/models.hpp"
#include "optim/optimizer.hpp"
#include "sim/resources.hpp"
#include "sim/simulator.hpp"
#include "tensor/arena.hpp"
#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"
#include "tensor/quantize.hpp"
#include "synthetic_oracle.hpp"

namespace {

using namespace avgpipe;
using tensor::Scalar;
using tensor::Tensor;
using tensor::Variable;

void BM_TensorMatmul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  Variable a(Tensor::randn({n, n}, rng), false);
  Variable b(Tensor::randn({n, n}, rng), false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::matmul(a, b).value().data().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_TensorMatmul)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_MatmulForwardBackward(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  Variable a(Tensor::randn({n, n}, rng), true);
  Variable b(Tensor::randn({n, n}, rng), true);
  for (auto _ : state) {
    a.zero_grad();
    b.zero_grad();
    tensor::sum_all(tensor::matmul(a, b)).backward();
    benchmark::DoNotOptimize(a.grad().data().data());
  }
}
BENCHMARK(BM_MatmulForwardBackward)->Arg(32)->Arg(64);

void BM_LstmForward(benchmark::State& state) {
  Rng rng(1);
  nn::LSTM lstm(32, 32, rng);
  lstm.set_training(false);
  Variable x(Tensor::randn({8, 16, 32}, rng), false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lstm.forward(x).value().data().data());
  }
}
BENCHMARK(BM_LstmForward);

void BM_TransformerLayerForward(benchmark::State& state) {
  Rng rng(1);
  nn::TransformerEncoderLayer layer(32, 4, 64, rng, 0.0);
  layer.set_training(false);
  Variable x(Tensor::randn({4, 16, 32}, rng), false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(layer.forward(x).value().data().data());
  }
}
BENCHMARK(BM_TransformerLayerForward);

void BM_ChannelPingPong(benchmark::State& state) {
  Channel<int> ch(64);
  for (auto _ : state) {
    ch.send(1);
    benchmark::DoNotOptimize(ch.recv());
  }
}
BENCHMARK(BM_ChannelPingPong);

void BM_EngineEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    for (int i = 0; i < 1000; ++i) {
      engine.schedule_at(static_cast<Seconds>(i), [] {});
    }
    benchmark::DoNotOptimize(engine.run());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_EngineEventThroughput);

void BM_ProcessorSharingReconfig(benchmark::State& state) {
  // Stress the rate-reconfiguration path: many overlapping ops.
  for (auto _ : state) {
    sim::Engine engine;
    sim::ComputeResource gpu(engine, 1e9);
    for (int i = 0; i < 100; ++i) {
      engine.schedule_at(static_cast<Seconds>(i) * 0.001, [&gpu] {
        gpu.submit(1e6, 0.3, [] {});
      });
    }
    benchmark::DoNotOptimize(engine.run());
  }
}
BENCHMARK(BM_ProcessorSharingReconfig);

void BM_SimulateGnmtBatch(benchmark::State& state) {
  const auto w = workloads::gnmt_profile();
  const auto cluster = workloads::v100_cluster(6);
  const auto part = partition::pipedream_partition(w, cluster, 6);
  sim::SystemConfig sys;
  sys.kind = schedule::Kind::kAdvanceForward;
  sys.micro_batches = 32;
  sys.num_pipelines = 2;
  sys.elastic_averaging = true;
  for (auto _ : state) {
    auto job = sim::build_job(w, cluster, part, sys, 128, 2);
    benchmark::DoNotOptimize(sim::simulate(job).makespan);
  }
}
BENCHMARK(BM_SimulateGnmtBatch);

// -- hand-timed kernel suite (--json) -------------------------------------------

using Clock = std::chrono::steady_clock;

/// Median-of-reps wall time for one call of `fn`, with one warm-up call.
template <typename Fn>
double time_ns(Fn&& fn, int reps) {
  fn();  // warm up (populates arena caches, spawns pool threads)
  std::vector<double> samples;
  samples.reserve(reps);
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    samples.push_back(
        std::chrono::duration<double, std::nano>(t1 - t0).count());
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

std::vector<Scalar> bench_vec(std::size_t n, Rng& rng) {
  std::vector<Scalar> v(n);
  for (auto& x : v) x = rng.normal(0.0, 1.0);
  return v;
}

struct GemmResult {
  std::size_t m, n, k;
  double ref_ns, blocked_ns, ref_gflops, blocked_gflops, speedup, max_rel_err;
};

GemmResult bench_gemm(std::size_t m, std::size_t n, std::size_t k) {
  Rng rng(0xBE7C);
  const auto a = bench_vec(m * k, rng);
  const auto b = bench_vec(k * n, rng);
  std::vector<Scalar> c_ref(m * n, 0.0), c_blk(m * n, 0.0);
  const double flops = 2.0 * static_cast<double>(m) * n * k;
  const int reps = std::max(3, static_cast<int>(2e8 / flops));

  GemmResult r{m, n, k, 0, 0, 0, 0, 0, 0};
  r.ref_ns = time_ns(
      [&] {
        tensor::gemm_reference(a.data(), b.data(), c_ref.data(), m, n, k,
                               false, false, false);
      },
      reps);
  r.blocked_ns = time_ns(
      [&] {
        tensor::gemm_blocked(a.data(), b.data(), c_blk.data(), m, n, k, false,
                             false, false);
      },
      reps);
  r.ref_gflops = flops / r.ref_ns;
  r.blocked_gflops = flops / r.blocked_ns;
  r.speedup = r.ref_ns / r.blocked_ns;
  for (std::size_t i = 0; i < m * n; ++i) {
    const double denom = std::max(1.0, std::abs(c_ref[i]));
    r.max_rel_err = std::max(r.max_rel_err,
                             std::abs(c_blk[i] - c_ref[i]) / denom);
  }
  return r;
}

struct FusedResult {
  std::string name;
  double fused_ns, unfused_ns, speedup;
};

FusedResult bench_fused_sgd() {
  const std::size_t n = 1 << 16;
  Rng rng(6);
  Tensor w({n}), g({n});
  for (auto& v : w.data()) v = rng.normal(0.0, 1.0);
  for (auto& v : g.data()) v = rng.normal(0.0, 1.0);
  Variable p(std::move(w), true);
  p.mutable_grad().copy_from(g);
  optim::Sgd sgd({p}, 1e-6, 0.9, 1e-4);

  Tensor velocity(p.value().shape());
  FusedResult r{"sgd_momentum_step", 0, 0, 0};
  r.fused_ns = time_ns([&] { sgd.step(); }, 50);
  r.unfused_ns = time_ns(
      [&] {
        Tensor gc = p.grad().clone();
        gc.axpy_(1e-4, p.value());
        velocity.scale_(0.9);
        velocity.axpy_(1.0, gc);
        p.value().axpy_(-1e-6, velocity);
      },
      50);
  r.speedup = r.unfused_ns / r.fused_ns;
  return r;
}

struct CodecResult {
  std::string name;        ///< "int8" / "fp16"
  double quant_gbps;       ///< dispatched quantize, input GB/s
  double dequant_gbps;     ///< dispatched dequantize, output GB/s
  double quant_ref_gbps;   ///< reference-oracle quantize
  double dequant_ref_gbps; ///< reference-oracle dequantize
  double wire_ratio;       ///< raw bytes / wire bytes
  double max_err;          ///< round-trip error (codec-specific norm)
  bool parity_ok;          ///< dispatched kernels bit-identical to oracles
};

/// Quantize/dequantize GB/s plus the bit-parity and error gates the CI
/// perf-smoke job enforces. Errors are measured in the codec's own norm:
/// per-block-max-relative for int8, half-ulp-relative for fp16.
CodecResult bench_codec(tensor::Codec codec) {
  const std::size_t n = (1 << 16) + 37;  // odd: exercises every tail path
  Rng rng(0xC0DEC);
  const auto src = bench_vec(n, rng);
  const double raw_bytes = static_cast<double>(n * sizeof(Scalar));
  const int reps = 50;

  CodecResult r{tensor::to_string(codec), 0, 0, 0, 0, 0, 0, true};
  r.wire_ratio =
      raw_bytes / static_cast<double>(tensor::codec_wire_bytes(codec, n));
  std::vector<Scalar> dst(n), dst_ref(n);

  if (codec == tensor::Codec::kInt8) {
    const std::size_t blocks = tensor::int8_num_blocks(n);
    std::vector<std::int8_t> q(n), q_ref(n);
    std::vector<float> s(blocks), s_ref(blocks);
    r.quant_gbps = raw_bytes / time_ns(
        [&] { tensor::quantize_int8(src.data(), n, q.data(), s.data()); },
        reps);
    r.quant_ref_gbps = raw_bytes / time_ns(
        [&] {
          tensor::quantize_int8_reference(src.data(), n, q_ref.data(),
                                          s_ref.data());
        },
        reps);
    r.dequant_gbps = raw_bytes / time_ns(
        [&] { tensor::dequantize_int8(q.data(), s.data(), n, dst.data()); },
        reps);
    r.dequant_ref_gbps = raw_bytes / time_ns(
        [&] {
          tensor::dequantize_int8_reference(q_ref.data(), s_ref.data(), n,
                                            dst_ref.data());
        },
        reps);
    r.parity_ok = q == q_ref && s == s_ref && dst == dst_ref;
    for (std::size_t b = 0; b * tensor::kQuantBlock < n; ++b) {
      const std::size_t lo = b * tensor::kQuantBlock;
      const std::size_t hi = std::min(n, lo + tensor::kQuantBlock);
      double block_max = 0.0;
      for (std::size_t i = lo; i < hi; ++i) {
        block_max = std::max(block_max, std::abs(src[i]));
      }
      if (block_max == 0.0) continue;
      for (std::size_t i = lo; i < hi; ++i) {
        r.max_err =
            std::max(r.max_err, std::abs(src[i] - dst[i]) / block_max);
      }
    }
  } else {
    std::vector<std::uint16_t> h(n), h_ref(n);
    r.quant_gbps = raw_bytes /
        time_ns([&] { tensor::quantize_fp16(src.data(), n, h.data()); }, reps);
    r.quant_ref_gbps = raw_bytes / time_ns(
        [&] { tensor::quantize_fp16_reference(src.data(), n, h_ref.data()); },
        reps);
    r.dequant_gbps = raw_bytes /
        time_ns([&] { tensor::dequantize_fp16(h.data(), n, dst.data()); },
                reps);
    r.dequant_ref_gbps = raw_bytes / time_ns(
        [&] { tensor::dequantize_fp16_reference(h_ref.data(), n,
                                                dst_ref.data()); },
        reps);
    r.parity_ok = h == h_ref && dst == dst_ref;
    for (std::size_t i = 0; i < n; ++i) {
      const double denom = std::max(std::abs(src[i]), 0x1.0p-14);
      r.max_err = std::max(r.max_err, std::abs(src[i] - dst[i]) / denom);
    }
  }
  return r;
}

/// Per-codec round-trip error ceiling for the bench gate (see
/// tests/kernel_test.cpp for the derivations).
double codec_err_bound(tensor::Codec codec) {
  return codec == tensor::Codec::kInt8 ? 0.5 / 127.0 + 1e-6 : 0x1.0p-10;
}

struct ArenaResult {
  double acquires_per_step, heap_allocs_per_step;
};

ArenaResult bench_arena_steady_state() {
  // One optimizer + persistent parameters, fresh activations per step: the
  // shape every training loop in the repo has.
  Rng rng(7);
  Variable w(Tensor::randn({64, 32}, rng), true);
  optim::Sgd sgd({w}, 0.01, 0.9);
  auto step = [&] {
    Rng local(9);
    Variable x(Tensor::randn({16, 64}, local), false);
    w.zero_grad();
    tensor::mean_all(tensor::relu(tensor::matmul(x, w))).backward();
    sgd.step();
  };
  for (int i = 0; i < 3; ++i) step();  // warm-up fills the free lists
  tensor::arena::reset_stats();
  const int steps = 100;
  for (int i = 0; i < steps; ++i) step();
  const auto s = tensor::arena::stats();
  return {static_cast<double>(s.acquires) / steps,
          static_cast<double>(s.heap_allocs) / steps};
}

struct SyntheticResult {
  std::string task;      ///< "features" / "seq" / "pair"
  double ns_per_sample;  ///< the library's make_batch
  double oracle_ns_per_sample;  ///< one full std::mt19937_64 per sample
  double speedup;
  bool parity_ok;        ///< batches byte-identical to the oracle's
};

/// Batch generation of one synthetic task against its oracle, on the shape
/// a trainbench workload uses and a 64-sample batch of indices past 2^40.
template <typename Task, typename Oracle>
SyntheticResult bench_synthetic(const std::string& name, const Task& task,
                                const Oracle& oracle) {
  std::vector<std::size_t> idx(64);
  for (std::size_t i = 0; i < idx.size(); ++i) {
    idx[i] = (std::size_t{1} << 40) + 977 * i;
  }
  const double n = static_cast<double>(idx.size());
  SyntheticResult r{name, 0, 0, 0, true};
  r.ns_per_sample = time_ns([&] { task.make_batch(idx); }, 200) / n;
  r.oracle_ns_per_sample = time_ns([&] { oracle.make_batch(idx); }, 200) / n;
  r.speedup = r.oracle_ns_per_sample / r.ns_per_sample;
  r.parity_ok =
      testutil::same_bytes(task.make_batch(idx), oracle.make_batch(idx));
  return r;
}

int run_kernel_suite(const std::string& json_path) {
  const std::vector<std::array<std::size_t, 3>> shapes = {
      {64, 64, 64}, {128, 128, 128}, {256, 256, 256}, {96, 257, 33}};
  std::vector<GemmResult> gemms;
  bool parity_ok = true;
  for (const auto& [m, n, k] : shapes) {
    gemms.push_back(bench_gemm(m, n, k));
    const auto& g = gemms.back();
    // Tolerance mirrors tests/kernel_test.cpp: FMA reassociation accumulates
    // at most a few ulp per k-term.
    if (g.max_rel_err > 1e-13 * static_cast<double>(k + 1)) {
      parity_ok = false;
      std::fprintf(stderr,
                   "PARITY FAIL gemm %zux%zux%zu: max_rel_err=%.3e\n", m, n,
                   k, g.max_rel_err);
    }
    std::printf(
        "gemm %4zux%-4zux%-4zu ref %8.2f GFLOP/s  blocked %8.2f GFLOP/s  "
        "speedup %5.2fx  max_rel_err %.2e\n",
        m, n, k, g.ref_gflops, g.blocked_gflops, g.speedup, g.max_rel_err);
  }
  const std::vector<FusedResult> fused = {bench_fused_sgd()};
  for (const auto& f : fused) {
    std::printf("%-20s fused %10.0f ns  unfused %10.0f ns  speedup %.2fx\n",
                f.name.c_str(), f.fused_ns, f.unfused_ns, f.speedup);
  }
  std::vector<CodecResult> codecs;
  for (const tensor::Codec codec :
       {tensor::Codec::kInt8, tensor::Codec::kFp16}) {
    codecs.push_back(bench_codec(codec));
    const auto& c = codecs.back();
    if (!c.parity_ok) {
      parity_ok = false;
      std::fprintf(stderr,
                   "PARITY FAIL codec %s: dispatched != reference\n",
                   c.name.c_str());
    }
    if (c.max_err > codec_err_bound(codec)) {
      parity_ok = false;
      std::fprintf(stderr, "ERROR BOUND FAIL codec %s: max_err=%.3e > %.3e\n",
                   c.name.c_str(), c.max_err, codec_err_bound(codec));
    }
    std::printf(
        "codec %-5s quant %6.2f GB/s (ref %6.2f)  dequant %6.2f GB/s "
        "(ref %6.2f)  wire %.2fx  max_err %.2e\n",
        c.name.c_str(), c.quant_gbps, c.quant_ref_gbps, c.dequant_gbps,
        c.dequant_ref_gbps, c.wire_ratio, c.max_err);
  }
  const ArenaResult arena = bench_arena_steady_state();
  std::printf("arena steady-state: %.1f acquires/step, %.2f heap allocs/step\n",
              arena.acquires_per_step, arena.heap_allocs_per_step);
  const std::size_t n_samples = std::size_t{1} << 62;
  const std::vector<SyntheticResult> synthetic = {
      bench_synthetic("features",
                      data::SyntheticFeatures(n_samples, 16, 4, 7, 3.0),
                      testutil::FeaturesOracle(16, 4, 7, 3.0)),
      bench_synthetic(
          "seq", data::SyntheticSeqClassification(n_samples, 32, 16, 4, 7, 0.5),
          testutil::SeqOracle(32, 16, 4, 7, 0.5)),
      bench_synthetic(
          "pair", data::SyntheticPairClassification(n_samples, 64, 32, 8, 7),
          testutil::PairOracle(64, 32, 8, 7))};
  for (const auto& g : synthetic) {
    if (!g.parity_ok) {
      parity_ok = false;
      std::fprintf(stderr,
                   "PARITY FAIL synthetic_make_batch %s: batch != oracle\n",
                   g.task.c_str());
    }
    std::printf(
        "synthetic_make_batch %-8s %8.0f ns/sample  oracle %8.0f ns/sample  "
        "speedup %.2fx\n",
        g.task.c_str(), g.ns_per_sample, g.oracle_ns_per_sample, g.speedup);
  }

  std::ofstream out(json_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
    return 1;
  }
  out << "{\n  \"schema\": \"avgpipe-kernel-bench-v1\",\n";
  out << "  \"num_threads\": " << configured_num_threads() << ",\n";
  out << "  \"gemm\": [\n";
  for (std::size_t i = 0; i < gemms.size(); ++i) {
    const auto& g = gemms[i];
    out << "    {\"m\": " << g.m << ", \"n\": " << g.n << ", \"k\": " << g.k
        << ", \"ref_ns\": " << g.ref_ns << ", \"blocked_ns\": " << g.blocked_ns
        << ", \"ref_gflops\": " << g.ref_gflops
        << ", \"blocked_gflops\": " << g.blocked_gflops
        << ", \"speedup\": " << g.speedup
        << ", \"max_rel_err\": " << g.max_rel_err << "}"
        << (i + 1 < gemms.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"fused\": [\n";
  for (std::size_t i = 0; i < fused.size(); ++i) {
    const auto& f = fused[i];
    out << "    {\"name\": \"" << f.name << "\", \"fused_ns\": " << f.fused_ns
        << ", \"unfused_ns\": " << f.unfused_ns
        << ", \"speedup\": " << f.speedup << "}"
        << (i + 1 < fused.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"codec\": [\n";
  for (std::size_t i = 0; i < codecs.size(); ++i) {
    const auto& c = codecs[i];
    out << "    {\"name\": \"" << c.name
        << "\", \"quant_gbps\": " << c.quant_gbps
        << ", \"dequant_gbps\": " << c.dequant_gbps
        << ", \"quant_ref_gbps\": " << c.quant_ref_gbps
        << ", \"dequant_ref_gbps\": " << c.dequant_ref_gbps
        << ", \"wire_ratio\": " << c.wire_ratio
        << ", \"max_err\": " << c.max_err
        << ", \"parity_ok\": " << (c.parity_ok ? "true" : "false") << "}"
        << (i + 1 < codecs.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"arena\": {\"acquires_per_step\": "
      << arena.acquires_per_step
      << ", \"heap_allocs_per_step\": " << arena.heap_allocs_per_step
      << "},\n";
  out << "  \"synthetic_make_batch\": [\n";
  for (std::size_t i = 0; i < synthetic.size(); ++i) {
    const auto& g = synthetic[i];
    out << "    {\"task\": \"" << g.task
        << "\", \"ns_per_sample\": " << g.ns_per_sample
        << ", \"oracle_ns_per_sample\": " << g.oracle_ns_per_sample
        << ", \"speedup\": " << g.speedup
        << ", \"parity_ok\": " << (g.parity_ok ? "true" : "false") << "}"
        << (i + 1 < synthetic.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"parity_ok\": " << (parity_ok ? "true" : "false") << "\n}\n";
  std::printf("wrote %s\n", json_path.c_str());
  return parity_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip our own flags before handing argv to google-benchmark.
  std::string json_path;
  bool kernels_only = false;
  int out_argc = 0;
  std::vector<char*> out_argv;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--kernels-only") == 0) {
      kernels_only = true;
    } else {
      out_argv.push_back(argv[i]);
      ++out_argc;
    }
  }
  out_argv.push_back(nullptr);

  int rc = 0;
  if (!json_path.empty()) rc = run_kernel_suite(json_path);
  if (!kernels_only) {
    benchmark::Initialize(&out_argc, out_argv.data());
    if (benchmark::ReportUnrecognizedArguments(out_argc, out_argv.data())) {
      return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  return rc;
}
