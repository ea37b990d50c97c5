/// \file trainbench.cpp
/// Closed-loop training benchmark for the threaded core::AvgPipe.
///
/// One invocation runs one workload. The load model is a closed loop with a
/// single client: one driver thread calls AvgPipe::train_iteration and issues
/// the next call only after the previous one returned. Work is split into
/// episodes; an episode constructs a fresh AvgPipe, warms it up, then drives
/// a fixed number of timed iterations and evaluates the reference model on a
/// fixed held-out set. The episode count follows from --seconds, so the work
/// of a run (and therefore its loss trajectory) depends only on the seed.
///
///   --trace 0  end-to-end metrics from untraced episodes
///   --trace 1  one untraced and one traced episode, the solo replay probes
///              and the serial baseline; everything lands in one Chrome trace
///              (the program's events plus the benchmark's own spans), which
///              the fold step turns into the per-layer table. Checkpointing
///              workloads add a traced kill episode in a trace of its own,
///              which supplies the fault and restore rows
///   --fold F   fold an existing trace file F and print its per-layer table
///
/// The last line of stdout is one JSON object {correct, attempted, failed,
/// metrics}. A failed correctness check exits with status 1.

#include <sys/resource.h>
#include <unistd.h>
#if defined(__x86_64__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "ckpt/state.hpp"
#include "common/affinity.hpp"
#include "common/env.hpp"
#include "common/thread_pool.hpp"
#include "core/avgpipe.hpp"
#include "core/sync_compression.hpp"
#include "data/synthetic.hpp"
#include "fault/fault_plan.hpp"
#include "nn/models.hpp"
#include "optim/optimizer.hpp"
#include "runtime/pipeline_runtime.hpp"
#include "runtime/semantics.hpp"
#include "tensor/arena.hpp"
#include "tensor/ops.hpp"
#include "trace/analysis.hpp"
#include "trace/chrome_trace.hpp"

namespace fs = std::filesystem;
using namespace avgpipe;
namespace arena = avgpipe::tensor::arena;

namespace {

constexpr std::size_t kPipelines = 2;     // N: 2 pipelines x 2 stages = 4 threads
constexpr std::size_t kBatch = 32;        // samples per pipeline per iteration
constexpr std::size_t kSaveEvery = 10;    // lstm_ckpt: iterations per checkpoint
constexpr std::size_t kKillPeriod = 50;   // lstm_ckpt: iterations per worker kill
constexpr std::size_t kProbeReps = 20;    // solo replays per probe
constexpr std::size_t kMinEpisodes = 3;    // per untraced run: medians of 3+
constexpr std::size_t kMaxEpisodes = 100;

/// A Block (or a set-up) counts as clean when the rest of the machine, other
/// processes and the hypervisor's steal together, used less than this many
/// CPUs on average during it. Load from outside slows the pipeline's threads,
/// so the end-to-end metrics come from clean blocks: they measure the program
/// rather than its neighbours.
constexpr double kCleanOtherCpus = 0.1;
/// The kMinEpisodes floor holds only while an episode would end within this
/// many times --seconds, so that a slowed host cannot stretch a run further.
constexpr double kMaxStretch = 2.0;

/// Knobs that change what a workload computes or how it is scheduled. The
/// benchmark pins the workload, so it refuses to run with any of them set.
constexpr const char* kWorkloadKnobs[] = {
    "AVGPIPE_FAULT_PLAN",   "AVGPIPE_SYNC_COMPRESS", "AVGPIPE_CHANNEL_CAPACITY",
    "AVGPIPE_ARENA_MAX_MB", "AVGPIPE_STAGE_THREADS", "AVGPIPE_NUM_THREADS",
    "AVGPIPE_PIN_THREADS",  "AVGPIPE_GEMM_AVX"};

double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds_of(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

/// User + system CPU seconds of the whole process (all threads).
double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return seconds_of(ru.ru_utime) + seconds_of(ru.ru_stime);
}

/// CPU seconds the rest of the machine has used so far: the user time of all
/// other processes plus the time the hypervisor stole from this machine's
/// CPUs (steal), from /proc/stat. System and interrupt time are left out,
/// because much of them is kernel work this process causes: thread wake-ups
/// and checkpoint writeback. NaN when /proc/stat cannot be read.
double outside_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  std::ifstream in("/proc/stat");
  std::string cpu;
  double user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0,
         softirq = 0, steal = 0;
  if (!(in >> cpu >> user >> nice >> system >> idle >> iowait >> irq >>
        softirq >> steal) ||
      cpu != "cpu") {
    return std::nan("");
  }
  static const double tick = static_cast<double>(sysconf(_SC_CLK_TCK));
  return (user + nice + steal) / tick - seconds_of(ru.ru_utime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// FNV-1a over the bit patterns of the per-step losses: equal digests mean
/// bit-identical trajectories.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(double x) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xFFu;
      h *= 0x100000001b3ull;
    }
  }
};

// -- workloads ----------------------------------------------------------------

/// Samples [offset, offset + n) of a synthetic task. Every synthetic dataset
/// generates sample i from (task seed, i), so disjoint windows of one task
/// are disjoint draws from the same distribution: the held-out set is the
/// window at 0 and each seed trains on its own window further out.
class IndexWindow : public data::Dataset {
 public:
  IndexWindow(const data::Dataset& task, std::uint64_t offset, std::size_t n)
      : task_(task), offset_(offset), n_(n) {}
  std::size_t size() const override { return n_; }
  data::Batch make_batch(const std::vector<std::size_t>& indices) const override {
    std::vector<std::size_t> shifted(indices);
    for (auto& i : shifted) i += offset_;
    return task_.make_batch(shifted);
  }

 private:
  const data::Dataset& task_;
  std::uint64_t offset_;
  std::size_t n_;
};

struct GemmShape {
  std::size_t m, n, k;
};

struct Workload {
  std::string name;
  std::size_t micro_batches = 4;
  std::vector<std::size_t> boundaries;
  nn::ModelFactory model;
  runtime::OptimizerFactory optimizer;
  /// The task: a fixed synthetic dataset (its own seed is a constant, so the
  /// task never depends on --seed; the seed picks the training window).
  std::function<std::unique_ptr<data::Dataset>()> task;
  core::SyncCompression compression;  ///< pinned, never from the environment
  bool checkpoints = false;  ///< save every kSaveEvery + seeded worker kills
  std::size_t warmup = 5;    ///< untimed iterations at the end of set-up
  std::size_t prewarm = 5;   ///< iterations of the process warm-up episode
  std::size_t iters = 100;   ///< timed iterations per episode
  std::size_t loss_window = 10;  ///< moving-mean width for time_to_target
  double target_loss = 0;
  double loss_ceiling = 0;    ///< correctness gate on loss_final
  std::size_t train_window = 8192;
  std::size_t heldout = 512;
  GemmShape gemm{};           ///< the dominant micro-batch GEMM
  std::size_t baseline_batches = 40;
  std::size_t block = 10;     ///< timed iterations per Block
};

runtime::OptimizerFactory adam(double lr) {
  return [lr](std::vector<tensor::Variable> params) {
    return std::make_unique<optim::Adam>(std::move(params), lr);
  };
}

runtime::OptimizerFactory sgd(double lr) {
  return [lr](std::vector<tensor::Variable> params) {
    return std::make_unique<optim::Sgd>(std::move(params), lr);
  };
}

bool make_workload(const std::string& name, Workload* w) {
  w->name = name;
  if (name == "bert_compute") {
    // Compute-bound: GEMM, softmax, layernorm, attention and autograd do the
    // work; channel hand-off and sync are a small share.
    w->micro_batches = 4;
    w->boundaries = {3};
    w->model = [](std::uint64_t s) {
      return nn::make_bert_like(64, 64, 4, 128, 4, 2, s);
    };
    w->optimizer = adam(5e-4);
    w->task = [] {
      return std::make_unique<data::SyntheticPairClassification>(
          std::size_t{1} << 62, 64, 32, 8, 7);
    };
    w->warmup = 5;
    w->iters = 110;
    w->loss_window = 10;
    w->heldout = 1024;
    w->target_loss = 0.42;
    w->loss_ceiling = 0.25;
    w->gemm = {8 * 32, 128, 64};  // FFN up-projection of one micro-batch
    w->baseline_batches = 40;
    return true;
  }
  if (name == "mlp_overhead") {
    // Microsecond stage steps: channel hand-off, spin/park, arena traffic,
    // the driver<->worker job channels and the reference apply dominate.
    w->micro_batches = 8;
    w->boundaries = {4};
    w->model = [](std::uint64_t s) { return nn::make_mlp(16, 32, 4, 4, s); };
    w->optimizer = sgd(0.005);
    w->task = [] {
      return std::make_unique<data::SyntheticFeatures>(std::size_t{1} << 62,
                                                       16, 4, 7, 3.0);
    };
    w->warmup = 100;
    // A shorter process warm-up left the first measured episode ~20% slower
    // than the rest.
    w->prewarm = 2000;
    w->iters = 2000;
    w->loss_window = 50;
    w->target_loss = 0.5;
    w->loss_ceiling = 0.45;
    w->train_window = 16384;
    w->heldout = 2048;
    w->gemm = {4, 32, 32};  // hidden Linear of one micro-batch
    w->baseline_batches = 2000;
    w->block = 500;
    return true;
  }
  if (name == "lstm_ckpt") {
    // The training path with writes beside it: periodic durable
    // checkpoints, int8 sync with error feedback, seeded worker kills
    // restored from disk; the LSTM recurrence issues many small GEMMs.
    w->micro_batches = 4;
    w->boundaries = {2};
    w->model = [](std::uint64_t s) {
      return nn::make_gnmt_like(32, 64, 128, 2, 4, s);
    };
    w->optimizer = adam(5e-4);
    w->task = [] {
      return std::make_unique<data::SyntheticSeqClassification>(
          std::size_t{1} << 62, 32, 16, 4, 7, 0.5);
    };
    w->compression.codec = tensor::Codec::kInt8;
    w->checkpoints = true;
    w->warmup = 5;
    w->iters = 100;
    w->loss_window = 10;
    w->heldout = 1024;
    w->target_loss = 0.45;
    w->loss_ceiling = 0.3;
    w->gemm = {8, 512, 128};  // LSTM recurrent gates of one micro-batch
    w->baseline_batches = 40;
    return true;
  }
  return false;
}

// -- the benchmark's own spans ------------------------------------------------

/// A span the benchmark records around its call into a layer's public
/// function. `parent` is "train_iteration" for spans nested in one, "run"
/// for everything else; `iter` is the timed-iteration index (-1 when the
/// span is not tied to one).
struct BenchSpan {
  std::string name;
  std::string parent;
  long iter = -1;
  double t_begin = 0, t_end = 0;
  double value = 0;
};

/// Records BenchSpans on the tracer's clock. Driver thread only; a null
/// recorder records nothing, so untraced episodes pay no tracing cost.
class Recorder {
 public:
  explicit Recorder(const trace::Tracer& clock) : clock_(clock) {}
  double now() const { return clock_.wall_now(); }
  void add(std::string name, std::string parent, long iter, double t_begin,
           double t_end, double value = 0) {
    spans_.push_back(BenchSpan{std::move(name), std::move(parent), iter,
                               t_begin, t_end, value});
  }
  const std::vector<BenchSpan>& spans() const { return spans_; }

 private:
  const trace::Tracer& clock_;
  std::vector<BenchSpan> spans_;
};

// -- one episode --------------------------------------------------------------

/// Consecutive timed iterations with everything the driver did between them
/// (batch fetch, checkpoint saves, stalls).
struct Block {
  std::size_t iters = 0;
  double wall_s = 0;
  double cpu_s = 0;    ///< this process, all threads
  double other_s = 0;  ///< outside_cpu_seconds() spent during the block
  std::vector<double> iter_ms;
};

/// Mean CPUs the rest of the machine used during a block.
double outside_load(const Block& b) { return b.other_s / std::max(b.wall_s, 1e-9); }

/// The clean blocks, or the least-loaded quarter of the blocks when fewer
/// are clean.
std::vector<const Block*> clean_blocks(const std::vector<Block>& blocks) {
  std::vector<const Block*> out;
  for (const Block& b : blocks) out.push_back(&b);
  std::stable_sort(out.begin(), out.end(), [](const Block* a, const Block* b) {
    return outside_load(*a) < outside_load(*b);
  });
  std::size_t n = 0;
  while (n < out.size() && outside_load(*out[n]) < kCleanOtherCpus) ++n;
  out.resize(std::max(n, (out.size() + 3) / 4));
  return out;
}

struct Episode {
  double setup_s = 0;
  double setup_other_s = 0;  ///< outside_cpu_seconds() spent during set-up
  double window_s = 0;
  std::size_t iters = 0;
  double time_to_target_s = 0;
  std::size_t iters_to_target = 0;
  bool reached_target = false;
  double loss_final = 0;
  double eval_s = 0;
  std::uint64_t digest = 0;
  std::size_t attempted = 0, failed = 0;
  std::size_t kills = 0;
  std::vector<std::string> errors;
  std::vector<double> curve;  ///< moving-mean loss at each tenth of the run
  arena::Stats arena_delta{};
  /// The timed window cut into blocks of Workload::block iterations.
  std::vector<Block> blocks;
  /// Samples over the whole timed window, batch fetch, checkpoint saves and
  /// stalls included.
  double samples() const { return static_cast<double>(kPipelines * kBatch * iters); }
};

/// Samples per second over the clean blocks, as the samples_per_s metric.
double clean_samples_per_s(const std::vector<const Block*>& clean) {
  double wall = 0, iters = 0;
  for (const Block* b : clean) {
    wall += b->wall_s;
    iters += static_cast<double>(b->iters);
  }
  return wall > 0 ? static_cast<double>(kPipelines * kBatch) * iters / wall : 0;
}

/// Training batches for one episode: the seed's own window of the task,
/// visited in the loader's seeded order.
class Feed {
 public:
  Feed(const data::Dataset& task, const Workload& w, std::uint64_t seed)
      : window_(task, w.heldout + (seed % (std::uint64_t{1} << 40)) *
                                      w.train_window,
                w.train_window),
        loader_(window_, kBatch, seed) {}
  Feed(const Feed&) = delete;  // loader_ refers to window_
  Feed& operator=(const Feed&) = delete;

  std::vector<data::Batch> next() {
    const std::size_t per_epoch = loader_.batches_per_epoch();
    std::vector<data::Batch> out;
    for (std::size_t p = 0; p < kPipelines; ++p, ++cursor_) {
      out.push_back(loader_.batch(cursor_ / per_epoch, cursor_ % per_epoch));
    }
    return out;
  }

 private:
  IndexWindow window_;
  data::DataLoader loader_;
  std::size_t cursor_ = 0;
};

double heldout_loss(nn::Sequential& model, const data::Dataset& task,
                    const Workload& w) {
  IndexWindow held(task, 0, w.heldout);
  data::DataLoader loader(held, 64, 0);
  // Epoch 0 of a fixed-seed loader: the same held-out batches every time.
  return runtime::evaluate_loss(model, loader, 0, loader.batches_per_epoch());
}

/// The seeded worker-kill plan of a checkpointing workload, empty unless
/// `kills` is set. A kill episode must be traced: without a tracer,
/// PipelineRuntime reports pipeline index 0 to the fault plan for every
/// pipeline (the index is set by set_tracer), so a one-pipeline kill would
/// kill every pipeline at once, and the empty sync round that follows aborts
/// the process in async mode.
fault::FaultPlan make_kill_plan(const Workload& w, std::uint64_t seed,
                                bool kills) {
  fault::FaultPlan plan;
  if (!w.checkpoints || !kills) return plan;
  // One mid-batch kill at runtime step kKillPeriod-1. A restored pipeline
  // gets a fresh runtime whose step counter restarts, so the same record
  // fires again every kKillPeriod iterations. The seed picks the crash point.
  Rng rng(mix_seed(seed, 0x4B494C4C));
  fault::WorkerKill kill;
  kill.pipeline = static_cast<int>(rng.uniform_int(0, kPipelines - 1));
  kill.stage = static_cast<int>(rng.uniform_int(0, 1));
  kill.micro_batch = static_cast<int>(
      rng.uniform_int(0, static_cast<std::int64_t>(w.micro_batches) - 1));
  kill.step = static_cast<long>(kKillPeriod) - 1;
  plan.kills.push_back(kill);
  return plan;
}

/// Run one episode. With a tracer, the AvgPipe records its own events and
/// `rec` receives the benchmark's spans for the timed part. `kills` arms the
/// workload's kill plan (checkpointing workloads, traced episodes only).
Episode run_episode(
    const Workload& w, const data::Dataset& task, std::uint64_t seed,
    std::size_t iters, const fs::path& work_dir, trace::Tracer* tracer,
    Recorder* rec, bool kills = false,
    const std::function<void(core::AvgPipe&)>& after = nullptr) {
  Episode ep;
  if (kills && tracer == nullptr) {
    throw std::logic_error("a kill episode needs a tracer");
  }
  const fault::FaultPlan plan = make_kill_plan(w, seed, kills);
  const fs::path ckpt_path = work_dir / ("ckpt-" + std::to_string(seed));
  fs::remove_all(ckpt_path);
  std::unique_ptr<ckpt::CheckpointDir> ckpts;

  const double outside_setup = outside_cpu_seconds();
  const double t_setup = wall_seconds();
  if (w.checkpoints) {
    ckpts = std::make_unique<ckpt::CheckpointDir>(ckpt_path.string());
  }
  core::AvgPipeConfig cfg;
  cfg.num_pipelines = kPipelines;
  cfg.micro_batches = w.micro_batches;
  cfg.boundaries = w.boundaries;
  cfg.kind = schedule::Kind::kAdvanceForward;
  cfg.async_sync = true;
  cfg.sync_lag = 1;
  cfg.tracer = tracer;
  cfg.faults = &plan;  // pinned: an empty plan ignores AVGPIPE_FAULT_PLAN
  cfg.sync_compression = w.compression;
  cfg.checkpoints = ckpts.get();
  cfg.restore_on_failure = w.checkpoints;
  Feed feed(task, w, seed);
  {
    core::AvgPipe system(w.model, w.optimizer, cfg);
    Digest digest;
    std::vector<std::size_t> failures(kPipelines, 0);
    std::vector<double> window_losses;
    double t_window = 0;
    const std::size_t total = w.warmup + iters;
    arena::Stats arena0{};
    Block block;
    double block_wall0 = 0, block_cpu0 = 0, block_outside0 = 0;
    auto open_block = [&] {
      block = Block{};
      block_outside0 = outside_cpu_seconds();
      block_cpu0 = process_cpu_seconds();
      block_wall0 = wall_seconds();
    };
    for (std::size_t g = 0; g < total; ++g) {
      const bool timed = g >= w.warmup;
      const long k = static_cast<long>(g) - static_cast<long>(w.warmup);
      if (g == w.warmup) {
        ep.setup_s = wall_seconds() - t_setup;
        ep.setup_other_s = outside_cpu_seconds() - outside_setup;
        if (!std::isfinite(ep.setup_other_s)) ep.setup_other_s = 0;
        if (tracer != nullptr) tracer->clear();  // keep the timed part only
        arena0 = arena::stats();
        t_window = wall_seconds();
        open_block();
      }
      const double tb0 = rec != nullptr && timed ? rec->now() : 0;
      const auto batches = feed.next();
      if (rec != nullptr && timed) {
        rec->add("DataLoader::batch", "run", k, tb0, rec->now(),
                 static_cast<double>(batches.size()));
      }
      double loss = 0;
      const double ti0 = rec != nullptr ? rec->now() : 0;
      const double t0 = wall_seconds();
      ++ep.attempted;
      try {
        loss = system.train_iteration(batches);
      } catch (const std::exception& e) {
        ++ep.failed;
        ep.errors.push_back("train_iteration " + std::to_string(g) +
                            " threw: " + e.what());
        break;
      }
      const double t1 = wall_seconds();
      if (rec != nullptr && timed) {
        rec->add("train_iteration", "run", k, ti0, rec->now(), loss);
      }
      digest.add(loss);
      if (!std::isfinite(loss)) {
        ep.errors.push_back("non-finite loss at step " + std::to_string(g));
      }
      // Pipeline failures: the planned kills must be re-attached (from disk
      // when a checkpoint exists); any other failure is unplanned.
      for (std::size_t p = 0; p < kPipelines; ++p) {
        const auto& h = system.health(p);
        if (h.failures == failures[p]) continue;
        failures[p] = h.failures;
        const bool planned = !plan.kills.empty() &&
                             static_cast<int>(p) == plan.kills[0].pipeline &&
                             (g + 1) % kKillPeriod == 0;
        if (!planned) {
          ++ep.failed;
          ep.errors.push_back("unplanned failure of pipeline " +
                              std::to_string(p) + " at step " +
                              std::to_string(g));
          continue;
        }
        ++ep.kills;
        ++ep.attempted;  // the restore that must follow
        // The durable path needs a live pipeline and a committed checkpoint
        // to restore from; the traced run also checks each kRestore span.
        if (!system.pipeline_alive(p) || ckpts->entries().empty()) {
          ++ep.failed;
          ep.errors.push_back("kill at step " + std::to_string(g) +
                              " not followed by a durable restore");
        }
      }
      if (w.checkpoints && (g + 1) % kSaveEvery == 0) {
        ++ep.attempted;
        const double ts0 = rec != nullptr ? rec->now() : 0;
        try {
          const auto entry = system.save_checkpoint();
          if (rec != nullptr && timed) {
            rec->add("AvgPipe::save_checkpoint", "run", k, ts0, rec->now(),
                     static_cast<double>(entry.bytes));
          }
        } catch (const std::exception& e) {
          ++ep.failed;
          ep.errors.push_back(std::string("save_checkpoint threw: ") +
                              e.what());
        }
      }
      if (!timed) continue;
      ++ep.iters;
      block.iter_ms.push_back((t1 - t0) * 1e3);
      if (++block.iters == w.block) {
        block.wall_s = wall_seconds() - block_wall0;
        block.cpu_s = process_cpu_seconds() - block_cpu0;
        block.other_s = outside_cpu_seconds() - block_outside0;
        if (!std::isfinite(block.other_s)) block.other_s = 0;  // no /proc/stat
        ep.blocks.push_back(std::move(block));
        open_block();
      }
      window_losses.push_back(loss);
      if (window_losses.size() >= w.loss_window) {
        double sum = 0;
        for (std::size_t i = window_losses.size() - w.loss_window;
             i < window_losses.size(); ++i) {
          sum += window_losses[i];
        }
        const double moving = sum / static_cast<double>(w.loss_window);
        if (window_losses.size() % std::max<std::size_t>(1, iters / 10) == 0) {
          ep.curve.push_back(moving);
        }
        if (moving <= w.target_loss && !ep.reached_target) {
          ep.reached_target = true;
          ep.time_to_target_s = wall_seconds() - t_window;
          ep.iters_to_target = window_losses.size();
        }
      }
    }
    ep.window_s = wall_seconds() - t_window;
    const arena::Stats arena1 = arena::stats();
    ep.arena_delta.acquires = arena1.acquires - arena0.acquires;
    ep.arena_delta.hits = arena1.hits - arena0.hits;
    ep.arena_delta.heap_allocs = arena1.heap_allocs - arena0.heap_allocs;
    if (rec != nullptr) {
      rec->add("timed_window", "run", -1, rec->now() - ep.window_s, rec->now());
    }
    if (!ep.reached_target) ep.time_to_target_s = ep.window_s;  // censored
    ep.digest = digest.h;

    const double tsync = rec != nullptr ? rec->now() : 0;
    system.synchronize();
    if (rec != nullptr) rec->add("AvgPipe::synchronize", "run", -1, tsync, rec->now());
    const double t_eval = wall_seconds();
    ep.loss_final = heldout_loss(system.eval_model(), task, w);
    ep.eval_s = wall_seconds() - t_eval;
    if (!std::isfinite(ep.loss_final)) {
      ep.errors.push_back("non-finite held-out loss");
    }
    if (after) after(system);
  }
  fs::remove_all(ckpt_path);
  return ep;
}

// -- solo replay probes and the serial baseline (one thread) -----------------

/// Per-stage forward/backward of one micro-batch at the workload's shapes,
/// replayed outside the pipeline on the calling thread.
void probe_stages(const Workload& w, const data::Dataset& task,
                  std::uint64_t seed, Recorder& rec) {
  PartitionGuard one_thread(1);
  nn::Sequential model = w.model(1234);
  auto stages = model.partition(w.boundaries);
  Feed feed(task, w, seed);
  const data::Batch micro =
      data::slice_micro_batches(feed.next().front(), w.micro_batches).front();
  const runtime::LossFn loss_fn = runtime::cross_entropy_loss();
  auto params = model.parameters();
  for (std::size_t rep = 0; rep < kProbeReps + 2; ++rep) {
    const bool record = rep >= 2;  // two warm-up replays
    double t = rec.now();
    auto mark = [&](const char* name) {
      const double t1 = rec.now();
      if (record) rec.add(name, "run", -1, t, t1);
      t = t1;
    };
    tensor::Variable in0(micro.inputs);
    tensor::Variable out0 = stages[0].forward(in0);
    mark("probe.s0.forward");
    tensor::Variable in1(out0.value(), /*requires_grad=*/true);
    tensor::Variable loss = loss_fn(stages[1].forward(in1), micro.targets);
    mark("probe.s1.forward");
    loss.backward();
    mark("probe.s1.backward");
    out0.backward(in1.grad());
    mark("probe.s0.backward");
    for (auto& p : params) p.zero_grad();
  }
}

void probe_gemm(const Workload& w, Recorder& rec) {
  PartitionGuard one_thread(1);
  const auto [m, n, k] = w.gemm;
  Rng rng(3);
  std::vector<tensor::Scalar> a(m * k), b(k * n), c(m * n);
  for (auto& x : a) x = rng.normal();
  for (auto& x : b) x = rng.normal();
  const double flops = 2.0 * static_cast<double>(m * n * k);
  // Enough repetitions for ~50 ms of work at 10 GFLOP/s.
  const auto reps = static_cast<std::size_t>(std::max(10.0, 5e8 / flops));
  tensor::gemm(a.data(), b.data(), c.data(), m, n, k, false, false, false);
  const double t0 = rec.now();
  for (std::size_t r = 0; r < reps; ++r) {
    tensor::gemm(a.data(), b.data(), c.data(), m, n, k, false, false, false);
  }
  rec.add("probe.gemm", "run", -1, t0, rec.now(),
          flops * static_cast<double>(reps));
}

void probe_core(const Workload& w, core::AvgPipe& system,
                const fs::path& work_dir, Recorder& rec) {
  PartitionGuard one_thread(1);
  core::SyncCodec codec(w.compression);
  core::ParamSet params = system.replica_snapshot(0);
  for (std::size_t rep = 0; rep < kProbeReps; ++rep) {
    core::ParamSet copy = params;
    const double t0 = rec.now();
    const auto stats = codec.transmit(copy);
    rec.add("probe.SyncCodec::transmit", "run", -1, t0, rec.now(),
            static_cast<double>(stats.wire_bytes));
  }
  if (!w.checkpoints) return;
  const fs::path dir = work_dir / "probe-ckpt";
  fs::remove_all(dir);
  ckpt::CheckpointDir ckpts(dir.string());
  double t0 = rec.now();
  const ckpt::TrainState state = system.capture_state();
  rec.add("probe.AvgPipe::capture_state", "run", -1, t0, rec.now());
  t0 = rec.now();
  const auto entry = ckpts.write(state);
  rec.add("probe.CheckpointDir::write", "run", -1, t0, rec.now(),
          static_cast<double>(entry.bytes));
  fs::remove_all(dir);
}

/// Plain Sequential plus its optimizer on one thread, fed the same batches.
void serial_baseline(const Workload& w, const data::Dataset& task,
                     std::uint64_t seed, Recorder& rec) {
  PartitionGuard one_thread(1);
  nn::Sequential model = w.model(1234);
  auto opt = w.optimizer(model.parameters());
  runtime::SyncTrainer trainer(std::move(model), std::move(opt));
  Feed feed(task, w, seed);
  std::vector<data::Batch> batches;
  while (batches.size() < w.baseline_batches) {
    for (auto& b : feed.next()) batches.push_back(std::move(b));
  }
  trainer.train_batch(batches.front());
  const double t0 = rec.now();
  for (const auto& b : batches) trainer.train_batch(b);
  rec.add("baseline.serial", "run", -1, t0, rec.now(),
          static_cast<double>(batches.size() * kBatch));
}

// -- Chrome trace with the benchmark's spans, and the fold --------------------

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

/// The program's events as write_chrome_trace emits them, followed by the
/// benchmark's spans (cat "trainbench", pid 1000) in the same one-event-per-
/// line shape.
bool write_trace(const fs::path& path,
                 const std::vector<trace::TraceEvent>& events,
                 const std::vector<BenchSpan>& spans) {
  std::ostringstream program;
  trace::write_chrome_trace(program, events);
  std::string doc = program.str();
  const std::string tail = "]}\n";
  doc.resize(doc.size() - tail.size());
  if (!events.empty() && !spans.empty()) doc.insert(doc.size() - 1, ",");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const BenchSpan& s = spans[i];
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"cat\":\"trainbench\",\"ph\":\"X\","
                  "\"ts\":%.17g,\"dur\":%.17g,\"pid\":1000,\"tid\":0,"
                  "\"tb_args\":{\"parent\":\"%s\",\"iter\":%ld,"
                  "\"tb\":%.17g,\"te\":%.17g,\"v\":%.17g}}%s\n",
                  json_escape(s.name).c_str(), s.t_begin * 1e6,
                  (s.t_end - s.t_begin) * 1e6, json_escape(s.parent).c_str(),
                  s.iter, s.t_begin, s.t_end, s.value,
                  i + 1 < spans.size() ? "," : "");
    doc += buf;
  }
  doc += tail;
  std::ofstream out(path);
  out << doc;
  return static_cast<bool>(out);
}

std::string string_field(const std::string& line, const char* key) {
  const std::string needle = std::string("\"") + key + "\":\"";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return "";
  const auto begin = pos + needle.size();
  return line.substr(begin, line.find('"', begin) - begin);
}

double number_field(const std::string& line, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return 0;
  return std::strtod(line.c_str() + pos + needle.size(), nullptr);
}

using Metrics = std::map<std::string, double>;

/// Fold a trace written by write_trace into the per-layer table. Program
/// events go through trace::TraceAnalysis; the benchmark's spans supply the
/// B and P rows. Iteration-normalised values divide by the number of timed
/// train_iteration spans.
Metrics fold_trace(const fs::path& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read trace " + path.string());
  std::stringstream program;
  std::vector<BenchSpan> spans;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"cat\":\"trainbench\"") == std::string::npos) {
      program << line << '\n';
      continue;
    }
    BenchSpan s;
    s.name = string_field(line, "name");
    s.t_begin = number_field(line, "tb");
    s.t_end = number_field(line, "te");
    s.value = number_field(line, "v");
    spans.push_back(std::move(s));
  }
  const trace::TraceAnalysis ta(trace::parse_chrome_trace(program));

  auto named = [&](const std::string& name) {
    std::vector<const BenchSpan*> out;
    for (const auto& s : spans) {
      if (s.name == name) out.push_back(&s);
    }
    return out;
  };
  auto durations_ms = [&](const std::string& name) {
    std::vector<double> out;
    for (const auto* s : named(name)) out.push_back((s->t_end - s->t_begin) * 1e3);
    return out;
  };
  auto sum = [](const std::vector<double>& v) {
    double t = 0;
    for (double x : v) t += x;
    return t;
  };
  auto first = [&](const std::string& name) -> const BenchSpan* {
    const auto v = named(name);
    return v.empty() ? nullptr : v.front();
  };

  Metrics m;
  const double iters =
      std::max<double>(1, static_cast<double>(named("train_iteration").size()));
  const BenchSpan* window = first("timed_window");
  const double window_s = window != nullptr ? window->t_end - window->t_begin : 0;
  const double pipes = std::max<double>(1, static_cast<double>(ta.num_pipelines()));

  // Program events of one kind (optionally one stage), durations in ms.
  auto event_ms = [&](trace::EventKind kind, int stage) {
    std::vector<double> out;
    for (const auto& ev : ta.events()) {
      if (ev.kind != kind) continue;
      if (stage >= 0 && ev.stage != static_cast<std::uint32_t>(stage)) continue;
      out.push_back((ev.t_end - ev.t_begin) * 1e3);
    }
    return out;
  };
  auto counter_mean = [&](trace::CounterId id) {
    double total = 0, count = 0;
    for (const auto& ev : ta.events()) {
      if (ev.kind == trace::EventKind::kCounter && ev.counter == id) {
        total += ev.value;
        count += 1;
      }
    }
    return count > 0 ? total / count : 0.0;
  };
  auto counter_total = [&](trace::CounterId id) {
    double total = 0;
    for (std::size_t s = 0; s < ta.num_stages(); ++s) total += ta.counter_sum(s, id);
    return total;
  };
  auto mean = [&](const std::vector<double>& v) {
    return v.empty() ? 0.0 : sum(v) / static_cast<double>(v.size());
  };

  m["data.batch_ms_per_iter"] = sum(durations_ms("DataLoader::batch")) / iters;

  m["tensor.flops_per_iter"] = counter_total(trace::CounterId::kFlops) / iters;
  if (const BenchSpan* g = first("probe.gemm")) {
    m["tensor.gemm_probe_gflops"] = g->value / (g->t_end - g->t_begin) / 1e9;
  }
  if (const BenchSpan* a = first("arena.heap_allocs_per_iter")) {
    m["tensor.heap_allocs_per_iter"] = a->value;
  }
  if (const BenchSpan* a = first("arena.hit_ratio")) {
    m["tensor.arena_hit_ratio"] = a->value;
  }

  double update_ms = 0;
  for (int s = 0; s < 2; ++s) {
    const std::string st = "s" + std::to_string(s);
    m["tensor." + st + ".gflops"] = ta.achieved_gflops(static_cast<std::size_t>(s));
    const auto fwd = event_ms(trace::EventKind::kForward, s);
    const auto bwd = event_ms(trace::EventKind::kBackward, s);
    const auto upd = event_ms(trace::EventKind::kUpdate, s);
    m["nn." + st + ".fwd_ms"] = mean(fwd);
    m["nn." + st + ".bwd_ms"] = mean(bwd);
    m["nn." + st + ".fwd_ms_solo"] = median(durations_ms("probe." + st + ".forward"));
    m["nn." + st + ".bwd_ms_solo"] = median(durations_ms("probe." + st + ".backward"));
    update_ms += sum(upd);
    // Per stage thread: the N threads of stage s each own the whole window.
    const double stage_wall_ms = window_s * 1e3 * pipes;
    const double busy = (sum(fwd) + sum(bwd) + sum(upd)) / stage_wall_ms;
    const double comm = ta.comm_wait_time(static_cast<std::size_t>(s)) * 1e3 / stage_wall_ms;
    const double bubble = ta.bubble_time(static_cast<std::size_t>(s)) * 1e3 / stage_wall_ms;
    m["runtime." + st + ".busy_frac"] = busy;
    m["runtime." + st + ".comm_wait_frac"] = comm;
    m["runtime." + st + ".bubble_frac"] = bubble;
    m["runtime." + st + ".unattributed_frac"] = 1.0 - busy - comm - bubble;
  }
  m["optim.update_ms_per_iter"] = update_ms / iters;

  m["runtime.parks_per_iter"] = counter_total(trace::CounterId::kParkCount) / iters;
  m["runtime.spins_per_iter"] = counter_total(trace::CounterId::kSpinCount) / iters;
  m["runtime.queue_depth_mean"] = counter_mean(trace::CounterId::kQueueDepth);

  m["core.pull_ms_per_iter"] = sum(event_ms(trace::EventKind::kElasticPull, -1)) / iters;
  m["core.apply_ms_per_iter"] =
      sum(event_ms(trace::EventKind::kReferenceApply, -1)) / iters;
  m["core.sync_batch_mean"] = ta.mean_sync_batch();
  m["core.sync_lag_mean"] = counter_mean(trace::CounterId::kSyncLag);
  m["core.staleness_mean"] = counter_mean(trace::CounterId::kStaleness);
  m["core.sync_wire_bytes_per_iter"] = static_cast<double>(ta.sync_bytes()) / iters;
  m["core.sync_raw_bytes_per_iter"] = static_cast<double>(ta.sync_bytes_raw()) / iters;
  m["core.codec_ms"] = median(durations_ms("probe.SyncCodec::transmit"));
  const auto sync_ms = durations_ms("AvgPipe::synchronize");
  m["core.synchronize_ms"] = sync_ms.empty() ? 0 : sync_ms.front();

  const auto saves = durations_ms("AvgPipe::save_checkpoint");
  m["ckpt.save_ms_p50"] = median(saves);
  m["ckpt.save_ms_max"] = saves.empty() ? 0 : *std::max_element(saves.begin(), saves.end());
  const auto capture = durations_ms("probe.AvgPipe::capture_state");
  const auto write = durations_ms("probe.CheckpointDir::write");
  m["ckpt.capture_ms"] = capture.empty() ? 0 : capture.front();
  m["ckpt.write_ms"] = write.empty() ? 0 : write.front();
  const auto ckpt_events = ta.checkpoint_events();
  m["ckpt.bytes_per_save"] =
      ckpt_events.empty() ? 0
                          : static_cast<double>(ta.checkpoint_bytes()) /
                                static_cast<double>(ckpt_events.size());
  std::vector<double> restore_ms;
  double fallbacks = 0, durable = 0;
  for (const auto& ev : ta.restore_events()) {
    restore_ms.push_back((ev.t_end - ev.t_begin) * 1e3);
    fallbacks += std::max(0.0, ev.value);
    if (ev.batch >= 0) durable += 1;
  }
  m["ckpt.restore_ms_p50"] = median(restore_ms);
  m["ckpt.manifest_fallbacks"] = fallbacks;
  m["fault.kills_fired"] = static_cast<double>(ta.recoveries().size());
  m["fault.durable_restores"] = durable;
  m["core.compression_ratio"] = ta.compression_ratio();

  // Whole-window rates of two fault-free episodes that differ only in tracing.
  const BenchSpan* untraced = first("untraced_samples_per_s");
  const BenchSpan* traced = first("traced_samples_per_s");
  m["trace.overhead_frac"] = untraced != nullptr && traced != nullptr &&
                                     untraced->value > 0
                                 ? 1.0 - traced->value / untraced->value
                                 : 0;
  if (const BenchSpan* b = first("baseline.serial")) {
    m["baseline.serial_samples_per_s"] = b->value / (b->t_end - b->t_begin);
  }
  return m;
}

// -- output -------------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"samples_per_s", "samples/s"}, {"iter_ms_p50", "ms"},
    {"time_to_target_s", "s"},
    {"loss_final", "nats"},         {"setup_s", "s"},
    {"peak_rss_mb", "MB"},          {"cpu_s_per_ksample", "CPU-s"},
};

const char* per_layer_unit(const std::string& name) {
  auto ends = [&](const char* suffix) {
    const std::size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends("gflops")) return "GFLOP/s";
  if (ends("_frac") || ends("ratio")) return "ratio";
  if (ends("bytes_per_iter") || ends("bytes_per_save")) return "bytes";
  if (ends("flops_per_iter")) return "FLOP";
  if (ends("samples_per_s")) return "samples/s";
  if (name.find("_ms") != std::string::npos) return "ms";
  return "count";
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const Metrics& metrics,
                  const std::function<const char*(const std::string&)>& unit) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(),
                  std::isfinite(value) ? value : 0.0, unit(name));
    out += buf;
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

std::string cpu_model() {
#if defined(__x86_64__)
  unsigned int regs[12] = {};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      regs[0] >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string s(reinterpret_cast<const char*>(regs), sizeof regs);
    s = s.c_str();
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

void print_fingerprint(const Workload& w, const std::string& source_id) {
  bool avx2 = false;
#if defined(__x86_64__)
  avx2 = __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#endif
  const std::size_t stages = w.boundaries.size() + 1;
  std::printf(
      "fingerprint: {\"nproc\": %u, \"cpu_model\": \"%s\", \"compiler\": "
      "\"%s\", \"build_type\": \"%s\", \"source\": \"%s\", \"knobs\": "
      "{\"num_threads\": %zu, \"stage_threads\": %zu, \"pin_threads\": "
      "\"%s\", \"channel_capacity\": \"schedule\", \"arena_max_mb\": 256, "
      "\"gemm_avx2\": %s, \"sync_compress\": \"%s\", \"fault_plan\": "
      "\"%s\"}}\n",
      std::thread::hardware_concurrency(), json_escape(cpu_model()).c_str(),
      TRAINBENCH_COMPILER, TRAINBENCH_BUILD_TYPE,
      json_escape(source_id).c_str(), configured_num_threads(),
      stage_workers_from_env(kPipelines * stages),
      to_string(pin_policy_from_env()), avx2 ? "true" : "false",
      tensor::to_string(w.compression.codec),
      w.checkpoints ? "seeded worker kill" : "none");
}

struct Args {
  std::string workload, fold, source_id = "unknown";
  std::uint64_t seed = 1;
  double seconds = 25;
  int trace = 0;
  fs::path work_dir = ".bench_run";
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    if (key == "--workload") a->workload = val;
    else if (key == "--seed") a->seed = std::stoull(val);
    else if (key == "--seconds") a->seconds = std::stod(val);
    else if (key == "--trace") a->trace = std::stoi(val);
    else if (key == "--work-dir") a->work_dir = val;
    else if (key == "--source-id") a->source_id = val;
    else if (key == "--fold") a->fold = val;
    else return false;
  }
  return argc % 2 == 1;
}

int run(const Args& args) {
  if (!args.fold.empty()) {
    const Metrics m = fold_trace(args.fold);
    print_result(true, 1, 0, m, per_layer_unit);
    return 0;
  }
  Workload w;
  if (!make_workload(args.workload, &w)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  for (const char* knob : kWorkloadKnobs) {
    const char* v = common::env_raw(knob);
    if (v != nullptr && *v != '\0') {
      std::fprintf(stderr,
                   "refusing to run: %s=%s changes the workload; unset it\n",
                   knob, v);
      return 2;
    }
  }
  fs::create_directories(args.work_dir);
  print_fingerprint(w, args.source_id);
  const std::unique_ptr<data::Dataset> task = w.task();
  std::vector<std::string> errors;
  std::size_t attempted = 0, failed = 0;
  auto absorb = [&](const Episode& ep, std::uint64_t seed, bool kills) {
    attempted += ep.attempted;
    failed += ep.failed;
    for (const auto& e : ep.errors) errors.push_back(e);
    if (!(ep.loss_final < w.loss_ceiling)) {
      errors.push_back("loss_final " + std::to_string(ep.loss_final) +
                       " not under the ceiling " + std::to_string(w.loss_ceiling));
    }
    if (kills && ep.kills == 0) {
      errors.push_back("no worker kill fired; the restore path went unchecked");
    }
    std::fprintf(stderr,
                 "episode seed %llu: %zu iters in %.3f s, setup %.3f s, "
                 "target %s at %.3f s (iteration %zu), loss_final %.6f (eval %.2f s), kills %zu, "
                 "digest %016llx, rss %.1f MB\n",
                 static_cast<unsigned long long>(seed), ep.iters, ep.window_s,
                 ep.setup_s, ep.reached_target ? "reached" : "NOT reached",
                 ep.time_to_target_s, ep.iters_to_target, ep.loss_final, ep.eval_s, ep.kills,
                 static_cast<unsigned long long>(ep.digest), peak_rss_mb());
    std::fprintf(stderr, "  moving-mean loss by tenths:");
    for (double x : ep.curve) std::fprintf(stderr, " %.3f", x);
    std::fprintf(stderr, "\n");
    std::printf("loss_digest: %016llx\n",
                static_cast<unsigned long long>(ep.digest));
  };

  // Process warm-up: the first AvgPipe of a process also pays for the
  // kernel pool, first-touch page faults and arena growth. Users pay that
  // once per process, not per training run, so no episode measures it.
  run_episode(w, *task, mix_seed(args.seed, 0x5741524D), w.prewarm,
              args.work_dir, nullptr, nullptr);

  Metrics metrics;
  if (args.trace == 0) {
    // Episodes follow one another until the run has used about --seconds:
    // the next one starts only if, at the mean episode length so far, it
    // would end less than half an episode past that. Below kMinEpisodes it
    // starts if it would end within kMaxStretch x --seconds.
    std::vector<Episode> episodes;
    const double t_run = wall_seconds();
    double rss_mb = 0;
    while (episodes.size() < kMaxEpisodes) {
      if (!episodes.empty()) {
        const double elapsed = wall_seconds() - t_run;
        const double mean_episode = elapsed / static_cast<double>(episodes.size());
        const bool floor = episodes.size() < kMinEpisodes &&
                           elapsed + mean_episode <= kMaxStretch * args.seconds;
        if (!floor && elapsed + 0.5 * mean_episode > args.seconds) break;
      }
      const std::uint64_t seed = mix_seed(args.seed, episodes.size());
      episodes.push_back(
          run_episode(w, *task, seed, w.iters, args.work_dir, nullptr, nullptr));
      absorb(episodes.back(), seed, false);
      // Read after the first episode: every later episode starts fresh
      // threads, whose new malloc heaps add a step of tens of MB at random.
      if (episodes.size() == 1) rss_mb = peak_rss_mb();
    }
    std::vector<Block> blocks;
    std::vector<double> iters_to_target, loss, clean_setup;
    const Episode* calmest_setup = &episodes.front();
    double whole_samples = 0, whole_s = 0;
    for (const Episode& ep : episodes) {
      blocks.insert(blocks.end(), ep.blocks.begin(), ep.blocks.end());
      // An episode that never reached the target counts its whole window.
      iters_to_target.push_back(static_cast<double>(
          ep.reached_target ? ep.iters_to_target : ep.iters));
      loss.push_back(ep.loss_final);
      if (ep.setup_other_s < kCleanOtherCpus * ep.setup_s) {
        clean_setup.push_back(ep.setup_s);
      }
      if (ep.setup_other_s / ep.setup_s <
          calmest_setup->setup_other_s / calmest_setup->setup_s) {
        calmest_setup = &ep;
      }
      whole_samples += ep.samples();
      whole_s += ep.window_s;
    }
    const std::vector<const Block*> clean = clean_blocks(blocks);
    double wall = 0, cpu = 0, iters = 0;
    std::vector<double> iter_ms;
    for (const Block* b : clean) {
      wall += b->wall_s;
      cpu += b->cpu_s;
      iters += static_cast<double>(b->iters);
      iter_ms.insert(iter_ms.end(), b->iter_ms.begin(), b->iter_ms.end());
    }
    const double samples = static_cast<double>(kPipelines * kBatch) * iters;
    metrics["samples_per_s"] = clean_samples_per_s(clean);
    metrics["iter_ms_p50"] = median(iter_ms);
    // The p95 is printed below, not reported: on a shared machine the tail
    // of sub-millisecond iterations follows the hypervisor's steal bursts,
    // which no filter on outside load separates from the program.
    const double p95 = quantile(iter_ms, 0.95);
    const auto beyond = static_cast<std::size_t>(
        std::count_if(iter_ms.begin(), iter_ms.end(), [p95](double x) { return x > p95; }));
    metrics["time_to_target_s"] = iters > 0 ? median(iters_to_target) * wall / iters : 0;
    metrics["loss_final"] = median(loss);
    metrics["setup_s"] =
        clean_setup.empty() ? calmest_setup->setup_s : median(clean_setup);
    metrics["peak_rss_mb"] = rss_mb;
    metrics["cpu_s_per_ksample"] = samples > 0 ? cpu / samples * 1e3 : 0;
    const double fail_ratio =
        static_cast<double>(failed) / static_cast<double>(std::max<std::size_t>(1, attempted));
    std::fprintf(stderr,
                 "%zu episodes in %.1f s; %zu of %zu blocks clean, %zu timed "
                 "iterations in them (%zu beyond p95); %zu of %zu set-ups "
                 "clean; whole-window rate %.2f samples/s; fail_ratio %.6f "
                 "(%zu/%zu)\n",
                 episodes.size(), wall_seconds() - t_run, clean.size(),
                 blocks.size(), iter_ms.size(), beyond, clean_setup.size(),
                 episodes.size(), whole_s > 0 ? whole_samples / whole_s : 0,
                 fail_ratio, failed, attempted);
    std::fprintf(stderr, "  iter_ms p50/p75/p90/p95/p99/max: %.3f %.3f %.3f %.3f %.3f %.3f\n",
                 quantile(iter_ms, 0.5), quantile(iter_ms, 0.75), quantile(iter_ms, 0.9),
                 quantile(iter_ms, 0.95), quantile(iter_ms, 0.99), quantile(iter_ms, 1.0));
    for (const auto& def : kEndToEnd) {
      std::fprintf(stderr, "  %-20s %14.6f %s\n", def.name, metrics[def.name], def.unit);
    }
  } else {
    trace::Tracer tracer;
    Recorder rec(tracer);
    const double t_run = rec.now();
    const std::uint64_t seed = mix_seed(args.seed, 0);
    const Episode plain = run_episode(w, *task, seed, w.iters, args.work_dir, nullptr, nullptr);
    absorb(plain, seed, false);
    rec.add("untraced_samples_per_s", "run", -1, rec.now(), rec.now(),
            clean_samples_per_s(clean_blocks(plain.blocks)));
    const double iters = std::max<double>(1, static_cast<double>(plain.iters));
    rec.add("arena.heap_allocs_per_iter", "run", -1, rec.now(), rec.now(),
            static_cast<double>(plain.arena_delta.heap_allocs) / iters);
    rec.add("arena.hit_ratio", "run", -1, rec.now(), rec.now(),
            static_cast<double>(plain.arena_delta.hits) /
                static_cast<double>(std::max<std::uint64_t>(1, plain.arena_delta.acquires)));
    // The folded episode runs the same fault-free path as the untraced ones.
    std::vector<trace::TraceEvent> events;
    const Episode traced = run_episode(
        w, *task, seed, w.iters, args.work_dir, &tracer, &rec, false,
        [&](core::AvgPipe& system) {
          events = tracer.collect();  // the probes stay out of the program trace
          probe_core(w, system, args.work_dir, rec);
        });
    absorb(traced, seed, false);
    rec.add("traced_samples_per_s", "run", -1, rec.now(), rec.now(),
            clean_samples_per_s(clean_blocks(traced.blocks)));
    probe_stages(w, *task, seed, rec);
    probe_gemm(w, rec);
    serial_baseline(w, *task, seed, rec);
    rec.add("run", "none", -1, t_run, rec.now());
    const fs::path trace_path = args.work_dir / (w.name + ".trace.json");
    if (!write_trace(trace_path, events, rec.spans())) {
      std::fprintf(stderr, "cannot write %s\n", trace_path.string().c_str());
      return 1;
    }
    std::printf("trace: %s\n", trace_path.string().c_str());
    metrics = fold_trace(trace_path);
    if (w.compression.codec == tensor::Codec::kInt8 && metrics["core.compression_ratio"] < 3.0) {
      errors.push_back("traced run: int8 sync compression ratio below 3x");
    }
    metrics.erase("core.compression_ratio");
    if (w.checkpoints) {
      // The kill -> durable-restore check runs in an episode of its own, with
      // its own trace: the fault path (robust receives, kill queries) stays
      // out of every other per-layer number.
      trace::Tracer fault_tracer;
      const Episode faulty = run_episode(w, *task, seed, w.iters, args.work_dir,
                                         &fault_tracer, nullptr, true);
      absorb(faulty, seed, true);
      const fs::path fault_path = args.work_dir / (w.name + ".faults.trace.json");
      if (!write_trace(fault_path, fault_tracer.collect(), {})) {
        std::fprintf(stderr, "cannot write %s\n", fault_path.string().c_str());
        return 1;
      }
      std::printf("trace: %s\n", fault_path.string().c_str());
      const Metrics f = fold_trace(fault_path);
      for (const char* name : {"fault.kills_fired", "fault.durable_restores",
                               "ckpt.restore_ms_p50", "ckpt.manifest_fallbacks"}) {
        metrics[name] = f.at(name);
      }
      if (metrics["fault.durable_restores"] != metrics["fault.kills_fired"]) {
        errors.push_back("kill episode: a fired kill ended in a broadcast fallback");
      }
    }
    for (const auto& [name, value] : metrics) {
      std::fprintf(stderr, "  %-34s %16.6f %s\n", name.c_str(), value,
                   per_layer_unit(name));
    }
  }
  for (const auto& e : errors) std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  const bool correct = errors.empty();
  print_result(correct, attempted, failed, metrics, [&](const std::string& name) {
    for (const auto& def : kEndToEnd) {
      if (name == def.name) return def.unit;
    }
    return per_layer_unit(name);
  });
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Args args;
    if (!parse_args(argc, argv, &args) ||
        (args.workload.empty() && args.fold.empty())) {
      std::fprintf(stderr,
                   "usage: trainbench --workload {bert_compute|mlp_overhead|"
                   "lstm_ckpt} --seed N --seconds S --trace {0|1} "
                   "[--work-dir DIR] [--source-id ID]\n"
                   "       trainbench --fold TRACE.json\n");
      return 2;
    }
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trainbench: %s\n", e.what());
    return 1;
  }
}
