#pragma once

/// \file avgpipe.hpp
/// AvgPipe: elastic-averaging pipelined training (the paper's system).
///
/// One engine: N parallel pipelines, each a threaded
/// `runtime::PipelineRuntime` over its own model replica, plus an
/// asynchronous reference-model process fed through a message queue (paper
/// Figure 6). One `train_iteration` consumes N batches.
///
/// The statistical-efficiency experiments, where only the update rule
/// matters, use the same class in its one-stage serial configuration:
/// `boundaries = {}`, `micro_batches = 1` and sync mode. Each replica then
/// trains its whole batch in one step, exactly like plain data-parallel SGD
/// per replica, and every sync policy runs its full semantics (XPipe
/// included). `AvgPipe` implements `runtime::TrainerBase`, so it plugs into
/// the same epoch loops as the baseline trainers.

#include <memory>
#include <optional>
#include <thread>

#include "ckpt/state.hpp"
#include "common/annotations.hpp"
#include "common/queue.hpp"
#include "common/rng.hpp"
#include "core/elastic.hpp"
#include "core/sync_compression.hpp"
#include "core/sync_policy.hpp"
#include "runtime/pipeline_runtime.hpp"
#include "runtime/semantics.hpp"

namespace avgpipe::core {

struct AvgPipeConfig {
  std::size_t num_pipelines = 2;  ///< N
  std::size_t micro_batches = 4;  ///< M
  double alpha = 0.0;             ///< 0 -> 1/N (paper default)
  /// Stage boundaries for pipeline partitioning (empty = single stage).
  std::vector<std::size_t> boundaries;
  schedule::Kind kind = schedule::Kind::kAdvanceForward;
  std::size_t advance_num = 0;  ///< 0 -> K-1
  /// Asynchronous elastic sync (paper §3.2's message-queue design taken off
  /// the critical path). In every mode each replica's elastic pull/push runs
  /// on that replica's persistent worker thread against the latest
  /// *published* reference snapshot; this flag only sets how many reference
  /// applies the driver lets trail behind training. Off (synchronous mode),
  /// the driver waits for every apply, which is `sync_lag = 0`. On, it
  /// blocks only once more than `sync_lag` applies are in flight, so
  /// async_sync with sync_lag = 0 is bit-identical to synchronous mode and
  /// sync_lag >= 1 trades bounded staleness (replicas may pull against a
  /// reference up to sync_lag applies old) for overlap of the reference
  /// process with the next iteration's training. With sync_lag >= 1 a pull
  /// reads whichever snapshot is published when it runs, so the loss
  /// trajectory depends on thread timing: two runs of one seed can differ
  /// (trainbench's mlp_overhead loss digest does).
  bool async_sync = false;
  std::size_t sync_lag = 1;  ///< max reference applies in flight (async)
  /// Optional tracer (non-owning, must outlive the AvgPipe): every stage of
  /// every replica records wall-clock spans tagged with its
  /// pipeline index, each replica worker records its elastic pulls (❷–❸),
  /// and the reference process records apply spans plus a staleness counter
  /// (how many local updates were accumulated but not yet applied, ❹–❺).
  trace::Tracer* tracer = nullptr;
  /// Optional fault plan (non-owning, must outlive the AvgPipe; defaults to
  /// fault::env_plan()). Stragglers/drops are forwarded to every replica
  /// runtime; the driver itself consumes the step-windowed crash records
  /// (crash_at_step / rejoin_at_step).
  const fault::FaultPlan* faults = nullptr;
  /// The model-coupling rule (sync_policy.hpp). Defaults to the paper's
  /// elastic averaging; BSP/BMUF additionally reset replicas from the
  /// broadcast at round start, XPipe wires weight prediction into every
  /// replica runtime. `alpha` above only affects the elastic-family policies.
  SyncPolicyConfig sync;
  /// Optional durable checkpoint directory (non-owning, must outlive the
  /// AvgPipe). Enables save_checkpoint / restore_latest_checkpoint and — with
  /// `restore_on_failure` — the failure-escalation path.
  ckpt::CheckpointDir* checkpoints = nullptr;
  /// Escalate a pipeline failure (worker exception, including the runtime's
  /// peer-unresponsive deadline) beyond the elastic detach: immediately
  /// restore the failed pipeline's durable state from the newest loadable
  /// checkpoint and rejoin it. When no checkpoint is loadable the pipeline
  /// degrades to the plain broadcast rejoin. Requires `checkpoints`.
  bool restore_on_failure = false;
  /// Lossy compression of the sync transport (sync_compression.hpp): every
  /// replica→reference push and reference→replica broadcast is degraded to
  /// its codec round trip, with per-stream error-feedback residuals.
  /// `nullopt` resolves against AVGPIPE_SYNC_COMPRESS (default off); an
  /// explicit value pins the mode and ignores the environment — parity
  /// tests pin `off`, which leaves today's bit-exact path untouched.
  std::optional<SyncCompression> sync_compression;
};

/// The full threaded system.
class AvgPipe : public runtime::TrainerBase {
 public:
  /// \param factory builds one model replica; called N+1 times (replicas +
  ///        evaluation copy) and synchronised to identical initial weights.
  /// \param make_optimizer builds each stage's local optimizer — any
  ///        optimizer works; the framework is decoupled from it (§3.1).
  AvgPipe(const nn::ModelFactory& factory,
          const runtime::OptimizerFactory& make_optimizer,
          AvgPipeConfig config);
  ~AvgPipe();

  AvgPipe(const AvgPipe&) = delete;
  AvgPipe& operator=(const AvgPipe&) = delete;

  /// Train one iteration: batch i goes to pipeline i. Returns the mean loss
  /// over the pipelines that completed their batch.
  ///
  /// Graceful degradation: a pipeline whose runtime fails mid-batch (or that
  /// the fault plan crashes at this step) is detached — its batch is lost,
  /// α rebalances to 1/N_alive, and the reference keeps averaging over the
  /// survivors. Dead pipelines' batches in `batches` are ignored. A pipeline
  /// restored within the call (`restore_on_failure`) did not finish its
  /// batch, so its loss is not in the mean. Throws when no pipeline
  /// completed its batch; no round is applied then, and pipelines restored
  /// by the escalation train normally on the next call.
  double train_iteration(const std::vector<data::Batch>& batches) override;
  /// One-pipeline systems only: train_iteration({batch}).
  double train_batch(const data::Batch& batch) override;
  std::size_t batches_per_iteration() const override {
    return replicas_.size();
  }
  std::string name() const override {
    return "AvgPipe[" + policy_->name() + "]";
  }

  std::size_t num_pipelines() const { return replicas_.size(); }
  double alpha() const { return alpha_; }
  const SyncPolicy& policy() const { return *policy_; }
  /// The resolved sync-transport compression (config or env).
  const SyncCompression& sync_compression() const { return compression_; }

  // -- elastic membership (fault tolerance) ----------------------------------

  /// Pipelines currently participating in the average.
  std::size_t alive_pipelines() const;
  bool pipeline_alive(std::size_t i) const;
  /// Liveness/heartbeat record of pipeline `i`.
  const fault::PipelineHealth& health(std::size_t i) const;

  /// Detach pipeline `i` from the average: its runtime is torn down (worker
  /// threads joined, like a process death), α rebalances to 1/N_alive and
  /// the reference model continues as the mean of the survivors. No-op if
  /// already detached.
  void detach_pipeline(std::size_t i, const std::string& reason);

  /// Bring a detached pipeline back: its replica re-initialises from the
  /// current reference weights (the paper's pull mechanism as recovery), a
  /// fresh runtime (fresh optimizer state) is built, and α rebalances back.
  /// No-op if alive.
  void rejoin_pipeline(std::size_t i);

  /// Copy the reference weights into the evaluation model and return it.
  /// In async mode this first synchronize()s so the evaluation weights
  /// include every completed iteration.
  nn::Sequential& eval_model() override;

  /// Current reference parameters (snapshot; synchronize()d first).
  ParamSet reference_snapshot();

  /// The policy's broadcast reconstruction of state (synchronize()d first):
  /// what a replica would restore from right now — for BMUF the Nesterov
  /// restart point W + η·Δ, for everything else the reference weights.
  ParamSet broadcast_snapshot();

  /// Snapshot of replica `i`'s live weights. Driver thread only, between
  /// iterations (workers are parked then); the replica must be alive.
  ParamSet replica_snapshot(std::size_t i) const;

  /// Drain all in-flight reference applies (no-op in sync mode, where the
  /// driver never runs ahead). Driver thread only.
  void synchronize();

  // -- durable checkpoint/restore (src/ckpt) ---------------------------------

  /// Register a named RNG stream (non-owning, must outlive the AvgPipe) to
  /// ride along in checkpoints: capture_state snapshots it, restore_state
  /// restores it by name. Typical use: the data-order stream, so a resumed
  /// run draws exactly the batches the uninterrupted run would have.
  void register_rng(const std::string& name, Rng* rng);

  /// Full durable state at the current round boundary. synchronize()s first
  /// — the apply drain doubles as the capture barrier (workers parked,
  /// driver owns every tensor) — then snapshots reference / policy state /
  /// broadcast under the reference mutex plus every pipeline's parameters
  /// and per-stage runtime state. Driver thread only, between iterations.
  ckpt::TrainState capture_state();

  /// Restore a state produced by `capture_state` on an identically
  /// configured system (same pipeline count and policy kind — checked).
  /// Pipelines marked dead in `state` are detached; live ones get weights,
  /// optimizer slots and predictor state back bit-exactly. Driver thread
  /// only, between iterations.
  void restore_state(const ckpt::TrainState& state);

  /// capture_state + durable commit through config.checkpoints (which must
  /// be set), recorded as a kCheckpoint span. The manifest is monotonic in
  /// step, so at least one train_iteration must separate two saves.
  ckpt::ManifestEntry save_checkpoint();

  /// Load the newest durable checkpoint that decodes cleanly — falling back
  /// over corrupted entries — and restore_state it (kRestore span carries
  /// the fallback count). `ok == false` means nothing was loadable; the live
  /// state is left untouched.
  ckpt::CheckpointDir::LoadResult restore_latest_checkpoint();

 private:
  /// One iteration's work order for a replica worker thread.
  struct ReplicaJob {
    const data::Batch* batch = nullptr;
    double alpha = 0;
    bool do_begin = false;  ///< BSP/BMUF: reset from the broadcast pre-train
  };
  struct ReplicaResult {
    bool ok = false;
    double loss = 0;
    std::string error;
    ParamSet update;  ///< the policy's local update, when `ok`
  };
  struct Replica {
    nn::Sequential model;
    std::unique_ptr<runtime::PipelineRuntime> runtime;
    // Persistent worker thread (replaces a thread spawn per iteration):
    // consumes ReplicaJobs, trains, then runs the policy's local sync. It is
    // also the pipeline's stage 0 (train_batch runs stage 0 on its caller),
    // so the pipeline has K-1 stage threads of its own.
    std::unique_ptr<SpscChannel<ReplicaJob>> jobs;
    std::unique_ptr<SpscChannel<ReplicaResult>> results;
    std::thread thread;
    trace::TraceBuffer* trace_buf = nullptr;  ///< worker-side elastic spans
    // Compressor of this replica's push stream (update ParamSets), with its
    // EF residuals. Owned by the worker thread; the driver touches it only
    // while the worker is parked or stopped (capture, restore, rejoin).
    SyncCodec push_codec;
  };

  void reference_loop();
  /// Replica worker main. Runs concurrently with the reference process and
  /// must never hold the reference capability — every reference interaction
  /// goes through the published snapshot handle or the message queues.
  void replica_loop(std::size_t i) EXCLUDES(reference_capability());
  void start_worker(std::size_t i);
  void stop_worker(std::size_t i);
  /// The most recent reference snapshot published by the reference process.
  std::shared_ptr<const ParamSet> snapshot_handle();
  /// Block until at most `limit` reference applies remain in flight.
  void wait_applies(std::size_t limit);
  std::unique_ptr<runtime::PipelineRuntime> make_runtime(std::size_t i);
  void rebalance_alpha();
  /// Crash/rejoin marker plus an alive-pipelines counter sample.
  void record_membership_event(trace::EventKind kind, std::size_t pipeline);
  /// kSyncBytes/kSyncBytesRaw counter pair from one codec transmission.
  void record_sync_bytes(trace::TraceBuffer* buf, std::size_t pipeline,
                         const SyncCodec::Stats& stats);
  /// Apply the plan's crash_at_step / rejoin_at_step records due at
  /// `iteration_`.
  void apply_scheduled_faults();
  /// Bring pipeline `i` to the checkpointed per-pipeline state `p` (weights,
  /// optimizer slots, predictors, and — when `codec_match` — the push
  /// codec's EF residuals); doubles as a rejoin when `i` is detached.
  void restore_pipeline(std::size_t i, const ckpt::PipelineState& p,
                        bool codec_match);
  /// Failure escalation: re-attach just-detached pipeline `i` with its
  /// durable state from the newest loadable checkpoint (kRestore span);
  /// falls back to the plain broadcast rejoin when none is loadable.
  /// Returns whether durable state was used.
  bool restore_pipeline_from_checkpoint(std::size_t i);

  AvgPipeConfig config_;
  std::unique_ptr<SyncPolicy> policy_;
  SyncCompression compression_;  ///< resolved config/env compression mode
  // Thread-placement plan shared by every replica runtime: replica i's K
  // stages occupy pin slots [i*K, (i+1)*K) — slot i*K is its replica worker,
  // which runs stage 0 — and the reference thread takes the last of the
  // N*K + 1 slots; pinned only under AVGPIPE_PIN_THREADS. stage_workers_ is
  // each stage's share of the global kernel pool (AVGPIPE_STAGE_THREADS,
  // defaulting to a fair split over all N*K kernel-issuing threads: the N
  // replica workers running stage 0 plus the N*(K-1) stage threads).
  std::size_t stage_workers_ = 1;
  std::size_t pin_total_slots_ = 0;
  const fault::FaultPlan* faults_ = nullptr;
  double alpha_ = 0.5;
  long iteration_ = 0;  ///< driver step index (train_iteration count)
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::vector<fault::PipelineHealth> health_;  ///< one per pipeline
  runtime::OptimizerFactory make_optimizer_;   ///< kept for rejoins
  nn::Sequential eval_model_;
  /// Named external RNG streams captured/restored with checkpoints.
  std::vector<std::pair<std::string, Rng*>> rngs_;

  // Tracing buffers: driver-thread events (membership, checkpoint, sync-lag
  // counter) and reference-process spans; both created from config_.tracer.
  trace::TraceBuffer* driver_trace_ = nullptr;
  trace::TraceBuffer* reference_trace_ = nullptr;

  // Reference process: one message per iteration carries the whole round of
  // local updates (steps ❹–❺) — batching the round into a single message
  // keeps membership bookkeeping with the driver and lets rounds queue up
  // behind each other under sync_lag without an expected-count handshake.
  // After every apply the reference thread publishes a fresh snapshot
  // (latest_snapshot_) that replica pulls read without blocking on the
  // apply itself.
  std::unique_ptr<ReferenceModel> reference_ PT_GUARDED_BY(reference_mutex_);
  /// Compressor of the broadcast stream. Reference-thread state: shares
  /// reference_'s serialisation (reference_mutex_ plus the apply drain).
  SyncCodec broadcast_codec_ GUARDED_BY(reference_mutex_);
  common::Mutex reference_mutex_;
  std::shared_ptr<const ParamSet> latest_snapshot_ GUARDED_BY(reference_mutex_);
  Channel<std::vector<ParamSet>> update_queue_{64};
  Channel<int> applied_queue_{64};
  std::size_t outstanding_applies_ = 0;  ///< driver-side in-flight rounds
  std::thread reference_thread_;
};

}  // namespace avgpipe::core
