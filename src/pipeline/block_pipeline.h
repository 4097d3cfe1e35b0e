/// \file block_pipeline.h
/// \brief 3-stage batch pipeline over the subgraph-block execution path:
/// hop sampling for batch N+1 overlaps feature gathering for batch N and
/// block compute for batch N-1.
///
/// Run back to back per batch, SampleBlock -> gather -> forward leaves each
/// stage idle two thirds of the time. BGL (PAPERS.md, arXiv:2112.08541)
/// shows that overlapping graph-data I/O with compute is the dominant lever
/// for end-to-end GNN throughput; this subsystem is that overlap, built
/// from parts the repo already has:
///
///   sample lane (the pipeline's one-thread ThreadPool)
///     batch b: the caller's SampleFn, e.g. roots(b) -> SampleBlock
///        | BoundedQueue "sampled"  (capacity = depth)
///   gather lane (a second one-thread ThreadPool)
///     batch b: the caller's GatherFn, e.g. block::GatherBlockFeatures
///        | BoundedQueue "gathered" (capacity = depth)
///   compute (the CALLER's thread)
///     batch b: forward / backward / apply, in batch order
///
/// RunStages is the one entry point, and the pipeline knows nothing of
/// samplers or feature sources: its owner, the GraphSAGE trainer, holds
/// one pipeline for its lifetime and owns the stage bodies and the state
/// they touch. The two lane threads start with the pipeline and serve every
/// RunStages call, so a traced process gets two lane span rings per
/// trainer, however many calls it makes.
///
/// Each stage is single-threaded and processes batches in submission order,
/// so every stateful participant keeps the exact call sequence of the
/// inline schedule: the sampler's RNG advances batch by batch on the sample
/// lane, a row cache sees gathers in batch order on the gather lane, and
/// model weights update in batch order on the caller thread. That is what
/// makes results BIT-IDENTICAL across depths — the overlap reorders work
/// across *stages*, never within a stage.
///
/// Depth 0 is the degenerate inline schedule: the same three stage bodies
/// (same spans, batch roots and busy counters) run batch after batch on
/// the caller's thread, with no queues, no lane handoff and no threads.
///
/// The bounded queues double-buffer SampledBlocks: at most `depth` batches
/// wait between adjacent stages (2 * depth + 3 alive in the worst case),
/// capping peak memory regardless of how far the sampler could run ahead.
///
/// Tracing: the pipeline mints one TraceContext per batch on the sample
/// lane and re-adopts it in every stage, so "pipeline/sample|gather|
/// compute" spans from three different threads stay one causal tree under
/// a synthetic "pipeline/batch" root; the Chrome trace export then shows
/// adjacent batches' stage spans overlapping in time — the bubbles closing.

#ifndef ALIGRAPH_PIPELINE_BLOCK_PIPELINE_H_
#define ALIGRAPH_PIPELINE_BLOCK_PIPELINE_H_

#include <any>
#include <functional>
#include <memory>

#include "block/sampled_block.h"
#include "common/threadpool.h"
#include "nn/matrix.h"

namespace aligraph {

namespace obs {
class Counter;
class Gauge;
}  // namespace obs

namespace pipeline {

/// \brief Runs batches through sample -> gather -> compute with bounded
/// overlap. Reusable: construct once, RunStages() any number of batch
/// streams, one at a time.
class BlockPipeline {
 public:
  /// Gathers the block's [num_vertices, dim] feature rows; runs on the
  /// GATHER stage, strictly in batch order.
  using GatherFn = std::function<nn::Matrix(const block::SampledBlock&)>;

  /// Consumes the finished batch; runs on the CALLER's thread, strictly in
  /// batch order.
  using ComputeFn = std::function<void(size_t batch,
                                       const block::SampledBlock& blk,
                                       const nn::Matrix& features,
                                       std::any& user)>;

  /// First stage: produces batch b's block on the SAMPLE stage, strictly in
  /// batch order. `user` may be filled with per-batch payload (e.g. the
  /// training pairs drawn alongside the roots) and is handed to the compute
  /// stage with the batch — it rides the stage queues, so no extra locking.
  using SampleFn = std::function<void(size_t batch,
                                      block::SampledBlock* block,
                                      std::any* user)>;

  /// \param depth capacity of each stage queue — how many batches may sit
  /// between two adjacent stages. 0 runs the stages inline on the caller's
  /// thread, one batch at a time, and starts no thread; 1 already overlaps
  /// (classic double buffering per handoff); 2-3 absorbs stage-time
  /// jitter. Peak in-flight batches is bounded by 2 * depth + 3 (one
  /// resident per stage plus the queues).
  explicit BlockPipeline(size_t depth);

  BlockPipeline(const BlockPipeline&) = delete;
  BlockPipeline& operator=(const BlockPipeline&) = delete;

  /// Streams `num_batches` batches through the three stages. Blocks until
  /// every batch has been computed.
  void RunStages(size_t num_batches, const SampleFn& sample,
                 const GatherFn& gather, const ComputeFn& compute);

 private:
  size_t depth_;
  // Handles resolved from the default metrics registry at construction
  // (all null when observability is detached).
  obs::Counter* busy_sample_ = nullptr;
  obs::Counter* busy_gather_ = nullptr;
  obs::Counter* busy_compute_ = nullptr;
  obs::Counter* stall_sample_ = nullptr;
  obs::Counter* stall_gather_ = nullptr;
  obs::Counter* stall_compute_ = nullptr;
  obs::Counter* batches_ = nullptr;
  obs::Gauge* depth_sampled_ = nullptr;
  obs::Gauge* depth_gathered_ = nullptr;
  /// One thread per lane at depth >= 1, null at 0. A stage keeps its
  /// thread, and so its malloc arena, across calls: when one two-thread
  /// pool let the stages swap threads, train_ooc's peak RSS crept up about
  /// 11 MB in a 6 s run on a 4-vCPU VM. Declared last, so the lanes are
  /// joined before any other member goes.
  std::unique_ptr<ThreadPool> sample_lane_;
  std::unique_ptr<ThreadPool> gather_lane_;
};

}  // namespace pipeline
}  // namespace aligraph

#endif  // ALIGRAPH_PIPELINE_BLOCK_PIPELINE_H_
