#include "pipeline/block_pipeline.h"

#include <chrono>
#include <memory>
#include <utility>

#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pipeline/bounded_queue.h"

namespace aligraph {
namespace pipeline {

namespace {

/// One batch in flight between stages. unique_ptr'd through the queues so a
/// handoff moves a pointer, not the block's CSRs and feature matrix.
struct Batch {
  size_t index = 0;
  std::any user;
  block::SampledBlock block;
  nn::Matrix features;
  /// The batch's trace identity, minted on the sample lane; every stage
  /// adopts it so its span parents under the same "pipeline/batch" root.
  obs::TraceContext trace;
  std::chrono::steady_clock::time_point start;
};

void Charge(obs::Counter* counter, const Timer& timer) {
  if (counter != nullptr) {
    counter->Add(static_cast<uint64_t>(timer.ElapsedMicros()));
  }
}

/// Emits the synthetic per-batch root span: parentless, covering the batch
/// from first touch on the sample lane to now. Recorded on the compute
/// thread after its children are already in the rings, with the ids minted
/// at first touch, so timeline assembly sees exactly one root per batch.
void RecordBatchRoot(obs::Tracer* tracer, const Batch& batch) {
  if (tracer == nullptr) return;
  const auto duration_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - batch.start)
          .count();
  tracer->Record("pipeline/batch", /*depth=*/1, batch.trace,
                 /*parent_span_id=*/0, batch.start, duration_ns);
}

}  // namespace

BlockPipeline::BlockPipeline(size_t depth)
    : depth_(depth),
      busy_sample_(obs::DefaultCounter("pipeline.stage_busy_us.sample")),
      busy_gather_(obs::DefaultCounter("pipeline.stage_busy_us.gather")),
      busy_compute_(obs::DefaultCounter("pipeline.stage_busy_us.compute")),
      stall_sample_(obs::DefaultCounter("pipeline.stall_us.sample")),
      stall_gather_(obs::DefaultCounter("pipeline.stall_us.gather")),
      stall_compute_(obs::DefaultCounter("pipeline.stall_us.compute")),
      batches_(obs::DefaultCounter("pipeline.batches")),
      depth_sampled_(obs::DefaultGauge("pipeline.queue_depth.sampled")),
      depth_gathered_(obs::DefaultGauge("pipeline.queue_depth.gathered")),
      sample_lane_(depth > 0 ? std::make_unique<ThreadPool>(1) : nullptr),
      gather_lane_(depth > 0 ? std::make_unique<ThreadPool>(1) : nullptr) {}

void BlockPipeline::RunStages(size_t num_batches, const SampleFn& sample,
                              const GatherFn& gather,
                              const ComputeFn& compute) {
  obs::Tracer* tracer = obs::DefaultTracer();

  // The three stage bodies. Both schedules below run exactly these, so the
  // spans, batch roots and busy counters do not depend on the depth.
  auto sample_stage = [&](size_t b) {
    auto batch = std::make_unique<Batch>();
    batch->index = b;
    // Mint the batch's trace root here, at first touch: all three stage
    // spans adopt this context, so the batch stays one causal tree even
    // when its stages run on three threads.
    const uint64_t root_id = obs::NextSpanId();
    batch->trace = obs::TraceContext{root_id, root_id};
    batch->start = std::chrono::steady_clock::now();
    obs::ScopedTraceContext adopt(batch->trace);
    obs::ScopedSpan span("pipeline/sample");
    Timer busy;
    sample(b, &batch->block, &batch->user);
    Charge(busy_sample_, busy);
    return batch;
  };
  auto gather_stage = [&](Batch& batch) {
    obs::ScopedTraceContext adopt(batch.trace);
    obs::ScopedSpan span("pipeline/gather");
    Timer busy;
    batch.features = gather(batch.block);
    Charge(busy_gather_, busy);
  };
  auto compute_stage = [&](Batch& batch) {
    obs::ScopedTraceContext adopt(batch.trace);
    {
      obs::ScopedSpan span("pipeline/compute");
      Timer busy;
      compute(batch.index, batch.block, batch.features, batch.user);
      Charge(busy_compute_, busy);
    }
    if (batches_ != nullptr) batches_->Add(1);
    RecordBatchRoot(tracer, batch);
  };

  if (depth_ == 0) {
    // Inline schedule: every batch runs sample -> gather -> compute to the
    // end on the caller's thread before the next one starts. No queue, so
    // no stall is ever charged.
    for (size_t b = 0; b < num_batches; ++b) {
      const std::unique_ptr<Batch> batch = sample_stage(b);
      gather_stage(*batch);
      compute_stage(*batch);
    }
    return;
  }

  // sample -> gather and gather -> compute handoffs. Producer-side waits
  // (queue full) are charged to the producing stage, consumer-side waits
  // (queue empty) to the consuming stage.
  BoundedQueue<std::unique_ptr<Batch>> sampled(depth_, depth_sampled_,
                                               stall_sample_, stall_gather_);
  BoundedQueue<std::unique_ptr<Batch>> gathered(depth_, depth_gathered_,
                                                stall_gather_, stall_compute_);

  // Stage 1 — sample lane. One long-lived task per call keeps batch order
  // trivial and avoids a Submit per batch: the loop itself is the stage.
  // Only a queue's producer closes it, so no Push here is ever rejected.
  sample_lane_->Submit([&] {
    for (size_t b = 0; b < num_batches; ++b) sampled.Push(sample_stage(b));
    sampled.Close();
  });

  // Stage 2 — gather lane.
  gather_lane_->Submit([&] {
    std::unique_ptr<Batch> batch;
    while (sampled.Pop(&batch)) {
      gather_stage(*batch);
      gathered.Push(std::move(batch));
    }
    gathered.Close();
  });

  // Stage 3 — compute, on the caller's thread, in batch order.
  std::unique_ptr<Batch> batch;
  while (gathered.Pop(&batch)) compute_stage(*batch);
  sample_lane_->Wait();
  gather_lane_->Wait();
}

}  // namespace pipeline
}  // namespace aligraph
