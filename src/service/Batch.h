//===- service/Batch.h - Concurrent batch compilation -----------*- C++-*-===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// compileRequests(): run many CompileRequests - each carrying its own
/// option set - on a pool of worker threads, each request through its own
/// Pipeline session against one shared ResultCache. Guarantees:
///
///  - deterministic result ordering: Results[i] always corresponds to
///    Reqs[i], whatever the completion order was;
///  - single-flight dedup: jobs whose (canonical source, options,
///    toolchain version) keys collide compile once - duplicates either
///    block on the in-flight leader (ResultCache::getOrCompute) or hit the
///    cache, so a batch of N identical kernels costs one compile;
///  - failure isolation: one job's failure is confined to its own
///    response slot, classified by the StatusCode taxonomy (an invalid
///    per-request option set is that request's bad-request response).
///
/// When no cache is supplied, the batch still creates a private in-memory
/// cache so intra-batch dedup holds.
///
//===----------------------------------------------------------------------===//

#ifndef PLUTOPP_SERVICE_BATCH_H
#define PLUTOPP_SERVICE_BATCH_H

#include "service/Pipeline.h"

#include <vector>

namespace pluto {

struct BatchOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency(). The pool is
  /// never larger than the job count.
  unsigned Jobs = 1;
  /// Shared result cache; null = private in-memory cache for this batch.
  std::shared_ptr<ResultCache> Cache;
};

/// Compiles every request on the worker pool; Responses[i] answers
/// Reqs[i]. Never fails as a whole: per-request problems (including an
/// invalid option set) come back as that request's response status.
std::vector<CompileResponse>
compileRequests(const std::vector<CompileRequest> &Reqs,
                const BatchOptions &BO = BatchOptions());

} // namespace pluto

#endif // PLUTOPP_SERVICE_BATCH_H
