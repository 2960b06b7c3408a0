//===- service/Batch.cpp - Concurrent batch compilation -------------------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//

#include "service/Batch.h"

#include <atomic>
#include <memory>
#include <thread>

using namespace pluto;

std::vector<CompileResponse>
pluto::compileRequests(const std::vector<CompileRequest> &Reqs,
                       const BatchOptions &BO) {
  std::shared_ptr<ResultCache> Cache = BO.Cache;
  if (!Cache)
    Cache = std::make_shared<ResultCache>();

  std::vector<CompileResponse> Results(Reqs.size());

  unsigned Workers = BO.Jobs ? BO.Jobs : std::thread::hardware_concurrency();
  if (Workers == 0)
    Workers = 1;
  if (Workers > Reqs.size())
    Workers = static_cast<unsigned>(Reqs.size());

  std::atomic<size_t> Next{0};
  auto Work = [&] {
    for (size_t I = Next.fetch_add(1, std::memory_order_relaxed);
         I < Reqs.size(); I = Next.fetch_add(1, std::memory_order_relaxed)) {
      const CompileRequest &Req = Reqs[I];
      // One session per request: compileRequest() resets the session
      // anyway, and the shared cache is what dedups across requests.
      auto P = Pipeline::create(Req.Opts);
      if (!P) {
        CompileResponse &Resp = Results[I];
        Resp.Status = StatusCode::BadRequest;
        Resp.Name = Req.Name;
        Resp.Error = P.error();
        continue;
      }
      P->attachCache(Cache);
      Results[I] = P->compileRequest(Req);
    }
  };

  if (Workers <= 1) {
    Work();
  } else {
    std::vector<std::thread> Pool;
    Pool.reserve(Workers);
    for (unsigned W = 0; W < Workers; ++W)
      Pool.emplace_back(Work);
    for (std::thread &T : Pool)
      T.join();
  }
  return Results;
}
