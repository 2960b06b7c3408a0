//===- support/FaultInjector.cpp - Deterministic fault injection ----------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//

#include "support/FaultInjector.h"

#include "observe/PassStats.h"

#include <atomic>
#include <cstdlib>
#include <deque>
#include <mutex>

using namespace pluto;

namespace {

struct SiteRule {
  std::string Site;
  uint64_t FailOnHit = 1; ///< 1-based hit index to fail; 0 = every hit.
  uint64_t Hits = 0;
};

struct FaultConfig {
  std::mutex Mu;
  std::vector<SiteRule> Rules;
};

// Armed-or-not is the only thing the hot path reads. A site may still be
// reading a config that a concurrent re-arm or disarm retired, so no
// config is ever freed: every one stays reachable from AllConfigs (a
// handful of bytes per arming in a test-only facility, and not a leak).
std::atomic<FaultConfig *> GConfig{nullptr};
std::mutex AllConfigsMu;
auto *AllConfigs = new std::deque<FaultConfig>; // never relocates entries

bool parseSpec(const std::string &Spec, std::vector<SiteRule> &Out) {
  size_t Pos = 0;
  while (Pos < Spec.size()) {
    size_t End = Spec.find(',', Pos);
    if (End == std::string::npos)
      End = Spec.size();
    std::string Part = Spec.substr(Pos, End - Pos);
    Pos = End + 1;
    if (Part.empty())
      continue;
    SiteRule R;
    size_t Colon = Part.find(':');
    if (Colon == std::string::npos) {
      R.Site = Part;
    } else {
      R.Site = Part.substr(0, Colon);
      std::string N = Part.substr(Colon + 1);
      if (R.Site.empty() || N.empty())
        return false;
      if (N == "*") {
        R.FailOnHit = 0;
      } else {
        uint64_t V = 0;
        for (char C : N) {
          if (C < '0' || C > '9')
            return false;
          V = V * 10 + static_cast<uint64_t>(C - '0');
        }
        if (V == 0)
          return false;
        R.FailOnHit = V;
      }
    }
    if (R.Site.empty())
      return false;
    Out.push_back(std::move(R));
  }
  return true;
}

} // namespace

bool FaultInjector::arm(const std::string &Spec) {
  std::vector<SiteRule> Rules;
  if (!parseSpec(Spec, Rules))
    return false;
  if (Rules.empty()) {
    disarm();
    return true;
  }
  FaultConfig *C;
  {
    std::lock_guard<std::mutex> Lock(AllConfigsMu);
    C = &AllConfigs->emplace_back();
  }
  C->Rules = std::move(Rules);
  GConfig.store(C, std::memory_order_release);
  return true;
}

void FaultInjector::armFromEnv() {
  const char *Spec = std::getenv("PLUTOPP_FAULT");
  if (Spec && *Spec)
    arm(Spec);
}

void FaultInjector::disarm() {
  GConfig.store(nullptr, std::memory_order_release);
}

bool FaultInjector::armed() {
  return GConfig.load(std::memory_order_relaxed) != nullptr;
}

bool FaultInjector::shouldFail(const char *Site) {
  FaultConfig *C = GConfig.load(std::memory_order_acquire);
  if (!C)
    return false;
  std::lock_guard<std::mutex> Lock(C->Mu);
  for (SiteRule &R : C->Rules) {
    if (R.Site != Site)
      continue;
    ++R.Hits;
    bool Fail = R.FailOnHit == 0 || R.Hits == R.FailOnHit;
    if (Fail)
      count(Counter::FaultsInjected);
    return Fail;
  }
  return false;
}

uint64_t FaultInjector::hits(const char *Site) {
  FaultConfig *C = GConfig.load(std::memory_order_acquire);
  if (!C)
    return 0;
  std::lock_guard<std::mutex> Lock(C->Mu);
  for (const SiteRule &R : C->Rules)
    if (R.Site == Site)
      return R.Hits;
  return 0;
}

std::vector<std::pair<std::string, uint64_t>> FaultInjector::allHits() {
  std::vector<std::pair<std::string, uint64_t>> Out;
  FaultConfig *C = GConfig.load(std::memory_order_acquire);
  if (!C)
    return Out;
  std::lock_guard<std::mutex> Lock(C->Mu);
  for (const SiteRule &R : C->Rules)
    Out.emplace_back(R.Site, R.Hits);
  return Out;
}
