//===- runtime/Jit.cpp - Compile-and-run for generated C ------------------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//

#include "runtime/Jit.h"

#include "observe/PassStats.h"
#include "support/FaultInjector.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dlfcn.h>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sys/stat.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#ifdef _OPENMP
#include <omp.h>
#endif

using namespace pluto;

using EntryFn = void (*)(double **, const long long *, const double *);

namespace {

/// Sweeps plutopp-* work directories a crashed earlier process left behind
/// in the temp base. Only directories old enough that no live process can
/// still be using them are removed (mkdtemp names are unique, so a live
/// compile's directory is always younger). Runs once per process, on the
/// first JIT compile.
void sweepStaleWorkDirs(const std::string &TmpBase) {
  namespace fs = std::filesystem;
  constexpr auto StaleAge = std::chrono::hours(1);
  std::error_code Ec;
  uint64_t Swept = 0;
  for (const auto &Entry : fs::directory_iterator(TmpBase, Ec)) {
    if (Ec)
      break;
    if (!Entry.is_directory(Ec) || Ec)
      continue;
    std::string Name = Entry.path().filename().string();
    if (Name.rfind("plutopp-", 0) != 0 || Name.size() != strlen("plutopp-") + 6)
      continue;
    auto Mtime = fs::last_write_time(Entry.path(), Ec);
    if (Ec)
      continue;
    if (fs::file_time_type::clock::now() - Mtime < StaleAge)
      continue;
    fs::remove_all(Entry.path(), Ec);
    if (!Ec)
      ++Swept;
  }
  if (Swept)
    count(Counter::JitStaleDirsSwept, Swept);
}

/// One cc invocation, wrapped so the caller can distinguish "the compiler
/// ran and rejected the code" (a real diagnostic, never retried) from a
/// transient failure of the invocation itself (fork/exec failure, the
/// compiler killed by a signal - an OOM-killed cc, say), which is worth
/// one retry.
struct CcResult {
  int RawStatus = 0;
  bool Ran = false;      ///< The command executed and exited on its own.
  bool Transient = false; ///< Invocation-level failure; retry once.
};

CcResult runCompiler(const std::string &Cmd) {
  CcResult R;
  if (FaultInjector::shouldFail("jit.compile")) {
    R.RawStatus = -1;
    R.Transient = true;
    return R;
  }
  R.RawStatus = system(Cmd.c_str());
  if (R.RawStatus == -1 ||
      (WIFEXITED(R.RawStatus) && WEXITSTATUS(R.RawStatus) == 127))
    R.Transient = true; // fork/exec/shell failure, not a compile diagnostic.
  else if (WIFSIGNALED(R.RawStatus))
    R.Transient = true; // cc killed (OOM killer, stray signal).
  else
    R.Ran = true;
  return R;
}

} // namespace

CompiledKernel::CompiledKernel(CompiledKernel &&O) noexcept
    : Handle(O.Handle), Fn(O.Fn), Dir(std::move(O.Dir)) {
  O.Handle = nullptr;
  O.Fn = nullptr;
  O.Dir.clear();
}

CompiledKernel &CompiledKernel::operator=(CompiledKernel &&O) noexcept {
  if (this != &O) {
    reset();
    Handle = O.Handle;
    Fn = O.Fn;
    Dir = std::move(O.Dir);
    O.Handle = nullptr;
    O.Fn = nullptr;
    O.Dir.clear();
  }
  return *this;
}

CompiledKernel::~CompiledKernel() { reset(); }

void CompiledKernel::reset() {
  if (Handle)
    dlclose(Handle);
  Handle = nullptr;
  Fn = nullptr;
  if (!Dir.empty()) {
    // Best-effort cleanup; leaking a temp dir is not an error.
    std::error_code EC;
    std::filesystem::remove_all(Dir, EC);
    Dir.clear();
  }
}

bool CompiledKernel::compilerAvailable() {
  static int Avail = -1;
  if (Avail < 0)
    Avail = system("cc --version > /dev/null 2>&1") == 0 ? 1 : 0;
  return Avail == 1;
}

Result<CompiledKernel> CompiledKernel::compile(
    const std::string &Source, const std::string &FuncName,
    const std::vector<std::string> &ExtraFlags) {
  if (!compilerAvailable())
    return Err(std::string("no C compiler ('cc') found on this host"));

  // Honor TMPDIR (the POSIX convention) with /tmp as the fallback.
  const char *TmpBase = std::getenv("TMPDIR");
  if (!TmpBase || !*TmpBase)
    TmpBase = "/tmp";

  // First compile of this process: clean up work directories a crashed
  // predecessor left in the same temp base.
  static std::once_flag SweepOnce;
  std::call_once(SweepOnce, [&] { sweepStaleWorkDirs(TmpBase); });

  std::string Template = std::string(TmpBase);
  if (Template.back() == '/')
    Template.pop_back();
  Template += "/plutopp-XXXXXX";
  char *DirC = mkdtemp(Template.data());
  if (!DirC)
    return Err("mkdtemp failed in '" + std::string(TmpBase) + "'");
  CompiledKernel K;
  K.Dir = DirC;

  std::string SrcPath = K.Dir + "/kernel.c";
  std::string SoPath = K.Dir + "/kernel.so";
  std::string LogPath = K.Dir + "/cc.log";
  {
    std::ofstream Out(SrcPath);
    Out << Source;
  }
  std::string Cmd = "cc -O3 -march=native -funroll-loops -fopenmp -shared "
                    "-fPIC -std=c99 -o '" +
                    SoPath + "' '" + SrcPath + "' -lm";
  for (const std::string &F : ExtraFlags)
    Cmd += " " + F;
  Cmd += " > '" + LogPath + "' 2>&1";
  CcResult RC = runCompiler(Cmd);
  if (RC.Transient) {
    // The invocation itself failed (not a compiler diagnostic): retry once
    // after a short backoff before giving up.
    count(Counter::JitRetries);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    RC = runCompiler(Cmd);
  }
  if (RC.RawStatus != 0) {
    // Surface everything needed to debug the failure without rerunning by
    // hand: the compiler's captured stderr/stdout, the exit status and the
    // exact command line.
    std::ifstream Log(LogPath);
    std::string Msg((std::istreambuf_iterator<char>(Log)),
                    std::istreambuf_iterator<char>());
    while (!Msg.empty() && (Msg.back() == '\n' || Msg.back() == '\r'))
      Msg.pop_back();
    if (Msg.empty())
      Msg = RC.Ran ? "(no compiler output captured)"
                   : "(compiler invocation failed before producing output)";
    return Err("compilation of generated code failed (exit status " +
               std::to_string(RC.RawStatus) + "):\n" + Msg +
               "\ncommand: " + Cmd);
  }
  K.Handle = dlopen(SoPath.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!K.Handle) {
    // dlerror() may legitimately return null (e.g. cleared by a racing
    // dlopen); never construct a std::string from it unchecked.
    const char *DlMsg = dlerror();
    return Err("dlopen failed: " +
               std::string(DlMsg ? DlMsg : "(no dlerror message)"));
  }
  std::string Entry = FuncName + "_entry";
  K.Fn = dlsym(K.Handle, Entry.c_str());
  if (!K.Fn)
    return Err("dlsym failed for '" + Entry + "'");
  return K;
}

void CompiledKernel::call(const std::vector<double *> &Arrays,
                          const std::vector<long long> &Params,
                          const std::vector<double> &Consts) const {
  assert(Fn && "calling an invalid kernel");
  std::vector<double *> A = Arrays; // Entry takes non-const double**.
  reinterpret_cast<EntryFn>(Fn)(A.data(), Params.data(), Consts.data());
}

Measurement pluto::measureRun(const std::function<void()> &Run,
                              const std::function<void()> &Reset,
                              const MeasureOptions &MO) {
  // Pin the thread count before anything executes: the JIT-compiled
  // kernel's OpenMP runtime lives in this process, so omp_set_num_threads
  // here governs its parallel regions. Threads == 0 deliberately inherits
  // the environment.
  if (MO.Threads > 0) {
#ifdef _OPENMP
    omp_set_num_threads(static_cast<int>(MO.Threads));
#else
    setenv("OMP_NUM_THREADS", std::to_string(MO.Threads).c_str(), 1);
#endif
  }

  auto Now = MO.Now ? MO.Now : std::function<double()>([] {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  });

  for (unsigned I = 0; I < MO.Warmup; ++I) {
    if (Reset)
      Reset();
    Run();
  }

  Measurement M;
  unsigned Reps = MO.Reps ? MO.Reps : 1;
  M.RepSeconds.reserve(Reps);
  for (unsigned I = 0; I < Reps; ++I) {
    if (Reset)
      Reset();
    double T0 = Now();
    Run();
    M.RepSeconds.push_back(Now() - T0);
  }

  // Median of K: the middle element of the sorted samples (the mean of the
  // middle pair for even K), so one perturbed rep cannot move the result.
  std::vector<double> Sorted = M.RepSeconds;
  std::sort(Sorted.begin(), Sorted.end());
  size_t N = Sorted.size();
  M.MedianSeconds = (N % 2) ? Sorted[N / 2]
                            : 0.5 * (Sorted[N / 2 - 1] + Sorted[N / 2]);
  return M;
}

Measurement pluto::measureKernel(const CompiledKernel &K,
                                 const std::vector<double *> &Arrays,
                                 const std::vector<long long> &Params,
                                 const std::vector<double> &Consts,
                                 const std::function<void()> &Reset,
                                 const MeasureOptions &MO) {
  return measureRun([&] { K.call(Arrays, Params, Consts); }, Reset, MO);
}
