//===- perfbench/src/Bench.cpp - Batch workloads and shared metrics -------===//
//
// Part of the dsm-dist-repro project.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cmath>
#include <cstdlib>
#include <fcntl.h>
#include <fstream>
#include <malloc.h>
#include <set>
#include <unistd.h>

#include "Stats.h"
#include "exec/bytecode/Compiler.h"
#include "ir/Ir.h"
#include "lang/Parser.h"
#include "lang/Sema.h"
#include "link/Linker.h"
#include "support/StringUtils.h"
#include "xform/Xform.h"

using namespace dsm;

namespace perfbench {

const std::vector<MetricSpec> EndToEndMetrics = {
    {"run_s", "s"},        {"setup_s", "s"}, {"peak_rss_mb", "MB"},
    {"p50_ms", "ms"},      {"p99_ms", "ms"}, {"ok_per_s", "1/s"},
};

const std::vector<MetricSpec> PerLayerMetrics = {
    {"lang.parse_s", "s"},
    {"lang.sema_s", "s"},
    {"link.link_s", "s"},
    {"link.finalize_s", "s"},
    {"link.clones", "count"},
    {"xform.transform_s", "s"},
    {"ir.verify_s", "s"},
    {"bc.compile_s", "s"},
    {"bc.insns", "count"},
    {"bc.loops_fused", "count"},
    {"bc.loops_bailed", "count"},
    {"bc.units_fallback", "count"},
    {"exec.run_s", "s"},
    {"exec.functional_s", "s"},
    {"exec.memsim_s", "s"},
    {"exec.ns_per_access", "ns"},
    {"exec.interp_run_s", "s"},
    {"exec.vm_speedup", "ratio"},
    {"exec.serial_run_s", "s"},
    {"exec.thread_speedup", "ratio"},
    {"exec.epochs", "count"},
    {"exec.threaded_epochs", "count"},
    {"numa.access_ns", "ns"},
    {"numa.accesses", "count"},
    {"numa.l1_miss_frac", "ratio"},
    {"numa.l2_miss_frac", "ratio"},
    {"numa.tlb_misses", "count"},
    {"numa.remote_frac", "ratio"},
    {"numa.invalidations", "count"},
    {"obs.collect_frac", "ratio"},
    {"session.cache_hit_frac", "ratio"},
    {"session.compile_s", "s"},
    {"serve.queue_ms", "ms"},
    {"serve.worker_run_ms", "ms"},
    {"serve.overhead_ms", "ms"},
    {"serve.shed_frac", "ratio"},
    {"serve.retries", "count"},
    {"serve.queue_peak", "count"},
    {"serve.gen_late_ms", "ms"},
    {"trace.overhead_frac", "ratio"},
};

void Result::check(const std::string &Why, const std::string &What) {
  ++Attempted;
  if (Why.empty())
    return;
  ++Failed;
  // Keep the log readable when every op of a run fails the same way.
  if (Failed <= 5)
    Notes.push_back("FAIL " + What + ": " + Why);
}

void Result::set(const std::string &Name, double Value) {
  for (auto &[N, V] : Metrics)
    if (N == Name) {
      V = Value;
      return;
    }
  Metrics.emplace_back(Name, Value);
}

double Result::get(const std::string &Name) const {
  for (const auto &[N, V] : Metrics)
    if (N == Name)
      return V;
  return 0.0;
}

std::string resultJson(const Result &R, bool Trace) {
  std::string M;
  bool Finite = true;
  for (const MetricSpec &S : Trace ? PerLayerMetrics : EndToEndMetrics) {
    double V = R.get(S.Name);
    if (!std::isfinite(V)) {
      Finite = false;
      V = 0.0;
    }
    M += formatString("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      M.empty() ? "" : ", ", S.Name, V, S.Unit);
  }
  bool Correct = R.Correct && R.Failed == 0 && R.Attempted > 0 && Finite;
  return formatString(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}",
      Correct ? "true" : "false",
      static_cast<unsigned long long>(R.Attempted),
      static_cast<unsigned long long>(R.Failed), M.c_str());
}

void resetPeakRss(Result &R) {
  malloc_trim(0);
  int Fd = ::open("/proc/self/clear_refs", O_WRONLY);
  bool Ok = Fd >= 0 && ::write(Fd, "5", 1) == 1;
  if (Fd >= 0)
    ::close(Fd);
  if (!Ok) {
    R.Correct = false;
    R.Notes.push_back("FAIL cannot reset the peak RSS through "
                      "/proc/self/clear_refs");
  }
}

double peakRssMb() {
  std::ifstream F("/proc/self/status");
  for (std::string Line; std::getline(F, Line);)
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // In kB.
  return 0.0;
}

std::string attributionNote(const SpanLog &L) {
  std::set<std::pair<uint64_t, std::string>> Roots;
  for (const Span &S : L.spans())
    if (S.Parent < 0)
      Roots.insert({S.Op, S.Name});
  const double RootS = L.rootSeconds();
  double RootSelfS = 0.0;
  auto Self = L.selfSecondsByOp();
  for (const auto &[Op, Name] : Roots)
    RootSelfS += Self[Op][Name];
  return formatString("trace: layer spans cover %.4f of the %.3f s in root "
                      "spans; the rest is root self time",
                      ratio(RootS - RootSelfS, RootS), RootS);
}

Expected<CompileCounts> tracedCompile(const Kernel &K, SpanLog &L,
                                      uint64_t Op) {
  SpanLog::Scope Root(L, "compile", Op);
  // The same steps, in the same order, as dsm::compile with default
  // CompileOptions (core/Driver.cpp), plus the bytecode image.
  std::vector<std::unique_ptr<ir::Module>> Modules;
  for (const SourceFile &S : K.sources()) {
    int Parse = L.begin("lang.parse", Op);
    auto M = lang::parseSource(S.Text, S.Name);
    L.end(Parse);
    if (!M)
      return M.takeError();
    SpanLog::Scope Sema(L, "lang.sema", Op);
    if (Error E = lang::checkModule(**M))
      return E;
    Modules.push_back(std::move(*M));
  }
  int Link = L.begin("link.link", Op);
  auto Prog = link::linkProgram(std::move(Modules));
  L.end(Link);
  if (!Prog)
    return Prog.takeError();
  const xform::XformOptions XOpts = CompileOptions().Xform;
  for (auto &M : Prog->Modules)
    for (auto &P : M->Procedures) {
      {
        SpanLog::Scope X(L, "xform.transform", Op);
        if (Error E = xform::transformProcedure(*P, XOpts))
          return E;
      }
      SpanLog::Scope V(L, "ir.verify", Op);
      if (Error E = ir::verifyProcedure(*P))
        return E;
    }
  {
    SpanLog::Scope F(L, "link.finalize", Op);
    link::finalizeProgram(*Prog);
  }
  std::shared_ptr<const exec::bc::CompiledProgram> Code;
  {
    SpanLog::Scope B(L, "bc.compile", Op);
    Code = exec::bc::compileProgram(*Prog);
  }
  CompileCounts C;
  C.Clones = Prog->ClonesCreated;
  C.Insns = Code->TotalInsns;
  C.LoopsFused = Code->LoopsFused;
  C.LoopsBailed = Code->LoopsBailed;
  C.UnitsFallback = Code->UnitsFallback;
  return C;
}

void addCompileMetrics(Result &R, const SpanLog &L,
                       const CompileCounts &Counts) {
  static const char *const Layers[] = {
      "lang.parse", "lang.sema",   "link.link", "link.finalize",
      "xform.transform", "ir.verify", "bc.compile"};
  std::map<std::string, std::vector<double>> PerOp;
  for (const auto &[Op, Names] : L.selfSecondsByOp()) {
    if (!Names.count("compile"))
      continue;
    for (const char *Layer : Layers) {
      auto It = Names.find(Layer);
      PerOp[Layer].push_back(It == Names.end() ? 0.0 : It->second);
    }
  }
  for (const char *Layer : Layers)
    R.set(std::string(Layer) + "_s", median(PerOp[Layer]));
  R.set("link.clones", Counts.Clones);
  R.set("bc.insns", static_cast<double>(Counts.Insns));
  R.set("bc.loops_fused", Counts.LoopsFused);
  R.set("bc.loops_bailed", Counts.LoopsBailed);
  R.set("bc.units_fallback", Counts.UnitsFallback);
}

double replayLuStream(int N, int Nz, numa::Counters &Out) {
  numa::MemorySystem Mem(luMachine(N, Nz));
  const uint64_t Bytes = 5ull * N * N * Nz * 8;
  const uint64_t U = Mem.allocVirtual(Bytes);
  const uint64_t V = Mem.allocVirtual(Bytes);
  auto At = [N](uint64_t Base, int M, int J, int K, int L) {
    return Base +
           8ull * (static_cast<uint64_t>(M - 1) +
                   5ull * (static_cast<uint64_t>(J - 1) +
                           static_cast<uint64_t>(N) *
                               (static_cast<uint64_t>(K - 1) +
                                static_cast<uint64_t>(N) *
                                    static_cast<uint64_t>(L - 1))));
  };
  double T0 = nowSeconds();
  for (int L = 1; L <= Nz; ++L)
    for (int K = 1; K <= N; ++K)
      for (int J = 1; J <= N; ++J)
        for (int M = 1; M <= 5; ++M) {
          Mem.access(0, At(U, M, J, K, L), 8, true);
          Mem.access(0, At(V, M, J, K, L), 8, true);
        }
  // Lower sweep reads U and writes V, upper sweep the reverse; operands
  // in source order, then the store.
  for (auto [Src, Dst] : {std::pair{U, V}, std::pair{V, U}})
    for (int L = 1; L <= Nz; ++L)
      for (int K = 2; K < N; ++K)
        for (int J = 2; J < N; ++J)
          for (int M = 1; M <= 5; ++M) {
            Mem.access(0, At(Src, M, J, K, L), 8, false);
            Mem.access(0, At(Src, M, J - 1, K, L), 8, false);
            Mem.access(0, At(Src, M, J + 1, K, L), 8, false);
            Mem.access(0, At(Src, M, J, K - 1, L), 8, false);
            Mem.access(0, At(Src, M, J, K + 1, L), 8, false);
            Mem.access(0, At(Dst, M, J, K, L), 8, true);
          }
  double Sec = nowSeconds() - T0;
  Out = Mem.counters();
  return Sec / static_cast<double>(Out.Loads + Out.Stores);
}

Kernel batchKernel(const Config &C) {
  std::string Tag = formatString("perfbench seed %llu",
                                 static_cast<unsigned long long>(C.Seed));
  if (C.Workload == "lu_serial")
    return C.Smoke ? luSerialKernel(16, 2, Tag) : luSerialKernel(160, 10, Tag);
  return C.Smoke ? convReshapedKernel(64, 16, Tag)
                 : convReshapedKernel(1024, 64, Tag);
}

namespace {

/// The timed-loop variants of a traced batch run, interleaved so host
/// noise hits them alike.
enum class Leg { Untraced, Traced, Functional, Collect, Serial };

struct LegSamples {
  std::vector<double> RunS;
  std::vector<double> OpS;
};

} // namespace

Result runBatch(const Config &C) {
  Result R;
  const Kernel K = batchKernel(C);

  // Set-up 1: the oracle.  The interpreter shares no execution code with
  // the bytecode VM, and its result must equal the pinned reference.
  double InterpS = 0.0;
  auto Oracle = interpReference(K, &InterpS);
  if (!Oracle) {
    R.check(Oracle.takeError().str(), "interp oracle " + K.Name);
    return R;
  }
  auto Pinned = C.Pinned.find(K.Name);
  if (Pinned == C.Pinned.end()) {
    R.check("no pinned reference", "interp oracle " + K.Name);
    R.Notes.push_back("pin: " + pinnedJson(K.Name, *Oracle));
    return R;
  }
  const Reference &Want = Pinned->second;
  R.check(mismatch(Want, *Oracle), "interp oracle vs pinned " + K.Name);

  // Set-up 2, timed: sources to a warm handle (the program plus its
  // bytecode image).  One compile is well under 1 ms and host speed
  // drifts over seconds, so set-up is repeated before and between the
  // timed runs and reported as the median.
  std::vector<double> SetupS;
  auto SetUp = [&]() -> ProgramHandle {
    double T0 = nowSeconds();
    auto P = dsm::compile(K.sources());
    if (!P) {
      R.check(P.takeError().str(), "compile " + K.Name);
      return nullptr;
    }
    exec::bc::getOrCompile(**P);
    SetupS.push_back(nowSeconds() - T0);
    return *P;
  };
  ProgramHandle Prog;
  for (int I = 0; I < 11; ++I)
    if (!(Prog = SetUp()))
      return R;

  SpanLog Spans(C.Trace), Off(false);
  exec::RunResult LastRun, Last; // Last: of the last untraced run.
  // One checked dsm::run, traced when \p L is enabled; returns its host
  // seconds.
  auto RunOnce = [&](const exec::RunOptions &O, bool ChecksumsOnly,
                     const char *What, SpanLog &L, uint64_t Op) {
    int Id = L.begin("exec.run", Op);
    double T0 = nowSeconds();
    auto Out = dsm::run(Prog, K.Machine, O, K.ChecksumArrays);
    double Sec = nowSeconds() - T0;
    L.end(Id);
    SpanLog::Scope Check(L, "check", Op);
    if (!Out) {
      R.check(Out.takeError().str(), What);
      return Sec;
    }
    Reference Got = referenceOf(*Out);
    if (ChecksumsOnly) {
      Got.WallCycles = Want.WallCycles;
      Got.Counters = Want.Counters;
    }
    R.check(mismatch(Want, Got), What);
    LastRun = Out->Result;
    return Sec;
  };

  const exec::RunOptions Opts = K.runOptions();
  RunOnce(Opts, false, "warm-up run", Off, 0); // Lazy state, page cache.

  std::vector<Leg> Legs = {Leg::Untraced};
  if (C.Trace) {
    Legs = {Leg::Untraced, Leg::Traced, Leg::Functional, Leg::Collect};
    if (K.HostThreads > 1)
      Legs.push_back(Leg::Serial);
  }
  std::map<Leg, LegSamples> Samples;
  // peak_rss_mb covers the timed phase only, not the oracle's run.
  resetPeakRss(R);
  double Start = nowSeconds();
  uint64_t Ok = 0;
  for (uint64_t Op = 1;; ++Op) {
    Leg L = Legs[(Op - 1) % Legs.size()];
    if ((Op - 1) % Legs.size() == 0 && Op > 3 * Legs.size() &&
        nowSeconds() - Start >= C.Seconds)
      break;
    exec::RunOptions O = Opts;
    bool ChecksumsOnly = false;
    const char *What = "timed run";
    switch (L) {
    case Leg::Untraced:
    case Leg::Traced:
      break;
    case Leg::Functional:
      O.Perf = false;
      ChecksumsOnly = true;
      What = "functional run";
      break;
    case Leg::Collect:
      O.CollectMetrics = true;
      What = "metrics run";
      break;
    case Leg::Serial:
      O.HostThreads = 1;
      What = "serial run";
      break;
    }
    uint64_t FailedBefore = R.Failed;
    double T0 = nowSeconds();
    SpanLog &Log = L == Leg::Traced ? Spans : Off;
    int Root = Log.begin("job", Op);
    double RunS = RunOnce(O, ChecksumsOnly, What, Log, Op);
    Log.end(Root);
    Samples[L].RunS.push_back(RunS);
    Samples[L].OpS.push_back(nowSeconds() - T0);
    for (int I = 0; I < 5; ++I)
      SetUp();
    if (L == Leg::Untraced && R.Failed == FailedBefore) {
      ++Ok;
      Last = LastRun;
    }
  }
  double Elapsed = nowSeconds() - Start;
  const double PeakMb = peakRssMb();

  const LegSamples &Base = Samples[Leg::Untraced];
  const double RunS = median(Base.RunS);
  if (!C.Trace) {
    Tail T = tailPercentile(Base.OpS);
    R.set("run_s", RunS);
    R.set("setup_s", median(SetupS));
    R.set("peak_rss_mb", PeakMb);
    R.set("p50_ms", median(Base.OpS) * 1e3);
    R.set("p99_ms", T.Value * 1e3);
    R.set("ok_per_s", static_cast<double>(Ok) / Elapsed);
    R.Notes.push_back(formatString(
        "%s: %zu timed runs in %.1f s; p99_ms is p%d of %zu samples; "
        "run_s min %.4f median %.4f max %.4f",
        C.Workload.c_str(), Base.RunS.size(), Elapsed, T.Pct, T.Samples,
        percentile(Base.RunS, 0), RunS, percentile(Base.RunS, 100)));
    return R;
  }

  // Per-layer metrics.  Compile layers first, on a fresh log of their own
  // ops so their medians are per compile.
  SpanLog CompileSpans(true);
  CompileCounts Counts;
  for (uint64_t Op = 0; Op < 21; ++Op) {
    auto Cnt = tracedCompile(K, CompileSpans, Op);
    if (!Cnt) {
      R.check(Cnt.takeError().str(), "traced compile");
      return R;
    }
    Counts = *Cnt;
  }
  addCompileMetrics(R, CompileSpans, Counts);

  const double Functional = median(Samples[Leg::Functional].RunS);
  const double Serial = K.HostThreads > 1
                            ? median(Samples[Leg::Serial].RunS)
                            : RunS;
  const numa::Counters &Cn = Last.Counters;
  const double Accesses = static_cast<double>(Cn.Loads + Cn.Stores);
  R.set("exec.run_s", RunS);
  R.set("exec.functional_s", Functional);
  R.set("exec.memsim_s", RunS - Functional);
  R.set("exec.ns_per_access", ratio(RunS, Accesses) * 1e9);
  R.set("exec.interp_run_s", InterpS);
  R.set("exec.vm_speedup", ratio(InterpS, RunS));
  R.set("exec.serial_run_s", Serial);
  R.set("exec.thread_speedup", ratio(Serial, RunS));
  R.set("exec.epochs", Last.ParallelRegions);
  R.set("exec.threaded_epochs", Last.ThreadedEpochs);

  numa::Counters Replay;
  int LuN = C.Smoke ? 16 : 160, LuNz = C.Smoke ? 2 : 10;
  R.set("numa.access_ns", replayLuStream(LuN, LuNz, Replay) * 1e9);
  if (C.Workload == "lu_serial")
    R.check(Replay.str() == Cn.str()
                ? ""
                : "replay counters '" + Replay.str() + "', run '" +
                      Cn.str() + "'",
            "address-stream replay");
  R.set("numa.accesses", Accesses);
  R.set("numa.l1_miss_frac", ratio(Cn.L1Misses, Accesses));
  R.set("numa.l2_miss_frac", ratio(Cn.L2Misses, Accesses));
  R.set("numa.tlb_misses", Cn.TlbMisses);
  R.set("numa.remote_frac",
        ratio(Cn.RemoteMemAccesses,
              static_cast<double>(Cn.LocalMemAccesses +
                                  Cn.RemoteMemAccesses)));
  R.set("numa.invalidations", Cn.Invalidations);
  R.set("obs.collect_frac",
        ratio(median(Samples[Leg::Collect].RunS), RunS) - 1.0);

  R.set("trace.overhead_frac",
        ratio(median(Samples[Leg::Traced].OpS), median(Base.OpS)) - 1.0);
  Spans.merge(CompileSpans);
  R.Notes.push_back(attributionNote(Spans));
  if (!C.SpanPath.empty() && !Spans.writeChromeTrace(C.SpanPath))
    R.Notes.push_back("could not write spans to " + C.SpanPath);
  R.Notes.push_back(formatString(
      "%s traced: %zu untraced + %zu traced runs, %zu spans",
      C.Workload.c_str(), Base.RunS.size(),
      Samples[Leg::Traced].RunS.size(), Spans.spans().size()));
  return R;
}

} // namespace perfbench
