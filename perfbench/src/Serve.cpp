//===- perfbench/src/Serve.cpp - The serve_mix workload -------------------===//
//
// Part of the dsm-dist-repro project.
//
//===----------------------------------------------------------------------===//
//
// An in-process dsm_serve (serve::Server, 2 workers) on loopback, driven
// open-loop by 2 client connections at one fixed offered rate.  The
// request schedule, the variant mix and the never-seen sources are a pure
// function of the seed.  Expected results are computed before the timed
// phase; replies are stored and compared after it, so the oracle never
// competes with the load.  Each request's latency runs from its scheduled
// send time, so a stalled connection charges the requests queued behind
// it.
//
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <memory>
#include <thread>

#include "Bench.h"
#include "Stats.h"
#include "serve/Client.h"
#include "serve/Server.h"
#include "support/Rng.h"
#include "support/StringUtils.h"

using namespace dsm;

namespace perfbench {

namespace {

constexpr int Clients = 2;
constexpr int Workers = 2;

serve::Request wireRequest(const Kernel &K, uint64_t Seed, size_t Index,
                           bool Miss) {
  serve::Request Q;
  Q.Kind = serve::Op::Run;
  Q.Label = K.Name;
  std::string Text = K.Source;
  // A comment changes the cache key but not the program, so a miss
  // compiles from scratch and must still produce the variant's result.
  if (Miss)
    Text += formatString("* unseen seed %llu request %zu\n",
                         static_cast<unsigned long long>(Seed), Index);
  Q.Sources = {{K.Name + ".f", Text}};
  Q.Procs = K.Procs;
  Q.Threads = K.HostThreads;
  Q.Machine = "scaled";
  Q.Engine = "bytecode";
  Q.ChecksumArrays = K.ChecksumArrays;
  return Q;
}

/// What the generator saw of one request.
struct Outcome {
  double Due = 0.0, Sent = 0.0, Done = 0.0;
  bool Replied = false;
  std::string Err;
  serve::Response Resp;
  serve::CallTrace Trace;
};

} // namespace

std::vector<Planned> makeSchedule(uint64_t Seed, size_t N,
                                  const std::vector<ServeVariant> &Cat) {
  std::vector<size_t> Slots;
  for (size_t V = 0; V < Cat.size(); ++V)
    Slots.insert(Slots.end(), static_cast<size_t>(Cat[V].Weight), V);
  std::vector<Planned> S(N);
  for (size_t I = 0; I < N; ++I) {
    S[I].Variant = Slots[I % Slots.size()];
    S[I].Miss = I % 8 == 0;
  }
  SplitMix64 Rng(hashMix64(Seed));
  for (size_t I = N; I > 1; --I)
    std::swap(S[I - 1].Variant, S[Rng.nextBelow(I)].Variant);
  for (size_t I = N; I > 1; --I)
    std::swap(S[I - 1].Miss, S[Rng.nextBelow(I)].Miss);
  for (size_t I = 0; I < N; ++I)
    S[I].At = static_cast<double>(I) / ServeRatePerSecond;
  return S;
}

Result runServe(const Config &C) {
  Result R;
  const std::vector<ServeVariant> Cat = serveCatalog(C.Smoke);

  // Set-up, timed: server start plus the oracle.  Repeated before and
  // after the timed phase, because host speed drifts over seconds.
  std::vector<Reference> Want(Cat.size());
  std::vector<double> SetupS, InterpS(Cat.size());
  auto SetUp = [&]() -> std::unique_ptr<serve::Server> {
    double T0 = nowSeconds();
    serve::ServerOptions SO;
    SO.Workers = Workers;
    // A long-running server bounds its cache; never-seen sources are
    // evicted while the hot variants stay resident, so memory stops
    // growing with the run's length.
    SO.MaxCachedPrograms = 16;
    auto S = std::make_unique<serve::Server>(SO);
    if (Error E = S->start()) {
      R.check(E.str(), "server start");
      return nullptr;
    }
    uint64_t FailedBefore = R.Failed;
    for (size_t V = 0; V < Cat.size(); ++V) {
      const Kernel &K = Cat[V].K;
      auto Ref = interpReference(K, &InterpS[V]);
      auto Pinned = C.Pinned.find(K.Name);
      if (!Ref) {
        R.check(Ref.takeError().str(), "interp oracle " + K.Name);
      } else if (Pinned == C.Pinned.end()) {
        R.check("no pinned reference", "interp oracle " + K.Name);
        R.Notes.push_back("pin: " + pinnedJson(K.Name, *Ref));
      } else {
        R.check(mismatch(Pinned->second, *Ref),
                "interp oracle vs pinned " + K.Name);
        Want[V] = Pinned->second;
      }
    }
    if (R.Failed != FailedBefore)
      return nullptr;
    SetupS.push_back(nowSeconds() - T0);
    return S;
  };
  // Each extra server is drained as soon as its set-up is timed.
  auto SetUpAndDrain = [&]() {
    auto S = SetUp();
    if (!S)
      return false;
    S->requestDrain();
    S->waitDrained();
    return true;
  };
  for (int Rep = 0; Rep < 3; ++Rep)
    if (!SetUpAndDrain())
      return R;
  std::unique_ptr<serve::Server> Srv = SetUp();
  if (!Srv)
    return R;

  const size_t N = std::max<size_t>(
      16, static_cast<size_t>(C.Seconds * ServeRatePerSecond));
  const std::vector<Planned> Plan = makeSchedule(C.Seed, N, Cat);
  std::vector<serve::Request> Reqs;
  for (size_t I = 0; I < N; ++I)
    Reqs.push_back(
        wireRequest(Cat[Plan[I].Variant].K, C.Seed, I, Plan[I].Miss));

  std::vector<serve::Client> Conns;
  for (int I = 0; I < Clients; ++I) {
    serve::ClientOptions CO;
    CO.Port = Srv->port();
    CO.JitterSeed = C.Seed * Clients + static_cast<uint64_t>(I);
    Conns.emplace_back(CO);
  }
  // Warm-up: every base variant once, so only never-seen sources miss.
  for (size_t V = 0; V < Cat.size(); ++V) {
    auto Resp = Conns[0].callWithRetry(wireRequest(Cat[V].K, C.Seed, 0,
                                                   false));
    R.check(!Resp                         ? Resp.takeError().str()
            : Resp->St != serve::Status::Ok ? Resp->ErrorMsg
                                            : mismatch(Want[V],
                                                       referenceOf(*Resp)),
            "warm-up " + Cat[V].K.Name);
  }

  // Timed phase.  In a traced run, every other request of each
  // connection carries spans, recorded on the request's own path, so the
  // tracing overhead is measured inside one run.
  auto Traced = [](size_t I) { return (I / Clients) % 2 == 0; };
  std::vector<Outcome> Out(N);
  std::vector<SpanLog> Logs(Clients, SpanLog(C.Trace));
  SpanLog Off(false);
  // peak_rss_mb covers the timed phase only, not the set-up oracles.
  resetPeakRss(R);
  const double Start = nowSeconds() + 0.05;
  auto Drive = [&](int Conn) {
    for (size_t I = static_cast<size_t>(Conn); I < N; I += Clients) {
      Outcome &O = Out[I];
      O.Due = Start + Plan[I].At;
      std::this_thread::sleep_until(
          Clock::time_point(std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double>(O.Due))));
      O.Sent = nowSeconds();
      SpanLog &L = Traced(I) ? Logs[static_cast<size_t>(Conn)] : Off;
      int Root = L.begin("request", I, O.Due);
      L.add("gen.late", I, O.Due, std::max(O.Due, O.Sent), Root);
      int Call = L.begin("serve.call", I);
      auto Resp = Conns[static_cast<size_t>(Conn)].callWithRetry(Reqs[I],
                                                                 &O.Trace);
      L.end(Call);
      L.end(Root);
      O.Done = nowSeconds();
      if (Resp) {
        O.Replied = true;
        O.Resp = std::move(*Resp);
      } else {
        O.Err = Resp.takeError().str();
      }
    }
  };
  std::vector<std::thread> Threads;
  for (int I = 0; I < Clients; ++I)
    Threads.emplace_back(Drive, I);
  for (std::thread &T : Threads)
    T.join();
  const double Elapsed = nowSeconds() - Start;
  for (serve::Client &Cl : Conns)
    Cl.close();
  Srv->requestDrain();
  Srv->waitDrained();
  const double PeakMb = peakRssMb();
  const serve::ServerStats St = Srv->stats();
  for (int Rep = 0; Rep < 4; ++Rep)
    SetUpAndDrain();

  // Verification, after the load.
  std::vector<double> LatMs, TracedMs, UntracedMs, QueueMs, RunMs,
      OverheadMs, LateMs;
  uint64_t Ok = 0, Attempts = 0, Sheds = 0, Retries = 0;
  for (size_t I = 0; I < N; ++I) {
    const Outcome &O = Out[I];
    const serve::Response &Resp = O.Resp;
    std::string Why = !O.Replied                     ? O.Err
                      : Resp.St != serve::Status::Ok ? std::string(
                                                           serve::statusName(
                                                               Resp.St)) +
                                                           ": " +
                                                           Resp.ErrorMsg
                                                     : mismatch(
                                                           Want[Plan[I]
                                                                    .Variant],
                                                           referenceOf(Resp));
    R.check(Why, formatString("request %zu (%s)", I,
                              Cat[Plan[I].Variant].K.Name.c_str()));
    Attempts += static_cast<uint64_t>(O.Trace.Attempts);
    Sheds += static_cast<uint64_t>(O.Trace.Sheds);
    Retries += static_cast<uint64_t>(std::max(0, O.Trace.Attempts - 1));
    double Lat = (O.Done - O.Due) * 1e3;
    LatMs.push_back(Lat);
    (Traced(I) ? TracedMs : UntracedMs).push_back(Lat);
    LateMs.push_back(std::max(0.0, O.Sent - O.Due) * 1e3);
    if (!Why.empty())
      continue;
    ++Ok;
    QueueMs.push_back(Resp.QueueMs);
    RunMs.push_back(Resp.HostSeconds * 1e3);
    OverheadMs.push_back(Lat - Resp.QueueMs - Resp.HostSeconds * 1e3);
  }
  uint64_t Buckets = St.Ok + St.RunErrors + St.Overloaded +
                     St.DeadlineExceeded + St.ShedShuttingDown +
                     St.Cancelled + St.BadRequests;
  if (Buckets != St.Requests) {
    R.Correct = false;
    R.Notes.push_back(formatString(
        "FAIL server stats partition: outcome buckets sum to %llu, "
        "requests %llu",
        static_cast<unsigned long long>(Buckets),
        static_cast<unsigned long long>(St.Requests)));
  }

  if (!C.Trace) {
    Tail T = tailPercentile(LatMs);
    R.set("run_s", median(RunMs) / 1e3);
    R.set("setup_s", median(SetupS));
    R.set("peak_rss_mb", PeakMb);
    R.set("p50_ms", median(LatMs));
    R.set("p99_ms", T.Value);
    R.set("ok_per_s", static_cast<double>(Ok) / Elapsed);
    R.Notes.push_back(formatString(
        "serve_mix: %zu requests at %.0f/s over %.1f s; p99_ms is p%d of "
        "%zu samples; cache hits %llu misses %llu",
        N, ServeRatePerSecond, Elapsed, T.Pct, T.Samples,
        static_cast<unsigned long long>(St.Cache.Hits),
        static_cast<unsigned long long>(St.Cache.Misses)));
    return R;
  }

  // Per-layer metrics.  Compile layers: one op compiles every variant.
  SpanLog CompileSpans(true);
  CompileCounts Sum;
  for (uint64_t Op = 0; Op < 7; ++Op) {
    Sum = CompileCounts();
    for (const ServeVariant &V : Cat) {
      auto Cnt = tracedCompile(V.K, CompileSpans, Op);
      if (!Cnt) {
        R.check(Cnt.takeError().str(), "traced compile " + V.K.Name);
        return R;
      }
      Sum.Clones += Cnt->Clones;
      Sum.Insns += Cnt->Insns;
      Sum.LoopsFused += Cnt->LoopsFused;
      Sum.LoopsBailed += Cnt->LoopsBailed;
      Sum.UnitsFallback += Cnt->UnitsFallback;
    }
  }
  addCompileMetrics(R, CompileSpans, Sum);

  // The session layer's compile of a never-seen source, from outside.
  {
    session::SessionOptions SO;
    SO.Workers = 1;
    session::Session Sess(SO);
    std::vector<double> MissS;
    for (size_t I = 0; I < 7 * Cat.size(); ++I) {
      const Kernel &K = Cat[I % Cat.size()].K;
      serve::Request Q = wireRequest(K, C.Seed, N + I, true);
      double T0 = nowSeconds();
      auto P = Sess.compile(Q.Sources);
      MissS.push_back(nowSeconds() - T0);
      if (!P)
        R.check(P.takeError().str(), "session compile " + K.Name);
    }
    R.set("session.compile_s", median(MissS));
  }
  R.set("session.cache_hit_frac",
        static_cast<double>(St.Cache.Hits) /
            static_cast<double>(std::max<uint64_t>(
                1, St.Cache.Hits + St.Cache.Misses)));

  // The execute layers, summed over one run of each catalog variant.
  double RunS = 0, FunctionalS = 0, CollectS = 0, InterpSum = 0;
  numa::Counters Cn;
  unsigned Epochs = 0, Threaded = 0;
  for (size_t V = 0; V < Cat.size(); ++V) {
    const Kernel &K = Cat[V].K;
    auto P = dsm::compile(K.sources());
    if (!P) {
      R.check(P.takeError().str(), "compile " + K.Name);
      return R;
    }
    exec::RunOptions O = K.runOptions();
    auto Timed = [&](const exec::RunOptions &RO, bool ChecksumsOnly,
                     double &Acc) {
      double T0 = nowSeconds();
      auto Res = dsm::run(*P, K.Machine, RO, K.ChecksumArrays);
      Acc += nowSeconds() - T0;
      if (!Res) {
        R.check(Res.takeError().str(), "layer run " + K.Name);
        return;
      }
      Reference Got = referenceOf(*Res);
      if (ChecksumsOnly) {
        Got.WallCycles = Want[V].WallCycles;
        Got.Counters = Want[V].Counters;
      }
      R.check(mismatch(Want[V], Got), "layer run " + K.Name);
      if (!ChecksumsOnly && !RO.CollectMetrics) {
        Cn += Res->Result.Counters;
        Epochs += Res->Result.ParallelRegions;
        Threaded += Res->Result.ThreadedEpochs;
      }
    };
    Timed(O, false, RunS);
    exec::RunOptions F = O;
    F.Perf = false;
    Timed(F, true, FunctionalS);
    exec::RunOptions M = O;
    M.CollectMetrics = true;
    Timed(M, false, CollectS);
    InterpSum += InterpS[V];
  }
  const double Accesses = static_cast<double>(Cn.Loads + Cn.Stores);
  R.set("exec.run_s", RunS);
  R.set("exec.functional_s", FunctionalS);
  R.set("exec.memsim_s", RunS - FunctionalS);
  R.set("exec.ns_per_access", ratio(RunS, Accesses) * 1e9);
  R.set("exec.interp_run_s", InterpSum);
  R.set("exec.vm_speedup", ratio(InterpSum, RunS));
  R.set("exec.serial_run_s", RunS); // Every variant runs 1 host thread.
  R.set("exec.thread_speedup", 1.0);
  R.set("exec.epochs", Epochs);
  R.set("exec.threaded_epochs", Threaded);
  numa::Counters Replay;
  R.set("numa.access_ns",
        replayLuStream(C.Smoke ? 16 : 160, C.Smoke ? 2 : 10, Replay) * 1e9);
  R.set("numa.accesses", Accesses);
  R.set("numa.l1_miss_frac", ratio(Cn.L1Misses, Accesses));
  R.set("numa.l2_miss_frac", ratio(Cn.L2Misses, Accesses));
  R.set("numa.tlb_misses", Cn.TlbMisses);
  R.set("numa.remote_frac",
        ratio(Cn.RemoteMemAccesses,
              static_cast<double>(Cn.LocalMemAccesses +
                                  Cn.RemoteMemAccesses)));
  R.set("numa.invalidations", Cn.Invalidations);
  R.set("obs.collect_frac", ratio(CollectS, RunS) - 1.0);

  R.set("serve.queue_ms", median(QueueMs));
  R.set("serve.worker_run_ms", median(RunMs));
  R.set("serve.overhead_ms", median(OverheadMs));
  R.set("serve.shed_frac", ratio(Sheds, Attempts));
  R.set("serve.retries", static_cast<double>(Retries));
  R.set("serve.queue_peak", static_cast<double>(St.QueuePeak));
  R.set("serve.gen_late_ms", tailPercentile(LateMs).Value);

  SpanLog All(true);
  for (const SpanLog &L : Logs)
    All.merge(L);
  R.set("trace.overhead_frac", ratio(median(TracedMs), median(UntracedMs)) -
                                   1.0);
  All.merge(CompileSpans);
  R.Notes.push_back(attributionNote(All));
  if (!C.SpanPath.empty() && !All.writeChromeTrace(C.SpanPath))
    R.Notes.push_back("could not write spans to " + C.SpanPath);
  R.Notes.push_back(formatString("serve_mix traced: %zu requests, %zu spans",
                                 N, All.spans().size()));
  return R;
}

} // namespace perfbench
