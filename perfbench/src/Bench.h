//===- perfbench/src/Bench.h - Benchmark workloads and metrics --*- C++ -*-===//
//
// Part of the dsm-dist-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three benchmark workloads (lu_serial, conv_reshaped_p64,
/// serve_mix) and the metrics they report.  An untraced run reports the
/// end-to-end metrics; a traced run (Config::Trace) reports the per-layer
/// metrics, measured from outside by timing calls into each layer's
/// public functions.  Every checked result counts as one attempted op;
/// an op fails on any error or any difference from the pinned reference.
/// README.md in this directory explains each workload and metric.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <cstdint>
#include <string>
#include <vector>

#include "Oracle.h"
#include "Spans.h"
#include "Workloads.h"

namespace perfbench {

struct MetricSpec {
  const char *Name;
  const char *Unit;
};

/// Reported by every untraced run, on every workload.
extern const std::vector<MetricSpec> EndToEndMetrics;
/// Reported by every traced run, on every workload (0 for a layer the
/// workload does not exercise).
extern const std::vector<MetricSpec> PerLayerMetrics;

struct Config {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// Tiny sizes, for the benchmark's own tests.
  bool Smoke = false;
  PinnedTable Pinned;
  /// Where a traced run writes its spans (Chrome trace); empty = nowhere.
  std::string SpanPath;
};

struct Result {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// False also when a set-up check (pinned reference, stats partition)
  /// failed.
  bool Correct = true;
  std::vector<std::pair<std::string, double>> Metrics;
  /// Human-readable lines printed before the JSON result.
  std::vector<std::string> Notes;

  /// Counts one checked op; \p Why is empty when it passed.
  void check(const std::string &Why, const std::string &What);
  void set(const std::string &Name, double Value);
  double get(const std::string &Name) const;
};

/// Runs lu_serial or conv_reshaped_p64.
Result runBatch(const Config &C);
/// Runs serve_mix.
Result runServe(const Config &C);

/// The kernel a batch workload runs (sizes shrink under Config::Smoke).
Kernel batchKernel(const Config &C);

/// One scheduled serve_mix request.
struct Planned {
  double At = 0.0; ///< Send time, seconds after the timed phase starts.
  size_t Variant = 0;
  bool Miss = false; ///< Carries a never-seen source.
};

/// serve_mix requests sent per second (open loop): about a fifth of two
/// workers' capacity on the catalog.  Each connection sends every 50 ms,
/// longer than even the heavy variant takes, so a connection is idle
/// between sends and latency is a property of the server, not of a
/// backlog.  35 s give 1400 requests, enough for a p99 with 14 beyond it.
constexpr double ServeRatePerSecond = 40.0;

/// The serve_mix schedule, a pure function of \p Seed: a seeded shuffle
/// of a fixed multiset, so every seed sees the same variant shares and
/// exactly one request in eight whose source the server has never seen.
std::vector<Planned> makeSchedule(uint64_t Seed, size_t N,
                                  const std::vector<ServeVariant> &Cat);

/// The one-line JSON result: correct, attempted, failed, and the
/// end-to-end (untraced) or per-layer (traced) metrics with units.
std::string resultJson(const Result &R, bool Trace);

/// Counts from one traced compile.
struct CompileCounts {
  unsigned Clones = 0;
  size_t Insns = 0;
  unsigned LoopsFused = 0;
  unsigned LoopsBailed = 0;
  unsigned UnitsFallback = 0;
};

/// Compiles \p K step by step -- parse, sema, link, transform + verify
/// per procedure, finalize, bytecode compile -- with one span around
/// each layer call, all under a root span "compile" of op \p Op.
dsm::Expected<CompileCounts> tracedCompile(const Kernel &K, SpanLog &L,
                                           uint64_t Op);

/// Adds each compile layer's median per-op self time (over the ops of
/// \p L) and the counts to \p R.
void addCompileMetrics(Result &R, const SpanLog &L,
                       const CompileCounts &Counts);

/// A note saying what share of the root spans' time (ops) the layer spans
/// under them cover.  Self times add up to the roots by construction;
/// the share says how much of each op the named layers explain.
std::string attributionNote(const SpanLog &L);

/// Replays lu_serial's loop-nest address stream for U/V(5,n,n,nz)
/// through MemorySystem::access on a fresh Fig 4 machine, with no VM.
/// Returns host seconds per access; \p Out receives the counters.
double replayLuStream(int N, int Nz, dsm::numa::Counters &Out);

/// Starts a new peak-memory window: returns the heap freed so far to the
/// system (malloc_trim), then resets the kernel's high-water mark of this
/// process to its current resident set (/proc/self/clear_refs).  Marks
/// \p R incorrect when the mark cannot be reset.
void resetPeakRss(Result &R);
/// Host peak resident set of this process since the last resetPeakRss,
/// in MB (VmHWM).
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
