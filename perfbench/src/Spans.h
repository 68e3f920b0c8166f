//===- perfbench/src/Spans.h - In-memory span trace -------------*- C++ -*-===//
//
// Part of the dsm-dist-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's span log.  The benchmark opens a span around each
/// call it makes into a layer of the simulator (parse, link, xform,
/// bytecode compile, dsm::run, the serve client, ...).  Spans record
/// name, start, end, parent and op id; they stay in memory and are
/// written out as a Chrome trace when the run ends.  A layer's self time
/// is its spans' durations minus the parts their child spans cover, so
/// the self times of one op add up to that op's root span.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds since an arbitrary fixed origin (steady clock).
double nowSeconds();

struct Span {
  std::string Name;
  double Start = 0.0;
  double End = 0.0;
  int Parent = -1; ///< Index into the log; -1 for an op's root.
  uint64_t Op = 0;
};

/// A single-threaded span log; threads keep one each and merge.  A
/// disabled log records nothing and costs one branch per call.
class SpanLog {
public:
  explicit SpanLog(bool Enabled) : Enabled(Enabled) {}

  bool enabled() const { return Enabled; }

  /// Opens a span as a child of the innermost open span (or a root),
  /// starting now, or at \p Start for an interval that began before the
  /// call (such as a request's scheduled send time).
  int begin(const char *Name, uint64_t Op);
  int begin(const char *Name, uint64_t Op, double Start);
  void end(int Id);
  /// Records a finished span with explicit times (for intervals known
  /// only after the fact, such as a generator's lateness).
  int add(const char *Name, uint64_t Op, double Start, double End,
          int Parent);

  /// RAII span.
  class Scope {
  public:
    Scope(SpanLog &L, const char *Name, uint64_t Op)
        : L(L), Id(L.begin(Name, Op)) {}
    ~Scope() { L.end(Id); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanLog &L;
    int Id;
  };

  const std::vector<Span> &spans() const { return Spans; }
  /// Appends \p O's spans, re-basing their parent indices.
  void merge(const SpanLog &O);

  /// Self seconds per span name for each op: Op -> Name -> seconds.
  std::map<uint64_t, std::map<std::string, double>> selfSecondsByOp() const;
  /// Total duration of root spans.
  double rootSeconds() const;

  /// Writes the log as a Chrome trace (chrome://tracing, Perfetto).
  bool writeChromeTrace(const std::string &Path) const;

private:
  bool Enabled;
  std::vector<Span> Spans;
  std::vector<int> Open;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
