//===- perfbench/src/Stats.h - Sample statistics ----------------*- C++ -*-===//
//
// Part of the dsm-dist-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Order statistics for timing samples.  A timing is reported as its
/// median and its tail: the highest percentile that still has at least
/// ten samples beyond it, together with the sample count.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <cstddef>
#include <vector>

namespace perfbench {

/// \p A / \p B, or 0 when \p B is not positive.
inline double ratio(double A, double B) { return B > 0.0 ? A / B : 0.0; }

/// Median of \p V (mean of the middle two for even sizes); 0 when empty.
double median(std::vector<double> V);

/// The nearest-rank value at whole percentile \p Pct of \p V: the
/// ceil(Pct/100 * N)-th smallest sample.
double percentile(std::vector<double> V, int Pct);

/// A tail percentile chosen by the ten-samples-beyond rule.
struct Tail {
  /// Whole percentile reported; 50 when too few samples exist for any
  /// percentile above the median to have ten samples beyond it.
  int Pct = 50;
  double Value = 0.0;
  size_t Samples = 0;
};

/// The highest whole percentile, at most \p MaxPct, whose nearest rank
/// leaves at least ten samples above it.  With fewer than 21 samples no
/// percentile above the median qualifies and the median is returned.
Tail tailPercentile(const std::vector<double> &V, int MaxPct = 99);

} // namespace perfbench

#endif // PERFBENCH_STATS_H
