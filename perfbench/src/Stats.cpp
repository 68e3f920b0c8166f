//===- perfbench/src/Stats.cpp - Sample statistics ------------------------===//
//
// Part of the dsm-dist-repro project.
//
//===----------------------------------------------------------------------===//

#include "Stats.h"

#include <algorithm>

namespace perfbench {

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

static size_t nearestRank(size_t N, int Pct) {
  // ceil(Pct * N / 100) in integers; at least rank 1.
  size_t R = (static_cast<size_t>(Pct) * N + 99) / 100;
  return std::max<size_t>(R, 1);
}

double percentile(std::vector<double> V, int Pct) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  return V[nearestRank(V.size(), Pct) - 1];
}

Tail tailPercentile(const std::vector<double> &V, int MaxPct) {
  Tail T;
  T.Samples = V.size();
  for (int Pct = MaxPct; Pct > 50; --Pct) {
    if (V.size() - nearestRank(V.size(), Pct) >= 10) {
      T.Pct = Pct;
      T.Value = percentile(V, Pct);
      return T;
    }
  }
  T.Value = median(V);
  return T;
}

} // namespace perfbench
