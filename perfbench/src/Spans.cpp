//===- perfbench/src/Spans.cpp - In-memory span trace ---------------------===//
//
// Part of the dsm-dist-repro project.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include <algorithm>
#include <cstdio>

#include "support/Json.h"

namespace perfbench {

double nowSeconds() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

int SpanLog::begin(const char *Name, uint64_t Op) {
  return Enabled ? begin(Name, Op, nowSeconds()) : -1;
}

int SpanLog::begin(const char *Name, uint64_t Op, double Start) {
  if (!Enabled)
    return -1;
  int Parent = Open.empty() ? -1 : Open.back();
  Spans.push_back({Name, Start, 0.0, Parent, Op});
  Open.push_back(static_cast<int>(Spans.size() - 1));
  return Open.back();
}

void SpanLog::end(int Id) {
  if (Id < 0)
    return;
  Spans[static_cast<size_t>(Id)].End = nowSeconds();
  // Spans close innermost-first; anything left above Id was leaked by
  // an early return and closes with it.
  while (!Open.empty() && Open.back() >= Id)
    Open.pop_back();
}

int SpanLog::add(const char *Name, uint64_t Op, double Start, double End,
                 int Parent) {
  if (!Enabled)
    return -1;
  Spans.push_back({Name, Start, End, Parent, Op});
  return static_cast<int>(Spans.size() - 1);
}

void SpanLog::merge(const SpanLog &O) {
  int Base = static_cast<int>(Spans.size());
  for (Span S : O.Spans) {
    if (S.Parent >= 0)
      S.Parent += Base;
    Spans.push_back(std::move(S));
  }
}

std::map<uint64_t, std::map<std::string, double>>
SpanLog::selfSecondsByOp() const {
  std::vector<double> Self(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I)
    Self[I] += Spans[I].End - Spans[I].Start;
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Self[static_cast<size_t>(S.Parent)] -= S.End - S.Start;
  std::map<uint64_t, std::map<std::string, double>> Out;
  for (size_t I = 0; I < Spans.size(); ++I)
    Out[Spans[I].Op][Spans[I].Name] += Self[I];
  return Out;
}

double SpanLog::rootSeconds() const {
  double Sum = 0.0;
  for (const Span &S : Spans)
    if (S.Parent < 0)
      Sum += S.End - S.Start;
  return Sum;
}

bool SpanLog::writeChromeTrace(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  double T0 = Spans.empty() ? 0.0 : Spans.front().Start;
  for (const Span &S : Spans)
    T0 = std::min(T0, S.Start);
  std::fputs("[\n", F);
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,"
                 "\"parent\":%d}}\n",
                 I ? "," : "", dsm::json::escape(S.Name).c_str(),
                 static_cast<unsigned long long>(S.Op),
                 (S.Start - T0) * 1e6, (S.End - S.Start) * 1e6,
                 static_cast<unsigned long long>(S.Op), S.Parent);
  }
  std::fputs("]\n", F);
  return std::fclose(F) == 0;
}

} // namespace perfbench
