//===- perfbench/src/Trace.cpp - In-memory spans around layer calls -------===//

#include "Trace.h"

#include "Common.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

namespace {

using Interval = std::pair<int64_t, int64_t>;

/// Length of the union of \p Iv clipped to [Lo, Hi].
int64_t unionLength(std::vector<Interval> Iv, int64_t Lo, int64_t Hi) {
  std::sort(Iv.begin(), Iv.end());
  int64_t Total = 0, CurLo = 0, CurHi = 0;
  bool Have = false;
  for (auto [A, B] : Iv) {
    A = std::max(A, Lo);
    B = std::min(B, Hi);
    if (A >= B)
      continue;
    if (Have && A <= CurHi) {
      CurHi = std::max(CurHi, B);
      continue;
    }
    if (Have)
      Total += CurHi - CurLo;
    CurLo = A;
    CurHi = B;
    Have = true;
  }
  return Have ? Total + (CurHi - CurLo) : Total;
}

bool isLayer(const char *Module) { return std::string(Module) != "bench"; }

uint32_t threadIndex() {
  static std::atomic<uint32_t> Next{1};
  thread_local uint32_t Tid = Next.fetch_add(1);
  return Tid;
}

thread_local std::vector<Tracer::Rec> OpenStack;

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) >= 0x20)
      Out += C;
  }
  return Out;
}

} // namespace

Tracer &Tracer::get() {
  static Tracer T;
  return T;
}

uint64_t Tracer::begin(const char *Module, const char *Name, std::string Ref,
                       uint64_t Parent) {
  Rec R{Module, Name, std::move(Ref), 0, 0, NextId.fetch_add(1),
        Parent ? Parent : current(), threadIndex()};
  R.StartNs = nowNs();
  OpenStack.push_back(std::move(R));
  return OpenStack.back().Id;
}

void Tracer::end(uint64_t Id) {
  int64_t Now = nowNs();
  // Spans close in LIFO order per thread (they are scoped objects).
  if (OpenStack.empty() || OpenStack.back().Id != Id)
    return;
  Rec R = std::move(OpenStack.back());
  OpenStack.pop_back();
  R.EndNs = Now;
  std::lock_guard<std::mutex> Lock(M);
  Done.push_back(std::move(R));
}

uint64_t Tracer::current() const {
  return OpenStack.empty() ? 0 : OpenStack.back().Id;
}

size_t Tracer::spanCount() const {
  std::lock_guard<std::mutex> Lock(M);
  return Done.size();
}

double Tracer::coverage(int64_t FromNs, int64_t ToNs) const {
  if (ToNs <= FromNs)
    return 0;
  std::vector<Interval> Iv;
  {
    std::lock_guard<std::mutex> Lock(M);
    for (const Rec &R : Done)
      if (isLayer(R.Module))
        Iv.emplace_back(R.StartNs, R.EndNs);
  }
  return static_cast<double>(unionLength(std::move(Iv), FromNs, ToNs)) /
         static_cast<double>(ToNs - FromNs);
}

std::map<std::string, double> Tracer::selfSeconds() const {
  std::lock_guard<std::mutex> Lock(M);
  std::unordered_map<uint64_t, std::vector<Interval>> Children;
  for (const Rec &R : Done)
    if (R.Parent)
      Children[R.Parent].emplace_back(R.StartNs, R.EndNs);
  std::map<std::string, double> Self;
  for (const Rec &R : Done) {
    if (!isLayer(R.Module))
      continue;
    int64_t Covered = 0;
    auto It = Children.find(R.Id);
    if (It != Children.end())
      Covered = unionLength(It->second, R.StartNs, R.EndNs);
    Self[R.Module] += static_cast<double>(R.EndNs - R.StartNs - Covered) * 1e-9;
  }
  return Self;
}

bool Tracer::writeChrome(const std::string &Path, size_t MaxEvents) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::lock_guard<std::mutex> Lock(M);
  int64_t T0 = Done.empty() ? 0 : Done.front().StartNs;
  for (const Rec &R : Done)
    T0 = std::min(T0, R.StartNs);
  size_t N = std::min(MaxEvents, Done.size());
  std::fprintf(F, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t I = 0; I != N; ++I) {
    const Rec &R = Done[I];
    std::fprintf(F,
                 "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                 "\"args\": {\"span\": %llu, \"parent\": %llu, "
                 "\"ref\": \"%s\"}}%s\n",
                 R.Name, R.Module, static_cast<double>(R.StartNs - T0) / 1e3,
                 static_cast<double>(R.EndNs - R.StartNs) / 1e3, R.Tid,
                 static_cast<unsigned long long>(R.Id),
                 static_cast<unsigned long long>(R.Parent),
                 jsonEscape(R.Ref).c_str(), I + 1 == N ? "" : ",");
  }
  std::fprintf(F,
               "], \"otherData\": {\"spans\": %zu, \"dropped\": %zu}}\n",
               Done.size(), Done.size() - N);
  return std::fclose(F) == 0;
}

} // namespace perfbench
