//===- perfbench/src/Trace.h - Spans around layer calls -------*- C++ -*-===//
//
// The traced run's recorder. The benchmark wraps each call it makes into
// a GRASSP layer (synth, chc, jit, runtime, dist, serve, lang) in a Span
// named after the public function; nothing inside src/ is instrumented.
// Spans record module, name, start, end, parent span and a request or
// program id, stay in memory, and are written as Chrome trace-event JSON
// when the run ends. Module "bench" marks the benchmark's own phases;
// they parent layer spans but are not a layer.
//
// Disabled (the default, and every untraced run), a Span costs one
// relaxed atomic load.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
public:
  static Tracer &get();

  void setEnabled(bool On) { Enabled.store(On, std::memory_order_relaxed); }
  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }

  /// Opens a span on the calling thread. \p Parent 0 means the
  /// innermost span open on this thread.
  uint64_t begin(const char *Module, const char *Name, std::string Ref,
                 uint64_t Parent);
  void end(uint64_t Id);
  /// The innermost span open on the calling thread (0 = none).
  uint64_t current() const;

  size_t spanCount() const;
  /// Share of [FromNs, ToNs] covered by the union of layer spans (every
  /// module but "bench"), across all threads.
  double coverage(int64_t FromNs, int64_t ToNs) const;
  /// Per module: summed span time minus the part of each span that its
  /// child spans cover.
  std::map<std::string, double> selfSeconds() const;
  /// Writes at most \p MaxEvents spans (the earliest ended) as Chrome
  /// trace-event JSON; the drop count goes into "otherData".
  bool writeChrome(const std::string &Path, size_t MaxEvents) const;

  struct Rec {
    const char *Module;
    const char *Name;
    std::string Ref;
    int64_t StartNs;
    int64_t EndNs;
    uint64_t Id;
    uint64_t Parent;
    uint32_t Tid;
  };

private:
  std::atomic<bool> Enabled{false};
  std::atomic<uint64_t> NextId{1};
  mutable std::mutex M; // guards Done.
  std::vector<Rec> Done;
};

/// RAII span; a no-op when tracing is off.
class Span {
public:
  Span(const char *Module, const char *Name, std::string Ref = {},
       uint64_t Parent = 0)
      : Id(Tracer::get().enabled()
               ? Tracer::get().begin(Module, Name, std::move(Ref), Parent)
               : 0) {}
  ~Span() {
    if (Id)
      Tracer::get().end(Id);
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  uint64_t id() const { return Id; }

private:
  uint64_t Id;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
