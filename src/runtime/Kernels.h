//===- runtime/Kernels.h - Compiled execution kernels --------------------===//
//
// Fast concrete execution of serial programs and synthesized plans. Step
// functions, output functions, prefix predicates, and the summary tables
// are compiled to register bytecode (ir/Bytecode.h) once, then folded
// over millions of elements.
//
// Scalar programs fold on one of three tiers. CompiledProgram selects
// the first one available, and every caller (serial run, parallel
// workers, merge repair) goes through that same selection, so measured
// speedups compare like against like:
//
//   Native      - the optimized bytecode compiled to a real machine-code
//                 fold loop by the host compiler (jit/NativeKernel.h)
//                 and dlopen'd; present when a host compiler exists.
//   LoopVM      - the whole segment loop runs inside the bytecode VM
//                 (BytecodeFunction::foldLoop) on peephole-optimized
//                 bytecode with threaded dispatch. The fallback when
//                 there is no native kernel.
//   PerElement  - one BytecodeFunction::run call per element; the
//                 portable baseline kept as a differential reference.
//
// Bag-typed programs have exactly one tier, Specialized: the hash-set
// distinct kernel (runtime/DistinctSet.h), which is their semantics
// rather than an optimization.
//
// All tiers are semantically identical by construction and certified by
// the differential oracle (testing/DiffOracle runs every available tier
// on every fuzzed workload).
//
// These kernels implement exactly the ParallelPlan semantics of
// synth/PlanEval.h; a property test cross-checks them against the
// domain-generic reference executor.
//
//===----------------------------------------------------------------------===//

#ifndef GRASSP_RUNTIME_KERNELS_H
#define GRASSP_RUNTIME_KERNELS_H

#include "ir/Bytecode.h"
#include "jit/NativeKernel.h"
#include "runtime/Workload.h"
#include "synth/ParallelPlan.h"

#include <cstdint>
#include <string>
#include <vector>

namespace grassp {
namespace runtime {

class SegmentSource;

/// Execution tiers. Scalar programs select Native, then LoopVM;
/// Specialized is the bag programs' hash-set distinct kernel only.
enum class ExecTier : uint8_t { Specialized, Native, LoopVM, PerElement };

/// "specialized" / "native" / "loop-vm" / "per-element".
const char *execTierName(ExecTier T);

/// The serial program compiled to bytecode (scalar states) or routed to
/// the native distinct-elements kernel (bag states).
class CompiledProgram {
public:
  /// \p AllowNative gates the jit-compiled tier (`--no-native`); the
  /// tier also stays off when GRASSP_JIT_DISABLE is set, no host
  /// compiler exists or the compile fails, and selectionReason() says
  /// which. The bag programs' hash-set kernel is not affected.
  explicit CompiledProgram(const lang::SerialProgram &Prog,
                           bool AllowNative = true);

  bool usesBag() const { return Bag; }
  const lang::SerialProgram &program() const { return Prog; }

  /// Canonical hash of the optimized step bytecode — the same key the
  /// jit KernelCache uses, so it identifies the compiled plan across
  /// process boundaries (the dist runtime's fork handshake verifies a
  /// worker inherited the coordinator's plan by comparing this hash).
  uint64_t bytecodeHash() const;

  /// The tier all fold entry points run on.
  ExecTier tier() const { return Tier; }
  bool tierAvailable(ExecTier T) const;
  /// Why tier() was selected: "native", "loop-vm (--no-native)",
  /// "loop-vm (GRASSP_JIT_DISABLE)", "loop-vm (no host compiler)",
  /// "loop-vm (compile failed: <jit error>)" or
  /// "specialized (bag: hash-set distinct)".
  const std::string &selectionReason() const { return Reason; }

  /// d0 as a flat int64 vector (Bools are 0/1). Bag programs return {}.
  std::vector<int64_t> initialState() const;

  /// In-place fold of f over \p Seg on the selected tier. Uses
  /// thread-local scratch only, so a shared CompiledProgram is
  /// const-callable from concurrent workers.
  void foldSegment(std::vector<int64_t> &State, SegmentView Seg) const;

  /// Same fold forced onto tier \p T (differential testing; \p T must be
  /// available).
  void foldSegmentTier(ExecTier T, std::vector<int64_t> &State,
                       SegmentView Seg) const;

  /// One f step.
  void step(std::vector<int64_t> &State, int64_t El) const;

  /// h. Uses thread-local scratch only; const-callable concurrently.
  int64_t output(const std::vector<int64_t> &State) const;

  /// Serial run over consecutive segments (bag programs included).
  int64_t runSerial(const std::vector<SegmentView> &Segs) const;

  /// Serial run forced onto tier \p T (must be available). For bag
  /// programs only the Specialized (hash-set) tier exists.
  int64_t runSerialTier(ExecTier T, const std::vector<SegmentView> &Segs) const;

  /// Serial run over a SegmentSource, one chunk resident at a time —
  /// the out-of-core path. Bit-identical to runSerial over the same
  /// element stream (a fold over [c0 ++ c1 ++ ...] is a fold).
  int64_t runSerialSource(const SegmentSource &Src) const;
  int64_t runSerialSourceTier(ExecTier T, const SegmentSource &Src) const;

private:
  const lang::SerialProgram &Prog;
  bool Bag = false;
  ExecTier Tier = ExecTier::PerElement;
  std::string Reason;
  ir::BytecodeFunction StepFn;   // unoptimized; the per-element tier.
  ir::BytecodeFunction StepOpt;  // peephole-optimized; the loop-VM tier.
  ir::BytecodeFunction OutputFn; // inputs: fields.
  std::shared_ptr<const jit::NativeKernel> Native; // the jit tier.
};

/// Per-segment worker output (conditional-prefix scenarios carry summary
/// tables; the distinct kernel carries its local element set).
struct WorkerOutput {
  bool Found = false;
  int64_t Boundary = 0;
  std::vector<int64_t> D;

  std::vector<uint32_t> CtrlCur;                  // [v] -> valuation idx
  std::vector<std::vector<std::pair<int64_t, int64_t>>> ModeArg; // [v][j]

  std::vector<int64_t> PrefixData; // refold scenario

  /// Bag kernel: the distinct elements in insertion order (hash-set
  /// membership; see runtime/DistinctSet.h).
  std::vector<int64_t> Distinct;
};

/// A synthesized plan compiled for fast segment-parallel execution.
class CompiledPlan {
public:
  CompiledPlan(const lang::SerialProgram &Prog,
               const synth::ParallelPlan &Plan, bool AllowNative = true);

  /// Runs the per-segment worker (safe to call concurrently).
  WorkerOutput runWorker(SegmentView Seg) const;

  /// Merges worker outputs into the final output. \p Segs is consulted
  /// by constant-prefix plans for the repair elements: only the first
  /// min(PrefixLen, Size) elements of each segment are ever read, so
  /// out-of-core callers may pass head-buffer views whose Size is the
  /// true segment length but whose Data holds only that prefix.
  int64_t merge(const std::vector<WorkerOutput> &Workers,
                const std::vector<SegmentView> &Segs) const;

  /// The certified binary merge on scalar partial states (the m the
  /// CHC engine certified; merge() left-folds it). Public so the
  /// MergeTree can re-associate it over a balanced tree — sound because
  /// certification makes m associative on fold images.
  std::vector<int64_t> mergeStates(const std::vector<int64_t> &A,
                                   const std::vector<int64_t> &B) const;

  const synth::ParallelPlan &plan() const { return Plan; }
  const CompiledProgram &compiled() const { return Compiled; }

private:
  WorkerOutput runScanWorker(SegmentView Seg) const;
  WorkerOutput runCondWorker(SegmentView Seg) const;
  void applyUpd(std::vector<int64_t> &C, const WorkerOutput &W) const;
  void combineAtBoundary(std::vector<int64_t> &C,
                         const WorkerOutput &W) const;
  int64_t applyFlavor(synth::AccFlavor F, int64_t A, int64_t B) const;

  const lang::SerialProgram &Prog;
  const synth::ParallelPlan &Plan;
  CompiledProgram Compiled;

  // Conditional-prefix machinery, compiled.
  ir::BytecodeFunction PcFn; // inputs: "in".
  std::vector<std::vector<ir::BytecodeFunction>> CtrlStepFns; // [v][k]
  std::vector<std::vector<ir::BytecodeFunction>> ModeFns;     // [v][j]
  std::vector<std::vector<ir::BytecodeFunction>> ArgFns;      // [v][j]
};

} // namespace runtime
} // namespace grassp

#endif // GRASSP_RUNTIME_KERNELS_H
