//===----------------------------------------------------------------------===//
///
/// \file
/// The transformer runtime (paper §2.3, §3.4).
///
/// TransformCtx is the privileged interface handwritten transformer bodies
/// run against: by-name field access that bypasses access modifiers and
/// final-ness (the paper's JastAdd extension), allocation, and the forced
/// transform of a referenced object (with cycle detection). Misuse (null,
/// unknown field, int/ref mismatch, index out of bounds) throws
/// UpdateError("transform").
///
/// Every other old -> new field copy runs a FieldMovePlan: slot moves from
/// same-name same-type matching plus the field sources synthesis records.
/// TransformerRunner memoizes one plan per (old ClassId, new ClassId) pair
/// (a handwritten transformer still wins) and runs class transformers or
/// static plans, then object transformers or instance plans, over the
/// update log. Lazy bulk-settle and canary undo capture read the same memo.
///
//===----------------------------------------------------------------------===//

#ifndef JVOLVE_DSU_TRANSFORMERS_H
#define JVOLVE_DSU_TRANSFORMERS_H

#include "dsu/UpdateBundle.h"
#include "heap/Collector.h"
#include "vm/VM.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace jvolve {

/// One resolved field move: old slot Src (object offset or statics index)
/// to new slot Dst; int and reference fields are both one 8-byte slot.
struct FieldMove {
  uint32_t Src = 0, Dst = 0;
};

/// Which old field feeds which new field, for one (old, new) class pair.
struct FieldMovePlan {
  std::vector<FieldMove> Moves;
  /// Old fields with no same-name same-type new field, whatever the
  /// explicit sources say: the values a canary undo log must retain.
  std::vector<const RtField *> Unmatched;
  /// Every field moves to the same slot of an equal-length field list.
  bool Identity = false;
  /// Set when an explicit source names a missing old field; every
  /// transform of the pair rethrows it as UpdateError("transform").
  std::string Error;

  /// Resolves \p Old's instance fields (or statics) into \p New's: each
  /// new field's source in \p Sources[New], else the same-name field, moved
  /// when the types match. A null \p New (a deleted class) has no fields.
  static FieldMovePlan
  resolve(const RtClass &Old, const RtClass *New, bool Statics,
          const std::map<std::string, FieldSourceMap> &Sources);

  /// Copies every instance move from \p From into \p To; throws Error.
  void apply(Ref To, Ref From) const;
};

/// Privileged accessor passed to transformer bodies.
class TransformCtx {
public:
  TransformCtx(VM &TheVM, class TransformerRunner *Runner)
      : TheVM(TheVM), Runner(Runner) {}

  //===--- Instance fields (by name; access modifiers are bypassed) -------===//
  int64_t getInt(Ref Obj, const std::string &Field) const;
  Ref getRef(Ref Obj, const std::string &Field) const;
  void setInt(Ref Obj, const std::string &Field, int64_t Value);
  void setRef(Ref Obj, const std::string &Field, Ref Value);

  //===--- Statics (works on renamed obsolete classes too) ----------------===//
  int64_t getStaticInt(const std::string &Cls, const std::string &Field) const;
  Ref getStaticRef(const std::string &Cls, const std::string &Field) const;
  void setStaticInt(const std::string &Cls, const std::string &Field,
                    int64_t Value);
  void setStaticRef(const std::string &Cls, const std::string &Field,
                    Ref Value);

  //===--- Allocation ------------------------------------------------------===//
  Ref allocate(const std::string &ClassName);
  Ref allocateArray(const std::string &ElemDesc, int64_t Length);
  Ref newString(const std::string &Payload);
  std::string stringValue(Ref Str) const;

  //===--- Arrays -----------------------------------------------------------===//
  int64_t arrayLength(Ref Arr) const;
  Ref getElemRef(Ref Arr, int64_t Index) const;
  int64_t getElemInt(Ref Arr, int64_t Index) const;
  void setElemRef(Ref Arr, int64_t Index, Ref Value);
  void setElemInt(Ref Arr, int64_t Index, int64_t Value);

  /// The paper's special VM function: if \p Obj is a new-version object
  /// whose transformer has not run yet, run it now. Throws
  /// UpdateError("transform") on a transformer cycle (an ill-defined
  /// transformer set); the updater rolls the update back.
  void ensureTransformed(Ref Obj);

  /// The default transform a handwritten body can build on: runs the
  /// field-move plan from \p From into \p To, or \p NewClass's static
  /// plan from its renamed old class.
  void defaultTransform(Ref To, Ref From);
  void defaultClassTransform(const std::string &NewClass);

  VM &vm() { return TheVM; }

private:
  const RtField &fieldOf(Ref Obj, const std::string &Field, bool IsRef) const;
  uint32_t elemOffset(Ref Arr, int64_t Index) const;

  VM &TheVM;
  class TransformerRunner *Runner;
};

/// Runs class and object transformers after a DSU collection.
class TransformerRunner {
public:
  TransformerRunner(VM &TheVM, const UpdateBundle &Bundle,
                    std::vector<UpdateLogEntry> &UpdateLog);

  /// Executes all class transformers, then all object transformers.
  void runAll();

  /// Executes only the class transformers (statics). The lazy engine runs
  /// these eagerly at commit — statics have no read barrier — and defers
  /// the per-object work.
  void runClassTransformers();

  /// Transforms the log entry at \p Index (cycle-safe; no-op when already
  /// done or failed). The lazy engine's drain loop uses this.
  void transformAt(size_t Index);

  /// Force-transforms the log entry for \p NewObj, found through its
  /// header (shellLogIndex); a no-op when \p NewObj is not a pending
  /// new-version shell of this log.
  void ensureTransformed(Ref NewObj);

  uint64_t objectsTransformed() const { return NumTransformed; }

  /// How instances of \p OldId become \p NewId, memoized: the handwritten
  /// transformer of the new class (null when none) and the field-move plan.
  struct Resolution {
    const ObjectTransformer *Handwritten = nullptr;
    FieldMovePlan Plan;
  };
  const Resolution &resolve(ClassId OldId, ClassId NewId);

  /// Runs \p NewClass's static plan from its renamed old class; a no-op
  /// when either class is missing (pure additions).
  void defaultClassTransform(const std::string &NewClass);

private:
  VM &TheVM;
  const UpdateBundle &Bundle;
  std::vector<UpdateLogEntry> &UpdateLog;
  std::unordered_map<uint64_t, Resolution> Memo;
  uint64_t NumTransformed = 0;
};

} // namespace jvolve

#endif // JVOLVE_DSU_TRANSFORMERS_H
