#include "heap/HeapVerifier.h"

#include "runtime/ObjectModel.h"

#include <bit>

using namespace jvolve;

namespace {

/// Cap on reported problems: catastrophic corruption would otherwise
/// flood the report with one line per broken reference.
constexpr size_t MaxProblems = 32;

/// Why a reference failed the object-start test. The check itself only
/// produces this code; the message naming the slot is built from it on
/// failure, so a clean heap costs no string work.
enum class RefFault : uint8_t { None, Outside, Interior };

const char *faultText(RefFault F) {
  return F == RefFault::Outside ? " points outside the live heap"
                                : " points into the middle of an object";
}

/// What pass 2 does with an object of one class, resolved once per verify
/// call so the per-object loop does no name lookups.
struct ClassPlan {
  enum Kind : uint8_t { NoRefs, Fields, RefArray, Skipped } K = NoRefs;
  uint32_t RefBegin = 0, RefEnd = 0; ///< range in the RefFields table
};

} // namespace

std::vector<std::string> HeapVerifier::verify(
    const std::function<void(const std::function<void(Ref &)> &)>
        &EnumerateRoots) {
  std::vector<std::string> Problems;
  auto Report = [&Problems](const std::string &Msg) {
    if (Problems.size() < MaxProblems)
      Problems.push_back(Msg);
  };

  // Pass 1: linear walk; record valid object starts, one bit per 8-byte
  // granule (objects are 8-byte aligned, so heap/64 bytes of bitmap cover
  // every possible start).
  uint8_t *Base = TheHeap.currentSpaceStart();
  const size_t Used = TheHeap.bytesAllocated();
  std::vector<uint64_t> Starts((Used / 8 + 63) / 64);
  size_t Offset = 0;
  NumObjects = 0;
  while (Offset < Used) {
    Ref Obj = Base + Offset;
    ObjectHeader *H = header(Obj);
    if (H->Class >= Registry.numClasses()) {
      Report("object at +" + std::to_string(Offset) +
             " has invalid class id " + std::to_string(H->Class));
      break; // cannot size it; the walk is lost
    }
    const RtClass &Cls = Registry.cls(H->Class);
    if (H->Flags & FlagForwarded)
      Report("object at +" + std::to_string(Offset) + " (" + Cls.Name +
             ") is forwarded outside a collection");
    if (H->Flags & FlagUninitialized) {
      // Lazy mode: a shell may stay uninitialized while the engine still
      // lists it as pending — it must then also carry the barrier flag.
      bool PendingShell = (H->Flags & FlagLazyPending) &&
                          LazyIsPendingShell && LazyIsPendingShell(Obj);
      if (!PendingShell)
        Report("object at +" + std::to_string(Offset) + " (" + Cls.Name +
               ") is uninitialized outside an update");
    } else if (H->Flags & FlagLazyPending) {
      Report("object at +" + std::to_string(Offset) + " (" + Cls.Name +
             ") carries a lazy-pending flag but is initialized");
    }
    if (Cls.IsArray != ((H->Flags & FlagArray) != 0))
      Report("object at +" + std::to_string(Offset) +
             " array flag disagrees with class " + Cls.Name);
    if (Cls.IsArray &&
        Cls.ElemIsRef != ((H->Flags & FlagRefArray) != 0))
      Report("array at +" + std::to_string(Offset) +
             " ref-array flag disagrees with element kind of " + Cls.Name);

    size_t Bytes = objectBytes(Cls, Obj);
    if (Offset + Bytes > Used) {
      Report("object at +" + std::to_string(Offset) + " (" + Cls.Name +
             ") extends past the allocated heap");
      break;
    }
    Starts[Offset >> 9] |= uint64_t(1) << ((Offset >> 3) & 63);
    Offset += (Bytes + 7) & ~size_t(7);
    ++NumObjects;
  }

  // Null, or the start of an object pass 1 walked. A pointer off the
  // 8-byte grid can never be a start.
  auto Classify = [&](Ref Val) {
    if (!Val)
      return RefFault::None;
    if (Val < Base || Val >= Base + Used)
      return RefFault::Outside;
    size_t Off = static_cast<size_t>(Val - Base);
    if ((Off & 7) || !((Starts[Off >> 9] >> ((Off >> 3) & 63)) & 1))
      return RefFault::Interior;
    return RefFault::None;
  };
  // Builds the "<where> points ..." text only for a failed check.
  auto ReportRef = [&](RefFault F, const auto &Where) {
    if (F != RefFault::None && Problems.size() < MaxProblems)
      Problems.push_back(Where() + faultText(F));
  };

  // Per-class plans for pass 2. A class focus (partial certification)
  // narrows the non-array field checks to the impacted classes; arrays are
  // always checked because element stores are cheap to validate and
  // arrays carry no per-class layout to have changed.
  std::vector<ClassPlan> Plans(Registry.numClasses());
  std::vector<const RtField *> RefFields;
  for (ClassId Id = 0; Id < Plans.size(); ++Id) {
    const RtClass &Cls = Registry.cls(Id);
    ClassPlan &P = Plans[Id];
    if (Cls.IsArray) {
      P.K = Cls.ElemIsRef ? ClassPlan::RefArray : ClassPlan::NoRefs;
      continue;
    }
    if (HasClassFocus && !ClassFocus.count(Cls.Name)) {
      P.K = ClassPlan::Skipped;
      continue;
    }
    P.RefBegin = static_cast<uint32_t>(RefFields.size());
    for (const RtField &F : Cls.InstanceFields)
      if (F.IsRef)
        RefFields.push_back(&F);
    P.RefEnd = static_cast<uint32_t>(RefFields.size());
    if (P.RefEnd != P.RefBegin)
      P.K = ClassPlan::Fields;
  }

  // Pass 2: every reference field/element, objects in address order.
  NumSkipped = 0;
  for (size_t W = 0; W < Starts.size(); ++W) {
    for (uint64_t Bits = Starts[W]; Bits; Bits &= Bits - 1) {
      Ref Obj = Base + (W * 64 + std::countr_zero(Bits)) * 8;
      ClassId Id = classOf(Obj);
      const ClassPlan &P = Plans[Id];
      switch (P.K) {
      case ClassPlan::NoRefs:
        break;
      case ClassPlan::Skipped:
        ++NumSkipped;
        break;
      case ClassPlan::Fields:
        for (uint32_t I = P.RefBegin; I < P.RefEnd; ++I) {
          const RtField *F = RefFields[I];
          ReportRef(Classify(getRefAt(Obj, F->Offset)), [&] {
            return Registry.cls(Id).Name + "." + F->Name;
          });
        }
        break;
      case ClassPlan::RefArray: {
        int64_t Len = arrayLength(Obj);
        for (int64_t I = 0; I < Len; ++I)
          ReportRef(Classify(getRefAt(Obj, arrayElemOffset(I))), [&] {
            return Registry.cls(Id).Name + "[" + std::to_string(I) + "]";
          });
        break;
      }
      }
    }
  }

  // Pass 3: roots.
  size_t RootIndex = 0;
  EnumerateRoots([&](Ref &R) {
    ReportRef(Classify(R),
              [&] { return "root #" + std::to_string(RootIndex); });
    ++RootIndex;
  });

  // The old-copy block must be released once nothing legitimately holds
  // it (eager updates release it right after the transformers; a lazy
  // engine at barrier retirement).
  if (TheHeap.hasOldCopySpace() && !AllowOldCopyReserved)
    Report("old-copy space still reserved (" +
           std::to_string(TheHeap.oldCopyBytesUsed()) +
           " bytes) with no update draining");

  return Problems;
}
