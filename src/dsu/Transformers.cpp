#include "dsu/Transformers.h"

#include "runtime/ObjectModel.h"
#include "support/Error.h"

using namespace jvolve;

const RtField &TransformCtx::fieldOf(Ref Obj, const std::string &Field,
                                     bool IsRef) const {
  if (!Obj)
    throw UpdateError("transform", "field '" + Field + "' accessed on null");
  const RtClass &C = TheVM.registry().cls(classOf(Obj));
  const RtField *F = C.findInstanceField(Field);
  if (!F)
    throw UpdateError("transform", "class " + C.Name + " has no field '" +
                                       Field + "'");
  if (F->IsRef != IsRef)
    throw UpdateError("transform", C.Name + "." + Field + " is" +
                                       (IsRef ? " not" : "") + " a reference");
  return *F;
}

int64_t TransformCtx::getInt(Ref Obj, const std::string &Field) const {
  return getIntAt(Obj, fieldOf(Obj, Field, false).Offset);
}

Ref TransformCtx::getRef(Ref Obj, const std::string &Field) const {
  return getRefAt(Obj, fieldOf(Obj, Field, true).Offset);
}

void TransformCtx::setInt(Ref Obj, const std::string &Field, int64_t Value) {
  setIntAt(Obj, fieldOf(Obj, Field, false).Offset, Value);
}

void TransformCtx::setRef(Ref Obj, const std::string &Field, Ref Value) {
  setRefAt(Obj, fieldOf(Obj, Field, true).Offset, Value);
}

static Slot *staticSlot(VM &TheVM, const std::string &Cls,
                        const std::string &Field) {
  ClassId Id = TheVM.registry().idOf(Cls);
  if (Id == InvalidClassId)
    throw UpdateError("transform", "unknown class '" + Cls + "'");
  ClassId Declaring = InvalidClassId;
  RtField *F = TheVM.registry().resolveStaticField(Id, Field, &Declaring);
  if (!F)
    throw UpdateError("transform", "class " + Cls + " has no static '" +
                                       Field + "'");
  return &TheVM.registry().cls(Declaring).Statics[F->Offset];
}

int64_t TransformCtx::getStaticInt(const std::string &Cls,
                                   const std::string &Field) const {
  return staticSlot(TheVM, Cls, Field)->IntVal;
}

Ref TransformCtx::getStaticRef(const std::string &Cls,
                               const std::string &Field) const {
  return staticSlot(TheVM, Cls, Field)->RefVal;
}

void TransformCtx::setStaticInt(const std::string &Cls,
                                const std::string &Field, int64_t Value) {
  *staticSlot(TheVM, Cls, Field) = Slot::ofInt(Value);
}

void TransformCtx::setStaticRef(const std::string &Cls,
                                const std::string &Field, Ref Value) {
  *staticSlot(TheVM, Cls, Field) = Slot::ofRef(Value);
}

Ref TransformCtx::allocate(const std::string &ClassName) {
  ClassId Id = TheVM.registry().idOf(ClassName);
  if (Id == InvalidClassId)
    throw UpdateError("transform", "unknown class '" + ClassName + "'");
  return TheVM.allocateObject(Id);
}

Ref TransformCtx::allocateArray(const std::string &ElemDesc, int64_t Length) {
  ClassId ArrId = TheVM.registry().arrayClassOf(Type::parse(ElemDesc));
  return TheVM.allocateArray(ArrId, Length);
}

Ref TransformCtx::newString(const std::string &Payload) {
  return TheVM.newString(Payload);
}

std::string TransformCtx::stringValue(Ref Str) const {
  return TheVM.stringValue(Str);
}

int64_t TransformCtx::arrayLength(Ref Arr) const {
  if (!Arr)
    throw UpdateError("transform", "array access on null");
  return jvolve::arrayLength(Arr);
}

uint32_t TransformCtx::elemOffset(Ref Arr, int64_t Index) const {
  int64_t Length = arrayLength(Arr);
  if (Index < 0 || Index >= Length)
    throw UpdateError("transform", "array index " + std::to_string(Index) +
                                       " out of bounds (length " +
                                       std::to_string(Length) + ")");
  return arrayElemOffset(Index);
}

Ref TransformCtx::getElemRef(Ref Arr, int64_t Index) const {
  return getRefAt(Arr, elemOffset(Arr, Index));
}

int64_t TransformCtx::getElemInt(Ref Arr, int64_t Index) const {
  return getIntAt(Arr, elemOffset(Arr, Index));
}

void TransformCtx::setElemRef(Ref Arr, int64_t Index, Ref Value) {
  setRefAt(Arr, elemOffset(Arr, Index), Value);
}

void TransformCtx::setElemInt(Ref Arr, int64_t Index, int64_t Value) {
  setIntAt(Arr, elemOffset(Arr, Index), Value);
}

void TransformCtx::ensureTransformed(Ref Obj) {
  if (Runner && Obj)
    Runner->ensureTransformed(Obj);
}

void TransformCtx::defaultTransform(Ref To, Ref From) {
  if (!Runner)
    throw UpdateError("transform", "default transform outside an update");
  Runner->resolve(classOf(From), classOf(To)).Plan.apply(To, From);
}

void TransformCtx::defaultClassTransform(const std::string &NewClass) {
  if (!Runner)
    throw UpdateError("transform", "default transform outside an update");
  Runner->defaultClassTransform(NewClass);
}

FieldMovePlan
FieldMovePlan::resolve(const RtClass &Old, const RtClass *New, bool Statics,
                       const std::map<std::string, FieldSourceMap> &Sources) {
  static const std::vector<RtField> NoFields;
  static const FieldSourceMap NoSources;
  const auto &OldFields = Statics ? Old.StaticFields : Old.InstanceFields;
  const auto &NewFields =
      !New ? NoFields : Statics ? New->StaticFields : New->InstanceFields;
  auto ClassSources = New ? Sources.find(New->Name) : Sources.end();
  const FieldSourceMap &Explicit =
      ClassSources == Sources.end() ? NoSources : ClassSources->second;
  auto Find = [Statics](const RtClass &C, const std::string &Name) {
    return Statics ? C.findStaticField(Name) : C.findInstanceField(Name);
  };
  FieldMovePlan P;
  P.Identity = OldFields.size() == NewFields.size();
  for (const RtField &NF : NewFields) {
    auto Src = Explicit.find(NF.Name);
    const std::string &SrcName = Src == Explicit.end() ? NF.Name : Src->second;
    const RtField *OF = Find(Old, SrcName);
    if (!OF && Src != Explicit.end() && P.Error.empty())
      P.Error = "class " + Old.Name + " has no field '" + SrcName + "'";
    bool Moved = OF && OF->Ty == NF.Ty; // else NF keeps its default value
    if (Moved)
      P.Moves.push_back({OF->Offset, NF.Offset});
    P.Identity = P.Identity && Moved && OF->Offset == NF.Offset;
  }
  for (const RtField &OF : OldFields) {
    const RtField *NF = New ? Find(*New, OF.Name) : nullptr;
    if (!NF || NF->Ty != OF.Ty)
      P.Unmatched.push_back(&OF);
  }
  return P;
}

void FieldMovePlan::apply(Ref To, Ref From) const {
  if (!Error.empty())
    throw UpdateError("transform", Error);
  for (const FieldMove &M : Moves)
    setIntAt(To, M.Dst, getIntAt(From, M.Src));
}

TransformerRunner::TransformerRunner(VM &TheVM, const UpdateBundle &Bundle,
                                     std::vector<UpdateLogEntry> &UpdateLog)
    : TheVM(TheVM), Bundle(Bundle), UpdateLog(UpdateLog) {}

const TransformerRunner::Resolution &
TransformerRunner::resolve(ClassId OldId, ClassId NewId) {
  auto [It, Fresh] =
      Memo.try_emplace((static_cast<uint64_t>(OldId) << 32) | NewId);
  Resolution &R = It->second;
  if (!Fresh)
    return R;
  const RtClass &New = TheVM.registry().cls(NewId);
  auto Hand = Bundle.ObjectTransformers.find(New.Name);
  if (Hand != Bundle.ObjectTransformers.end())
    R.Handwritten = &Hand->second;
  R.Plan = FieldMovePlan::resolve(TheVM.registry().cls(OldId), &New,
                                  /*Statics=*/false, Bundle.FieldSources);
  return R;
}

void TransformerRunner::defaultClassTransform(const std::string &NewClass) {
  ClassRegistry &Reg = TheVM.registry();
  ClassId NewId = Reg.idOf(NewClass);
  ClassId OldId = Reg.idOf(Bundle.renamedOldClass(NewClass));
  if (NewId == InvalidClassId || OldId == InvalidClassId)
    return;
  RtClass &New = Reg.cls(NewId);
  RtClass &Old = Reg.cls(OldId);
  FieldMovePlan P = FieldMovePlan::resolve(Old, &New, /*Statics=*/true,
                                           Bundle.StaticFieldSources);
  if (!P.Error.empty())
    throw UpdateError("transform", P.Error);
  for (const FieldMove &M : P.Moves)
    New.Statics[M.Dst] = Old.Statics[M.Src];
}

void TransformerRunner::transformAt(size_t Index) {
  UpdateLogEntry &E = UpdateLog[Index];
  if (E.St == UpdateLogEntry::State::InProgress ||
      TheVM.faults().probe(FaultInjector::Site::TransformerCycle)) {
    // A cycle of jvolveObject calls constitutes one or more ill-defined
    // transformer functions (paper §3.4); the update cannot proceed.
    throw UpdateError("transform",
                      "transformer cycle detected while updating " +
                          TheVM.registry().cls(classOf(E.NewObj)).Name);
  }
  if (E.St == UpdateLogEntry::State::Done ||
      E.St == UpdateLogEntry::State::Failed)
    return;
  E.St = UpdateLogEntry::State::InProgress;

  if (TheVM.faults().probe(FaultInjector::Site::TransformerNthObject))
    throw UpdateError("transform",
                      "injected transformer fault on object #" +
                          std::to_string(Index) + " (class " +
                          TheVM.registry().cls(classOf(E.NewObj)).Name + ")");
  const Resolution &R = resolve(classOf(E.OldCopy), classOf(E.NewObj));
  if (R.Handwritten) {
    TransformCtx Ctx(TheVM, this);
    (*R.Handwritten)(Ctx, E.NewObj, E.OldCopy);
  } else {
    R.Plan.apply(E.NewObj, E.OldCopy);
  }

  header(E.NewObj)->Flags &= ~(FlagUninitialized | FlagLazyPending);
  E.St = UpdateLogEntry::State::Done;
  ++NumTransformed;
}

void TransformerRunner::ensureTransformed(Ref NewObj) {
  size_t I = shellLogIndex(UpdateLog, NewObj);
  if (I < UpdateLog.size())
    transformAt(I);
}

void TransformerRunner::runClassTransformers() {
  // Class transformers first (paper §3.4), static plans for the rest.
  TransformCtx Ctx(TheVM, this);
  for (const std::string &Name : Bundle.Spec.ClassUpdates) {
    auto It = Bundle.ClassTransformers.find(Name);
    if (It != Bundle.ClassTransformers.end())
      It->second(Ctx);
    else
      defaultClassTransform(Name);
  }
}

void TransformerRunner::runAll() {
  // The updater holds setTransformationInProgress across the whole install
  // transaction (snapshot to commit), so it is already set here.
  runClassTransformers();

  // Then object transformers over the whole update log.
  for (size_t I = 0; I < UpdateLog.size(); ++I)
    transformAt(I);
}
