#include "heap/Heap.h"

#include "runtime/ObjectModel.h"
#include "support/Error.h"

#include <cstring>
#include <sys/mman.h>
#include <unistd.h>

using namespace jvolve;

/// Keep every object 8-byte aligned.
static size_t alignUp(size_t Bytes) { return (Bytes + 7) & ~size_t(7); }

Heap::Heap(size_t Bytes)
    : SpaceBytes(alignUp(Bytes)),
      TelObjectsAllocated(
          Telemetry::global().counter(metrics::HeapObjectsAllocated)),
      TelBytesAllocated(
          Telemetry::global().counter(metrics::HeapBytesAllocated)) {
  if (SpaceBytes < 4096)
    fatalError("heap semi-space too small");
  // Anonymous mappings commit pages on first touch, so an untouched tail
  // of a space costs nothing resident.
  size_t Page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  size_t Usable = (SpaceBytes + Page - 1) & ~(Page - 1);
  MappedBytes = Usable + Page;
  for (uint8_t *&Space : Spaces) {
    void *M = mmap(nullptr, MappedBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (M == MAP_FAILED)
      fatalError("cannot map heap semi-space");
    Space = static_cast<uint8_t *>(M);
    if (mprotect(Space + Usable, Page, PROT_NONE) != 0)
      fatalError("cannot protect heap guard page");
  }
}

Heap::~Heap() {
  for (uint8_t *Space : Spaces)
    munmap(Space, MappedBytes);
}

Ref Heap::allocateRaw(size_t Bytes) {
  Bytes = alignUp(Bytes);
  if (Bump[Current] + Bytes > SpaceBytes)
    return nullptr;
  Ref Obj = Spaces[Current] + Bump[Current];
  Bump[Current] += Bytes;
  return Obj;
}

Ref Heap::allocateInOtherSpace(size_t Bytes) {
  Bytes = alignUp(Bytes);
  int Other = 1 - Current;
  if (Bump[Other] + Bytes > SpaceBytes)
    fatalError("to-space exhausted during collection; "
               "enlarge the heap (DSU needs room for duplicate copies)");
  Ref Obj = Spaces[Other] + Bump[Other];
  Bump[Other] += Bytes;
  return Obj;
}

Ref Heap::tryAllocateInOtherSpace(size_t Bytes) {
  Bytes = alignUp(Bytes);
  int Other = 1 - Current;
  if (Bump[Other] + Bytes > SpaceBytes)
    return nullptr;
  Ref Obj = Spaces[Other] + Bump[Other];
  Bump[Other] += Bytes;
  return Obj;
}

void Heap::txRollback(const TxSnapshot &S) {
  // Works whether or not the failed update reached flip(): make the
  // snapshot's space current again at its snapshot fill level, and empty
  // the other space (everything the aborted collection copied there is
  // garbage). flip() zeroed the old space's bump, so the saved value is
  // authoritative either way.
  Current = S.CurrentIndex;
  Bump[Current] = S.BumpBytes;
  Bump[1 - Current] = 0;
  if (OldCopy)
    releaseOldCopySpace();
}

Ref Heap::allocateObject(const RtClass &Cls) {
  assert(!Cls.IsArray && "use allocateArray for arrays");
  Ref Obj = allocateRaw(Cls.InstanceSize);
  if (!Obj)
    return nullptr;
  std::memset(Obj, 0, Cls.InstanceSize);
  ObjectHeader *H = header(Obj);
  H->Class = Cls.Id;
  H->Flags = 0;
  ++NumAllocated;
  TelObjectsAllocated.inc();
  TelBytesAllocated.add(Cls.InstanceSize);
  return Obj;
}

Ref Heap::allocateArray(const RtClass &ArrCls, int64_t Length) {
  assert(ArrCls.IsArray && "allocateArray requires an array class");
  assert(Length >= 0 && "negative array length reaches the trap path first");
  size_t Bytes = arrayBytes(Length);
  Ref Obj = allocateRaw(Bytes);
  if (!Obj)
    return nullptr;
  std::memset(Obj, 0, Bytes);
  ObjectHeader *H = header(Obj);
  H->Class = ArrCls.Id;
  H->Flags = FlagArray | (ArrCls.ElemIsRef ? FlagRefArray : 0u);
  setIntAt(Obj, ArrayLengthOffset, Length);
  ++NumAllocated;
  TelObjectsAllocated.inc();
  TelBytesAllocated.add(Bytes);
  return Obj;
}

void Heap::reserveOldCopySpace(size_t Bytes) {
  if (OldCopy)
    fatalError("old-copy space already in use");
  OldCopyCapacity = alignUp(Bytes);
  OldCopy = std::make_unique_for_overwrite<uint8_t[]>(OldCopyCapacity);
  OldCopyBump = 0;
}

Ref Heap::allocateInOldCopySpace(size_t Bytes) {
  Ref Obj = tryAllocateInOldCopySpace(Bytes);
  if (!Obj)
    fatalError("old-copy space exhausted during collection");
  return Obj;
}

Ref Heap::tryAllocateInOldCopySpace(size_t Bytes) {
  assert(OldCopy && "old-copy space not reserved");
  Bytes = alignUp(Bytes);
  if (OldCopyBump + Bytes > OldCopyCapacity)
    return nullptr;
  Ref Obj = OldCopy.get() + OldCopyBump;
  OldCopyBump += Bytes;
  return Obj;
}

void Heap::releaseOldCopySpace() {
  OldCopy.reset();
  OldCopyBump = 0;
  OldCopyCapacity = 0;
}

void Heap::flip() {
  Bump[Current] = 0;
  Current = 1 - Current;
}

bool Heap::inCurrentSpace(Ref Obj) const {
  return Obj >= Spaces[Current] && Obj < Spaces[Current] + SpaceBytes;
}

bool Heap::inOtherSpace(Ref Obj) const {
  return Obj >= Spaces[1 - Current] && Obj < Spaces[1 - Current] + SpaceBytes;
}
