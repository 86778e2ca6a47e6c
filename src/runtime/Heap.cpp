//===--- Heap.cpp - ESP runtime values and refcounted heap -----------------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//

#include "runtime/Heap.h"

#include <cassert>

using namespace esp;

void Heap::freeObject(uint32_t Index) {
  HeapObject &Obj = Objects[Index];
  assert(Obj.Live && "double free");
  assert((Obj.Gen & 1) == 0 && "freeing a slot with odd (dead) generation");
  Obj.Live = false;
  ++Obj.Gen; // Even (live) -> odd (freed): invalidates outstanding refs.
  // Keep the element buffer's capacity for the next occupant of the slot.
  Obj.Elems.clear();
  --LiveCount;
  if (ReuseIds) {
    NextFree[Index] = FreeHead;
    FreeHead = Index;
  }
}

void Heap::reset() {
  FreeHead = kNoFree;
  for (uint32_t Index = static_cast<uint32_t>(Objects.size()); Index-- > 0;) {
    HeapObject &Obj = Objects[Index];
    if (Obj.Live) {
      Obj.Live = false;
      ++Obj.Gen; // Even (live) -> odd (freed): invalidates outstanding refs.
    }
    Obj.ObjType = nullptr;
    Obj.RefCount = 0;
    Obj.Arm = -1;
    Obj.Elems.clear(); // Capacity stays with the slot: the arena reuse.
    // High-to-low chaining leaves FreeHead at slot 0, so a reset heap
    // pops ids in the same ascending order a fresh heap appends them.
    NextFree[Index] = FreeHead;
    FreeHead = Index;
  }
  TotalAllocations = 0;
  LiveCount = 0;
  HighWater = 0;
}

size_t Heap::bytes() const {
  // A copy allocates exactly size() elements per vector; freed slots have
  // cleared element lists.
  size_t Bytes = sizeof(Heap) +
                 Objects.size() * (sizeof(HeapObject) + sizeof(uint32_t));
  for (const HeapObject &Obj : Objects)
    Bytes += Obj.Elems.size() * sizeof(Value);
  return Bytes;
}

HeapStatus Heap::unlink(const Value &V) {
  // Iterative recursive-unlink to avoid unbounded native recursion on
  // deep object graphs. The scratch worklist is a member so steady-state
  // unlinks are allocation-free.
  UnlinkScratch.clear();
  UnlinkScratch.push_back(V);
  while (!UnlinkScratch.empty()) {
    Value Current = UnlinkScratch.back();
    UnlinkScratch.pop_back();
    HeapObject *Obj = deref(Current);
    if (!Obj)
      return HeapStatus::DeadObject;
    assert(Obj->RefCount > 0 && "live object with zero refcount");
    if (--Obj->RefCount != 0)
      continue;
    // Queue the children, then free: freeObject clears the element list
    // (the object is dead; the slot keeps the buffer for reuse).
    for (const Value &Child : Obj->Elems)
      if (Child.isRef())
        UnlinkScratch.push_back(Child);
    freeObject(Current.Ref);
  }
  return HeapStatus::OK;
}
