//===--- SafetyHarness.cpp - Per-process memory-safety verification ---------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//

#include "mc/SafetyHarness.h"

#include "frontend/PatternAnalysis.h"

#include <algorithm>
#include <cassert>

using namespace esp;

static constexpr uint64_t VariantCap = 1 << 20;

uint64_t BoundedEnvModel::countVariants(const Type *T) const {
  switch (T->getKind()) {
  case TypeKind::Int:
    return IntDomain.size();
  case TypeKind::Bool:
    return 2;
  case TypeKind::Record: {
    uint64_t Product = 1;
    for (const TypeField &F : T->getFields()) {
      Product *= countVariants(F.FieldType);
      if (Product >= VariantCap)
        return VariantCap;
    }
    return Product;
  }
  case TypeKind::Union: {
    uint64_t Sum = 0;
    for (const TypeField &F : T->getFields()) {
      Sum += countVariants(F.FieldType);
      if (Sum >= VariantCap)
        return VariantCap;
    }
    return Sum;
  }
  case TypeKind::Array: {
    uint64_t Product = 1;
    uint64_t PerElem = countVariants(T->getElementType());
    for (unsigned I = 0; I != ArrayLen; ++I) {
      Product *= PerElem;
      if (Product >= VariantCap)
        return VariantCap;
    }
    return Product;
  }
  }
  return 1;
}

unsigned BoundedEnvModel::numVariants(const ChannelDecl *Chan) const {
  if (!Driven.count(Chan->Name))
    return 0;
  return static_cast<unsigned>(countVariants(Chan->ElemType));
}

Value BoundedEnvModel::buildVariant(const Type *T, uint64_t Index,
                                    Heap &H) const {
  switch (T->getKind()) {
  case TypeKind::Int:
    return Value::makeInt(IntDomain[Index % IntDomain.size()]);
  case TypeKind::Bool:
    return Value::makeBool(Index % 2 != 0);
  case TypeKind::Record: {
    std::optional<Value> Obj = H.allocate(T, T->getFields().size());
    assert(Obj && "templates are built in an unbounded heap");
    for (size_t I = 0, N = T->getFields().size(); I != N; ++I) {
      uint64_t N_I = countVariants(T->getFields()[I].FieldType);
      Value Elem = buildVariant(T->getFields()[I].FieldType, Index % N_I, H);
      Index /= N_I;
      H.deref(*Obj)->Elems[I] = Elem;
    }
    return *Obj;
  }
  case TypeKind::Union: {
    size_t Arm = 0;
    for (const TypeField &F : T->getFields()) {
      uint64_t N_Arm = countVariants(F.FieldType);
      if (Index < N_Arm)
        break;
      Index -= N_Arm;
      ++Arm;
    }
    if (Arm >= T->getFields().size())
      Arm = T->getFields().size() - 1;
    std::optional<Value> Obj = H.allocate(T, 1);
    assert(Obj && "templates are built in an unbounded heap");
    Value Sub = buildVariant(T->getFields()[Arm].FieldType, Index, H);
    HeapObject *ObjPtr = H.deref(*Obj);
    ObjPtr->Arm = static_cast<int32_t>(Arm);
    ObjPtr->Elems[0] = Sub;
    return *Obj;
  }
  case TypeKind::Array: {
    std::optional<Value> Obj = H.allocate(T, ArrayLen);
    assert(Obj && "templates are built in an unbounded heap");
    uint64_t PerElem = countVariants(T->getElementType());
    for (unsigned I = 0; I != ArrayLen; ++I) {
      Value Elem = buildVariant(T->getElementType(), Index % PerElem, H);
      Index /= PerElem;
      H.deref(*Obj)->Elems[I] = Elem;
    }
    return *Obj;
  }
  }
  return Value::makeInt(0);
}

Value BoundedEnvModel::makeVariant(const ChannelDecl *Chan, unsigned Index,
                                   Heap &H) const {
  return buildVariant(Chan->ElemType, Index, H);
}

/// Lowers \p Prog unoptimized (the paper translates to SPIN right after
/// type checking, §5.2), keeps the processes named in \p Names, and checks
/// them against an environment that drives each channel some kept
/// process receives from. With \p DriveInternal false it skips the
/// channels some kept process also writes: those rendezvous between the
/// kept processes instead.
static McResult checkIsolated(const Program &Prog,
                              const std::vector<std::string> &Names,
                              bool DriveInternal,
                              const SafetyOptions &Options) {
  ModuleIR Full = lowerProgram(Prog);
  ModuleIR Isolated;
  Isolated.Prog = Full.Prog;
  for (ProcIR &P : Full.Procs)
    if (std::find(Names.begin(), Names.end(), P.Proc->Name) != Names.end())
      Isolated.Procs.push_back(std::move(P));
  assert(!Isolated.Procs.empty() && "no such process");

  std::set<std::string> Read, Written;
  for (const ProcIR &P : Isolated.Procs)
    for (const Inst &I : P.Insts) {
      if (I.Kind != InstKind::Block)
        continue;
      for (const IRCase &Case : I.Cases)
        (Case.IsIn ? Read : Written).insert(Case.Channel->Name);
    }
  std::set<std::string> Driven;
  for (const std::string &Name : Read)
    if (DriveInternal || !Written.count(Name))
      Driven.insert(Name);

  BoundedEnvModel Env(Driven, Options.IntDomain, Options.ArrayLen);
  McOptions Mc = Options.Mc;
  Mc.Env = &Env;
  return checkModel(Isolated, Mc);
}

McResult esp::verifyProcessMemorySafety(const Program &Prog,
                                        const std::string &ProcessName,
                                        const SafetyOptions &Options) {
  return checkIsolated(Prog, {ProcessName}, /*DriveInternal=*/true, Options);
}

McResult esp::verifyProcessClusterMemorySafety(
    const Program &Prog, const std::vector<std::string> &ProcessNames,
    const SafetyOptions &Options) {
  return checkIsolated(Prog, ProcessNames, /*DriveInternal=*/false, Options);
}
