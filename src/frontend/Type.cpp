//===--- Type.cpp - ESP structural type system -----------------------------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//

#include "frontend/Type.h"

using namespace esp;

int Type::getFieldIndex(const std::string &Name) const {
  const std::vector<TypeField> &Fs = getFields();
  for (size_t I = 0, E = Fs.size(); I != E; ++I)
    if (Fs[I].Name == Name)
      return static_cast<int>(I);
  return -1;
}

bool Type::isSendable() const {
  if (Mutable)
    return false;
  switch (Kind) {
  case TypeKind::Int:
  case TypeKind::Bool:
    return true;
  case TypeKind::Record:
  case TypeKind::Union:
    for (const TypeField &F : Fields)
      if (!F.FieldType->isSendable())
        return false;
    return true;
  case TypeKind::Array:
    return Element->isSendable();
  }
  return false;
}

std::string Type::str() const {
  std::string Out;
  if (Mutable)
    Out += '#';
  switch (Kind) {
  case TypeKind::Int:
    Out += "int";
    return Out;
  case TypeKind::Bool:
    Out += "bool";
    return Out;
  case TypeKind::Record:
  case TypeKind::Union: {
    Out += isRecord() ? "record of { " : "union of { ";
    for (size_t I = 0, E = Fields.size(); I != E; ++I) {
      if (I != 0)
        Out += ", ";
      Out += Fields[I].Name;
      Out += ": ";
      Out += Fields[I].FieldType->str();
    }
    Out += " }";
    return Out;
  }
  case TypeKind::Array:
    Out += "array of ";
    Out += Element->str();
    return Out;
  }
  return Out;
}

TypeContext::TypeContext() {
  Type IntCandidate;
  IntCandidate.Kind = TypeKind::Int;
  IntType = intern(std::move(IntCandidate));
  Type BoolCandidate;
  BoolCandidate.Kind = TypeKind::Bool;
  BoolType = intern(std::move(BoolCandidate));
}

static bool sameStructure(const Type &A, const Type &B) {
  if (A.getKind() != B.getKind() || A.isMutable() != B.isMutable())
    return false;
  switch (A.getKind()) {
  case TypeKind::Int:
  case TypeKind::Bool:
    return true;
  case TypeKind::Record:
  case TypeKind::Union:
    return A.getFields() == B.getFields();
  case TypeKind::Array:
    return A.getElementType() == B.getElementType();
  }
  return false;
}

const Type *TypeContext::intern(Type Candidate) {
  for (const std::unique_ptr<Type> &Existing : OwnedTypes)
    if (sameStructure(*Existing, Candidate))
      return Existing.get();
  Candidate.Id = static_cast<uint32_t>(OwnedTypes.size());
  OwnedTypes.push_back(std::make_unique<Type>(std::move(Candidate)));
  return OwnedTypes.back().get();
}

const Type *TypeContext::getRecordType(std::vector<TypeField> Fields,
                                       bool Mutable) {
  Type Candidate;
  Candidate.Kind = TypeKind::Record;
  Candidate.Mutable = Mutable;
  Candidate.Fields = std::move(Fields);
  return intern(std::move(Candidate));
}

const Type *TypeContext::getUnionType(std::vector<TypeField> Fields,
                                      bool Mutable) {
  Type Candidate;
  Candidate.Kind = TypeKind::Union;
  Candidate.Mutable = Mutable;
  Candidate.Fields = std::move(Fields);
  return intern(std::move(Candidate));
}

const Type *TypeContext::getArrayType(const Type *Element, bool Mutable) {
  Type Candidate;
  Candidate.Kind = TypeKind::Array;
  Candidate.Mutable = Mutable;
  Candidate.Element = Element;
  return intern(std::move(Candidate));
}

const Type *TypeContext::withMutability(const Type *T, bool Mutable) {
  if (T->isMutable() == Mutable || T->isScalar())
    return T;
  switch (T->getKind()) {
  case TypeKind::Record:
    return getRecordType(T->getFields(), Mutable);
  case TypeKind::Union:
    return getUnionType(T->getFields(), Mutable);
  case TypeKind::Array:
    return getArrayType(T->getElementType(), Mutable);
  case TypeKind::Int:
  case TypeKind::Bool:
    break;
  }
  return T;
}

const Type *TypeContext::withDeepMutability(const Type *T, bool Mutable) {
  switch (T->getKind()) {
  case TypeKind::Int:
  case TypeKind::Bool:
    return T;
  case TypeKind::Record:
  case TypeKind::Union: {
    std::vector<TypeField> Fields;
    Fields.reserve(T->getFields().size());
    for (const TypeField &F : T->getFields())
      Fields.push_back(
          TypeField{F.Name, withDeepMutability(F.FieldType, Mutable)});
    return T->isRecord() ? getRecordType(std::move(Fields), Mutable)
                         : getUnionType(std::move(Fields), Mutable);
  }
  case TypeKind::Array:
    return getArrayType(withDeepMutability(T->getElementType(), Mutable),
                        Mutable);
  }
  return T;
}
