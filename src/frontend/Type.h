//===--- Type.h - ESP structural type system --------------------*- C++ -*-==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ESP's type system (paper §4.1): `int`, `bool`, and mutable (`#`) or
/// immutable versions of `record`, `union` and `array`. Types are
/// structural, immutable once built, and uniqued by a TypeContext so that
/// pointer equality is type equality. Recursive types are impossible by
/// construction (a type can only reference already-built types), matching
/// the paper's restriction that recursive data types are not supported.
///
//===----------------------------------------------------------------------===//

#ifndef ESP_FRONTEND_TYPE_H
#define ESP_FRONTEND_TYPE_H

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace esp {

class Type;
class TypeContext;

enum class TypeKind : uint8_t { Int, Bool, Record, Union, Array };

/// One named field of a record or union type.
struct TypeField {
  std::string Name;
  const Type *FieldType = nullptr;

  friend bool operator==(const TypeField &A, const TypeField &B) {
    return A.Name == B.Name && A.FieldType == B.FieldType;
  }
};

/// An ESP type. Instances are owned and uniqued by a TypeContext; compare
/// types by pointer.
class Type {
public:
  TypeKind getKind() const { return Kind; }
  bool isMutable() const { return Mutable; }

  bool isInt() const { return Kind == TypeKind::Int; }
  bool isBool() const { return Kind == TypeKind::Bool; }
  bool isRecord() const { return Kind == TypeKind::Record; }
  bool isUnion() const { return Kind == TypeKind::Union; }
  bool isArray() const { return Kind == TypeKind::Array; }
  bool isScalar() const { return isInt() || isBool(); }
  bool isAggregate() const { return !isScalar(); }

  /// Fields of a record or union type.
  const std::vector<TypeField> &getFields() const {
    assert((isRecord() || isUnion()) && "not a record or union");
    return Fields;
  }

  /// Index of field \p Name, or -1 if absent.
  int getFieldIndex(const std::string &Name) const;

  /// Element type of an array.
  const Type *getElementType() const {
    assert(isArray() && "not an array");
    return Element;
  }

  /// True if a value of this type may be sent over a channel: the type and
  /// every type recursively reachable from it must be immutable (§4.2).
  bool isSendable() const;

  /// Dense id of this type within its TypeContext: its position in
  /// creation order (Int = 0, Bool = 1). Injective within one program and
  /// the same in every run, unlike the type's address.
  uint32_t id() const { return Id; }

  /// Renders the type in ESP surface syntax, e.g.
  /// "#record of { dest: int, data: array of int }".
  std::string str() const;

private:
  friend class TypeContext;
  Type() = default;

  TypeKind Kind = TypeKind::Int;
  bool Mutable = false;
  std::vector<TypeField> Fields; ///< Record/union only.
  const Type *Element = nullptr; ///< Array only.
  uint32_t Id = 0;               ///< Set by TypeContext::intern.
};

/// Owns and uniques Type instances.
class TypeContext {
public:
  TypeContext();
  TypeContext(const TypeContext &) = delete;
  TypeContext &operator=(const TypeContext &) = delete;

  const Type *getIntType() const { return IntType; }
  const Type *getBoolType() const { return BoolType; }
  const Type *getRecordType(std::vector<TypeField> Fields, bool Mutable);
  const Type *getUnionType(std::vector<TypeField> Fields, bool Mutable);
  const Type *getArrayType(const Type *Element, bool Mutable);

  /// Returns \p T with its own mutability replaced by \p Mutable (shallow:
  /// nested field types are unchanged).
  const Type *withMutability(const Type *T, bool Mutable);

  /// Returns \p T with the mutability of T and of every nested aggregate
  /// set to \p Mutable. This is the type produced by `cast` (§4.2), which
  /// semantically deep-copies the object into the other mutability world.
  const Type *withDeepMutability(const Type *T, bool Mutable);

private:
  const Type *intern(Type Candidate);

  std::vector<std::unique_ptr<Type>> OwnedTypes;
  const Type *IntType = nullptr;
  const Type *BoolType = nullptr;
};

} // namespace esp

#endif // ESP_FRONTEND_TYPE_H
