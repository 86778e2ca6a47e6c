//===--- test_types.cpp - Type system unit tests -------------------------------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//

#include "frontend/Type.h"

#include <gtest/gtest.h>

using namespace esp;

namespace {

TEST(Types, ScalarsAreSingletons) {
  TypeContext Ctx;
  EXPECT_EQ(Ctx.getIntType(), Ctx.getIntType());
  EXPECT_EQ(Ctx.getBoolType(), Ctx.getBoolType());
  EXPECT_NE(Ctx.getIntType(), Ctx.getBoolType());
  EXPECT_TRUE(Ctx.getIntType()->isScalar());
  EXPECT_FALSE(Ctx.getIntType()->isAggregate());
}

TEST(Types, StructuralUniquing) {
  TypeContext Ctx;
  const Type *A = Ctx.getRecordType(
      {{"x", Ctx.getIntType()}, {"y", Ctx.getBoolType()}}, false);
  const Type *B = Ctx.getRecordType(
      {{"x", Ctx.getIntType()}, {"y", Ctx.getBoolType()}}, false);
  EXPECT_EQ(A, B);
  // Field names are part of the structure.
  const Type *C = Ctx.getRecordType(
      {{"z", Ctx.getIntType()}, {"y", Ctx.getBoolType()}}, false);
  EXPECT_NE(A, C);
  // Field order matters.
  const Type *D = Ctx.getRecordType(
      {{"y", Ctx.getBoolType()}, {"x", Ctx.getIntType()}}, false);
  EXPECT_NE(A, D);
}

TEST(Types, IdsAreDenseInCreationOrder) {
  TypeContext Ctx;
  EXPECT_EQ(Ctx.getIntType()->id(), 0u);
  EXPECT_EQ(Ctx.getBoolType()->id(), 1u);
  const Type *Arr = Ctx.getArrayType(Ctx.getIntType(), false);
  const Type *MutArr = Ctx.getArrayType(Ctx.getIntType(), true);
  EXPECT_EQ(Arr->id(), 2u);
  EXPECT_EQ(MutArr->id(), 3u);
  // Uniquing returns the existing type, id included.
  EXPECT_EQ(Ctx.getArrayType(Ctx.getIntType(), false)->id(), 2u);
}

TEST(Types, MutabilityDistinguishesTypes) {
  TypeContext Ctx;
  const Type *Imm = Ctx.getArrayType(Ctx.getIntType(), false);
  const Type *Mut = Ctx.getArrayType(Ctx.getIntType(), true);
  EXPECT_NE(Imm, Mut);
  EXPECT_FALSE(Imm->isMutable());
  EXPECT_TRUE(Mut->isMutable());
  EXPECT_EQ(Ctx.withMutability(Imm, true), Mut);
  EXPECT_EQ(Ctx.withMutability(Mut, false), Imm);
  EXPECT_EQ(Ctx.withMutability(Imm, false), Imm);
}

TEST(Types, RecordVersusUnionAreDistinct) {
  TypeContext Ctx;
  std::vector<TypeField> Fields = {{"a", Ctx.getIntType()}};
  EXPECT_NE(Ctx.getRecordType(Fields, false),
            Ctx.getUnionType(Fields, false));
}

TEST(Types, FieldIndexLookup) {
  TypeContext Ctx;
  const Type *R = Ctx.getRecordType(
      {{"dest", Ctx.getIntType()}, {"size", Ctx.getIntType()}}, false);
  EXPECT_EQ(R->getFieldIndex("dest"), 0);
  EXPECT_EQ(R->getFieldIndex("size"), 1);
  EXPECT_EQ(R->getFieldIndex("nope"), -1);
}

TEST(Types, SendabilityIsDeep) {
  TypeContext Ctx;
  const Type *MutArr = Ctx.getArrayType(Ctx.getIntType(), true);
  const Type *ImmArr = Ctx.getArrayType(Ctx.getIntType(), false);
  EXPECT_TRUE(ImmArr->isSendable());
  EXPECT_FALSE(MutArr->isSendable());
  // Immutable record holding a mutable array: not sendable.
  const Type *Hybrid = Ctx.getRecordType({{"data", MutArr}}, false);
  EXPECT_FALSE(Hybrid->isSendable());
  const Type *Clean = Ctx.getRecordType({{"data", ImmArr}}, false);
  EXPECT_TRUE(Clean->isSendable());
}

TEST(Types, DeepMutabilityFlip) {
  TypeContext Ctx;
  const Type *Inner = Ctx.getArrayType(Ctx.getIntType(), true);
  const Type *Outer = Ctx.getRecordType({{"data", Inner}}, true);
  const Type *Frozen = Ctx.withDeepMutability(Outer, false);
  EXPECT_FALSE(Frozen->isMutable());
  EXPECT_FALSE(Frozen->getFields()[0].FieldType->isMutable());
  EXPECT_TRUE(Frozen->isSendable());
  // Round trip.
  EXPECT_EQ(Ctx.withDeepMutability(Frozen, true), Outer);
}

TEST(Types, Printing) {
  TypeContext Ctx;
  EXPECT_EQ(Ctx.getIntType()->str(), "int");
  const Type *Arr = Ctx.getArrayType(Ctx.getIntType(), true);
  EXPECT_EQ(Arr->str(), "#array of int");
  const Type *R = Ctx.getRecordType({{"a", Arr}}, false);
  EXPECT_EQ(R->str(), "record of { a: #array of int }");
  const Type *U = Ctx.getUnionType({{"x", Ctx.getBoolType()}}, false);
  EXPECT_EQ(U->str(), "union of { x: bool }");
}

TEST(Types, NestedAggregatesUnique) {
  TypeContext Ctx;
  const Type *Inner = Ctx.getRecordType({{"v", Ctx.getIntType()}}, false);
  const Type *A = Ctx.getArrayType(Inner, false);
  const Type *B =
      Ctx.getArrayType(Ctx.getRecordType({{"v", Ctx.getIntType()}}, false),
                       false);
  EXPECT_EQ(A, B);
  EXPECT_EQ(A->getElementType(), Inner);
}

} // namespace
