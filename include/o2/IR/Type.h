//===- o2/IR/Type.h - OIR type system ---------------------------*- C++ -*-===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Types of the OIR whole-program intermediate representation: a scalar
/// int type, reference types for classes (single inheritance, fields,
/// virtual methods), and array types. This is the minimal type universe
/// over which all rules of the paper's Table 2 are expressible.
///
//===----------------------------------------------------------------------===//

#ifndef O2_IR_TYPE_H
#define O2_IR_TYPE_H

#include "o2/Support/Casting.h"
#include "o2/Support/Compiler.h"

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace o2 {

class ClassType;
class Function;
class Module;

/// Root of the OIR type hierarchy. Uses LLVM-style tagged RTTI.
class Type {
public:
  enum TypeKind : uint8_t {
    TK_Int,   ///< Scalar value; carries no points-to information.
    TK_Class, ///< Reference to a heap object of a class.
    TK_Array, ///< Reference to a heap array.
  };

  TypeKind getKind() const { return Kind; }

  /// True for types whose variables can point to heap objects.
  bool isReference() const { return Kind != TK_Int; }

  /// Returns a short printable name ("int", class name, "T[]").
  const std::string &getName() const { return Name; }

  virtual ~Type() = default;

protected:
  Type(TypeKind Kind, std::string Name) : Kind(Kind), Name(std::move(Name)) {}

private:
  const TypeKind Kind;
  std::string Name;
};

/// The single scalar type. One instance per Module.
class IntType : public Type {
public:
  IntType() : Type(TK_Int, "int") {}

  static bool classof(const Type *T) { return T->getKind() == TK_Int; }
};

/// A named field declared by a class. Field identity is the declaring
/// (class, slot); subclasses inherit fields and may not redeclare them.
class Field {
public:
  Field(std::string Name, Type *Ty, ClassType *Parent, unsigned Id,
        bool IsAtomic = false)
      : Name(std::move(Name)), Ty(Ty), Parent(Parent), Id(Id),
        IsAtomic(IsAtomic) {}

  const std::string &getName() const { return Name; }
  Type *getType() const { return Ty; }
  ClassType *getParent() const { return Parent; }

  /// Module-wide dense ID, used to key abstract memory locations.
  unsigned getId() const { return Id; }

  /// Atomic fields (std::atomic / volatile-style) are synchronization,
  /// not data: the detector does not report races on them (the paper's
  /// future-work atomics treatment).
  bool isAtomic() const { return IsAtomic; }

private:
  std::string Name;
  Type *Ty;
  ClassType *Parent;
  unsigned Id;
  bool IsAtomic;
};

/// A class: optional superclass, fields, and methods. Methods dispatch
/// virtually by name through the superclass chain (Java-style).
class ClassType : public Type {
public:
  ClassType(std::string Name, ClassType *Super, Module &Parent, unsigned Id)
      : Type(TK_Class, std::move(Name)), Super(Super), ParentModule(Parent),
        Id(Id) {}

  static bool classof(const Type *T) { return T->getKind() == TK_Class; }

  ClassType *getSuper() const { return Super; }
  Module &getModule() const { return ParentModule; }

  /// Module-wide dense ID (declaration order), for per-class tables.
  unsigned getId() const { return Id; }

  /// Late-binds the superclass. Only the textual parser uses this (its
  /// first pass registers all class names before supers are resolvable);
  /// it must be called before any fields or methods are added.
  void setSuperForParser(ClassType *NewSuper) {
    assert(!Super && "superclass already set");
    assert(Fields.empty() && Methods.empty() &&
           "super must be set before members");
    Super = NewSuper;
  }

  /// Declares a new field on this class. The name must be fresh along the
  /// whole superclass chain.
  Field *addField(const std::string &FieldName, Type *Ty,
                  bool IsAtomic = false);

  /// Registers \p Method (already created in the Module) as a method of
  /// this class; overrides any same-named superclass method.
  void addMethod(Function *Method);

  /// Finds a field by name along the superclass chain; null if absent.
  Field *findField(std::string_view FieldName) const;

  /// Virtual dispatch: finds the method implementation for \p MethodName
  /// starting from this (dynamic) class; null if absent.
  Function *findMethod(std::string_view MethodName) const;

  /// True if this class equals \p Other or derives from it.
  bool isSubclassOf(const ClassType *Other) const;

  const std::vector<std::unique_ptr<Field>> &fields() const { return Fields; }
  const std::vector<Function *> &methods() const { return Methods; }

private:
  ClassType *Super;
  Module &ParentModule;
  unsigned Id;
  std::vector<std::unique_ptr<Field>> Fields;
  std::vector<uint32_t> FieldHashes;  ///< name hash of Fields[I]
  std::vector<Function *> Methods;
  std::vector<uint32_t> MethodHashes; ///< name hash of Methods[I]
};

/// An array of a fixed element type. Element accesses are index-insensitive
/// (the paper models all elements as one field "*").
class ArrayType : public Type {
public:
  explicit ArrayType(Type *Elem)
      : Type(TK_Array, Elem->getName() + "[]"), Elem(Elem) {}

  static bool classof(const Type *T) { return T->getKind() == TK_Array; }

  Type *getElementType() const { return Elem; }

private:
  Type *Elem;
};

} // namespace o2

#endif // O2_IR_TYPE_H
